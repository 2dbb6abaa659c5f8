import math

import mpmath
import numpy as np
import pytest

from pacbayes import (FAMILIES, BoundParams, ProbMeasure, coverage_experiment,
                      derive_matched_catoni_constants, draw_sample, evaluate_posterior_bound,
                      gibbs_posterior, kl_divergence, minimize_bound)
from pacbayes.core import LossTable, Sample, empirical_risks
from pacbayes import bounds, measures, posterior_opt
from pacbayes.measures import gibbs_losses
from pacbayes.posterior_opt import _dual_score, _path_point, _temperature, _tilt
from pacbayes.processes import _kl_ball_tilt

from conftest import assert_passes_its_checks, random_instance, random_measure

FAMILIES_CLOSED = ("mcallester", "catoni", "kst", "matched_catoni")


class TestGibbsPosterior:
    def test_beta_zero_returns_prior(self, rng):
        dist, table = random_instance(rng)
        p = random_measure(rng, table.hypothesis_count)
        s = draw_sample(dist, 10, 1)
        assert gibbs_posterior(p, table, s, 0.0) is p

    def test_large_beta_concentrates_on_erm(self, rng):
        dist, table = random_instance(rng, n_h=5)
        p = ProbMeasure.uniform(5)
        s = draw_sample(dist, 30, 2)
        risks = empirical_risks(table, s)
        q = gibbs_posterior(p, table, s, 1e6)
        winners = np.isclose(risks, risks.min(), atol=1e-12)
        assert q.weights[winners].sum() == pytest.approx(1.0, abs=1e-9)
        # mass splits proportionally to the prior among exact ties
        if winners.sum() > 1:
            sub = q.weights[winners]
            ref = p.weights[winners] / p.weights[winners].sum()
            assert np.allclose(sub, ref, atol=1e-9)

    def test_hand_two_hypotheses(self):
        # weights prop to exp(-beta * m * Remp); m=2, losses 1,1 vs 0,0
        from pacbayes import LossTable, Sample
        table = LossTable([[1, 1], [0, 0]])
        s = Sample(np.array([1, 1]))
        q = gibbs_posterior(ProbMeasure.uniform(2), table, s, 0.5)
        z = 1.0 + math.exp(1.0)
        assert q.weights[1] == pytest.approx(math.exp(1.0) / z, abs=1e-14)

    def test_kl_nondecreasing_in_beta(self, rng):
        dist, table = random_instance(rng, n_h=6)
        p = ProbMeasure.uniform(6)
        s = draw_sample(dist, 40, 3)
        kls = [kl_divergence(gibbs_posterior(p, table, s, b), p)
               for b in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a <= b + 1e-10 for a, b in zip(kls, kls[1:]))

    def test_negative_beta_rejected(self, rng):
        dist, table = random_instance(rng)
        s = draw_sample(dist, 5, 1)
        for beta in (-1.0, math.nan):
            with pytest.raises(ValueError):
                gibbs_posterior(ProbMeasure.uniform(table.hypothesis_count), table, s, beta)

    def test_prior_zero_stays_zero(self, rng):
        dist, table = random_instance(rng, n_h=4)
        p = ProbMeasure([0.5, 0.5, 0.0, 0.0])
        s = draw_sample(dist, 20, 4)
        q = gibbs_posterior(p, table, s, 3.0)
        assert q.weights[2] == 0.0 and q.weights[3] == 0.0


    def test_large_beta_with_a_better_atom_outside_the_prior(self):
        # Hypothesis 0 fits the sample perfectly but has no prior mass; at
        # beta * m = 1000 its score would underflow every weight the prior holds.
        from pacbayes import LossTable, Sample
        table = LossTable([[0, 0], [1, 1], [1, 0]])
        s = Sample(np.array([3, 2]))
        q = gibbs_posterior(ProbMeasure([0.0, 0.5, 0.5]), table, s, 200.0)
        assert q.weights[0] == 0.0
        assert q.weights[2] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [math.inf, 1e308, 1e300])
    def test_infinite_beta_is_the_prior_on_the_least_risk_atoms(self, beta):
        # beta * m overflows at inf and 1e308 (m = 4): the beta -> inf limit,
        # which 1e300 reaches in finite arithmetic. Hypothesis 0 fits every
        # sample but has no prior mass; the third sample ties hypothesis 1 with 2 and 3.
        from pacbayes import LossTable, Sample
        table = LossTable([[0, 0], [0, 1], [1, 0], [1, 0]])
        s = Sample(np.array([[3, 1], [0, 4], [2, 2]]))
        q = gibbs_posterior(ProbMeasure([0.0, 0.25, 0.375, 0.375]), table, s, beta)
        expected = ProbMeasure([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5],
                                [0.0, 0.25, 0.375, 0.375]])
        assert np.array_equal(q.weights, expected.weights)


def exact_tilt(p, score, t):
    """The weights of the exact tilt p exp(-t score) of the float inputs, one
    row of score, to 50 digits."""
    with mpmath.workdps(50):
        t, support = mpmath.mpf(float(t)), p.weights > 0
        least = mpmath.mpf(float(score[support].min()))
        w = [mpmath.mpf(float(pw)) * mpmath.exp(-t * (mpmath.mpf(float(x)) - least)) if pw > 0
             else mpmath.mpf(0) for pw, x in zip(p.weights, score)]
        z = mpmath.fsum(w)
        return [wf / z for wf in w]


class TestTiltAccuracy:
    """_tilt and gibbs_posterior against a 50-digit tilt of the same float
    inputs: each weight above the least normal is within 8 + 4 (t a + Q t a)
    ulp of its exact value, with a = score - (least score on p's support) and
    Q t a the exact tilt's mean of t a; up to 0.54 of that seen over four
    seeds. The exponent -t a carries a relative error of 2^-53, about t a ulp
    of the weight, and the sum that normalises it their mean under Q. Forming
    t score before shifting was up to 29 times that bound off."""

    def assert_within_the_exponent_error(self, p, score, t, weights):
        support = p.weights > 0
        for row, q in zip(score, weights):
            exact = exact_tilt(p, row, t)
            ta = t * (row - row[support].min())
            mean = float(mpmath.fsum(want * float(x) for want, x in zip(exact, ta)))
            for x, want, tx in zip(q, exact, ta):
                if float(want) >= np.finfo(float).tiny:
                    err = float(abs(mpmath.mpf(float(x)) - want)) / math.ulp(float(want))
                    assert err <= 8 + 4 * (tx + mean), (t, err, tx, mean)

    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("t", [1e2, 1e3, 1e4, 1e5])
    def test_tilt_and_gibbs_posterior(self, rng, t, partial):
        weights = rng.dirichlet(np.ones(20))
        if partial:
            weights[rng.permutation(20)[:6]] = 0.0
        p = normalized(weights)
        # Scores on the 1/200 grid in [0.4, 0.6), as the risks of a sample of 200 points.
        score = rng.integers(80, 120, (8, 20)) / 200
        self.assert_within_the_exponent_error(p, score, t, _tilt(p, score, t).weights)
        table = LossTable(rng.random((20, 6)))
        s = draw_sample(ProbMeasure(rng.dirichlet(np.ones(6))), 200, 5, size=8)
        q = gibbs_posterior(p, table, s, t / 200)
        self.assert_within_the_exponent_error(p, empirical_risks(table, s), t, q.weights)


class TestPosteriorsPassTheMeasureChecks:
    """The tilts are built without ProbMeasure's checks; the posteriors pass
    them again and are read-only."""

    @pytest.mark.parametrize("m, size", [(1, None), (1, 5), (30, None), (30, 5)])
    @pytest.mark.parametrize("beta", [0.0, 0.7, 1e300, math.inf])
    def test_gibbs_posterior(self, rng, beta, m, size):
        p, table, s = zero_prior_instance(rng, 9, 4, m, size, 2)
        assert_passes_its_checks(gibbs_posterior(p, table, s, beta))

    @pytest.mark.parametrize("size", [None, 5])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_minimize_bound(self, rng, family, size):
        p, table, s = zero_prior_instance(rng, 9, 4, 30, size, 2)
        params = BoundParams(C=1.3, c=2.0, h=0.3)
        assert_passes_its_checks(minimize_bound(family, params, p, table, s))


def normalized(w) -> ProbMeasure:
    """w / its sum, row by row."""
    return ProbMeasure(w / w.sum(axis=-1, keepdims=True))


def zero_prior_instance(rng, n_h, n_z, m, size, seed, binary=False):
    """An instance, non-binary unless binary is set, whose prior has no mass on
    about a third of the atoms, with a block of samples."""
    dist, table = random_instance(rng, n_h=n_h, n_z=n_z, binary=binary)
    weights = rng.dirichlet(np.ones(n_h))
    weights[rng.permutation(n_h)[:n_h // 3]] = 0.0
    return normalized(weights), table, draw_sample(dist, m, seed, size=size)


def minimized(family, params, p, table, s):
    """minimize_bound's posterior, and the bound evaluated there."""
    q = minimize_bound(family, params, p, table, s)
    return q, evaluate_posterior_bound(family, params, q, p, table, s)


def record_bounds(monkeypatch):
    """Make minimize_bound record the bound values it evaluates: its starts,
    then each tilt of the rows still open, all on the tilt path (_path_bound)."""
    seen = []
    path_bound = posterior_opt._path_bound

    def recording(*args):
        value, *rest = path_bound(*args)
        seen.append(np.array(value, ndmin=1))
        return value, *rest

    monkeypatch.setattr(posterior_opt, "_path_bound", recording)
    return seen


def flatness_score(params, table, s, y):
    """_dual_score at y over the whole table, from the base score Remp + c
    mean_S(L^2): the flatness score of the tilt Q_y."""
    s0 = empirical_risks(table, s) + params.c * s.mean_rows(table.loss_squared)
    return _dual_score(params, table.loss, s0, y, s.counts, s.m)


def majorise_at(family, params, q, p, table, s):
    """The tilt's (score, t) at the posterior q: the risks, or for flatness
    the score at y = G = q L, and _temperature at q's KL."""
    score = empirical_risks(table, s)
    if FAMILIES[family].needs_sample:
        score = flatness_score(params, table, s, gibbs_losses(q, table, s))
    return score, _temperature(family, params, kl_divergence(q, p), s.m)


class TestGradient:
    """The tilt that majorise_at sets up minimises the bound linearised at q, so
    it must have the bound's gradient at q: d_emp (score + (log(q/p) + 1) / t)
    on the prior's support, checked against central differences of the bound.
    For flatness, score carries the gradient of c * flatness."""

    # C = 1.5 catches a temperature that is right only at C = 1.
    @pytest.mark.parametrize("family,C", [
        *(pytest.param(f, 1.0, id=f) for f in FAMILIES_CLOSED + ("flatness",)),
        pytest.param("catoni", 1.5, id="catoni-C1.5"),
    ])
    def test_finite_difference(self, rng, family, C):
        dist, table = random_instance(rng, n_h=5, n_z=4, binary=False)
        p = ProbMeasure([0.04, 0.3, 0.26, 0.2, 0.2])
        s = draw_sample(dist, 20, 6)
        params = BoundParams(delta=0.05, C=C, c=1.0, h=0.5)
        # Mostly on the first atom, so that KL exceeds 2, where kst's d_kl is not 0.
        q = normalized(rng.dirichlet(np.ones(5)) * 0.1 + [1.0, 0, 0, 0, 0])
        assert kl_divergence(q, p) > 2
        score, t = majorise_at(family, params, q, p, table, s)
        grad = FAMILIES[family].d_emp(params) * (score + (np.log(q.weights / p.weights) + 1) / t)

        def objective(w):
            return evaluate_posterior_bound(
                family, params, normalized(w), p, table, s).value

        eps = 1e-6
        # compare directional derivatives along simplex-tangent directions
        for a, b in ((0, 1), (2, 4), (1, 3)):
            d = np.zeros(5)
            d[a], d[b] = 1.0, -1.0
            num = (objective(q.weights + eps * d) - objective(q.weights - eps * d)) / (2 * eps)
            assert num == pytest.approx(float(grad @ d), rel=1e-6, abs=1e-6)

    def test_kst_below_the_kink_tilts_to_the_limit(self, rng):
        # At KL <= 2 kst's d_kl is 0, so the next tilt is the beta -> inf limit.
        dist, table = random_instance(rng, n_h=5, n_z=4)
        p = ProbMeasure.uniform(5)
        _, t = majorise_at("kst", BoundParams(), p, p, table, draw_sample(dist, 20, 6))
        assert t == math.inf


class TestDualIdentity:
    """The flatness bound at the tilt Q_y ~ p exp(-score(y) / b) of
    _dual_score is F(y) - (a/m) sum_z n_z (y_z - G_z(Q_y))^2 <= F(y), with
    a = c (1 - h^2), b = d_kl and F(y) = k - b log E_p e^{-score(y)/b} + (a/m)
    sum_z n_z y_z^2, against a 50-digit evaluation of the float inputs."""

    def test_bound_at_the_tilt_of_y(self, rng):
        params = BoundParams(delta=0.05, c=2.0, h=0.3)
        alpha = mpmath.mpf(params.c) * (1 - mpmath.mpf(params.h) ** 2)
        C = bounds.flatness_rate_constant(params.c, params.h)
        for seed in range(30):
            n_h, n_z, m = int(rng.integers(2, 25)), int(rng.integers(1, 7)), int(rng.integers(1, 300))
            p, table, s = zero_prior_instance(rng, n_h, n_z, m, None, seed)
            y = rng.random(n_z)
            t = _temperature("flatness", params, np.zeros(1), m)[0]
            q = _tilt(p, flatness_score(params, table, s, y), t)
            value = float(evaluate_posterior_bound("flatness", params, q, p, table, s).value)
            with mpmath.workdps(50):
                b, n = 12 / (mpmath.mpf(C) * m), [int(k) for k in s.counts]
                k = 4 / (mpmath.mpf(C) * m) * (mpmath.log(1 / mpmath.mpf(params.delta)) + 5)
                loss = [[mpmath.mpf(float(x)) for x in row] for row in table.loss]
                # score(y) = Remp + c mean_S(L^2) - (2 a / m) L (n y).
                score = [mpmath.fsum(nz * (x + params.c * x * x - 2 * alpha * x * yz)
                                     for nz, x, yz in zip(n, row, map(float, y))) / m
                         for row in loss]
                w = [mpmath.mpf(float(pf)) * mpmath.exp(-sf / b)
                     for pf, sf in zip(p.weights, score)]
                z = mpmath.fsum(w)
                g = [mpmath.fsum(wf * row[j] for wf, row in zip(w, loss)) / z for j in range(n_z)]
                f = k - b * mpmath.log(z) + alpha / m * mpmath.fsum(
                    nz * mpmath.mpf(float(yz)) ** 2 for nz, yz in zip(n, y))
                want = f - alpha / m * mpmath.fsum(nz * (mpmath.mpf(float(yz)) - gz) ** 2
                                                   for nz, yz, gz in zip(n, y, g))
            assert want <= f
            assert abs(value - want) <= 1e-14 * max(1.0, abs(float(want))), seed


class TestHugeC:
    """_dual_score's c-term c (-2 (1 - h^2)/m) L (n y) lies in [-2 c, 0], and
    passes the float range for c near its top, though the score s0 plus it
    lies in [-c, 1 + c]."""

    def test_minimiser_at_c_1e308(self):
        # m = 1 and y = G = 1 at the sampled point: every c-term that is not 0
        # is about -2c. Hypothesis 1 has the least loss there.
        table = LossTable(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))
        q = minimize_bound("flatness", BoundParams(c=1e308, h=1e-3), ProbMeasure.uniform(3),
                           table, Sample(np.array([1, 0, 0])))
        assert np.array_equal(q.weights, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("c", [3.0, 1e300, 2.0 ** 1022, 5e307, 8.9e307, 1e308, 1.7e308])
    def test_the_sum_of_s0_and_the_rounded_c_term(self, rng, c):
        # The score is s0 + fl(c v), rounded once more, as on a float format with
        # no exponent limit (mpmath at 53 bits): where that is below the float
        # maximum, it is the sum formed in full, bit for bit, and it is finite.
        params = BoundParams(c=c, h=1e-3)
        for seed in range(20):
            n_h, n_z, m = int(rng.integers(2, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
            _, table, s = zero_prior_instance(rng, n_h, n_z, m, None, seed, binary=seed % 2 == 0)
            y = rng.random(n_z)
            y[0] = 1.0
            s0 = empirical_risks(table, s) + c * s.mean_rows(table.loss_squared)
            v = np.matvec(table.loss, y * s.counts * (-2.0 * (1.0 - params.h ** 2) / m))
            score = _dual_score(params, table.loss, s0, y, s.counts, m)
            with mpmath.workprec(53):
                want = [float(mpmath.mpf(float(a)) + mpmath.mpf(c) * mpmath.mpf(float(b)))
                        for a, b in zip(s0, v)]
            assert score.tolist() == want, seed
            with np.errstate(over="ignore"):
                full = c * v + s0
            assert np.array_equal(score[np.isfinite(full)], full[np.isfinite(full)])


def path_point(p, risks, t, loss=None):
    """_path_point at the tilts _tilt(p, risks, t), risks [..., n_h] and t
    broadcast against each other, as flat rows: (Remp, KL), and Q loss given
    loss [n_h, k]."""
    shape = np.broadcast_shapes(risks.shape[:-1], np.shape(t))
    support = p.weights > 0
    r = np.broadcast_to(risks, shape + (p.size,)).reshape(-1, p.size)[:, support]
    least = r.min(axis=-1)
    point = _path_point(p.weights[support], r - least[:, None], least,
                        np.broadcast_to(np.asarray(t, dtype=float), shape).reshape(-1),
                        np.zeros((support.sum(), 0)) if loss is None else loss[support])
    return point[:2] if loss is None else point


def assert_path_point_is_the_tilt(p, table, s, t):
    """The tilt path's Remp, KL and G = Q L at t are those of the posterior
    _tilt(p, risks, t), within 4 ulp, 64 ulp of max(1, KL) (kl_divergence
    rounds its log-ratios up to 15 ulp off at large t, see below) and 16 ulp
    (12 seen)."""
    risks = empirical_risks(table, s)
    emp, kl, g = path_point(p, risks, t, table.loss)
    q = _tilt(p, risks, t)
    eps = np.finfo(float).eps
    assert np.abs(emp - s.mean(gibbs_losses(q, table, s))).max() <= 4 * eps
    kl_q = kl_divergence(q, p)
    assert (np.abs(kl - kl_q) <= 64 * eps * np.maximum(1.0, kl_q)).all()
    assert np.abs(g - (q.weights @ table.loss).reshape(g.shape)).max() <= 16 * eps
    return emp, kl


def exact_tilt_kl(p, risks, t):
    """KL(Q_t || p) of the exact tilt Q_t ~ p exp(-t risks) of the float inputs, to 60 digits."""
    with mpmath.workdps(60):
        support = [(mpmath.mpf(float(w)), mpmath.mpf(float(r)))
                   for w, r in zip(p.weights, risks) if w > 0]
        t, least = mpmath.mpf(float(t)), min(r for _, r in support)
        w = [pw * mpmath.exp(-t * (r - least)) for pw, r in support]
        z = mpmath.fsum(w)
        return mpmath.fsum(wi / z * mpmath.log(wi / (z * pw)) for wi, (pw, _) in zip(w, support))


class TestPathPoint:
    """_path_point, the tilt path's Remp and KL from the log-partition, is the
    Remp and KL of the posterior _tilt(p, risks, t), at every t and on the
    edge cases of the prior and the risks."""

    def test_agrees_with_the_posterior_at_the_same_tilt(self, rng):
        for seed in range(40):
            p, table, block = zero_prior_instance(rng, int(rng.integers(2, 30)), 5,
                                                  int(rng.integers(2, 300)), 6, seed)
            t = np.concatenate([[0.0, math.inf], 10.0 ** rng.uniform(-4, 4, 4)])
            assert_path_point_is_the_tilt(p, table, block, t)

    def test_kl_as_accurate_as_kl_divergence(self, rng):
        # Error against the 60-digit KL, in ulp of max(1, KL), over 300 tilts:
        # the worst is 1.4 for the log-partition and 6.5 for kl_divergence,
        # whose log-ratios carry the rounding of the tilt's weights.
        eps = np.finfo(float).eps
        path_err, measure_err = [], []
        for seed in range(300):
            p, table, s = zero_prior_instance(rng, int(rng.integers(2, 30)), 5,
                                              int(rng.integers(2, 300)), None, seed)
            risks, t = empirical_risks(table, s), 10.0 ** rng.uniform(-4, 4)
            exact = exact_tilt_kl(p, risks, t)
            scale = eps * max(1.0, float(exact))
            path_err.append(abs(float(path_point(p, risks, t)[1][0] - exact)) / scale)
            measure_err.append(abs(float(kl_divergence(_tilt(p, risks, t), p) - exact)) / scale)
        assert max(path_err) <= max(measure_err)
        assert max(path_err) <= 4.0

    @pytest.mark.parametrize("t", [0.0, 1.0, 1e3, 1e6, math.inf])
    def test_an_atom_without_prior_mass_has_the_least_risk(self, t):
        # Hypothesis 0 fits the sample but has no prior mass: the path shifts by
        # the least risk on the prior's support, 0.6, so no weight overflows.
        table, s = LossTable([[0, 0], [1, 1], [1, 0]]), Sample(np.array([3, 2]))
        p = ProbMeasure([0.0, 0.5, 0.5])
        emp, kl = assert_path_point_is_the_tilt(p, table, s, t)
        if t == math.inf:
            assert emp == 0.6 and kl == pytest.approx(math.log(2.0), rel=1e-15)

    def test_t_zero_is_the_prior(self, rng):
        p, table, block = zero_prior_instance(rng, 12, 5, 40, 6, 1)
        risks = empirical_risks(table, block)
        emp, kl = assert_path_point_is_the_tilt(p, table, block, 0.0)
        assert (kl <= np.finfo(float).eps).all()
        assert emp == pytest.approx(risks @ p.weights, rel=4e-16)

    def test_t_infinite_is_the_limit_below_the_kst_kink(self, rng):
        # The prior mass of the least risk is 1/4, so the limit's KL, log 4,
        # is below kst's kink: its next tilt is this limit.
        p, table, block = oracle_instance("kst-limit-below-2", np.random.default_rng(2024))
        risks = empirical_risks(table, block)
        assert np.isinf(_temperature("kst", BoundParams(), np.array([math.log(4.0)]), block.m))
        emp, kl = assert_path_point_is_the_tilt(p, table, block, math.inf)
        least = risks.min(axis=-1)
        assert np.array_equal(emp, least)
        mass = (risks == least[:, None]) @ p.weights
        assert kl == pytest.approx(-np.log(mass), rel=1e-15)

    @pytest.mark.parametrize("t", [0.0, 1.0, 1e3, math.inf])
    def test_tied_risks(self, t):
        # Every tilt is p / sum(p), and sum(p) rounds to 1 + 2^-52: the KL rounds
        # below 0 and is clamped to 0.
        p = ProbMeasure([0.6611656251366724, 0.33883437486332774])
        table, s = LossTable([[0.5, 0.5], [0.5, 0.5]]), Sample(np.array([3, 2]))
        emp, kl = assert_path_point_is_the_tilt(p, table, s, t)
        assert emp == 0.5 and kl == 0.0

    @pytest.mark.parametrize("counts", [[8, 12], [12, 8]])
    def test_a_subnormal_prior_weight(self, counts):
        # With counts [12, 8] the atom of prior mass 1e-310 has the least risk:
        # the partition Z falls to 1e-310 as t grows, and the KL to its limit
        # -log 1e-310 = 713.8.
        p, table = ProbMeasure([1.0, 1e-310]), LossTable([[1, 0], [0, 1]])
        s = Sample(np.array(counts))
        t = np.array([0.0, 1.0, 20.0, 500.0, 5000.0, math.inf])
        _, kl = assert_path_point_is_the_tilt(p, table, s, t)
        if counts == [12, 8]:
            assert kl[-1] == pytest.approx(-math.log(1e-310), rel=1e-15)
        for family in FAMILIES_CLOSED:
            q, rep = minimized(family, BoundParams(), p, table, s)
            assert_passes_its_checks(q)
            assert rep.value <= evaluate_posterior_bound(family, BoundParams(), p, p, table, s).value

    @pytest.mark.parametrize("family", FAMILIES_CLOSED)
    def test_one_point(self, rng, family):
        # m = 1: mcallester keeps its error, and the other families minimise.
        p, table, s = zero_prior_instance(rng, 9, 4, 1, None, 3)
        if family == "mcallester":
            with pytest.raises(ValueError, match="m must be >= 2"):
                minimize_bound(family, BoundParams(), p, table, s)
        else:
            q, rep = minimized(family, BoundParams(), p, table, s)
            assert rep.value <= evaluate_posterior_bound(family, BoundParams(), p, p, table, s).value


class TestMinimizeBound:
    @pytest.mark.parametrize("family", FAMILIES_CLOSED)
    def test_never_worse_than_prior_or_grid(self, rng, family, monkeypatch):
        dist, table = random_instance(rng, n_h=5, n_z=4)
        p = ProbMeasure.uniform(5)
        s = draw_sample(dist, 30, 7)
        params = BoundParams(delta=0.05, C=1.0, c=1.0, h=0.5)
        betas = (0.0, 0.5, 2.0, 10.0)
        monkeypatch.setattr(posterior_opt, "BETA_GRID", betas)
        q, rep = minimized(family, params, p, table, s)
        grid_best = min(evaluate_posterior_bound(
            family, params, gibbs_posterior(p, table, s, b), p, table, s).value
            for b in betas)
        assert rep.value <= grid_best + 1e-12

    def test_catoni_tempered_optimality(self, rng, monkeypatch):
        # For the Catoni objective the tempered posterior at beta = C is the
        # exact minimizer, so a fine grid containing it cannot be improved much.
        dist, table = random_instance(rng, n_h=4, n_z=4)
        p = ProbMeasure.uniform(4)
        s = draw_sample(dist, 25, 8)
        C = 1.3
        params = BoundParams(delta=0.05, C=C)
        q_opt = gibbs_posterior(p, table, s, C)
        opt_val = evaluate_posterior_bound("catoni", params, q_opt, p, table, s).value
        monkeypatch.setattr(posterior_opt, "BETA_GRID", (0.0, C, 5.0))
        _, rep = minimized("catoni", params, p, table, s)
        assert rep.value <= opt_val + 1e-12
        assert rep.value >= opt_val - 1e-8

    @pytest.mark.parametrize("family", ["catoni", "matched_catoni"])
    def test_one_tilt_is_the_tempered_posterior(self, rng, family):
        # beta = d_emp / (m d_kl): C for catoni, (1 + c) / C1 for matched_catoni.
        params = BoundParams(delta=0.05, C=1.3)
        C1 = derive_matched_catoni_constants(1.0, 0.5, 0.05).C1
        beta = 1.3 if family == "catoni" else 2.0 / C1
        assert family == "catoni" or beta == pytest.approx(0.0276, abs=1e-4)
        for seed in range(5):
            p, table, block = zero_prior_instance(rng, 9, 5, 40, 6, seed)
            q = minimize_bound(family, params, p, table, block)
            # Within 1e-15 at this m: the tilt's temperature d_emp / d_kl
            # rounds differently from beta * m, by about m * 1e-16 in the exponent.
            assert np.abs(q.weights - gibbs_posterior(p, table, block, beta).weights).max() <= 1e-15

    @pytest.mark.parametrize("family", FAMILIES_CLOSED)
    def test_not_above_a_fine_beta_scan(self, rng, family):
        # The minimiser of a closed-form family lies on the tempered path.
        params = BoundParams(delta=0.05, C=0.7)
        # beta = 0 is the prior itself; the tilt at t = 0 would be p / sum(p).
        betas = np.concatenate([np.logspace(-5, 4, 2000), [np.inf]])
        for n_h, n_z, m, seed in ((12, 5, 40, 1), (30, 8, 300, 2), (6, 3, 5000, 3)):
            p, table, block = zero_prior_instance(rng, n_h, n_z, m, 4, seed)
            _, rep = minimized(family, params, p, table, block)
            for i, s in enumerate(map(Sample, block.counts)):
                risks = np.broadcast_to(empirical_risks(table, s), (len(betas), n_h))
                path = _tilt(p, risks, betas * m)
                scan = min(evaluate_posterior_bound(family, params, q, p, table, s).value.min()
                           for q in (path, p))
                assert rep.value[i] <= scan + 1e-12 * max(1.0, abs(scan))

    def test_kst_optimum_at_the_kink_has_kl_2(self):
        # Hypothesis f errs on the points z < f, so its empirical risk is f/20.
        # Past KL = 2 the bound rises along the tempered path, and the beta -> inf
        # limit (hypothesis 0 alone) has KL = log 20 > 2: the optimum is the kink.
        n = 20
        table = LossTable((np.arange(n)[None, :] < np.arange(n)[:, None]).astype(float))
        s, p = Sample(np.full(n, 5)), ProbMeasure.uniform(n)
        q, rep = minimized("kst", BoundParams(), p, table, s)
        assert kl_divergence(q, p) == pytest.approx(2.0, rel=1e-11)
        grid = [evaluate_posterior_bound("kst", BoundParams(), gibbs_posterior(p, table, s, b),
                                         p, table, s).value for b in posterior_opt.BETA_GRID]
        assert rep.value < min(grid) - 1e-3

    @pytest.mark.parametrize("family", ["mcallester", "catoni", "matched_catoni", "flatness"])
    def test_accepted_tilts_lower_the_bound_until_the_stop_rule(self, rng, family,
                                                                monkeypatch):
        # One sample and one start (kst would add its KL = 2 start), so every
        # evaluation after the start is one tilt of the same row. A tilt is
        # kept only where it lowers the bound, and the row stops at the first
        # tilt that lowers it by at most 1e-12 max(1, |B|). The loop's bound
        # comes from the log-partition, so the bound at the returned Q may
        # differ from it by an ulp.
        params = BoundParams(delta=0.05, C=1.3, c=2.0, h=0.3)
        seen = record_bounds(monkeypatch)
        for seed in range(4):
            p, table, block = zero_prior_instance(rng, 15, 6, 200, 1, seed)
            for beta in (0.0, 1.0):
                seen.clear()
                monkeypatch.setattr(posterior_opt, "BETA_GRID", (beta,))
                _, rep = minimized(family, params, p, table, Sample(block.counts[0]))
                start, *tilts = (float(v[-1]) for v in seen)
                assert 1 <= len(tilts) <= posterior_opt._MAX_TILTS
                best = start
                for k, value in enumerate(tilts):
                    drop = best - value
                    if k < len(tilts) - 1:
                        assert drop > 1e-12 * max(1.0, abs(value))
                    else:
                        assert drop <= 1e-12 * max(1.0, abs(min(best, value)))
                    best = min(best, value)
                assert abs(best - rep.value) <= 1e-15 * max(1.0, abs(best))

    def test_flatness_not_above_its_best_grid_start(self, rng):
        params = BoundParams(delta=0.05, c=3.0, h=0.2)
        for seed in range(4):
            p, table, block = zero_prior_instance(rng, 20, 7, 500, 8, seed)
            _, rep = minimized("flatness", params, p, table, block)
            starts = np.min([evaluate_posterior_bound(
                "flatness", params, gibbs_posterior(p, table, block, b), p, table, block).value
                for b in posterior_opt.BETA_GRID], axis=0)
            assert (rep.value <= starts).all()

    def test_tilt_cap_raises(self, monkeypatch):
        # One row (one start, one sample), then 4 starts x 3 samples: after one
        # tilt every row is still open (the loop is on its full slice), for a
        # path family and for flatness; flatness has stopped 10 of the 12 rows
        # by its fourth tilt (the loop is on index arrays).
        dist, table = random_instance(np.random.default_rng(0), n_h=8, n_z=5, binary=False)
        for family, grid, size, cap, still_open in [
                ("flatness", (0.0,), None, 1, 1), ("mcallester", posterior_opt.BETA_GRID, 3, 1, 12),
                ("flatness", posterior_opt.BETA_GRID, 3, 1, 12),
                ("flatness", posterior_opt.BETA_GRID, 3, 4, 2)]:
            monkeypatch.setattr(posterior_opt, "_MAX_TILTS", cap)
            monkeypatch.setattr(posterior_opt, "BETA_GRID", grid)
            with pytest.raises(RuntimeError, match=f"^minimize_bound: {still_open} rows still "
                                                   f"open after {cap} tilts$"):
                minimize_bound(family, BoundParams(c=2.0, h=0.3), ProbMeasure.uniform(8),
                               table, draw_sample(dist, 50, 3, size=size))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_risks_tied_on_the_support(self, family):
        # Every tilt of this prior is p / sum(p), whose KL to p rounds to
        # -1.8e-16 before it is clamped to 0. No tilt lowers the bound, so the
        # beta = 0 start wins untilted: the prior itself, not p / sum(p).
        p = ProbMeasure([0.6611656251366724, 0.33883437486332774])
        table, s = LossTable([[0.5, 0.5], [0.5, 0.5]]), Sample(np.array([3, 2]))
        q, rep = minimized(family, BoundParams(), p, table, s)
        assert np.array_equal(q.weights, p.weights)
        assert kl_divergence(q, p) == 0.0
        at_prior = evaluate_posterior_bound(family, BoundParams(), p, p, table, s).value
        assert rep.value == pytest.approx(at_prior, rel=1e-14)

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_returns_the_tilt_it_evaluated(self, family, binary, monkeypatch):
        # Each sample's posterior is the normalised _tilt_weights of the (a, t) the
        # loop evaluated for its winning row, bit for bit, and the prior itself
        # where that t is 0. The last sample has every point at one where all
        # hypotheses lose 1, so its risks and scores tie and its beta = 0 start wins.
        rng = np.random.default_rng(5)
        p, table, block = zero_prior_instance(rng, 15, 6, 200, 5, 3, binary)
        table = LossTable(np.hstack([table.loss, np.ones((15, 1))]))
        block = Sample(np.vstack([np.hstack([block.counts, np.zeros((5, 1), int)]),
                                  [0] * 6 + [200]]))
        evaluated, won = [], []
        path_point, descend = posterior_opt._path_point, posterior_opt._descend

        def recording_point(w0, a, least, t, loss):
            point = path_point(w0, a, least, t, loss)
            evaluated.append((w0, a.copy(), np.asarray(t).copy(), point[1].copy()))
            return point

        def recording_descend(step, val, state, n_starts):
            best = descend(step, val, state, n_starts)
            row = best * len(best) + np.arange(len(best))
            won.append((state[0][row], state[1][row]))
            return best

        monkeypatch.setattr(posterior_opt, "_path_point", recording_point)
        monkeypatch.setattr(posterior_opt, "_descend", recording_descend)
        q = minimize_bound(family, BoundParams(delta=0.05, C=1.3, c=2.0, h=0.3), p, table, block)
        support = p.weights > 0
        (t_won, kl_won), = won
        assert t_won[-1] == 0 and np.array_equal(q.weights[-1], p.weights)
        for i, (t, kl) in enumerate(zip(t_won, kl_won)):
            if t == 0:
                assert np.array_equal(q.weights[i], p.weights)
                continue
            tilts = []
            for w0, a, ts, kls in evaluated:
                for j in np.flatnonzero((ts == t) & (kls == kl)):
                    w = posterior_opt._tilt_weights(w0, a[j], ts[j])
                    tilts.append(np.zeros(p.size))
                    tilts[-1][support] = w / w.sum()
            assert any(np.array_equal(q.weights[i], tilt) for tilt in tilts), (family, i)

    def test_flatness_runs_and_reports(self, rng):
        dist, table = random_instance(rng, n_h=4, n_z=4)
        p = ProbMeasure.uniform(4)
        s = draw_sample(dist, 30, 9)
        params = BoundParams(delta=0.05, c=1.0, h=0.6)
        q, rep = minimized("flatness", params, p, table, s)
        assert rep.family == "flatness"
        assert set(rep.components) == {"empirical", "flatness", "complexity"}
        assert abs(q.weights.sum() - 1.0) <= 1e-12

    def test_deterministic(self, rng):
        dist, table = random_instance(rng)
        p = ProbMeasure.uniform(table.hypothesis_count)
        s = draw_sample(dist, 20, 10)
        params = BoundParams()
        a = minimize_bound("mcallester", params, p, table, s)
        b = minimize_bound("mcallester", params, p, table, s)
        assert np.array_equal(a.weights, b.weights)

    def test_infinite_beta_in_the_grid(self, rng, monkeypatch):
        # The beta -> inf start is the prior on the least-risk atoms, with no warning.
        dist, table = random_instance(rng)
        p = ProbMeasure.uniform(table.hypothesis_count)
        s = draw_sample(dist, 100, 2)
        params = BoundParams()
        monkeypatch.setattr(posterior_opt, "BETA_GRID", (0.0, math.inf))
        q, rep = minimized("catoni", params, p, table, s)
        starts = [evaluate_posterior_bound("catoni", params, gibbs_posterior(p, table, s, beta),
                                           p, table, s).value for beta in (0.0, math.inf)]
        assert math.isfinite(rep.value) and rep.value <= min(starts)

    def test_unknown_family_is_a_value_error_at_every_entry_point(self, rng):
        dist, table = random_instance(rng)
        p = ProbMeasure.uniform(table.hypothesis_count)
        s = draw_sample(dist, 10, 1)
        calls = (
            lambda: evaluate_posterior_bound("bogus", BoundParams(), p, p, table, s),
            lambda: minimize_bound("bogus", BoundParams(), p, table, s),
            lambda: coverage_experiment(table, dist, p, lambda prior, table, s: prior, "bogus",
                                        BoundParams(), 10, 5, 1),
        )
        for call in calls:
            with pytest.raises(ValueError, match="unknown bound family 'bogus'"):
                call()
        # A prior over another number of hypotheses is named as such.
        wrong = ProbMeasure.uniform(table.hypothesis_count + 1)
        calls = [lambda beta=beta: gibbs_posterior(wrong, table, s, beta)
                 for beta in (0.0, 1.0, math.inf)]
        calls += [lambda family=family: minimize_bound(family, BoundParams(), wrong, table, s)
                  for family in FAMILIES]
        for call in calls:
            with pytest.raises(ValueError, match="disagree on hypothesis count"):
                call()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_equals_one_sample_calls(self, rng, family, monkeypatch):
        # Four atoms carry no prior mass, and the rows of the block pick their
        # own start and stop after their own number of tilts.
        dist, table = random_instance(rng, n_h=12, n_z=5, binary=False)
        weights = rng.dirichlet(np.ones(12))
        weights[[1, 4, 5, 9]] = 0.0
        p = normalized(weights)
        params = BoundParams(delta=0.05, C=1.3, c=1.0, h=0.6)
        block = draw_sample(dist, 40, 11, size=7)
        monkeypatch.setattr(posterior_opt, "BETA_GRID", (0.0, 0.3, 2.0, 1e3))
        q, rep = minimized(family, params, p, table, block)
        assert q.weights.shape == (7, 12) and rep.value.shape == (7,)
        for i, s in enumerate(map(Sample, block.counts)):
            q1, rep1 = minimized(family, params, p, table, s)
            assert np.array_equal(q.weights[i], q1.weights)
            assert rep.value[i] == rep1.value
            for name, part in rep.components.items():
                assert part[i] == rep1.components[name]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_no_kl_divergence_or_gibbs_losses_call_per_bound_evaluation(self, rng, family,
                                                                       monkeypatch):
        # The starts and each tilt are one bound evaluation each, and every
        # family reads its KL, Remp and G = Q L off the tilt's log-partition.
        calls = {"kl_divergence": 0, "gibbs_losses": 0}

        def counting(fn):
            def counted(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return counted

        for fn in (measures.kl_divergence, measures.gibbs_losses):
            for module in (posterior_opt, bounds, measures):
                if hasattr(module, fn.__name__):
                    monkeypatch.setattr(module, fn.__name__, counting(fn))
        seen = record_bounds(monkeypatch)
        p, table, block = zero_prior_instance(rng, 15, 6, 200, 5, 3)
        minimize_bound(family, BoundParams(C=1.3, c=2.0, h=0.3), p, table, block)
        assert len(seen) >= 2
        assert calls == {"kl_divergence": 0, "gibbs_losses": 0}

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_empirical_risks_call_feeds_every_start(self, rng, family, monkeypatch):
        # Every start is t = beta m on the one risk array, with no posterior.
        risk_calls, starts = [], []
        monkeypatch.setattr(posterior_opt, "empirical_risks",
                            lambda *a: risk_calls.append(1) or empirical_risks(*a))
        real_gibbs = posterior_opt.gibbs_posterior
        monkeypatch.setattr(posterior_opt, "gibbs_posterior",
                            lambda *a: starts.append(a) or real_gibbs(*a))
        p, table, block = zero_prior_instance(rng, 15, 6, 200, 5, 3)
        minimize_bound(family, BoundParams(c=2.0, h=0.3), p, table, block)
        assert len(risk_calls) == 1
        assert starts == []


def reference_descend(step, val, state, n_starts):
    """_descend as it stood before it passed a full slice while every row is
    open: step always gets an index array of the open rows."""
    rows = np.arange(len(val))
    for _ in range(posterior_opt._MAX_TILTS):
        if not rows.size:
            break
        new, fresh = step(rows)
        old = val[rows]
        drop = np.where(new < old, old - new, 0.0)
        took = drop > 0
        kept = rows[took]
        val[kept] = new[took]
        for kept_state, new_state in zip(state, fresh):
            kept_state[kept] = new_state[took]
        bound = np.maximum(1.0, np.abs(np.where(took, new, old)))
        rows = rows[drop > posterior_opt._TILT_RTOL * bound]
    if rows.size:
        raise RuntimeError(f"minimize_bound: {rows.size} rows still open")
    return val.reshape(n_starts, -1).argmin(axis=0)


def record_rows(monkeypatch, descend):
    """Make minimize_bound run its loop with descend, and record the rows each
    of its steps gets."""
    seen = []

    def recording(step, val, state, n_starts):
        def recorded(rows):
            seen.append(rows)
            return step(rows)
        return descend(recorded, val, state, n_starts)

    monkeypatch.setattr(posterior_opt, "_descend", recording)
    return seen


class TestDescend:
    """_descend passes step a full slice while every row is open, and index
    arrays once one has stopped, and keeps the same rows, bounds and state as
    the loop that always gathered the open rows."""

    def test_synthetic_bounds(self):
        # Each tilt halves a row's distance to its floor, so a row stops after
        # about 40 tilts, later the further it starts; row 4 gains nothing at
        # its fifth tilt and stops there.
        floor = np.array([0.0, 1.0, -3.0, 2.0, 5.0, 0.5])
        results = []
        for descend in (posterior_opt._descend, reference_descend):
            seen, taken = [], [0]
            val = np.array([8.0, 1e3, 4.0, 2.5, 9.0, 1e6])
            state = (np.zeros(6), np.zeros((6, 3)))

            def step(rows):
                seen.append(rows)
                taken[0] += 1
                new = floor[rows] + (val[rows] - floor[rows]) / 2
                if taken[0] == 5:
                    new[np.arange(6)[rows] == 4] = val[4]
                return new, (state[0][rows] + 1, np.add.outer(new, [0.0, 1.0, 2.0]))

            best = descend(step, val, state, 2)
            results.append((seen, best, val, state))
        (seen, best, val, state), (seen_ref, best_ref, val_ref, state_ref) = results
        assert len(seen) == len(seen_ref) > 5
        first_stop = 5
        for k, (rows, rows_ref) in enumerate(zip(seen, seen_ref)):
            if k < first_stop:
                assert rows == slice(None) and np.array_equal(rows_ref, np.arange(6))
            else:
                assert rows.dtype.kind == "i" and np.array_equal(rows, rows_ref)
        assert np.array_equal(best, best_ref)
        for x, x_ref in zip((val, *state), (val_ref, *state_ref)):
            assert np.array_equal(x, x_ref)

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_minimize_bound_gets_a_slice_until_a_row_stops(self, family, binary, monkeypatch):
        rng = np.random.default_rng(7)
        p, table, block = zero_prior_instance(rng, 15, 6, 200, 5, 3, binary)
        params = BoundParams(delta=0.05, C=1.3, c=2.0, h=0.3)
        descend = posterior_opt._descend
        seen_ref = record_rows(monkeypatch, reference_descend)
        q_ref = minimize_bound(family, params, p, table, block)
        seen = record_rows(monkeypatch, descend)
        q = minimize_bound(family, params, p, table, block)
        assert np.array_equal(q.weights, q_ref.weights)
        assert len(seen) == len(seen_ref) >= 2
        n_rows = seen_ref[0].size
        whole = [rows.size == n_rows for rows in seen_ref]
        # Every row open at first, then the steps after the first stop; catoni and
        # matched_catoni may stop every row at once, the others reach those steps here.
        assert whole[0] and whole == sorted(whole, reverse=True)
        assert not whole[-1] or family in ("catoni", "matched_catoni")
        for rows, rows_ref, all_open in zip(seen, seen_ref, whole):
            if all_open:
                assert rows == slice(None)
            else:
                assert rows.dtype.kind == "i" and np.array_equal(rows, rows_ref)


def reference_minimize_bound(family, params, p, table, s, beta_grid):
    """minimize_bound as it stood before each tilt carried its KL and G = Q L
    on: the majoriser recomputed both from Q, each step recomputed the
    empirical risks (and for flatness the sample means of L^2), and the tilt
    formed its weights in fresh temporaries."""
    def tilt(score, t):
        support = p.weights > 0
        t = np.expand_dims(t, -1)
        limit = np.isinf(t)
        x = np.where(support, -np.where(limit, 0.0, t) * score, -np.inf)
        x -= x.max(axis=-1, keepdims=True)
        w = p.weights * np.exp(x)
        if limit.any():
            least = np.where(support, score, np.inf)
            w = np.where(limit, p.weights * (least == least.min(axis=-1, keepdims=True)), w)
        return normalized(w)

    def evaluate(q, s):
        kl = kl_divergence(q, p)
        if FAMILIES[family].needs_sample:
            return bounds.flatness_bound(q, table, s, kl, params)
        return bounds.evaluate_bound(family, s.mean(gibbs_losses(q, table, s)), kl, s.m, params)

    def majoriser(q, s):
        fam = FAMILIES[family]
        d_emp = fam.d_emp(params)
        b = np.broadcast_to(fam.d_kl(kl_divergence(q, p), s.m, params), s.counts.shape[:-1])
        t = np.divide(d_emp, b, out=np.full(b.shape, np.inf), where=b > 0)
        score = empirical_risks(table, s)
        if fam.needs_sample:
            g = gibbs_losses(q, table, s)
            shrink = 2.0 * (1.0 - params.h * params.h)
            score = (score + params.c * (s.mean_rows(table.loss_squared)
                                         - shrink * np.matvec(table.loss, g * s.counts) / s.m)
                     ) / d_emp
        return score, t

    risks = empirical_risks(table, s)
    starts = [p.weights if beta == 0 else tilt(risks, beta * s.m).weights
              for beta in sorted(set(beta_grid))]
    if family == "kst":
        starts.append(tilt(risks, _kl_ball_tilt(p, -risks, 2.0)[1]).weights)
    shape = s.counts.shape[:-1] + (p.size,)
    w = np.stack([np.broadcast_to(start, shape) for start in starts]).reshape(-1, p.size)
    counts = np.broadcast_to(s.counts, (len(starts),) + s.counts.shape).reshape(len(w), -1)
    val = evaluate(ProbMeasure(w), Sample(counts)).value
    rows = np.arange(len(w))
    for _ in range(posterior_opt._MAX_TILTS):
        if not rows.size:
            break
        sample = Sample(counts[rows])
        q = tilt(*majoriser(ProbMeasure(w[rows]), sample))
        new = evaluate(q, sample).value
        drop = np.where(new < val[rows], val[rows] - new, 0.0)
        w[rows[drop > 0]], val[rows[drop > 0]] = q.weights[drop > 0], new[drop > 0]
        rows = rows[drop > posterior_opt._TILT_RTOL * np.maximum(1.0, np.abs(val[rows]))]
    assert not rows.size
    best = val.reshape(len(starts), -1).argmin(axis=0)
    best_q = ProbMeasure(w.reshape(len(starts), -1, p.size)[best, range(best.size)].reshape(shape))
    return best_q, evaluate(best_q, s)


def oracle_instance(name, rng):
    """(prior, table, sample or block) of the bit-identity oracle's instance `name`."""
    if name == "tied-risks":
        # Hypotheses 12 to 15 repeat 0 to 3, so their risks tie on every sample.
        p, table, block = zero_prior_instance(rng, 12, 5, 40, 6, 4)
        table = LossTable(np.vstack([table.loss, table.loss[:4]]))
        return normalized(np.concatenate([p.weights, p.weights[:4]])), table, block
    if name.startswith("kst-limit"):
        # The kst start is the tilt to KL = 2, or the beta -> inf limit where the
        # KL limit -log P(least risk) is at most 2: 1/4 of the mass, or 1/30.
        n_h = 4 if name == "kst-limit-below-2" else 30
        dist, table = random_instance(rng, n_h=n_h, n_z=6, binary=False)
        return ProbMeasure.uniform(n_h), table, draw_sample(dist, 60, 5, size=6)
    m, size = {"block": (200, 7), "binary": (200, 7), "one-sample": (200, None),
               "block-of-one": (200, 1), "m-1": (1, 6)}[name]
    return zero_prior_instance(rng, 15, 6, m, size, 6, binary=name == "binary")


class TestBitIdentityOracle:
    """minimize_bound against the loop that carried each row's weights and
    recomputed each tilt's KL and G = Q L from them, on non-binary losses
    with zero prior mass on some atoms, on a binary table, at m = 1, with tied
    risks and on blocks. minimize_bound reads KL, Remp and G off the
    log-partition of each tilt, which rounds differently: the bound at its Q
    is within 1e-15 max(1, |B|) of the reference loop's, on either side. B is
    flat at the optimum, so the weights may move further (by up to 3e-8 on
    these instances)."""

    @pytest.mark.parametrize("name", ["block", "binary", "one-sample", "block-of-one", "m-1",
                                      "tied-risks", "kst-limit-below-2", "kst-limit-above-2"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bound_within_1e_15_of_the_reference_loop(self, family, name):
        p, table, s = oracle_instance(name, np.random.default_rng(2024))
        if name.startswith("kst-limit"):
            lam = _kl_ball_tilt(p, -empirical_risks(table, s), 2.0)[1]
            assert np.isinf(lam).all() if name == "kst-limit-below-2" else np.isfinite(lam).all()
        params = BoundParams(delta=0.05, C=1.3, c=2.0, h=0.3)
        grid = posterior_opt.BETA_GRID
        if s.m < FAMILIES[family].m_min:
            for solve in (lambda: minimize_bound(family, params, p, table, s),
                          lambda: reference_minimize_bound(family, params, p, table, s, grid)):
                with pytest.raises(ValueError, match="m must be >= 2"):
                    solve()
            return
        _, rep = minimized(family, params, p, table, s)
        _, rep_ref = reference_minimize_bound(family, params, p, table, s, grid)
        gap = np.abs(rep.value - rep_ref.value)
        assert (gap <= 1e-15 * np.maximum(1.0, np.abs(rep_ref.value))).all()
