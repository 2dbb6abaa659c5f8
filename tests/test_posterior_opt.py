import math

import numpy as np
import pytest

from pacbayes import (FAMILIES, BoundParams, ProbMeasure, coverage_experiment,
                      derive_matched_catoni_constants, draw_sample, evaluate_posterior_bound,
                      gibbs_posterior, kl_divergence, minimize_bound)
from pacbayes.core import LossTable, Sample, empirical_risks
from pacbayes import bounds, measures, posterior_opt
from pacbayes.measures import gibbs_losses
from pacbayes.posterior_opt import _majoriser, _tilt
from pacbayes.processes import _kl_ball_tilt

from conftest import random_instance, random_measure

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


def zero_prior_instance(rng, n_h, n_z, m, size, seed):
    """A non-binary instance whose prior has no mass on about a third of the
    atoms, with a block of samples."""
    dist, table = random_instance(rng, n_h=n_h, n_z=n_z, binary=False)
    weights = rng.dirichlet(np.ones(n_h))
    weights[rng.permutation(n_h)[:n_h // 3]] = 0.0
    return ProbMeasure.normalized(weights), table, draw_sample(dist, m, seed, size=size)


def record_bounds(monkeypatch):
    """Make minimize_bound record the bound values it evaluates: its starts,
    then each tilt of the rows still open, then the result."""
    seen = []
    evaluate = posterior_opt.evaluate_posterior_bound

    def recording(*args):
        report = evaluate(*args)
        seen.append(np.array(report.value, ndmin=1))
        return report

    monkeypatch.setattr(posterior_opt, "evaluate_posterior_bound", recording)
    return seen


def majorise_at(family, params, q, p, table, s):
    """_majoriser's (score, t) at the posterior q, from q's KL and G = q L."""
    flat = ((gibbs_losses(q, table, s), s.mean_rows(table.loss_squared))
            if FAMILIES[family].needs_sample else ())
    return _majoriser(family, params, table, s, kl_divergence(q, p), empirical_risks(table, s),
                      *flat)


class TestGradient:
    """The tilt that _majoriser sets up minimises the bound linearised at q, so
    it must have the bound's gradient at q: d_emp (score + (log(q/p) + 1) / t)
    on the prior's support, checked against central differences of the bound.
    For flatness, score carries the gradient of c * flatness."""

    # catoni_C = 1.5 catches a temperature that is right only at C = 1.
    @pytest.mark.parametrize("family,catoni_C", [
        *(pytest.param(f, 1.0, id=f) for f in FAMILIES_CLOSED + ("flatness",)),
        pytest.param("catoni", 1.5, id="catoni-C1.5"),
    ])
    def test_finite_difference(self, rng, family, catoni_C):
        dist, table = random_instance(rng, n_h=5, n_z=4, binary=False)
        p = ProbMeasure([0.04, 0.3, 0.26, 0.2, 0.2])
        s = draw_sample(dist, 20, 6)
        params = BoundParams(delta=0.05, catoni_C=catoni_C, c=1.0, h=0.5)
        # Mostly on the first atom, so that KL exceeds 2, where kst's d_kl is not 0.
        q = ProbMeasure.normalized(rng.dirichlet(np.ones(5)) * 0.1 + [1.0, 0, 0, 0, 0])
        assert kl_divergence(q, p) > 2
        score, t = majorise_at(family, params, q, p, table, s)
        grad = FAMILIES[family].d_emp(params) * (score + (np.log(q.weights / p.weights) + 1) / t)

        def objective(w):
            return evaluate_posterior_bound(
                family, params, ProbMeasure.normalized(w), p, table, s).value

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


class TestMinimizeBound:
    @pytest.mark.parametrize("family", FAMILIES_CLOSED)
    def test_never_worse_than_prior_or_grid(self, rng, family):
        dist, table = random_instance(rng, n_h=5, n_z=4)
        p = ProbMeasure.uniform(5)
        s = draw_sample(dist, 30, 7)
        params = BoundParams(delta=0.05, catoni_C=1.0, c=1.0, h=0.5)
        betas = (0.0, 0.5, 2.0, 10.0)
        q, rep = minimize_bound(family, params, p, table, s, betas)
        grid_best = min(evaluate_posterior_bound(
            family, params, gibbs_posterior(p, table, s, b), p, table, s).value
            for b in betas)
        assert rep.value <= grid_best + 1e-12

    def test_catoni_tempered_optimality(self, rng):
        # For the Catoni objective the tempered posterior at beta = C is the
        # exact minimizer, so a fine grid containing it cannot be improved much.
        dist, table = random_instance(rng, n_h=4, n_z=4)
        p = ProbMeasure.uniform(4)
        s = draw_sample(dist, 25, 8)
        C = 1.3
        params = BoundParams(delta=0.05, catoni_C=C)
        q_opt = gibbs_posterior(p, table, s, C)
        opt_val = evaluate_posterior_bound("catoni", params, q_opt, p, table, s).value
        _, rep = minimize_bound("catoni", params, p, table, s, (0.0, C, 5.0))
        assert rep.value <= opt_val + 1e-12
        assert rep.value >= opt_val - 1e-8

    @pytest.mark.parametrize("family", ["catoni", "matched_catoni"])
    def test_one_tilt_is_the_tempered_posterior(self, rng, family):
        # beta = d_emp / (m d_kl): C for catoni, (1 + c) / C1 for matched_catoni.
        params = BoundParams(delta=0.05, catoni_C=1.3)
        C1 = derive_matched_catoni_constants(1.0, 0.5, 0.05).C1
        beta = 1.3 if family == "catoni" else 2.0 / C1
        assert family == "catoni" or beta == pytest.approx(0.0276, abs=1e-4)
        for seed in range(5):
            p, table, block = zero_prior_instance(rng, 9, 5, 40, 6, seed)
            q, _ = minimize_bound(family, params, p, table, block, (0.0, 0.1, 1.0, 10.0))
            # Within 1e-15 at this m: the tilt's temperature d_emp / d_kl
            # rounds differently from beta * m, by about m * 1e-16 in the exponent.
            assert np.abs(q.weights - gibbs_posterior(p, table, block, beta).weights).max() <= 1e-15

    @pytest.mark.parametrize("family", FAMILIES_CLOSED)
    def test_not_above_a_fine_beta_scan(self, rng, family):
        # The minimiser of a closed-form family lies on the tempered path.
        params = BoundParams(delta=0.05, catoni_C=0.7)
        # beta = 0 is the prior itself; the tilt at t = 0 would be p / sum(p).
        betas = np.concatenate([np.logspace(-5, 4, 2000), [np.inf]])
        for n_h, n_z, m, seed in ((12, 5, 40, 1), (30, 8, 300, 2), (6, 3, 5000, 3)):
            p, table, block = zero_prior_instance(rng, n_h, n_z, m, 4, seed)
            _, rep = minimize_bound(family, params, p, table, block, (0.0, 0.1, 1.0, 10.0))
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
        q, rep = minimize_bound("kst", BoundParams(), p, table, s, (0.0, 0.1, 1.0, 10.0))
        assert kl_divergence(q, p) == pytest.approx(2.0, rel=1e-11)
        grid = [evaluate_posterior_bound("kst", BoundParams(), gibbs_posterior(p, table, s, b),
                                         p, table, s).value for b in (0.0, 0.1, 1.0, 10.0)]
        assert rep.value < min(grid) - 1e-3

    @pytest.mark.parametrize("family", ["mcallester", "catoni", "matched_catoni", "flatness"])
    def test_accepted_tilts_lower_the_bound_until_the_stop_rule(self, rng, family,
                                                                monkeypatch):
        # One sample and one start (kst would add its KL = 2 start), so every
        # evaluation after the start is one tilt of the same row. A tilt is
        # kept only where it lowers the bound, and the row stops at the first
        # tilt that lowers it by at most 1e-12 max(1, |B|).
        params = BoundParams(delta=0.05, catoni_C=1.3, c=2.0, h=0.3)
        seen = record_bounds(monkeypatch)
        for seed in range(4):
            p, table, block = zero_prior_instance(rng, 15, 6, 200, 1, seed)
            for beta in (0.0, 1.0):
                seen.clear()
                _, rep = minimize_bound(family, params, p, table, Sample(block.counts[0]), (beta,))
                start, *tilts, result = (float(v[-1]) for v in seen)
                assert 1 <= len(tilts) <= posterior_opt._MAX_TILTS
                best = start
                for k, value in enumerate(tilts):
                    drop = best - value
                    if k < len(tilts) - 1:
                        assert drop > 1e-12 * max(1.0, abs(value))
                    else:
                        assert drop <= 1e-12 * max(1.0, abs(min(best, value)))
                    best = min(best, value)
                assert result == best == rep.value

    def test_flatness_not_above_its_best_grid_start(self, rng):
        params = BoundParams(delta=0.05, c=3.0, h=0.2)
        grid = (0.0, 0.1, 1.0, 10.0)
        for seed in range(4):
            p, table, block = zero_prior_instance(rng, 20, 7, 500, 8, seed)
            _, rep = minimize_bound("flatness", params, p, table, block, grid)
            starts = np.min([evaluate_posterior_bound(
                "flatness", params, gibbs_posterior(p, table, block, b), p, table, block).value
                for b in grid], axis=0)
            assert (rep.value <= starts).all()

    def test_tilt_cap_raises(self, rng, monkeypatch):
        dist, table = random_instance(rng, n_h=8, n_z=5, binary=False)
        monkeypatch.setattr(posterior_opt, "_MAX_TILTS", 1)
        with pytest.raises(RuntimeError, match="still open after 1 tilts"):
            minimize_bound("flatness", BoundParams(c=2.0, h=0.3), ProbMeasure.uniform(8),
                           table, draw_sample(dist, 50, 3), (0.0,))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_risks_tied_on_the_support(self, family):
        # Every tilt of this prior is p / sum(p), whose KL to p rounds to
        # -1.8e-16 before it is clamped to 0.
        p = ProbMeasure([0.6611656251366724, 0.33883437486332774])
        table, s = LossTable([[0.5, 0.5], [0.5, 0.5]]), Sample(np.array([3, 2]))
        q, rep = minimize_bound(family, BoundParams(), p, table, s, (0.0, 1.0))
        assert kl_divergence(q, p) == 0.0
        at_prior = evaluate_posterior_bound(family, BoundParams(), p, p, table, s).value
        assert rep.value == pytest.approx(at_prior, rel=1e-14)

    def test_flatness_runs_and_reports(self, rng):
        dist, table = random_instance(rng, n_h=4, n_z=4)
        p = ProbMeasure.uniform(4)
        s = draw_sample(dist, 30, 9)
        params = BoundParams(delta=0.05, c=1.0, h=0.6)
        q, rep = minimize_bound("flatness", params, p, table, s, (0.0, 1.0, 5.0))
        assert rep.family == "flatness"
        assert set(rep.components) == {"empirical", "flatness", "complexity"}
        assert abs(q.weights.sum() - 1.0) <= 1e-12

    def test_deterministic(self, rng):
        dist, table = random_instance(rng)
        p = ProbMeasure.uniform(table.hypothesis_count)
        s = draw_sample(dist, 20, 10)
        params = BoundParams()
        a = minimize_bound("mcallester", params, p, table, s, (0.0, 1.0))
        b = minimize_bound("mcallester", params, p, table, s, (0.0, 1.0))
        assert np.array_equal(a[0].weights, b[0].weights)
        assert a[1].value == b[1].value

    def test_empty_grid_rejected(self, rng):
        dist, table = random_instance(rng)
        s = draw_sample(dist, 5, 1)
        with pytest.raises(ValueError):
            minimize_bound("kst", BoundParams(), ProbMeasure.uniform(table.hypothesis_count),
                           table, s, ())

    def test_unknown_family_is_a_value_error_at_every_entry_point(self, rng):
        dist, table = random_instance(rng)
        p = ProbMeasure.uniform(table.hypothesis_count)
        s = draw_sample(dist, 10, 1)
        calls = (
            lambda: evaluate_posterior_bound("bogus", BoundParams(), p, p, table, s),
            lambda: minimize_bound("bogus", BoundParams(), p, table, s, (0.0, 1.0)),
            lambda: coverage_experiment(table, dist, p, lambda prior, table, s: prior, "bogus",
                                        BoundParams(), 10, 5, 1),
        )
        for call in calls:
            with pytest.raises(ValueError, match="unknown bound family 'bogus'"):
                call()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_equals_one_sample_calls(self, rng, family):
        # Four atoms carry no prior mass, and the rows of the block pick their
        # own start and stop after their own number of tilts.
        dist, table = random_instance(rng, n_h=12, n_z=5, binary=False)
        weights = rng.dirichlet(np.ones(12))
        weights[[1, 4, 5, 9]] = 0.0
        p = ProbMeasure.normalized(weights)
        params = BoundParams(delta=0.05, catoni_C=1.3, c=1.0, h=0.6)
        block = draw_sample(dist, 40, 11, size=7)
        q, rep = minimize_bound(family, params, p, table, block, (0.0, 0.3, 2.0, 1e3))
        assert q.weights.shape == (7, 12) and rep.value.shape == (7,)
        for i, s in enumerate(map(Sample, block.counts)):
            q1, rep1 = minimize_bound(family, params, p, table, s, (0.0, 0.3, 2.0, 1e3))
            assert np.array_equal(q.weights[i], q1.weights)
            assert rep.value[i] == rep1.value
            for name, part in rep.components.items():
                assert part[i] == rep1.components[name]

    @pytest.mark.parametrize("family", ["kst", "flatness"])
    def test_grid_order_and_duplicates_do_not_matter(self, rng, family):
        dist, table = random_instance(rng, n_h=6, n_z=4)
        p = ProbMeasure.uniform(6)
        block = draw_sample(dist, 30, 12, size=5)
        params = BoundParams(delta=0.05, c=1.0, h=0.5)
        q, rep = minimize_bound(family, params, p, table, block, (0.0, 1.0, 10.0))
        q2, rep2 = minimize_bound(family, params, p, table, block, (10.0, 0.0, 1.0, 0.0))
        assert np.array_equal(q.weights, q2.weights)
        assert np.array_equal(rep.value, rep2.value)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_kl_and_one_gibbs_losses_per_bound_evaluation(self, rng, family, monkeypatch):
        # The starts, each tilt and the final report are one bound evaluation
        # each; the next tilt reads the KL and G = Q L of the last one.
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
        minimize_bound(family, BoundParams(catoni_C=1.3, c=2.0, h=0.3), p, table, block,
                       (0.0, 0.1, 1.0, 10.0))
        assert len(seen) >= 3
        assert calls == {"kl_divergence": len(seen), "gibbs_losses": len(seen)}


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
        return ProbMeasure.normalized(w)

    def evaluate(q, s):
        kl = kl_divergence(q, p)
        if FAMILIES[family].needs_sample:
            return bounds.flatness_bound(q, table, s, kl, params)
        return bounds.evaluate_bound(family, measures.gibbs_empirical_risk(q, table, s), kl,
                                     s.m, params)

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
        return ProbMeasure.normalized(np.concatenate([p.weights, p.weights[:4]])), table, block
    if name.startswith("kst-limit"):
        # The kst start is the tilt to KL = 2, or the beta -> inf limit where the
        # KL limit -log P(least risk) is at most 2: 1/4 of the mass, or 1/30.
        n_h = 4 if name == "kst-limit-below-2" else 30
        dist, table = random_instance(rng, n_h=n_h, n_z=6, binary=False)
        return ProbMeasure.uniform(n_h), table, draw_sample(dist, 60, 5, size=6)
    m, size = {"block": (200, 7), "one-sample": (200, None), "block-of-one": (200, 1),
               "m-1": (1, 6)}[name]
    p, table, block = zero_prior_instance(rng, 15, 6, m, size, 6)
    return p, table, block


class TestBitIdentityOracle:
    """minimize_bound returns exactly the weights and the report of the loop
    that recomputed each tilt's KL and G = Q L, on non-binary losses with
    zero prior mass on some atoms."""

    @pytest.mark.parametrize("name", ["block", "one-sample", "block-of-one", "m-1",
                                      "tied-risks", "kst-limit-below-2", "kst-limit-above-2"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_bits_as_the_reference_loop(self, family, name):
        p, table, s = oracle_instance(name, np.random.default_rng(2024))
        if name.startswith("kst-limit"):
            lam = _kl_ball_tilt(p, -empirical_risks(table, s), 2.0)[1]
            assert np.isinf(lam).all() if name == "kst-limit-below-2" else np.isfinite(lam).all()
        params = BoundParams(delta=0.05, catoni_C=1.3, c=2.0, h=0.3)
        grid = (0.0, 0.1, 1.0, 10.0)
        if s.m < FAMILIES[family].m_min:
            for solver in (minimize_bound, reference_minimize_bound):
                with pytest.raises(ValueError, match="m must be >= 2"):
                    solver(family, params, p, table, s, grid)
            return
        q, rep = minimize_bound(family, params, p, table, s, grid)
        q_ref, rep_ref = reference_minimize_bound(family, params, p, table, s, grid)
        assert np.array_equal(q.weights, q_ref.weights)
        assert np.array_equal(rep.value, rep_ref.value)
        assert rep.components.keys() == rep_ref.components.keys()
        for name, part in rep.components.items():
            assert np.array_equal(part, rep_ref.components[name]), name
