import itertools
import math
import sys

import mpmath
import numpy as np
import pytest

from pacbayes import (LossTable, ProbMeasure, debias_mgf_exact,
                      draw_sample, kl_ball_sup, kl_dual_value, lemma_a3_threshold,
                      shifted_flatness_tail_mc, symmetrization_tail_mc, xy_cap,
                      xy_mgf_bruteforce)
from pacbayes.bounds import log_cosh_over_x
from pacbayes.cli import duality_tolerance
from pacbayes.core import empirical_risks, true_risks
from pacbayes.processes import _KL_BALL_RTOL, _kl_ball_tilt

from conftest import random_instance, random_measure

def _tilt(w, v, lam):
    """Q_lam ~ w e^{lam v} and KL(Q_lam || w), in log space."""
    logq = lam * (v - v.max()) + np.log(w)
    logq -= np.logaddexp.reduce(logq)
    q = np.exp(logq)
    return q, float(q @ (logq - np.log(w)))


def _bisect(fn, target, lo, hi):
    """Root of the increasing fn on [lo, hi], to float resolution."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid


def bisection_sup(p, values, kappa):
    """The KL-ball sup by bisection on the tilt, one row at a time: the solver
    that block Newton replaced, kept as an oracle."""
    support = p.weights > 0
    w = p.weights[support]
    v = np.asarray(values, dtype=float)[support]
    base = float(w @ v)
    if kappa == 0 or np.ptp(v) == 0:
        return base
    vmax = v.max()
    if kappa >= -math.log(w[v == vmax].sum()):
        return float(vmax)
    if _tilt(w, v, 0.0)[1] >= kappa:
        return base
    hi = 1.0
    while _tilt(w, v, hi)[1] < kappa:
        hi *= 2.0
    q, _ = _tilt(w, v, _bisect(lambda lam: _tilt(w, v, lam)[1], kappa, 0.0, hi))
    return float(q @ v)


def random_case(gen):
    """A prior that may put no mass on some atoms, values that may tie at their
    maximum, and a radius from 1e-8 to 10, often beyond the KL limit."""
    n = int(gen.integers(2, 12))
    w = gen.dirichlet(np.full(n, gen.choice([0.3, 1.0, 3.0])))
    if gen.random() < 0.3:
        w[gen.choice(n, int(gen.integers(1, n)), replace=False)] = 0.0
        w[int(gen.integers(n))] += 1.0 - w.sum()
    v = gen.random(n)
    if gen.random() < 0.4:
        v = np.round(v, 1)
    return ProbMeasure(w / w.sum()), v, float(10.0 ** gen.uniform(-8, 1))


def kl_limit(p, v):
    """-log P(argmax v) over the support of p."""
    v = np.asarray(v, dtype=float)
    return -math.log(p.weights[v == v[p.weights > 0].max()].sum())


def mp_tilt(weights, values, lam, dps=80):
    """(KL(Q_lam || p), E_Q v) of the tilt Q_lam ~ p e^{lam v}, in dps digits.

    Both are taken on v centred at its prior mean, with expm1 and log1p, so
    that each keeps its relative accuracy as lam -> 0."""
    with mpmath.workdps(dps):
        w = [mpmath.mpf(float(x)) for x in weights]
        v = [mpmath.mpf(float(x)) for x in values]
        mean = mpmath.fsum(a * x for a, x in zip(w, v))
        c = [x - mean for x in v]
        m1 = mpmath.fsum(a * mpmath.expm1(lam * x) for a, x in zip(w, c))
        e_qc = mpmath.fsum(a * x * mpmath.expm1(lam * x) for a, x in zip(w, c)) / (1 + m1)
        return lam * e_qc - mpmath.log1p(m1), mean + e_qc


def mp_sup(weights, values, kappa, dps=80, start=1):
    """The KL-ball sup by 400 geometric bisection steps on lam, in dps digits;
    the search for a bracket halves and doubles from lam = start."""
    with mpmath.workdps(dps):
        kappa = mpmath.mpf(kappa)
        lo = hi = mpmath.mpf(start)
        while mp_tilt(weights, values, lo, dps)[0] >= kappa:
            lo /= 2
        while mp_tilt(weights, values, hi, dps)[0] < kappa:
            hi *= 2
        for _ in range(400):
            mid = mpmath.sqrt(lo * hi)
            if mp_tilt(weights, values, mid, dps)[0] < kappa:
                lo = mid
            else:
                hi = mid
        return mp_tilt(weights, values, hi, dps)[1]


class TestKLBallSup:
    def test_kappa_zero_is_prior_mean(self, rng):
        p = random_measure(rng, 6)
        v = rng.random(6)
        assert kl_ball_sup(p, v, 0.0) == pytest.approx(float(p.weights @ v), abs=1e-14)

    def test_kappa_below_rounding_error_is_prior_mean(self, rng):
        # Radii far below the rounding error of a KL of order one: the sup
        # moves off the prior mean by about sqrt(2 kappa Var_p(v)) only.
        for _ in range(20):
            p = random_measure(rng, 6)
            v = rng.random(6)
            for kappa in (1e-20, 1e-17):
                assert kl_ball_sup(p, v, kappa) == pytest.approx(float(p.weights @ v), abs=1e-7)

    def test_two_atoms_log2_reaches_max(self):
        p = ProbMeasure.uniform(2)
        assert kl_ball_sup(p, [1.0, 0.0], math.log(2)) == pytest.approx(1.0, abs=1e-12)

    def test_constant_values(self, rng):
        p = random_measure(rng, 4)
        for kappa in (0.0, 0.5, 10.0):
            assert kl_ball_sup(p, [0.7] * 4, kappa) == pytest.approx(0.7, abs=1e-14)

    def test_nondecreasing_in_kappa(self, rng):
        p = random_measure(rng, 8)
        v = rng.random(8)
        vals = [kl_ball_sup(p, v, k) for k in (0.0, 0.1, 0.5, 1.0, 5.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_saturates_at_support_max(self, rng):
        p = random_measure(rng, 5)
        v = rng.random(5)
        assert kl_ball_sup(p, v, 100.0) == pytest.approx(v.max(), abs=1e-12)

    def test_kappa_at_and_beyond_the_kl_limit_is_the_max(self):
        p = ProbMeasure([0.5, 0.3, 0.2, 0.0])
        v = [0.1, 0.9, 0.4, 5.0]  # the atom without prior mass does not count
        limit = -math.log(0.3)
        for kappa in (limit, np.nextafter(limit, math.inf), 2.0 * limit, math.inf):
            assert kl_ball_sup(p, v, kappa) == 0.9
            assert kl_dual_value(p, v, kappa) == 0.9
        below = kl_ball_sup(p, v, limit * (1.0 - 1e-9))
        assert 0.9 - 1e-6 < below < 0.9
        assert below == pytest.approx(bisection_sup(p, v, limit * (1.0 - 1e-9)), rel=1e-9)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            kl_ball_sup(ProbMeasure.uniform(2), [0.0, 1.0], -0.1)

    def test_values_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            kl_ball_sup(ProbMeasure.uniform(3), np.zeros((4, 2)), 0.5)

    def test_block_equals_row_calls(self, rng):
        p = ProbMeasure([0.3, 0.0, 0.2, 0.1, 0.4])
        rows = np.vstack([
            rng.random((6, 5)),                    # active at kappa = 0.5
            np.full((2, 5), 0.25),                 # flat
            [[0.1, 0.2, 0.3, 0.9, 0.5],            # capped: -log 0.1 < 2.5 below
             [0.0, 9.0, 0.0, 0.0, 0.0]],           # flat on the support of p
            np.round(rng.random((4, 5)), 1),       # ties
        ])
        for kappa in (0.0, 0.5, 2.5):
            block = kl_ball_sup(p, rows.reshape(2, 7, 5), kappa)
            assert block.shape == (2, 7)
            one_by_one = [kl_ball_sup(p, row, kappa) for row in rows]
            assert all(np.ndim(x) == 0 for x in one_by_one)
            np.testing.assert_array_equal(block.ravel(), one_by_one)
        assert kl_ball_sup(p, rows[8], 2.5) == 0.9

    @pytest.mark.parametrize("kappa", [1e-300, 1e-8, 0.5, 3.0])
    def test_power_of_two_scaling_is_exact(self, rng, kappa):
        # Huge finite values neither overflow nor warn (RuntimeWarnings are
        # errors in this suite), and scaling by 2^900 scales the sup exactly.
        p = random_measure(rng, 7)
        v = rng.random((20, 7))
        scaled = kl_ball_sup(p, 2.0 ** 900 * v, kappa)
        np.testing.assert_array_equal(scaled, 2.0 ** 900 * kl_ball_sup(p, v, kappa))

    def test_agrees_with_bisection(self):
        gen = np.random.default_rng(2024)
        active = 0
        for _ in range(2000):
            p, v, kappa = random_case(gen)
            got, want = kl_ball_sup(p, v, kappa), bisection_sup(p, v, kappa)
            assert abs(got - want) <= 1e-9 * abs(want), (p.weights, v, kappa)
            active += kappa < kl_limit(p, v)
        assert active >= 1000

    def test_kl_residual_within_tolerance(self):
        # Recover lam* from the returned sup (E_{Q_lam} v increases in lam) and
        # check the stopping rule, up to the rounding of the sup itself:
        # dKL/dE_Q[v] = lam along the tilt.
        gen = np.random.default_rng(77)
        checked = 0
        while checked < 300:
            p, v, kappa = random_case(gen)
            if not 1e-3 <= kappa < 0.9 * kl_limit(p, v) or np.ptp(v[p.weights > 0]) == 0:
                continue
            got = kl_ball_sup(p, v, kappa)
            support = p.weights > 0
            w, vs = p.weights[support], v[support]
            hi = 1.0
            while _tilt(w, vs, hi)[0] @ vs < got:
                hi *= 2.0
            lam = _bisect(lambda x: _tilt(w, vs, x)[0] @ vs, got, 0.0, hi)
            slack = 4.0 * lam * np.spacing(got) + 1e-15
            assert abs(_tilt(w, vs, lam)[1] - kappa) <= _KL_BALL_RTOL * kappa + slack
            checked += 1


class TestKLBallOracle:
    """Both solvers against an 80-digit bisection, on rows whose prior mean is
    zero, tiny against the range, and of order one."""

    ROWS = [((0.5, 0.5), (-1.0, 1.0)), ((0.5, 0.5), (-1.0, 1.000001)),
            ((0.2, 0.3, 0.5), (-0.7, 0.1, 0.26))]

    @pytest.mark.parametrize("weights, values", ROWS)
    @pytest.mark.parametrize("kappa", [1e-10, 1e-20, 1e-30, 1e-40, 1e-60])
    def test_matches_an_mpmath_bisection(self, weights, values, kappa):
        want = mp_sup(weights, values, kappa)
        p = ProbMeasure(np.array(weights))
        for solver in (kl_ball_sup, kl_dual_value):
            got = solver(p, np.array(values), kappa)
            assert abs(got - want) <= 1e-13 * abs(want), (solver.__name__, float(got), float(want))

    @pytest.mark.parametrize("kappa", [1e-100, 1e-300, 5e-324])
    def test_tiny_radius_is_finite_and_raises_nothing(self, kappa):
        # A prior mean of 0 (or tiny against the range) and a tiny radius: the
        # primal raised after 200 steps here, as 1-D values and as a block. A
        # subnormal radius is rejected: there both solvers came out finite but
        # wrong (1.57e-162 and 1.28e-162 at 5e-324, against about 3.14e-162).
        p, rows = ProbMeasure.uniform(2), np.array([[-1.0, 1.0], [-1.0, 1.000001]])
        if kappa < sys.float_info.min:
            for solver, values in ((kl_ball_sup, rows), (kl_ball_sup, rows[0]),
                                   (kl_dual_value, rows[0])):
                with pytest.raises(ValueError, match="kappa must be 0 or at least"):
                    solver(p, values, kappa)
            return
        block = kl_ball_sup(p, rows, kappa)
        for row, sup in zip(rows, block):
            for got in (sup, kl_ball_sup(p, row, kappa), kl_dual_value(p, row, kappa)):
                assert np.isfinite(got) and p.weights @ row <= got <= row.max()


@pytest.mark.parametrize("kappa", [0.0, 1e-3, 0.1, 0.5, 2.5, math.inf])
def test_kl_ball_tilt_lambda(kappa):
    """_kl_ball_tilt's lam: 0 on rows that stay at the prior mean, +inf at or
    beyond the KL limit, and otherwise a tilt whose KL is kappa within
    _KL_BALL_RTOL * kappa, up to the rounding of that KL. (At radii so small
    that the sup moves by few ulp, a row may stop on float resolution first.)"""
    p = ProbMeasure([0.3, 0.0, 0.2, 0.1, 0.4])
    rows = np.vstack([
        np.random.default_rng(11).random((5, 5)),
        np.full(5, 0.25),                      # constant
        [0.0, 9.0, 0.0, 0.0, 0.0],             # constant on the support of p
        [0.1, 0.2, 0.3, 0.9, 0.5],             # KL limit -log 0.1
        [0.5, 0.2, 0.5, 0.1, 0.2],             # tied at the max
    ])
    sup, lam = _kl_ball_tilt(p, rows, kappa)
    for v, s, t in zip(rows, sup, lam):
        if kappa == 0 or np.ptp(v[p.weights > 0]) == 0:
            assert t == 0.0 and math.isclose(s, p.weights @ v, rel_tol=1e-15)
        elif kappa >= kl_limit(p, v):
            assert t == math.inf and s == v[p.weights > 0].max()
        else:
            kl, e_q = mp_tilt(p.weights, v, mpmath.mpf(float(t)))
            assert 0 < t < math.inf
            assert abs(kl - kappa) <= _KL_BALL_RTOL * kappa + 1e-15 * kappa
            assert abs(e_q - s) <= 1e-12 * abs(s)


class TestKLDual:
    def test_matches_primal_on_random_instances(self, rng):
        for _ in range(10):
            p = random_measure(rng, 10)
            v = rng.random(10)
            for kappa in (0.1, 1.0, 3.0):
                primal = kl_ball_sup(p, v, kappa)
                dual = kl_dual_value(p, v, kappa)
                assert abs(dual - primal) <= duality_tolerance(primal)

    def test_prior_mass_at_the_max_below_an_ulp(self):
        # E_P expm1(lam (v - max v)) rounds to -1 at the max anchor: the log is
        # taken of E_P e^{lam (v - max v)} itself, and nothing warns.
        p, v = ProbMeasure([1e-17, 1.0]), [1.0, 0.0]
        for kappa in (1.0, 30.0):
            primal = kl_ball_sup(p, v, kappa)
            assert abs(kl_dual_value(p, v, kappa) - primal) <= duality_tolerance(primal)

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    def test_narrow_valley_near_the_log_lambda_cap(self, kappa):
        # KL > log(3/2) needs the tilt to split the two atoms 1e-300 apart, so
        # the minimum lies at log lambda ~ 691, 9 below the cap of 700. 80 digits
        # cannot resolve 1e-300 against 1; the oracle's bracket search starts at
        # lam = 2^990 = e^686 to save time.
        p, v = ProbMeasure.uniform(3), [-1.0, 1e-300, 0.0]
        want = mp_sup(p.weights, v, kappa, dps=340, start=mpmath.mpf(2) ** 990)
        for solver in (kl_ball_sup, kl_dual_value):
            got = solver(p, v, kappa)
            assert abs(got - want) <= 1e-13 * abs(want), (solver.__name__, got, float(want))
        # In a block with rows that finish in a few steps, the row's answer and
        # theirs are bit for bit those of one call per row.
        rows = np.array([v, [0.7, 0.3, 0.1], [-3.0, 2.0, 0.5], v, [0.7, 0.9, 0.2]])
        np.testing.assert_array_equal(kl_ball_sup(p, rows, kappa),
                                      [kl_ball_sup(p, row, kappa) for row in rows])

    def test_minimum_beyond_the_log_lambda_cap_raises(self):
        # Atoms 1e-305 apart put the minimum at log lambda ~ 702.
        p, v = ProbMeasure.uniform(3), [-1.0, 1e-305, 0.0]
        with pytest.raises(RuntimeError, match="no minimum"):
            kl_dual_value(p, v, 0.5)
        with pytest.raises(RuntimeError, match="beyond log lambda = 700"):
            kl_ball_sup(p, v, 0.5)

    def test_weak_duality(self, rng):
        p = random_measure(rng, 6)
        v = rng.random(6)
        dual = kl_dual_value(p, v, 0.2)
        assert dual >= float(p.weights @ v) - 1e-12

    def test_constant_values(self, rng):
        p = random_measure(rng, 4)
        assert kl_dual_value(p, [0.3] * 4, 0.5) == pytest.approx(0.3, abs=1e-8)

    def test_kappa_zero_is_prior_mean(self, rng):
        p = random_measure(rng, 5)
        v = rng.random(5)
        assert kl_dual_value(p, v, 0.0) == pytest.approx(float(p.weights @ v), abs=1e-15)

    def test_negative_kappa_rejected(self, rng):
        with pytest.raises(ValueError):
            kl_dual_value(random_measure(rng, 3), [0, 1, 2], -0.5)

    @pytest.mark.parametrize("kappa", [1e-300, 1e-200, 1e-150, 1e-100, 1e-50, 1e-30, 1e-20,
                                       1e-18, 1e-15, 1e-12, 1e-8, 1e-4, 0.01, 0.5, 3.0, 30.0])
    def test_matches_primal_at_every_radius(self, kappa):
        # Down to kappa = 1e-300 neither solver raises, and the dual keeps to
        # the primal at float resolution, not 1e-16 / lambda.
        gen = np.random.default_rng(5)
        for _ in range(40):
            n = int(gen.integers(2, 30))
            p, v = ProbMeasure(gen.dirichlet(np.ones(n))), gen.random(n)
            assert abs(kl_dual_value(p, v, kappa) - kl_ball_sup(p, v, kappa)) <= 2e-15

    @pytest.mark.parametrize("kappa", [1e-8, 0.5, 3.0])
    def test_power_of_two_scaling_is_exact(self, rng, kappa):
        for _ in range(10):
            p, v = random_measure(rng, 6), rng.random(6)
            for j in (-900, 900):
                scaled = kl_dual_value(p, 2.0 ** j * v, kappa)
                assert scaled == 2.0 ** j * kl_dual_value(p, v, kappa)

    def test_huge_values_match_the_primal(self):
        p = ProbMeasure.uniform(2)
        v = [1e300, 3e300]
        assert kl_dual_value(p, v, 0.5) == pytest.approx(kl_ball_sup(p, v, 0.5), rel=1e-15)
        assert kl_dual_value(p, v, 0.5) < 3e300

    def test_full_float_range_does_not_overflow(self):
        # Both solvers form v - max v from halves, so no RuntimeWarning is raised.
        p, v = ProbMeasure.uniform(2), [-1e308, 1e308]
        dual, primal = kl_dual_value(p, v, 0.5), kl_ball_sup(p, v, 0.5)
        assert 0.0 < primal < 1e308
        assert abs(dual - primal) <= 2e293  # 1e-15 of the range


class TestDebiasMGF:
    def test_zero_risk_rows_give_one(self):
        t = LossTable([[0, 0], [0, 0]])
        d = ProbMeasure([0.4, 0.6])
        p = ProbMeasure.uniform(2)
        assert debias_mgf_exact(p, t, d, 0.5, 0.2, 25) == pytest.approx(1.0, abs=1e-15)

    def test_k_one_always_bounded(self, rng):
        # log cosh x <= x, so k = 1 always satisfies the lemma condition.
        for _ in range(10):
            dist, table = random_instance(rng, n_h=6, n_z=5)
            p = random_measure(rng, 6)
            for x in (0.1, 0.5, 1.0):
                assert debias_mgf_exact(p, table, dist, x, 1.0, 40) <= 1.0 + 1e-12

    def test_boundary_k(self, rng):
        for _ in range(5):
            dist, table = random_instance(rng, n_h=4, n_z=4)
            p = random_measure(rng, 4)
            for x in (0.2, 0.7):
                k = log_cosh_over_x(x)
                assert debias_mgf_exact(p, table, dist, x, k, 30) <= 1.0 + 1e-12

    def test_closed_form_against_direct_product(self, rng):
        # Independent route: expand the per-hypothesis power as a repeated product.
        dist, table = random_instance(rng, n_h=3, n_z=4)
        p = random_measure(rng, 3)
        x, k, m = 0.4, 0.9, 7
        r = true_risks(table, dist)
        expected = 0.0
        for f in range(3):
            factor = 1.0
            for _ in range(m):
                factor *= (1 - r[f]) + math.cosh(x) * math.exp(-k * x) * r[f]
            expected += p.weights[f] * factor
        assert debias_mgf_exact(p, table, dist, x, k, m) == pytest.approx(expected, rel=1e-12)

    def test_non_binary_rejected(self, rng):
        dist, table = random_instance(rng, binary=False)
        with pytest.raises(ValueError):
            debias_mgf_exact(random_measure(rng, table.hypothesis_count), table, dist, 0.5, 1.0, 10)


def xy_oracle(mu, x, c, c2, h):
    """Exhaustive 2^m x 2^m enumeration: for each sign vector, the adversary
    picks the best Y vertex; signs are averaged."""
    m = len(mu)

    def coef(eps, y):
        if eps == 1:
            return (1 + c2) - c2 * (1 - h * h) * y
        return -(1 + c) + c * (1 - h * h) * y

    total = 0.0
    for signs in itertools.product((1, -1), repeat=m):
        best = -math.inf
        for ys in itertools.product((0, 1), repeat=m):
            prod = 1.0
            for i in range(m):
                prod *= (1 - mu[i]) + mu[i] * math.exp(x * coef(signs[i], ys[i]))
            best = max(best, prod)
        total += best
    return total / 2 ** m


class TestXYMGF:
    def test_limit_at_zero_lambda(self):
        v = xy_mgf_bruteforce([0.5, 0.5, 0.5], 1e-9, 1.0, 0.125, 0.5)
        assert abs(v - 1.0) <= 1e-6

    def test_half_cap_instance(self):
        c, h = 1.0, 0.5
        c2 = h * h * c / 2
        x = xy_cap(c, c2, h) / 2
        assert xy_mgf_bruteforce([1.0, 1.0], x, c, c2, h) <= 1.0

    def test_zero_mu_is_one(self):
        assert xy_mgf_bruteforce([0.0, 0.0, 0.0], 0.01, 1.0, 0.1, 0.6) == pytest.approx(1.0, abs=1e-15)

    def test_against_exhaustive_oracle(self, rng):
        c, h = 1.2, 0.7
        c2 = h * h * c / (1 + 16 * h * h * c)
        cap = xy_cap(c, c2, h)
        for m in range(1, 7):
            mu = list(rng.random(m))
            for x in (0.3 * cap, 0.9 * cap):
                got = xy_mgf_bruteforce(mu, x, c, c2, h)
                assert got == pytest.approx(xy_oracle(mu, x, c, c2, h), rel=1e-12)

    def test_iid_coordinates_multiply(self):
        # Any m is exact: m equal means give the one-coordinate value to the m-th power.
        c, h = 1.0, 0.5
        c2 = h * h * c / (1 + 16 * h * h * c)
        x = 0.5 * xy_cap(c, c2, h)
        one = xy_mgf_bruteforce([0.4], x, c, c2, h)
        assert xy_mgf_bruteforce([0.4] * 30, x, c, c2, h) == pytest.approx(one ** 30, rel=1e-12)

    def test_constraint_violation_rejected_unless_forced(self):
        with pytest.raises(ValueError):
            xy_mgf_bruteforce([0.5, 0.5], 10.0, 1.0, 0.125, 0.5)
        # force flag permits exploratory evaluation outside the admissible region
        v = xy_mgf_bruteforce([0.5, 0.5], 10.0, 1.0, 0.125, 0.5, force=True)
        assert v > 1.0
        with pytest.raises(ValueError, match=r"h must lie in \(0, 1\]"):
            xy_mgf_bruteforce([0.5], 0.05, 1.0, 0.5, 2.0)
        assert xy_mgf_bruteforce([0.5], 0.05, 1.0, 0.5, 2.0, force=True) > 1.0


class TestShiftedFlatnessTail:
    def test_huge_t_never_exceeded(self, rng):
        dist, table = random_instance(rng)
        c2 = 0.5
        est = shifted_flatness_tail_mc(table, 0, dist, m=20, c2=c2, h=0.5,
                                       t=2.0 * (1 + c2) + 1.0, trials=500, seed=5)
        assert est.probability == 0.0

    def test_at_threshold(self, rng):
        dist, table = random_instance(rng, n_h=4, n_z=5)
        m, c2, h = 40, 0.5, 0.5
        t = lemma_a3_threshold(m, c2, h)
        est = shifted_flatness_tail_mc(table, 1, dist, m, c2, h, t, trials=10 ** 4, seed=7)
        assert est.probability <= 0.5 + est.wilson_halfwidth

    def test_zero_loss_row(self):
        t = LossTable([[0, 0], [1, 0]])
        d = ProbMeasure([0.5, 0.5])
        est = shifted_flatness_tail_mc(t, 0, d, m=10, c2=0.3, h=0.4, t=0.01,
                                       trials=200, seed=3)
        assert est.probability == 0.0

    @pytest.mark.parametrize("m, c2, h", [(0, 0.5, 0.5), (10, 0.0, 0.5), (10, math.nan, 0.5),
                                          (10, 0.5, 0.0), (10, 0.5, 1.5)])
    def test_bad_arguments_rejected(self, rng, m, c2, h):
        dist, table = random_instance(rng)
        with pytest.raises(ValueError):
            lemma_a3_threshold(m, c2, h)
        with pytest.raises(ValueError):
            shifted_flatness_tail_mc(table, 0, dist, m, c2, h, 0.3, 10, seed=1)

    def test_determinism(self, rng):
        dist, table = random_instance(rng)
        a = shifted_flatness_tail_mc(table, 0, dist, 15, 0.5, 0.5, 0.3, 300, seed=11)
        b = shifted_flatness_tail_mc(table, 0, dist, 15, 0.5, 0.5, 0.3, 300, seed=11)
        assert a == b


class TestSymmetrizationTail:
    def test_above_range_both_zero(self, rng):
        dist, table = random_instance(rng)
        p = ProbMeasure.uniform(table.hypothesis_count)
        lhs, rhs = symmetrization_tail_mc(table, dist, p, kappa=0.5, c=1.0, c2=0.5,
                                          t=10.0, m=20, trials=300, seed=2)
        assert lhs.probability == 0.0 and rhs.probability == 0.0

    def test_kappa_zero_matches_single_function_mc(self, rng):
        dist, table = random_instance(rng, n_h=4, n_z=4)
        p = random_measure(rng, 4)
        c, c2, t, m, trials = 1.0, 0.5, 0.05, 25, 4000
        lhs, _ = symmetrization_tail_mc(table, dist, p, 0.0, c, c2, t, m, trials, seed=13)
        # Direct MC of the prior-mean function with an independent seed path.
        r = float(p.weights @ true_risks(table, dist))
        gen_hits = 0
        for i in range(trials):
            s = draw_sample(dist, m, 999_331, i)
            emp = float(p.weights @ empirical_risks(table, s))
            if r - (1 + c) * emp >= t:
                gen_hits += 1
        direct = gen_hits / trials
        from pacbayes.processes import wilson_halfwidth
        joint = lhs.wilson_halfwidth + wilson_halfwidth(gen_hits, trials)
        assert abs(lhs.probability - direct) <= joint + 1e-9

    def test_linear_variant_inequality(self, rng):
        dist, table = random_instance(rng, n_h=5, n_z=4)
        p = ProbMeasure.uniform(5)
        lhs, rhs = symmetrization_tail_mc(table, dist, p, kappa=0.3, c=1.0, c2=0.5,
                                          t=0.15, m=30, trials=10 ** 4, seed=17)
        assert lhs.probability <= 4.0 * rhs.probability + lhs.wilson_halfwidth + 4.0 * rhs.wilson_halfwidth

    def test_quadratic_variant_inequality(self, rng):
        dist, table = random_instance(rng, n_h=5, n_z=4)
        p = ProbMeasure.uniform(5)
        m, c2, h = 30, 0.5, 0.5
        t = max(0.2, lemma_a3_threshold(m, c2, h))
        lhs, rhs = symmetrization_tail_mc(table, dist, p, kappa=0.3, c=1.0, c2=c2,
                                          t=t, m=m, trials=5000, seed=19, h=h)
        assert lhs.probability <= 4.0 * rhs.probability + lhs.wilson_halfwidth + 4.0 * rhs.wilson_halfwidth

    def test_determinism(self, rng):
        dist, table = random_instance(rng)
        p = ProbMeasure.uniform(table.hypothesis_count)
        a = symmetrization_tail_mc(table, dist, p, 0.2, 1.0, 0.5, 0.1, 10, 200, seed=23)
        b = symmetrization_tail_mc(table, dist, p, 0.2, 1.0, 0.5, 0.1, 10, 200, seed=23)
        assert a == b


def test_non_finite_lemma_inputs_rejected(rng):
    """An infinite c or c2, or a NaN or infinite value, is a ValueError; kappa = inf stays valid."""
    dist, table = random_instance(rng)
    p = ProbMeasure.uniform(table.hypothesis_count)
    v = np.linspace(0.1, 0.9, table.hypothesis_count)
    for bad in (math.nan, math.inf, -math.inf):
        w = v.copy()
        w[1] = bad
        for solver in (kl_ball_sup, kl_dual_value):
            with pytest.raises(ValueError, match="finite"):
                solver(p, w, 0.5)
    with pytest.raises(ValueError, match="finite"):
        kl_ball_sup(p, np.vstack([v, w]), math.inf)
    assert kl_ball_sup(p, v, math.inf) == kl_dual_value(p, v, math.inf) == v.max()
    for h in (None, 0.5):
        for c, c2 in ((math.inf, 0.5), (math.inf, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                symmetrization_tail_mc(table, dist, p, 0.5, c, c2, 0.2, 10, 50, seed=1, h=h)
    with pytest.raises(ValueError, match="finite"):
        shifted_flatness_tail_mc(table, 0, dist, 10, math.inf, 0.5, 0.3, 50, seed=1)
