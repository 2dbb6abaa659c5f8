import itertools
import math
import statistics
import sys

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from pacbayes import (LossTable, ProbMeasure, debias_mgf_exact,
                      draw_sample, kl_ball_sup, kl_dual_value, lemma_a3_threshold,
                      shifted_flatness_tail_mc, symmetrization_tail_mc, xy_cap,
                      xy_mgf_bruteforce)
from pacbayes.bounds import log_cosh_over_x
from pacbayes.cli import duality_tolerance
from pacbayes.core import BLOCK, empirical_risks, sample_blocks, true_risks
from pacbayes.processes import _KL_BALL_RTOL, _Z95, _kl_ball_tilt, _log_mgf
from pacbayes.rng import stream

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
            assert kl_dual_value(p, v, kappa) == (0.9, 0.9)
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

    @pytest.mark.parametrize("kappa", [0.0, 1e-12, 0.05, 0.5, 2.0, 4.0, math.log(10.0)])
    def test_stacked_blocks_keep_every_row_bits(self, rng, kappa, monkeypatch):
        # symmetrization_tail_mc solves its two sides in one call: kl_ball_sup of
        # two stacked blocks is both blocks' sups, bit for bit, whatever each row needs.
        # The probe reads _log_mgf's branch condition: a row anchored at its max
        # takes the log where E_w expm1(lam d) <= -1/2.
        import pacbayes.processes as processes
        log_rows, log_mgf = [], processes._log_mgf

        def probe(w, *rest):
            at_mean, _, _, em1, _, _ = r = log_mgf(w, *rest)
            log_rows.append(np.any(~at_mean & ((em1 * w).sum(axis=-1) <= -0.5)))
            return r

        monkeypatch.setattr(processes, "_log_mgf", probe)
        p = ProbMeasure([0.5, 0.0, 0.2, 0.1, 0.1, 0.1])
        special = np.array([
            [0.3, 0.3, 0.3, 0.3, 0.3, 0.3],        # constant
            [0.0, 9.0, 0.0, 0.0, 0.0, 0.0],        # constant on the support of p
            [0.0, 0.5, 0.1, 0.2, 0.3, 1.0],        # KL limit -log 0.1 = log 10
            [0.9, 0.0, 0.1, 0.1, 0.1, 0.1],        # KL limit -log 0.5
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],        # the log branch near the limit
            [-1.0, 3.0, 1e-300, 0.0, 2.0, 1e-3],   # wide range
        ])
        for _ in range(5):
            a = np.vstack([rng.random((int(rng.integers(1, 9)), 6)), special[rng.random(6) < 0.5]])
            b = np.vstack([np.round(rng.random((int(rng.integers(1, 9)), 6)), 1),
                           special[rng.permutation(6)[:3]]])
            a, b = rng.permutation(a), rng.permutation(b)
            stacked = kl_ball_sup(p, np.concatenate([a, b]), kappa)
            apart = np.concatenate([kl_ball_sup(p, a, kappa), kl_ball_sup(p, b, kappa)])
            assert stacked.tobytes() == apart.tobytes()
        assert any(log_rows) or kappa != 2.0

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
    """kl_ball_sup and both ends of kl_dual_value against an 80-digit bisection,
    on rows whose prior mean is zero, tiny against the range, and of order one."""

    ROWS = [((0.5, 0.5), (-1.0, 1.0)), ((0.5, 0.5), (-1.0, 1.000001)),
            ((0.2, 0.3, 0.5), (-0.7, 0.1, 0.26))]

    @pytest.mark.parametrize("weights, values", ROWS)
    @pytest.mark.parametrize("kappa", [1e-10, 1e-20, 1e-30, 1e-40, 1e-60])
    def test_matches_an_mpmath_bisection(self, weights, values, kappa):
        want = mp_sup(weights, values, kappa)
        p, v = ProbMeasure(np.array(weights)), np.array(values)
        for got in (kl_ball_sup(p, v, kappa), *kl_dual_value(p, v, kappa)):
            assert abs(got - want) <= 1e-13 * abs(want), (float(got), float(want))

    @pytest.mark.parametrize("kappa", [1e-100, 1e-300, 5e-324])
    def test_tiny_radius_is_finite_and_raises_nothing(self, kappa):
        # A prior mean of 0 (or tiny against the range) and a tiny radius: the
        # primal raised after 200 steps here, as 1-D values and as a block. A
        # subnormal radius is rejected: there the primal and the grid dual came out
        # finite but wrong (1.57e-162 and 1.28e-162 at 5e-324, against about 3.14e-162).
        p, rows = ProbMeasure.uniform(2), np.array([[-1.0, 1.0], [-1.0, 1.000001]])
        if kappa < sys.float_info.min:
            for solver, values in ((kl_ball_sup, rows), (kl_ball_sup, rows[0]),
                                   (kl_dual_value, rows)):
                with pytest.raises(ValueError, match="kappa must be 0 or at least"):
                    solver(p, values, kappa)
            return
        block = kl_ball_sup(p, rows, kappa)
        for row, sup, lower, upper in zip(rows, block, *kl_dual_value(p, rows, kappa)):
            for got in (sup, kl_ball_sup(p, row, kappa), lower, upper):
                assert np.isfinite(got) and p.weights @ row <= got <= row.max()
            assert abs(upper - lower) <= duality_tolerance(row)


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
    sup, lam = _kl_ball_tilt(p, rows, kappa)[:2]
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


@pytest.mark.parametrize("x_max", [0.0099, 0.009999, 0.005])
def test_log_mgf_taylor_series_against_mpmath(x_max):
    # At the prior mean _log_mgf returns log1p(E_w phi(x)), phi(x) = e^x - 1 - x,
    # and below E_w phi = 1e-4 it takes phi from its Taylor series for |x| < 1e-2.
    # x = (x_max, -x_max / 7) is centred under w = (1/8, 7/8). Within 2 ulp of the
    # 50-digit value; without its x^7 / 5040 term the series is 3e-14 off at x_max = 0.0099.
    w = np.array([0.125, 0.875])
    c = np.array([[x_max, -x_max / 7.0]])
    cmax, one = c.max(axis=-1), np.ones(1)
    at_mean, _, x, _, log_m, _ = _log_mgf(w, c - cmax[:, None], cmax, one, one)
    assert at_mean.all()
    with mpmath.workdps(50):
        want = mpmath.log1p(mpmath.fsum(mpmath.mpf(float(wi)) * (mpmath.expm1(xi) - xi)
                                        for wi, xi in zip(w, map(mpmath.mpf, x[0]))))
    assert float(want) < 1e-4
    assert abs(float(log_m[0]) - want) <= 2.0 * np.spacing(float(want))


class TestOneSolve:
    """kl_ball_sup, kl_dual_value and kst's start in minimize_bound read the one
    solve of _kl_ball_tilt, which returns (sup, lam, lower, upper) on every call."""

    P = ProbMeasure([0.3, 0.0, 0.2, 0.1, 0.4])
    ROWS = np.vstack([
        np.random.default_rng(5).random((5, 5)),  # open at every kappa below
        np.full(5, 0.25),                          # constant
        [0.0, 9.0, 0.0, 0.0, 0.0],                 # constant on the support of p
        [0.1, 0.2, 0.3, 0.9, 0.5],                 # KL limit -log 0.1
    ])

    @pytest.mark.parametrize("kappa", [0.0, 1e-9, 0.1, 2.0, math.inf])
    @pytest.mark.parametrize("values", [ROWS, ROWS[0], ROWS[5], ROWS.reshape(2, 4, 5)],
                             ids=["block", "open-row", "closed-row", "stacked"])
    def test_each_reader_is_its_part_of_the_solve(self, values, kappa):
        solve = _kl_ball_tilt(self.P, values, kappa)
        assert len(solve) == 4 and all(np.shape(x) == values.shape[:-1] for x in solve)
        assert np.asarray(kl_ball_sup(self.P, values, kappa)).tobytes() == solve[0].tobytes()
        dual = kl_dual_value(self.P, values, kappa)
        assert [np.asarray(x).tobytes() for x in dual] == [x.tobytes() for x in solve[2:]]
        sup, lam, lower, upper = solve
        closed = (lam == 0) | (lam == math.inf)
        assert (lower[closed] == sup[closed]).all() and (upper[closed] == sup[closed]).all()
        assert closed.all() or kappa not in (0.0, math.inf)

    def test_one_call_per_solve(self, monkeypatch, rng):
        import pacbayes.posterior_opt as posterior_opt
        import pacbayes.processes as processes
        from pacbayes import BoundParams, minimize_bound
        calls, solve = [], processes._kl_ball_tilt

        def counted(*args):
            calls.append(np.shape(args[1]))
            return solve(*args)

        monkeypatch.setattr(processes, "_kl_ball_tilt", counted)
        monkeypatch.setattr(posterior_opt, "_kl_ball_tilt", counted)
        dist, table = random_instance(rng, n_h=4, n_z=3)
        prior = random_measure(rng, 4)
        # The linear symmetrization: one solve per block of trials, both sides stacked.
        symmetrization_tail_mc(table, dist, prior, 0.5, 1.0, 0.5, 0.2, 10, BLOCK + 476, 3)
        assert calls == [(2 * BLOCK, 4), (2 * 476, 4)]
        calls.clear()
        s = draw_sample(dist, 20, 4, size=7)
        minimize_bound("kst", BoundParams(), prior, table, s)
        assert calls == [(7, 4)]


def mp_ball_sup(weights, values, kappa, lam, dps=60):
    """The KL-ball sup in dps digits, with the prior normalised in mpmath (a float
    prior sums to 1 only within about 1e-16, which moves the sup at small kappa
    by up to 1e-12): the closed cases, else E_Q v at the root of KL(Q_lam || p)
    = kappa, by Newton's method from lam to dps - 8 digits."""
    with mpmath.workdps(dps):
        pairs = [(mpmath.mpf(float(a)), mpmath.mpf(float(x))) for a, x in zip(weights, values) if a > 0]
        total = mpmath.fsum(a for a, _ in pairs)
        w, v = [a / total for a, _ in pairs], [x for _, x in pairs]
        top = max(v)
        if kappa == 0 or top == min(v):
            return mpmath.fsum(a * x for a, x in zip(w, v))
        if kappa >= -mpmath.log(mpmath.fsum(a for a, x in zip(w, v) if x == top)):
            return top
        kappa, lam = mpmath.mpf(kappa), mpmath.mpf(float(lam))
        for _ in range(100):
            t = [a * mpmath.exp(lam * (x - top)) for a, x in zip(w, v)]
            z = mpmath.fsum(t)
            e_q = mpmath.fsum(b * x for b, x in zip(t, v)) / z
            var = mpmath.fsum(b * (x - e_q) ** 2 for b, x in zip(t, v)) / z
            step = (lam * (e_q - top) - mpmath.log(z) - kappa) / (lam * var)
            lam -= step
            if abs(step) <= lam * mpmath.mpf(10) ** (8 - dps):
                t = [a * mpmath.exp(lam * (x - top)) for a, x in zip(w, v)]
                return mpmath.fsum(b * x for b, x in zip(t, v)) / mpmath.fsum(t)
    raise AssertionError(f"no convergence at kappa = {kappa}")


def dual_minimum(p, values, kappa):
    """inf over lam > 0 of the dual objective D(lam), by SciPy's bounded Brent on
    u = log lam in [-10, 60]: a second solver, for the tests only. D is formed
    at max v, max v + (kappa + log E_p e^{lam (v - max v)}) / lam, which keeps
    its absolute accuracy at every lam the search visits."""
    w, v = p.weights[p.weights > 0], np.asarray(values, dtype=float)[p.weights > 0]
    top = v.max()

    def objective(u):
        lam = math.exp(u)
        return top + (kappa + math.log(w @ np.exp(lam * (v - top)))) / lam

    return minimize_scalar(objective, bounds=(-10.0, 60.0), method="bounded",
                           options={"xatol": 1e-12}).fun


class TestKLBallBracket:
    """kl_dual_value's (lower, upper), the weak-duality bracket of the sup at the
    lam of kl_ball_sup's own solve."""

    def test_brackets_a_60_digit_sup(self):
        # 300 random rows: n_h from 2 to 60, kappa from 1e-6 to 10, values of
        # either sign up to 1e3 in size, some atoms without prior mass. Each end
        # may lie beyond the exact sup by rounding alone, at most 4 ulp of max |v|
        # (the sum lands on a sup that may be far larger than the range; 2.4 ulp
        # is the worst seen on 4 800 rows). The width is first order in the KL
        # residual, so at most _KL_BALL_RTOL (max v - min v) (0.28 of it at worst).
        gen = np.random.default_rng(34)
        active = 0
        for _ in range(300):
            n = int(gen.integers(2, 61))
            w = gen.dirichlet(np.full(n, gen.choice([0.3, 1.0, 3.0])))
            if gen.random() < 0.3:
                w[gen.choice(n, int(gen.integers(1, n)), replace=False)] = 0.0
            p = ProbMeasure(w / w.sum())
            v = (gen.random(n) - gen.random()) * 10.0 ** gen.uniform(-2, 3)
            kappa = float(10.0 ** gen.uniform(-6, 1))
            lower, upper = kl_dual_value(p, v, kappa)
            lam = _kl_ball_tilt(p, v, kappa)[1]
            active += 0 < lam < math.inf
            want = mp_ball_sup(p.weights, v, kappa, lam if 0 < lam < math.inf else 1.0)
            on = v[p.weights > 0]
            slack = 4.0 * np.spacing(np.abs(on).max())
            case = (p.weights, v, kappa)
            assert mpmath.mpf(float(lower)) - want <= slack, case
            assert want - mpmath.mpf(float(upper)) <= slack, case
            assert upper - lower <= _KL_BALL_RTOL * np.ptp(on) + 2.0 * slack, case
        assert active >= 250

    def test_upper_is_the_least_dual_value(self, rng):
        # Newton's lam minimises D: a bounded Brent search of D finds no lower value.
        for _ in range(10):
            p, v = random_measure(rng, 10), rng.random(10)
            for kappa in (0.1, 1.0, 3.0):
                lower, upper = kl_dual_value(p, v, kappa)
                assert abs(upper - dual_minimum(p, v, kappa)) <= 1e-13 * max(1.0, abs(upper))
                assert abs(upper - lower) <= duality_tolerance(v)

    def test_prior_mass_at_the_max_below_an_ulp(self):
        # E_P expm1(lam (v - max v)) rounds to -1 at the max anchor: the log is
        # taken of E_P e^{lam (v - max v)} itself, and nothing warns.
        p, v = ProbMeasure([1e-17, 1.0]), [1.0, 0.0]
        for kappa in (1.0, 30.0):
            lower, upper = kl_dual_value(p, v, kappa)
            assert abs(upper - lower) <= duality_tolerance(v)

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    def test_narrow_valley_near_the_log_lambda_cap(self, kappa):
        # KL > log(3/2) needs the tilt to split the two atoms 1e-300 apart, so
        # the root lies at log lambda ~ 691, 9 below the cap of 700. 80 digits
        # cannot resolve 1e-300 against 1; the oracle's bracket search starts at
        # lam = 2^990 = e^686 to save time.
        p, v = ProbMeasure.uniform(3), [-1.0, 1e-300, 0.0]
        # The sup is about 1e-300, and the upper end keeps to it as kl_ball_sup does. The
        # lower end is a mixture with p, whose value lies below the sup by up to
        # _KL_BALL_RTOL (max v - E_p v), here 3.2e-13 at kappa = 0.5.
        want = mp_sup(p.weights, v, kappa, dps=340, start=mpmath.mpf(2) ** 990)
        lower, upper = kl_dual_value(p, v, kappa)
        for got in (kl_ball_sup(p, v, kappa), upper):
            assert abs(got - want) <= 1e-13 * abs(want), (got, float(want))
        assert 0 <= want - lower <= _KL_BALL_RTOL * (max(v) - p.weights @ v)
        assert abs(upper - lower) <= duality_tolerance(v)
        # In a block with rows that finish in a few steps, the row's answer and
        # theirs are bit for bit those of one call per row.
        rows = np.array([v, [0.7, 0.3, 0.1], [-3.0, 2.0, 0.5], v, [0.7, 0.9, 0.2]])
        np.testing.assert_array_equal(kl_ball_sup(p, rows, kappa),
                                      [kl_ball_sup(p, row, kappa) for row in rows])

    def test_root_beyond_the_log_lambda_cap_raises(self):
        # Atoms 1e-305 apart put the root at log lambda ~ 702.
        p, v = ProbMeasure.uniform(3), [-1.0, 1e-305, 0.0]
        for solver in (kl_dual_value, kl_ball_sup):
            with pytest.raises(RuntimeError, match="beyond log lambda = 700"):
                solver(p, v, 0.5)

    def test_closed_rows_are_the_sup_at_both_ends(self, rng):
        # kappa = 0 and constant rows: the prior mean; kappa at or beyond the KL
        # limit: the max. Both ends are kl_ball_sup's closed value, bit for bit.
        p = random_measure(rng, 5)
        rows = np.vstack([rng.random((3, 5)), np.full(5, 0.3)])
        for kappa, closed in ((0.0, slice(None)), (0.5, slice(3, 4)), (math.inf, slice(None))):
            sup = kl_ball_sup(p, rows, kappa)[closed]
            for end in kl_dual_value(p, rows, kappa):
                np.testing.assert_array_equal(end[closed], sup)

    def test_negative_kappa_rejected(self, rng):
        with pytest.raises(ValueError):
            kl_dual_value(random_measure(rng, 3), [0, 1, 2], -0.5)

    @pytest.mark.parametrize("kappa", [1e-300, 1e-200, 1e-150, 1e-100, 1e-50, 1e-30, 1e-20,
                                       1e-18, 1e-15, 1e-12, 1e-8, 1e-4, 0.01, 0.5, 3.0, 30.0])
    def test_brackets_the_primal_at_every_radius(self, kappa):
        # Down to kappa = 1e-300 nothing raises, the bracket passes the duality
        # check (its widths here are at most 4.1e-14, and 0 below kappa = 1e-4),
        # and kl_ball_sup lies in it within two ulp of 1.
        gen = np.random.default_rng(5)
        for _ in range(40):
            n = int(gen.integers(2, 30))
            p, v = ProbMeasure(gen.dirichlet(np.ones(n))), gen.random(n)
            lower, upper = kl_dual_value(p, v, kappa)
            sup = kl_ball_sup(p, v, kappa)
            assert abs(upper - lower) <= duality_tolerance(v)
            assert lower - 4.5e-16 <= sup <= upper + 4.5e-16

    @pytest.mark.parametrize("kappa", [1e-8, 0.5, 3.0])
    def test_power_of_two_scaling_is_exact(self, rng, kappa):
        for _ in range(10):
            p, v = random_measure(rng, 6), rng.random(6)
            for j in (-900, 900):
                scaled = kl_dual_value(p, 2.0 ** j * v, kappa)
                assert scaled == tuple(2.0 ** j * end for end in kl_dual_value(p, v, kappa))

    def test_huge_values(self):
        p = ProbMeasure.uniform(2)
        v = [1e300, 3e300]
        sup = kl_ball_sup(p, v, 0.5)
        for end in kl_dual_value(p, v, 0.5):
            assert end == pytest.approx(sup, rel=1e-15) and end < 3e300

    def test_full_float_range_does_not_overflow(self):
        # v - max v is formed from halves, so no RuntimeWarning is raised.
        p, v = ProbMeasure.uniform(2), [-1e308, 1e308]
        (lower, upper), sup = kl_dual_value(p, v, 0.5), kl_ball_sup(p, v, 0.5)
        assert 0.0 < lower <= upper < 1e308
        assert abs(upper - lower) <= 2e293 and abs(sup - upper) <= 2e293  # 1e-15 of the range


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

    def test_non_integral_m_rejected_and_integral_float_kept(self, rng):
        dist, table = random_instance(rng)
        p = random_measure(rng, table.hypothesis_count)
        with pytest.raises(ValueError, match="m must be a whole number"):
            debias_mgf_exact(p, table, dist, 0.5, 1.0, 2.5)
        assert debias_mgf_exact(p, table, dist, 0.5, 1.0, 3.0) == \
            debias_mgf_exact(p, table, dist, 0.5, 1.0, 3)

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

    def test_computed_outside_the_hypotheses(self):
        # lambda/m = 10 is above the cap, and h = 2 above 1: the lemma's bound fails there.
        assert xy_mgf_bruteforce([0.5, 0.5], 10.0, 1.0, 0.125, 0.5) > 1.0
        assert xy_mgf_bruteforce([0.5], 0.05, 1.0, 0.5, 2.0) > 1.0


def test_z95_is_the_two_sided_95_percent_normal_quantile():
    # The Wilson halfwidths' z: within 2 ulp of the standard library's quantile,
    # and within 1 of the 40-digit value.
    assert abs(_Z95 - statistics.NormalDist().inv_cdf(0.975)) <= 2 * math.ulp(_Z95)
    with mpmath.workdps(40):
        exact = mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf("0.95"))
        assert abs(mpmath.mpf(_Z95) - exact) <= math.ulp(_Z95)


class TestShiftedFlatnessTail:
    @pytest.mark.parametrize("trials", [0, -2])
    def test_trial_count_is_checked_first(self, rng, trials):
        dist, table = random_instance(rng)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            shifted_flatness_tail_mc(table, 99, dist, m=0, c2=0.5, h=0.5, t=math.nan,
                                     trials=trials, seed=1)

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

    def test_a_statistic_between_half_t_and_t_over_one_point_eight_is_a_hit(self):
        # m = 1: a sample at point 1 has Remp = 0 and the statistic R = 0.5, which is
        # at least t/2 = 0.475 and below t/1.8 = 0.528; one at point 0 has -0.5 - c2 h^2.
        table, dist, trials, seed = LossTable([[1, 0]]), ProbMeasure([0.5, 0.5]), 400, 9
        est = shifted_flatness_tail_mc(table, 0, dist, 1, 0.5, 0.5, 0.95, trials, seed)
        at_one = sum(int(s.counts[:, 1].sum()) for _, s in sample_blocks(dist, 1, trials,
                                                                          seed, 0x5F))
        assert 0 < at_one < trials
        assert est.probability == at_one / trials

    def test_determinism(self, rng):
        dist, table = random_instance(rng)
        a = shifted_flatness_tail_mc(table, 0, dist, 15, 0.5, 0.5, 0.3, 300, seed=11)
        b = shifted_flatness_tail_mc(table, 0, dist, 15, 0.5, 0.5, 0.3, 300, seed=11)
        assert a == b


class TestSymmetrizationTail:
    @pytest.mark.parametrize("trials", [0, -2])
    def test_trial_count_is_checked_first(self, rng, trials):
        dist, table = random_instance(rng)
        p = ProbMeasure.uniform(table.hypothesis_count)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            symmetrization_tail_mc(table, dist, p, kappa=0.5, c=0.5, c2=1.0, t=math.nan, m=20,
                                   trials=trials, seed=2)

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

    @pytest.mark.parametrize("seed", [1, 7, 23, 404])
    def test_linear_variant_matches_a_two_call_reference(self, rng, seed):
        # One kl_ball_sup call a block for both sides counts what a call per side
        # counts; 1500 trials make a second, shorter block.
        dist, table = random_instance(rng, n_h=6, n_z=5, binary=seed % 2 == 0)
        prior = random_measure(rng, 6)
        kappa, c, c2, t, m, trials = 0.3, 1.0, 0.5, 0.1, 20, 1500
        lhs, rhs = symmetrization_tail_mc(table, dist, prior, kappa, c, c2, t, m, trials, seed)
        r = true_risks(table, dist)
        c_prime = (c - c2) / (1.0 + c2)
        lhs_hits = rhs_hits = 0
        blocks = zip(sample_blocks(dist, m, trials, seed, 0), sample_blocks(dist, m, trials, seed, 1))
        for b, ((_, s), (_, s2)) in enumerate(blocks):
            eps = stream(seed, 2, b).binomial(s2.counts, 0.5) * 2 - s2.counts
            dev = r - (1.0 + c) * empirical_risks(table, s)
            proc = (1.0 + c_prime / 2.0) * (np.matvec(table.loss, eps) / m
                                            - c_prime / (2.0 + c_prime) * empirical_risks(table, s2))
            lhs_hits += np.count_nonzero(kl_ball_sup(prior, dev, kappa) >= t)
            rhs_hits += np.count_nonzero(kl_ball_sup(prior, proc, kappa)
                                         >= t / (2.0 * (1.0 + c2)) / 2.0)
        assert (lhs.probability, rhs.probability) == (lhs_hits / trials, rhs_hits / trials)
        assert 0 < rhs_hits < trials

    def test_determinism(self, rng):
        dist, table = random_instance(rng)
        p = ProbMeasure.uniform(table.hypothesis_count)
        a = symmetrization_tail_mc(table, dist, p, 0.2, 1.0, 0.5, 0.1, 10, 200, seed=23)
        b = symmetrization_tail_mc(table, dist, p, 0.2, 1.0, 0.5, 0.1, 10, 200, seed=23)
        assert a == b


def test_tails_reject_non_integral_m_and_keep_integral_floats(rng):
    dist, table = random_instance(rng)
    p = ProbMeasure.uniform(table.hypothesis_count)
    tails = [lambda m: shifted_flatness_tail_mc(table, 0, dist, m, 0.5, 0.5, 0.3, 40, seed=1),
             lambda m: symmetrization_tail_mc(table, dist, p, 0.5, 1.0, 0.5, 0.2, m, 40, seed=1),
             lambda m: symmetrization_tail_mc(table, dist, p, 0.5, 1.0, 0.5, 0.2, m, 40, seed=1,
                                              h=0.5)]
    for tail in tails:
        with pytest.raises(ValueError, match="m must be a whole number"):
            tail(2.5)
        assert tail(3.0) == tail(3)


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
    assert kl_ball_sup(p, v, math.inf) == v.max()
    assert kl_dual_value(p, v, math.inf) == (v.max(), v.max())
    for h in (None, 0.5):
        for c, c2 in ((math.inf, 0.5), (math.inf, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                symmetrization_tail_mc(table, dist, p, 0.5, c, c2, 0.2, 10, 50, seed=1, h=h)
    with pytest.raises(ValueError, match="finite"):
        shifted_flatness_tail_mc(table, 0, dist, 10, math.inf, 0.5, 0.3, 50, seed=1)
