import itertools
import math

import numpy as np
import pytest

from pacbayes import (DataDistribution, LossTable, ProbMeasure, debias_mgf_exact,
                      draw_sample, kl_ball_sup, kl_dual_value, lemma_a3_threshold,
                      shifted_flatness_tail_mc, symmetrization_tail_mc, xy_cap,
                      xy_mgf_bruteforce)
from pacbayes.bounds import log_cosh_over_x
from pacbayes.core import empirical_risks, true_risks

from conftest import random_instance, random_measure

WIDE_GRID = np.logspace(-2, 9, 120)


class TestKLBallSup:
    def test_kappa_zero_is_prior_mean(self, rng):
        p = random_measure(rng, 6)
        v = rng.random(6)
        assert kl_ball_sup(p, v, 0.0) == pytest.approx(float(p.weights @ v), abs=1e-14)

    def test_kappa_below_rounding_error_is_prior_mean(self, rng):
        # KL(p||p) evaluates to about +-1e-16, above these radii.
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

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            kl_ball_sup(ProbMeasure.uniform(2), [0.0, 1.0], -0.1)


class TestKLDual:
    def test_matches_primal_on_random_instances(self, rng):
        for _ in range(10):
            p = random_measure(rng, 10)
            v = rng.random(10)
            for kappa in (0.1, 1.0, 3.0):
                primal = kl_ball_sup(p, v, kappa)
                dual = kl_dual_value(p, v, kappa, WIDE_GRID)
                assert abs(dual - primal) <= 1e-6

    def test_weak_duality(self, rng):
        p = random_measure(rng, 6)
        v = rng.random(6)
        dual = kl_dual_value(p, v, 0.2, WIDE_GRID)
        assert dual >= float(p.weights @ v) - 1e-12

    def test_constant_values(self, rng):
        p = random_measure(rng, 4)
        assert kl_dual_value(p, [0.3] * 4, 0.5, WIDE_GRID) == pytest.approx(0.3, abs=1e-8)

    def test_empty_grid_rejected(self, rng):
        with pytest.raises(ValueError):
            kl_dual_value(random_measure(rng, 3), [0, 1, 2], 0.5, [])


class TestDebiasMGF:
    def test_zero_risk_rows_give_one(self):
        t = LossTable([[0, 0], [0, 0]])
        d = DataDistribution([0.4, 0.6])
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
        d = DataDistribution([0.5, 0.5])
        est = shifted_flatness_tail_mc(t, 0, d, m=10, c2=0.3, h=0.4, t=0.01,
                                       trials=200, seed=3)
        assert est.probability == 0.0

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
