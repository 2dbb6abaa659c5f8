import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacbayes import (BoundParams, LossTable, ProbMeasure, Sample, draw_sample, flatness,
                      flatness_alternate, gibbs_losses,
                      gibbs_risk, kl_divergence, true_risks)
from pacbayes.bounds import evaluate_bound

from conftest import flatness_double_sum, random_instance, random_measure

simplex2 = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6)


def normalize(xs):
    a = np.array(xs)
    return ProbMeasure(a / a.sum())



class TestKL:
    def test_identity(self, rng):
        q = random_measure(rng, 7)
        assert kl_divergence(q, q) == pytest.approx(0.0, abs=1e-14)

    def test_a_kl_rounded_below_0_is_0_and_its_bound_evaluates(self, rng):
        # For q within 1e-9 of p (relative) the sum of q log(q / p) rounds below 0
        # on about half the rows; each of those is 0, and the bound there takes KL = 0.
        p = random_measure(rng, 6)
        w = p.weights * (1.0 + 1e-9 * rng.standard_normal((20000, 6)))
        q = ProbMeasure(w / w.sum(axis=-1, keepdims=True))
        raw = (q.weights * np.log(q.weights / p.weights)).sum(axis=-1)
        kl = kl_divergence(q, p)
        assert np.count_nonzero(raw < 0) > 5000
        assert (kl[raw < 0] == 0).all() and (kl >= 0).all()
        params = BoundParams()
        value = evaluate_bound("mcallester", np.full(len(kl), 0.2), kl, 100, params).value
        at_0 = evaluate_bound("mcallester", 0.2, 0.0, 100, params).value
        assert (value[raw < 0] == at_0).all()

    def test_dirac_vs_uniform(self):
        q = ProbMeasure(np.eye(8)[3])
        p = ProbMeasure.uniform(8)
        assert kl_divergence(q, p) == pytest.approx(math.log(8), abs=1e-14)

    def test_high_precision_value(self):
        # Independent oracle: 50-digit arithmetic.
        with mpmath.workdps(50):
            expected = float(mpmath.mpf("0.75") * mpmath.log(mpmath.mpf("1.5"))
                             + mpmath.mpf("0.25") * mpmath.log(mpmath.mpf("0.5")))
        got = kl_divergence(ProbMeasure([0.75, 0.25]), ProbMeasure([0.5, 0.5]))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.13081, abs=1e-5)

    def test_support_violation_gives_inf(self):
        q = ProbMeasure([0.5, 0.5])
        p = ProbMeasure([1.0, 0.0])
        assert kl_divergence(q, p) == math.inf
        # Every zero pattern, warnings raised as errors: q > 0 where p = 0 is
        # +inf; q = 0 where p > 0, and both 0, are zero terms.
        p = ProbMeasure([0.5, 0.25, 0.25, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kl = kl_divergence(ProbMeasure([[0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0],
                                            [1.0, 0.0, 0.0, 0.0], [0.5, 0.25, 0.25, 0.0]]), p)
            assert kl_divergence(ProbMeasure([0.0, 0.0, 0.0, 1.0]), p) == math.inf
            assert kl_divergence(p, ProbMeasure([[0.0, 0.5, 0.5, 0.0], p.weights])).tolist() \
                == [math.inf, 0.0]
        assert kl[0] == math.inf and kl[3] == 0.0
        assert kl[1] == pytest.approx(math.log(2.0), abs=1e-15)
        assert kl[2] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_subnormal_prior_weight_against_mpmath(self):
        # q / p overflows where p is subnormal; such a row is summed as
        # q (log q - log p), finite and without a warning. The other rows keep their bits.
        p = ProbMeasure([1.0, 1e-310])
        with mpmath.workdps(40):
            want = float(sum(mpmath.mpf(q) * mpmath.log(mpmath.mpf(q) / mpmath.mpf(w))
                             for q, w in ((0.5, 1.0), (0.5, 1e-310))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kl_divergence(ProbMeasure([0.5, 0.5]), p)
            rows = kl_divergence(ProbMeasure([[0.5, 0.5], [0.9, 0.1], [1.0, 0.0]]), p)
            assert kl_divergence(ProbMeasure([0.5, 0.0, 0.5]),
                                 ProbMeasure([0.5, 0.5 - 1e-310, 1e-310])) == pytest.approx(
                                     0.5 * (math.log(0.5) - math.log(1e-310)), rel=1e-15)
            assert kl_divergence(ProbMeasure([0.4, 0.2, 0.4]),
                                 ProbMeasure([1.0, 1e-310, 0.0])) == math.inf
        assert got == pytest.approx(want, rel=1e-15) and want == pytest.approx(356.2075, abs=1e-4)
        assert rows[0] == got
        assert rows[1] == pytest.approx(0.9 * math.log(0.9) + 0.1 * (math.log(0.1)
                                                                     - math.log(1e-310)), rel=1e-14)
        assert rows[2] == kl_divergence(ProbMeasure([1.0, 0.0]), p) == 0.0
        p3 = ProbMeasure([0.25, 0.75 - 1e-310, 1e-310])
        normal, overflowed = kl_divergence(ProbMeasure([[0.5, 0.5, 0.0], [0.4, 0.2, 0.4]]), p3)
        assert normal == kl_divergence(ProbMeasure([0.5, 0.5, 0.0]), p3) and overflowed > 280

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(ProbMeasure([1.0]), ProbMeasure([0.5, 0.5]))

    @settings(max_examples=50, deadline=None)
    @given(simplex2, simplex2)
    def test_nonnegative_zero_iff_equal(self, qs, ps):
        if len(qs) != len(ps):
            ps = (ps * len(qs))[:len(qs)]
        q, p = normalize(qs), normalize(ps)
        kl = kl_divergence(q, p)
        assert kl >= -1e-15
        if np.allclose(q.weights, p.weights, atol=1e-12):
            assert kl <= 1e-10


class TestGibbsRisks:
    S2 = Sample(np.array([1, 1]))

    def test_gibbs_loss_dirac(self):
        t = LossTable([[0.3, 0.9], [0.1, 0.2]])
        q = ProbMeasure(np.eye(2)[1])
        assert gibbs_losses(q, t, self.S2)[0] == pytest.approx(0.1, abs=1e-15)

    def test_gibbs_loss_symmetry(self):
        t = LossTable([[1, 0], [0, 1]])
        q = ProbMeasure.uniform(2)
        assert gibbs_losses(q, t, self.S2)[0] == 0.5

    def test_gibbs_loss_dot(self):
        t = LossTable([[1, 0], [0, 1]])
        q = ProbMeasure([0.2, 0.8])
        assert gibbs_losses(q, t, self.S2)[0] == pytest.approx(0.2, abs=1e-15)

    def test_gibbs_losses_point_count_mismatch(self):
        with pytest.raises(ValueError):
            gibbs_losses(ProbMeasure.uniform(2), LossTable([[1, 0], [0, 1]]),
                         Sample(np.array([1, 1, 1])))

    def test_gibbs_risk_dirac(self, rng):
        dist, table = random_instance(rng)
        q = ProbMeasure(np.eye(table.hypothesis_count)[2])
        assert gibbs_risk(q, table, dist) == pytest.approx(true_risks(table, dist)[2], abs=1e-15)

    def test_gibbs_risk_uniform_symmetry(self):
        t = LossTable([[1, 0], [0, 1]])
        d = ProbMeasure([0.5, 0.5])
        assert gibbs_risk(ProbMeasure.uniform(2), t, d) == 0.5

    def test_gibbs_risk_linearity(self, rng):
        dist, table = random_instance(rng, n_h=6)
        q1 = random_measure(rng, 6)
        q2 = random_measure(rng, 6)
        alpha = 0.3
        mix = ProbMeasure(alpha * q1.weights + (1 - alpha) * q2.weights)
        lhs = gibbs_risk(mix, table, dist)
        rhs = alpha * gibbs_risk(q1, table, dist) + (1 - alpha) * gibbs_risk(q2, table, dist)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_empirical_gibbs_risk_linearity(self, rng):
        dist, table = random_instance(rng, n_h=6)
        s = draw_sample(dist, 25, 9)
        q1, q2 = random_measure(rng, 6), random_measure(rng, 6)
        alpha = 0.3
        mix = ProbMeasure(alpha * q1.weights + (1 - alpha) * q2.weights)
        lhs = s.mean(gibbs_losses(mix, table, s))
        rhs = (alpha * s.mean(gibbs_losses(q1, table, s))
               + (1 - alpha) * s.mean(gibbs_losses(q2, table, s)))
        assert lhs == pytest.approx(rhs, abs=1e-14)


class TestFlatness:
    def test_dirac_is_h2_times_empirical(self, rng):
        dist, table = random_instance(rng, n_h=4, n_z=6)
        s = draw_sample(dist, 40, 11)
        for f in range(4):
            q = ProbMeasure(np.eye(4)[f])
            emp = s.mean(gibbs_losses(q, table, s))
            for h in (0.1, 0.5, 0.9, 1.0):
                assert flatness(q, table, s, h) == pytest.approx(h * h * emp, abs=1e-12)

    def test_dirac_zero_loss(self):
        t = LossTable([[0, 0], [1, 1]])
        s = Sample(np.array([2, 1]))
        q = ProbMeasure(np.eye(2)[0])
        for h in (0.1, 0.5, 1.0):
            assert flatness(q, t, s, h) == 0.0

    def test_hand_enumeration_h0_boundary(self):
        # Two disagreeing hypotheses, one sample point each; h = 0 via the
        # alternate path (the definitional path requires h > 0).
        t = LossTable([[1, 0], [0, 1]])
        s = Sample(np.array([1, 1]))
        q = ProbMeasure.uniform(2)
        assert flatness_alternate(q, t, s, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_binary_identity(self, rng):
        for _ in range(20):
            dist, table = random_instance(rng, n_h=6, n_z=5)
            q = random_measure(rng, 6)
            s = draw_sample(dist, 30, int(rng.integers(1 << 30)))
            for h in (0.1, 0.5, 0.9):
                assert abs(flatness(q, table, s, h)
                           - flatness_alternate(q, table, s, h)) <= 1e-9

    @pytest.mark.parametrize("binary", [True, False])
    def test_second_moment_is_g_on_a_binary_table_and_read_from_loss_squared_else(self, rng,
                                                                                binary):
        # On a binary table L^2 = L entrywise, so Q L^2 is G to the bit and
        # flatness takes G for it; on any other table it reads loss_squared.
        dist, table = random_instance(rng, n_h=7, n_z=5, binary=binary)
        q = ProbMeasure(rng.dirichlet(np.ones(7), size=6))
        s = draw_sample(dist, 30, 5, size=6)
        g = gibbs_losses(q, table, s)
        for h in (0.2, 0.7, 1.0):
            expected = s.mean(np.vecmat(q.weights, table.loss_squared) - (1 - h * h) * (g * g))
            assert np.array_equal(flatness(q, table, s, h), expected)
            assert np.array_equal(flatness(q, table, s, h, g), expected)
            from_g = s.mean(g - (1 - h * h) * (g * g))
            assert np.array_equal(expected, from_g) == binary

    def test_alternate_upper_bounds_general_loss(self, rng):
        for _ in range(20):
            dist, table = random_instance(rng, n_h=5, n_z=4, binary=False)
            q = random_measure(rng, 5)
            s = draw_sample(dist, 25, int(rng.integers(1 << 30)))
            for h in (0.2, 0.6, 1.0):
                assert flatness(q, table, s, h) <= flatness_alternate(q, table, s, h) + 1e-12

    def test_alternate_at_h1_is_empirical_risk(self, rng):
        dist, table = random_instance(rng, binary=False)
        q = random_measure(rng, table.hypothesis_count)
        s = draw_sample(dist, 20, 4)
        assert flatness_alternate(q, table, s, 1.0) == pytest.approx(
            s.mean(gibbs_losses(q, table, s)), abs=1e-15)

    def test_h_domain(self, rng):
        dist, table = random_instance(rng)
        q = random_measure(rng, table.hypothesis_count)
        s = draw_sample(dist, 10, 2)
        with pytest.raises(ValueError):
            flatness(q, table, s, 0.0)
        with pytest.raises(ValueError):
            flatness(q, table, s, 1.5)
        with pytest.raises(ValueError):
            flatness_alternate(q, table, s, -0.1)

    def test_expansion_matches_double_sum(self, rng):
        # flatness uses sum_f Q_f (L - (1+h) G)^2 = Q @ L^2 - (1-h^2) G^2.
        for _ in range(20):
            n_h, n_z = (int(k) for k in rng.integers(2, 9, size=2))
            dist = ProbMeasure(rng.dirichlet(np.ones(n_z)))
            table = LossTable(rng.random((n_h, n_z)))
            q = random_measure(rng, n_h)
            s = draw_sample(dist, int(rng.integers(1, 60)), int(rng.integers(1 << 30)))
            for h in (0.05, 0.5, 0.99, 1.0):
                assert abs(flatness(q, table, s, h) - flatness_double_sum(q, table, s, h)) <= 1e-12

    def test_expansion_matches_double_sum_on_a_block(self, rng):
        dist = ProbMeasure(rng.dirichlet(np.ones(5)))
        table = LossTable(rng.random((7, 5)))
        q = ProbMeasure(rng.dirichlet(np.ones(7), size=9))
        s = draw_sample(dist, 31, 6, size=9)
        got = flatness(q, table, s, 0.3)
        assert got.shape == (9,)
        for value, q_row, s_row in zip(got, q.weights, map(Sample, s.counts)):
            assert abs(value - flatness_double_sum(ProbMeasure(q_row), table, s_row, 0.3)) <= 1e-12


class TestBlocks:
    def test_rows_are_checked_one_by_one(self):
        ProbMeasure([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValueError):
            ProbMeasure([[0.5, 0.5], [0.7, 0.4]])
        with pytest.raises(ValueError):
            ProbMeasure([[0.5, 0.5], [1.5, -0.5]])

    def test_kl_per_row_with_infinite_rows(self):
        q = ProbMeasure([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        p = ProbMeasure([0.5, 0.5, 0.0])
        kl = kl_divergence(q, p)
        assert kl.shape == (3,)
        assert kl[0] == 0.0 and kl[1] == math.inf
        assert kl[2] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_gibbs_risks_per_row(self, rng):
        dist, table = random_instance(rng, n_h=6, n_z=4, binary=False)
        q = ProbMeasure(rng.dirichlet(np.ones(6), size=5))
        s = draw_sample(dist, 20, 3, size=5)
        risks = gibbs_risk(q, table, dist)
        emp = s.mean(gibbs_losses(q, table, s))
        assert risks.shape == emp.shape == (5,)
        for t in range(5):
            row = ProbMeasure(q.weights[t])
            assert risks[t] == gibbs_risk(row, table, dist)
            one = Sample(s.counts[t])
            assert emp[t] == one.mean(gibbs_losses(row, table, one))
        # One posterior for the whole block broadcasts over its samples.
        fixed = ProbMeasure(q.weights[0])
        singles = [Sample(c) for c in s.counts]
        assert np.array_equal(s.mean(gibbs_losses(fixed, table, s)),
                              [one.mean(gibbs_losses(fixed, table, one)) for one in singles])
