import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacbayes import (LossTable, ProbMeasure, Sample, draw_sample, flatness,
                      flatness_alternate, gibbs_empirical_risk, gibbs_loss,
                      gibbs_risk, kl_divergence)

from conftest import random_instance, random_measure

simplex2 = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6)


def normalize(xs):
    a = np.array(xs)
    return ProbMeasure(a / a.sum())


class TestKL:
    def test_identity(self, rng):
        q = random_measure(rng, 7)
        assert kl_divergence(q, q) == pytest.approx(0.0, abs=1e-14)

    def test_point_mass_vs_uniform(self):
        q = ProbMeasure.point_mass(8, 3)
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
    def test_gibbs_loss_point_mass(self):
        t = LossTable([[0.3, 0.9], [0.1, 0.2]])
        q = ProbMeasure.point_mass(2, 1)
        assert gibbs_loss(q, t, 0) == pytest.approx(0.1, abs=1e-15)

    def test_gibbs_loss_symmetry(self):
        t = LossTable([[1, 0], [0, 1]])
        q = ProbMeasure.uniform(2)
        assert gibbs_loss(q, t, 0) == 0.5

    def test_gibbs_loss_dot(self):
        t = LossTable([[1, 0], [0, 1]])
        q = ProbMeasure([0.2, 0.8])
        assert gibbs_loss(q, t, 0) == pytest.approx(0.2, abs=1e-15)

    def test_gibbs_loss_bad_index(self):
        with pytest.raises(ValueError):
            gibbs_loss(ProbMeasure.uniform(2), LossTable([[1, 0], [0, 1]]), 5)

    def test_gibbs_risk_point_mass(self, rng):
        dist, table = random_instance(rng)
        from pacbayes import true_risk
        q = ProbMeasure.point_mass(table.hypothesis_count, 2)
        assert gibbs_risk(q, table, dist) == pytest.approx(true_risk(table, 2, dist), abs=1e-15)

    def test_gibbs_risk_uniform_symmetry(self):
        t = LossTable([[1, 0], [0, 1]])
        from pacbayes import DataDistribution
        d = DataDistribution([0.5, 0.5])
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

    def test_gibbs_empirical_risk_linearity(self, rng):
        dist, table = random_instance(rng, n_h=6)
        s = draw_sample(dist, 25, 9)
        q1, q2 = random_measure(rng, 6), random_measure(rng, 6)
        alpha = 0.3
        mix = ProbMeasure(alpha * q1.weights + (1 - alpha) * q2.weights)
        lhs = gibbs_empirical_risk(mix, table, s)
        rhs = alpha * gibbs_empirical_risk(q1, table, s) + (1 - alpha) * gibbs_empirical_risk(q2, table, s)
        assert lhs == pytest.approx(rhs, abs=1e-14)


class TestFlatness:
    def test_point_mass_is_h2_times_empirical(self, rng):
        dist, table = random_instance(rng, n_h=4, n_z=6)
        s = draw_sample(dist, 40, 11)
        for f in range(4):
            q = ProbMeasure.point_mass(4, f)
            emp = gibbs_empirical_risk(q, table, s)
            for h in (0.1, 0.5, 0.9, 1.0):
                assert flatness(q, table, s, h).value == pytest.approx(h * h * emp, abs=1e-12)

    def test_point_mass_zero_loss(self):
        t = LossTable([[0, 0], [1, 1]])
        s = Sample(np.array([2, 1]), seed_record=0)
        q = ProbMeasure.point_mass(2, 0)
        for h in (0.1, 0.5, 1.0):
            assert flatness(q, t, s, h).value == 0.0

    def test_hand_enumeration_h0_boundary(self):
        # Two disagreeing hypotheses, one sample point each; h = 0 via the
        # alternate path (the definitional path requires h > 0).
        t = LossTable([[1, 0], [0, 1]])
        s = Sample(np.array([1, 1]), seed_record=0)
        q = ProbMeasure.uniform(2)
        assert flatness_alternate(q, t, s, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_binary_identity(self, rng):
        for _ in range(20):
            dist, table = random_instance(rng, n_h=6, n_z=5)
            q = random_measure(rng, 6)
            s = draw_sample(dist, 30, int(rng.integers(1 << 30)))
            for h in (0.1, 0.5, 0.9):
                assert abs(flatness(q, table, s, h).value
                           - flatness_alternate(q, table, s, h)) <= 1e-9

    def test_alternate_upper_bounds_general_loss(self, rng):
        for _ in range(20):
            dist, table = random_instance(rng, n_h=5, n_z=4, binary=False)
            q = random_measure(rng, 5)
            s = draw_sample(dist, 25, int(rng.integers(1 << 30)))
            for h in (0.2, 0.6, 1.0):
                assert flatness(q, table, s, h).value <= flatness_alternate(q, table, s, h) + 1e-12

    def test_alternate_at_h1_is_empirical_risk(self, rng):
        dist, table = random_instance(rng, binary=False)
        q = random_measure(rng, table.hypothesis_count)
        s = draw_sample(dist, 20, 4)
        assert flatness_alternate(q, table, s, 1.0) == pytest.approx(
            gibbs_empirical_risk(q, table, s), abs=1e-15)

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
