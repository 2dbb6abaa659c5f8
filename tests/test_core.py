import numpy as np
import pytest

from pacbayes import (DataDistribution, LossTable, Sample, draw_sample,
                      empirical_risk, true_risk)
from pacbayes.core import empirical_risks

from conftest import random_instance


class TestDataDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            DataDistribution([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DataDistribution([1.5, -0.5])

    def test_immutable(self):
        d = DataDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestLossTable:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LossTable([[0.0, 1.2]])

    def test_binary_flag_iff(self):
        assert LossTable([[0, 1], [1, 0]]).binary_flag
        assert not LossTable([[0, 0.5], [1, 0]]).binary_flag


class TestDrawSample:
    def test_point_mass(self):
        d = DataDistribution([1.0, 0.0])
        s = draw_sample(d, 5, seed=99)
        assert list(s.counts) == [5, 0]

    def test_law_of_large_numbers(self):
        d = DataDistribution([0.5, 0.5])
        s = draw_sample(d, 10 ** 5, seed=1)
        freq0 = s.counts[0] / s.m
        assert abs(freq0 - 0.5) <= 0.01

    def test_determinism(self):
        d = DataDistribution([0.25, 0.25, 0.5])
        a = draw_sample(d, 1000, seed=42)
        b = draw_sample(d, 1000, seed=42)
        assert a.counts.tobytes() == b.counts.tobytes()
        assert a.seed_record == b.seed_record

    def test_zero_m_rejected(self):
        with pytest.raises(ValueError):
            draw_sample(DataDistribution([1.0]), 0, seed=0)

    def test_probs_summing_to_one_within_tolerance(self):
        # Accepted by DataDistribution, but an entry lies above 1, which the
        # multinomial rejects unless the draw renormalizes.
        d = DataDistribution([1 + 9e-13, 0.0])
        s = draw_sample(d, 7, seed=5)
        assert list(s.counts) == [7, 0]


class TestSample:
    def test_counts_are_read_only(self):
        s = Sample(np.array([1, 2]), seed_record=0)
        assert s.m == 3
        with pytest.raises(ValueError):
            s.counts[0] = 5

    def test_rejects_invalid_counts(self):
        with pytest.raises(ValueError):
            Sample(np.array([2, -1]), seed_record=0)
        with pytest.raises(ValueError):
            Sample(np.array([0, 0]), seed_record=0)
        with pytest.raises(ValueError):
            Sample(np.array([1.5, 2.0]), seed_record=0)
        with pytest.raises(ValueError):
            empirical_risks(LossTable([[1, 0]]), Sample(np.array([1, 1, 1]), seed_record=0))


class TestRisks:
    def test_true_risk_zero_row(self):
        t = LossTable([[0, 0], [1, 1]])
        d = DataDistribution([0.4, 0.6])
        assert true_risk(t, 0, d) == 0.0

    def test_true_risk_symmetry(self):
        t = LossTable([[1, 0]])
        d = DataDistribution([0.5, 0.5])
        assert true_risk(t, 0, d) == 0.5

    def test_true_risk_dot_product(self):
        t = LossTable([[1, 0]])
        d = DataDistribution([0.3, 0.7])
        assert true_risk(t, 0, d) == pytest.approx(0.3, abs=1e-15)

    def test_true_risk_bad_index(self):
        with pytest.raises(ValueError):
            true_risk(LossTable([[1, 0]]), 3, DataDistribution([0.5, 0.5]))

    def test_empirical_risk_all_ones(self):
        t = LossTable([[1, 1]])
        s = Sample(np.array([1, 2]), seed_record=0)
        assert empirical_risk(t, 0, s) == 1.0

    def test_empirical_risk_hand_mean(self):
        t = LossTable([[1, 0]])
        s = Sample(np.array([2, 2]), seed_record=0)
        assert empirical_risk(t, 0, s) == 0.5

    def test_empirical_risk_singleton(self):
        t = LossTable([[1, 0]])
        s = Sample(np.array([0, 1]), seed_record=0)
        assert empirical_risk(t, 0, s) == 0.0


class TestProperties:
    def test_empirical_risk_converges_to_true(self, rng):
        dist, table = random_instance(rng, n_h=3, n_z=5)
        f = 1
        r = true_risk(table, f, dist)
        var = float(dist.probs @ (table.loss[f] - r) ** 2)
        n_trials, m = 10 ** 4, 20
        total = 0.0
        for i in range(n_trials):
            total += empirical_risk(table, f, draw_sample(dist, m, 500, i))
        mean = total / n_trials
        assert abs(mean - r) <= 4.0 * np.sqrt(var / m / n_trials)

    def test_affine_in_loss_row(self, rng):
        dist, table = random_instance(rng, n_h=2, n_z=4)
        alpha = 0.37
        scaled = LossTable(table.loss * np.array([[alpha], [1.0]]))
        s = draw_sample(dist, 30, seed=3)
        assert true_risk(scaled, 0, dist) == pytest.approx(alpha * true_risk(table, 0, dist), abs=1e-15)
        assert empirical_risk(scaled, 0, s) == pytest.approx(alpha * empirical_risk(table, 0, s), abs=1e-15)

    def test_vectorized_matches_scalar(self, rng):
        dist, table = random_instance(rng)
        s = draw_sample(dist, 17, seed=8)
        vec = empirical_risks(table, s)
        for f in range(table.hypothesis_count):
            assert vec[f] == pytest.approx(empirical_risk(table, f, s), abs=1e-15)
