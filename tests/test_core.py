import numpy as np
import pytest

from pacbayes import (DataDistribution, LossTable, Sample, draw_sample, empirical_risks,
                      sample_blocks, true_risks)
from pacbayes.core import BLOCK

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
        s = Sample(np.array([1, 2]))
        assert s.m == 3
        with pytest.raises(ValueError):
            s.counts[0] = 5

    def test_rejects_invalid_counts(self):
        with pytest.raises(ValueError):
            Sample(np.array([2, -1]))
        with pytest.raises(ValueError):
            Sample(np.array([0, 0]))
        with pytest.raises(ValueError):
            Sample(np.array([1.5, 2.0]))
        with pytest.raises(ValueError):
            empirical_risks(LossTable([[1, 0]]), Sample(np.array([1, 1, 1])))


class TestRisks:
    def test_true_risk_zero_row(self):
        t = LossTable([[0, 0], [1, 1]])
        d = DataDistribution([0.4, 0.6])
        assert true_risks(t, d)[0] == 0.0

    def test_true_risk_symmetry(self):
        t = LossTable([[1, 0]])
        d = DataDistribution([0.5, 0.5])
        assert true_risks(t, d)[0] == 0.5

    def test_true_risk_dot_product(self):
        t = LossTable([[1, 0]])
        d = DataDistribution([0.3, 0.7])
        assert true_risks(t, d)[0] == pytest.approx(0.3, abs=1e-15)

    def test_true_risks_point_count_mismatch(self):
        with pytest.raises(ValueError):
            true_risks(LossTable([[1, 0]]), DataDistribution([0.5, 0.25, 0.25]))

    def test_empirical_risk_all_ones(self):
        t = LossTable([[1, 1]])
        s = Sample(np.array([1, 2]))
        assert empirical_risks(t, s)[0] == 1.0

    def test_empirical_risk_hand_mean(self):
        t = LossTable([[1, 0]])
        s = Sample(np.array([2, 2]))
        assert empirical_risks(t, s)[0] == 0.5

    def test_empirical_risk_singleton(self):
        t = LossTable([[1, 0]])
        s = Sample(np.array([0, 1]))
        assert empirical_risks(t, s)[0] == 0.0


class TestProperties:
    def test_empirical_risk_converges_to_true(self, rng):
        dist, table = random_instance(rng, n_h=3, n_z=5)
        f = 1
        r = true_risks(table, dist)[f]
        var = float(dist.probs @ (table.loss[f] - r) ** 2)
        n_trials, m = 10 ** 4, 20
        total = 0.0
        for i in range(n_trials):
            total += empirical_risks(table, draw_sample(dist, m, 500, i))[f]
        mean = total / n_trials
        assert abs(mean - r) <= 4.0 * np.sqrt(var / m / n_trials)

    def test_affine_in_loss_row(self, rng):
        dist, table = random_instance(rng, n_h=2, n_z=4)
        alpha = 0.37
        scaled = LossTable(table.loss * np.array([[alpha], [1.0]]))
        s = draw_sample(dist, 30, seed=3)
        assert true_risks(scaled, dist)[0] == pytest.approx(alpha * true_risks(table, dist)[0],
                                                           abs=1e-15)
        assert empirical_risks(scaled, s)[0] == pytest.approx(alpha * empirical_risks(table, s)[0],
                                                             abs=1e-15)

    def test_vectorized_matches_mean_over_points(self, rng):
        # The mean over the m points of the multiset, each repeated as often
        # as it was drawn.
        dist, table = random_instance(rng)
        s = draw_sample(dist, 17, seed=8)
        points = np.repeat(np.arange(table.point_count), s.counts)
        vec = empirical_risks(table, s)
        for f in range(table.hypothesis_count):
            assert vec[f] == pytest.approx(table.loss[f, points].mean(), abs=1e-15)



class TestBlocks:
    def test_block_rows_are_samples_of_size_m(self):
        d = DataDistribution([0.2, 0.3, 0.5])
        s = draw_sample(d, 40, 3, 1, size=6)
        assert s.counts.shape == (6, 3) and s.m == 40 and s.point_count == 3
        assert [row.m for row in s.rows()] == [40] * 6
        assert np.array_equal(np.stack([row.counts for row in s.rows()]), s.counts)

    def test_rejects_rows_of_different_sizes(self):
        with pytest.raises(ValueError):
            Sample(np.array([[1, 2], [2, 2]]))
        with pytest.raises(ValueError):
            Sample(np.array([[1, 2], [4, -1]]))  # equal sizes, a negative count
        with pytest.raises(ValueError):
            Sample(np.zeros((2, 0), dtype=int))
        with pytest.raises(ValueError):
            draw_sample(DataDistribution([1.0]), 3, 0, size=0)

    def test_smaller_block_draws_a_prefix(self):
        d = DataDistribution([0.1, 0.2, 0.3, 0.4])
        big = draw_sample(d, 25, 7, 2, size=50)
        small = draw_sample(d, 25, 7, 2, size=17)
        assert np.array_equal(small.counts, big.counts[:17])

    def test_sample_blocks_do_not_depend_on_trial_count(self):
        d = DataDistribution([0.25, 0.25, 0.5])
        few = [(start, s.counts) for start, s in sample_blocks(d, 9, BLOCK + 5, 4)]
        many = np.concatenate([s.counts for _, s in sample_blocks(d, 9, 2 * BLOCK + 3, 4)])
        assert [start for start, _ in few] == [0, BLOCK]
        assert np.array_equal(np.concatenate([c for _, c in few]), many[:BLOCK + 5])

    def test_batched_risks_match_each_row(self, rng):
        dist, table = random_instance(rng, n_h=6, n_z=5, binary=False)
        s = draw_sample(dist, 33, 5, size=8)
        risks = empirical_risks(table, s)
        assert risks.shape == (8, 6)
        for row, r in zip(s.rows(), risks):
            assert np.array_equal(empirical_risks(table, row), r)
        g = rng.random((8, 5))
        assert np.array_equal(s.mean(g), [row.mean(v) for row, v in zip(s.rows(), g)])
