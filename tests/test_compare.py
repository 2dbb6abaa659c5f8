import functools
import math

import pytest

from pacbayes import (DataDistribution, LossTable, ProbMeasure, bound_sweep,
                      crossover_threshold, gibbs_posterior)

from conftest import random_instance


def prior_rule(prior, table, s):
    return prior


class TestCrossoverThreshold:
    def test_hand_arithmetic(self):
        # (1/0.05) * ((12 - 2)(ln 20 + ln 20) + 12) with kl = log(1/delta) = ln 20
        kl = math.log(20.0)
        expected = ((12.0 - 2.0) * (kl + kl) + 12.0) / 0.05
        assert crossover_threshold(0.05, 12.0, 2.0, kl, 0.05) == pytest.approx(expected, rel=1e-15)

    def test_equal_constants(self):
        assert crossover_threshold(0.1, 7.0, 7.0, 3.0, 0.5) == pytest.approx(70.0, rel=1e-15)

    def test_decreasing_in_Tm(self):
        vals = [crossover_threshold(t, 10.0, 2.0, 1.0, 0.05) for t in (0.01, 0.05, 0.2, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_kl(self):
        vals = [crossover_threshold(0.1, 10.0, 2.0, kl, 0.05) for kl in (0.0, 1.0, 5.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_nonpositive_Tm_rejected(self):
        with pytest.raises(ValueError):
            crossover_threshold(0.0, 10.0, 2.0, 1.0, 0.05)
        with pytest.raises(ValueError):
            crossover_threshold(-1.0, 10.0, 2.0, 1.0, 0.05)


class TestBoundSweep:
    def _setup(self, rng):
        dist, table = random_instance(rng, n_h=4, n_z=5)
        prior = ProbMeasure.uniform(4)
        return dist, table, prior

    def test_row_shape_and_grid(self, rng):
        dist, table, prior = self._setup(rng)
        res = bound_sweep(table, dist, prior, prior_rule, c=1.0, h=0.7,
                          delta=0.05, m_grid=(10, 50, 200), trials=5, seed=1)
        assert [r.m for r in res.rows] == [10, 50, 200]
        for r in res.rows:
            assert r.catoni_mean > 0 and r.flatness_mean > 0
            assert r.T_m_mean >= 0 and r.kl_mean >= 0

    def test_fixed_q_kl_zero(self, rng):
        dist, table, prior = self._setup(rng)
        res = bound_sweep(table, dist, prior, prior_rule, c=1.0, h=0.5,
                          delta=0.05, m_grid=(20,), trials=4, seed=2)
        assert res.rows[0].kl_mean == 0.0

    def test_crossover_m_is_first_flagged(self, rng):
        dist, table, prior = self._setup(rng)
        res = bound_sweep(table, dist, prior, prior_rule, c=1.0, h=0.9,
                          delta=0.05, m_grid=(5, 100, 5000, 100000), trials=3, seed=3)
        flagged = [r.m for r in res.rows if r.crossover_flag]
        if flagged:
            assert res.crossover_m == float(flagged[0])
        else:
            assert math.isinf(res.crossover_m)

    def test_large_m_flatness_wins_on_flat_posterior(self):
        # Point-mass posterior is completely flat: its flatness term is
        # h^2 * empirical, so for large m and h near 1 the quadratic advantage
        # shows up and the flatness bound undercuts the aligned Catoni bound.
        table = LossTable([[1, 0]] * 5)
        dist = DataDistribution([0.3, 0.7])
        prior = ProbMeasure.uniform(5)
        q = ProbMeasure.point_mass(5, 0)
        res = bound_sweep(table, dist, prior, lambda prior, table, s: q, c=1.0, h=0.9,
                          delta=0.05, m_grid=(100, 100000), trials=3, seed=4)
        assert not res.rows[0].crossover_flag
        assert res.rows[1].crossover_flag
        assert res.crossover_m == 100000.0

    def test_determinism(self, rng):
        dist, table, prior = self._setup(rng)
        kw = dict(rule=functools.partial(gibbs_posterior, beta=1.0), c=1.0, h=0.6,
                  delta=0.05, m_grid=(10, 40), trials=4, seed=9)
        assert bound_sweep(table, dist, prior, **kw) == bound_sweep(table, dist, prior, **kw)

    def test_validation(self, rng):
        dist, table, prior = self._setup(rng)
        with pytest.raises(ValueError):
            bound_sweep(table, dist, prior, prior_rule, 1.0, 0.5, 0.05, (), 3, 1)
        with pytest.raises(ValueError):
            bound_sweep(table, dist, prior, prior_rule, 1.0, 0.5, 0.05, (10,), 0, 1)
