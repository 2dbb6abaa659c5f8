import dataclasses
import functools
import math

import numpy as np
import pytest

from pacbayes import (BoundParams, LossTable, ProbMeasure, bound_sweep, catoni_C_for_inflation,
                      crossover_threshold, evaluate_bound, flatness_bound, gibbs_losses,
                      gibbs_posterior, kl_divergence, sample_blocks)
from pacbayes import core

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
        res = bound_sweep(table, dist, prior, prior_rule,
                          BoundParams(delta=0.05, c=1.0, h=0.7), m_grid=(10, 50, 200),
                          trials=5, seed=1)
        assert [r.m for r in res.rows] == [10, 50, 200]
        for r in res.rows:
            assert r.catoni_mean > 0 and r.flatness_mean > 0
            assert r.T_m_mean >= 0 and r.kl_mean >= 0

    @pytest.mark.parametrize("rule", ["fixed-Q", "gibbs-posterior"])
    @pytest.mark.parametrize("binary", [True, False])
    def test_equals_a_loop_over_the_sample_blocks(self, rng, monkeypatch, rule, binary):
        # Blocks of 4 trials, so that 10 trials take three blocks, the last one short.
        monkeypatch.setattr(core, "BLOCK", 4)
        dist, table = random_instance(rng, n_h=6, n_z=5, binary=binary)
        prior = ProbMeasure(rng.dirichlet(np.ones(6)))
        q_fixed = ProbMeasure(rng.dirichlet(np.ones(6)))
        posterior = {"fixed-Q": lambda prior, table, s: q_fixed,
                     "gibbs-posterior": functools.partial(gibbs_posterior, beta=2.0)}[rule]
        params = BoundParams(delta=0.1, c=1.5, h=0.6)
        aligned = BoundParams(delta=0.1, C=catoni_C_for_inflation(1.5))
        grid, trials, seed = (7, 60, 3000), 10, 5
        res = bound_sweep(table, dist, prior, posterior, params, grid, trials, seed)
        columns = []
        for j, m in enumerate(grid):
            cat, flat, tm, kls = [], [], [], []
            for _, s in sample_blocks(dist, m, trials, seed, j):
                def per_trial(x):
                    return np.broadcast_to(x, (len(s.counts),))

                q = posterior(prior, table, s)
                kl = kl_divergence(q, prior)
                g = gibbs_losses(q, table, s)
                cat.extend(per_trial(evaluate_bound("catoni", s.mean(g), kl, m, aligned).value))
                flat.extend(per_trial(flatness_bound(q, table, s, kl, params, g).value))
                tm.extend(per_trial(params.c * (1.0 - params.h * params.h) * s.mean(g * g)))
                kls.extend(per_trial(kl))
            means = [float(np.mean(x)) for x in (cat, flat, tm, kls)]
            columns.append((m, *means, means[1] < means[0]))
        assert [dataclasses.astuple(row) for row in res.rows] == columns
        assert [r.m for r in res.rows if r.crossover_flag][:1] == (
            [res.crossover_m] if math.isfinite(res.crossover_m) else [])

    def test_gibbs_losses_once_per_block(self, rng, monkeypatch):
        import pacbayes.bounds
        import pacbayes.compare
        import pacbayes.measures
        import pacbayes.posterior_opt
        dist, table, prior = self._setup(rng)
        calls = []
        real = pacbayes.measures.gibbs_losses
        for module in (pacbayes.bounds, pacbayes.compare, pacbayes.measures,
                       pacbayes.posterior_opt):
            monkeypatch.setattr(module, "gibbs_losses",
                                lambda *args: calls.append(1) or real(*args))
        bound_sweep(table, dist, prior, prior_rule, BoundParams(delta=0.05, c=1.0, h=0.7),
                    m_grid=(10, 50, 200), trials=5, seed=1)
        assert len(calls) == 3

    def test_non_integral_m_rejected_and_integral_float_kept(self, rng):
        dist, table, prior = self._setup(rng)
        sweep = functools.partial(bound_sweep, table, dist, prior, prior_rule,
                                  BoundParams(delta=0.05, c=1.0, h=0.7), trials=4, seed=3)
        with pytest.raises(ValueError, match="m must be a whole number"):
            sweep(m_grid=[2.5])
        assert sweep(m_grid=[3.0]) == sweep(m_grid=[3])

    def test_fixed_q_kl_zero(self, rng):
        dist, table, prior = self._setup(rng)
        res = bound_sweep(table, dist, prior, prior_rule,
                          BoundParams(delta=0.05, c=1.0, h=0.5), m_grid=(20,), trials=4, seed=2)
        assert res.rows[0].kl_mean == 0.0

    def test_crossover_m_is_first_flagged(self, rng):
        dist, table, prior = self._setup(rng)
        res = bound_sweep(table, dist, prior, prior_rule,
                          BoundParams(delta=0.05, c=1.0, h=0.9),
                          m_grid=(5, 100, 5000, 100000), trials=3, seed=3)
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
        dist = ProbMeasure([0.3, 0.7])
        prior = ProbMeasure.uniform(5)
        q = ProbMeasure(np.eye(5)[0])
        res = bound_sweep(table, dist, prior, lambda prior, table, s: q,
                          BoundParams(delta=0.05, c=1.0, h=0.9), m_grid=(100, 100000),
                          trials=3, seed=4)
        assert not res.rows[0].crossover_flag
        assert res.rows[1].crossover_flag
        assert res.crossover_m == 100000.0

    def test_determinism(self, rng):
        dist, table, prior = self._setup(rng)
        kw = dict(rule=functools.partial(gibbs_posterior, beta=1.0),
                  params=BoundParams(delta=0.05, c=1.0, h=0.6), m_grid=(10, 40), trials=4, seed=9)
        assert bound_sweep(table, dist, prior, **kw) == bound_sweep(table, dist, prior, **kw)

    def test_validation(self, rng):
        dist, table, prior = self._setup(rng)
        with pytest.raises(ValueError):
            bound_sweep(table, dist, prior, prior_rule, BoundParams(h=0.5), (), 3, 1)
        for trials in (0, -2):  # -2 is reported before any array of that length is made
            with pytest.raises(ValueError, match="trials must be >= 1"):
                bound_sweep(table, dist, prior, prior_rule, BoundParams(h=0.5), (10,), trials, 1)
