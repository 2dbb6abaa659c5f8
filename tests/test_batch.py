"""The block (batched) path: posterior rules, KL, Gibbs risks and bounds take a
leading sample axis, and coverage and sweep run their trials in blocks."""

import functools
import math
import warnings

import numpy as np
import pytest

from pacbayes import (FAMILIES, BoundParams, LossTable, ProbMeasure, Sample,
                      bound_sweep, coverage_experiment, draw_sample, evaluate_posterior_bound,
                      flatness_bound, gibbs_losses, gibbs_posterior, kl_divergence)
from pacbayes.cli import main
from pacbayes.core import BLOCK

from conftest import random_instance, random_measure

PARAMS = BoundParams(delta=0.05, C=1.3, c=0.8, h=0.6)


def one_row(s: Sample) -> Sample:
    return Sample(s.counts[None, :])


class TestOneRowBlockEqualsOneSample:
    @pytest.fixture
    def case(self, rng):
        dist, table = random_instance(rng, n_h=9, n_z=7, binary=False)
        prior = random_measure(rng, 9)
        s = draw_sample(dist, 40, 17)
        return dist, table, prior, s

    def test_gibbs_posterior(self, case):
        _, table, prior, s = case
        for beta in (0.3, 1.0, 10.0):
            single = gibbs_posterior(prior, table, s, beta).weights
            block = gibbs_posterior(prior, table, one_row(s), beta).weights
            assert block.shape == (1, 9)
            assert np.array_equal(block[0], single)

    def test_kl_and_empirical_gibbs_risk(self, case):
        _, table, prior, s = case
        q = gibbs_posterior(prior, table, s, 2.0)
        q_block = ProbMeasure(q.weights[None, :])
        assert kl_divergence(q_block, prior).shape == (1,)
        assert kl_divergence(q_block, prior)[0] == kl_divergence(q, prior)
        s1 = one_row(s)
        assert s1.mean(gibbs_losses(q_block, table, s1))[0] == s.mean(gibbs_losses(q, table, s))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family(self, case, family):
        _, table, prior, s = case
        q = gibbs_posterior(prior, table, s, 1.0)
        single = evaluate_posterior_bound(family, PARAMS, q, prior, table, s)
        block = evaluate_posterior_bound(family, PARAMS, ProbMeasure(q.weights[None, :]), prior,
                                         table, one_row(s))
        assert block.value.shape == (1,)
        assert block.value[0] == single.value
        assert block.components.keys() == single.components.keys()
        for name, value in single.components.items():
            assert block.components[name][0] == value

    def test_flatness_bound(self, case):
        _, table, prior, s = case
        q = gibbs_posterior(prior, table, s, 1.0)
        kl = kl_divergence(q, prior)
        params = BoundParams(delta=0.05, c=1.0, h=0.7)
        single = flatness_bound(q, table, s, kl, params)
        block = flatness_bound(ProbMeasure(q.weights[None, :]), table, one_row(s),
                               np.array([kl]), params)
        assert block.value[0] == single.value
        assert block.components["flatness"][0] == single.components["flatness"]


class TestBlockRowsAreIndependent:
    def test_each_row_equals_its_own_sample(self, rng):
        dist, table = random_instance(rng, n_h=6, n_z=5)
        prior = random_measure(rng, 6)
        s = draw_sample(dist, 25, 3, size=12)
        q = gibbs_posterior(prior, table, s, 1.5)
        for family in FAMILIES:
            block = evaluate_posterior_bound(family, PARAMS, q, prior, table, s).value
            for t, row in enumerate(map(Sample, s.counts)):
                q_t = gibbs_posterior(prior, table, row, 1.5)
                assert np.array_equal(q.weights[t], q_t.weights)
                assert block[t] == evaluate_posterior_bound(family, PARAMS, q_t, prior,
                                                            table, row).value


def recording(rule, seen):
    """rule, also appending each block's counts and posterior weights to seen."""
    def recorded(prior, table, s):
        q = rule(prior, table, s)
        seen.append((s.counts, np.broadcast_to(q.weights, s.counts.shape[:-1] + (q.size,))))
        return q
    return recorded


class TestSplitIntoBlocks:
    def test_first_trials_do_not_depend_on_trial_count(self, rng):
        dist, table = random_instance(rng, n_h=5, n_z=4)
        prior = ProbMeasure.uniform(5)
        rule = functools.partial(gibbs_posterior, beta=1.0)
        runs = {}
        for trials in (1000, 2000):
            seen = []
            coverage_experiment(table, dist, prior, recording(rule, seen), "flatness", PARAMS,
                                m=50, trials=trials, seed=4)
            runs[trials] = [np.concatenate(parts) for parts in zip(*seen)]
        assert runs[2000][0].shape == (2000, 4)
        for short, long in zip(runs[1000], runs[2000]):
            assert np.array_equal(short, long[:1000])
        assert BLOCK < 2000  # the longer run spans two blocks

    def test_coverage_and_sweep_reruns_are_identical(self, rng):
        dist, table = random_instance(rng, n_h=5, n_z=4)
        prior = ProbMeasure.uniform(5)
        rule = functools.partial(gibbs_posterior, beta=1.0)
        for family in FAMILIES:
            kw = dict(rule=rule, family=family, params=PARAMS, m=30, trials=BLOCK + 50, seed=6)
            assert coverage_experiment(table, dist, prior, **kw) == \
                coverage_experiment(table, dist, prior, **kw)
        kw = dict(rule=rule, params=BoundParams(delta=0.05, c=1.0, h=0.5), m_grid=(10, 100),
                  trials=BLOCK + 3, seed=2)
        assert bound_sweep(table, dist, prior, **kw) == bound_sweep(table, dist, prior, **kw)

    def test_cli_csv_reruns_are_identical(self, tmp_path):
        log = str(tmp_path / "runs.jsonl")
        inst = tmp_path / "inst.txt"
        assert main(["--log", log, "gen-instance", "--seed", "3", "--hypotheses", "6",
                     "--points", "4", "--out", str(inst)]) == 0
        commands = (
            ["coverage", "--family", "matched_catoni", "--instance", str(inst),
             "--trials", str(BLOCK + 10), "--m", "40", "--seed", "5"],
            ["sweep", "--instance", str(inst), "--m-grid", "10,1000", "--trials", "30",
             "--rule", "gibbs-posterior", "--seed", "5"],
        )
        for argv in commands:
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            assert main(["--log", log] + argv + ["--out", str(a)]) in (0, 1)
            assert main(["--log", log] + argv + ["--out", str(b)]) in (0, 1)
            assert a.read_bytes() == b.read_bytes()


class TestPosteriorOutsidePriorSupport:
    def test_infinite_bounds_never_violate(self):
        # The fixed posterior puts mass on a hypothesis the prior excludes: KL
        # is +inf, so every bound of every trial is the vacuous +inf.
        table = LossTable([[1, 0], [0, 1], [1, 1]])
        dist = ProbMeasure([0.4, 0.6])
        prior = ProbMeasure([0.5, 0.5, 0.0])
        q = ProbMeasure([0.2, 0.2, 0.6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in FAMILIES:
                rep = coverage_experiment(table, dist, prior, lambda p, t, s: q, family,
                                          PARAMS, m=20, trials=BLOCK + 7, seed=3)
                assert rep.violations == 0
                assert rep.mean_slack == math.inf
            res = bound_sweep(table, dist, prior, lambda p, t, s: q,
                              BoundParams(delta=0.05, c=1.0, h=0.5), m_grid=(10, 100),
                              trials=5, seed=1)
        for row in res.rows:
            assert row.kl_mean == row.catoni_mean == row.flatness_mean == math.inf

    def test_some_rows_outside_support(self):
        # Within one block, rows with finite and infinite KL coexist.
        table = LossTable([[1, 0], [0, 1], [1, 1]])
        prior = ProbMeasure([0.5, 0.5, 0.0])
        q = ProbMeasure([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        s = Sample(np.array([[3, 1], [2, 2]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in FAMILIES:
                rep = evaluate_posterior_bound(family, PARAMS, q, prior, table, s)
                assert math.isfinite(rep.value[0]) and rep.value[1] == math.inf
                assert rep.components["empirical"][0] > 0
