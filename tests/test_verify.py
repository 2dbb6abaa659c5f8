import functools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pacbayes import (BoundParams, DataDistribution, LossTable, ProbMeasure,
                      clopper_pearson_upper, coverage_experiment, empirical_risks,
                      evaluate_posterior_bound, gibbs_posterior, gibbs_risk,
                      minimize_bound, row_by_row, sample_blocks)

from conftest import random_instance


def prior_rule(prior, table, s):
    return prior


def binomial_cdf(k, n, p):
    # explicit pmf sum; deliberately avoids the beta-quantile route under test
    return sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j) for j in range(k + 1))


class TestClopperPearson:
    def test_zero_violations_closed_form(self):
        got = clopper_pearson_upper(0, 1000, 0.95)
        assert got == pytest.approx(1.0 - 0.05 ** (1.0 / 1000), abs=1e-12)

    def test_all_violations(self):
        assert clopper_pearson_upper(10, 10, 0.95) == 1.0

    def test_against_binomial_cdf_oracle(self):
        # The exact upper limit u solves P(X <= k; n, u) = 1 - confidence.
        for k, n in ((3, 1000), (1, 50), (7, 200)):
            got = clopper_pearson_upper(k, n, 0.95)
            oracle = brentq(lambda p: binomial_cdf(k, n, p) - 0.05, 1e-12, 1 - 1e-12,
                            xtol=1e-13)
            assert got == pytest.approx(oracle, abs=1e-9)

    def test_three_of_thousand_in_plausible_range(self):
        u = clopper_pearson_upper(3, 1000, 0.95)
        assert 0.003 < u < 0.01

    def test_monotone_in_violations(self):
        vals = [clopper_pearson_upper(k, 100, 0.95) for k in range(6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            clopper_pearson_upper(-1, 10, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson_upper(11, 10, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson_upper(0, 0, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson_upper(0, 10, 1.5)


class TestCoverage:
    def test_zero_loss_never_violates(self):
        table = LossTable([[0, 0], [0, 0]])
        dist = DataDistribution([0.5, 0.5])
        prior = ProbMeasure.uniform(2)
        rep = coverage_experiment(table, dist, prior, prior_rule, "mcallester",
                                  BoundParams(delta=0.05), m=20, trials=50, seed=1)
        assert rep.violations == 0
        assert rep.mean_slack > 0

    def test_determinism(self, rng):
        dist, table = random_instance(rng)
        prior = ProbMeasure.uniform(table.hypothesis_count)
        kw = dict(rule=functools.partial(gibbs_posterior, beta=1.0),
                  family="catoni", params=BoundParams(delta=0.05, catoni_C=1.0),
                  m=30, trials=64, seed=7)
        assert coverage_experiment(table, dist, prior, **kw) == \
            coverage_experiment(table, dist, prior, **kw)

    def test_violation_rate_consistent_with_counts(self, rng):
        dist, table = random_instance(rng)
        prior = ProbMeasure.uniform(table.hypothesis_count)
        rep = coverage_experiment(table, dist, prior, functools.partial(gibbs_posterior, beta=2.0),
                                  "mcallester", BoundParams(delta=0.05), m=10,
                                  trials=200, seed=11)
        assert rep.violation_rate == rep.violations / rep.trials
        assert rep.clopper_pearson_upper >= rep.violation_rate

    def test_bound_minimizer_rule_runs(self, rng):
        dist, table = random_instance(rng, n_h=3, n_z=3)
        prior = ProbMeasure.uniform(3)
        params = BoundParams(delta=0.05, catoni_C=1.5)
        rep = coverage_experiment(
            table, dist, prior,
            row_by_row(lambda p, tab, s: minimize_bound("catoni", params, p, tab, s,
                                                        (0.0, 1.0), 5)[0]),
            "catoni", params, m=25, trials=20, seed=5)
        assert rep.trials == 20

    def test_any_rule_matches_a_hand_written_loop(self, rng):
        # A rule outside the CLI's three: the point mass on the sample's
        # empirical risk minimizer.
        dist, table = random_instance(rng, n_h=6, n_z=4)
        prior = ProbMeasure.uniform(6)
        params = BoundParams(delta=0.5)

        def erm_rule(p, tab, s):
            best = int(np.argmin(empirical_risks(tab, s)))
            return ProbMeasure.point_mass(tab.hypothesis_count, best)

        m, trials, seed = 30, 300, 13
        rep = coverage_experiment(table, dist, prior, row_by_row(erm_rule), "catoni", params,
                                  m=m, trials=trials, seed=seed)
        violations, slacks = 0, []
        for _, block in sample_blocks(dist, m, trials, seed):
            for s in block.rows():
                q = erm_rule(prior, table, s)
                bound = evaluate_posterior_bound("catoni", params, q, prior, table, s).value
                true = gibbs_risk(q, table, dist)
                violations += int(true > bound)
                slacks.append(bound - true)
        assert violations > 0  # delta = 0.5 lets the count be exercised
        assert rep.violations == violations
        assert rep.mean_slack == math.fsum(slacks) / trials

    def test_trials_validation(self, rng):
        dist, table = random_instance(rng)
        with pytest.raises(ValueError):
            coverage_experiment(table, dist, ProbMeasure.uniform(table.hypothesis_count),
                                prior_rule, "kst", BoundParams(), 10, 0, 1)

