import functools
import math
import os
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

import pacbayes
from pacbayes import (BoundParams, LossTable, ProbMeasure, Sample,
                      clopper_pearson_upper, coverage_experiment, empirical_risks,
                      evaluate_posterior_bound, gibbs_posterior, gibbs_risk,
                      minimize_bound, sample_blocks)

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

    def test_within_two_ulp_of_an_mpmath_beta_quantile(self):
        # The limit is the confidence-quantile of Beta(k + 1, n - k). The reference
        # bisects mpmath's regularized incomplete beta at 30 digits inside a 1e-12
        # relative bracket around the value under test; 24 halvings leave it 1e-3 ulp
        # wide (at 1 - 1e-12 as well: 60 digits give the same worst case). SciPy's
        # betaincinv misses this by up to 11 ulp on the same grid.
        with mpmath.workdps(30):
            for n in (1, 2, 5, 10, 50, 100, 1000):
                for k in sorted({0, 1, n // 3, n // 2, n - 1} - {n}):
                    for conf in (0.5, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6, 1 - 1e-12):
                        got = clopper_pearson_upper(k, n, conf)

                        def excess(u):
                            return mpmath.betainc(k + 1, n - k, 0, u, regularized=True) - conf

                        lo = mpmath.mpf(got) * (1 - mpmath.mpf("1e-12"))
                        hi = min(mpmath.mpf(got) * (1 + mpmath.mpf("1e-12")), 1)
                        assert excess(lo) < 0 < excess(hi), (k, n, conf)
                        for _ in range(24):
                            mid = (lo + hi) / 2
                            lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
                        want = (lo + hi) / 2
                        assert abs(got - want) <= 2 * math.ulp(float(want)), (k, n, conf)

    def test_matches_the_scipy_stats_beta_quantile(self):
        # At n = 1e5 mpmath's betainc does not converge, so SciPy is the reference.
        from scipy.stats import beta
        n = 10 ** 5
        for k in (0, 1, n // 3, n // 2, n - 1):
            for conf in (0.5, 0.9, 0.95, 0.99, 0.999):
                want = float(beta.ppf(conf, k + 1, n - k))
                got = clopper_pearson_upper(k, n, conf)
                assert abs(got - want) <= 4 * np.spacing(want), (k, n, conf)

    def test_a_long_tail_stops_where_its_rest_is_negligible(self):
        # Up to k = 10^6 - 2 tail terms, nearly all far below 2^-60 of the sum:
        # no array of length n (8 MB of floats) is allocated.
        n = 10 ** 6
        cases = ((1, 0.95), (1, 1 - 1e-6), (n // 2, 0.5), (n // 2, 0.95), (n - 2, 0.5),
                 (n - 2, 0.95))
        tracemalloc.start()
        try:
            got = [clopper_pearson_upper(k, n, conf) for k, conf in cases]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6
        # At k = 1, P(X <= 1) = (1 - u)^n + n u (1 - u)^(n - 1) = 1 - confidence.
        # SciPy's beta.ppf is thousands of ulp off here.
        with mpmath.workdps(50):
            for (k, conf), u in zip(cases[:2], got[:2]):
                target = 1 - mpmath.mpf(conf)
                want = float(mpmath.findroot(
                    lambda x: (1 - x) ** n + n * x * (1 - x) ** (n - 1) - target, u))
                assert abs(u - want) <= 2 * math.ulp(want), conf
        from scipy.stats import beta
        for (k, conf), u in zip(cases[2:], got[2:]):
            want = float(beta.ppf(conf, k + 1, n - k))
            assert abs(u - want) <= 4 * np.spacing(want), (k, conf)

    def test_one_short_of_all_matches_its_closed_form(self):
        # At k = n - 1, P(X <= k) = 1 - u^n, so u = confidence^(1/n).
        for n in (2, 3, 10, 10 ** 3, 10 ** 6):
            for conf in (0.5, 0.95, 1 - 1e-6):
                want = math.exp(math.log(conf) / n)
                assert abs(clopper_pearson_upper(n - 1, n, conf) - want) <= math.ulp(want)

    def test_a_limit_within_an_ulp_of_one_takes_few_steps(self, monkeypatch):
        # A full Newton step from k/n rounds to u = 1 here; a halved one does not,
        # where the bracket's midpoint would take about 50 bisections.
        from pacbayes import verify
        calls = []
        pmf = verify._log_binomial_pmf
        monkeypatch.setattr(verify, "_log_binomial_pmf", lambda *a: calls.append(a) or pmf(*a))
        for k, n, conf in ((6, 7, 1 - 2.0 ** -52), (7, 8, 1 - 2.0 ** -51), (1, 2, 1 - 2.0 ** -53)):
            calls.clear()
            assert clopper_pearson_upper(k, n, conf) == math.nextafter(1.0, 0.0)
            assert len(calls) <= 12, (k, n, conf, len(calls))

    def test_exact_coverage_up_to_thirty_trials(self):
        # Just above U(k, n), the limits that cover p are those of more than k
        # violations, so P(U(X, n) >= p) is 1 - P(X <= k), at least confidence
        # whenever U(k, n) is not below the true quantile by more than about an ulp.
        for n in range(1, 31):
            limits = {conf: [clopper_pearson_upper(k, n, conf) for k in range(n + 1)]
                      for conf in (0.9, 0.95, 0.99)}
            for conf, u in limits.items():
                assert all(a <= b for a, b in zip(u, u[1:])), (n, conf)
                for k in range(n):
                    p = Fraction(math.nextafter(u[k], 1.0))
                    covered = sum(math.comb(n, x) * p ** x * (1 - p) ** (n - x)
                                  for x in range(n + 1) if u[x] >= p)
                    assert covered >= Fraction(conf) - Fraction(1, 10 ** 15), (k, n, conf)
            for k in range(n):
                assert limits[0.9][k] < limits[0.95][k] < limits[0.99][k], (k, n)

    def test_cli_import_loads_no_scipy(self):
        src = str(Path(pacbayes.__file__).resolve().parents[1])
        code = ("import sys, pacbayes.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.strip() == "[]"

    def test_coverage_run_loads_no_scipy(self, tmp_path):
        # gen-instance, then a coverage run with 11 violations of 200, so that
        # Clopper-Pearson takes its Newton path, all in one fresh interpreter.
        src = str(Path(pacbayes.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from pacbayes.cli import main\n"
            "assert main(['gen-instance', '--seed', '1', '--hypotheses', '8', '--points', '5',"
            " '--out', 'inst.txt']) == 0\n"
            "assert main(['coverage', '--family', 'catoni', '--instance', 'inst.txt',"
            " '--trials', '200', '--m', '20', '--seed', '3', '--delta', '0.5',"
            " '--out', 'cov.csv']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                             check=True).stdout
        assert out.splitlines()[-1] == "[]"
        header, row = (tmp_path / "cov.csv").read_text().splitlines()[:2]
        assert int(dict(zip(header.split(","), row.split(",")))["violations"]) >= 1

    def test_bad_args(self):
        with pytest.raises(ValueError):
            clopper_pearson_upper(-1, 10, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson_upper(11, 10, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson_upper(0, 0, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson_upper(0, 10, 1.5)
        with pytest.raises(ValueError):  # only a confidence of at least 1/2
            clopper_pearson_upper(3, 10, 0.3)


class TestCoverage:
    def test_zero_loss_never_violates(self):
        table = LossTable([[0, 0], [0, 0]])
        dist = ProbMeasure([0.5, 0.5])
        prior = ProbMeasure.uniform(2)
        rep = coverage_experiment(table, dist, prior, prior_rule, "mcallester",
                                  BoundParams(delta=0.05), m=20, trials=50, seed=1)
        assert rep.violations == 0
        assert rep.mean_slack > 0

    def test_determinism(self, rng):
        dist, table = random_instance(rng)
        prior = ProbMeasure.uniform(table.hypothesis_count)
        kw = dict(rule=functools.partial(gibbs_posterior, beta=1.0),
                  family="catoni", params=BoundParams(delta=0.05, C=1.0),
                  m=30, trials=64, seed=7)
        assert coverage_experiment(table, dist, prior, **kw) == \
            coverage_experiment(table, dist, prior, **kw)

    def test_non_integral_m_rejected_and_integral_float_kept(self, rng):
        dist, table = random_instance(rng)
        prior = ProbMeasure.uniform(table.hypothesis_count)
        run = functools.partial(coverage_experiment, table, dist, prior,
                                functools.partial(gibbs_posterior, beta=1.0), "catoni",
                                BoundParams(), trials=20, seed=4)
        with pytest.raises(ValueError, match="m must be a whole number"):
            run(m=2.7)
        assert run(m=3.0) == run(m=3)

    def test_cp_upper_is_at_least_the_violation_rate(self, rng):
        dist, table = random_instance(rng)
        prior = ProbMeasure.uniform(table.hypothesis_count)
        rep = coverage_experiment(table, dist, prior, functools.partial(gibbs_posterior, beta=2.0),
                                  "mcallester", BoundParams(delta=0.05), m=10,
                                  trials=200, seed=11)
        assert rep.clopper_pearson_upper >= rep.violations / rep.trials

    def test_bound_minimizer_rule_runs(self, rng):
        dist, table = random_instance(rng, n_h=3, n_z=3)
        prior = ProbMeasure.uniform(3)
        params = BoundParams(delta=0.05, C=1.5)
        rep = coverage_experiment(
            table, dist, prior,
            functools.partial(minimize_bound, "catoni", params),
            "catoni", params, m=25, trials=20, seed=5)
        assert rep.trials == 20

    def test_any_rule_matches_a_hand_written_loop(self, rng):
        # A rule outside the CLI's three: the point mass on the sample's
        # empirical risk minimizer.
        dist, table = random_instance(rng, n_h=6, n_z=4)
        prior = ProbMeasure.uniform(6)
        params = BoundParams(delta=0.5)

        def erm_rule(p, tab, s):
            # One point mass per sample of the block, on its first minimizer.
            best = np.argmin(empirical_risks(tab, s), axis=-1)
            return ProbMeasure(np.eye(tab.hypothesis_count)[best])

        m, trials, seed = 30, 300, 13
        rep = coverage_experiment(table, dist, prior, erm_rule, "catoni", params,
                                  m=m, trials=trials, seed=seed)
        violations, slacks = 0, []
        for _, block in sample_blocks(dist, m, trials, seed):
            for s in map(Sample, block.counts):
                q = erm_rule(prior, table, s)
                bound = evaluate_posterior_bound("catoni", params, q, prior, table, s).value
                true = gibbs_risk(q, table, dist)
                violations += int(true > bound)
                slacks.append(bound - true)
        assert violations > 0  # delta = 0.5 lets the count be exercised
        assert rep.violations == violations
        assert rep.mean_slack == math.fsum(slacks) / trials

    def test_a_violation_by_less_than_a_thousandth_counts(self):
        # At C = 1e-6 and delta = 1 - 1e-12 Catoni's bound at the prior is its
        # empirical risk times 1 + 5e-7, plus 1e-8: a sample of risk 0.30
        # misses the true risk 0.3005 by 5.0e-4, and 16 of the 200 samples do.
        table, prior = LossTable([[1, 0, 0]]), ProbMeasure([1.0])
        dist = ProbMeasure([0.3005, 0.4, 0.2995])
        params = BoundParams(delta=1 - 1e-12, C=1e-6)
        m, trials, seed = 100, 200, 3
        rep = coverage_experiment(table, dist, prior, prior_rule, "catoni", params,
                                  m=m, trials=trials, seed=seed)
        true = float(gibbs_risk(prior, table, dist))
        excess = [true - float(evaluate_posterior_bound("catoni", params, prior, prior,
                                                        table, s).value)
                  for _, block in sample_blocks(dist, m, trials, seed)
                  for s in map(Sample, block.counts)]
        assert sum(0 < e < 1e-3 for e in excess) == 16
        assert rep.violations == sum(e > 0 for e in excess)

    def test_trials_validation(self, rng):
        dist, table = random_instance(rng)
        for trials in (0, -2):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                coverage_experiment(table, dist, ProbMeasure.uniform(table.hypothesis_count),
                                    prior_rule, "kst", BoundParams(), 10, trials, 1)

    def test_a_violation_is_a_true_risk_above_its_bound(self, monkeypatch):
        # A true risk equal to its bound is no violation; one an ulp above it is.
        bound = np.linspace(0.2, 0.8, 20)
        true = bound - 0.1
        true[:5] = bound[:5]
        true[5:8] = np.nextafter(bound[5:8], 1.0)
        monkeypatch.setattr(pacbayes.verify, "evaluate_posterior_bound",
                            lambda *a: types.SimpleNamespace(value=bound))
        monkeypatch.setattr(pacbayes.verify, "gibbs_risk", lambda *a: true)
        table = LossTable([[0, 1], [1, 0]])
        prior = ProbMeasure.uniform(2)
        rep = coverage_experiment(table, ProbMeasure([0.5, 0.5]), prior, prior_rule, "mcallester",
                                  BoundParams(delta=0.05), m=10, trials=20, seed=1)
        assert rep.violations == 3
