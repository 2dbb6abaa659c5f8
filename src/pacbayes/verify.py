"""Empirical certification that each bound holds with frequency >= 1 - delta
over repeated training-set draws.

Each trial draws a fresh sample, forms the posterior by a data-dependent rule
(legitimate: every bound holds simultaneously for all Q), evaluates the bound,
and compares it against the exact true Gibbs risk. Violations are summarized
with an exact Clopper-Pearson upper confidence limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.stats import beta as beta_dist

from .bounds import BoundParams
from .core import DataDistribution, LossTable, draw_sample
from .measures import ProbMeasure, gibbs_risk
from .posterior_opt import evaluate_posterior_bound, gibbs_posterior, minimize_bound

POSTERIOR_RULES = ("fixed-Q", "gibbs-posterior", "bound-minimizer")


@dataclass(frozen=True)
class CoverageReport:
    family: str
    trials: int
    violations: int
    violation_rate: float
    clopper_pearson_upper: float
    mean_slack: float


def worker_count() -> int:
    """Always 1: coverage trials run in one plain loop, which measures faster
    than a thread pool (each trial is a few small NumPy calls that hold the
    interpreter lock). Kept because the benchmark harness in perfbench/ records it.
    """
    return 1


def clopper_pearson_upper(violations: int, trials: int, confidence: float) -> float:
    """Exact Beta-quantile upper confidence limit for a binomial proportion."""
    if trials < 1 or violations < 0 or violations > trials:
        raise ValueError("need 0 <= violations <= trials with trials >= 1")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    if violations == trials:
        return 1.0
    return float(beta_dist.ppf(confidence, violations + 1, trials - violations))


def make_posterior_rule(rule: str, rule_params: dict | None = None):
    """Resolve a rule id to a callable (prior, table, sample) -> ProbMeasure."""
    rule_params = rule_params or {}
    if rule == "fixed-Q":
        fixed = rule_params.get("q")

        def apply(prior, table, s):
            return fixed if fixed is not None else prior
    elif rule == "gibbs-posterior":
        beta = float(rule_params.get("beta", 1.0))

        def apply(prior, table, s):
            return gibbs_posterior(prior, table, s, beta)
    elif rule == "bound-minimizer":
        family = rule_params["family"]
        params = rule_params["params"]
        beta_grid = rule_params.get("beta_grid", (0.0, 0.1, 1.0, 10.0))
        refine = int(rule_params.get("refine_steps", 20))

        def apply(prior, table, s):
            q, _ = minimize_bound(family, params, prior, table, s, beta_grid, refine)
            return q
    else:
        raise ValueError(f"unknown posterior rule {rule!r}")
    return apply


def coverage_experiment(table: LossTable, dist: DataDistribution, prior: ProbMeasure,
                        rule: str, rule_params: dict | None, family: str,
                        params: BoundParams, m: int, trials: int, seed: int) -> CoverageReport:
    """Count how often the certificate fails against the exact true Gibbs risk."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    apply_rule = make_posterior_rule(rule, rule_params)

    def run_trial(t: int) -> tuple[bool, float]:
        s = draw_sample(dist, m, seed, t)
        q = apply_rule(prior, table, s)
        report = evaluate_posterior_bound(family, params, q, prior, table, s)
        true = gibbs_risk(q, table, dist)
        return true > report.value, report.value - true

    results = [run_trial(t) for t in range(trials)]
    violations = sum(1 for viol, _ in results if viol)
    slacks = [slack for _, slack in results]
    mean_slack = math.inf if any(math.isinf(x) for x in slacks) else sum(slacks) / trials
    return CoverageReport(
        family=family,
        trials=trials,
        violations=violations,
        violation_rate=violations / trials,
        clopper_pearson_upper=clopper_pearson_upper(violations, trials, 0.95),
        mean_slack=mean_slack,
    )
