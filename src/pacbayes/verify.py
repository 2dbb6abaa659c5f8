"""Empirical certification that each bound holds with frequency >= 1 - delta
over repeated training-set draws.

Each trial draws a fresh sample, forms the posterior by a data-dependent rule
(legitimate: every bound holds simultaneously for all Q), evaluates the bound,
and compares it against the exact true Gibbs risk. Violations are summarized
with an exact Clopper-Pearson upper confidence limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy.stats import beta as beta_dist

from .bounds import BoundParams
from .core import DataDistribution, LossTable, draw_sample
from .measures import ProbMeasure, gibbs_risk
from .posterior_opt import evaluate_posterior_bound


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


def coverage_experiment(table: LossTable, dist: DataDistribution, prior: ProbMeasure,
                        rule, family: str, params: BoundParams, m: int, trials: int,
                        seed: int) -> CoverageReport:
    """Count how often the certificate fails against the exact true Gibbs risk.
    rule maps (prior, table, sample) to the posterior of a trial."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    violations = 0
    slack_sum = 0.0
    for t in range(trials):
        s = draw_sample(dist, m, seed, t)
        q = rule(prior, table, s)
        bound = evaluate_posterior_bound(family, params, q, prior, table, s).value
        true = gibbs_risk(q, table, dist)
        if true > bound:
            violations += 1
        slack_sum += bound - true
    return CoverageReport(
        family=family,
        trials=trials,
        violations=violations,
        violation_rate=violations / trials,
        clopper_pearson_upper=clopper_pearson_upper(violations, trials, 0.95),
        mean_slack=slack_sum / trials,
    )
