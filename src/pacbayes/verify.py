"""Empirical certification that each bound holds with frequency >= 1 - delta
over repeated training-set draws.

Each trial draws a fresh sample, forms the posterior by a data-dependent rule
(legitimate: every bound holds simultaneously for all Q), evaluates the bound,
and compares it against the exact true Gibbs risk. Trials run in blocks (see
core.sample_blocks): one multinomial draw gives the samples of a block, and
the rule, the bound and the true risk each take the whole block in one call.
Violations are summarized with an exact Clopper-Pearson upper confidence
limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import beta as beta_dist

from .bounds import BoundParams
from .core import DataDistribution, LossTable, sample_blocks
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
    """Always 1: coverage runs its blocks of trials one after another, each
    as a few vectorised NumPy calls. Kept because the benchmark harness in
    perfbench/ records it.
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

    rule maps (prior, table, sample) to the posteriors: it receives a block of
    up to core.BLOCK samples (counts [T, n_z]) and returns weights [T, n_h],
    or one posterior for every trial (a fixed Q). The samples come from
    sample_blocks(dist, m, trials, seed), so a trial's sample does not depend
    on the number of trials. mean_slack sums the slacks with math.fsum, which
    rounds once, so it does not depend on how the trials fall into blocks
    either. An infinite bound is never violated and makes mean_slack +inf.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    violations = 0
    slacks = []
    for _, s in sample_blocks(dist, m, trials, seed):
        q = rule(prior, table, s)
        # One bound per sample; true is one value for a fixed Q.
        bound = evaluate_posterior_bound(family, params, q, prior, table, s).value
        true = gibbs_risk(q, table, dist)
        violations += int(np.count_nonzero(true > bound))
        slacks += (bound - true).tolist()
    return CoverageReport(
        family=family,
        trials=trials,
        violations=violations,
        violation_rate=violations / trials,
        clopper_pearson_upper=clopper_pearson_upper(violations, trials, 0.95),
        mean_slack=math.fsum(slacks) / trials,
    )
