"""Empirical certification that each bound holds with frequency >= 1 - delta
over repeated training-set draws.

Each trial draws a fresh sample, forms the posterior by a data-dependent rule
(legitimate: every bound holds simultaneously for all Q), evaluates the bound,
and compares it against the exact true Gibbs risk. Trials run in blocks (see
core.sample_blocks): one multinomial draw gives the samples of a block, and
the rule, the bound and the true risk each take the whole block in one call.
Violations are summarized with an exact Clopper-Pearson upper confidence
limit, which clopper_pearson_upper computes with NumPy and math alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundParams
from .core import LossTable, ProbMeasure, sample_blocks
from .measures import gibbs_risk
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


# stirlerr(x) = log(x!) - log(sqrt(2 pi x) (x/e)^x) for x = 1..15, from 50-digit
# mpmath (index 0 is unused).
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
# 1/(2j + 1) for j = 16..1: _bd0's series in v^2, for Horner's rule.
_BD0_SERIES = tuple(1.0 / (2 * j + 1) for j in range(16, 0, -1))


def _stirlerr(x: int) -> float:
    """The error of Stirling's formula for log(x!), x >= 1: the table up to 15, else
    its series, whose first omitted term is below 1.1e-16 at x = 16."""
    if x <= 15:
        return _STIRLERR[x]
    xx = float(x) * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / xx) / xx) / xx) / xx) / x


def _bd0(x: float, mu: float, d: float) -> float:
    """x log(x/mu) + mu - x, given d = x - mu (Loader's deviance term).

    Where |v| < 1/3, v = d/(x + mu), it is d v + 2 x sum_j v^(2j+1)/(2j+1), whose
    terms past j = 16 sum to below half an ulp; the direct form cancels there.
    """
    s = x + mu
    if abs(d) >= s / 3:
        return x * math.log(x / mu) - d
    v = d / s
    v2 = v * v
    series = 0.0
    for coef in _BD0_SERIES:
        series = series * v2 + coef
    return d * v + 2.0 * x * v * v2 * series


def _log_binomial_pmf(x: int, n: int, u: float) -> float:
    """log P(Bin(n, u) = x) for 0 < x < n, in Loader's (2000) saddle-point form.

    Both deviance terms see the one mean mu = n u, the second as n - mu with
    difference -(x - mu), so rounding mu moves the result as a shift of u by
    half an ulp would.
    """
    mu = n * u
    d = x - mu
    return (_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
            - 0.5 * math.log(2.0 * math.pi * x * ((n - x) / n))
            - _bd0(x, mu, d) - _bd0(n - x, n - mu, -d))


def _paulson_start(k: int, n: int, confidence: float) -> float:
    """A start for the Newton loop: Paulson's cube-root normal approximation to
    the confidence-quantile F of F(2(k + 1), 2(n - k)), as u = (k+1) F/((k+1) F + n - k),
    with the normal quantile of Abramowitz & Stegun 26.2.23 (error below 4.5e-4).
    nan where the approximation has no root."""
    t = math.sqrt(-2.0 * math.log(min(confidence, 1.0 - confidence)))
    z = t - ((2.515517 + t * (0.802853 + t * 0.010328))
             / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))))
    z = z if confidence > 0.5 else -z
    a1, a2 = 1.0 / (9 * (k + 1)), 1.0 / (9 * (n - k))
    b1, b2 = 1.0 - a1, 1.0 - a2
    den = b2 * b2 - z * z * a2
    disc = b1 * b1 * a2 + b2 * b2 * a1 - z * z * a1 * a2
    if den <= 0 or disc < 0:
        return math.nan
    y = (b1 * b2 + z * math.sqrt(disc)) / den  # F^(1/3)
    if y <= 0:
        return math.nan
    f = (k + 1) * y * y * y
    return f / (f + (n - k))


def _tail_ratios(a: int, n: int, z: float):
    """(r, rest): r = j / (n - j + 1), j = a, a - 1, ..., as far as a tail of pmf
    ratios r z', 0 < z' <= z, needs, in chunks that double from 64. The ratios
    fall, so once the last, f, is below 1 the products left out sum to at most
    the last product times f/(1 - f): rest, below 2^-60 (0 if all are kept)."""
    prod, done, size, rest = 1.0, 0, 64, 0.0
    while done < a:
        j = np.arange(a - done, max(a - done - size, 0), -1.0)
        f = j / (n - j + 1) * z
        prod, done, size = prod * float(np.prod(f)), done + j.size, 2 * size
        if done < a and f[-1] < 1.0 and prod * f[-1] <= 2.0 ** -60 * (1.0 - f[-1]):
            rest = prod * f[-1] / (1.0 - f[-1])
            break
    j = np.arange(a, a - done, -1.0)
    return j / (n - j + 1), float(rest)


def clopper_pearson_upper(violations: int, trials: int, confidence: float) -> float:
    """Exact upper confidence limit for a binomial proportion (Clopper & Pearson,
    1934): the u with P(Bin(trials, u) <= violations) = 1 - confidence, i.e. the
    confidence-quantile of Beta(violations + 1, trials - violations).

    NumPy and math only. With k = violations and n = trials: 1 at k = n, closed
    forms at k = 0 and k = n - 1, else Newton's method on the log of whichever tail
    is the smaller at the root, so that no sum cancels: the lower tail P(X <= k)
    against 1 - confidence when confidence >= 1/2, else P(X > k) against
    confidence. A tail is its largest term P(X = x), x = k or k + 1 (Loader's
    saddle-point pmf), times 1 + the cumulative products of the pmf ratios away
    from it; u stays in a bracket, [k/n, 1] or [0, (k+1)/n], where that term is
    the tail's largest. Newton runs in log(1 - u) for the lower tail and in
    log u for the upper one, where a tail far below its target is nearly
    linear, and takes the bracket's midpoint when a step leaves it. It stops
    once |log(tail/target)| <= 8 2^-52 max(1, |log target|), that rounding's
    noise, once a step is below half an ulp, or once no float lies inside the
    bracket.
    """
    if trials < 1 or violations < 0 or violations > trials:
        raise ValueError("need 0 <= violations <= trials with trials >= 1")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    k, n = violations, trials
    if k == n:
        return 1.0
    if k == 0:
        return -math.expm1(math.log1p(-confidence) / n)
    if k == n - 1:
        return math.exp(math.log(confidence) / n)
    lower = confidence >= 0.5
    # P(X = j - 1) / P(X = j) = r (1 - u)/u (lower tail, largest at u = lo) and
    # P(X = n - j + 1) / P(X = n - j) = r u/(1 - u) (upper, largest at u = hi). A
    # tail cut short is too low: the lower one adds the bound, so u is not too low.
    if lower:  # 1 - confidence is exact here
        x, target, lo, hi = k, 1.0 - confidence, k / n, 1.0
        ratio, rest = _tail_ratios(k, n, (1.0 - lo) / lo)
    else:
        x, target, lo, hi = k + 1, confidence, 0.0, (k + 1) / n
        ratio, rest = _tail_ratios(n - k - 1, n, hi / (1.0 - hi))[0], 0.0
    log_target = math.log(target)
    ftol = 8 * 2.0 ** -52 * max(1.0, -log_target)
    u = _paulson_start(k, n, confidence)
    if not lo < u < hi:
        u = lo if lower else hi
    for _ in range(100):
        q = 1.0 - u
        log_p = _log_binomial_pmf(x, n, u)
        s = 1.0 + float(np.cumprod(ratio * (q / u if lower else u / q)).sum()) + rest
        p = math.exp(log_p)
        # f = log(tail/target); d f/d log(1 - u) = (n - k)/s, d f/d log u = (k + 1)/s.
        f = math.log(p * s / target) if p > 0 else log_p + math.log(s) - log_target
        if lower:
            new = u - q * math.expm1(min(-f * s / (n - k), 700.0))
        else:
            new = u * math.exp(min(-f * s / (k + 1), 700.0))
        if abs(f) <= ftol or new == u:
            return new
        if (f > 0) == lower:
            lo = u
        else:
            hi = u
        if math.nextafter(lo, 1.0) >= hi:
            return u
        u = new if lo < new < hi else 0.5 * (lo + hi)
    raise RuntimeError(f"clopper_pearson_upper({k}, {n}, {confidence!r}) did not converge "
                       "in 100 Newton steps")


def coverage_experiment(table: LossTable, dist: ProbMeasure, prior: ProbMeasure,
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
