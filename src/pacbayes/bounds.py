"""PAC-Bayes certificates for Gibbs classifiers.

Five families: the classical square-root bound, Catoni's fast-rate bound,
the Kakade-Sridharan-Tewari bound, a shifted-Rademacher bound matching
Catoni's rate (with the non-explicit constants derived here by bisection),
and the fast-rate flatness bound. Every one is linear in the empirical Gibbs
risk, B = dB/demp emp + c flat + complexity(kl, m), where the flatness term
c flat belongs to the flatness bound alone. Each is one FAMILIES entry, at
the end, which holds dB/demp, its complexity term, dB/dkl, the parameters it
reads and its least m; evaluate_bound evaluates every family and builds every
BoundReport as the sum of the three parts.

All families treat kl = +inf as a valid input and return a vacuous +inf
certificate rather than raising. emp and kl may be arrays with one entry per
sample of a block; the values then follow their shape, and every check applies
to each entry.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import _SUM_TOL, LossTable, ProbMeasure, Sample
from .measures import flatness, gibbs_losses


@dataclass(frozen=True)
class BoundParams:
    """Bound-family parameters, each named as its CLI flag; a family reads the
    fields in its Family.reads."""

    delta: float = 0.05
    C: float = 1.0
    c: float = 1.0
    c2: float | None = None    # matched_catoni only; None means c / 2, filled in when built
    h: float = 0.5

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.C < math.inf:
            raise ValueError("C must be positive and finite")
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.c2 is None:
            object.__setattr__(self, "c2", self.c / 2.0)


@dataclass(frozen=True)
class DerivedConstants:
    """Explicit constants for the matched-Catoni bound.

    lambda_over_m solves log cosh(x)/x = c'/(c'+2) to a few ulp at every c',
    capped by the delta-dependent constraint; C_big = 2(1+c2)(2+c')/lambda_over_m,
    and the final constants are (C1, C2, C3) = (3 C_big, C_big, C_big (3 + log 8)).
    provenance records the constraint at the chosen point in the odds form
    solved, L/(1 - L) <= c'/2 for L = log cosh(x)/x, whose target is exact.
    """

    lambda_over_m: float
    c_prime: float
    C_big: float
    C1: float
    C2: float
    C3: float
    provenance: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated certificate, the sum of its components `empirical`, `flatness`
    and `complexity`; value and components hold one entry per sample when the
    bound was evaluated on a block. evaluate_bound builds every report."""

    family: str
    value: float | np.ndarray
    components: dict


def log_over(x: float, delta: float) -> float:
    """log(x / delta), x > 0: math.log(x / delta) wherever the ratio is finite,
    and log x - log delta only where it overflows (delta below about
    x / 1.8e308), so that a tiny delta gives a finite certificate and every
    other delta the same bits as the one-log form."""
    ratio = x / delta
    return math.log(ratio) if ratio < math.inf else math.log(x) - math.log(delta)


def catoni_prefactor(C: float) -> float:
    """C / (1 - e^{-C}); > 1 for all C > 0 and -> 1 as C -> 0+."""
    if not C > 0:
        raise ValueError("C must be positive")
    return C / -math.expm1(-C)


def log_cosh_over_x(x: float) -> float:
    """log(cosh(x))/x to a few ulp, series-stabilized near zero; increasing on (0, inf)."""
    if x < 1e-4:
        return x / 2.0 - x ** 3 / 12.0
    if x < 1.0:  # cosh(x) = 1 + 2 sinh^2(x/2): no cancellation in the log
        return math.log1p(2.0 * math.sinh(0.5 * x) ** 2) / x
    # log cosh(x) = x + log((1+e^{-2x})/2) avoids overflow for large x.
    return (x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)) / x


def _log_cosh_odds(x: float) -> float:
    """L/(1 - L) for L = log_cosh_over_x(x), increasing from 0 to inf. Where
    L > 1/2, 1 - L is taken as (log 2 - log1p(e^{-2x}))/x, so the odds keep full
    precision as L rounds towards 1."""
    L = log_cosh_over_x(x)
    if L <= 0.5:
        return L / (1.0 - L)
    return L * x / (math.log(2.0) - math.log1p(math.exp(-2.0 * x)))


def _bisect_increasing(fn, target: float) -> float:
    """The root of fn(x) = target for fn increasing on (0, inf), from the end
    where fn <= target. The bracket starts at [1/2, 1] and doubles, up to the
    largest float, or halves until fn(lo) <= target <= fn(hi); bisection then
    runs until no float lies between its ends, and returns lo. ValueError if fn
    is below target at the largest float."""
    lo, hi = 0.5, 1.0
    while fn(hi) < target:
        if hi == sys.float_info.max:
            raise ValueError(f"no root: fn stays below {target!r} up to {hi!r}")
        lo, hi = hi, min(2.0 * hi, sys.float_info.max)
    while fn(lo) > target:
        lo, hi = 0.5 * lo, lo
    while (mid := lo + 0.5 * (hi - lo)) not in (lo, hi):
        lo, hi = (mid, hi) if fn(mid) <= target else (lo, mid)
    return lo


@lru_cache(maxsize=None)
def derive_matched_catoni_constants(c: float, c2: float, delta: float) -> DerivedConstants:
    """Pick lambda/m as large as the two matched-Catoni constraints allow and
    turn it into explicit (C1, C2, C3)."""
    if not 0 < c2 < c:
        raise ValueError("need 0 < c2 < c")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    c_prime = (c - c2) / (1.0 + c2)
    target = c_prime / (c_prime + 2.0)
    if not 0 < target < 1:
        raise ValueError(f"c' = (c - c2)/(1 + c2) = {c_prime:g}: c'/(c'+2) rounds to {target:g}")
    # L = c'/(c'+2) as the odds L/(1 - L) = c'/2, a target with no rounding.
    odds = 0.5 * c_prime
    root = _bisect_increasing(_log_cosh_odds, odds)
    cap = 2.0 * (1.0 + c2) * (2.0 + c_prime) * log_over(4.0, delta) / ((1.0 + c2) ** 2 / c2)
    lam = min(root, cap)
    if lam == 0 or not math.isfinite(C_big := 2.0 * (1.0 + c2) * (2.0 + c_prime) / lam):
        raise ValueError(f"c = {c!r} and c2 = {c2!r} leave lambda/m = {lam!r}, so C = "
                         "2 (1 + c2)(2 + c')/(lambda/m) is not finite")
    return DerivedConstants(
        lambda_over_m=lam,
        c_prime=c_prime,
        C_big=C_big,
        C1=3.0 * C_big,
        C2=C_big,
        C3=C_big * (3.0 + math.log(8.0)),
        provenance={
            "logcosh_constraint_value": _log_cosh_odds(lam),
            "logcosh_constraint_target": odds,
            "delta_cap": cap,
            "bisection_root": root,
            "cap_active": cap < root,
            "delta": delta,
        },
    )


def xy_default_c2(c: float, h: float) -> float:
    """The sufficient c2 = h^2 c / (1 + 16 h^2 c) of the fast-rate flatness theorem."""
    return h * h * c / (1.0 + 16.0 * h * h * c)


def flatness_rate_constant(c: float, h: float) -> float:
    """Rate constant C = 2 h^2 c2 = 2 h^4 c / (1 + 16 h^2 c) of the flatness bound,
    with c2 = xy_default_c2(c, h), the theorem's sufficient c2. The bound divides
    by C, so a c and h that make it round to 0 (c = 5e-324, or h = 1e-170) are
    a ValueError that names them."""
    if not c > 0:
        raise ValueError("c must be positive")
    if not 0 < h < 1:
        raise ValueError("h must lie in (0, 1)")
    if (C := 2.0 * h * h * xy_default_c2(c, h)) == 0:
        raise ValueError(f"c = {c!r} and h = {h!r} make the flatness rate constant "
                         "C = 2 h^4 c / (1 + 16 h^2 c) round to 0")
    return C


def flatness_bound(q: ProbMeasure, table: LossTable, s: Sample, kl, params: BoundParams,
                   g=None) -> BoundReport:
    """The flatness family's bound at posterior q, one value per sample of s (and
    per row of q and kl): evaluate_bound given the empirical Gibbs risk and the
    params.h-flatness of q on s; g as in flatness."""
    g = gibbs_losses(q, table, s) if g is None else g
    return evaluate_bound("flatness", s.mean(g), kl, s.m, params,
                          flatness(q, table, s, params.h, g))


# (-1)^j/(j + 2)! for j = 17..0: the series of (e^-C - 1 + C)/C^2, for Horner's rule.
_EXPM1_EXCESS_SERIES = tuple((-1) ** j / math.factorial(j + 2) for j in range(17, -1, -1))


def _catoni_excess(C: float) -> float:
    """C/(1 - e^{-C}) - 1 = (e^{-C} - 1 + C)/(1 - e^{-C}), increasing from 0 at 0+.
    Below C = 1 the numerator is C^2 times its alternating series, whose terms
    past j = 17 sum to below 1e-17 of it; the direct form cancels there."""
    if C >= 1.0:
        return (C + math.expm1(-C)) / -math.expm1(-C)
    series = 0.0
    for coef in _EXPM1_EXCESS_SERIES:
        series = series * C + coef
    return C * series * (C / -math.expm1(-C))


def catoni_C_for_inflation(c: float) -> float:
    """Invert C/(1-e^{-C}) = 1 + c; unique root for c > 0. It is solved as
    C/(1 - e^{-C}) - 1 = c, so that 1 + c is never rounded.

    Aligns Catoni's bound with families written as (1+c) * empirical + rate.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    return _bisect_increasing(_catoni_excess, c)


@dataclass(frozen=True)
class Family:
    """One bound family B = d_emp emp + c flat + complexity(kl, m), linear in
    emp: dB/demp (also the weight of the `empirical` component), the
    complexity term (kl may be an array), dB/dkl at finite kl (an array), the
    constant reported as C_derived, the BoundParams fields that these read,
    and the least m it allows. The flatness term c flat, with flat the
    h-flatness of the posterior on the sample, belongs to the family that
    needs_sample alone. minimize_bound tilts at beta = d_emp / (m d_kl(kl)).
    """

    reads: tuple[str, ...]
    d_emp: Callable[[BoundParams], float]
    complexity: Callable[[np.ndarray, int, BoundParams], np.ndarray | float]
    d_kl: Callable[[np.ndarray, int, BoundParams], np.ndarray | float]
    derived: Callable[[BoundParams], float] | None = None
    needs_sample: bool = False
    m_min: int = 1


FAMILIES: dict[str, Family] = {
    "mcallester": Family(
        reads=("delta",),
        d_emp=lambda p: 1.0,
        complexity=lambda kl, m, p: np.sqrt((kl + log_over(m, p.delta)) / (2.0 * (m - 1))),
        d_kl=lambda kl, m, p: 1.0 / (4.0 * (m - 1) * np.sqrt(
            (kl + log_over(m, p.delta)) / (2.0 * (m - 1)))),
        m_min=2,
    ),
    "catoni": Family(
        reads=("delta", "C"),
        d_emp=lambda p: catoni_prefactor(p.C),
        complexity=lambda kl, m, p: ((kl + log_over(1.0, p.delta))
                                     / (m * -math.expm1(-p.C))),
        d_kl=lambda kl, m, p: 1.0 / (m * -math.expm1(-p.C)),
        derived=lambda p: p.C,
    ),
    "kst": Family(
        reads=("delta",),
        d_emp=lambda p: 1.0,
        complexity=lambda kl, m, p: (4.5 * np.sqrt(np.maximum(kl, 2.0) / m)
                                     + math.sqrt(log_over(1.0, p.delta) / m)),
        d_kl=lambda kl, m, p: np.where(kl > 2.0, 4.5 / (2.0 * np.sqrt(np.maximum(kl, 2.0) * m)),
                                       0.0),
    ),
    "matched_catoni": Family(
        reads=("delta", "c", "c2"),
        d_emp=lambda p: 1.0 + p.c,
        complexity=lambda kl, m, p: (
            (k := derive_matched_catoni_constants(p.c, p.c2, p.delta)).C1 * kl / m
            + k.C2 * log_over(1.0, p.delta) / m + k.C3 / m),
        d_kl=lambda kl, m, p: derive_matched_catoni_constants(p.c, p.c2, p.delta).C1 / m,
        derived=lambda p: derive_matched_catoni_constants(p.c, p.c2, p.delta).C_big,
    ),
    # The rate constant C = flatness_rate_constant(c, h) rejects h = 1: the
    # theorem requires h in (0, 1), though its MGF lemma tolerates h = 1.
    "flatness": Family(
        reads=("delta", "c", "h"),
        d_emp=lambda p: 1.0,
        complexity=lambda kl, m, p: (4.0 / (flatness_rate_constant(p.c, p.h) * m)
                                     * (3.0 * kl + log_over(1.0, p.delta) + 5.0)),
        d_kl=lambda kl, m, p: 4.0 / (flatness_rate_constant(p.c, p.h) * m) * 3.0,
        derived=lambda p: flatness_rate_constant(p.c, p.h),
        needs_sample=True,
    ),
}


def evaluate_bound(family: str, emp, kl, m: int, params: BoundParams, flat=None) -> BoundReport:
    """Evaluate a family as the sum of its components `empirical`
    (d_emp * emp), `flatness` (c * flat, 0 for the closed forms) and
    `complexity`. An infinite bound reports 0 empirical and 0 flatness, so
    all of it is complexity. emp is a Gibbs risk: it must lie in [0, 1], up
    to the rounding that a ProbMeasure's weights may carry. flat, the
    h-flatness, is required by the family that needs_sample and rejected by
    every other."""
    fam = FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown bound family {family!r}")
    if fam.needs_sample != (flat is not None):
        raise ValueError(f"the {family} bound {'needs' if fam.needs_sample else 'takes no'} "
                         "flatness value")
    if not np.all(kl >= 0):  # NaN fails too; +inf is valid
        raise ValueError("kl must be nonnegative")
    if m < fam.m_min:
        raise ValueError(f"m must be >= {fam.m_min}")
    if not np.all((emp >= 0) & (emp <= 1.0 + _SUM_TOL)):
        raise ValueError("emp must lie in [0, 1]")
    # A complexity term too large for a float is the +inf certificate.
    with np.errstate(over="ignore"):
        complexity = fam.complexity(kl, m, params)
    finite = np.isfinite(complexity)
    empirical = fam.d_emp(params) * emp * finite
    flat_term = (0.0 if flat is None else params.c * flat) * finite
    return BoundReport(family=family, value=empirical + flat_term + complexity,
                       components={"empirical": empirical, "flatness": flat_term,
                                   "complexity": complexity})
