"""Closed-form PAC-Bayes certificates for Gibbs classifiers.

Five families: the classical square-root bound, Catoni's fast-rate bound,
the Kakade-Sridharan-Tewari bound, a shifted-Rademacher bound matching
Catoni's rate (with the non-explicit constants derived here by bisection),
and the fast-rate flatness bound.

All families treat kl = +inf as a valid input and return a vacuous +inf
certificate rather than raising. emp and kl may be arrays with one entry per
sample of a block; the values then follow their shape, and every check applies
to each entry. FAMILIES, at the end, defines each family.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import LossTable, Sample
from .measures import ProbMeasure, flatness, gibbs_empirical_risk

_BISECT_TOL = 1e-12


@dataclass(frozen=True)
class BoundParams:
    """Bound-family parameters. Not every family reads every field."""

    delta: float = 0.05
    catoni_C: float = 1.0
    c: float = 1.0
    c2: float | None = None    # matched_catoni only; None means c / 2
    h: float = 0.5

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.catoni_C <= 0:
            raise ValueError("catoni_C must be positive")
        if self.c <= 0:
            raise ValueError("c must be positive")


@dataclass(frozen=True)
class DerivedConstants:
    """Explicit constants for the matched-Catoni bound.

    lambda_over_m solves log cosh(x)/x = c'/(c'+2), capped by the
    delta-dependent constraint; C_big = 2(1+c2)(2+c')/lambda_over_m, and the
    final constants are (C1, C2, C3) = (3 C_big, C_big, C_big (3 + log 8)).
    provenance records the constraint values at the chosen point.
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
    """Evaluated certificate with its additive breakdown; value and components
    hold one entry per sample when the bound was evaluated on a block."""

    family: str
    value: float | np.ndarray
    components: dict

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown bound family {self.family!r}")
        # Finite values within 1e-12 relative; infinite ones exactly. A single
        # value takes the scalar test, which costs far less than array calls.
        value, total = self.value, sum(self.components.values())
        if isinstance(value, np.ndarray):
            finite = np.isfinite(value)
            gap = np.abs(np.subtract(total, value, out=np.zeros(value.shape), where=finite))
            off = ((gap > 1e-12 * np.maximum(1.0, np.abs(value)))
                   | ((total != value) & ~finite)).any()
        elif math.isfinite(value):
            off = abs(total - value) > 1e-12 * max(1.0, abs(value))
        else:
            off = total != value
        if off:
            raise ValueError("components do not reconstruct the bound value")


def _check_common(kl, delta: float, m: int, m_min: int = 1) -> None:
    negative = kl < 0
    if negative.any() if isinstance(negative, np.ndarray) else negative:
        raise ValueError("kl must be nonnegative")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if m < m_min:
        raise ValueError(f"m must be >= {m_min}")


def mcallester_bound(emp, kl, m: int, delta: float):
    """emp + sqrt((kl + log(m/delta)) / (2(m-1)))."""
    _check_common(kl, delta, m, 2)
    return emp + np.sqrt((kl + math.log(m / delta)) / (2.0 * (m - 1)))


def catoni_prefactor(C: float) -> float:
    """C / (1 - e^{-C}); > 1 for all C > 0 and -> 1 as C -> 0+."""
    if C <= 0:
        raise ValueError("C must be positive")
    return C / -math.expm1(-C)


def catoni_bound(emp, kl, m: int, delta: float, C: float):
    """(1/(1 - e^{-C})) * [C*emp + (kl + log(1/delta)) / m]."""
    _check_common(kl, delta, m)
    if C <= 0:
        raise ValueError("C must be positive")
    return (C * emp + (kl + math.log(1.0 / delta)) / m) / -math.expm1(-C)


def kst_bound(emp, kl, m: int, delta: float):
    """emp + 4.5*sqrt(max(kl, 2)/m) + sqrt(log(1/delta)/m)."""
    _check_common(kl, delta, m)
    return emp + 4.5 * np.sqrt(np.maximum(kl, 2.0) / m) + math.sqrt(math.log(1.0 / delta) / m)


def log_cosh_over_x(x: float) -> float:
    """log(cosh(x))/x, series-stabilized near zero; increasing on (0, inf)."""
    if x < 1e-4:
        return x / 2.0 - x ** 3 / 12.0
    # log cosh(x) = x + log((1+e^{-2x})/2) avoids overflow for large x.
    return (x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)) / x


def _bisect_increasing(fn, target: float, lo: float, hi: float, tol: float = _BISECT_TOL) -> float:
    """Root of fn(x) = target for fn increasing on [lo, hi]. Stops once the
    bracket is within tol * max(1, hi), relative for roots above 1, or once
    its midpoint is one of its ends; tol = 0 runs to float resolution."""
    if fn(lo) > target or fn(hi) < target:
        raise ValueError("target not bracketed")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def derive_matched_catoni_constants(c: float, c2: float, delta: float) -> DerivedConstants:
    """Pick lambda/m as large as the two matched-Catoni constraints allow and
    turn it into explicit (C1, C2, C3)."""
    if c <= 0 or c2 <= 0 or c2 >= c:
        raise ValueError("need 0 < c2 < c")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    c_prime = (c - c2) / (1.0 + c2)
    target = c_prime / (c_prime + 2.0)
    root = _bisect_increasing(log_cosh_over_x, target, 1e-12, 10.0)
    cap = 2.0 * (1.0 + c2) * (2.0 + c_prime) * math.log(4.0 / delta) / ((1.0 + c2) ** 2 / c2)
    lam = min(root, cap)
    C_big = 2.0 * (1.0 + c2) * (2.0 + c_prime) / lam
    return DerivedConstants(
        lambda_over_m=lam,
        c_prime=c_prime,
        C_big=C_big,
        C1=3.0 * C_big,
        C2=C_big,
        C3=C_big * (3.0 + math.log(8.0)),
        provenance={
            "logcosh_constraint_value": log_cosh_over_x(lam),
            "logcosh_constraint_target": target,
            "delta_cap": cap,
            "bisection_root": root,
            "cap_active": cap < root,
            "delta": delta,
        },
    )


def _matched_constants(c: float, c2: float | None, delta: float) -> DerivedConstants:
    """derive_matched_catoni_constants with the default c2 = c / 2."""
    return derive_matched_catoni_constants(c, c / 2.0 if c2 is None else c2, delta)


def matched_catoni_bound(emp, kl, m: int, delta: float, c: float, c2: float | None = None):
    """(1+c)*emp + C1*kl/m + C2*log(1/delta)/m + C3/m with derived constants."""
    _check_common(kl, delta, m)
    k = _matched_constants(c, c2, delta)
    return (1.0 + c) * emp + k.C1 * kl / m + k.C2 * math.log(1.0 / delta) / m + k.C3 / m


def flatness_rate_constant(c: float, h: float) -> float:
    """Rate constant C = 2 h^4 c / (1 + 16 h^2 c) of the flatness bound."""
    if c <= 0:
        raise ValueError("c must be positive")
    if not 0 < h < 1:
        raise ValueError("h must lie in (0, 1)")
    hc = h * h * c
    return 2.0 * h * h * hc / (1.0 + 16.0 * hc)


def _flatness_rate(kl, m: int, delta: float, c: float, h: float):
    """Rate term (4/(Cm)) [3 kl + log(1/delta) + 5] of the flatness bound."""
    C = flatness_rate_constant(c, h)
    return 4.0 / (C * m) * (3.0 * kl + math.log(1.0 / delta) + 5.0)


def flatness_bound(q: ProbMeasure, table: LossTable, s: Sample, kl,
                   delta: float, c: float, h: float) -> BoundReport:
    """Fast-rate bound: empirical Gibbs risk + c * h-flatness + (4/(Cm)) [3 kl + log(1/delta) + 5],
    one value per sample of s (and per row of q and kl).

    h = 1 is rejected: the theorem statement requires h in (0, 1) even though
    the underlying MGF lemma tolerates h = 1.
    """
    _check_common(kl, delta, s.m)
    rate_term = _flatness_rate(kl, s.m, delta, c, h)
    emp = gibbs_empirical_risk(q, table, s)
    flat_term = c * flatness(q, table, s, h)
    value = emp + flat_term + rate_term
    return BoundReport(
        family="flatness",
        value=value,
        components={"empirical": emp, "flatness": flat_term, "rate": rate_term},
    )


def catoni_C_for_inflation(c: float) -> float:
    """Invert C/(1-e^{-C}) = 1 + c; unique root for c > 0.

    Aligns Catoni's bound with families written as (1+c) * empirical + rate.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    # prefactor is increasing in C, from 1 at 0+ to infinity.
    lo, hi = 1e-12, 1.0
    while catoni_prefactor(hi) < 1.0 + c:
        hi *= 2.0
    return _bisect_increasing(catoni_prefactor, 1.0 + c, lo, hi)


@dataclass(frozen=True)
class Family:
    """One bound family B(emp, kl, m, params), linear in emp: its value (emp and
    kl may be arrays), dB/demp (also the weight of the `empirical` component),
    dB/dkl at one finite kl and the constant reported as C_derived. For
    flatness (needs_sample) value is only the rate term; flatness_bound adds
    the empirical risk and c * flatness(Q, S).
    """

    value: Callable[..., float | np.ndarray]
    d_emp: Callable[[BoundParams], float]
    d_kl: Callable[[float, int, BoundParams], float]
    derived: Callable[[BoundParams], float] | None = None
    needs_sample: bool = False


FAMILIES: dict[str, Family] = {
    "mcallester": Family(
        value=lambda emp, kl, m, p: mcallester_bound(emp, kl, m, p.delta),
        d_emp=lambda p: 1.0,
        d_kl=lambda kl, m, p: 1.0 / (4.0 * (m - 1) * math.sqrt(
            (kl + math.log(m / p.delta)) / (2.0 * (m - 1)))),
    ),
    "catoni": Family(
        value=lambda emp, kl, m, p: catoni_bound(emp, kl, m, p.delta, p.catoni_C),
        d_emp=lambda p: catoni_prefactor(p.catoni_C),
        d_kl=lambda kl, m, p: 1.0 / (m * -math.expm1(-p.catoni_C)),
        derived=lambda p: p.catoni_C,
    ),
    "kst": Family(
        value=lambda emp, kl, m, p: kst_bound(emp, kl, m, p.delta),
        d_emp=lambda p: 1.0,
        d_kl=lambda kl, m, p: 4.5 / (2.0 * math.sqrt(kl * m)) if kl > 2.0 else 0.0,
    ),
    "matched_catoni": Family(
        value=lambda emp, kl, m, p: matched_catoni_bound(emp, kl, m, p.delta, p.c, p.c2),
        d_emp=lambda p: 1.0 + p.c,
        d_kl=lambda kl, m, p: _matched_constants(p.c, p.c2, p.delta).C1 / m,
        derived=lambda p: _matched_constants(p.c, p.c2, p.delta).C_big,
    ),
    "flatness": Family(
        value=lambda emp, kl, m, p: _flatness_rate(kl, m, p.delta, p.c, p.h),
        d_emp=lambda p: 1.0,
        d_kl=lambda kl, m, p: 4.0 / (flatness_rate_constant(p.c, p.h) * m) * 3.0,
        derived=lambda p: flatness_rate_constant(p.c, p.h),
        needs_sample=True,
    ),
}


def evaluate_bound(family: str, emp, kl, m: int, params: BoundParams) -> BoundReport:
    """Evaluate a closed-form family (everything but flatness, which needs the
    sample). An infinite value puts all of itself in the complexity component."""
    fam = FAMILIES.get(family)
    if fam is None or fam.needs_sample:
        raise ValueError(f"unknown or sample-dependent family {family!r}")
    value = fam.value(emp, kl, m, params)
    empirical = fam.d_emp(params) * emp * np.isfinite(value)
    return BoundReport(family=family, value=value,
                       components={"empirical": empirical, "complexity": value - empirical})
