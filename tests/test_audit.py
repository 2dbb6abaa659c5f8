"""An audit of the certificates' arithmetic. Every bound family's value, and the
constants behind the values, are recomputed in 50-digit mpmath from the same
float inputs, at seeded random points and at the corners of each range:
kl from 0 to 1e3, m from 2 to 1e7, delta from 1e-300 to 0.999 (and the least
float, 5e-324, where log(1/delta) overflows its ratio), emp in [0, 1],
and each family's own parameters across theirs. A certificate may round, but
it must not fall below its exact value by more than ULP_TOL ulp (MATCHED_ULP_TOL
for matched_catoni); the constants and crossover_threshold must lie within
ULP_TOL ulp of theirs.
"""

import itertools
import math
import sys

import mpmath
import numpy as np
import pytest

from pacbayes import (BoundParams, FAMILIES, catoni_C_for_inflation, crossover_threshold,
                      evaluate_bound)
from pacbayes.bounds import flatness_rate_constant

from conftest import mp_logcosh_root_55

ULP_TOL = 4.0
# matched_catoni's C = 2 (1 + c2)(2 + c')/(lambda/m) takes lambda/m from a root
# solved at the rounded c' with log_cosh_over_x, up to about 2.5 2^-52 relative
# off, which is up to 5 ulp of C near the top of its binade; about a dozen
# roundings follow. At 4 ulp it fails by 4.7 ulp at one of its points here.
MATCHED_ULP_TOL = 8.0
mpf = mpmath.mpf


def ulps_below(got, exact) -> float:
    """How far the float got lies below the exact value, in ulp of the float
    nearest it (negative when got is above)."""
    return float((exact - mpf(got)) / math.ulp(float(exact)))


def log_uniform(gen, lo, hi):
    return float(math.exp(gen.uniform(math.log(lo), math.log(hi))))


# Each family's parameters beyond delta: a random draw and the range's corners.
def catoni_params(gen):
    return {"C": log_uniform(gen, 1e-8, 1e3)}


def matched_params(gen):
    # c' = (c - c2)/(1 + c2) from 1e-6 to 2^53, where c'/(c' + 2) still rounds below 1.
    c2, c_prime = log_uniform(gen, 1e-6, 1e3), log_uniform(gen, 1e-6, 2.0 ** 53)
    return {"c": c2 + c_prime * (1.0 + c2), "c2": c2}


def flatness_params(gen):
    return {"c": log_uniform(gen, 1e-6, 1e6), "h": gen.uniform(1e-3, 0.999)}


PARAMS = {
    "mcallester": (lambda gen: {}, [{}]),
    "kst": (lambda gen: {}, [{}]),
    "catoni": (catoni_params, [{"C": C} for C in (1e-8, 1.0, 1e3)]),
    "matched_catoni": (matched_params, [
        {"c": c2 + cp * (1.0 + c2), "c2": c2}
        for c2 in (1e-6, 1.0, 1e3) for cp in (1e-6, 1.0, 1e12, 1e15, 2.0 ** 53)]),
    "flatness": (flatness_params, [{"c": c, "h": h} for c in (1e-6, 1.0, 1e6)
                                   for h in (1e-3, 0.5, 0.999)]),
}


def audit_points(family, count=200, seed=2024):
    """(emp, kl, m, delta, params, flat): count seeded random points, then every
    corner of emp, kl, m and delta against the family's own corners."""
    gen = np.random.default_rng([seed, list(FAMILIES).index(family)])
    draw, corners = PARAMS[family]
    points = []
    for _ in range(count):
        kl = 0.0 if gen.random() < 0.1 else log_uniform(gen, 1e-12, 1e3)
        m = int(log_uniform(gen, 2, 1e7))
        points.append((gen.uniform(0, 1), kl, m, log_uniform(gen, 1e-300, 0.999), draw(gen),
                       gen.uniform(0, 1)))
    for emp, kl, m, delta, extra in itertools.product(
            (0.0, 1.0), (0.0, 1e3), (2, 10 ** 7), (5e-324, 1e-300, 0.999), corners):
        points.append((emp, kl, m, delta, extra, 1.0))
    return points


def mp_catoni_C(c, C):
    """The root of x/(1 - e^-x) - 1 = c, by Newton's method from C, with the
    digits that x/(1 - e^-x) - 1 ~ x/2 cancels at small x added back."""
    with mpmath.workdps(50 + max(0, int(-math.log10(c)))):
        x, c = mpf(C), mpf(c)
        for _ in range(4):
            e = -mpmath.expm1(-x)
            x -= (x / e - 1 - c) / ((e - x * mpmath.exp(-x)) / e ** 2)
        return +x


def mp_flatness_rate_constant(c, h):
    c, h = mpf(c), mpf(h)
    return 2 * h ** 4 * c / (1 + 16 * h * h * c)


def mp_bound(family, emp, kl, m, delta, p: BoundParams, flat):
    """The family's bound at these float inputs, in exact arithmetic to the
    working precision."""
    emp, kl, delta = mpf(emp), mpf(kl), mpf(delta)
    log_inv_delta = -mpmath.log(delta)
    if family == "mcallester":
        return emp + mpmath.sqrt((kl + mpmath.log(m / delta)) / (2 * (m - 1)))
    if family == "catoni":
        C = mpf(p.C)
        return (C * emp + (kl + log_inv_delta) / m) / -mpmath.expm1(-C)
    if family == "kst":
        return emp + mpf("4.5") * mpmath.sqrt(max(kl, 2) / m) + mpmath.sqrt(log_inv_delta / m)
    if family == "matched_catoni":
        c, c2 = mpf(p.c), mpf(p.c2)
        c_prime = (c - c2) / (1 + c2)
        cap = 2 * (1 + c2) * (2 + c_prime) * mpmath.log(4 / delta) / ((1 + c2) ** 2 / c2)
        C = 2 * (1 + c2) * (2 + c_prime) / min(mp_logcosh_root_55(c_prime), cap)
        return (1 + c) * emp + (3 * C * kl + C * log_inv_delta + C * (3 + mpmath.log(8))) / m
    C = mp_flatness_rate_constant(p.c, p.h)
    return emp + mpf(p.c) * mpf(flat) + 4 / (C * m) * (3 * kl + log_inv_delta + 5)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_no_bound_falls_below_its_exact_value(family):
    tol = MATCHED_ULP_TOL if family == "matched_catoni" else ULP_TOL
    with mpmath.workdps(50):
        for emp, kl, m, delta, extra, flat in audit_points(family):
            params = BoundParams(delta=delta, **extra)
            got = float(evaluate_bound(
                family, emp, kl, m, params,
                flat if FAMILIES[family].needs_sample else None).value)
            exact = mp_bound(family, emp, kl, m, delta, params, flat)
            point = (emp, kl, m, delta, extra, flat)
            assert ulps_below(got, exact) <= tol, point
            # A formula that differs from the exact one shows here.
            assert abs(mpf(got) - exact) <= mpf("1e-12") * exact, point


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("delta", [1e-307, 1e-320, 5e-324])
def test_a_tiny_delta_gives_a_finite_certificate(family, delta):
    # Where x / delta overflows, log(x / delta) is log x - log delta: a finite
    # bound within 1e-14 of its exact value, not +inf.
    draw, corners = PARAMS[family]
    flat = 0.25 if FAMILIES[family].needs_sample else None
    with mpmath.workdps(50):
        for extra in corners + [draw(np.random.default_rng(seed)) for seed in range(5)]:
            for emp, kl, m in ((0.1, 0.1, 100), (0.0, 0.0, 2), (1.0, 1e3, 10 ** 7)):
                params = BoundParams(delta=delta, **extra)
                got = float(evaluate_bound(family, emp, kl, m, params, flat).value)
                exact = mp_bound(family, emp, kl, m, delta, params, flat)
                assert math.isfinite(got), (emp, kl, m, extra)
                assert abs(mpf(got) - exact) <= mpf("1e-14") * exact, (emp, kl, m, extra)


def test_catoni_C_for_inflation_is_its_root():
    # The C with C/(1 - e^-C) = 1 + c, to a few ulp, c from 1e-300 to the largest float,
    # where the root, about c + 1, rounds to c; at c = inf there is none.
    gen = np.random.default_rng(7)
    cs = [log_uniform(gen, 1e-300, 1e300) for _ in range(300)] + [
        5e-324, 1e-300, 1.0, 1e300, 1.5 * 2.0 ** 1023, 1.7e308, sys.float_info.max]
    for c in cs:
        C = catoni_C_for_inflation(c)
        assert abs(ulps_below(C, mp_catoni_C(c, C))) <= ULP_TOL, c
    with pytest.raises(ValueError):
        catoni_C_for_inflation(math.inf)


def test_crossover_threshold_is_its_exact_value():
    # C_r >= C_c, where the crossover lies at a positive m: T_m from 1e-12 to 1e6, C_c
    # (at least 1 from the aligned Catoni bound) up to 1e12, C_r / C_c from 1 to 1e15.
    gen = np.random.default_rng(13)
    points = [(log_uniform(gen, 1e-12, 1e6), log_uniform(gen, 1.0, 1e15),
               log_uniform(gen, 1.0, 1e12), 0.0 if gen.random() < 0.1 else
               log_uniform(gen, 1e-12, 1e3), log_uniform(gen, 1e-300, 0.999))
              for _ in range(1000)]
    points += list(itertools.product((1e-12, 1.0, 1e6), (1.0, 1.0 + 2.0 ** -40, 2.0, 1e15),
                                     (1.0, 1e12), (0.0, 1e3), (5e-324, 1e-300, 0.5, 0.999)))
    with mpmath.workdps(50):
        for T_m, ratio, C_c, kl, delta in points:
            C_r = C_c * ratio
            exact = ((mpf(C_r) - mpf(C_c)) * (mpf(kl) - mpmath.log(mpf(delta))) + mpf(C_r)) / T_m
            got = crossover_threshold(T_m, C_r, C_c, kl, delta)
            assert abs(ulps_below(got, exact)) <= ULP_TOL, (T_m, C_r, C_c, kl, delta)


def test_flatness_rate_constant_is_not_above_its_exact_value():
    # A larger rate constant makes a smaller bound: C may lie above by rounding only.
    gen = np.random.default_rng(11)
    points = [(log_uniform(gen, 1e-300, 1e300), gen.uniform(1e-3, 0.999)) for _ in range(1000)]
    points += list(itertools.product((1e-300, 1e-6, 1.0, 1e6, 1e300),
                                     (1e-3, 0.5, 0.7, 0.9, 0.999)))
    with mpmath.workdps(50):
        for c, h in points:
            exact = mp_flatness_rate_constant(c, h)
            assert -ulps_below(flatness_rate_constant(c, h), exact) <= ULP_TOL, (c, h)
