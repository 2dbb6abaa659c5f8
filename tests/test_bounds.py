import math
import re

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from pacbayes import (BoundParams, LossTable, ProbMeasure, Sample,
                      catoni_C_for_inflation, catoni_prefactor,
                      bound_sweep, derive_matched_catoni_constants, draw_sample,
                      flatness_bound, minimize_bound)
from pacbayes.measures import flatness, gibbs_losses
from pacbayes.bounds import (FAMILIES, _bisect_increasing, evaluate_bound,
                             flatness_rate_constant, log_cosh_over_x, log_over)
from pacbayes.compare import crossover_threshold
from pacbayes.posterior_opt import evaluate_posterior_bound

from conftest import mp_logcosh_root_55, random_instance, random_measure


def mp_logcosh_root(target):
    # Bisection oracle independent of the implementation: brentq on a
    # 50-digit log(cosh(x))/x.
    with mpmath.workdps(50):
        fn = lambda x: float(mpmath.log(mpmath.cosh(x)) / x - target)
        return brentq(fn, 1e-8, 100.0, xtol=1e-13)


def bound(family, emp, kl, m, **params):
    """The family's value at (emp, kl, m) and the given BoundParams fields."""
    return evaluate_bound(family, emp, kl, m, BoundParams(**params)).value


class TestMcAllester:
    def test_monotone_in_delta(self):
        vals = [bound("mcallester", 0.2, 0.5, 100, delta=d) for d in (0.1, 0.5, 0.9)]
        assert vals[0] > vals[1] > vals[2]

    def test_high_precision_value(self):
        with mpmath.workdps(50):
            expected = float(mpmath.mpf("0.1") + mpmath.sqrt(
                (2 + mpmath.log(100 / mpmath.mpf("0.05"))) / (2 * 99)))
        assert bound("mcallester", 0.1, 2.0, 100, delta=0.05) == pytest.approx(expected, abs=1e-14)
        assert bound("mcallester", 0.1, 2.0, 100, delta=0.05) == pytest.approx(0.32020, abs=1e-5)

    def test_vanishing_limit(self):
        assert bound("mcallester", 0.0, 0.0, 10 ** 8, delta=0.05) < 1e-3

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            bound("mcallester", 0.1, 0.0, 1, delta=0.05)

    def test_inf_kl_propagates(self):
        assert bound("mcallester", 0.1, math.inf, 100, delta=0.05) == math.inf


class TestCatoni:
    def test_high_precision_value(self):
        with mpmath.workdps(50):
            expected = float((mpmath.mpf("0.1") + (2 + mpmath.log(20)) / 100)
                             / (1 - mpmath.exp(-1)))
        value = bound("catoni", 0.1, 2.0, 100, delta=0.05, C=1.0)
        assert value == pytest.approx(expected, abs=1e-14)
        assert value == pytest.approx(0.23723, abs=1e-5)

    def test_prefactor_limit_to_one(self):
        assert abs(catoni_prefactor(1e-6) - 1.0) < 1e-5

    def test_prefactor_identity_at_one(self):
        assert catoni_prefactor(1.0) == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), abs=1e-12)

    def test_inf_kl_propagates(self):
        assert bound("catoni", 0.1, math.inf, 100, delta=0.05, C=1.0) == math.inf

    def test_nonpositive_C_rejected(self):
        with pytest.raises(ValueError):
            bound("catoni", 0.1, 0.0, 100, delta=0.05, C=0.0)

    def test_bounded_below_by_inflated_empirical(self):
        for C in (0.3, 1.0, 4.0):
            emp = 0.4
            value = bound("catoni", emp, 0.0, 10 ** 6, delta=0.5, C=C)
            assert value >= emp * catoni_prefactor(C) * C / C

    def test_inflation_inverse(self):
        for c in (0.1, 1.0, 3.0):
            C = catoni_C_for_inflation(c)
            assert catoni_prefactor(C) == pytest.approx(1.0 + c, abs=1e-10)

    @pytest.mark.parametrize("c", [1e4, 1e6])
    def test_inflation_inverse_large_c(self, c):
        # Float spacing at these roots exceeds 1e-12, which an absolute
        # bisection tolerance never reaches.
        C = catoni_C_for_inflation(c)
        assert catoni_prefactor(C) == pytest.approx(1.0 + c, rel=1e-12)


class TestKST:
    def test_high_precision_value(self):
        with mpmath.workdps(50):
            expected = float(mpmath.mpf("4.5") * mpmath.sqrt(mpmath.mpf(2) / 100)
                             + mpmath.sqrt(mpmath.log(20) / 100))
        assert bound("kst", 0.0, 0.0, 100, delta=0.05) == pytest.approx(expected, abs=1e-14)
        assert bound("kst", 0.0, 0.0, 100, delta=0.05) == pytest.approx(0.80948, abs=1e-5)

    def test_max_clamp(self):
        assert bound("kst", 0.1, 1.0, 200, delta=0.1) == bound("kst", 0.1, 2.0, 200, delta=0.1)

    def test_sqrt_scaling(self):
        b1 = bound("kst", 0.0, 3.0, 100, delta=0.05)
        b4 = bound("kst", 0.0, 3.0, 400, delta=0.05)
        assert b4 == pytest.approx(b1 / 2.0, abs=1e-14)


class TestMatchedCatoniConstants:
    def test_against_bisection_oracle(self):
        k = derive_matched_catoni_constants(1.0, 0.5, 0.05)
        c_prime = (1.0 - 0.5) / 1.5
        root = mp_logcosh_root(c_prime / (c_prime + 2.0))
        assert k.lambda_over_m == pytest.approx(root, abs=1e-10)
        assert k.lambda_over_m == pytest.approx(0.2896, abs=2e-4)
        C_big = 2.0 * 1.5 * (2.0 + c_prime) / root
        assert k.C_big == pytest.approx(C_big, rel=1e-9)
        assert k.C_big == pytest.approx(24.17, abs=0.01)
        assert k.C1 == pytest.approx(3 * C_big, rel=1e-12)
        assert k.C2 == pytest.approx(C_big, rel=1e-12)
        assert k.C3 == pytest.approx(C_big * (3 + math.log(8)), rel=1e-12)
        assert k.C1 == pytest.approx(72.5, abs=0.1)
        assert k.C3 == pytest.approx(122.8, abs=0.1)
        assert not k.provenance["cap_active"]

    def test_monotone_in_c(self):
        lams = [derive_matched_catoni_constants(c, c / 2, 0.05).lambda_over_m
                for c in (0.5, 1.0, 2.0)]
        assert lams[0] < lams[1] < lams[2]
        # Cross-check each against the independent oracle.
        for c, lam in zip((0.5, 1.0, 2.0), lams):
            cp = (c - c / 2) / (1 + c / 2)
            assert lam == pytest.approx(mp_logcosh_root(cp / (cp + 2)), abs=1e-10)

    def test_degenerate_c2_limit(self):
        near = derive_matched_catoni_constants(1.0, 0.999, 0.05)
        mid = derive_matched_catoni_constants(1.0, 0.5, 0.05)
        assert near.C1 > mid.C1

    def test_invalid_c2(self):
        with pytest.raises(ValueError):
            derive_matched_catoni_constants(1.0, 1.0, 0.05)

    def test_c_prime_whose_target_rounds_to_zero(self):
        # c' = 5e-324, so c'/(c'+2) rounds to 0 and so would lambda/m.
        with pytest.raises(ValueError, match=r"c' = \(c - c2\)/\(1 \+ c2\)"):
            derive_matched_catoni_constants(1e-323, 5e-324, 0.05)

    @pytest.mark.parametrize("c, c2", [(1e300, 0.1), (2.0 ** 55, 1.0)])
    def test_c_prime_whose_target_rounds_to_one(self, c, c2):
        # c' = 9.1e299 and c' = 2^54: c' + 2 rounds to c', so c'/(c'+2) is 1 and
        # the bisection would stop where log cosh(x)/x rounds to 1 (lambda/m = 1.8e16).
        with pytest.raises(ValueError, match=r"c' = \(c - c2\)/\(1 \+ c2\) = .* rounds to 1"):
            derive_matched_catoni_constants(c, c2, 0.05)

    @pytest.mark.parametrize("c, c2", [(1.0, 1e-310), (3e-323, 5e-324),
                                       (1.0000000000000002e-300, 1e-300)])
    def test_c2_so_small_that_C_is_not_finite(self, c, c2):
        # Below c2 ~ 5.6e-309 (1 + c2)^2 / c2 overflows, so the delta cap and
        # lambda/m are 0; at the last pair lambda/m = 1.7e-316 and C overflows.
        with pytest.raises(ValueError, match=rf"c = {c!r} and c2 = {c2!r} leave lambda/m"):
            derive_matched_catoni_constants(c, c2, 0.05)

    def test_constraint_provenance(self):
        # c' = (c - c2) / (1 + c2) runs from 1e-18 to 499.5, so the root runs
        # from 1e-18 to 174; the delta cap is active in some cases.
        for c in (1e-15, 0.3, 2.0, 30.0, 1e3):
            for share in (1e-3, 0.1, 0.15, 0.5, 0.999):
                for delta in (0.05, 0.2):
                    k = derive_matched_catoni_constants(c, c * share, delta)
                    prov = k.provenance
                    assert prov["logcosh_constraint_value"] <= prov["logcosh_constraint_target"]
                    assert k.lambda_over_m == min(prov["bisection_root"], prov["delta_cap"])

    def test_root_beyond_ten_against_oracle(self):
        # c' = 29.9 / 1.1 puts the root of log cosh(x)/x = c'/(c'+2) above 10.
        k = derive_matched_catoni_constants(30.0, 0.1, 0.05)
        c_prime = 29.9 / 1.1
        root = mp_logcosh_root(c_prime / (c_prime + 2.0))
        assert root > 10.0
        assert k.provenance["bisection_root"] == pytest.approx(root, rel=1e-12)
        assert not k.provenance["cap_active"]


def ulps_from(x, exact):
    """(x - exact) in units in the last place of the float nearest exact."""
    return float((mpmath.mpf(x) - exact) / math.ulp(float(exact)))


class TestLogCoshAccuracy:
    def test_log_cosh_over_x_within_four_ulp(self):
        # Log-spaced, plus both sides of the switches at 1e-4 and 1.
        xs = np.concatenate([np.geomspace(1e-12, 1e4, 400), [
            1e-4, math.nextafter(1e-4, 1), 1.0001e-4, 3e-4, math.nextafter(1.0, 0), 1.0]])
        with mpmath.workdps(60):
            worst = max(abs(ulps_from(log_cosh_over_x(float(x)),
                                      mpmath.log(mpmath.cosh(mpmath.mpf(float(x)))) / float(x)))
                        for x in xs)
        assert worst <= 4.0

    def test_matched_catoni_root_within_four_ulp_at_every_c_prime(self):
        # c' from 1e-6 to 2^53 (208 points), with c2 = 1 or 1/2; at delta = 0.05
        # the cap is at least 2 (2 + c') log(80) / 3, well above the root.
        c_primes = np.concatenate([np.geomspace(1e-6, 2.0 ** 53, 200), [
            1e10, 1e13, 1e15, 2.0 ** 53, 0.1, 1.0 / 3, 1.0, 1e3]])
        for i, target in enumerate(c_primes):
            c2 = 1.0 if i % 2 else 0.5
            k = derive_matched_catoni_constants(c2 + float(target) * (1 + c2), c2, 0.05)
            assert not k.provenance["cap_active"]
            root = mp_logcosh_root_55(k.c_prime)
            assert abs(ulps_from(k.lambda_over_m, root)) <= 4.0, (k.c_prime, k.lambda_over_m)


class TestBisection:
    @pytest.mark.parametrize("fn, target", [
        (log_cosh_over_x, 1e-300), (log_cosh_over_x, 0.3), (log_cosh_over_x, 0.999),
        (catoni_prefactor, 1.0 + 1e-12), (catoni_prefactor, 2.0), (catoni_prefactor, 1e300)])
    def test_the_end_where_fn_is_at_most_target_to_float_resolution(self, fn, target):
        x = _bisect_increasing(fn, target)
        assert fn(x) <= target <= fn(math.nextafter(x, math.inf))


class TestMatchedCatoniBound:
    def test_compose_with_constants(self):
        k = derive_matched_catoni_constants(1.0, 0.5, 0.05)
        emp = 0.2
        got = bound("matched_catoni", emp, 0.0, 10 ** 4, delta=0.05, c=1.0, c2=0.5)
        expected = 2.0 * emp + (k.C2 * math.log(20.0) + k.C3) / 10 ** 4
        assert got == pytest.approx(expected, rel=1e-12)

    def test_inverse_m_scaling(self):
        b1 = bound("matched_catoni", 0.0, 0.0, 1000, delta=0.05, c=1.0, c2=0.5)
        b2 = bound("matched_catoni", 0.0, 0.0, 2000, delta=0.05, c=1.0, c2=0.5)
        assert b1 == pytest.approx(2.0 * b2, rel=1e-12)

    def test_complexity_dominates_catoni_by_at_most_C1(self):
        c = 1.0
        k = derive_matched_catoni_constants(c, 0.5, 0.05)
        C_aligned = catoni_C_for_inflation(c)
        pref = catoni_prefactor(C_aligned)
        for kl in (0.5, 2.0, 8.0):
            for m in (100, 1000, 10 ** 4):
                for delta in (0.05, 0.2):
                    matched_cplx = (k.C1 * kl + k.C2 * math.log(1 / delta) + k.C3) / m
                    catoni_cplx = pref * (kl + math.log(1 / delta)) / m
                    assert matched_cplx >= catoni_cplx  # matched pays a constant factor
                    assert matched_cplx <= k.C1 * (kl + math.log(1 / delta) + k.C3 / k.C1) / m

    def test_inf_kl(self):
        assert bound("matched_catoni", 0.1, math.inf, 100, delta=0.05, c=1.0, c2=0.5) == math.inf


class TestFlatnessBound:
    def test_rate_term_value(self):
        # c=1, h=0.5 gives C = 0.025; rate = 0.16 * (3 kl + log(1/delta) + 5).
        assert flatness_rate_constant(1.0, 0.5) == pytest.approx(0.025, abs=1e-15)
        t = LossTable([[0, 0]])
        s = Sample(np.array([1000, 0]))
        q = ProbMeasure([1.0])
        rep = flatness_bound(q, t, s, 1.0, BoundParams(delta=0.05, c=1.0, h=0.5))
        with mpmath.workdps(50):
            expected = float(mpmath.mpf(4) / (mpmath.mpf("0.025") * 1000)
                             * (3 + mpmath.log(20) + 5))
        assert rep.components["complexity"] == pytest.approx(expected, abs=1e-12)
        assert rep.components["complexity"] == pytest.approx(1.7593, abs=1e-4)

    def test_completely_flat_zero_risk(self):
        t = LossTable([[0, 0], [1, 1]])
        s = Sample(np.array([2, 2]))
        q = ProbMeasure(np.eye(2)[0])
        rep = flatness_bound(q, t, s, 0.3, BoundParams(delta=0.1, c=0.7, h=0.3))
        assert rep.components["empirical"] == 0.0
        assert rep.components["flatness"] == 0.0
        assert rep.value == rep.components["complexity"]

    def test_flatness_term_below_inflated_empirical_under_binary(self, rng):
        dist, table = random_instance(rng, n_h=6, n_z=5)
        s = draw_sample(dist, 50, 21)
        c = 1.3
        for _ in range(10):
            q = random_measure(rng, 6)
            rep = flatness_bound(q, table, s, 0.0, BoundParams(delta=0.05, c=c, h=0.5))
            emp = rep.components["empirical"]
            assert rep.components["flatness"] <= c * emp + 1e-12

    def test_h_one_rejected(self, rng):
        dist, table = random_instance(rng)
        s = draw_sample(dist, 10, 1)
        q = random_measure(rng, table.hypothesis_count)
        with pytest.raises(ValueError):
            flatness_bound(q, table, s, 0.0, BoundParams(delta=0.05, c=1.0, h=1.0))

    def test_inf_kl(self, rng):
        dist, table = random_instance(rng)
        s = draw_sample(dist, 10, 1)
        q = random_measure(rng, table.hypothesis_count)
        params = BoundParams(delta=0.05, c=1.0, h=0.5)
        assert flatness_bound(q, table, s, math.inf, params).value == math.inf

    @pytest.mark.parametrize("c, h", [(5e-324, 0.5), (1.0, 1e-170)], ids=["c-tiny", "h-tiny"])
    def test_a_rate_constant_that_rounds_to_0_is_a_value_error_naming_c_and_h(self, rng, c, h):
        # h^2 c underflows, so C = 2 h^4 c / (1 + 16 h^2 c) rounds to 0 and the
        # bound, which divides by C, is undefined: each entry point says why.
        dist, table = random_instance(rng)
        p = ProbMeasure.uniform(table.hypothesis_count)
        s = draw_sample(dist, 20, 1, size=3)
        params = BoundParams(delta=0.05, c=c, h=h)
        calls = (
            lambda: flatness_rate_constant(c, h),
            lambda: evaluate_bound("flatness", 0.1, 0.1, 20, params, 0.05),
            lambda: minimize_bound("flatness", params, p, table, s),
            lambda: bound_sweep(table, dist, p, lambda prior, table, s: prior, params, [20], 5, 1),
        )
        message = (f"c = {c!r} and h = {h!r} make the flatness rate constant "
                   "C = 2 h^4 c / (1 + 16 h^2 c) round to 0")
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()


class TestLogOverDelta:
    """log(x / delta), the one place the families and crossover_threshold take it."""

    def test_the_one_log_wherever_the_ratio_is_finite(self):
        gen = np.random.default_rng(3)
        deltas = [0.05, 0.5, 0.999, 1e-300] + [10.0 ** gen.uniform(-300, 0) for _ in range(200)]
        for x in (1.0, 4.0, 2.0, 100.0, 10 ** 7):
            for delta in deltas + [x / 1.7e308]:
                assert log_over(x, delta) == math.log(x / delta)

    @pytest.mark.parametrize("x", [1.0, 4.0, 100.0, 10 ** 7])
    @pytest.mark.parametrize("delta", [1e-307, 1e-320, 5e-324])
    def test_the_difference_of_logs_where_the_ratio_overflows(self, x, delta):
        with mpmath.workdps(40):
            exact = mpmath.log(mpmath.mpf(x)) - mpmath.log(mpmath.mpf(delta))
        got = log_over(x, delta)
        assert math.isfinite(got) and abs(got - exact) <= 1e-15 * exact

    def test_outputs_at_ordinary_delta_keep_their_bits(self):
        # Every site gives what math.log(x / delta) gave, at delta = 0.05.
        kl, m, d, p = 0.3, 100, 0.05, BoundParams(delta=0.05)
        k = derive_matched_catoni_constants(p.c, p.c2, d)
        one_log = {
            "mcallester": np.sqrt((kl + math.log(m / d)) / (2.0 * (m - 1))),
            "catoni": (kl + math.log(1.0 / d)) / (m * -math.expm1(-p.C)),
            "kst": 4.5 * np.sqrt(np.maximum(kl, 2.0) / m) + math.sqrt(math.log(1.0 / d) / m),
            "matched_catoni": k.C1 * kl / m + k.C2 * math.log(1.0 / d) / m + k.C3 / m,
            "flatness": (4.0 / (flatness_rate_constant(p.c, p.h) * m)
                         * (3.0 * kl + math.log(1.0 / d) + 5.0)),
        }
        for family, want in one_log.items():
            assert FAMILIES[family].complexity(kl, m, p) == want, family
        cap = 2.0 * 1.5 * (2.0 + k.c_prime) * math.log(4.0 / d) / (1.5 ** 2 / 0.5)
        assert k.provenance["delta_cap"] == cap
        assert crossover_threshold(0.05, 12.0, 2.0, kl, d) == (10.0 * (kl + math.log(1.0 / d))
                                                                 + 12.0) / 0.05


class TestMonotonicityAndReports:
    def test_monotone_in_kl_and_m_and_delta(self):
        kls = (0.0, 1.0, 4.0)
        ms = (50, 500, 5000)
        deltas = (0.01, 0.1, 0.5)
        families = {
            "mcallester": lambda emp, kl, m, d: bound("mcallester", emp, kl, m, delta=d),
            "catoni": lambda emp, kl, m, d: bound("catoni", emp, kl, m, delta=d, C=1.0),
            "kst": lambda emp, kl, m, d: bound("kst", emp, kl, m, delta=d),
            "matched": lambda emp, kl, m, d: bound("matched_catoni", emp, kl, m, delta=d, c=1.0,
                                                   c2=0.5),
        }
        for fn in families.values():
            for m in ms:
                vals = [fn(0.1, kl, m, 0.05) for kl in kls]
                assert vals == sorted(vals)
            for kl in kls:
                vals = [fn(0.1, kl, m, 0.05) - 0.1 for m in ms]
                assert vals == sorted(vals, reverse=True)
                vals = [fn(0.1, kl, 100, d) for d in deltas]
                assert vals == sorted(vals, reverse=True)

    def test_evaluate_bound_report_consistency(self):
        # The value is the sum of the components, exactly.
        for family in FAMILIES:
            flat = 0.05 if FAMILIES[family].needs_sample else None
            rep = evaluate_bound(family, 0.15, 1.2, 400, BoundParams(delta=0.05), flat)
            assert sum(rep.components.values()) == rep.value

    def test_evaluate_bound_empirical_component_is_d_emp_times_emp(self):
        # Catoni's empirical share is C emp / (1 - e^{-C}), also when C != 1.
        C, emp = 1.5, 0.15
        rep = evaluate_bound("catoni", emp, 1.2, 400, BoundParams(C=C))
        assert rep.components["empirical"] == pytest.approx(C * emp / (1 - math.exp(-C)),
                                                            rel=1e-14)
        rep = evaluate_bound("matched_catoni", emp, 1.2, 400, BoundParams(c=2.0))
        assert rep.components["empirical"] == pytest.approx(3.0 * emp, rel=1e-14)

    def test_evaluate_bound_rejects_flatness(self):
        with pytest.raises(ValueError):
            evaluate_bound("flatness", 0.1, 0.5, 100, BoundParams())

    def test_evaluate_bound_takes_a_flatness_value_for_flatness_only(self):
        with pytest.raises(ValueError, match="takes no flatness value"):
            evaluate_bound("catoni", 0.1, 0.5, 100, BoundParams(), 0.05)
        with pytest.raises(ValueError, match="unknown bound family"):
            evaluate_bound("bogus", 0.1, 0.5, 100, BoundParams())

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_every_report_has_the_three_components(self, family):
        flat = np.array([0.05, 0.05]) if FAMILIES[family].needs_sample else None
        kl = np.array([1.2, math.inf])
        rep = evaluate_bound(family, np.array([0.15, 0.15]), kl, 400, BoundParams(), flat)
        assert list(rep.components) == ["empirical", "flatness", "complexity"]
        comp = {name: np.broadcast_to(v, kl.shape) for name, v in rep.components.items()}
        assert comp["flatness"][0] == (0.0 if flat is None else BoundParams().c * flat[0])
        # The infinite value puts all of itself in complexity.
        assert np.isinf(rep.value[1]) and np.isinf(comp["complexity"][1])
        assert comp["empirical"][1] == comp["flatness"][1] == 0.0

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_a_gibbs_risk_rounded_above_1_is_evaluated(self, family):
        # Weights that sum to 1 + 3e-13, which ProbMeasure accepts, on a table of
        # ones give an empirical Gibbs risk of 1 + 3e-13: its bound is evaluated.
        q = ProbMeasure([1 / 3, 1 / 3, 1 / 3 + 3e-13])
        table, s = LossTable(np.ones((3, 2))), Sample(np.array([4, 6]))
        emp = s.mean(gibbs_losses(q, table, s))
        assert emp > 1.0
        rep = evaluate_posterior_bound(family, BoundParams(), q, ProbMeasure.uniform(3), table, s)
        assert np.isfinite(rep.value) and rep.components["empirical"] >= emp

    def test_flatness_bound_is_evaluate_bound_at_the_posterior(self, rng):
        dist, table = random_instance(rng, n_h=6, n_z=5)
        s, q = draw_sample(dist, 40, 3), random_measure(rng, 6)
        params = BoundParams(delta=0.1, c=1.5, h=0.4)
        rep = flatness_bound(q, table, s, 0.7, params)
        direct = evaluate_bound("flatness", s.mean(gibbs_losses(q, table, s)), 0.7, s.m, params,
                                flatness(q, table, s, 0.4))
        assert rep.value == direct.value
        assert rep.components == direct.components


class TestReads:
    # A value other than the default for each BoundParams field.
    CHANGED = {"delta": 0.1, "C": 2.0, "c": 2.0, "c2": 0.3, "h": 0.7}

    @staticmethod
    def evaluate(family, params, rng):
        """(value, d_emp, d_kl, derived) of the family at params; kl straddles
        kst's kink at 2, and flatness is evaluated at a posterior by flatness_bound."""
        fam, kl, m = FAMILIES[family], np.array([0.5, 3.0]), 100
        if fam.needs_sample:
            dist, table = random_instance(rng)
            q, s = random_measure(rng, table.hypothesis_count), draw_sample(dist, m, 1)
            value = flatness_bound(q, table, s, kl, params).value
        else:
            value = evaluate_bound(family, 0.2, kl, m, params).value
        derived = None if fam.derived is None else fam.derived(params)
        return value, fam.d_emp(params), fam.d_kl(kl, m, params), derived

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_a_family_depends_on_the_fields_it_reads_only(self, family):
        base = self.evaluate(family, BoundParams(), np.random.default_rng(7))
        assert set(FAMILIES[family].reads) <= set(self.CHANGED)
        for field, value in self.CHANGED.items():
            params = BoundParams(**{field: value})
            changed = self.evaluate(family, params, np.random.default_rng(7))
            if field in FAMILIES[family].reads:
                assert not np.array_equal(changed[0], base[0]), field
            else:
                for new, old in zip(changed, base):
                    assert np.array_equal(new, old), field
