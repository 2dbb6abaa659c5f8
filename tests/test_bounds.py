import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from pacbayes import (BoundParams, LossTable, ProbMeasure, Sample,
                      catoni_bound, catoni_C_for_inflation, catoni_prefactor,
                      derive_matched_catoni_constants, draw_sample,
                      flatness_bound, kst_bound, matched_catoni_bound,
                      mcallester_bound)
from pacbayes.bounds import BoundReport, evaluate_bound, flatness_rate_constant

from conftest import random_instance, random_measure


def mp_logcosh_root(target):
    # Bisection oracle independent of the implementation: brentq on a
    # 50-digit log(cosh(x))/x.
    with mpmath.workdps(50):
        fn = lambda x: float(mpmath.log(mpmath.cosh(x)) / x - target)
        return brentq(fn, 1e-8, 10.0, xtol=1e-13)


class TestMcAllester:
    def test_monotone_in_delta(self):
        vals = [mcallester_bound(0.2, 0.5, 100, d) for d in (0.1, 0.5, 0.9)]
        assert vals[0] > vals[1] > vals[2]

    def test_high_precision_value(self):
        with mpmath.workdps(50):
            expected = float(mpmath.mpf("0.1") + mpmath.sqrt(
                (2 + mpmath.log(100 / mpmath.mpf("0.05"))) / (2 * 99)))
        assert mcallester_bound(0.1, 2.0, 100, 0.05) == pytest.approx(expected, abs=1e-14)
        assert mcallester_bound(0.1, 2.0, 100, 0.05) == pytest.approx(0.32020, abs=1e-5)

    def test_vanishing_limit(self):
        assert mcallester_bound(0.0, 0.0, 10 ** 8, 0.05) < 1e-3

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            mcallester_bound(0.1, 0.0, 1, 0.05)

    def test_inf_kl_propagates(self):
        assert mcallester_bound(0.1, math.inf, 100, 0.05) == math.inf


class TestCatoni:
    def test_high_precision_value(self):
        with mpmath.workdps(50):
            expected = float((mpmath.mpf("0.1") + (2 + mpmath.log(20)) / 100)
                             / (1 - mpmath.exp(-1)))
        assert catoni_bound(0.1, 2.0, 100, 0.05, 1.0) == pytest.approx(expected, abs=1e-14)
        assert catoni_bound(0.1, 2.0, 100, 0.05, 1.0) == pytest.approx(0.23723, abs=1e-5)

    def test_prefactor_limit_to_one(self):
        assert abs(catoni_prefactor(1e-6) - 1.0) < 1e-5

    def test_prefactor_identity_at_one(self):
        assert catoni_prefactor(1.0) == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), abs=1e-12)

    def test_inf_kl_propagates(self):
        assert catoni_bound(0.1, math.inf, 100, 0.05, 1.0) == math.inf

    def test_nonpositive_C_rejected(self):
        with pytest.raises(ValueError):
            catoni_bound(0.1, 0.0, 100, 0.05, 0.0)

    def test_bounded_below_by_inflated_empirical(self):
        for C in (0.3, 1.0, 4.0):
            emp = 0.4
            assert catoni_bound(emp, 0.0, 10 ** 6, 0.5, C) >= emp * catoni_prefactor(C) * C / C

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
        assert kst_bound(0.0, 0.0, 100, 0.05) == pytest.approx(expected, abs=1e-14)
        assert kst_bound(0.0, 0.0, 100, 0.05) == pytest.approx(0.80948, abs=1e-5)

    def test_max_clamp(self):
        assert kst_bound(0.1, 1.0, 200, 0.1) == kst_bound(0.1, 2.0, 200, 0.1)

    def test_sqrt_scaling(self):
        b1 = kst_bound(0.0, 3.0, 100, 0.05)
        b4 = kst_bound(0.0, 3.0, 400, 0.05)
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

    def test_constraint_provenance(self):
        k = derive_matched_catoni_constants(2.0, 0.3, 0.2)
        assert k.provenance["logcosh_constraint_value"] <= k.provenance["logcosh_constraint_target"] + 1e-12
        assert k.lambda_over_m <= k.provenance["delta_cap"]


class TestMatchedCatoniBound:
    def test_compose_with_constants(self):
        k = derive_matched_catoni_constants(1.0, 0.5, 0.05)
        emp = 0.2
        got = matched_catoni_bound(emp, 0.0, 10 ** 4, 0.05, 1.0, 0.5)
        expected = 2.0 * emp + (k.C2 * math.log(20.0) + k.C3) / 10 ** 4
        assert got == pytest.approx(expected, rel=1e-12)

    def test_inverse_m_scaling(self):
        b1 = matched_catoni_bound(0.0, 0.0, 1000, 0.05, 1.0, 0.5)
        b2 = matched_catoni_bound(0.0, 0.0, 2000, 0.05, 1.0, 0.5)
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
        assert matched_catoni_bound(0.1, math.inf, 100, 0.05, 1.0, 0.5) == math.inf


class TestFlatnessBound:
    def test_rate_term_value(self):
        # c=1, h=0.5 gives C = 0.025; rate = 0.16 * (3 kl + log(1/delta) + 5).
        assert flatness_rate_constant(1.0, 0.5) == pytest.approx(0.025, abs=1e-15)
        t = LossTable([[0, 0]])
        s = Sample(np.array([1000, 0]))
        q = ProbMeasure([1.0])
        rep = flatness_bound(q, t, s, kl=1.0, delta=0.05, c=1.0, h=0.5)
        with mpmath.workdps(50):
            expected = float(mpmath.mpf(4) / (mpmath.mpf("0.025") * 1000)
                             * (3 + mpmath.log(20) + 5))
        assert rep.components["rate"] == pytest.approx(expected, abs=1e-12)
        assert rep.components["rate"] == pytest.approx(1.7593, abs=1e-4)

    def test_completely_flat_zero_risk(self):
        t = LossTable([[0, 0], [1, 1]])
        s = Sample(np.array([2, 2]))
        q = ProbMeasure.point_mass(2, 0)
        rep = flatness_bound(q, t, s, kl=0.3, delta=0.1, c=0.7, h=0.3)
        assert rep.components["empirical"] == 0.0
        assert rep.components["flatness"] == 0.0
        assert rep.value == rep.components["rate"]

    def test_flatness_term_below_inflated_empirical_under_binary(self, rng):
        dist, table = random_instance(rng, n_h=6, n_z=5)
        s = draw_sample(dist, 50, 21)
        c = 1.3
        for _ in range(10):
            q = random_measure(rng, 6)
            rep = flatness_bound(q, table, s, kl=0.0, delta=0.05, c=c, h=0.5)
            emp = rep.components["empirical"]
            assert rep.components["flatness"] <= c * emp + 1e-12

    def test_h_one_rejected(self, rng):
        dist, table = random_instance(rng)
        s = draw_sample(dist, 10, 1)
        q = random_measure(rng, table.hypothesis_count)
        with pytest.raises(ValueError):
            flatness_bound(q, table, s, 0.0, 0.05, 1.0, 1.0)

    def test_inf_kl(self, rng):
        dist, table = random_instance(rng)
        s = draw_sample(dist, 10, 1)
        q = random_measure(rng, table.hypothesis_count)
        assert flatness_bound(q, table, s, math.inf, 0.05, 1.0, 0.5).value == math.inf


class TestMonotonicityAndReports:
    def test_monotone_in_kl_and_m_and_delta(self):
        kls = (0.0, 1.0, 4.0)
        ms = (50, 500, 5000)
        deltas = (0.01, 0.1, 0.5)
        families = {
            "mcallester": lambda emp, kl, m, d: mcallester_bound(emp, kl, m, d),
            "catoni": lambda emp, kl, m, d: catoni_bound(emp, kl, m, d, 1.0),
            "kst": lambda emp, kl, m, d: kst_bound(emp, kl, m, d),
            "matched": lambda emp, kl, m, d: matched_catoni_bound(emp, kl, m, d, 1.0, 0.5),
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

    def test_report_reconstruction_enforced(self):
        with pytest.raises(ValueError):
            BoundReport(family="catoni", value=1.0, components={"empirical": 0.2, "complexity": 0.3})

    def test_evaluate_bound_report_consistency(self):
        for family in ("mcallester", "catoni", "kst", "matched_catoni"):
            rep = evaluate_bound(family, 0.15, 1.2, 400, BoundParams(delta=0.05))
            assert sum(rep.components.values()) == pytest.approx(rep.value, rel=1e-12)

    def test_evaluate_bound_empirical_component_is_d_emp_times_emp(self):
        # Catoni's empirical share is C emp / (1 - e^{-C}), also when C != 1.
        C, emp = 1.5, 0.15
        rep = evaluate_bound("catoni", emp, 1.2, 400, BoundParams(catoni_C=C))
        assert rep.components["empirical"] == pytest.approx(C * emp / (1 - math.exp(-C)),
                                                            rel=1e-14)
        rep = evaluate_bound("matched_catoni", emp, 1.2, 400, BoundParams(c=2.0))
        assert rep.components["empirical"] == pytest.approx(3.0 * emp, rel=1e-14)

    def test_evaluate_bound_rejects_flatness(self):
        with pytest.raises(ValueError):
            evaluate_bound("flatness", 0.1, 0.5, 100, BoundParams())
