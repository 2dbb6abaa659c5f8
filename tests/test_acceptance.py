"""Acceptance gate: one test per release criterion, each printing a single
PASS line with its measured quantity (visible under pytest -s or on failure).

All randomness is seeded; every criterion is oracle- or property-based and
runs at desk scale.
"""

import functools
import math
import time

import mpmath
import numpy as np
import pytest

from pacbayes import (BoundParams, DataDistribution, LossTable, ProbMeasure,
                      bound_sweep, catoni_C_for_inflation, catoni_prefactor,
                      coverage_experiment, crossover_threshold,
                      debias_mgf_exact, derive_matched_catoni_constants,
                      draw_sample, flatness, flatness_alternate,
                      gibbs_empirical_risk, gibbs_posterior, kl_ball_sup, kl_dual_value,
                      lemma_a3_threshold, shifted_flatness_tail_mc, xy_cap,
                      xy_mgf_bruteforce)
from pacbayes.bounds import flatness_rate_constant, log_cosh_over_x
from pacbayes.cli import main

from conftest import flatness_double_sum, random_instance, random_measure


def report(num, label, ok, detail):
    print(f"[{num:>2}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_01_flatness_identity():
    t0 = time.perf_counter()
    gen = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n_h = int(gen.integers(2, 21))
        n_z = int(gen.integers(2, 11))
        dist, table = random_instance(gen, n_h=n_h, n_z=n_z, binary=True)
        q = random_measure(gen, n_h)
        s = draw_sample(dist, int(gen.integers(2, 51)), int(gen.integers(1 << 30)))
        for h in (0.1, 0.5, 0.9):
            alternate = flatness_alternate(q, table, s, h)
            worst = max(worst, abs(flatness(q, table, s, h) - alternate),
                        abs(flatness_double_sum(q, table, s, h) - alternate))
    elapsed = time.perf_counter() - t0
    report(1, "flatness identity on binary loss",
           worst <= 1e-9 and elapsed < 1.0,
           f"max gap {worst:.2e}, {elapsed:.2f}s")


def test_02_completely_flat_point_mass():
    gen = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        dist, table = random_instance(gen, n_h=6, n_z=5, binary=True)
        f = int(gen.integers(6))
        q = ProbMeasure.point_mass(6, f)
        s = draw_sample(dist, 30, int(gen.integers(1 << 30)))
        emp = gibbs_empirical_risk(q, table, s)
        for h in (0.1, 0.5, 0.9, 1.0):
            worst = max(worst, abs(flatness(q, table, s, h) - h * h * emp))
    report(2, "point-mass flatness equals h^2 * empirical risk",
           worst <= 1e-12, f"max gap {worst:.2e}")


def test_03_catoni_prefactor_oracle():
    worst = 0.0
    with mpmath.workdps(50):
        for C in (1e-6, 0.1, 1.0, 5.0):
            oracle = float(mpmath.mpf(C) / (1 - mpmath.e ** (-mpmath.mpf(C))))
            worst = max(worst, abs(catoni_prefactor(C) - oracle))
    limit_gap = abs(catoni_prefactor(1e-6) - 1.0)
    report(3, "Catoni prefactor vs high-precision oracle",
           worst <= 1e-10 and limit_gap <= 1e-5,
           f"max gap {worst:.2e}, limit gap {limit_gap:.2e}")


def test_04_kl_ball_duality():
    t0 = time.perf_counter()
    gen = np.random.default_rng(104)
    grid = np.logspace(-2, 9, 120)
    worst = 0.0
    for _ in range(50):
        p = random_measure(gen, 10)
        v = gen.random(10)
        for kappa in (0.1, 1.0, 3.0):
            worst = max(worst, abs(kl_dual_value(p, v, kappa, grid)
                                   - kl_ball_sup(p, v, kappa)))
    elapsed = time.perf_counter() - t0
    report(4, "KL-ball primal/dual agreement",
           worst <= 1e-6 and elapsed < 5.0,
           f"max gap {worst:.2e}, {elapsed:.2f}s")


def test_05_debias_mgf():
    gen = np.random.default_rng(105)
    worst = -math.inf
    count = 0
    for _ in range(10):
        dist, table = random_instance(gen, n_h=5, n_z=4, binary=True)
        p = random_measure(gen, 5)
        for x in (0.05, 0.3, 0.8, 1.5, 3.0):
            boundary = log_cosh_over_x(x)
            for k in (boundary, boundary + 0.1, 1.0, 2.0):
                worst = max(worst, debias_mgf_exact(p, table, dist, x, k, 25))
                count += 1
    report(5, "debias MGF stays at or below one above the threshold",
           count == 200 and worst <= 1.0 + 1e-12,
           f"{count} combos, max value {worst:.15f}")


def test_06_xy_mgf_exhaustive():
    t0 = time.perf_counter()
    c = 1.0
    worst = -math.inf
    count = 0
    for h in (0.25, 0.5, 1.0):
        c2 = h * h * c / (1.0 + 16.0 * h * h * c)
        cap = xy_cap(c, c2, h)
        for m in range(1, 7):
            for mu in np.ndindex(*([3] * m)):
                mu_vec = [x / 2.0 for x in mu]
                for x in (0.5 * cap, 0.99 * cap):
                    worst = max(worst, xy_mgf_bruteforce(mu_vec, x, c, c2, h))
                    count += 1
    elapsed = time.perf_counter() - t0
    report(6, "two-sided multiplier MGF stays at or below one",
           worst <= 1.0 + 1e-12 and elapsed < 30.0,
           f"{count} combos, max value {worst:.15f}, {elapsed:.1f}s")


def test_07_shifted_flatness_tail():
    gen = np.random.default_rng(107)
    ok = True
    details = []
    for i in range(10):
        dist, table = random_instance(gen, n_h=4, n_z=5, binary=True)
        m = int(gen.integers(20, 80))
        c2 = float(gen.uniform(0.2, 0.8))
        h = float(gen.uniform(0.3, 0.9))
        t = lemma_a3_threshold(m, c2, h)
        est = shifted_flatness_tail_mc(table, int(gen.integers(4)), dist, m, c2, h,
                                       t, trials=10 ** 4, seed=7000 + i)
        ok = ok and est.probability <= 0.5 + est.wilson_halfwidth
        details.append(est.probability)
    report(7, "shifted quadratic tail at the threshold is below one half",
           ok, f"max freq {max(details):.4f}")


gibbs_rule = functools.partial(gibbs_posterior, beta=1.0)


def _coverage_instances():
    gen = np.random.default_rng(108)
    out = []
    for _ in range(3):
        dist, table = random_instance(gen, n_h=5, n_z=4, binary=True)
        out.append((dist, table, ProbMeasure.uniform(5)))
    return out


def test_08_coverage_soundness():
    t0 = time.perf_counter()
    params = BoundParams(delta=0.05, catoni_C=1.0, c=1.0, h=0.5)
    worst_cp = 0.0
    total_viol = 0
    for fam in ("mcallester", "catoni", "kst", "matched_catoni", "flatness"):
        for k, (dist, table, prior) in enumerate(_coverage_instances()):
            rep = coverage_experiment(table, dist, prior, gibbs_rule, fam, params, m=100,
                                      trials=1000, seed=8000 + k)
            worst_cp = max(worst_cp, rep.clopper_pearson_upper)
            total_viol += rep.violations
    elapsed = time.perf_counter() - t0
    report(8, "1000-trial coverage for all five families at delta = 0.05",
           worst_cp <= 0.05 and elapsed < 120.0,
           f"worst CP upper {worst_cp:.4f}, {total_viol} violations, {elapsed:.0f}s")


def test_09_fast_vs_slow_rate():
    # low-risk instance: the posterior sits on a hypothesis with risk 0.01
    table = LossTable([[1, 0], [1, 1]])
    dist = DataDistribution([0.01, 0.99])
    prior = ProbMeasure.uniform(2)
    q = ProbMeasure.point_mass(2, 0)
    kw = dict(rule=lambda prior, table, s: q, m=10 ** 4, trials=100, seed=9)
    cat = coverage_experiment(table, dist, prior, family="catoni",
                              params=BoundParams(delta=0.05, catoni_C=1.0), **kw)
    mca = coverage_experiment(table, dist, prior, family="mcallester",
                              params=BoundParams(delta=0.05), **kw)
    report(9, "Catoni slack beats the square-root bound at small risk",
           cat.mean_slack < mca.mean_slack,
           f"catoni {cat.mean_slack:.4f} < mcallester {mca.mean_slack:.4f}")


def test_10_derived_constants():
    k = derive_matched_catoni_constants(1.0, 0.5, 0.05)
    lam_ok = abs(k.lambda_over_m - 0.2896) / 0.2896 <= 1e-3
    C_ok = abs(k.C_big - 24.17) / 24.17 <= 1e-3
    dist, table, prior = _coverage_instances()[0]
    rep = coverage_experiment(table, dist, prior, gibbs_rule, "matched_catoni",
                              BoundParams(delta=0.05, c=1.0, c2=0.5),
                              m=100, trials=1000, seed=8100)
    report(10, "matched-Catoni constants and soundness",
           lam_ok and C_ok and rep.clopper_pearson_upper <= 0.05,
           f"lambda/m {k.lambda_over_m:.5f}, C {k.C_big:.4f}, "
           f"CP upper {rep.clopper_pearson_upper:.4f}")


def test_11_crossover():
    t0 = time.perf_counter()
    # near-flat instance: point-mass posterior (completely flat) with
    # nonzero risk 0.3; uniform prior over 5 hypotheses gives kl = log 5
    table = LossTable([[1, 0]] * 5)
    dist = DataDistribution([0.3, 0.7])
    prior = ProbMeasure.uniform(5)
    q = ProbMeasure.point_mass(5, 0)
    c, h, delta = 1.0, 0.9, 0.05
    res = bound_sweep(table, dist, prior, lambda prior, table, s: q, c, h, delta,
                      m_grid=(1000, 2000, 5000, 10000, 20000, 40000),
                      trials=20, seed=11)
    finite = math.isfinite(res.crossover_m)
    ok = finite
    detail = "no crossover on the grid"
    if finite:
        row = next(r for r in res.rows if r.m == res.crossover_m)
        C_r = 12.0 / flatness_rate_constant(c, h)
        C_c = (1.0 + c) / catoni_C_for_inflation(c)
        pred = crossover_threshold(row.T_m_mean, C_r, C_c, row.kl_mean, delta)
        ratio = res.crossover_m / pred
        ok = 0.25 <= ratio <= 4.0
        detail = (f"m* = {res.crossover_m:.0f}, schematic {pred:.0f}, "
                  f"ratio {ratio:.2f}")
    elapsed = time.perf_counter() - t0
    report(11, "flatness bound overtakes Catoni at a predictable sample size",
           ok and elapsed < 120.0, f"{detail}, {elapsed:.0f}s")


def test_12_csv_determinism(tmp_path):
    inst = tmp_path / "inst.txt"
    assert main(["--log", str(tmp_path / "log.jsonl"), "gen-instance",
                 "--seed", "12", "--hypotheses", "5", "--points", "4",
                 "--out", str(inst)]) == 0
    commands = {
        "coverage": ["coverage", "--family", "catoni", "--instance", str(inst),
                     "--trials", "100", "--m", "30", "--seed", "3"],
        "sweep": ["sweep", "--instance", str(inst), "--m-grid", "10,100",
                  "--trials", "3", "--seed", "4"],
        "optimize": ["optimize", "--family", "kst", "--instance", str(inst),
                     "--m", "40", "--seed", "5"],
        "bounds": ["bounds", "--family", "flatness", "--instance", str(inst),
                   "--m", "40", "--seed", "6"],
        "lemmas": ["lemmas", "--which", "shifted-flatness", "--instance",
                   str(inst), "--m", "30", "--trials", "500", "--seed", "7"],
    }
    ok = True
    for name, argv in commands.items():
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        main(["--log", str(tmp_path / "log.jsonl")] + argv + ["--out", str(a)])
        main(["--log", str(tmp_path / "log.jsonl")] + argv + ["--out", str(b)])
        if a.exists() or b.exists():
            ok = ok and a.read_bytes() == b.read_bytes()
    # gen-instance output is itself a deterministic artifact
    inst2 = tmp_path / "inst2.txt"
    main(["--log", str(tmp_path / "log.jsonl"), "gen-instance", "--seed", "12",
          "--hypotheses", "5", "--points", "4", "--out", str(inst2)])
    ok = ok and inst.read_bytes() == inst2.read_bytes()
    report(12, "stochastic subcommands are byte-identical per seed", ok,
           f"{len(commands)} subcommands + instance generator")
