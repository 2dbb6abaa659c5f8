import builtins
import dataclasses
import fractions
import functools
import io
import json
import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from pacbayes import (FAMILIES, BoundParams, ProbMeasure, Sample, bound_sweep, cli,
                      coverage_experiment, derive_matched_catoni_constants, draw_sample,
                      gibbs_posterior, minimize_bound, posterior_opt, verify)
from pacbayes.cli import POSTERIOR_RULES, duality_tolerance, main
from pacbayes.core import true_risks
from pacbayes.io import csv_text, fmt, load_instance, write_csv
from pacbayes.processes import TailEstimate, kl_dual_value

from conftest import strict_json

INSTANCE = """\
space: 0.2 0.3 0.5
losses:
1 0 1
0 1 0
1 1 0
0 0 1
binary: true
prior: 0.25 0.25 0.25 0.25
posterior: 0.7 0.1 0.1 0.1
"""

NO_POSTERIOR = INSTANCE.replace("posterior: 0.7 0.1 0.1 0.1\n", "")

# A debias lemma run that is complete as it stands.
DEBIAS = ["lemmas", "--which", "debias", "--instance", "INST", "--m", "5", "--lambda-over-m", "0.5"]

ZERO_LOSS = """\
space: 0.5 0.5
losses:
0 0
0 0
binary: true
"""


@pytest.fixture
def inst_file(tmp_path):
    p = tmp_path / "inst.txt"
    p.write_text(INSTANCE)
    return str(p)


@pytest.fixture
def log_file(tmp_path):
    return str(tmp_path / "runs.jsonl")


def run(argv, log):
    return main(["--log", log] + argv)


def printed_row(out, row=0):
    """Row `row` of the table that opens stdout, as {column: text}."""
    lines = out.splitlines()
    return dict(zip(lines[0].split(","), lines[1 + row].split(",")))


class TestBounds:
    def test_closed_form_mcallester(self, capsys, log_file):
        code = run(["bounds", "--family", "mcallester", "--emp", "0.1",
                    "--kl", "0.13081203594113694", "--m", "100", "--delta", "0.05"],
                   log_file)
        assert code == 0
        value = float(printed_row(capsys.readouterr().out)["value"])
        assert value == pytest.approx(0.1 + math.sqrt(
            (0.13081203594113694 + math.log(100 / 0.05)) / (2 * 99)), abs=1e-12)

    @pytest.mark.parametrize("family, delta", [("mcallester", "1e-307"), ("catoni", "5e-324")])
    def test_a_tiny_delta_gives_a_finite_certificate(self, family, delta, capsys, log_file):
        # m / delta and 1 / delta overflow here; the certificate is finite.
        code = run(["bounds", "--family", family, "--emp", "0.1", "--kl", "0.1", "--m", "100",
                    "--delta", delta], log_file)
        assert code == 0
        value = float(printed_row(capsys.readouterr().out)["value"])
        with mpmath.workdps(40):
            emp, kl, d = mpmath.mpf("0.1"), mpmath.mpf("0.1"), mpmath.mpf(float(delta))
            exact = (emp + mpmath.sqrt((kl + mpmath.log(100 / d)) / 198) if family == "mcallester"
                     else (emp + (kl - mpmath.log(d)) / 100) / -mpmath.expm1(-1))
        assert math.isfinite(value) and abs(value - exact) <= 1e-14 * exact

    def test_csv_output(self, tmp_path, log_file):
        out = tmp_path / "b.csv"
        code = run(["bounds", "--family", "kst", "--emp", "0.2", "--kl", "1.0",
                    "--m", "50", "--out", str(out)], log_file)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family,value,emp_term,complexity_term,flatness_term,C_derived"
        assert lines[1].startswith("kst,")

    def test_flatness_needs_instance(self, log_file):
        assert run(["bounds", "--family", "flatness", "--emp", "0.1",
                    "--kl", "0.5", "--m", "10"], log_file) == 2

    def test_flatness_instance_mode(self, capsys, inst_file, log_file):
        code = run(["bounds", "--family", "flatness", "--instance", inst_file,
                    "--m", "40", "--seed", "3", "--h", "0.5"], log_file)
        assert code == 0
        row = printed_row(capsys.readouterr().out)
        # The flatness family reports its rate (as complexity_term) and its flatness term.
        assert row["family"] == "flatness"
        assert float(row["complexity_term"]) > 0 and float(row["flatness_term"]) > 0

    def test_bad_C_is_named_as_its_flag(self, capsys, log_file):
        assert run(["bounds", "--family", "catoni", "--emp", "0.1", "--kl", "0.1",
                    "--m", "10", "--C", "0"], log_file) == 2
        assert capsys.readouterr().err == "error: C must be positive and finite\n"

    def test_bound_flags_are_the_bound_params_fields(self):
        names = {f.name for f in dataclasses.fields(BoundParams)}
        assert set().union(*cli.FAMILY_FLAGS.values()) == names
        for command in ("bounds", "coverage", "optimize"):
            flags = {a.dest for a in cli._SUBPARSERS[command]._actions
                     if a.option_strings == [f"--{a.dest}"]}
            assert names <= flags, command

    def test_matched_catoni_root_above_ten(self, capsys, log_file):
        assert run(["bounds", "--family", "matched_catoni", "--emp", "0.1", "--kl", "1",
                    "--m", "100", "--c", "30", "--c2", "0.1"], log_file) == 0
        row = printed_row(capsys.readouterr().out)
        assert float(row["C_derived"]) == derive_matched_catoni_constants(30.0, 0.1, 0.05).C_big

    def test_matched_catoni_c_prime_too_small(self, capsys, log_file):
        assert run(["bounds", "--family", "matched_catoni", "--emp", "0.1", "--kl", "1",
                    "--m", "100", "--c", "1e-323", "--c2", "5e-324"], log_file) == 2
        err = capsys.readouterr().err
        assert "c' = (c - c2)/(1 + c2)" in err and "overflowed" not in err

    def test_matched_catoni_c_prime_too_large(self, capsys, log_file):
        assert run(["bounds", "--family", "matched_catoni", "--emp", "0.1", "--kl", "1",
                    "--m", "100", "--c", "1e300", "--c2", "0.1"], log_file) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: c' = (c - c2)/(1 + c2)") and "rounds to 1" in line

    @pytest.mark.parametrize("c, c2, kl", [("1", "1e-310", "1"),
                                           ("1.0000000000000002e-300", "1e-300", "0")])
    def test_matched_catoni_c2_so_small_that_C_is_not_finite(self, c, c2, kl, capsys, log_file):
        assert run(["bounds", "--family", "matched_catoni", "--emp", "0.1", "--kl", kl,
                    "--m", "100", "--c", c, "--c2", c2], log_file) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and f"c2 = {c2}" in line and "overflowed" not in line

    def test_subnormal_prior_weight_gives_a_finite_bound(self, tmp_path, capsys, log_file):
        # KL(Q || P) with P = (1, 1e-310) is about 356.2; its ratio q / p overflows.
        inst = tmp_path / "sub.txt"
        inst.write_text("space: 0.5 0.5\nlosses:\n1 0\n0 1\nprior: 1 1e-310\n"
                        "posterior: 0.5 0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["bounds", "--family", "catoni", "--instance", str(inst), "--m", "20",
                        "--seed", "1"], log_file) == 0
        assert math.isfinite(float(printed_row(capsys.readouterr().out)["value"]))

    def test_missing_closed_form_args(self, log_file):
        assert run(["bounds", "--family", "catoni", "--emp", "0.1"], log_file) == 2

    def test_unknown_family_rejected_by_argparse(self, log_file):
        assert run(["bounds", "--family", "bogus", "--emp", "0.1", "--kl", "0",
                    "--m", "10"], log_file) == 2
        (rec,) = [json.loads(line) for line in open(log_file).read().splitlines()]
        assert rec["exit_code"] == 2


class TestCoverage:
    def test_requires_seed(self, inst_file, log_file):
        assert run(["coverage", "--family", "kst", "--instance", inst_file],
                   log_file) == 2

    def test_zero_loss_pass(self, tmp_path, capsys, log_file):
        p = tmp_path / "zero.txt"
        p.write_text(ZERO_LOSS)
        code = run(["coverage", "--family", "mcallester", "--instance", str(p),
                    "--trials", "100", "--m", "10", "--seed", "1"], log_file)
        assert code == 0
        out = capsys.readouterr().out
        assert printed_row(out)["violations"] == "0"
        assert out.splitlines()[-1] == "PASS"

    @pytest.mark.parametrize("above", [False, True])
    def test_verdict_is_cp_upper_at_most_delta(self, above, capsys, inst_file, log_file,
                                               monkeypatch):
        delta = 0.05
        cp = math.nextafter(delta, 1.0) if above else delta
        monkeypatch.setattr(cli, "coverage_experiment",
                            lambda *a: verify.CoverageReport(100, 3, cp, 0.1))
        code = run(["coverage", "--family", "catoni", "--instance", inst_file, "--trials", "100",
                    "--seed", "2", "--delta", str(delta)], log_file)
        out = capsys.readouterr().out
        assert float(printed_row(out)["cp_upper"]) == cp
        assert code == (1 if above else 0)
        assert out.splitlines()[-1] == ("FAIL" if above else "PASS")

    def test_csv_and_log(self, tmp_path, inst_file, log_file):
        out = tmp_path / "cov.csv"
        code = run(["coverage", "--family", "catoni", "--instance", inst_file,
                    "--trials", "100", "--m", "30", "--seed", "2",
                    "--out", str(out)], log_file)
        assert code == 0
        assert out.read_text().splitlines()[0] == \
            "family,trials,violations,cp_upper,mean_slack"
        rec = json.loads(open(log_file).read().splitlines()[-1])
        assert rec["command"] == "coverage"
        assert rec["seed"] == 2

    def test_bound_minimizer_rule_is_minimize_bound(self, tmp_path, inst_file, log_file):
        out, expected = tmp_path / "cov.csv", tmp_path / "expected.csv"
        assert run(["coverage", "--family", "catoni", "--instance", inst_file,
                    "--trials", "60", "--m", "30", "--seed", "2", "--rule", "bound-minimizer",
                    "--out", str(out)], log_file) == 0
        inst = load_instance(inst_file)
        params = BoundParams()

        def rule(prior, table, block):
            # One minimize_bound call per sample of the block.
            return ProbMeasure([minimize_bound("catoni", params, prior, table, s).weights
                                for s in map(Sample, block.counts)])

        rep = coverage_experiment(inst.table, inst.dist, inst.prior, rule,
                                  "catoni", params, m=30, trials=60, seed=2)
        write_csv(expected, ["family", "trials", "violations", "cp_upper", "mean_slack"],
                  [["catoni", rep.trials, rep.violations, rep.clopper_pearson_upper,
                    rep.mean_slack]])
        assert out.read_bytes() == expected.read_bytes()

    def test_bound_minimizer_evaluates_each_block_once(self, inst_file, log_file, monkeypatch):
        # The rule returns Q alone: coverage_experiment evaluates the bound at
        # it once per block, and minimize_bound's own evaluations are of its
        # (start, sample) rows, never of the block it was given.
        blocks, evaluated = [], []
        minimize, evaluate = cli.minimize_bound, posterior_opt.evaluate_posterior_bound

        def recording_minimize(family, params, p, table, s, *rest):
            blocks.append(s)
            return minimize(family, params, p, table, s, *rest)

        def recording_evaluate(family, params, q, p, table, s, *rest):
            evaluated.append(s)
            return evaluate(family, params, q, p, table, s, *rest)

        monkeypatch.setattr(cli, "minimize_bound", recording_minimize)
        for module in (posterior_opt, verify):
            monkeypatch.setattr(module, "evaluate_posterior_bound", recording_evaluate)
        assert run(["coverage", "--family", "catoni", "--instance", inst_file,
                    "--trials", "1500", "--m", "30", "--seed", "2",
                    "--rule", "bound-minimizer"], log_file) == 0
        assert len(blocks) == 2
        assert [sum(s is block for s in evaluated) for block in blocks] == [1, 1]

    def test_mean_slack_of_slacks_whose_sum_overflows(self, tmp_path, capsys, log_file,
                                                      monkeypatch):
        # At c = 1e-308 each flatness bound is about 1.7e307, so fsum of the 60
        # slacks overflows; their mean is finite, and is the exact mean rounded.
        inst = str(tmp_path / "small.txt")
        assert run(["gen-instance", "--hypotheses", "8", "--points", "5", "--seed", "1",
                    "--nonbinary", "--out", inst], log_file) == 0
        bounds, risks = [], []
        evaluate, risk = verify.evaluate_posterior_bound, verify.gibbs_risk
        monkeypatch.setattr(verify, "evaluate_posterior_bound",
                            lambda *a: bounds.append(evaluate(*a)) or bounds[-1])
        monkeypatch.setattr(verify, "gibbs_risk", lambda *a: risks.append(risk(*a)) or risks[-1])
        capsys.readouterr()
        assert run(["coverage", "--family", "flatness", "--rule", "fixed-Q", "--instance", inst,
                    "--trials", "60", "--m", "100", "--seed", "3", "--c", "1e-308",
                    "--h", "0.99"], log_file) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "PASS"
        slacks = np.concatenate([rep.value - true for rep, true in zip(bounds, risks)]).tolist()
        assert len(slacks) == 60 and all(map(math.isfinite, slacks))
        with pytest.raises(OverflowError):
            math.fsum(slacks)
        exact = sum(map(fractions.Fraction, slacks)) / 60
        assert float(printed_row(out)["mean_slack"]) == float(exact)

    @pytest.mark.parametrize("rule", POSTERIOR_RULES)
    def test_a_rule_gives_one_row_per_sample_or_one_posterior(self, rule, inst_file):
        args = cli._PARSER.parse_args(["coverage", "--family", "flatness", "--instance",
                                       inst_file, "--seed", "1", "--rule", rule])
        cli._resolve_reads(args)
        inst = load_instance(inst_file)
        block = draw_sample(inst.dist, 30, 4, size=5)
        q = cli._posterior_rule(args, inst)(inst.prior, inst.table, block)
        assert isinstance(q, ProbMeasure)
        assert q.weights.shape == ((4,) if rule == "fixed-Q" else (5, 4))
        for i, s in enumerate(map(Sample, block.counts)):
            one = cli._posterior_rule(args, inst)(inst.prior, inst.table, s)
            assert np.array_equal(one.weights, q.weights if rule == "fixed-Q" else q.weights[i])


class TestLemmas:
    def test_debias(self, capsys, inst_file, log_file):
        code = run(["lemmas", "--which", "debias", "--instance", inst_file,
                    "--lambda-over-m", "0.5", "--m", "20"], log_file)
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_xy(self, tmp_path, capsys, log_file):
        out = tmp_path / "xy.csv"
        code = run(["lemmas", "--which", "xy", "--mu", "0.5,0.5",
                    "--lambda-over-m", "0.001", "--out", str(out)], log_file)
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        header, row = out.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["pass"] == "true"

    @pytest.mark.parametrize("flags", [
        ["--mu", "0.5,0.5,0.5", "--lambda-over-m", "0.05", "--c", "1", "--c2", "0.5", "--h", "2"],
        ["--mu", "0.5,0.5", "--lambda-over-m", "10"],
    ], ids=["h-above-one", "lambda-above-cap"])
    def test_xy_outside_its_hypotheses_does_not_apply(self, flags, capsys, log_file):
        # As for debias: the value is computed, and the run checks nothing.
        code = run(["lemmas", "--which", "xy"] + flags, log_file)
        out = capsys.readouterr().out
        assert code == 0
        assert float(printed_row(out)["value"]) > 1.0
        assert "applies false" in out.splitlines() and out.splitlines()[-1] == "PASS"

    @pytest.mark.parametrize("mu", ["0.5", "0.5,0"])
    def test_xy_overflow_prints_inf(self, mu, capsys, log_file):
        # The MGF is +inf in floating point; a coordinate with mu = 0 keeps its factor 1.
        code = run(["lemmas", "--which", "xy", "--mu", mu, "--lambda-over-m", "1e300"],
                   log_file)
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert printed_row(out)["value"] == "inf"

    def test_xy_thirteen_means(self, capsys, log_file):
        mu = ",".join(["0.5"] * 13)
        code = run(["lemmas", "--which", "xy", "--mu", mu,
                    "--lambda-over-m", "0.001"], log_file)
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_shifted_flatness(self, capsys, inst_file, log_file):
        code = run(["lemmas", "--which", "shifted-flatness", "--instance", inst_file,
                    "--m", "40", "--trials", "2000", "--seed", "4"], log_file)
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_symmetrization(self, capsys, inst_file, log_file):
        code = run(["lemmas", "--which", "symmetrization", "--instance", inst_file,
                    "--m", "30", "--trials", "2000", "--t", "0.2", "--seed", "5"],
                   log_file)
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("above", [False, True])
    def test_symmetrization_verdict_is_lhs_at_most_four_rhs(self, above, capsys, inst_file,
                                                            log_file, monkeypatch):
        # The verdict's rule is lhs <= 4 rhs + lhs_halfwidth + 4 rhs_halfwidth: a left
        # tail at the rule passes, and one an ulp above it fails.
        rhs = TailEstimate(0.01, 0.001)
        rule = 4.0 * rhs.probability + (0.001 + 4.0 * rhs.wilson_halfwidth)
        lhs = TailEstimate(math.nextafter(rule, 1.0) if above else rule, 0.001)
        monkeypatch.setattr(cli, "symmetrization_tail_mc", lambda *a, **k: (lhs, rhs))
        code = run(["lemmas", "--which", "symmetrization", "--instance", inst_file,
                    "--m", "30", "--trials", "2000", "--t", "0.2", "--seed", "5"], log_file)
        assert code == (1 if above else 0)
        assert capsys.readouterr().out.splitlines()[-1] == ("FAIL" if above else "PASS")

    @pytest.mark.parametrize("above", [False, True])
    def test_shifted_flatness_verdict_is_tail_at_most_half_plus_halfwidth(
            self, above, capsys, inst_file, log_file, monkeypatch):
        halfwidth = 0.01
        rule = 0.5 + halfwidth
        est = TailEstimate(math.nextafter(rule, 1.0) if above else rule, halfwidth)
        monkeypatch.setattr(cli, "shifted_flatness_tail_mc", lambda *a, **k: est)
        code = run(["lemmas", "--which", "shifted-flatness", "--instance", inst_file,
                    "--m", "40", "--trials", "2000", "--seed", "4"], log_file)
        assert code == (1 if above else 0)
        assert capsys.readouterr().out.splitlines()[-1] == ("FAIL" if above else "PASS")

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("which", ["debias", "xy"])
    def test_exact_lemma_verdict_is_value_at_most_1_plus_1e_12(
            self, which, above, capsys, inst_file, log_file, monkeypatch):
        # Both runs are inside the lemma's hypotheses, so the verdict is checked.
        rule = 1.0 + 1e-12
        value = math.nextafter(rule, 2.0) if above else rule
        producer = "debias_mgf_exact" if which == "debias" else "xy_mgf_bruteforce"
        monkeypatch.setattr(cli, producer, lambda *a, **k: value)
        argv = ([a if a != "INST" else inst_file for a in DEBIAS] if which == "debias" else
                ["lemmas", "--which", "xy", "--mu", "0.2,0.5,0.9", "--lambda-over-m", "0.02"])
        code = run(argv, log_file)
        out = capsys.readouterr().out
        assert "applies true" in out.splitlines()
        assert code == (1 if above else 0)
        assert out.splitlines()[-1] == ("FAIL" if above else "PASS")

    def test_stochastic_lemma_requires_seed(self, inst_file, log_file):
        assert run(["lemmas", "--which", "shifted-flatness",
                    "--instance", inst_file], log_file) == 2


class TestDuality:
    def test_pass(self, capsys, inst_file, log_file):
        code = run(["duality", "--instance", inst_file, "--kappa", "0.7"], log_file)
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "PASS"
        row = printed_row(out)
        inst = load_instance(inst_file)
        assert abs(float(row["gap"])) <= duality_tolerance(true_risks(inst.table, inst.dist))

    @pytest.mark.parametrize("p, v, kappa", [
        ([0.611142103859425, 0.06788204732138085, 0.320975848819194],
         [42.5405236010829, -112.75925022935678, -122.51009565581138], 0.049697204795759085),
        ([0.4514679342067866, 0.191875884880757, 0.2672736290441099, 0.08938255186834661],
         [-158.3260763639494, -63.26199407066705, 30.46096754203963, -79.81676601527762],
         0.5694397546153195),
    ], ids=["range-165", "range-189"])
    def test_tolerance_scales_with_the_range_of_the_values(self, p, v, kappa):
        # Values that straddle 0: the bracket of a converged solve is 1.2e-11 and
        # 6.3e-12 wide, below 1e-12 times the range but above 1e-12 max(1, |primal|).
        lower, upper = kl_dual_value(ProbMeasure(p), v, kappa)
        assert 1e-12 * max(1.0, abs(lower)) < upper - lower <= duality_tolerance(v)
        assert duality_tolerance(v) == 1e-12 * (max(v) - min(v))

    def test_large_kappa(self, capsys, inst_file, log_file):
        # sup saturates at the support max; the dual needs huge lambda
        assert run(["duality", "--instance", inst_file, "--kappa", "50"], log_file) == 0
        assert "PASS" in capsys.readouterr().out

    def test_infinite_kappa(self, capsys, inst_file, log_file):
        # Both sides are the support max in closed form, with no warnings.
        assert run(["duality", "--instance", inst_file, "--kappa", "inf"], log_file) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "PASS" and err == ""
        assert float(printed_row(out)["gap"]) == 0.0

    def test_tiny_kappa(self, capsys, tmp_path, log_file):
        # At kappa = 1e-18 the dual's objective must not lose 1e-16 / lambda.
        inst = str(tmp_path / "g.txt")
        assert run(["gen-instance", "--seed", "1", "--hypotheses", "6", "--points", "5",
                    "--out", inst], log_file) == 0
        capsys.readouterr()
        assert run(["duality", "--instance", inst, "--kappa", "1e-18"], log_file) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "PASS"
        assert abs(float(printed_row(out)["gap"])) <= 1e-15

    def test_a_solve_stopped_short_fails_and_exits_1(self, monkeypatch, capsys, inst_file,
                                                      log_file):
        # A KL tolerance of 1e-6 leaves the bracket far wider than 1e-12: FAIL, exit 1,
        # in stdout and in the record.
        monkeypatch.setattr("pacbayes.processes._KL_BALL_RTOL", 1e-6)
        assert run(["duality", "--instance", inst_file, "--kappa", "0.7"], log_file) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "FAIL" and printed_row(out)["pass"] == "false"
        with open(log_file) as fh:
            record = json.loads(fh.readline(), parse_constant=strict_json)
        assert record["exit_code"] == 1 and record["summary"]["result"][0]["pass"] is False

    def test_one_solve(self, monkeypatch, capsys, inst_file, log_file):
        # Both ends come from one KL-ball solve, checks and scaling included.
        from pacbayes import processes
        calls, solve = [], processes._kl_ball_tilt
        monkeypatch.setattr(processes, "_kl_ball_tilt", lambda *a, **k: (
            calls.append(a[2]), solve(*a, **k))[1])
        assert run(["duality", "--instance", inst_file, "--kappa", "0.7"], log_file) == 0
        assert calls == [0.7]
        row = printed_row(capsys.readouterr().out)
        assert float(row["primal"]) <= float(row["dual"])


class TestOptimize:
    def test_runs(self, capsys, inst_file, log_file):
        code = run(["optimize", "--family", "catoni", "--instance", inst_file,
                    "--m", "50", "--seed", "6"], log_file)
        assert code == 0
        out = capsys.readouterr().out
        weights = [float(x) for x in out.split("posterior")[1].split()]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_requires_seed(self, inst_file, log_file):
        assert run(["optimize", "--family", "kst", "--instance", inst_file],
                   log_file) == 2

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_same_C_derived_as_bounds(self, family, capsys, inst_file, log_file):
        argv = ["--family", family, "--instance", inst_file, "--m", "50", "--seed", "6"]
        printed = []
        for command in ("bounds", "optimize"):
            assert run([command] + argv, log_file) == 0
            printed.append(printed_row(capsys.readouterr().out)["C_derived"])
        assert printed[0] == printed[1]
        assert (printed[0] == "") == (FAMILIES[family].derived is None)


class TestSweep:
    def test_deterministic_csv(self, tmp_path, inst_file, log_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--instance", inst_file, "--m-grid", "10,50",
                "--trials", "3", "--seed", "8", "--h", "0.8"]
        assert run(argv + ["--out", str(a)], log_file) == 0
        assert run(argv + ["--out", str(b)], log_file) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == \
            "m,catoni_mean,flatness_mean,T_m_mean,kl_mean,crossover_flag"

    @pytest.mark.parametrize("rule", ["fixed-Q", "gibbs-posterior"])
    def test_each_row_is_a_bound_sweep_row_under_its_column(self, rule, inst_file, log_file,
                                                           capsys):
        assert run(["sweep", "--instance", inst_file, "--m-grid", "10,50,4000", "--trials", "3",
                    "--seed", "8", "--h", "0.8", "--rule", rule], log_file) == 0
        inst = load_instance(inst_file)
        posterior = (functools.partial(gibbs_posterior, beta=1.0) if rule == "gibbs-posterior"
                     else lambda prior, table, s: inst.posterior)
        res = bound_sweep(inst.table, inst.dist, inst.prior, posterior, BoundParams(h=0.8),
                          [10, 50, 4000], 3, 8)
        rows = [[r.m, r.catoni_mean, r.flatness_mean, r.T_m_mean, r.kl_mean, r.crossover_flag]
                for r in res.rows]
        header = ["m", "catoni_mean", "flatness_mean", "T_m_mean", "kl_mean", "crossover_flag"]
        assert capsys.readouterr().out == (csv_text(header, rows)
                                           + f"crossover_m {fmt(res.crossover_m)}\n")

    def test_beta_zero_is_prior(self, tmp_path, log_file):
        inst = tmp_path / "noposterior.txt"
        inst.write_text(NO_POSTERIOR)
        argv = ["sweep", "--instance", str(inst), "--m-grid", "10,50",
                "--trials", "3", "--seed", "8"]
        fixed, beta0, beta1 = (tmp_path / f"{n}.csv" for n in ("fixed", "beta0", "beta1"))
        assert run(argv + ["--rule", "fixed-Q", "--out", str(fixed)], log_file) == 0
        assert run(argv + ["--rule", "gibbs-posterior", "--beta", "0",
                           "--out", str(beta0)], log_file) == 0
        assert run(argv + ["--rule", "gibbs-posterior", "--beta", "1",
                           "--out", str(beta1)], log_file) == 0
        assert beta0.read_bytes() == fixed.read_bytes()
        assert beta1.read_bytes() != beta0.read_bytes()

    def test_infinite_beta_is_the_limit(self, tmp_path, inst_file, log_file, capsys):
        argv = ["sweep", "--instance", inst_file, "--m-grid", "10,50", "--trials", "3",
                "--seed", "8", "--rule", "gibbs-posterior"]
        inf, big = tmp_path / "inf.csv", tmp_path / "big.csv"
        assert run(argv + ["--beta", "inf", "--out", str(inf)], log_file) == 0
        assert run(argv + ["--beta", "1e300", "--out", str(big)], log_file) == 0
        assert capsys.readouterr().err == ""
        assert inf.read_bytes() == big.read_bytes()

    def test_requires_m_grid(self, inst_file, log_file):
        assert run(["sweep", "--instance", inst_file, "--seed", "1"], log_file) == 2


class TestGenInstance:
    def test_roundtrip(self, tmp_path, log_file):
        out = tmp_path / "gen.txt"
        code = run(["gen-instance", "--seed", "9", "--hypotheses", "4",
                    "--points", "3", "--out", str(out)], log_file)
        assert code == 0
        inst = load_instance(out)
        assert inst.table.loss.shape == (4, 3)
        assert inst.table.binary_flag

    def test_deterministic(self, tmp_path, log_file):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["gen-instance", "--seed", "10", "--out", str(a)], log_file)
        run(["gen-instance", "--seed", "10", "--out", str(b)], log_file)
        assert a.read_bytes() == b.read_bytes()

    def test_nonbinary(self, tmp_path, log_file):
        out = tmp_path / "nb.txt"
        run(["gen-instance", "--seed", "11", "--nonbinary", "--out", str(out)],
            log_file)
        assert not load_instance(out).table.binary_flag

    @pytest.mark.parametrize("flag, value", [("--hypotheses", "0"), ("--hypotheses", "-2"),
                                             ("--points", "0")])
    def test_a_size_below_one_is_a_usage_error_naming_its_flag(self, tmp_path, log_file,
                                                               capsys, flag, value):
        out = tmp_path / "gen.txt"
        assert run(["gen-instance", "--seed", "1", flag, value, "--out", str(out)], log_file) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be >= 1\n") and "usage:" in err
        assert not out.exists()
        (rec,) = [json.loads(line) for line in open(log_file).read().splitlines()]
        assert rec["command"] == "gen-instance" and rec["exit_code"] == 2
        assert rec["summary"] == {"error": f"{flag} must be >= 1"}


class TestOutputPath:
    @pytest.mark.parametrize("argv, notes, verdict", [
        (["bounds", "--family", "catoni", "--emp", "0.1", "--kl", "0.13", "--m", "100"], [], []),
        (["bounds", "--family", "flatness", "--instance", "INST", "--m", "40", "--seed", "3"],
         [], []),
        (["coverage", "--family", "kst", "--instance", "INST", "--trials", "100", "--m", "30",
          "--seed", "2"], [], ["PASS"]),
        (DEBIAS, ["k_threshold", "applies"], ["PASS"]),
        (["lemmas", "--which", "xy", "--mu", "0.5,0.5", "--lambda-over-m", "0.001"],
         ["cap", "applies"], ["PASS"]),
        (["lemmas", "--which", "shifted-flatness", "--instance", "INST", "--m", "40",
          "--trials", "500", "--seed", "4"], ["halfwidth"], ["PASS"]),
        (["lemmas", "--which", "symmetrization", "--instance", "INST", "--m", "30",
          "--trials", "500", "--seed", "5"], ["lhs_halfwidth", "rhs_halfwidth"], ["PASS"]),
        (["duality", "--instance", "INST", "--kappa", "0.7"], [], ["PASS"]),
        (["optimize", "--family", "catoni", "--instance", "INST", "--m", "50", "--seed", "6"],
         ["posterior"], []),
        (["sweep", "--instance", "INST", "--m-grid", "10,50", "--trials", "3", "--seed", "8"],
         ["crossover_m"], []),
        (["gen-instance", "--seed", "9", "--hypotheses", "4", "--points", "3"],
         ["hypotheses", "points"], []),
    ], ids=["bounds-closed-form", "bounds-instance", "coverage", "debias", "xy",
            "shifted-flatness", "symmetrization", "duality", "optimize", "sweep", "gen-instance"])
    def test_stdout_csv_and_record_hold_one_table(self, argv, notes, verdict, tmp_path,
                                                  inst_file, log_file, capsys):
        out = tmp_path / "out"
        argv = [inst_file if a == "INST" else a for a in argv]
        assert run(argv + ["--out", str(out)], log_file) == 0
        stdout = capsys.readouterr().out
        # gen-instance writes the instance to --out and has no table.
        text = "" if argv[0] == "gen-instance" else out.read_text()
        assert stdout.startswith(text)
        (line,) = open(log_file).read().splitlines()
        summary = json.loads(line, parse_constant=strict_json)["summary"]
        assert set(summary) == {"result", *notes}

        def cells(values):
            return [v if isinstance(v, str) else fmt(v) for v in values]

        header, *rows = [row.split(",") for row in text.splitlines()] or [[]]
        assert [cells(record[name] for name in header) for record in summary["result"]] == rows
        assert all(set(record) == set(header) for record in summary["result"])
        # After the table: one `name value...` line per note, then the verdict.
        assert stdout[len(text):].splitlines() == [
            " ".join([name] + cells(np.atleast_1d(summary[name]))) for name in notes] + verdict


class TestConfigAndLog:
    def test_config_supplies_flags(self, tmp_path, capsys, log_file):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bounds.emp = 0.1\nbounds.kl = 0.5\nbounds.m = 100\n")
        code = main(["--log", log_file, "--config", str(cfg),
                     "bounds", "--family", "kst"])
        assert code == 0

    def test_flag_wins_over_config(self, capsys, log_file, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bounds.emp = 0.9\nbounds.kl = 0.0\nbounds.m = 100\n")
        main(["--log", log_file, "--config", str(cfg), "bounds",
              "--family", "mcallester", "--emp", "0.1"])
        value = float(printed_row(capsys.readouterr().out)["value"])
        assert value < 0.9

    def test_config_keys_of_another_subcommand_are_skipped(self, tmp_path, log_file,
                                                           monkeypatch):
        import pacbayes.cli
        configs = []
        record = pacbayes.cli.append_run_record
        monkeypatch.setattr(pacbayes.cli, "append_run_record",
                            lambda log, command, config, *rest: (configs.append(config),
                                                                 record(log, command, config,
                                                                        *rest)))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bounds.delta = 0.1\ncoverage.trials = 7\n")
        assert main(["--log", log_file, "--config", str(cfg), "bounds", "--family", "kst",
                     "--emp", "0.1", "--kl", "0.5", "--m", "100"]) == 0
        (config,) = configs
        assert config["delta"] == 0.1
        assert "trials" not in config

    def test_unknown_config_key(self, tmp_path, log_file):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bounds.bogus = 1\n")
        assert main(["--log", log_file, "--config", str(cfg), "bounds",
                     "--family", "kst", "--emp", "0.1", "--kl", "0", "--m", "10"]) == 2

    def test_log_appends(self, log_file):
        run(["bounds", "--family", "kst", "--emp", "0.1", "--kl", "0.0",
             "--m", "10"], log_file)
        run(["bounds", "--family", "kst", "--emp", "0.2", "--kl", "0.0",
             "--m", "10"], log_file)
        lines = open(log_file).read().splitlines()
        assert len(lines) == 2
        assert all(json.loads(l)["command"] == "bounds" for l in lines)

    def test_bad_instance_path(self, log_file, capsys):
        assert run(["duality", "--instance", "/nonexistent/x.txt"], log_file) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file")
        (record,) = self.records(log_file)
        assert record["exit_code"] == 2 and record["instance"] == "/nonexistent/x.txt"
        assert "No such file" in record["summary"]["error"]

    def test_config_hash_covers_the_instance_bytes_not_its_path(self, tmp_path, log_file):
        # Different bytes at one path give different hashes; the same bytes at
        # two paths give one. The record keeps the path, outside the hash.
        first, copy = tmp_path / "i.txt", tmp_path / "j.txt"
        bounds = ["bounds", "--family", "catoni", "--m", "20", "--seed", "2", "--instance"]
        for gen_seed, path in (("1", first), ("1", copy), ("9", first)):
            assert run(["gen-instance", "--hypotheses", "4", "--points", "3",
                        "--seed", gen_seed, "--out", str(path)], log_file) == 0
            assert run(bounds + [str(path)], log_file) == 0
        runs = [r for r in self.records(log_file) if r["command"] == "bounds"]
        assert [r["instance"] for r in runs] == [str(first), str(copy), str(first)]
        values = [r["summary"]["result"][0]["value"] for r in runs]
        hashes = [r["config_hash"] for r in runs]
        assert values[0] == values[1] != values[2]
        assert hashes[0] == hashes[1] != hashes[2]

    @pytest.mark.parametrize("argv", [
        ["duality"],
        ["bounds", "--family", "catoni", "--m", "20", "--seed", "1"],
        ["coverage", "--family", "kst", "--trials", "20", "--m", "20", "--seed", "1"],
        ["optimize", "--family", "mcallester", "--m", "20", "--seed", "1"],
        ["sweep", "--m-grid", "10", "--trials", "2", "--seed", "1"],
        ["lemmas", "--which", "symmetrization", "--trials", "20", "--seed", "1"],
        ["lemmas", "--which", "debias", "--m", "5", "--lambda-over-m", "0.5"],
    ], ids=["duality", "bounds", "coverage", "optimize", "sweep", "symmetrization", "debias"])
    def test_the_instance_file_is_read_once(self, argv, inst_file, log_file, monkeypatch):
        opened = []
        for module in (io, builtins):
            real = module.open
            monkeypatch.setattr(module, "open", lambda file, *a, real=real, **kw: (
                opened.append(str(file)), real(file, *a, **kw))[1])
        assert run(argv + ["--instance", inst_file], log_file) in (0, 1)
        assert opened.count(inst_file) == 1

    def test_the_hash_and_the_result_come_from_the_same_bytes(self, tmp_path, inst_file,
                                                              log_file, monkeypatch):
        # The file is rewritten as soon as it has been read: the run hashes and
        # computes what it read, as a run on an unchanging copy does.
        copy, fresh = tmp_path / "copy.txt", tmp_path / "fresh.txt"
        copy.write_text(INSTANCE)
        argv = ["duality", "--kappa", "0.3", "--instance"]
        real = io.open

        def rewrite_after_open(file, *a, **kw):
            handle = real(file, *a, **kw)
            if str(file) == inst_file:
                fresh.write_text(INSTANCE.replace("0.2 0.3 0.5", "0.6 0.3 0.1"))
                fresh.replace(file)
            return handle

        with monkeypatch.context() as patch:
            patch.setattr(io, "open", rewrite_after_open)
            assert run(argv + [inst_file], log_file) == 0
        assert run(argv + [str(copy)], log_file) == 0
        assert run(argv + [inst_file], log_file) == 0
        read, unchanged, rewritten = self.records(log_file)
        assert read["config_hash"] == unchanged["config_hash"] != rewritten["config_hash"]
        assert read["summary"] == unchanged["summary"] != rewritten["summary"]

    def test_flags_win_over_config_flags_and_hash_as_if_given_alone(self, tmp_path, log_file,
                                                                    capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bounds.emp = 0.9\nbounds.kl = 0.0\nbounds.m = 100\nbounds.delta = 0.1\n")
        argv = ["bounds", "--family", "mcallester", "--emp", "0.1", "--delta", "0.2"]
        assert main(["--log", log_file, "--config", str(cfg)] + argv) == 0
        assert run(argv + ["--kl", "0.0", "--m", "100"], log_file) == 0
        configured, alone = self.records(log_file)
        assert configured["config_hash"] == alone["config_hash"]
        assert configured["summary"] == alone["summary"]
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == out[2:] and float(printed_row("\n".join(out[:2]))["value"]) < 0.9

    @pytest.mark.parametrize("before, after, error", [
        (["--bogus"], [], "unrecognized arguments: --bogus"),
        ([], ["--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([], ["--log", "elsewhere.jsonl"], "unrecognized arguments: --log elsewhere.jsonl"),
        ([], ["--emp", "x"], "argument --emp: invalid float value: 'x'"),
    ], ids=["before-the-subcommand", "after-it", "log-after-it", "bad-value"])
    def test_a_usage_error_is_recorded_in_the_log_asked_for(self, before, after, error, tmp_path,
                                                           capsys):
        cfg, log = tmp_path / "cfg.txt", str(tmp_path / "asked.jsonl")
        cfg.write_text("bounds.emp = 0.1\n")
        argv = ["--log", log, "--config", str(cfg), *before, "bounds", "--family", "kst",
                "--kl", "0", "--m", "10", *after]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}\nusage: pacbayes")
        (record,) = self.records(log)
        assert record["command"] == "bounds" and record["summary"] == {"error": error}

    @staticmethod
    def records(log_file):
        return [json.loads(line) for line in open(log_file).read().splitlines()]

    def test_config_hash_ignores_output_paths(self, tmp_path, log_file):
        argv = ["bounds", "--family", "catoni", "--kl", "0.3", "--m", "100"]
        run(argv + ["--emp", "0.1", "--out", str(tmp_path / "a.csv")], log_file)
        run(argv + ["--emp", "0.1", "--out", str(tmp_path / "b.csv")], log_file)
        run(argv + ["--emp", "0.2", "--out", str(tmp_path / "a.csv")], log_file)
        records = self.records(log_file)
        a, b, other = (r["config_hash"] for r in records)
        assert a == b
        assert a != other
        assert all(r["exit_code"] == 0 for r in records)

    def test_config_hash_reads_the_means_as_numbers(self, capsys, log_file):
        argv = ["lemmas", "--which", "xy", "--lambda-over-m", "0.01", "--mu"]
        for mu in ("0.5,0.25", "0.5 0.25", "0.50,0.250"):
            assert run(argv + [mu], log_file) == 0
        assert len({r["config_hash"] for r in self.records(log_file)}) == 1
        outs = capsys.readouterr().out.split("PASS\n")
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("mu", ["0.5,x", "0.5,1.5"])
    def test_bad_means_leave_one_record(self, mu, log_file):
        assert run(["lemmas", "--which", "xy", "--lambda-over-m", "0.01", "--mu", mu],
                   log_file) == 2
        (rec,) = self.records(log_file)
        assert rec["command"] == "lemmas" and rec["exit_code"] == 2

    def test_failed_run_leaves_record(self, inst_file, log_file):
        assert run(["coverage", "--family", "kst", "--instance", inst_file], log_file) == 2
        (rec,) = self.records(log_file)
        assert rec["command"] == "coverage"
        assert rec["exit_code"] == 2
        assert "--seed" in rec["summary"]["error"]

    def test_unwritable_log_is_usage_error(self, tmp_path, capsys):
        log = str(tmp_path / "missing" / "runs.jsonl")
        assert run(["bounds", "--family", "kst", "--emp", "0.1", "--kl", "0",
                    "--m", "10"], log) == 2
        assert "run log" in capsys.readouterr().err


class TestUsageContract:
    @pytest.mark.parametrize("argv, config, command", [
        (["duality"], None, "duality"),
        (["optimize", "--family", "kst", "--seed", "1"], None, "optimize"),
        (["sweep", "--seed", "1", "--m-grid", "10"], None, "sweep"),
        (["lemmas", "--which", "debias", "--lambda-over-m", "0.5", "--m", "5"], None, "lemmas"),
        (["bounds", "--family", "kst", "--emp", "0.1", "--kl", "0", "--m", "10",
          "--bogus", "1"], None, "bounds"),
        (["bounds", "--family", "bogus"], None, "bounds"),
        (["sweep", "--instance", "INST", "--seed", "1", "--m-grid", "10"],
         "sweep.rule = bound-minimizer\n", "sweep"),
        (["frobnicate"], None, None),
        (["sweep", "--instance", "INST", "--seed", "2", "--m-grid", "10,50", "--beta", "5"],
         None, "sweep"),
        (["coverage", "--family", "kst", "--instance", "INST", "--seed", "1",
          "--rule", "bound-minimizer", "--beta", "1"], None, "coverage"),
        (["coverage", "--family", "kst", "--instance", "INST", "--seed", "1",
          "--rule", "fixed-Q"], "coverage.beta = 1\n", "coverage"),
        (["lemmas", "--which", "symmetrization", "--instance", "INST", "--seed", "3",
          "--trials", "50", "--h", "0.5", "--kappa", "0.1"], None, "lemmas"),
        (["lemmas", "--which", "debias", "--instance", "INST", "--m", "5",
          "--lambda-over-m", "0.5", "--kappa", "0.5"], None, "lemmas"),
        *((DEBIAS + [flag, *value], None, "lemmas")
          for flag, *value in (("--f", "3"), ("--f", "0"))),
        (["lemmas", "--which", "xy", "--mu", "0.5", "--lambda-over-m", "10", "--force"], None,
         "lemmas"),
        (["optimize", "--family", "kst", "--instance", "INST", "--m", "10", "--seed", "1",
          "--beta-grid", "0,1"], None, "optimize"),
        (["lemmas", "--which", "xy", "--mu", "0.5", "--lambda-over-m", "0.01", "--seed", "1"],
         None, "lemmas"),
        (["lemmas", "--which", "shifted-flatness", "--instance", "INST", "--seed", "1",
          "--trials", "50", "--k", "9"], None, "lemmas"),
        (["lemmas", "--which", "symmetrization", "--instance", "INST", "--seed", "1",
          "--trials", "50", "--mu", "0.1"], None, "lemmas"),
        (["bounds", "--family", "catoni", "--emp", "0.1", "--kl", "1", "--m", "100",
          "--h", "0.3"], None, "bounds"),
        (["bounds", "--family", "kst", "--emp", "0.1", "--kl", "1", "--m", "100",
          "--seed", "9"], None, "bounds"),
        (["bounds", "--family", "flatness", "--instance", "INST", "--m", "10", "--seed", "1",
          "--emp", "0.1"], None, "bounds"),
        (["bounds", "--family", "flatness", "--m", "10", "--seed", "1"], None, "bounds"),
        (["coverage", "--family", "catoni", "--instance", "INST", "--seed", "1", "--c", "3"],
         None, "coverage"),
        (["optimize", "--family", "flatness", "--instance", "INST", "--seed", "1", "--C", "3"],
         None, "optimize"),
        (DEBIAS, "lemmas.f = 1\n", "lemmas"),
        (["optimize", "--family", "kst", "--instance", "INST", "--m", "10", "--seed", "1",
          "--refine-steps", "5"], None, "optimize"),
        (["optimize", "--family", "kst", "--instance", "INST", "--m", "10", "--seed", "1"],
         "optimize.refine_steps = 5\n", "optimize"),
    ], ids=["duality-no-instance", "optimize-no-instance", "sweep-no-instance",
            "debias-no-instance", "unknown-flag", "bad-family", "config-bad-rule",
            "unknown-command", "beta-with-fixed-Q", "beta-with-bound-minimizer",
            "config-beta-with-fixed-Q", "kappa-with-h", "kappa-with-debias",
            "f-with-debias", "f-0-with-debias", "force-removed", "beta-grid-removed",
            "seed-with-xy",
            "k-with-shifted-flatness", "mu-with-symmetrization", "h-with-catoni",
            "seed-in-closed-form", "emp-with-flatness", "flatness-no-instance",
            "c-with-coverage-catoni", "C-with-optimize-flatness", "config-f-with-debias",
            "refine-steps-removed", "config-refine-steps-removed"])
    def test_usage_error_exits_2_with_one_record(self, argv, config, command, tmp_path,
                                                 inst_file, log_file, capsys):
        prefix = ["--log", log_file]
        if config is not None:
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(config)
            prefix += ["--config", str(cfg)]
        argv = [inst_file if a == "INST" else a for a in argv]
        assert main(prefix + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "usage:" in err
        assert "Traceback" not in err
        (rec,) = [json.loads(line) for line in open(log_file).read().splitlines()]
        assert rec["exit_code"] == 2
        assert rec["command"] == command

    @pytest.mark.parametrize("argv", [
        ["duality", "--instance", "INST", "--kappa", "nan"],
        ["duality", "--instance", "INST", "--kappa", "5e-324"],
        ["bounds", "--family", "kst", "--emp", "nan", "--kl", "0", "--m", "10"],
        ["bounds", "--family", "kst", "--emp", "0.1", "--kl", "nan", "--m", "10"],
        ["bounds", "--family", "kst", "--emp", "2", "--kl", "0", "--m", "10"],
        *(["bounds", "--family", family, "--emp", "0.1", "--kl", "0", "--m", "10", flag, "nan"]
          for family, flag in (("catoni", "--C"), ("matched_catoni", "--c"),
                               ("matched_catoni", "--c2"))),
        *(["lemmas", "--which", "shifted-flatness", "--instance", "INST", "--seed", "1",
           flag, "0"] for flag in ("--m", "--h", "--c2")),
        ["lemmas", "--which", "xy", "--mu", "0.5", "--lambda-over-m", "nan"],
        ["lemmas", "--which", "debias", "--instance", "INST", "--m", "5",
         "--lambda-over-m", "nan"],
        ["lemmas", "--which", "debias", "--instance", "INST", "--m", "5",
         "--lambda-over-m", "0.5", "--k", "nan"],
        *(["lemmas", "--which", "xy", "--mu", mu, "--lambda-over-m", "0.01"]
          for mu in ("0.5,nan", "0.5,1.5", "-0.5")),
        ["lemmas", "--which", "xy", "--mu", "0.5", "--lambda-over-m", "0.01", "--c", "inf"],
        *(["lemmas", "--which", which, "--instance", "INST", "--seed", "1", "--trials", "50",
           "--t", "nan"] for which in ("shifted-flatness", "symmetrization")),
        ["bounds", "--family", "catoni", "--emp", "0.1", "--kl", "0.1", "--m", "10", "--C", "inf"],
        ["bounds", "--family", "flatness", "--instance", "INST", "--m", "10", "--seed", "1",
         "--c", "inf"],
        ["sweep", "--instance", "INST", "--m-grid", "10", "--seed", "1", "--c", "inf"],
        *(["lemmas", "--which", "symmetrization", "--instance", "INST", "--seed", "1",
           "--trials", "50", "--c", "inf", *h] for h in ([], ["--h", "0.5"])),
        ["lemmas", "--which", "shifted-flatness", "--instance", "INST", "--seed", "1",
         "--trials", "50", "--c2", "inf"],
        ["bounds", "--family", "matched_catoni", "--emp", "0.1", "--kl", "0.1", "--m", "10",
         "--c", "1e300"],
        ["lemmas", "--which", "debias", "--instance", "INST", "--m", "5",
         "--lambda-over-m", "1e300"],
    ], ids=["kappa-nan", "kappa-subnormal", "emp-nan", "kl-nan", "emp-2", "C-nan", "c-nan",
            "c2-nan", "shifted-flatness-m-0", "shifted-flatness-h-0", "shifted-flatness-c2-0",
            "xy-lambda-nan", "debias-lambda-nan", "debias-k-nan", "xy-mu-nan",
            "xy-mu-above-one", "xy-mu-negative", "xy-c-inf",
            "shifted-flatness-t-nan", "symmetrization-t-nan", "C-inf", "flatness-c-inf",
            "sweep-c-inf", "symmetrization-c-inf", "symmetrization-c-inf-with-h",
            "shifted-flatness-c2-inf", "matched-catoni-c-overflows", "debias-lambda-overflows"])
    def test_bad_value_exits_2_with_one_record(self, argv, inst_file, log_file, capsys):
        argv = [inst_file if a == "INST" else a for a in argv]
        assert run(argv, log_file) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        if "inf" in argv:
            assert "finite" in err.splitlines()[0]
        if "1e300" in argv:
            assert err.splitlines() == [err.splitlines()[0]] and "overflowed" in err
        (rec,) = [json.loads(line, parse_constant=strict_json)
                  for line in open(log_file).read().splitlines()]
        assert rec["exit_code"] == 2

    def test_huge_finite_parameters_run(self, inst_file, log_file, capsys):
        # The linear symmetrization solves each KL ball on rescaled values, and
        # the quadratic one divides its processes by a power of two above 1 + c,
        # so c near the float maximum neither overflows nor warns.
        assert run(["lemmas", "--which", "symmetrization", "--instance", inst_file, "--seed", "1",
                    "--trials", "50", "--c", "1e300", "--c2", "1e299"], log_file) == 0
        assert run(["lemmas", "--which", "symmetrization", "--instance", inst_file, "--seed", "1",
                    "--trials", "5", "--h", "0.5", "--c", "1e308", "--c2", "1e307"],
                   log_file) == 0
        assert capsys.readouterr().err == ""

    # Valid arguments whose overflow is expected, on the README's instance (INST):
    # each +inf is the right float, and the run prints what it printed before,
    # without a warning (RuntimeWarnings are errors in this suite, as under
    # python -W error). The sweep's c makes the flatness rate constant 0, which
    # flatness_rate_constant rejects: a configuration error, with no usage line.
    @pytest.mark.parametrize("argv, code, out", [
        (["lemmas", "--which", "xy", "--mu", "0.2,0.5,0.9", "--lambda-over-m", "300"], 0,
         "which,value,pass\nxy,inf,true\ncap 0.076190476190476197\napplies false\nPASS\n"),
        (["lemmas", "--which", "xy", "--mu", "0.2,0.5,0.9", "--lambda-over-m", "0.02",
          "--h", "700"], 0,
         "which,value,pass\nxy,inf,true\ncap 0.47058721841886053\napplies false\nPASS\n"),
        (["lemmas", "--which", "xy", "--mu", "0.2,0.5,0.9", "--lambda-over-m", "1",
          "--c2", "700"], 0,
         "which,value,pass\nxy,inf,true\ncap -0.39928673323823111\napplies false\nPASS\n"),
        *((["coverage", "--family", "catoni", "--instance", "INST", "--trials", "200", "--m", "20",
            "--seed", "3", "--C", "5e-324", *rule], 0,
           "family,trials,violations,cp_upper,mean_slack\n"
           "catoni,200,0,0.014867039231272054,inf\nPASS\n")
          for rule in ([], ["--rule", "bound-minimizer"])),
        (["bounds", "--family", "catoni", "--instance", "INST", "--m", "20", "--seed", "3",
          "--C", "5e-324"], 0,
         "family,value,emp_term,complexity_term,flatness_term,C_derived\n"
         "catoni,inf,0,inf,0,4.9406564584124654e-324\n"),
        (["sweep", "--instance", "INST", "--m-grid", "100,1000", "--seed", "5", "--c", "5e-324"],
         2, ""),
        (["optimize", "--family", "catoni", "--instance", "INST", "--m", "100", "--seed", "4",
          "--C", "1e308"], 0,
         "family,value,emp_term,complexity_term,flatness_term,C_derived\n"
         "catoni,2.4000000000000002e+307,2.4000000000000002e+307,0.050751738152338265,0,"
         "1e+308\nposterior 1 0 0 0 0 0 0 0\n"),
    ], ids=["xy-lambda-300", "xy-h-700", "xy-c2-700", "coverage-C-tiny",
            "coverage-minimizer-C-tiny", "bounds-C-tiny", "sweep-c-tiny", "optimize-C-huge"])
    def test_extreme_arguments_keep_their_output_without_a_warning(self, argv, code, out,
                                                                   tmp_path, log_file, capsys):
        inst = str(tmp_path / "readme.txt")
        assert main(["--log", str(tmp_path / "gen.jsonl"), "gen-instance", "--seed", "1",
                     "--hypotheses", "8", "--points", "5", "--out", inst]) == 0
        capsys.readouterr()
        assert run([inst if a == "INST" else a for a in argv], log_file) == code
        captured = capsys.readouterr()
        assert captured.out == out
        if code:
            assert captured.err == (
                "error: c = 5e-324 and h = 0.5 make the flatness rate constant "
                "C = 2 h^4 c / (1 + 16 h^2 c) round to 0\n")
        else:
            assert captured.err == ""
        (rec,) = [json.loads(line, parse_constant=strict_json)
                  for line in open(log_file).read().splitlines()]
        assert rec["exit_code"] == code

    # At c = 1e308 and m = 1 the flatness score's c-term reaches -2c, past the float
    # range, though the score itself lies in [-c, 1 + c]: the minimiser still finds the
    # point mass of least loss on the one sampled point, without a warning.
    @pytest.mark.parametrize("seed, posterior", [("2", "0 1 0"), ("3", "1 0 0"),
                                                 ("5", "0 1 0"), ("6", "0 1 0")])
    def test_flatness_minimiser_at_c_1e308(self, seed, posterior, tmp_path, log_file, capsys):
        inst = tmp_path / "tri.txt"
        inst.write_text("space: 0.4 0.3 0.3\nlosses:\n1 0 1\n0 1 0\n1 1 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["optimize", "--family", "flatness", "--instance", str(inst), "--m", "1",
                        "--seed", seed, "--c", "1e308", "--h", "1e-3"], log_file)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out == (
            "family,value,emp_term,complexity_term,flatness_term,C_derived\n"
            "flatness,361330212.46586621,0,361330212.46586621,0,1.2499999999999999e-07\n"
            f"posterior {posterior}\n")

    @pytest.mark.parametrize("argv, error", [
        *((["lemmas", "--which", "shifted-flatness", "--instance", "INST", "--seed", "1",
            "--trials", "50", "--f", f],
           f"hypothesis index {f} is out of range for a table of 4 hypotheses (0 to 3)")
          for f in ("99", "-1")),
        (["lemmas", "--which", "symmetrization", "--instance", "INST", "--seed", "1",
          "--trials", "50", "--h", "1.5"], "h must lie in [0, 1]"),
        (["duality", "--instance", "MAYBE"], "binary flag must be true or false, got 'maybe'"),
    ], ids=["f-99", "f-negative", "symmetrization-h-above-one", "binary-maybe"])
    def test_bad_input_exits_2_with_one_error_line(self, argv, error, tmp_path, inst_file,
                                                     log_file, capsys):
        maybe = tmp_path / "maybe.txt"
        maybe.write_text(INSTANCE.replace("binary: true", "binary: maybe"))
        argv = [{"INST": inst_file, "MAYBE": str(maybe)}.get(a, a) for a in argv]
        assert run(argv, log_file) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"
        (rec,) = [json.loads(line, parse_constant=strict_json)
                  for line in open(log_file).read().splitlines()]
        assert rec["exit_code"] == 2 and rec["summary"] == {"error": error}

    def test_out_of_memory_exits_2_with_one_record(self, log_file, capsys, monkeypatch):
        import pacbayes.cli

        def too_big(args, inst):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setitem(pacbayes.cli._SUBPARSERS["gen-instance"]._defaults, "handler",
                            too_big)
        assert run(["gen-instance", "--seed", "1", "--out", "j.txt"], log_file) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 72.8 TiB for an array\n"
        (rec,) = [json.loads(line) for line in open(log_file).read().splitlines()]
        assert rec["exit_code"] == 2 and "out of memory" in rec["summary"]["error"]

    @pytest.mark.parametrize("argv, target, name", [
        (["duality", "--instance", "INST", "--kappa", "0.7"], "pacbayes.processes",
         "_kl_ball_tilt"),
        (["optimize", "--family", "flatness", "--instance", "INST", "--m", "50", "--seed", "6"],
         "pacbayes.posterior_opt", "_MAX_TILTS"),
    ], ids=["duality", "optimize"])
    def test_solver_failure_exits_1_with_one_record(self, argv, target, name, inst_file,
                                                    log_file, capsys, monkeypatch):
        # The KL-ball solve fails as after 200 steps; minimize_bound gets a cap of one tilt.
        def fail(*args, **kwargs):
            raise RuntimeError("kl_ball_sup: 1 rows still open after 200 steps")

        monkeypatch.setattr(f"{target}.{name}", fail if name == "_kl_ball_tilt" else 1)
        argv = [inst_file if a == "INST" else a for a in argv]
        assert run(argv, log_file) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "still open after" in err
        assert "Traceback" not in err and "usage:" not in err
        (rec,) = [json.loads(line) for line in open(log_file).read().splitlines()]
        assert rec["exit_code"] == 1
        assert "still open after" in rec["summary"]["error"]

    @pytest.mark.parametrize("flag, default, other, argv, reads, ignores", [
        ("beta", "1", "5", ["sweep", "--instance", "INST", "--m-grid", "10,50", "--seed", "2"],
         ["--rule", "gibbs-posterior"], ["--rule", "fixed-Q"]),
        ("kappa", "0.5", "2", ["lemmas", "--which", "symmetrization", "--instance", "INST",
                               "--seed", "3", "--trials", "200"], [], ["--h", "0.5"]),
        ("C", "1", "3", ["bounds", "--emp", "0.1", "--kl", "1", "--m", "100"],
         ["--family", "catoni"], ["--family", "kst"]),
        ("f", "0", "1", ["lemmas", "--instance", "INST", "--seed", "3", "--trials", "200",
                         "--t", "0.1"],
         ["--which", "shifted-flatness"], ["--which", "symmetrization"]),
        ("trials", "10000", "200", ["lemmas", "--instance", "INST", "--m", "5"],
         ["--which", "symmetrization", "--seed", "3"],
         ["--which", "debias", "--lambda-over-m", "0.5"]),
    ], ids=["beta", "kappa", "C", "f", "trials"])
    def test_flag_is_hashed_only_where_read(self, flag, default, other, argv, reads, ignores,
                                            tmp_path, inst_file, log_file, monkeypatch):
        import pacbayes.cli
        configs = []
        record = pacbayes.cli.append_run_record
        monkeypatch.setattr(pacbayes.cli, "append_run_record",
                            lambda log, command, config, *rest: (configs.append(config),
                                                                 record(log, command, config,
                                                                        *rest)))
        argv = [inst_file if a == "INST" else a for a in argv]
        outs = [tmp_path / f"{n}.csv" for n in range(4)]
        for out, extra in zip(outs, (ignores, reads, reads + [f"--{flag}", default],
                                     reads + [f"--{flag}", other])):
            assert run(argv + extra + ["--out", str(out)], log_file) == 0
        assert flag not in configs[0]
        assert [c[flag] for c in configs[1:]] == [float(default), float(default), float(other)]
        # The omitted flag takes its default, in the output and in the hash.
        assert outs[1].read_bytes() == outs[2].read_bytes() != outs[3].read_bytes()
        ignored, omitted, given, changed = (json.loads(line)["config_hash"]
                                            for line in open(log_file).read().splitlines())
        assert omitted == given != changed
        assert ignored != omitted

    def test_unread_flag_error_names_it_and_the_run(self, inst_file, log_file, capsys):
        argv = [inst_file if a == "INST" else a for a in DEBIAS]
        assert run(argv + ["--f", "3"], log_file) == 2
        assert capsys.readouterr().err.startswith(
            "error: --f does not apply to lemmas --which debias "
            "(it reads --instance, --lambda-over-m, --m, --k)\n")

    @pytest.mark.parametrize("old, new, named, argv", [
        ("1 0 1\n", "nan 0 1\n", "losses: ", ["duality"]),
        ("1 0 1\n", "1 abc 1\n", "losses: could not convert", ["duality"]),
        ("1 0 1\n0 1 0\n1 1 0\n0 0 1\n", "", "losses: no rows", ["duality"]),
        ("space: 0.2 0.3 0.5", "space: 0.2 nan 0.5", "space: ", ["duality"]),
        ("prior: 0.25 0.25 0.25 0.25", "prior: nan nan nan nan", "prior: ", ["duality"]),
        ("posterior: 0.7 0.1 0.1 0.1", "posterior: nan 0.1 0.1 0.1", "posterior: ",
         ["sweep", "--m-grid", "10", "--seed", "1"]),
    ], ids=["losses", "losses-text", "losses-empty", "space", "prior", "posterior"])
    def test_nan_in_the_instance_exits_2_naming_it(self, old, new, named, argv, tmp_path,
                                                    log_file, capsys):
        inst = tmp_path / "nan.txt"
        inst.write_text(INSTANCE.replace(old, new, 1))
        assert run(argv + ["--instance", str(inst)], log_file) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}")
        assert "Traceback" not in err
        (rec,) = [json.loads(line) for line in open(log_file).read().splitlines()]
        assert rec["exit_code"] == 2

    @pytest.mark.parametrize("old, new, named", [
        ("binary: true\n", "binary: true\nlosses:\n1 0 1\n", "losses: section appears twice"),
        ("binary: true\n", "binary: true\nbinary: true\n", "binary: section appears twice"),
        ("prior: ", "space: 0.2 0.3 0.5\nprior: ", "space: section appears twice"),
    ], ids=["losses", "binary", "space"])
    def test_a_repeated_section_exits_2_naming_it(self, old, new, named, tmp_path, log_file,
                                                  capsys):
        inst = tmp_path / "twice.txt"
        inst.write_text(INSTANCE.replace(old, new, 1))
        assert run(["duality", "--instance", str(inst)], log_file) == 2
        err = capsys.readouterr().err
        assert err == f"error: {named}\n"
        (rec,) = [json.loads(line) for line in open(log_file).read().splitlines()]
        assert rec["exit_code"] == 2 and rec["summary"] == {"error": named}

    @pytest.mark.parametrize("argv, command, shows", [
        (["bounds", "--help"], "bounds", "--family"), (["duality", "-h"], "duality", "--kappa"),
        (["--help"], None, "gen-instance"), (["-h", "sweep"], "sweep", "gen-instance")])
    def test_help_exits_0_with_one_record(self, argv, command, shows, capsys, log_file):
        assert run(argv, log_file) == 0
        assert shows in capsys.readouterr().out
        (rec,) = [json.loads(line) for line in open(log_file).read().splitlines()]
        assert rec["exit_code"] == 0 and rec["command"] == command
        assert rec["summary"] == {"help": True}

    @staticmethod
    def run_both(tmp_path, log_file, argv, config, flags):
        """Run argv once with the config text and once with the flags; return
        (exit codes, CSV bytes, config hashes) of the two runs."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        codes = (main(["--log", log_file, "--config", str(cfg)] + argv + ["--out", str(a)]),
                 run(argv + flags + ["--out", str(b)], log_file))
        hashes = [json.loads(line)["config_hash"]
                  for line in open(log_file).read().splitlines()[-2:]]
        return codes, (a.read_bytes(), b.read_bytes()), hashes

    def test_config_value_is_parsed_like_its_flag(self, tmp_path, inst_file, log_file):
        argv = ["coverage", "--family", "kst", "--instance", inst_file, "--m", "20",
                "--seed", "3"]
        (code_a, code_b), (a, b), (hash_a, hash_b) = self.run_both(
            tmp_path, log_file, argv, "coverage.trials = 50\n", ["--trials", "50"])
        assert code_a == code_b
        assert a == b
        assert b"kst,50," in a
        assert hash_a == hash_b

    def test_config_does_not_carry_over_to_the_next_run(self, tmp_path, inst_file, log_file):
        # One process parses every call with the same parser objects.
        argv = ["coverage", "--family", "kst", "--instance", inst_file, "--m", "20",
                "--seed", "3"]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("coverage.trials = 50\n")
        first, configured, again = (tmp_path / f"{n}.csv" for n in ("first", "cfg", "again"))
        assert run(argv + ["--out", str(first)], log_file) == 0
        # 50 trials without a violation leave the CP upper limit above delta: exit 1.
        assert main(["--log", log_file, "--config", str(cfg)] + argv
                    + ["--out", str(configured)]) == 1
        assert run(argv + ["--out", str(again)], log_file) == 0
        assert b"kst,50,0," in configured.read_bytes()
        assert again.read_bytes() == first.read_bytes()

    def test_config_switch_is_parsed_like_its_flag(self, tmp_path, log_file):
        argv = ["gen-instance", "--seed", "4", "--hypotheses", "3", "--points", "2"]
        codes, (a, b), (hash_a, hash_b) = self.run_both(
            tmp_path, log_file, argv, "gen-instance.nonbinary = true\n", ["--nonbinary"])
        assert codes == (0, 0)
        assert a == b
        assert hash_a == hash_b
        codes, _, (hash_off, hash_plain) = self.run_both(
            tmp_path, log_file, argv, "gen-instance.nonbinary = false\n", [])
        assert codes == (0, 0)
        assert hash_off == hash_plain != hash_a

    def test_config_switch_rejects_other_values(self, tmp_path, log_file, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("gen-instance.nonbinary = yes\n")
        assert main(["--log", log_file, "--config", str(cfg), "gen-instance", "--seed", "4",
                     "--out", str(tmp_path / "gen.txt")]) == 2
        assert "true or false" in capsys.readouterr().err


# Valid commands that finish in a few milliseconds each; INST is the instance file.
FUZZ_BASES = [
    ["bounds", "--family", "mcallester", "--emp", "0.1", "--kl", "0.2", "--m", "50"],
    ["bounds", "--family", "matched_catoni", "--emp", "0.1", "--kl", "0.2", "--m", "50",
     "--c", "1", "--c2", "0.5", "--delta", "0.05"],
    ["bounds", "--family", "flatness", "--instance", "INST", "--m", "20", "--seed", "1",
     "--h", "0.7"],
    ["coverage", "--family", "catoni", "--instance", "INST", "--trials", "20", "--m", "20",
     "--seed", "1", "--C", "2", "--beta", "1"],
    ["coverage", "--family", "kst", "--instance", "INST", "--trials", "20", "--m", "20",
     "--seed", "1", "--rule", "bound-minimizer"],
    DEBIAS + ["--k", "1"],
    ["lemmas", "--which", "xy", "--mu", "0.2,0.5", "--lambda-over-m", "0.1", "--h", "0.5"],
    ["lemmas", "--which", "shifted-flatness", "--instance", "INST", "--seed", "1", "--m", "10",
     "--trials", "50", "--t", "0.1"],
    ["lemmas", "--which", "symmetrization", "--instance", "INST", "--seed", "1", "--m", "10",
     "--trials", "20", "--kappa", "0.5"],
    ["duality", "--instance", "INST", "--kappa", "0.5"],
    ["optimize", "--family", "flatness", "--instance", "INST", "--m", "20", "--seed", "1",
     "--c", "2"],
    ["sweep", "--instance", "INST", "--m-grid", "10,20", "--trials", "3", "--seed", "1",
     "--rule", "gibbs-posterior", "--beta", "2"],
    ["gen-instance", "--seed", "1", "--hypotheses", "3", "--points", "2", "--out", "gen.txt"],
]
FUZZ_VALUES = ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "2.5", "0", "-1",
               "", "x", "1,2"]
# Instance files that are missing or malformed, by name.
FUZZ_INSTANCES = {
    "missing.txt": None,
    "empty.txt": "",
    "nan.txt": INSTANCE.replace("0.2 0.3 0.5", "0.2 nan 0.8"),
    "ragged.txt": INSTANCE.replace("0 0 1\n", "0 0\n"),
    "range.txt": INSTANCE.replace("1 1 0", "1 2 0"),
    "flag.txt": INSTANCE.replace("binary: true", "binary: false"),
    "prior.txt": INSTANCE.replace("prior: 0.25 0.25 0.25 0.25", "prior: 0.5 0.5"),
    "order.txt": "0 1\n" + INSTANCE,
    "bytes.txt": b"space: 0.5 0.5\n\xff\xfe\n",
}
# The tokens of unbiased lists: subcommands, flags and values. --log, the run log
# the test reads, is left out.
FUZZ_TOKENS = (sorted({t for base in FUZZ_BASES for t in base if t != "INST"}
                      | {"--config", "--bogus", "--rule", "frobnicate", "--help", "-h"})
               + FUZZ_VALUES + ["INST", "missing.txt", "nan.txt"])


def fuzzed_argv(rand):
    """A valid command with one bad value, flag or instance file, or an unbiased
    list of tokens."""
    if rand.random() < 0.2:
        return [rand.choice(FUZZ_TOKENS) for _ in range(rand.randint(0, 8))]
    argv = list(rand.choice(FUZZ_BASES))
    values = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")]
    kind = rand.random()
    if kind < 0.6:
        i = rand.choice(values)
        argv[i] = rand.choice(list(FUZZ_INSTANCES) if argv[i] == "INST" else FUZZ_VALUES)
    elif kind < 0.75:
        argv.insert(rand.randint(1, len(argv)),
                    rand.choice(["--bogus", "--beta-grid", "-x", "--help", "-h"]))
    elif kind < 0.9:
        del argv[rand.choice(values)]
    else:
        argv = argv[:rand.randint(0, len(argv))]
    return argv


# The extreme values that every value flag of every base takes once.
EXTREME_VALUES = ["1e308", "-1e308", "5e-324", "-5e-324", "1e-300", "nan", "inf", "0"]


def run_and_check_the_record(log, argv, runs, capsys):
    """main on argv: it exits 0, 1 or 2, prints no traceback and appends
    exactly one strict-JSON record (the log's runs-th), with its exit code.
    Returns the record."""
    code = main(["--log", str(log)] + argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in capsys.readouterr().err, argv
    lines = log.read_text().splitlines()
    assert len(lines) == runs, argv
    record = json.loads(lines[-1], parse_constant=strict_json)
    assert record["exit_code"] == code, argv
    return record


class TestFuzzedContract:
    def test_every_run_exits_0_1_or_2_without_a_traceback_and_records_once(
            self, tmp_path, monkeypatch, capsys):
        """Seeded lists of arguments, mostly valid commands with one bad value
        (NaN, +-inf, 1e308, 5e-324, 2.5 for an int flag, a missing or malformed
        instance file), an unknown flag or -h/--help, a dropped value or a cut;
        the rest unbiased lists of tokens. Every run exits 0, 1 or 2, prints no
        traceback and appends exactly one strict-JSON record, with its exit code."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inst.txt").write_text(INSTANCE)
        for name, text in FUZZ_INSTANCES.items():
            if text is not None:
                (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        log = tmp_path / "runs.jsonl"
        rand = random.Random(33)
        helps = 0
        for runs in range(1, 401):
            argv = ["inst.txt" if a == "INST" else a for a in fuzzed_argv(rand)]
            record = run_and_check_the_record(log, argv, runs, capsys)
            helps += record["summary"] == {"help": True}
        assert helps >= 5

    def test_every_value_flag_at_every_extreme_value(self, tmp_path, monkeypatch, capsys):
        """Every value flag of every base but --instance, set in turn to each of
        EXTREME_VALUES, with the rest of the base kept: 464 runs, each held to
        the contract above. RuntimeWarnings are errors in this suite, so a run
        that warns fails here, as it would under python -W error."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inst.txt").write_text(INSTANCE)
        log = tmp_path / "runs.jsonl"
        runs = 0
        for base in FUZZ_BASES:
            base = ["inst.txt" if a == "INST" else a for a in base]
            for i in range(1, len(base)):
                if not base[i - 1].startswith("--") or base[i - 1] == "--instance":
                    continue
                for value in EXTREME_VALUES:
                    runs += 1
                    run_and_check_the_record(log, base[:i] + [value] + base[i + 1:], runs, capsys)
        assert runs == 464
