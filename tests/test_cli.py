import json
import math

import numpy as np
import pytest

from pacbayes import (BoundParams, ProbMeasure, Sample, coverage_experiment,
                      derive_matched_catoni_constants, minimize_bound)
from pacbayes.cli import duality_tolerance, main
from pacbayes.io import fmt, load_instance, write_csv

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
            return ProbMeasure([minimize_bound("catoni", params, prior, table, s,
                                               (0.0, 0.1, 1.0, 10.0))[0].weights
                                for s in map(Sample, block.counts)])

        rep = coverage_experiment(inst.table, inst.dist, inst.prior, rule,
                                  "catoni", params, m=30, trials=60, seed=2)
        write_csv(expected, ["family", "trials", "violations", "cp_upper", "mean_slack"],
                  [["catoni", rep.trials, rep.violations, rep.clopper_pearson_upper,
                    rep.mean_slack]])
        assert out.read_bytes() == expected.read_bytes()


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

    def test_xy_h_above_one_does_not_apply(self, capsys, log_file):
        # The lemma needs 0 < h <= 1; forced past it, the run checks nothing.
        code = run(["lemmas", "--which", "xy", "--mu", "0.5,0.5,0.5", "--lambda-over-m", "0.05",
                    "--c", "1", "--c2", "0.5", "--h", "2", "--force"], log_file)
        out = capsys.readouterr().out
        assert code == 0
        assert "applies false" in out.splitlines() and out.splitlines()[-1] == "PASS"

    @pytest.mark.parametrize("mu", ["0.5", "0.5,0"])
    def test_xy_forced_overflow_prints_inf(self, mu, capsys, log_file):
        # The MGF is +inf in floating point; a coordinate with mu = 0 keeps its factor 1.
        code = run(["lemmas", "--which", "xy", "--mu", mu, "--lambda-over-m", "1e300",
                    "--force"], log_file)
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
        assert abs(float(row["gap"])) <= duality_tolerance(float(row["primal"]))

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

    def test_fail_exits_1(self, monkeypatch, capsys, inst_file, log_file):
        # A dual far from the primal is a FAIL: exit 1, in stdout and in the record.
        monkeypatch.setattr("pacbayes.cli.kl_dual_value", lambda *a: np.float64(5.0))
        assert run(["duality", "--instance", inst_file, "--kappa", "0.7"], log_file) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "FAIL" and printed_row(out)["pass"] == "false"
        with open(log_file) as fh:
            record = json.loads(fh.readline(), parse_constant=strict_json)
        assert record["exit_code"] == 1 and record["summary"]["result"][0]["pass"] is False


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
        assert run(["optimize", "--family", "catoni", "--instance", inst_file, "--seed", "2",
                    "--beta-grid", "0,inf"], log_file) == 0
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

    def test_bad_instance_path(self, log_file):
        assert run(["duality", "--instance", "/nonexistent/x.txt"], log_file) == 2

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
          for flag, *value in (("--f", "3"), ("--f", "0"), ("--force",))),
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
            "f-with-debias", "f-0-with-debias", "force-with-debias", "seed-with-xy",
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
        ["optimize", "--family", "kst", "--instance", "INST", "--m", "10", "--seed", "1",
         "--beta-grid", "nan"],
        *(["optimize", "--family", "kst", "--instance", "INST", "--m", "10", "--seed", "1",
           "--beta-grid", grid] for grid in ("-1", "")),
        *(["lemmas", "--which", "shifted-flatness", "--instance", "INST", "--seed", "1",
           flag, "0"] for flag in ("--m", "--h", "--c2")),
        ["lemmas", "--which", "xy", "--mu", "0.5", "--lambda-over-m", "nan", "--force"],
        ["lemmas", "--which", "debias", "--instance", "INST", "--m", "5",
         "--lambda-over-m", "nan"],
        ["lemmas", "--which", "debias", "--instance", "INST", "--m", "5",
         "--lambda-over-m", "0.5", "--k", "nan"],
        ["lemmas", "--which", "xy", "--mu", "0.5,nan", "--lambda-over-m", "0.01"],
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
            "c2-nan", "beta-grid-nan", "beta-grid-negative", "beta-grid-empty",
            "shifted-flatness-m-0", "shifted-flatness-h-0", "shifted-flatness-c2-0",
            "xy-lambda-nan-forced", "debias-lambda-nan", "debias-k-nan", "xy-mu-nan",
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

    def test_out_of_memory_exits_2_with_one_record(self, log_file, capsys, monkeypatch):
        import pacbayes.cli

        def too_big(args):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setitem(pacbayes.cli._SUBPARSERS["gen-instance"]._defaults, "handler",
                            too_big)
        assert run(["gen-instance", "--seed", "1", "--out", "j.txt"], log_file) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 72.8 TiB for an array\n"
        (rec,) = [json.loads(line) for line in open(log_file).read().splitlines()]
        assert rec["exit_code"] == 2 and "out of memory" in rec["summary"]["error"]

    @pytest.mark.parametrize("argv, target, name", [
        (["duality", "--instance", "INST", "--kappa", "0.7"], "pacbayes.cli", "kl_ball_sup"),
        (["optimize", "--family", "flatness", "--instance", "INST", "--m", "50", "--seed", "6"],
         "pacbayes.posterior_opt", "_MAX_TILTS"),
    ], ids=["duality", "optimize"])
    def test_solver_failure_exits_1_with_one_record(self, argv, target, name, inst_file,
                                                    log_file, capsys, monkeypatch):
        # kl_ball_sup fails as after 200 steps; minimize_bound gets a cap of one tilt.
        def fail(*args):
            raise RuntimeError("kl_ball_sup: 1 rows still open after 200 steps")

        monkeypatch.setattr(f"{target}.{name}", fail if name == "kl_ball_sup" else 1)
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

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--help"])
        assert exc.value.code == 0
        assert "--family" in capsys.readouterr().out

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
        argv = ["lemmas", "--which", "xy", "--mu", "0.5,0.5", "--lambda-over-m", "0.001"]
        codes, (a, b), (hash_a, hash_b) = self.run_both(
            tmp_path, log_file, argv, "lemmas.force = true\n", ["--force"])
        assert codes == (0, 0)
        assert a == b
        assert hash_a == hash_b
        codes, _, (hash_off, hash_plain) = self.run_both(
            tmp_path, log_file, argv, "lemmas.force = false\n", [])
        assert codes == (0, 0)
        assert hash_off == hash_plain != hash_a

    def test_config_switch_rejects_other_values(self, tmp_path, log_file, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("lemmas.force = yes\n")
        assert main(["--log", log_file, "--config", str(cfg), "lemmas", "--which", "xy",
                     "--mu", "0.5", "--lambda-over-m", "0.001"]) == 2
        assert "true or false" in capsys.readouterr().err
