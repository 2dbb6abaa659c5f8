import json
import math

import numpy as np
import pytest

from pacbayes import BoundParams, coverage_experiment, minimize_bound, row_by_row
from pacbayes.cli import main
from pacbayes.io import load_instance, write_csv

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


class TestBounds:
    def test_closed_form_mcallester(self, capsys, log_file):
        code = run(["bounds", "--family", "mcallester", "--emp", "0.1",
                    "--kl", "0.13081203594113694", "--m", "100", "--delta", "0.05"],
                   log_file)
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split("value")[1].split()[0])
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
        out = capsys.readouterr().out
        assert "flatness" in out and "rate" in out

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
        assert "violations  0" in out
        assert "PASS" in out

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

        @row_by_row
        def rule(prior, table, s):
            return minimize_bound("catoni", params, prior, table, s, (0.0, 0.1, 1.0, 10.0), 20)[0]

        rep = coverage_experiment(inst.table, inst.dist, inst.prior_or_uniform(), rule,
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
        assert "PASS" in out
        gap = float(out.split("gap")[1].split()[0])
        assert abs(gap) <= 1e-6

    def test_large_kappa(self, capsys, inst_file, log_file):
        # sup saturates at the support max; the dual needs huge lambda
        assert run(["duality", "--instance", inst_file, "--kappa", "50"], log_file) == 0
        assert "PASS" in capsys.readouterr().out


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
        out = capsys.readouterr().out
        value = float(out.split("value")[1].split()[0])
        assert value < 0.9

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
    ], ids=["duality-no-instance", "optimize-no-instance", "sweep-no-instance",
            "debias-no-instance", "unknown-flag", "bad-family", "config-bad-rule",
            "unknown-command", "beta-with-fixed-Q", "beta-with-bound-minimizer",
            "config-beta-with-fixed-Q"])
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

    def test_beta_is_hashed_only_for_the_rule_that_reads_it(self, tmp_path, inst_file,
                                                            log_file, monkeypatch):
        import pacbayes.cli
        configs = []
        record = pacbayes.cli.append_run_record
        monkeypatch.setattr(pacbayes.cli, "append_run_record",
                            lambda log, command, config, *rest: (configs.append(config),
                                                                 record(log, command, config,
                                                                        *rest)))
        argv = ["sweep", "--instance", inst_file, "--m-grid", "10,50", "--seed", "2"]
        outs = [tmp_path / f"{n}.csv" for n in range(4)]
        assert run(argv + ["--out", str(outs[0])], log_file) == 0
        assert run(argv + ["--rule", "gibbs-posterior", "--out", str(outs[1])], log_file) == 0
        assert run(argv + ["--rule", "gibbs-posterior", "--beta", "1",
                           "--out", str(outs[2])], log_file) == 0
        assert run(argv + ["--rule", "gibbs-posterior", "--beta", "5",
                           "--out", str(outs[3])], log_file) == 0
        assert "beta" not in configs[0]
        assert [c["beta"] for c in configs[1:]] == [1.0, 1.0, 5.0]
        # The default beta is beta = 1, in the output and in the hash.
        assert outs[1].read_bytes() == outs[2].read_bytes() != outs[3].read_bytes()
        default, one, five = (json.loads(line)["config_hash"]
                              for line in open(log_file).read().splitlines()[1:])
        assert default == one != five

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
