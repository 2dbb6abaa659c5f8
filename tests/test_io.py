import hashlib
import json
import math

import numpy as np
import pytest

from pacbayes import ProbMeasure
from pacbayes.io import (append_run_record, fmt, format_instance, load_config,
                         load_instance, parse_config, parse_instance,
                         save_instance, write_csv)

from conftest import strict_json


SAMPLE = """\
# toy instance
space: 0.3 0.7
losses:
1 0   # hypothesis 0
0 1
binary: true
prior: 0.5 0.5
posterior: 0.9 0.1
"""


class TestParseInstance:
    def test_full_roundtrip_fields(self):
        inst = parse_instance(SAMPLE)
        assert np.allclose(inst.dist.weights, [0.3, 0.7])
        assert inst.table.loss.shape == (2, 2)
        assert inst.table.binary_flag
        assert np.allclose(inst.prior.weights, [0.5, 0.5])
        assert np.allclose(inst.posterior.weights, [0.9, 0.1])

    def test_inline_losses(self):
        inst = parse_instance("space: 1.0\nlosses: 0.5\nbinary: false\n")
        assert inst.table.loss[0, 0] == 0.5
        assert np.array_equal(inst.prior.weights, [1.0]) and inst.posterior is None

    def test_missing_prior_is_uniform_and_written_back(self):
        inst = parse_instance("space: 0.5 0.5\nlosses:\n1 0\n0 1\n0 0\n")
        assert np.array_equal(inst.prior.weights, ProbMeasure.uniform(3).weights)
        text = format_instance(inst)
        assert "prior: " + " ".join(fmt(w) for w in inst.prior.weights) in text.splitlines()
        assert np.array_equal(parse_instance(text).prior.weights, inst.prior.weights)

    @pytest.mark.parametrize("text, named", [
        ("space: nan 0.5\nlosses:\n1 0\n", "space: "),
        ("space: 0.5 0.5\nlosses:\nnan 0\n", "losses: loss entries "),
        ("space: 0.5 0.5\nlosses:\n1 0\n0 1\nprior: nan nan\n", "prior: "),
        ("space: 0.5 0.5\nlosses:\n1 0\n0 1\nposterior: 0.5 nan\n", "posterior: "),
    ], ids=["space", "losses", "prior", "posterior"])
    def test_nan_is_rejected_naming_the_section(self, text, named):
        with pytest.raises(ValueError, match=f"^{named}"):
            parse_instance(text)

    def test_missing_sections(self):
        with pytest.raises(ValueError):
            parse_instance("space: 1.0\n")
        with pytest.raises(ValueError):
            parse_instance("losses: 0.5\n")

    def test_data_before_header(self):
        with pytest.raises(ValueError):
            parse_instance("0.5 0.5\nspace: 0.5 0.5\nlosses: 0 1\n")

    def test_ragged_losses(self):
        with pytest.raises(ValueError):
            parse_instance("space: 0.5 0.5\nlosses:\n1 0\n1\n")

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            parse_instance("space: 0.5 0.5\nlosses:\n1 0 1\n")

    def test_binary_flag_contradiction(self):
        with pytest.raises(ValueError):
            parse_instance("space: 1.0\nlosses: 0.5\nbinary: true\n")
        with pytest.raises(ValueError):
            parse_instance("space: 1.0\nlosses: 1\nbinary: false\n")

    def test_measure_length_mismatch(self):
        with pytest.raises(ValueError):
            parse_instance("space: 0.5 0.5\nlosses:\n1 0\n0 1\nprior: 0.5 0.25 0.25\n")

    def test_file_roundtrip(self, tmp_path):
        inst = parse_instance(SAMPLE)
        path = tmp_path / "inst.txt"
        save_instance(inst, path)
        again = load_instance(path)
        assert np.array_equal(inst.dist.weights, again.dist.weights)
        assert np.array_equal(inst.table.loss, again.table.loss)
        assert np.array_equal(inst.posterior.weights, again.posterior.weights)
        # a second round trip is byte-identical
        assert format_instance(again) == format_instance(inst)


class TestConfig:
    def test_basic(self):
        cfg = parse_config("bounds.delta = 0.1\n# note\ncoverage.trials= 200\n")
        assert cfg == {"bounds.delta": "0.1", "coverage.trials": "200"}

    def test_bad_line(self):
        with pytest.raises(ValueError):
            parse_config("just words\n")

    def test_load(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("sweep.trials = 5\n")
        assert load_config(p) == {"sweep.trials": "5"}


class TestFmt:
    def test_infinities(self):
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"

    def test_ints_and_bools(self):
        assert fmt(True) == "true"
        assert fmt(False) == "false"
        assert fmt(7) == "7"
        assert fmt(np.int64(3)) == "3"
        assert fmt(np.bool_(True)) == "true"
        assert fmt(np.bool_(False)) == "false"

    def test_17_digits_roundtrip(self):
        x = 0.1 + 0.2
        assert float(fmt(x)) == x


class TestCsvAndLog:
    def test_write_csv(self, tmp_path):
        p = tmp_path / "out.csv"
        write_csv(p, ["a", "b"], [["x", 1.5], ["y", math.inf]])
        assert p.read_text() == "a,b\nx,1.5\ny,inf\n"

    def test_append_run_record(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        append_run_record(log, "bounds", {"family": "kst"}, 7, {"value": 0.5}, 0)
        append_run_record(log, "sweep", {"trials": 3, "kappa": math.inf}, 1,
                          {"crossover_m": math.inf, "result": [
                              {"pass": np.bool_(True), "gap": np.float64(-math.inf),
                               "m": np.int64(10), "mean": np.float64(math.nan)}],
                           "posterior": np.array([0.25, 0.75])}, 2)
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        rec, other = (json.loads(line, parse_constant=strict_json) for line in lines)
        assert rec["command"] == "bounds"
        assert rec["seed"] == 7
        assert rec["exit_code"] == 0
        assert other["exit_code"] == 2
        assert len(rec["config_hash"]) == 16
        assert "version" in rec and "time" in rec
        # Non-finite values are spelled as in the CSV; NumPy values become JSON values.
        assert other["summary"] == {"crossover_m": "inf", "posterior": [0.25, 0.75], "result": [
            {"pass": True, "gap": "-inf", "m": 10, "mean": "nan"}]}
        # The config hash is over the config as given, an infinite value included.
        canonical = json.dumps({"trials": 3, "kappa": math.inf}, sort_keys=True, default=str)
        assert other["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()[:16]
