import hashlib
import json
import math

import numpy as np
import pytest

from pacbayes import ProbMeasure
from pacbayes.cli import main
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
        assert "prior: " + " ".join(["0.3333333333333333"] * 3) in text.splitlines()
        assert np.array_equal(parse_instance(text).prior.weights, inst.prior.weights)

    def test_numbers_are_spelled_at_their_shortest(self):
        inst = parse_instance("space: 0.25 0.75\nlosses:\n0.585 1.0\n0 0.1\n"
                              "posterior: 0.1 0.9\n")
        assert format_instance(inst).splitlines()[1:] == [
            "space: 0.25 0.75", "losses:", "0.585 1", "0 0.1", "binary: false",
            "prior: 0.5 0.5", "posterior: 0.1 0.9"]

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
        with pytest.raises(ValueError, match="^losses: rows must all have the same length$"):
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


def reference_parse(text):
    """A per-token reference parser, `float()` on every token. Returns (loss,
    space, prior, posterior), None for an absent section."""
    sections = {}
    for raw in text.splitlines():
        line = raw.partition("#")[0].strip()
        head, sep, rest = line.partition(":")
        if sep and head.strip().lower() in ("space", "losses", "binary", "prior", "posterior"):
            current = sections.setdefault(head.strip().lower(), [])
            line = rest.strip()
        if line:
            current.append(line)
    rows = [[float(x) for x in row.split()] for row in sections["losses"]]
    flat = {name: np.array([x for row in sections[name] for x in map(float, row.split())])
            for name in ("space", "prior", "posterior") if name in sections}
    return np.array(rows), flat["space"], flat.get("prior"), flat.get("posterior")


def same_bits(a, b):
    return a is None and b is None or a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_parses_like_the_reference(text):
    inst = parse_instance(text)
    loss, space, prior, posterior = reference_parse(text)
    assert same_bits(inst.table.loss, loss)
    assert same_bits(inst.dist.weights, space)
    assert prior is None or same_bits(inst.prior.weights, prior)
    assert same_bits(None if inst.posterior is None else inst.posterior.weights, posterior)


def gen_instance(tmp_path, n_h, n_z, seed, *flags):
    path = tmp_path / f"gen-{n_h}-{n_z}-{seed}.txt"
    assert main(["--log", str(tmp_path / "runs.jsonl"), "gen-instance", "--hypotheses",
                 str(n_h), "--points", str(n_z), "--seed", str(seed), "--out", str(path),
                 *flags]) == 0
    return path.read_text(encoding="utf-8")


def token(gen, x):
    """x as one of the spellings an instance file may hold: fmt's 17 digits or
    15 to 40 significant decimal digits."""
    return fmt(x) if gen.random() < 0.5 else f"{x:.{gen.integers(14, 40)}e}"


def messy_instance(gen, n_h, n_z):
    """A random instance text whose numbers carry 15 to 40 digits, subnormals
    included, laid out with inline data, comments after data, blank lines,
    tabs, measures split over lines and CRLF line ends."""
    subnormal = gen.integers(1, 2 ** 52, (n_h, n_z)) * 5e-324
    loss = np.where(gen.random((n_h, n_z)) < 0.2, subnormal, gen.random((n_h, n_z)))
    loss[gen.random((n_h, n_z)) < 0.2] = 1.0
    space, prior, posterior = (gen.dirichlet(np.ones(n)) for n in (n_z, n_h, n_h))

    def words(v):
        return [token(gen, x) for x in v]

    rows = [gen.choice([" ", "\t", " \t "]).join(words(row)) for row in loss]
    split = gen.integers(0, n_h + 1)
    lines = ["# random instance", "", "Space: " + " ".join(words(space)) + "  # D",
             "losses: " + rows[0]] + [row + ("\t# h" if gen.random() < 0.3 else "")
                                     for row in rows[1:]]
    lines += ["", "prior:", " ".join(words(prior[:split])), " ".join(words(prior[split:])),
              "posterior:\t" + " ".join(words(posterior)), "   "]
    return "\r\n".join(lines) + "\r\n"


class TestParserEquivalence:
    """NumPy's text reader gives every parsed array bit for bit as `float()` does."""

    @pytest.mark.parametrize("flags", [(), ("--nonbinary",)], ids=["binary", "nonbinary"])
    def test_gen_instance_output(self, flags, tmp_path):
        gen = np.random.default_rng(22)
        for seed in range(12):
            n_h, n_z = (int(n) for n in gen.integers(1, 40, 2))
            assert_parses_like_the_reference(gen_instance(tmp_path, n_h, n_z, seed, *flags))
        for n_h, n_z in ((1, 1), (1, 9), (9, 1)):
            assert_parses_like_the_reference(gen_instance(tmp_path, n_h, n_z, 5, *flags))

    def test_long_decimals_subnormals_comments_tabs_and_crlf(self):
        gen = np.random.default_rng(23)
        for n_h, n_z in [(1, 1), (1, 7), (7, 1)] + [tuple(gen.integers(1, 30, 2))
                                                    for _ in range(40)]:
            text = messy_instance(gen, int(n_h), int(n_z))
            assert_parses_like_the_reference(text)
            assert_parses_like_the_reference(text.replace("\r\n", "\n"))

    def test_a_large_instance_round_trips_byte_for_byte(self, tmp_path):
        for flags in ((), ("--nonbinary",)):
            text = gen_instance(tmp_path, 128, 64, 320, *flags)
            assert format_instance(parse_instance(text)) == text


class TestParseErrors:
    @pytest.mark.parametrize("row", ["1 abc 1", "1_0e-1 1 1", "\u0661 1 1"],
                             ids=["text", "underscore", "arabic-indic-one"])
    def test_a_loss_the_reader_cannot_convert_names_the_section(self, row):
        # float() reads 1_0e-1 and the Arabic-Indic digit one as 1.0; NumPy's
        # text reader, which reads `losses`, takes neither.
        with pytest.raises(ValueError, match="^losses: could not convert"):
            parse_instance(f"space: 0.2 0.3 0.5\nlosses: {row}\n")

    def test_measure_sections_read_numbers_as_float_does(self):
        inst = parse_instance("space: 1_0e-1\nlosses: 1\nprior: \u0661\n")
        assert inst.dist.weights.tolist() == inst.prior.weights.tolist() == [1.0]
        with pytest.raises(ValueError, match="^prior: could not convert string to float: 'x'$"):
            parse_instance("space: 1\nlosses: 1\nprior: x\n")

    @pytest.mark.parametrize("name", ["space", "losses", "binary", "prior", "posterior"])
    def test_a_repeated_section_is_rejected(self, name):
        parts = {"space": "space: 0.5 0.5", "losses": "losses:\n1 0", "binary": "binary: true",
                 "prior": "prior: 1", "posterior": "posterior: 1"}
        text = "\n".join(parts.values()) + "\n"
        again = text + parts[name].replace(name, name.upper()) + "\n"
        assert parse_instance(text).table.loss.shape == (1, 2)
        with pytest.raises(ValueError, match=f"^{name}: section appears twice$"):
            parse_instance(again)

    def test_an_empty_measure_section(self):
        with pytest.raises(ValueError, match="^prior: 0 entries where the loss matrix needs 2$"):
            parse_instance("space: 1\nlosses:\n1\n0\nprior:\n")


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
                           "posterior": np.array([0.25, 0.75])}, 2, "i.txt")
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        rec, other = (json.loads(line, parse_constant=strict_json) for line in lines)
        assert rec["command"] == "bounds"
        assert rec["seed"] == 7
        assert rec["exit_code"] == 0
        assert other["exit_code"] == 2
        assert rec["instance"] is None and other["instance"] == "i.txt"
        assert len(rec["config_hash"]) == 16
        assert "version" in rec and "time" in rec
        # Non-finite values are spelled as in the CSV; NumPy values become JSON values.
        assert other["summary"] == {"crossover_m": "inf", "posterior": [0.25, 0.75], "result": [
            {"pass": True, "gap": "-inf", "m": 10, "mean": "nan"}]}
        # The config hash is over the config as given, an infinite value included,
        # and not over the instance path.
        canonical = json.dumps({"trials": 3, "kappa": math.inf}, sort_keys=True, default=str)
        assert other["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()[:16]
