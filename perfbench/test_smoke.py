"""Smoke test of the benchmark harness at the tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
from workloads import Invocation

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

IO_CLI = ("io.load_instance", "io.write_csv", "io.append_run_record", "cli.main")
COVERAGE_PATH = ("core.draw_sample", "core.empirical_risks", "rng.stream",
                 "measures.gibbs_losses", "measures.kl_divergence", "measures.gibbs_risk",
                 "posterior_opt.gibbs_posterior", "posterior_opt.evaluate_posterior_bound",
                 "verify.coverage_experiment", "verify.clopper_pearson_upper")
PROCESSES = ("processes.kl_ball_sup", "processes.kl_dual_value", "processes.xy_mgf_bruteforce",
             "processes.symmetrization_tail_mc", "processes.shifted_flatness_tail_mc")

# Functions each workload must call, and functions it must bypass.
CALLED = {
    "coverage": COVERAGE_PATH + ("bounds.evaluate_bound", "bounds.flatness_bound") + IO_CLI,
    "minimizer": COVERAGE_PATH + ("bounds.evaluate_bound", "bounds.flatness_bound",
                                  "posterior_opt.minimize_bound") + IO_CLI,
    "sweep-large-m": ("core.draw_sample", "core.empirical_risks", "rng.stream",
                      "measures.gibbs_losses", "measures.kl_divergence", "bounds.flatness_bound",
                      "posterior_opt.gibbs_posterior", "compare.bound_sweep") + IO_CLI,
    "lemmas": ("core.draw_sample", "rng.stream") + PROCESSES + IO_CLI,
}
BYPASSED = {
    "coverage": ("posterior_opt.minimize_bound", "compare.bound_sweep") + PROCESSES,
    "minimizer": ("compare.bound_sweep",) + PROCESSES,
    "sweep-large-m": ("verify.coverage_experiment", "posterior_opt.minimize_bound") + PROCESSES,
    "lemmas": ("bounds.evaluate_bound", "bounds.flatness_bound", "posterior_opt.gibbs_posterior",
               "posterior_opt.minimize_bound", "verify.coverage_experiment",
               "compare.bound_sweep"),
}
COUNTS = {
    "coverage": ("core.draw_sample.points", "measures.gathered_cells"),
    "minimizer": ("core.draw_sample.points", "measures.gathered_cells",
                  "posterior_opt.evals_per_minimize"),
    "sweep-large-m": ("core.draw_sample.points", "measures.gathered_cells"),
    "lemmas": ("core.draw_sample.points", "processes.xy_sign_vectors"),
}


def bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_metrics_printed_with_units():
    stdout, result = bench("coverage", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert any(line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
                   for line in stdout.splitlines())


@pytest.mark.parametrize("workload", sorted(CALLED))
def test_traced_run_reports_the_layers_it_calls(workload):
    _, result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    for name in CALLED[workload]:
        assert metrics[f"{name}.calls"]["value"] > 0, name
        assert metrics[f"{name}.self_s"]["value"] > 0, name
    for name in BYPASSED[workload]:
        assert metrics[f"{name}.calls"]["value"] == 0, name
    for name in COUNTS[workload]:
        assert metrics[name]["value"] > 0, name
    assert metrics["verify.workers"]["value"] >= 1


def test_failed_invocations_are_counted(tmp_path):
    runner = run.Runner(run.import_program(), tmp_path)
    runner.gen_instance(tmp_path / "inst.txt", 5, 3, 2)
    header = ("family", "value", "emp_term", "complexity_term", "flatness_term", "C_derived")
    argv = ("optimize", "--family", "catoni", "--instance", "inst.txt", "--m", "20", "--seed", "1")
    instances = {"inst.txt": None}
    runner.run(Invocation("ok", argv, 1, header, header[1:5]), instances, tmp_path)
    runner.run(Invocation("usage", argv[:2] + ("nonsense",) + argv[3:], 1, header, ()),
               instances, tmp_path)
    runner.run(Invocation("contract", argv, 1, header, header[1:5], {"family": ["kst"]}),
               instances, tmp_path)
    assert (runner.attempted, runner.failed) == (4, 2)
    assert [e.split(":")[0] for e in runner.errors] == ["usage", "contract"]


def test_scaling_divides_out_host_speed():
    for kind, reference in hostspeed.REFERENCE_S.items():
        assert hostspeed.scaled(0.3, kind, reference, reference) == pytest.approx(0.3)
        assert hostspeed.scaled(0.3, kind, reference, 3 * reference) == pytest.approx(0.15)
        assert hostspeed.kernel_seconds(kind) > 0
