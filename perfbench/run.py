"""pacbayes benchmark: drives the `pacbayes` CLI in-process on one workload.

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Every invocation goes through `pacbayes.cli.main(argv)`, exactly what the
`pacbayes` console script runs, and must exit 0, write a CSV that honours its
header, and write the same bytes every time it is repeated in the run.

--trace 0 prints the end-to-end metrics: set-up time (median of three
set-ups: this process and two fresh interpreters), median and tail pass time,
the median over passes of sample draws per second, and peak resident memory.
Pass times, and the rates derived from them, are scaled to reference host
speed (see hostspeed.py); the results file also gives the median wall time.
Set-up time is wall time.
--trace 1 alternates untraced and traced rounds and prints per-layer metrics
from the span recorder in spans.py. The last line of standard output is one JSON object;
a results file with the run's metadata goes to perfbench/out/.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_CHILDREN = 2
MAX_MEASURE_SECONDS = 120.0  # keeps a run under the 180 s limit if the program slows down

sys.path.insert(0, str(HERE))
from hostspeed import kernel_seconds, scaled  # noqa: E402
from spans import SPAN_NAMES, Recorder, summarize  # noqa: E402
from workloads import WORKLOADS, Invocation, build  # noqa: E402


def import_program():
    """Import pacbayes from this checkout's src/, never from elsewhere."""
    if not (SRC / "pacbayes" / "__init__.py").is_file():
        sys.exit(f"error: no pacbayes sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import pacbayes.cli
    return pacbayes


class Runner:
    """Runs CLI invocations, times them and checks their outputs."""

    def __init__(self, pacbayes, workdir: Path):
        self.pacbayes = pacbayes
        self.workdir = workdir
        self.log = workdir / "runs.jsonl"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_output: dict[tuple, bytes] = {}
        self.kernel = "serial"  # the workload's reference kernel (see hostspeed.py)
        self.kernel_s: list[float] = []  # its times, one after each invocation

    def _main(self, argv: list[str]):
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.pacbayes.cli.main(["--log", str(self.log)] + argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped traceback is a failed invocation
            code = f"{type(exc).__name__}: {exc}"
        return perf_counter() - start, code, sink.getvalue()

    def _record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")

    def gen_instance(self, path: Path, seed: int, n_h: int, n_z: int) -> None:
        _, code, text = self._main(["gen-instance", "--seed", str(seed), "--hypotheses", str(n_h),
                                    "--points", str(n_z), "--out", str(path)])
        problem = None
        if code != 0:
            problem = f"exit {code}: {text.strip()[-200:]}"
        else:
            table = self.pacbayes.io.load_instance(path).table
            if (table.hypothesis_count, table.point_count) != (n_h, n_z):
                problem = f"instance is {table.hypothesis_count}x{table.point_count}"
        self._record(f"gen-instance {path.name}", problem)

    def run(self, inv: Invocation, instances: dict, folder: Path) -> tuple[float, float, bytes]:
        """Run one invocation; returns its wall time, that time at reference
        host speed, and its CSV bytes."""
        out = folder / f"{inv.name}.csv"
        out.unlink(missing_ok=True)
        argv = [str(folder / a) if a in instances else a for a in inv.argv]
        before = self.kernel_s[-1] if self.kernel_s else kernel_seconds(self.kernel)
        elapsed, code, text = self._main(argv + ["--out", str(out)])
        self.kernel_s.append(kernel_seconds(self.kernel))
        data = b""
        if code != 0:
            problem = f"exit {code}: {text.strip()[-200:]}"
        elif not out.is_file():
            problem = "no CSV written"
        else:
            data = out.read_bytes()
            problem = inv.check(data.decode("utf-8"))
            first = self.first_output.setdefault((folder, inv.name), data)
            if problem is None and data != first:
                problem = "CSV differs from the first run of the same invocation"
        self._record(inv.name, problem)
        return elapsed, scaled(elapsed, self.kernel, before, self.kernel_s[-1]), data


def prepare(runner: Runner, workload: str, seed: int, size: str):
    """Set-up: write the instance files, then one untimed warm-up round at the
    tiny size, which runs every invocation kind once and fills lazy caches."""
    work = build(workload, size, seed)
    warm = build(workload, "tiny", seed)
    runner.kernel = work.kernel
    for wl, folder in ((work, runner.workdir / "ref"), (warm, runner.workdir / "warm")):
        folder.mkdir(parents=True)
        for name, (gen_seed, n_h, n_z) in wl.instances.items():
            runner.gen_instance(folder / name, gen_seed, n_h, n_z)
    for pass_ in warm.passes:
        for inv in pass_:
            runner.run(inv, warm.instances, runner.workdir / "warm")
    return work


def run_passes(runner: Runner, work, passes, digest) -> tuple[list[float], list[float]]:
    """Runs the passes; returns their wall times and their times at reference host speed."""
    walls, times = [], []
    for pass_ in passes:
        wall = total = 0.0
        for inv in pass_:
            elapsed, at_reference, data = runner.run(inv, work.instances, runner.workdir / "ref")
            wall += elapsed
            total += at_reference
            digest.update(data)
        walls.append(wall)
        times.append(total)
    return walls, times


def tail(times: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_children(args) -> list[dict]:
    """Set up again in fresh interpreters, one after the other."""
    results = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def measure(runner: Runner, work, seconds: float) -> dict:
    """Untraced rounds until `seconds` have passed and the tail has its samples."""
    walls, times, rates, digests = [], [], [], set()
    start = perf_counter()
    while True:
        digest = hashlib.sha256()
        round_walls, round_times = run_passes(runner, work, work.passes, digest)
        walls += round_walls
        times += round_times
        rates += [sum(inv.draws for inv in pass_) / t for pass_, t in zip(work.passes, round_times)]
        digests.add(digest.hexdigest())
        elapsed = perf_counter() - start
        if elapsed >= MAX_MEASURE_SECONDS or (elapsed >= seconds and len(times) >= work.min_passes):
            break
    return {"walls": walls, "times": times, "rates": rates, "digests": digests}


def measure_traced(runner: Runner, work, seconds: float, pacbayes) -> tuple[dict, dict, list]:
    """Alternate untraced and traced rounds; per-layer figures are per round."""
    recorder = Recorder()
    untraced, traced, summaries, digests = [], [], [], set()
    start = perf_counter()
    while True:
        digest = hashlib.sha256()
        untraced += run_passes(runner, work, work.passes, digest)[1]
        digests.add(digest.hexdigest())
        digest = hashlib.sha256()
        recorder.install()
        try:
            for pass_ in work.passes:
                recorder.begin_pass()
                traced += run_passes(runner, work, [pass_], digest)[1]
        finally:
            recorder.uninstall()
        digests.add(digest.hexdigest())
        round_spans = recorder.take()
        summaries.append(summarize(round_spans))
        if perf_counter() - start >= min(seconds, MAX_MEASURE_SECONDS):
            break

    metrics, consistent = {}, True
    for name in SPAN_NAMES:
        calls = {s["functions"][name]["calls"] for s in summaries}
        consistent &= len(calls) == 1
        metrics[f"{name}.calls"] = (max(calls), "count")
        metrics[f"{name}.self_s"] = (statistics.median(
            s["functions"][name]["self_s"] for s in summaries), "s")
    first = summaries[0]
    work_of = {name: f["work"] for name, f in first["functions"].items()}
    cells = sum(work_of[n] for n in ("core.empirical_risks", "measures.gibbs_losses",
                                     "bounds.flatness_bound"))
    minimizes = first["functions"]["posterior_opt.minimize_bound"]["calls"]
    metrics["core.draw_sample.points"] = (work_of["core.draw_sample"], "count")
    metrics["measures.gathered_cells"] = (cells, "count")
    metrics["measures.gathered_bytes_computed"] = (8 * cells, "B")
    metrics["processes.xy_sign_vectors"] = (work_of["processes.xy_mgf_bruteforce"], "count")
    metrics["posterior_opt.evals_per_minimize"] = (
        first["evals_under_minimize"] / minimizes if minimizes else 0.0, "count")
    metrics["verify.workers"] = (pacbayes.verify.worker_count(), "count")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    for s in summaries[1:]:
        consistent &= s["evals_under_minimize"] == first["evals_under_minimize"]
        consistent &= all(s["functions"][n]["work"] == work_of[n] for n in SPAN_NAMES)
    detail = {"untraced_pass_s": statistics.median(untraced),
              "traced_pass_s": statistics.median(traced),
              "traced_rounds": len(summaries), "counts_repeat": consistent,
              "csv_sha256": sorted(digests)}
    return metrics, detail, round_spans


def write_spans(path: Path, spans: list) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("pass_id\tspan_id\tparent_id\tname\tstart\tend\twork\n")
        for span in spans:
            fh.write("\t".join(map(str, span)) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("reference", "tiny"), default="reference",
                        help="tiny runs every invocation at toy scale (smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    pacbayes = import_program()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    runner = Runner(pacbayes, workdir)
    try:
        work = prepare(runner, args.workload, args.seed, args.size)
        setup_s = perf_counter() - _PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "attempted": runner.attempted,
                              "failed": runner.failed, "errors": runner.errors}))
            return 0
        if args.trace:
            metrics, detail, last_spans = measure_traced(runner, work, args.seconds, pacbayes)
            write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz", last_spans)
        else:
            children = setup_children(args)
            for child in children:
                runner.attempted += child["attempted"]
                runner.failed += child["failed"]
                runner.errors += child["errors"]
            setups = [setup_s] + [c["setup_s"] for c in children]
            run = measure(runner, work, args.seconds)
            times = run["times"]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "pass_s": (statistics.median(times), "s"),
                "pass_s_tail": (tail(times, work.tail_pct), "s"),
                "trials_per_s": (statistics.median(run["rates"]), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
            detail = {"setup_samples_s": setups,
                      "wall_pass_s": statistics.median(run["walls"]),
                      "kernel": runner.kernel,
                      "kernel_s_median": statistics.median(runner.kernel_s),
                      "passes": len(times),
                      "tail_percentile": work.tail_pct,
                      "passes_beyond_tail": len(times) - math.ceil(work.tail_pct / 100 * len(times)),
                      "csv_sha256": sorted(run["digests"])}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy
    import scipy
    attempted, failed = runner.attempted, runner.failed
    correct = (failed == 0 and detail.get("counts_repeat", True)
               and len(detail["csv_sha256"]) == 1)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "verify_workers": pacbayes.verify.worker_count(),
        "pacbayes_threads_set": "PACBAYES_THREADS" in os.environ,
        "instances": {name: {"n_h": n_h, "n_z": n_z}
                      for name, (_, n_h, n_z) in work.instances.items()},
        "correct": correct, "attempted": attempted, "failed": failed,
        "errors": runner.errors[:20], "detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for error in runner.errors[:20]:
        print(f"FAILED {error}")
    for key, value in detail.items():
        print(f"{key:<28}{value}")
    for key, (value, unit) in metrics.items():
        print(f"{key:<48}{value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
