"""Workloads of the pacbayes benchmark, as lists of CLI invocations.

Every workload is built from the workload seed alone: the instance files come
from `pacbayes gen-instance` with seeds derived from it, and so do the sample
seeds and the `lemmas --which xy` mean vectors. Each size ("reference" for
measurement, "tiny" for the warm-up round and the smoke test) gives the same
invocations at a smaller scale.

A pass is the unit that is timed; a round is every pass of the workload once,
and runs repeat whole rounds so the mix of passes is the same in every run.

Workloads, the layers they load or bypass, and the release criteria they
reproduce (see README.md in this directory for the full rationale):

- coverage: criterion 8. `coverage` for all five families on three binary
  instances (n_h=5, n_z=4), m=100, gibbs-posterior, delta=0.05. Fixed cost
  per trial (draw, posterior rule, bound); runs the `verify` thread pool.
- minimizer: `coverage --rule bound-minimizer` plus `optimize` on a mid
  instance (n_h=50, n_z=16, m=200). `minimize_bound` is nearly all the work.
- sweep-large-m: criterion 11's sweep at stress size (n_h=128, n_z=64,
  m up to 1e5). O(n_h * m) loss gathers; few trials.
- lemmas: criteria 4, 6 and 7: symmetrization (linear, m=50), shifted
  flatness, the exact xy MGF at m in {10, 12}, and KL-ball duality. The
  `processes` layer; no posterior rule or bound family runs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

COVERAGE_HEADER = ("family", "trials", "violations", "cp_upper", "mean_slack")
BOUNDS_HEADER = ("family", "value", "emp_term", "complexity_term", "flatness_term", "C_derived")
SWEEP_HEADER = ("m", "catoni_mean", "flatness_mean", "T_m_mean", "kl_mean", "crossover_flag")
DUALITY_HEADER = ("primal", "dual", "gap", "pass")
FAMILIES = ("mcallester", "catoni", "kst", "matched_catoni", "flatness")
DELTA = 0.05


@dataclass(frozen=True)
class Invocation:
    """One `pacbayes` command line (without --log and --out) and its output contract."""

    name: str
    argv: tuple[str, ...]
    draws: int                      # training-sample draws the command asks for
    header: tuple[str, ...]
    numeric: tuple[str, ...]        # columns that must hold finite numbers
    expect: dict = field(default_factory=dict)  # column -> exact values, row by row
    verdict: str | None = None      # column holding the command's own PASS/FAIL

    def check(self, text: str) -> str | None:
        """None if the CSV text honours the contract, else what is wrong."""
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != self.header:
            return f"header {rows[0] if rows else None} != {list(self.header)}"
        body = rows[1:]
        if not body or any(len(r) != len(self.header) for r in body):
            return "missing or ragged rows"
        col = {name: [r[i] for r in body] for i, name in enumerate(self.header)}
        for name in self.numeric:
            for cell in col[name]:
                try:
                    value = float(cell)
                except ValueError:
                    return f"{name}={cell!r} is not a number"
                if not math.isfinite(value):
                    return f"{name}={cell!r} is not finite"
        for name, values in self.expect.items():
            if col[name] != list(values):
                return f"{name} column {col[name]} != {list(values)}"
        # `lemmas --which xy` spells its verdict 1 (a NumPy bool reaches the
        # number formatter); every other command writes true.
        if self.verdict and any(cell not in ("true", "1") for cell in col[self.verdict]):
            return f"{self.verdict} column reads {col[self.verdict]}"
        return None


@dataclass(frozen=True)
class Workload:
    instances: dict[str, tuple[int, int, int]]  # file name -> (gen seed, n_h, n_z)
    passes: tuple[tuple[Invocation, ...], ...]
    tail_pct: int    # pass_s_tail percentile; min_passes leaves >= 10 passes beyond it
    min_passes: int
    kernel: str = "serial"  # reference kernel that scales the timings (see hostspeed.py)


def _coverage(size: str, seed: int) -> Workload:
    trials = 1000 if size == "reference" else 100
    instances = {f"cov{k}.txt": (seed * 100 + k, 5, 4) for k in range(3)}
    passes = []
    for family in FAMILIES:
        for k, inst in enumerate(instances):
            argv = ("coverage", "--family", family, "--instance", inst, "--trials", str(trials),
                    "--m", "100", "--rule", "gibbs-posterior", "--delta", str(DELTA),
                    "--seed", str(seed * 100 + 50 + k))
            passes.append((Invocation(f"coverage-{family}-{k}", argv, trials, COVERAGE_HEADER,
                                      COVERAGE_HEADER[1:], {"trials": [str(trials)]}),))
    # Its 1000 short trials hand the interpreter lock between the pool's
    # threads all the time, so the pooled kernel tracks its speed.
    return Workload(instances, tuple(passes), tail_pct=85, min_passes=75, kernel="pooled")


def _minimizer(size: str, seed: int) -> Workload:
    n_h, n_z, m = (50, 16, 200) if size == "reference" else (8, 6, 100)
    trials = 100
    instances = {"mid.txt": (seed * 100 + 10, n_h, n_z)}
    passes = []
    for family in ("mcallester", "catoni", "flatness"):
        cov = ("coverage", "--family", family, "--instance", "mid.txt", "--trials", str(trials),
               "--m", str(m), "--rule", "bound-minimizer", "--delta", str(DELTA),
               "--seed", str(seed * 100 + 60))
        opt = ("optimize", "--family", family, "--instance", "mid.txt", "--m", str(m),
               "--delta", str(DELTA), "--seed", str(seed * 100 + 61))
        passes.append((
            Invocation(f"coverage-{family}", cov, trials, COVERAGE_HEADER, COVERAGE_HEADER[1:],
                       {"trials": [str(trials)]}),
            Invocation(f"optimize-{family}", opt, 1, BOUNDS_HEADER, BOUNDS_HEADER[1:5]),
        ))
    return Workload(instances, tuple(passes), tail_pct=75, min_passes=42)


def _sweep(size: str, seed: int) -> Workload:
    n_h, n_z, grid = ((128, 64, (1000, 10000, 100000)) if size == "reference"
                      else (8, 6, (100, 1000)))
    trials = 1
    instances = {"big.txt": (seed * 100 + 20, n_h, n_z)}
    argv = ("sweep", "--instance", "big.txt", "--m-grid", ",".join(map(str, grid)),
            "--trials", str(trials), "--rule", "gibbs-posterior", "--delta", str(DELTA),
            "--seed", str(seed * 100 + 70))
    inv = Invocation("sweep", argv, trials * len(grid), SWEEP_HEADER, SWEEP_HEADER[:5],
                     {"m": [str(m) for m in grid]})
    return Workload(instances, ((inv,),), tail_pct=75, min_passes=40)


def _lemmas(size: str, seed: int) -> Workload:
    ref = size == "reference"
    sym_trials, sf_trials = (40, 2000) if ref else (5, 200)
    instances = {"lem.txt": (seed * 100 + 30, 10, 6), "flat.txt": (seed * 100 + 31, 4, 5)}
    # Means for the exact xy MGF; lambda/m at half the admissible cap for
    # c=1, h=0.5 and the default c2 = h^2 c / (1 + 16 h^2 c).
    c, h = 1.0, 0.5
    c2 = h * h * c / (1.0 + 16.0 * h * h * c)
    lam = 0.5 * (h * h * c - c2) / (2.0 * (1.0 + h * h * c) * (1.0 + c2))
    gen = np.random.default_rng(seed)
    xy_sizes = (10, 10, 12, 12) if ref else (4, 6)
    invs = [
        Invocation("symmetrization", ("lemmas", "--which", "symmetrization", "--instance",
                                      "lem.txt", "--m", "50", "--trials", str(sym_trials),
                                      "--seed", str(seed * 100 + 80)),
                   2 * sym_trials, ("which", "lhs", "rhs", "pass"), ("lhs", "rhs"),
                   verdict="pass"),
        Invocation("shifted-flatness", ("lemmas", "--which", "shifted-flatness", "--instance",
                                        "flat.txt", "--f", "1", "--m", "50", "--c2", "0.5",
                                        "--h", "0.5", "--trials", str(sf_trials),
                                        "--seed", str(seed * 100 + 81)),
                   sf_trials, ("which", "tail", "t", "pass"), ("tail", "t"), verdict="pass"),
    ]
    for j, m in enumerate(xy_sizes):
        mu = ",".join(f"{x:.3f}" for x in gen.random(m))
        invs.append(Invocation(f"xy-{j}", ("lemmas", "--which", "xy", "--mu", mu,
                                           "--lambda-over-m", repr(lam)),
                               0, ("which", "value", "pass"), ("value",), verdict="pass"))
    for kappa in ("0.1", "1", "3"):
        invs.append(Invocation(f"duality-{kappa}", ("duality", "--instance", "lem.txt",
                                                    "--kappa", kappa),
                               0, DUALITY_HEADER, DUALITY_HEADER[:3], verdict="pass"))
    return Workload(instances, (tuple(invs),), tail_pct=75, min_passes=40)


WORKLOADS = {
    "coverage": _coverage,
    "minimizer": _minimizer,
    "sweep-large-m": _sweep,
    "lemmas": _lemmas,
}


def build(name: str, size: str, seed: int) -> Workload:
    return WORKLOADS[name](size, seed)
