"""In-memory span recorder around the public functions of each pacbayes module.

The recorder wraps a function by rebinding every name that refers to it in
every loaded pacbayes module. The rebinding matters because callers hold their
own references: `verify`, `compare` and `posterior_opt` do
`from .core import draw_sample` and similar, so patching only the defining
module would miss them. `uninstall` puts the original objects back, so untraced
passes run the unmodified program.

Each span is (pass_id, span_id, parent_id, name, start, end, work). Stacks are
per thread. A thread whose own stack is empty (a worker of the
`coverage_experiment` thread pool) takes as parent the innermost span open on
the thread that runs the pass, which is `coverage_experiment` itself while the
pool is busy. `work` is the amount of data the call touched (see WORK).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# Public functions traced, per module.
TRACED = {
    "core": ("draw_sample", "empirical_risks"),
    "rng": ("stream",),
    "measures": ("gibbs_losses", "kl_divergence", "gibbs_risk"),
    "bounds": ("evaluate_bound", "flatness_bound"),
    "posterior_opt": ("gibbs_posterior", "evaluate_posterior_bound", "minimize_bound"),
    "verify": ("coverage_experiment", "clopper_pearson_upper"),
    "compare": ("bound_sweep",),
    "processes": ("kl_ball_sup", "kl_dual_value", "xy_mgf_bruteforce",
                  "symmetrization_tail_mc", "shifted_flatness_tail_mc"),
    "io": ("load_instance", "write_csv", "append_run_record"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _sample_cells(table, s):
    return table.hypothesis_count * s.m


# Work done by one call, from its arguments. draw_sample: points drawn (m);
# the gathers: n_h * m loss cells read; xy_mgf_bruteforce: 2^m sign vectors.
WORK = {
    "core.draw_sample": lambda dist, m, *rest, **kw: m,
    "core.empirical_risks": lambda table, s: _sample_cells(table, s),
    "measures.gibbs_losses": lambda q, table, s: _sample_cells(table, s),
    "bounds.flatness_bound": lambda q, table, s, *rest: _sample_cells(table, s),
    "processes.xy_mgf_bruteforce": lambda mu, *rest, **kw: 2 ** len(mu),
}


class Recorder:
    """Collects spans while installed; spans stay in memory until read."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._originals: list[tuple[dict, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_pass(self) -> None:
        """Start a new pass on the calling thread; its spans share one id."""
        self.pass_id += 1
        self._owner_stack = self._stack()

    def _wrap(self, name: str, fn):
        work_of = WORK.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            owner = self._owner_stack
            parent = stack[-1] if stack else (owner[-1] if owner else 0)
            span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                work = work_of(*args, **kwargs) if work_of else 0
                spans.append((self.pass_id, span_id, parent, name, start, end, work))

        return traced

    def install(self) -> None:
        """Rebind every pacbayes global that names a traced function."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "pacbayes" or key.startswith("pacbayes."))]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"pacbayes.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    namespace = vars(module)
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._originals.append((namespace, key, original))
                            namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._originals):
            namespace[key] = original
        self._originals.clear()

    def take(self) -> list[tuple]:
        """Remove and return the spans recorded so far."""
        out = self.spans[:]
        del self.spans[:]
        return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, self seconds and work; plus minimize_bound's
    evaluate_posterior_bound calls.

    Self time is a span's duration minus the part of it covered by the union of
    its children, so overlapping children on pool threads are not subtracted
    twice.
    """
    by_id = {}
    children = defaultdict(list)
    for span in spans:
        _, span_id, parent, _, start, end, _ = span
        by_id[span_id] = span
        children[parent].append((start, end))
    stats = {name: {"calls": 0, "self_s": 0.0, "work": 0} for name in SPAN_NAMES}
    evals_under_minimize = 0
    for span in spans:
        _, span_id, parent, name, start, end, work = span
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(span_id, ())]
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - _covered([k for k in kids if k[1] > k[0]])
        entry["work"] += work
        if name == "posterior_opt.evaluate_posterior_bound":
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[3] != "posterior_opt.minimize_bound":
                ancestor = by_id.get(ancestor[2])
            evals_under_minimize += ancestor is not None
    return {"functions": stats, "evals_under_minimize": evals_under_minimize}
