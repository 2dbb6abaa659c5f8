"""Command-line front end.

Subcommands: bounds, coverage, lemmas, duality, optimize, sweep, gen-instance.
Every stochastic subcommand requires --seed. main calls each handler with the
parsed arguments and the run's Instance (None without --instance); the handler
returns a Result, and main alone outputs it. stdout is the result table as CSV
(a fixed header, 17-significant-digit numbers), then a `name value...` line
per note, then PASS or FAIL if the run checks something. --out gets the same
CSV text; gen-instance has no table and writes its instance there. Each
invocation, one whose arguments fail to parse and one with -h or --help
included, appends one JSON line to the run log, with summary {"result": [an
object per row], **notes}, {"error": message} or, after the help, {"help":
true}; a non-finite number is the string "inf", "-inf" or "nan",
as in the CSV. The config hash covers the --instance file by the sha256 of its
bytes: main reads the file once, hashes those bytes and parses them into the
Instance it hands the handler. The record keeps the path as given, outside the
hash.

A bound flag (--delta, --C, --c, --c2, --h) is the BoundParams field of the
same name, whose default is the flag's. The parser declares each flag's type
and choices, and the default and requiredness of a flag that every run of its
subcommand reads. Which of the other flags a run reads, with their defaults,
is declared once per choice that decides it: FAMILIES[...].reads, LEMMA_FLAGS,
RULE_FLAGS and BOUNDS_MODE_FLAGS. _resolve_reads applies these after parsing:
an omitted flag the run reads takes its default, and a flag it does not read
is a usage error if given and stays out of the config hash. Config values
become flags and go through the same parser and resolver.

Exit codes: 0 success, 1 invariant/acceptance failure detected during the run
(a solver that raises RuntimeError included), 2 usage or configuration error
(an argument so large that a number overflows, or that memory runs out,
included).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .bounds import FAMILIES, BoundParams, evaluate_bound, log_cosh_over_x, xy_default_c2
from .core import LossTable, ProbMeasure, draw_sample, true_risks
from .io import (Instance, append_run_record, csv_text, fmt, load_config, load_instance,
                 read_hashed, save_instance, write_csv)
from .posterior_opt import evaluate_posterior_bound, gibbs_posterior, minimize_bound
from .processes import (debias_mgf_exact, kl_dual_value, lemma_a3_threshold,
                        shifted_flatness_tail_mc, symmetrization_tail_mc, xy_cap,
                        xy_mgf_bruteforce)
from .rng import stream
from .compare import SweepRow, bound_sweep
from .verify import coverage_experiment


class UsageError(Exception):
    pass


class _HelpShown(Exception):
    """-h or --help printed a parser's help."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError, and whose help raises
    _HelpShown once printed, instead of exiting, so main records both runs like
    every other. Subparsers inherit the class."""

    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        # Reached from the help action alone, as error raises first.
        raise _HelpShown


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _bound_params(args) -> BoundParams:
    """The bound flags given or defaulted; each is the BoundParams field of its name."""
    return BoundParams(**{f.name: value for f in fields(BoundParams)
                          if (value := getattr(args, f.name, None)) is not None})


def _fixed_q(inst: Instance) -> ProbMeasure:
    """The instance's posterior, or its prior when the file gives none."""
    return inst.prior if inst.posterior is None else inst.posterior


# The flags (by dest) that only some runs read, per choice that decides it, each
# with its default: REQUIRED if it has none, None if the run works it out.
REQUIRED = "required"
FAMILY_FLAGS = {name: {flag: getattr(BoundParams, flag) for flag in family.reads}
                for name, family in FAMILIES.items()}
RULE_FLAGS = {"fixed-Q": {}, "gibbs-posterior": {"beta": 1.0}, "bound-minimizer": {}}
POSTERIOR_RULES = tuple(RULE_FLAGS)
# bounds in instance mode (True) draws a sample; in closed form it takes emp and kl.
BOUNDS_MODE_FLAGS = {True: {"instance": REQUIRED, "seed": REQUIRED},
                     False: {"emp": REQUIRED, "kl": REQUIRED}}
# The symmetrization reads kappa only without --h (the linear variant).
LEMMA_FLAGS = {
    "debias": {"instance": REQUIRED, "lambda_over_m": REQUIRED, "m": REQUIRED, "k": 1.0},
    "xy": {"mu": REQUIRED, "lambda_over_m": REQUIRED, "c": 1.0, "c2": None, "h": 0.5},
    "shifted-flatness": {"instance": REQUIRED, "seed": REQUIRED, "f": 0, "m": 50, "c2": 0.5,
                         "h": 0.5, "t": None, "trials": 10000},
    "symmetrization": {"instance": REQUIRED, "seed": REQUIRED, "m": 50, "c": 1.0, "c2": 0.5,
                       "h": None, "t": 0.2, "trials": 10000, "kappa": 0.5},
}


def _resolve_reads(args) -> None:
    """Give each omitted flag the run reads its default, and reject a given flag
    it does not read; an unread flag is left None, out of the config hash."""
    choices = []  # (how the run names it, its table, the run's choice)
    if args.command == "lemmas":
        choices.append((f"--which {args.which}", LEMMA_FLAGS, args.which))
    if hasattr(args, "family"):
        choices.append((f"--family {args.family}", FAMILY_FLAGS, args.family))
    if hasattr(args, "rule"):
        choices.append((f"--rule {args.rule}", RULE_FLAGS, args.rule))
    if args.command == "bounds":
        mode = args.instance is not None or FAMILIES[args.family].needs_sample
        choices.append(("", BOUNDS_MODE_FLAGS, mode))
    run = " ".join([args.command] + [name for name, _, _ in choices if name])
    reads = {k: v for _, table, choice in choices for k, v in table[choice].items()}
    if "kappa" in reads and args.h is not None:  # the quadratic symmetrization
        del reads["kappa"]
        run += " with --h"
    listed = ", ".join("--" + k.replace("_", "-") for k in reads)
    for key in dict.fromkeys(k for _, table, _ in choices for flags in table.values()
                             for k in flags):
        flag, value = "--" + key.replace("_", "-"), getattr(args, key)
        if value is None:
            if key in reads and reads[key] is REQUIRED:
                raise UsageError(f"{flag} is required for {run}")
            setattr(args, key, reads.get(key))
        elif key not in reads:
            raise UsageError(f"{flag} does not apply to {run} (it reads {listed})")


def _posterior_rule(args, inst: Instance):
    """The rule --rule names, as a function (prior, table, block of samples) ->
    posteriors: fixed-Q keeps the instance posterior, gibbs-posterior tempers
    the prior by --beta, bound-minimizer minimizes the --family bound for the
    whole block in one minimize_bound call."""
    if args.rule == "fixed-Q":
        posterior = _fixed_q(inst)
        return lambda prior, table, s: posterior
    if args.rule == "gibbs-posterior":
        return functools.partial(gibbs_posterior, beta=args.beta)
    return functools.partial(minimize_bound, args.family, _bound_params(args))


BOUNDS_CSV_HEADER = ["family", "value", "emp_term", "complexity_term", "flatness_term", "C_derived"]


@dataclass(frozen=True)
class Result:
    """What a run found: its table, which is printed, written to --out and recorded;
    notes, printed and recorded only; the verdict, None if the run checks nothing."""

    header: list[str]
    rows: list[list]
    notes: dict = field(default_factory=dict)
    ok: bool | None = None


def _bounds_row(report, params: BoundParams) -> list:
    comp, derived = report.components, FAMILIES[report.family].derived
    return [report.family, report.value, comp["empirical"], comp["complexity"], comp["flatness"],
            "" if derived is None else derived(params)]


def cmd_bounds(args, inst: Instance | None) -> Result:
    family = args.family
    params = _bound_params(args)
    if inst is not None:
        s = draw_sample(inst.dist, args.m, args.seed)
        report = evaluate_posterior_bound(family, params, _fixed_q(inst), inst.prior, inst.table, s)
    else:
        report = evaluate_bound(family, args.emp, args.kl, args.m, params)
    return Result(BOUNDS_CSV_HEADER, [_bounds_row(report, params)])


def cmd_coverage(args, inst: Instance) -> Result:
    params = _bound_params(args)
    report = coverage_experiment(inst.table, inst.dist, inst.prior, _posterior_rule(args, inst),
                                 args.family, params, args.m, args.trials, args.seed)
    return Result(["family", "trials", "violations", "cp_upper", "mean_slack"],
                  [[args.family, report.trials, report.violations,
                    report.clopper_pearson_upper, report.mean_slack]],
                  ok=report.clopper_pearson_upper <= params.delta)


def cmd_lemmas(args, inst: Instance | None) -> Result:
    which, x = args.which, args.lambda_over_m
    if which == "debias":
        value = debias_mgf_exact(inst.prior, inst.table, inst.dist, x, args.k, args.m)
        threshold = log_cosh_over_x(x)
        notes = {"k_threshold": threshold, "applies": args.k >= threshold}
    elif which == "xy":
        c, h = args.c, args.h
        c2 = args.c2 if args.c2 is not None else xy_default_c2(c, h)
        value = xy_mgf_bruteforce(args.mu, x, c, c2, h)
        cap = xy_cap(c, c2, h)
        notes = {"cap": cap, "applies": 0 < h <= 1 and 0 < c2 < h * h * c and 0 < x < cap}
    elif which == "shifted-flatness":
        t = args.t if args.t is not None else lemma_a3_threshold(args.m, args.c2, args.h)
        est = shifted_flatness_tail_mc(inst.table, args.f, inst.dist, args.m, args.c2, args.h, t,
                                       args.trials, args.seed)
        ok = est.probability <= 0.5 + est.wilson_halfwidth
        row, notes = {"tail": est.probability, "t": t}, {"halfwidth": est.wilson_halfwidth}
    else:  # symmetrization
        lhs, rhs = symmetrization_tail_mc(inst.table, inst.dist, inst.prior, args.kappa, args.c,
                                          args.c2, args.t, args.m, args.trials, args.seed,
                                          h=args.h)
        slack = lhs.wilson_halfwidth + 4.0 * rhs.wilson_halfwidth
        ok = lhs.probability <= 4.0 * rhs.probability + slack
        row = {"lhs": lhs.probability, "rhs": rhs.probability}
        notes = {"lhs_halfwidth": lhs.wilson_halfwidth, "rhs_halfwidth": rhs.wilson_halfwidth}
    if which in ("debias", "xy"):
        # Outside its hypotheses an exact lemma is still computed and passes unchecked.
        ok = not notes["applies"] or value <= 1.0 + 1e-12
        row = {"value": value}
    row = {"which": which, **row, "pass": ok}
    return Result(list(row), [list(row.values())], notes, ok)


def duality_tolerance(values) -> float:
    """The duality check's bound on |dual - primal| for the KL ball of one row
    of values v, the width of kl_dual_value's bracket: 1e-12 max(1, max v -
    min v). The width is first order in the solve's KL residual, at most about
    _KL_BALL_RTOL (max v - min v), so a solve that met its stop rule passes
    wherever the values lie, and one stopped short fails."""
    return 1e-12 * max(1.0, float(np.max(values)) - float(np.min(values)))


def cmd_duality(args, inst: Instance) -> Result:
    """The KL-ball sup of the true risks, bracketed by weak duality at the lam of
    its one solve: primal is the lower end, a feasible posterior's value, dual
    the upper end, the dual objective there, and gap = dual - primal."""
    risks = true_risks(inst.table, inst.dist)
    primal, dual = kl_dual_value(inst.prior, risks, args.kappa)
    gap = dual - primal
    ok = abs(gap) <= duality_tolerance(risks)
    return Result(["primal", "dual", "gap", "pass"], [[primal, dual, gap, ok]], ok=ok)


def cmd_optimize(args, inst: Instance) -> Result:
    s = draw_sample(inst.dist, args.m, args.seed)
    params = _bound_params(args)
    q = minimize_bound(args.family, params, inst.prior, inst.table, s)
    report = evaluate_posterior_bound(args.family, params, q, inst.prior, inst.table, s)
    return Result(BOUNDS_CSV_HEADER, [_bounds_row(report, params)], {"posterior": q.weights})


def cmd_sweep(args, inst: Instance) -> Result:
    result = bound_sweep(inst.table, inst.dist, inst.prior, _posterior_rule(args, inst),
                         _bound_params(args), args.m_grid, args.trials, args.seed)
    return Result([f.name for f in fields(SweepRow)], [list(astuple(r)) for r in result.rows],
                  {"crossover_m": result.crossover_m})


def cmd_gen_instance(args, inst: None) -> Result:
    n_h, n_z = args.hypotheses, args.points
    for flag, n in (("--hypotheses", n_h), ("--points", n_z)):
        if n < 1:
            raise UsageError(f"{flag} must be >= 1")
    gen = stream(args.seed, 71)
    probs = gen.dirichlet(np.ones(n_z))
    if args.nonbinary:
        loss = np.round(gen.random((n_h, n_z)), 3)
    else:
        loss = gen.integers(0, 2, size=(n_h, n_z)).astype(float)
    inst = Instance(dist=ProbMeasure(probs), table=LossTable(loss),
                    prior=ProbMeasure.uniform(n_h))
    save_instance(inst, args.out)
    return Result([], [], {"hypotheses": n_h, "points": n_z})


def _output(result: Result, out) -> tuple[int, dict]:
    """Print the result and write its table to out, if given; return the exit
    code and the run record's summary. A run without a table writes nothing."""
    text = ""
    if result.header:
        table = result.header, result.rows
        text = write_csv(out, *table) if out else csv_text(*table)
    lines = [f"{name} {' '.join(map(fmt, np.atleast_1d(value)))}"
             for name, value in result.notes.items()]
    lines += [] if result.ok is None else ["PASS" if result.ok else "FAIL"]
    print(text + "".join(line + "\n" for line in lines), end="")
    summary = {"result": [dict(zip(result.header, row)) for row in result.rows], **result.notes}
    return (0 if result.ok is None or result.ok else 1), summary


def _add_global_flags(p: _Parser) -> None:
    """The flags that come before the subcommand."""
    p.add_argument("--config", help="flat config file (command.key = value); flags win")
    p.add_argument("--log", default="pacbayes_runs.jsonl", help="append-only JSON run log")


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser, and the parser of each subcommand by name."""
    parser = _Parser(prog="pacbayes", allow_abbrev=False,
                     description="PAC-Bayes bound suite for finite Gibbs classifiers")
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, help, seed=None, instance=None):
        """A subcommand with --out, and with --seed and --instance if these are
        "required" or "optional"."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--out", required=name == "gen-instance",
                       help="output path (CSV; the instance file for gen-instance)")
        if seed:
            p.add_argument("--seed", type=int, required=seed == "required")
        if instance:
            p.add_argument("--instance", required=instance == "required",
                           help="problem instance file")
        return p

    def bound_flags(p):
        for f in fields(BoundParams):
            p.add_argument(f"--{f.name}", type=float)

    p = subcommand("bounds", cmd_bounds, "evaluate one bound family",
                   seed="optional", instance="optional")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--emp", type=float)
    p.add_argument("--kl", type=float)
    p.add_argument("--m", type=int, required=True)
    bound_flags(p)

    p = subcommand("coverage", cmd_coverage, "bound coverage experiment",
                   seed="required", instance="required")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--rule", choices=POSTERIOR_RULES, default="gibbs-posterior")
    p.add_argument("--beta", type=float, help="read by --rule gibbs-posterior")
    bound_flags(p)

    p = subcommand("lemmas", cmd_lemmas, "verify a proof lemma numerically",
                   seed="optional", instance="optional")
    p.add_argument("--which", required=True, choices=LEMMA_FLAGS)
    p.add_argument("--lambda-over-m", dest="lambda_over_m", type=float)
    p.add_argument("--k", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--mu", type=_floats, help="comma-separated Bernoulli means")
    p.add_argument("--c", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--f", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--kappa", type=float, help="read by the linear symmetrization")
    p.add_argument("--trials", type=int)

    p = subcommand("duality", cmd_duality, "weak-duality bracket of the KL-ball sup",
                   instance="required")
    p.add_argument("--kappa", type=float, default=1.0)

    p = subcommand("optimize", cmd_optimize, "minimize a bound over posteriors",
                   seed="required", instance="required")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--m", type=int, default=100)
    bound_flags(p)

    p = subcommand("sweep", cmd_sweep, "flatness vs aligned Catoni across sample sizes",
                   seed="required", instance="required")
    p.add_argument("--m-grid", dest="m_grid", type=_ints, required=True,
                   help="comma-separated sample sizes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--rule", choices=[r for r in POSTERIOR_RULES if r != "bound-minimizer"],
                   default="fixed-Q")
    p.add_argument("--beta", type=float, help="read by --rule gibbs-posterior")
    for flag in FAMILIES["flatness"].reads:  # read by every sweep
        p.add_argument(f"--{flag}", type=float, default=getattr(BoundParams, flag))

    p = subcommand("gen-instance", cmd_gen_instance, "generate a random problem instance",
                   seed="required")
    p.add_argument("--hypotheses", type=int, default=10)
    p.add_argument("--points", type=int, default=6)
    p.add_argument("--nonbinary", action="store_true")

    return parser, sub.choices


def _config_flags(path, command: str, subparser: _Parser) -> list[str]:
    """The `command.key = value` lines of a config file as flags of the
    subcommand. A switch (store_true flag) is set by `true`, left out by
    `false`."""
    flags = []
    prefix = command + "."
    for key, value in load_config(path).items():
        if not key.startswith(prefix):
            continue
        name = key[len(prefix):]
        flag = "--" + name.replace("_", "-")
        if isinstance(subparser.get_default(name.replace("-", "_")), bool):
            if value.lower() not in ("true", "false"):
                raise UsageError(f"config key {key!r} is a switch: its value must be true or false")
            flags += [flag] if value.lower() == "true" else []
        else:
            flags.append(f"{flag}={value}")
    return flags


# Where inputs and outputs live, not what is computed.
_NOT_HASHED = ("handler", "out", "log", "config")


# argparse keeps no state between parses, so one process builds its parsers once.
_PARSER, _SUBPARSERS = build_parser()
# The first pass: --config, --log and the subcommand, with the rest left over.
_FIRST = _Parser(add_help=False, allow_abbrev=False)
_add_global_flags(_FIRST)
_FIRST.add_argument("rest", nargs=argparse.REMAINDER)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    log, command, config, seed, instance = _FIRST.get_default("log"), None, {}, None, None
    try:
        # A first pass reads --log, --config and the subcommand, so that a run
        # whose arguments fail to parse is still recorded in the log asked for.
        known, extra = _FIRST.parse_known_args(argv)
        log, flags = known.log, []
        if known.rest and known.rest[0] in _SUBPARSERS:
            command = known.rest[0]
            if known.config:
                flags = _config_flags(known.config, command, _SUBPARSERS[command])
        if command and not extra:
            # The rest is the subcommand's alone: its parser reads it, after the
            # config flags, so the user's own flags win (argparse keeps the last value).
            args = _SUBPARSERS[command].parse_args(flags + known.rest[1:])
            args.command = command
        else:  # no subcommand, or flags before it: the whole parser, for its messages
            at = len(argv) - len(known.rest) + 1
            args = _PARSER.parse_args(argv[:at] + flags + argv[at:])
        _resolve_reads(args)
        config = {k: v for k, v in vars(args).items()
                  if k not in _NOT_HASHED and v is not None}
        seed = getattr(args, "seed", None)
        # The instance enters the hash by its contents, and the record by its path;
        # the handler gets those bytes parsed.
        instance, inst = config.pop("instance", None), None
        if instance is not None:
            data, config["instance_sha256"] = read_hashed(instance)
            inst = load_instance(instance, data)
        code, summary = _output(args.handler(args, inst), args.out)
    except _HelpShown:
        code, summary = 0, {"help": True}
    except (UsageError, ValueError, OSError, RuntimeError, ArithmeticError, MemoryError) as exc:
        message = str(exc)
        if isinstance(exc, ArithmeticError):  # a huge finite argument
            message = f"a number overflowed or divided by zero: {message}"
        elif isinstance(exc, MemoryError):  # sizes too large to allocate
            message = f"out of memory: {message}"
        print(f"error: {message}", file=sys.stderr)
        if isinstance(exc, UsageError):
            (_SUBPARSERS[command] if command else _PARSER).print_usage(sys.stderr)
        code, summary = 1 if isinstance(exc, RuntimeError) else 2, {"error": message}
    try:
        append_run_record(log, command, config, seed, summary, code, instance)
    except OSError as exc:
        print(f"error: cannot write the run log: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
