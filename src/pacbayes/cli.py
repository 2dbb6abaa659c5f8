"""Command-line front end.

Subcommands: bounds, coverage, lemmas, duality, optimize, sweep, gen-instance.
Every stochastic subcommand requires --seed. CSV outputs carry a fixed header
and 17-significant-digit numbers; each invocation, one whose arguments fail to
parse included, appends one JSON line to the run log.

The parser is the one declaration of each flag (type, choices, default,
required); config values become flags and go through the same parser.

Exit codes: 0 success, 1 invariant/acceptance failure detected during the run,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .bounds import FAMILIES, BoundParams, evaluate_bound, log_cosh_over_x
from .core import DataDistribution, LossTable, draw_sample, true_risks
from .measures import ProbMeasure
from .io import (Instance, append_run_record, fmt, load_config, load_instance,
                 save_instance, write_csv)
from .posterior_opt import (evaluate_posterior_bound, gibbs_posterior, minimize_bound,
                            row_by_row)
from .processes import (debias_mgf_exact, kl_ball_sup, kl_dual_value,
                        lemma_a3_threshold, shifted_flatness_tail_mc,
                        symmetrization_tail_mc, xy_cap, xy_default_c2,
                        xy_mgf_bruteforce)
from .rng import stream
from .compare import bound_sweep
from .verify import coverage_experiment


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError instead of exiting, so
    main reports and records them like every other usage error. Subparsers
    inherit the class."""

    def error(self, message):
        raise UsageError(message)


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _require_seed(args) -> int:
    if args.seed is None:
        raise UsageError("this subcommand is stochastic; --seed is required")
    return args.seed


# Flag -> BoundParams field; the defaults have their one definition in BoundParams.
_BOUND_FLAGS = {"delta": "delta", "C": "catoni_C", "c": "c", "c2": "c2", "h": "h"}


def _bound_params(args) -> BoundParams:
    return BoundParams(**{name: getattr(args, flag) for flag, name in _BOUND_FLAGS.items()})


def _instance_measures(inst: Instance):
    prior = inst.prior_or_uniform()
    posterior = prior if inst.posterior is None else inst.posterior
    return prior, posterior


POSTERIOR_RULES = ("fixed-Q", "gibbs-posterior", "bound-minimizer")
# The tempered-posterior grid that minimize_bound starts from.
BETA_GRID = (0.0, 0.1, 1.0, 10.0)
# gibbs-posterior's --beta when none is given.
GIBBS_BETA = 1.0


def _resolve_beta(args) -> None:
    """--beta tempers gibbs-posterior and means nothing to the other rules, so
    it is an error with them and left out of their config (and its hash)."""
    if args.rule == "gibbs-posterior":
        if args.beta is None:
            args.beta = GIBBS_BETA
    elif args.beta is not None:
        raise UsageError(f"--beta applies to --rule gibbs-posterior only, not {args.rule}")


def _posterior_rule(args, posterior):
    """The rule --rule names, as a function (prior, table, block of samples) ->
    posteriors: fixed-Q keeps the instance posterior, gibbs-posterior tempers
    the prior by --beta, bound-minimizer minimizes the --family bound (20
    refinement steps) for each sample of the block."""
    if args.rule == "fixed-Q":
        return lambda prior, table, s: posterior
    if args.rule == "gibbs-posterior":
        return functools.partial(gibbs_posterior, beta=args.beta)
    family, params = args.family, _bound_params(args)
    return row_by_row(lambda prior, table, s: minimize_bound(family, params, prior, table, s,
                                                             BETA_GRID, 20)[0])


BOUNDS_CSV_HEADER = ["family", "value", "emp_term", "complexity_term", "flatness_term", "C_derived"]
COVERAGE_CSV_HEADER = ["family", "trials", "violations", "cp_upper", "mean_slack"]
SWEEP_CSV_HEADER = ["m", "catoni_mean", "flatness_mean", "T_m_mean", "kl_mean", "crossover_flag"]


def _bounds_row(report, c_derived) -> list:
    comp = report.components
    return [report.family, report.value, comp.get("empirical", 0.0),
            comp.get("complexity", comp.get("rate", 0.0)), comp.get("flatness", 0.0), c_derived]


def cmd_bounds(args) -> tuple[int, dict]:
    family = args.family
    params = _bound_params(args)
    if family == "flatness" or args.instance and args.emp is None:
        if args.instance is None:
            raise UsageError("the flatness family needs --instance, --m and --seed")
        inst = load_instance(args.instance)
        seed = _require_seed(args)
        if args.m is None:
            raise UsageError("--m is required in instance mode")
        prior, posterior = _instance_measures(inst)
        s = draw_sample(inst.dist, args.m, seed)
        report = evaluate_posterior_bound(family, params, posterior, prior, inst.table, s)
    else:
        if args.emp is None or args.kl is None or args.m is None:
            raise UsageError("closed-form mode needs --emp, --kl and --m")
        report = evaluate_bound(family, args.emp, args.kl, args.m, params)

    derived = FAMILIES[family].derived
    c_derived = "" if derived is None else derived(params)
    print(f"family        {family}")
    print(f"value         {fmt(report.value)}")
    for name, val in report.components.items():
        print(f"  {name:<12}{fmt(val)}")
    if c_derived != "":
        print(f"  C_derived   {fmt(c_derived)}")
    if args.out:
        write_csv(args.out, BOUNDS_CSV_HEADER, [_bounds_row(report, c_derived)])
    return 0, {"family": family, "value": report.value}


def cmd_coverage(args) -> tuple[int, dict]:
    inst = load_instance(args.instance)
    prior, posterior = _instance_measures(inst)
    family = args.family
    params = _bound_params(args)
    report = coverage_experiment(inst.table, inst.dist, prior, _posterior_rule(args, posterior),
                                 family, params, args.m, args.trials, args.seed)
    print(f"family      {family}")
    print(f"trials      {report.trials}")
    print(f"violations  {report.violations}")
    print(f"cp_upper    {fmt(report.clopper_pearson_upper)}")
    print(f"mean_slack  {fmt(report.mean_slack)}")
    if args.out:
        write_csv(args.out, COVERAGE_CSV_HEADER,
                  [[family, report.trials, report.violations,
                    report.clopper_pearson_upper, report.mean_slack]])
    ok = report.clopper_pearson_upper <= params.delta
    print("PASS" if ok else "FAIL")
    return (0 if ok else 1), {"family": family, "violations": report.violations,
                              "cp_upper": report.clopper_pearson_upper}


def cmd_lemmas(args) -> tuple[int, dict]:
    which = args.which
    summary: dict = {"which": which}
    if which != "xy":
        if args.instance is None:
            raise UsageError(f"--which {which} needs --instance")
        inst = load_instance(args.instance)
    if which == "debias":
        if args.lambda_over_m is None or args.m is None:
            raise UsageError("debias needs --lambda-over-m and --m")
        prior, _ = _instance_measures(inst)
        value = debias_mgf_exact(prior, inst.table, inst.dist, args.lambda_over_m, args.k, args.m)
        threshold = log_cosh_over_x(args.lambda_over_m)
        applicable = args.k >= threshold
        ok = (not applicable) or value <= 1.0 + 1e-12
        print(f"value       {fmt(value)}")
        print(f"k           {fmt(args.k)} (threshold {fmt(threshold)}, lemma "
              f"{'applies' if applicable else 'does not apply'})")
        summary["value"] = value
    elif which == "xy":
        if args.mu is None or args.lambda_over_m is None:
            raise UsageError("xy needs --mu and --lambda-over-m")
        c = args.c
        h = args.h if args.h is not None else 0.5
        c2 = args.c2 if args.c2 is not None else xy_default_c2(c, h)
        value = xy_mgf_bruteforce(_floats(args.mu), args.lambda_over_m, c, c2, h,
                                  force=args.force)
        cap = xy_cap(c, c2, h)
        applicable = 0 < args.lambda_over_m < cap and 0 < c2 < h * h * c
        ok = (not applicable) or value <= 1.0 + 1e-12
        print(f"value       {fmt(value)}")
        print(f"lambda/m    {fmt(args.lambda_over_m)} (cap {fmt(cap)})")
        summary["value"] = value
    elif which == "shifted-flatness":
        seed = _require_seed(args)
        m = args.m if args.m is not None else 50
        c2 = args.c2 if args.c2 is not None else 0.5
        h = args.h if args.h is not None else 0.5
        t = args.t if args.t is not None else lemma_a3_threshold(m, c2, h)
        est = shifted_flatness_tail_mc(inst.table, args.f, inst.dist, m, c2, h, t,
                                       args.trials, seed)
        ok = est.probability <= 0.5 + est.wilson_halfwidth
        print(f"tail        {fmt(est.probability)} +/- {fmt(est.wilson_halfwidth)} "
              f"({est.trials} trials, t = {fmt(t)})")
        summary.update(tail=est.probability, t=t)
    else:  # symmetrization
        seed = _require_seed(args)
        prior, _ = _instance_measures(inst)
        c2 = args.c2 if args.c2 is not None else 0.5
        m = args.m if args.m is not None else 50
        t = args.t if args.t is not None else 0.2
        lhs, rhs = symmetrization_tail_mc(inst.table, inst.dist, prior, args.kappa, args.c, c2,
                                          t, m, args.trials, seed, h=args.h)
        slack = lhs.wilson_halfwidth + 4.0 * rhs.wilson_halfwidth
        ok = lhs.probability <= 4.0 * rhs.probability + slack
        print(f"lhs tail    {fmt(lhs.probability)} +/- {fmt(lhs.wilson_halfwidth)}")
        print(f"rhs tail    {fmt(rhs.probability)} +/- {fmt(rhs.wilson_halfwidth)}")
        summary.update(lhs=lhs.probability, rhs=rhs.probability)
    print("PASS" if ok else "FAIL")
    summary["pass"] = ok
    if args.out:
        write_csv(args.out, list(summary), [list(summary.values())])
    return (0 if ok else 1), summary


def cmd_duality(args) -> tuple[int, dict]:
    inst = load_instance(args.instance)
    prior, _ = _instance_measures(inst)
    values = true_risks(inst.table, inst.dist)
    # The infimum sits at lambda -> inf once kappa exceeds the KL of the
    # max-restricted measure, so the grid must reach very large lambda.
    grid = np.logspace(-2, 9, 120)
    primal = kl_ball_sup(prior, values, args.kappa)
    dual = kl_dual_value(prior, values, args.kappa, grid)
    gap = dual - primal
    ok = abs(gap) <= 1e-6
    print(f"primal      {fmt(primal)}")
    print(f"dual        {fmt(dual)}")
    print(f"gap         {fmt(gap)}")
    print("PASS" if ok else "FAIL")
    if args.out:
        write_csv(args.out, ["primal", "dual", "gap", "pass"],
                  [[primal, dual, gap, ok]])
    return (0 if ok else 1), {"primal": primal, "dual": dual, "gap": gap}


def cmd_optimize(args) -> tuple[int, dict]:
    inst = load_instance(args.instance)
    prior, _ = _instance_measures(inst)
    family = args.family
    params = _bound_params(args)
    s = draw_sample(inst.dist, args.m, args.seed)
    q, report = minimize_bound(family, params, prior, inst.table, s, args.beta_grid,
                               args.refine_steps)
    print(f"family      {family}")
    print(f"value       {fmt(report.value)}")
    print("posterior   " + " ".join(fmt(w) for w in q.weights))
    if args.out:
        write_csv(args.out, BOUNDS_CSV_HEADER, [_bounds_row(report, "")])
    return 0, {"family": family, "value": report.value}


def cmd_sweep(args) -> tuple[int, dict]:
    inst = load_instance(args.instance)
    prior, posterior = _instance_measures(inst)
    result = bound_sweep(inst.table, inst.dist, prior, _posterior_rule(args, posterior),
                         args.c, args.h, args.delta, args.m_grid, args.trials, args.seed)
    rows = [[r.m, r.catoni_mean, r.flatness_mean, r.T_m_mean, r.kl_mean, r.crossover_flag]
            for r in result.rows]
    for r in result.rows:
        print(f"m={r.m:<8} catoni={fmt(r.catoni_mean)} flatness={fmt(r.flatness_mean)} "
              f"T_m={fmt(r.T_m_mean)}")
    print(f"crossover m*: {fmt(result.crossover_m)}")
    if args.out:
        write_csv(args.out, SWEEP_CSV_HEADER, rows)
    return 0, {"crossover_m": result.crossover_m}


def cmd_gen_instance(args) -> tuple[int, dict]:
    n_h, n_z = args.hypotheses, args.points
    gen = stream(args.seed, 71)
    probs = gen.dirichlet(np.ones(n_z))
    if args.nonbinary:
        loss = np.round(gen.random((n_h, n_z)), 3)
    else:
        loss = gen.integers(0, 2, size=(n_h, n_z)).astype(float)
    inst = Instance(dist=DataDistribution(probs), table=LossTable(loss),
                    prior=ProbMeasure.uniform(n_h))
    save_instance(inst, args.out)
    print(f"wrote {args.out} ({n_h} hypotheses, {n_z} points, "
          f"{'general' if args.nonbinary else 'binary'} loss)")
    return 0, {"hypotheses": n_h, "points": n_z}


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

    def bound_flags(p, flags=tuple(_BOUND_FLAGS)):
        for flag in flags:
            p.add_argument(f"--{flag}", type=float,
                           default=getattr(BoundParams, _BOUND_FLAGS[flag]))

    p = subcommand("bounds", cmd_bounds, "evaluate one bound family",
                   seed="optional", instance="optional")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--emp", type=float)
    p.add_argument("--kl", type=float)
    p.add_argument("--m", type=int)
    bound_flags(p)

    p = subcommand("coverage", cmd_coverage, "bound coverage experiment",
                   seed="required", instance="required")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--rule", choices=POSTERIOR_RULES, default="gibbs-posterior")
    p.add_argument("--beta", type=float, help=f"gibbs-posterior only (default {GIBBS_BETA})")
    bound_flags(p)

    p = subcommand("lemmas", cmd_lemmas, "verify a proof lemma numerically",
                   seed="optional", instance="optional")
    p.add_argument("--which", required=True,
                   choices=("debias", "xy", "shifted-flatness", "symmetrization"))
    p.add_argument("--lambda-over-m", dest="lambda_over_m", type=float)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--m", type=int)
    p.add_argument("--mu", help="comma-separated Bernoulli means")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--c2", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--f", type=int, default=0)
    p.add_argument("--t", type=float)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--force", action="store_true")

    p = subcommand("duality", cmd_duality, "KL-ball primal vs Legendre dual",
                   instance="required")
    p.add_argument("--kappa", type=float, default=1.0)

    p = subcommand("optimize", cmd_optimize, "minimize a bound over posteriors",
                   seed="required", instance="required")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--beta-grid", dest="beta_grid", type=_floats, default=BETA_GRID)
    p.add_argument("--refine-steps", dest="refine_steps", type=int, default=50)
    bound_flags(p)

    p = subcommand("sweep", cmd_sweep, "flatness vs aligned Catoni across sample sizes",
                   seed="required", instance="required")
    p.add_argument("--m-grid", dest="m_grid", type=_ints, required=True,
                   help="comma-separated sample sizes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--rule", choices=[r for r in POSTERIOR_RULES if r != "bound-minimizer"],
                   default="fixed-Q")
    p.add_argument("--beta", type=float, help=f"gibbs-posterior only (default {GIBBS_BETA})")
    bound_flags(p, ("delta", "c", "h"))

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
    log, command, config, seed = _FIRST.get_default("log"), None, {}, None
    try:
        # A first pass reads --log, --config and the subcommand, so that a run
        # whose arguments fail to parse is still recorded in the log asked for.
        known, _ = _FIRST.parse_known_args(argv)
        log = known.log
        if known.rest and known.rest[0] in _SUBPARSERS:
            command = known.rest[0]
            if known.config:
                # After the subcommand and before the user's own flags, which
                # win because argparse keeps the last value.
                at = len(argv) - len(known.rest) + 1
                argv[at:at] = _config_flags(known.config, command, _SUBPARSERS[command])
        args = _PARSER.parse_args(argv)
        if hasattr(args, "rule"):
            _resolve_beta(args)
        config = {k: v for k, v in vars(args).items()
                  if k not in _NOT_HASHED and v is not None}
        seed = getattr(args, "seed", None)
        code, summary = args.handler(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            (_SUBPARSERS[command] if command else _PARSER).print_usage(sys.stderr)
        code, summary = 2, {"error": str(exc)}
    try:
        append_run_record(log, command, config, seed, summary, code)
    except OSError as exc:
        print(f"error: cannot write the run log: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
