"""Command-line front end.

Subcommands: bounds, coverage, lemmas, duality, optimize, sweep, gen-instance.
Every stochastic subcommand requires --seed. CSV outputs carry a fixed header
and 17-significant-digit numbers; each invocation appends one JSON line to the
run log.

Exit codes: 0 success, 1 invariant/acceptance failure detected during the run,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bounds import FAMILIES, BoundParams, evaluate_bound, log_cosh_over_x
from .core import DataDistribution, LossTable, ResourceLimitError, draw_sample, true_risks
from .measures import ProbMeasure
from .io import (Instance, append_run_record, fmt, load_config, load_instance,
                 save_instance, write_csv)
from .posterior_opt import evaluate_posterior_bound, minimize_bound
from .processes import (debias_mgf_exact, kl_ball_sup, kl_dual_value,
                        lemma_a3_threshold, shifted_flatness_tail_mc,
                        symmetrization_tail_mc, xy_cap, xy_default_c2,
                        xy_mgf_bruteforce)
from .rng import stream
from .compare import bound_sweep
from .verify import coverage_experiment


class UsageError(Exception):
    pass


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _require_seed(args) -> int:
    if args.seed is None:
        raise UsageError("this subcommand is stochastic; --seed is required")
    return args.seed


_BOUND_FLAGS = {"delta": "delta", "C": "catoni_C", "c": "c", "c2": "c2", "h": "h"}


def _bound_params(args) -> BoundParams:
    return BoundParams(**{name: getattr(args, flag) for flag, name in _BOUND_FLAGS.items()
                          if getattr(args, flag, None) is not None})


def _instance_measures(inst: Instance, args):
    prior = inst.prior_or_uniform()
    posterior = inst.posterior if inst.posterior is not None else prior
    return prior, posterior


BOUNDS_CSV_HEADER = ["family", "value", "emp_term", "complexity_term", "flatness_term", "C_derived"]
COVERAGE_CSV_HEADER = ["family", "trials", "violations", "cp_upper", "mean_slack"]
SWEEP_CSV_HEADER = ["m", "catoni_mean", "flatness_mean", "T_m_mean", "kl_mean", "crossover_flag"]


def _bounds_row(report, c_derived) -> list:
    comp = report.components
    return [report.family, report.value, comp.get("empirical", 0.0),
            comp.get("complexity", comp.get("rate", 0.0)), comp.get("flatness", 0.0), c_derived]


def cmd_bounds(args) -> int:
    family = args.family
    params = _bound_params(args)
    if family == "flatness" or args.instance and args.emp is None:
        if args.instance is None:
            raise UsageError("the flatness family needs --instance, --m and --seed")
        inst = load_instance(args.instance)
        seed = _require_seed(args)
        if args.m is None:
            raise UsageError("--m is required in instance mode")
        prior, posterior = _instance_measures(inst, args)
        s = draw_sample(inst.dist, args.m, seed)
        report = evaluate_posterior_bound(family, params, posterior, prior, inst.table, s)
    else:
        if args.emp is None or args.kl is None or args.m is None:
            raise UsageError("closed-form mode needs --emp, --kl and --m")
        report = evaluate_bound(family, args.emp, args.kl, args.m, params)

    derived = FAMILIES[family].derived
    c_derived = derived(params) if derived is not None else ""
    print(f"family        {family}")
    print(f"value         {fmt(report.value)}")
    for name, val in report.components.items():
        print(f"  {name:<12}{fmt(val)}")
    if c_derived != "":
        print(f"  C_derived   {fmt(c_derived)}")
    if args.out:
        write_csv(args.out, BOUNDS_CSV_HEADER, [_bounds_row(report, c_derived)])
    return 0, {"family": family, "value": report.value}


def cmd_coverage(args) -> int:
    seed = _require_seed(args)
    if args.instance is None:
        raise UsageError("--instance is required")
    inst = load_instance(args.instance)
    prior, posterior = _instance_measures(inst, args)
    family = args.family
    params = _bound_params(args)
    rule = args.rule or "gibbs-posterior"
    rule_params: dict = {}
    if rule == "gibbs-posterior":
        rule_params["beta"] = args.beta if args.beta is not None else 1.0
    elif rule == "fixed-Q":
        rule_params["q"] = posterior
    elif rule == "bound-minimizer":
        rule_params = {"family": family, "params": params}
    m = args.m if args.m is not None else 100
    trials = args.trials if args.trials is not None else 1000
    report = coverage_experiment(inst.table, inst.dist, prior, rule, rule_params,
                                 family, params, m, trials, seed)
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


def cmd_lemmas(args) -> int:
    which = args.which
    summary: dict = {"which": which}
    if which == "debias":
        inst = load_instance(args.instance)
        if args.lambda_over_m is None or args.m is None:
            raise UsageError("debias needs --lambda-over-m and --m")
        k = args.k if args.k is not None else 1.0
        prior, _ = _instance_measures(inst, args)
        value = debias_mgf_exact(prior, inst.table, inst.dist, args.lambda_over_m, k, args.m)
        threshold = log_cosh_over_x(args.lambda_over_m)
        applicable = k >= threshold
        ok = (not applicable) or value <= 1.0 + 1e-12
        print(f"value       {fmt(value)}")
        print(f"k           {fmt(k)} (threshold {fmt(threshold)}, lemma "
              f"{'applies' if applicable else 'does not apply'})")
        summary["value"] = value
    elif which == "xy":
        if args.mu is None or args.lambda_over_m is None:
            raise UsageError("xy needs --mu and --lambda-over-m")
        c = args.c if args.c is not None else 1.0
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
        inst = load_instance(args.instance)
        f = args.f if args.f is not None else 0
        m = args.m if args.m is not None else 50
        c2 = args.c2 if args.c2 is not None else 0.5
        h = args.h if args.h is not None else 0.5
        t = args.t if args.t is not None else lemma_a3_threshold(m, c2, h)
        trials = args.trials if args.trials is not None else 10000
        est = shifted_flatness_tail_mc(inst.table, f, inst.dist, m, c2, h, t, trials, seed)
        ok = est.probability <= 0.5 + est.wilson_halfwidth
        print(f"tail        {fmt(est.probability)} +/- {fmt(est.wilson_halfwidth)} "
              f"({est.trials} trials, t = {fmt(t)})")
        summary.update(tail=est.probability, t=t)
    elif which == "symmetrization":
        seed = _require_seed(args)
        inst = load_instance(args.instance)
        prior, _ = _instance_measures(inst, args)
        c = args.c if args.c is not None else 1.0
        c2 = args.c2 if args.c2 is not None else 0.5
        m = args.m if args.m is not None else 50
        kappa = args.kappa if args.kappa is not None else 0.5
        t = args.t if args.t is not None else 0.2
        trials = args.trials if args.trials is not None else 10000
        lhs, rhs = symmetrization_tail_mc(inst.table, inst.dist, prior, kappa, c, c2,
                                          t, m, trials, seed, h=args.h)
        slack = lhs.wilson_halfwidth + 4.0 * rhs.wilson_halfwidth
        ok = lhs.probability <= 4.0 * rhs.probability + slack
        print(f"lhs tail    {fmt(lhs.probability)} +/- {fmt(lhs.wilson_halfwidth)}")
        print(f"rhs tail    {fmt(rhs.probability)} +/- {fmt(rhs.wilson_halfwidth)}")
        summary.update(lhs=lhs.probability, rhs=rhs.probability)
    else:
        raise UsageError(f"unknown lemma {which!r}")
    print("PASS" if ok else "FAIL")
    summary["pass"] = ok
    if args.out:
        write_csv(args.out, list(summary), [list(summary.values())])
    return (0 if ok else 1), summary


def cmd_duality(args) -> int:
    inst = load_instance(args.instance)
    prior, _ = _instance_measures(inst, args)
    values = true_risks(inst.table, inst.dist)
    kappa = args.kappa if args.kappa is not None else 1.0
    # The infimum sits at lambda -> inf once kappa exceeds the KL of the
    # max-restricted measure, so the grid must reach very large lambda.
    grid = np.logspace(-2, 9, 120)
    primal = kl_ball_sup(prior, values, kappa)
    dual = kl_dual_value(prior, values, kappa, grid)
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


def cmd_optimize(args) -> int:
    seed = _require_seed(args)
    inst = load_instance(args.instance)
    prior, _ = _instance_measures(inst, args)
    family = args.family
    params = _bound_params(args)
    m = args.m if args.m is not None else 100
    beta_grid = _floats(args.beta_grid) if args.beta_grid else [0.0, 0.1, 1.0, 10.0]
    refine = args.refine_steps if args.refine_steps is not None else 50
    s = draw_sample(inst.dist, m, seed)
    q, report = minimize_bound(family, params, prior, inst.table, s, beta_grid, refine)
    print(f"family      {family}")
    print(f"value       {fmt(report.value)}")
    print("posterior   " + " ".join(fmt(w) for w in q.weights))
    if args.out:
        write_csv(args.out, BOUNDS_CSV_HEADER, [_bounds_row(report, "")])
    return 0, {"family": family, "value": report.value}


def cmd_sweep(args) -> int:
    seed = _require_seed(args)
    inst = load_instance(args.instance)
    prior, posterior = _instance_measures(inst, args)
    if args.m_grid is None:
        raise UsageError("--m-grid is required")
    c = args.c if args.c is not None else 1.0
    h = args.h if args.h is not None else 0.5
    delta = args.delta if args.delta is not None else 0.05
    trials = args.trials if args.trials is not None else 20
    rule = args.rule or "fixed-Q"
    if rule == "fixed-Q":
        rule_params = {"q": posterior}
    else:
        rule_params = {"beta": args.beta if args.beta is not None else 1.0}
    result = bound_sweep(inst.table, inst.dist, prior, rule, rule_params,
                         c, h, delta, _ints(args.m_grid), trials, seed)
    rows = [[r.m, r.catoni_mean, r.flatness_mean, r.T_m_mean, r.kl_mean, r.crossover_flag]
            for r in result.rows]
    for r in result.rows:
        print(f"m={r.m:<8} catoni={fmt(r.catoni_mean)} flatness={fmt(r.flatness_mean)} "
              f"T_m={fmt(r.T_m_mean)}")
    print(f"crossover m*: {fmt(result.crossover_m)}")
    if args.out:
        write_csv(args.out, SWEEP_CSV_HEADER, rows)
    return 0, {"crossover_m": result.crossover_m}


def cmd_gen_instance(args) -> int:
    seed = _require_seed(args)
    n_h = args.hypotheses if args.hypotheses is not None else 10
    n_z = args.points if args.points is not None else 6
    gen = stream(seed, 71)
    probs = gen.dirichlet(np.ones(n_z))
    if args.nonbinary:
        loss = np.round(gen.random((n_h, n_z)), 3)
    else:
        loss = gen.integers(0, 2, size=(n_h, n_z)).astype(float)
    inst = Instance(dist=DataDistribution(probs), table=LossTable(loss),
                    prior=ProbMeasure.uniform(n_h))
    if not args.out:
        raise UsageError("--out is required")
    save_instance(inst, args.out)
    print(f"wrote {args.out} ({n_h} hypotheses, {n_z} points, "
          f"{'general' if args.nonbinary else 'binary'} loss)")
    return 0, {"hypotheses": n_h, "points": n_z}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pacbayes",
                                     description="PAC-Bayes bound suite for finite Gibbs classifiers")
    parser.add_argument("--config", help="flat config file (section.key = value); flags win")
    parser.add_argument("--log", default="pacbayes_runs.jsonl", help="append-only JSON run log")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=False):
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--delta", type=float)
        if instance:
            p.add_argument("--instance", help="problem instance file")

    p = sub.add_parser("bounds", help="evaluate one bound family")
    common(p, instance=True)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--emp", type=float)
    p.add_argument("--kl", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--C", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--h", type=float)
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("coverage", help="bound coverage experiment")
    common(p, instance=True)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--trials", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--rule", choices=("fixed-Q", "gibbs-posterior", "bound-minimizer"))
    p.add_argument("--beta", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--h", type=float)
    p.set_defaults(handler=cmd_coverage)

    p = sub.add_parser("lemmas", help="verify a proof lemma numerically")
    common(p, instance=True)
    p.add_argument("--which", required=True,
                   choices=("debias", "xy", "shifted-flatness", "symmetrization"))
    p.add_argument("--lambda-over-m", dest="lambda_over_m", type=float)
    p.add_argument("--k", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--mu", help="comma-separated Bernoulli means")
    p.add_argument("--c", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--f", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=cmd_lemmas)

    p = sub.add_parser("duality", help="KL-ball primal vs Legendre dual")
    common(p, instance=True)
    p.add_argument("--kappa", type=float)
    p.set_defaults(handler=cmd_duality)

    p = sub.add_parser("optimize", help="minimize a bound over posteriors")
    common(p, instance=True)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--m", type=int)
    p.add_argument("--beta-grid", dest="beta_grid")
    p.add_argument("--refine-steps", dest="refine_steps", type=int)
    p.add_argument("--C", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--h", type=float)
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("sweep", help="flatness vs aligned Catoni across sample sizes")
    common(p, instance=True)
    p.add_argument("--m-grid", dest="m_grid", help="comma-separated sample sizes")
    p.add_argument("--trials", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--rule", choices=("fixed-Q", "gibbs-posterior"))
    p.add_argument("--beta", type=float)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("gen-instance", help="generate a random problem instance")
    common(p)
    p.add_argument("--hypotheses", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--nonbinary", action="store_true")
    p.set_defaults(handler=cmd_gen_instance)

    return parser


def _apply_config(args) -> None:
    if not args.config:
        return
    cfg = load_config(args.config)
    prefix = args.command + "."
    for key, value in cfg.items():
        if not key.startswith(prefix):
            continue
        name = key[len(prefix):].replace("-", "_")
        if not hasattr(args, name):
            raise UsageError(f"config key {key!r} does not match a flag of {args.command!r}")
        if getattr(args, name) is None or getattr(args, name) is False:
            current = getattr(args, name)
            if isinstance(current, bool):
                setattr(args, name, value.lower() == "true")
            else:
                setattr(args, name, value)
    # Re-coerce string values injected for typed flags.
    for name in ("seed", "m", "trials", "refine_steps", "f", "hypotheses", "points"):
        v = getattr(args, name, None)
        if isinstance(v, str):
            setattr(args, name, int(v))
    for name in ("delta", "emp", "kl", "C", "c", "c2", "h", "t", "kappa", "beta",
                 "lambda_over_m", "k"):
        v = getattr(args, name, None)
        if isinstance(v, str):
            setattr(args, name, float(v))


# Where inputs and outputs live, not what is computed (config keys are merged in).
_NOT_HASHED = ("handler", "out", "log", "config")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        code, summary = args.handler(args)
    except (UsageError, ValueError, OSError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            parser.print_usage(sys.stderr)
        code, summary = 2, {"error": str(exc)}
    config = {k: v for k, v in vars(args).items()
              if k not in _NOT_HASHED and v is not None}
    try:
        append_run_record(args.log, args.command, config, getattr(args, "seed", None),
                          summary, code)
    except OSError as exc:
        print(f"error: cannot write the run log: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
