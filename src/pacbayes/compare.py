"""Tightness comparison between the flatness bound and Catoni's bound,
including the crossover sample size.

Catoni's bound is written in the aligned form (1 + c) * empirical + rate by
inverting its prefactor, so both families inflate the empirical risk equally,
which is the assumption under which the crossover formula holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundParams, catoni_C_for_inflation, log_over
from .core import LossTable, ProbMeasure, sample_blocks
from .measures import gibbs_losses, kl_divergence
from .posterior_opt import evaluate_posterior_bound


def crossover_threshold(T_m: float, C_r: float, C_c: float, kl: float, delta: float) -> float:
    """Sample size beyond which the flatness-form bound beats the Catoni form:
    (1/T_m) * ((C_r - C_c) (kl + log(1/delta)) + C_r)."""
    if not T_m > 0:
        raise ValueError("T_m must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return ((C_r - C_c) * (kl + log_over(1.0, delta)) + C_r) / T_m


@dataclass(frozen=True)
class SweepRow:
    m: int
    catoni_mean: float
    flatness_mean: float
    T_m_mean: float
    kl_mean: float
    crossover_flag: bool


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    crossover_m: float  # +inf when no grid point crosses


def bound_sweep(table: LossTable, dist: ProbMeasure, prior: ProbMeasure,
                rule, params: BoundParams, m_grid, trials: int, seed: int) -> SweepResult:
    """Mean flatness and aligned-Catoni bounds per sample size, on shared samples.

    Both bounds are evaluate_posterior_bound at the rule's posterior: the
    flatness bound reads params; Catoni's reads its delta, with the C whose
    prefactor is 1 + c. T_m is the quadratic advantage term c (1-h^2)/m *
    sum_i G_Q(z_i)^2; the crossover m* is the first grid m whose mean
    flatness bound undercuts the mean Catoni bound. The trials of grid point j come in blocks from
    sample_blocks(dist, m, trials, seed, j); rule maps (prior, table, block of
    samples) to one posterior row per sample, or to one posterior for all.
    """
    grid = list(m_grid)
    if not grid:
        raise ValueError("m grid must be nonempty")
    catoni = replace(params, C=catoni_C_for_inflation(params.c))

    rows = []
    crossover_m = math.inf
    for j, m in enumerate(grid):
        blocks = sample_blocks(dist, m, trials, seed, j)
        cat_vals = np.empty(trials)
        flat_vals = np.empty(trials)
        tms = np.empty(trials)
        kls = np.empty(trials)
        for start, s in blocks:
            block = slice(start, start + len(s.counts))
            q = rule(prior, table, s)
            kl = kl_divergence(q, prior)
            g = gibbs_losses(q, table, s)
            at_q = (q, prior, table, s, kl, g)
            cat_vals[block] = evaluate_posterior_bound("catoni", catoni, *at_q).value
            flat_vals[block] = evaluate_posterior_bound("flatness", params, *at_q).value
            tms[block] = params.c * (1.0 - params.h * params.h) * s.mean(g * g)
            kls[block] = kl
        crossed = bool(flat_vals.mean() < cat_vals.mean())
        if crossed and math.isinf(crossover_m):
            crossover_m = float(m)
        rows.append(SweepRow(
            m=m,
            catoni_mean=float(cat_vals.mean()),
            flatness_mean=float(flat_vals.mean()),
            T_m_mean=float(tms.mean()),
            kl_mean=float(kls.mean()),
            crossover_flag=crossed,
        ))
    return SweepResult(rows=tuple(rows), crossover_m=crossover_m)
