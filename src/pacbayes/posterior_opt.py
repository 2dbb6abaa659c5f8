"""Posterior construction: tempered Gibbs family and direct simplex search.

minimize_bound seeds the search with the tempered family (the exact minimizer
for Catoni-style objectives, which are linear in (emp, KL)) and then refines
with exponentiated-gradient steps on the simplex. Flatness objectives are
nonconvex in Q, so only "best found" is claimed.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import FAMILIES, BoundParams, BoundReport, evaluate_bound, flatness_bound
from .core import LossTable, Sample, empirical_risks
from .measures import ProbMeasure, gibbs_empirical_risk, kl_divergence


def gibbs_posterior(p: ProbMeasure, table: LossTable, s: Sample, beta: float) -> ProbMeasure:
    """Tempered posterior: weights proportional to p(f) exp(-beta * m * Remp(f))."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0:
        return p
    score = -beta * s.m * empirical_risks(table, s)
    score -= score.max()
    raw = p.weights * np.exp(score)
    return ProbMeasure.normalized(raw)


def evaluate_posterior_bound(family: str, params: BoundParams, q: ProbMeasure,
                             prior: ProbMeasure, table: LossTable, s: Sample) -> BoundReport:
    """Evaluate any bound family at a concrete posterior."""
    kl = kl_divergence(q, prior)
    if family == "flatness":
        return flatness_bound(q, table, s, kl, params.delta, params.c, params.h)
    emp = gibbs_empirical_risk(q, table, s)
    return evaluate_bound(family, emp, kl, s.m, params)


def _bound_gradient(family: str, params: BoundParams, q: np.ndarray,
                    prior: np.ndarray, table: LossTable, s: Sample) -> np.ndarray:
    """Analytic gradient of the bound objective in the posterior weights.

    One chain rule for every family: dB/demp * Remp(f) + dB/dkl * (log(q_f/p_f) + 1),
    plus c times the gradient of the flatness term for the flatness bound.
    Entries where the prior (hence the posterior) carries no mass get a zero
    gradient; multiplicative updates keep them at zero.
    """
    fam = FAMILIES[family]
    live = (prior > 0) & (q > 0)
    log_ratio = np.log(q[live] / prior[live])
    kl = float(np.sum(q[live] * log_ratio))
    g_kl = np.zeros_like(q)
    g_kl[live] = log_ratio + 1.0
    grad = fam.d_emp(params) * empirical_risks(table, s) + fam.d_kl(kl, s.m, params) * g_kl
    if fam.needs_sample:
        h = params.h
        loss = table.loss
        gvals = q @ loss
        # d/dq_f of the flatness sum: (1/m) sum_i [L_{f,i}^2 + 2(h^2-1) G_i L_{f,i}]
        grad += params.c * s.mean(loss * loss + 2.0 * (h * h - 1.0) * gvals[None, :] * loss)
    grad[~live] = 0.0
    return grad


def minimize_bound(family: str, params: BoundParams, p: ProbMeasure, table: LossTable,
                   s: Sample, beta_grid, refine_steps: int = 50) -> tuple[ProbMeasure, BoundReport]:
    """Best posterior found over the tempered grid plus exponentiated-gradient
    refinement. A refinement step is kept only if it improves the bound, so the
    result never exceeds the best grid evaluation."""
    betas = list(beta_grid)
    if not betas:
        raise ValueError("beta grid must be nonempty")
    best_q = None
    best_val = math.inf
    best_key = None
    for beta in betas:
        q = gibbs_posterior(p, table, s, beta)
        val = evaluate_posterior_bound(family, params, q, p, table, s).value
        key = (beta, tuple(q.weights))
        if best_q is None or val < best_val or (val == best_val and key < best_key):
            best_q, best_val, best_key = q, val, key

    w = best_q.weights.copy()
    step = 1.0
    for _ in range(refine_steps):
        grad = _bound_gradient(family, params, w, p.weights, table, s)
        live = w > 0
        centered = grad - grad[live].mean()
        trial = w * np.exp(-step * np.where(live, centered, 0.0))
        trial[~live] = 0.0
        total = trial.sum()
        if total <= 0 or not np.all(np.isfinite(trial)):
            step /= 2.0
            continue
        trial /= total
        q_trial = ProbMeasure.normalized(trial)
        val = evaluate_posterior_bound(family, params, q_trial, p, table, s).value
        if val < best_val:
            best_val = val
            w = q_trial.weights.copy()
        else:
            step /= 2.0
    best_q = ProbMeasure.normalized(w)
    return best_q, evaluate_posterior_bound(family, params, best_q, p, table, s)
