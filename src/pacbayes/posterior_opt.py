"""Posterior construction: tempered Gibbs family and direct simplex search.

minimize_bound seeds the search with the tempered family (the exact minimizer
for Catoni-style objectives, which are linear in (emp, KL)) and then refines
with exponentiated-gradient steps on the simplex. Flatness objectives are
nonconvex in Q, so only "best found" is claimed.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import (BoundParams, BoundReport, catoni_prefactor, evaluate_bound,
                     flatness_bound, flatness_rate_constant, derive_matched_catoni_constants)
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

    Entries where the prior (hence the posterior) carries no mass get a zero
    gradient; multiplicative updates keep them at zero.
    """
    emp_risks = empirical_risks(table, s)
    live = (prior > 0) & (q > 0)
    g_kl = np.zeros_like(q)
    g_kl[live] = np.log(q[live] / prior[live]) + 1.0
    kl = float(np.sum(q[live] * np.log(q[live] / prior[live])))
    m = s.m
    d = params.delta
    if family == "mcallester":
        root = math.sqrt((kl + math.log(m / d)) / (2.0 * (m - 1)))
        grad = emp_risks + g_kl / (4.0 * (m - 1) * max(root, 1e-15))
    elif family == "catoni":
        pref = catoni_prefactor(params.catoni_C)
        grad = pref * (params.catoni_C * emp_risks + g_kl / m)
    elif family == "kst":
        grad = emp_risks.copy()
        if kl > 2.0:
            grad = grad + 4.5 * g_kl / (2.0 * math.sqrt(kl * m))
    elif family == "matched_catoni":
        k = derive_matched_catoni_constants(params.c, params.resolve_c2(family), d)
        grad = (1.0 + params.c) * emp_risks + k.C1 * g_kl / m
    elif family == "flatness":
        h = params.h
        loss = table.loss
        gvals = q @ loss
        # d/dq_f of the flatness sum: (1/m) sum_i [L_{f,i}^2 + 2(h^2-1) G_i L_{f,i}]
        flat_grad = s.mean(loss * loss + 2.0 * (h * h - 1.0) * gvals[None, :] * loss)
        C = flatness_rate_constant(params.c, h)
        grad = emp_risks + params.c * flat_grad + 4.0 / (C * m) * 3.0 * g_kl
    else:
        raise ValueError(f"unknown bound family {family!r}")
    grad = grad.copy()
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
