"""Posterior construction: tempered Gibbs family and direct simplex search.

A posterior rule maps (prior, table, sample) to a posterior; given a block of
samples it returns one posterior row per sample, or one posterior for all of
them. gibbs_posterior is such a rule once beta is bound, and so is
minimize_bound once its family, parameters and search settings are.

minimize_bound seeds the search with the tempered family (the exact minimizer
for Catoni-style objectives, which are linear in (emp, KL)) and then refines
with exponentiated-gradient steps on the simplex, every sample of a block
with its own step size. Flatness objectives are nonconvex in Q, so only
"best found" is claimed.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import FAMILIES, BoundParams, BoundReport, evaluate_bound, flatness_bound
from .core import LossTable, ProbMeasure, Sample, empirical_risks
from .measures import gibbs_empirical_risk, kl_divergence


def gibbs_posterior(p: ProbMeasure, table: LossTable, s: Sample, beta: float) -> ProbMeasure:
    """Tempered posterior: weights proportional to p(f) exp(-beta * m * Remp(f)),
    one row per sample of s. Where beta * m overflows (beta = inf included) it
    is the beta -> inf limit: the prior restricted, row by row, to the atoms of
    least empirical risk on its support."""
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0:
        return p
    risks = empirical_risks(table, s)
    if math.isinf(float(beta) * s.m):
        risks = np.where(p.weights > 0, risks, np.inf)
        return ProbMeasure.normalized(p.weights * (risks == risks.min(axis=-1, keepdims=True)))
    # Shift by the best score on the prior's support, so that the weights there
    # do not all underflow when an atom without prior mass scores higher.
    score = np.where(p.weights > 0, -beta * s.m * risks, -np.inf)
    score -= score.max(axis=-1, keepdims=True)
    raw = p.weights * np.exp(score)
    return ProbMeasure.normalized(raw)


def evaluate_posterior_bound(family: str, params: BoundParams, q: ProbMeasure,
                             prior: ProbMeasure, table: LossTable, s: Sample) -> BoundReport:
    """Evaluate any bound family at a concrete posterior, one value per sample
    of s (and per row of q)."""
    kl = kl_divergence(q, prior)
    if family == "flatness":
        return flatness_bound(q, table, s, kl, params.delta, params.c, params.h)
    emp = gibbs_empirical_risk(q, table, s)
    return evaluate_bound(family, emp, kl, s.m, params)


def _bound_gradient(family: str, params: BoundParams, q: np.ndarray,
                    prior: np.ndarray, table: LossTable, s: Sample) -> np.ndarray:
    """Analytic gradient of the bound objective in the posterior weights q
    [..., n_h], one row per sample of s.

    One chain rule for every family: dB/demp * Remp(f) + dB/dkl * (log(q_f/p_f) + 1),
    plus c times the gradient of the flatness term for the flatness bound.
    Entries where the prior (hence the posterior) carries no mass get a zero
    gradient; multiplicative updates keep them at zero.
    """
    fam = FAMILIES[family]
    live = (prior > 0) & (q > 0)
    log_ratio = np.log(np.divide(q, prior, out=np.ones_like(q), where=live))
    kl = np.sum(q * log_ratio, axis=-1)
    g_kl = np.where(live, log_ratio + 1.0, 0.0)
    grad = (fam.d_emp(params) * empirical_risks(table, s)
            + np.expand_dims(fam.d_kl(kl, s.m, params), -1) * g_kl)
    if fam.needs_sample:
        # d/dq_f of the flatness sum: (1/m) sum_i [L_{f,i}^2 + 2(h^2-1) G_i L_{f,i}],
        # taken as two matrix-vector products so a block needs no [T, n_h, n_z] array.
        h, loss = params.h, table.loss
        gvals = np.vecmat(q, loss)
        grad += params.c * (s.mean_rows(loss * loss)
                            + 2.0 * (h * h - 1.0) * np.matvec(loss, gvals * s.counts) / s.m)
    return np.where(live, grad, 0.0)


def minimize_bound(family: str, params: BoundParams, p: ProbMeasure, table: LossTable,
                   s: Sample, beta_grid, refine_steps: int = 50) -> tuple[ProbMeasure, BoundReport]:
    """Best posterior found over the tempered grid plus exponentiated-gradient
    refinement, one posterior row (weights [..., n_h]) and one bound value per
    sample of s.

    Each sample keeps the tempered posterior of the smallest beta that attains
    its least grid value, then refines with its own step size: a step is kept
    only if it improves that sample's bound, and otherwise (or when the trial
    weights overflow) the step halves. So the result never exceeds the best
    grid evaluation, and a sample's result does not depend on the rest of its
    block.
    """
    betas = sorted(set(beta_grid))
    if not betas:
        raise ValueError("beta grid must be nonempty")
    if refine_steps < 0:
        raise ValueError("refine_steps must be nonnegative")

    def bound(q):
        return evaluate_posterior_bound(family, params, q, p, table, s)

    shape = s.counts.shape[:-1] + (p.size,)
    q = gibbs_posterior(p, table, s, betas[0])
    w, best_val = np.broadcast_to(q.weights, shape), bound(q).value
    for beta in betas[1:]:
        q = gibbs_posterior(p, table, s, beta)
        val = bound(q).value
        better = val < best_val
        best_val = np.where(better, val, best_val)
        w = np.where(better[..., None], q.weights, w)

    step = np.ones(shape[:-1])
    for _ in range(refine_steps):
        grad = _bound_gradient(family, params, w, p.weights, table, s)
        live = w > 0
        # grad is zero off the support, so its sum is over the support only.
        centered = grad - grad.sum(axis=-1, keepdims=True) / live.sum(axis=-1, keepdims=True)
        trial = w * np.exp(-step[..., None] * np.where(live, centered, 0.0))
        total = trial.sum(axis=-1)
        usable = (total > 0) & np.isfinite(trial).all(axis=-1)
        # A row that cannot be normalized keeps its weights and is not accepted.
        q_trial = ProbMeasure.normalized(
            np.divide(trial, total[..., None], out=np.array(w), where=usable[..., None]))
        val = bound(q_trial).value
        accept = usable & (val < best_val)
        best_val = np.where(accept, val, best_val)
        w = np.where(accept[..., None], q_trial.weights, w)
        step = np.where(accept, step, step / 2.0)
    best_q = ProbMeasure.normalized(w)
    return best_q, bound(best_q)
