"""Posterior construction: the tempered Gibbs family and the bound minimiser.

A posterior rule maps (prior, table, sample) to a posterior; given a block of
samples it returns one posterior row per sample, or one posterior for all of
them. gibbs_posterior is such a rule once beta is bound, and so is
minimize_bound once its family and parameters are; its caller evaluates the
bound at the posterior it returns (evaluate_posterior_bound).

Both are made of the Gibbs tilt Q ~ P exp(-t * score) (_tilt): every family's
bound is minimised by a tilt, or for flatness by a sequence of them.
"""

from __future__ import annotations

import numpy as np

from .bounds import FAMILIES, BoundParams, BoundReport, evaluate_bound, flatness_bound
from .core import LossTable, ProbMeasure, Sample, empirical_risks
from .measures import _check_hypotheses, gibbs_losses, kl_divergence
from .processes import _kl_ball_tilt

# minimize_bound's starts (the tempered posteriors of these betas, in increasing
# order, and for kst the one at its kink), its stop rule and its cap on tilts per row.
BETA_GRID = (0.0, 0.1, 1.0, 10.0)
_TILT_RTOL = 1e-12
_MAX_TILTS = 500


def _tilt(p: ProbMeasure, score, t) -> ProbMeasure:
    """The tilt Q ~ p exp(-t * score), row by row: score [..., n_h], and t >= 0
    a number or one per row. Where t is +inf it is the t -> inf limit: p
    restricted to the atoms of least score on its support."""
    support = p.weights > 0
    t = np.expand_dims(t, -1)
    limit = np.isinf(t)
    # Shift by the best exponent on the prior's support, so that the weights
    # there do not all underflow when an atom without prior mass scores better.
    w = -np.where(limit, 0.0, t) * score  # one buffer: the exponent, then the weights
    if not support.all():
        np.copyto(w, -np.inf, where=~support)
    w -= w.max(axis=-1, keepdims=True)
    np.multiply(np.exp(w, out=w), p.weights, out=w)
    if limit.any():
        least = np.where(support, score, np.inf)
        w = np.where(limit, p.weights * (least == least.min(axis=-1, keepdims=True)), w)
    # Checked by construction: the atom of best exponent on p's support has weight p_f > 0.
    return ProbMeasure._of(w / w.sum(axis=-1, keepdims=True))


def gibbs_posterior(p: ProbMeasure, table: LossTable, s: Sample, beta: float,
                    risks=None) -> ProbMeasure:
    """Tempered posterior: weights proportional to p(f) exp(-beta * m * Remp(f)),
    one row per sample of s; where beta * m overflows (beta = inf included),
    the beta -> inf limit of _tilt. risks: empirical_risks(table, s), if known."""
    _check_hypotheses(p, table)
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0:
        return p
    risks = empirical_risks(table, s) if risks is None else risks
    return _tilt(p, risks, float(beta) * s.m)


def evaluate_posterior_bound(family: str, params: BoundParams, q: ProbMeasure,
                             prior: ProbMeasure, table: LossTable, s: Sample,
                             kl=None, g=None) -> BoundReport:
    """Evaluate any bound family at a concrete posterior, one value per sample
    of s (and per row of q); kl = KL(q || prior) and g = G_Q = q L, if known."""
    kl = kl_divergence(q, prior) if kl is None else kl
    g = gibbs_losses(q, table, s) if g is None else g
    if family in FAMILIES and FAMILIES[family].needs_sample:
        return flatness_bound(q, table, s, kl, params, g)
    return evaluate_bound(family, s.mean(g), kl, s.m, params)


def _majoriser(family: str, params: BoundParams, table: LossTable, s: Sample, kl, risks,
               g=None, sq=None):
    """(score, t), one row per sample of s: _tilt(p, score, t) minimises the
    bound linearised at q, of KL(q || p) = kl, in KL and, for flatness, in its
    concave -(1-h^2) G^2 term. t = d_emp / d_kl(kl) (+inf where d_kl = 0); score
    is Remp = risks, plus c (sq - 2 (1-h^2) matvec(L, G counts) / m) / d_emp for
    flatness (G = q L, sq = mean_rows(L^2)). The bound's gradient at q is d_emp
    (score + (log(q/p) + 1) / t)."""
    fam = FAMILIES[family]
    d_emp = fam.d_emp(params)
    b = np.broadcast_to(fam.d_kl(kl, s.m, params), s.counts.shape[:-1])
    t = np.divide(d_emp, b, out=np.full(b.shape, np.inf), where=b > 0)
    score = risks
    if fam.needs_sample:
        shrink = 2.0 * (1.0 - params.h * params.h)
        score = (score + params.c * (sq - shrink * np.matvec(table.loss, g * s.counts)
                                     / s.m)) / d_emp
    return score, t


def minimize_bound(family: str, params: BoundParams, p: ProbMeasure, table: LossTable,
                   s: Sample) -> ProbMeasure:
    """Posterior of least bound found, one posterior row (weights [..., n_h])
    per sample of s, by a majorise-minimise loop: each step tilts Q_k by
    _majoriser at Q_k. One tilt is exact for catoni and matched_catoni; the
    loop descends for mcallester (concave in KL) and is the convex-concave
    procedure for flatness. A sample starts from the tempered posterior of
    every beta in BETA_GRID; kst, whose max(KL, 2) has a kink, also from the
    one with KL = 2, or the beta -> inf limit if its KL <= 2.
    A row takes a tilt only where it lowers its bound B, and stops once the
    decrease is at most _TILT_RTOL * max(1, |B|); a row still open after
    _MAX_TILTS tilts raises RuntimeError. A sample keeps its least bound over
    its starts (the least beta on a tie): never above the grid, and
    independent of the rest of the block. Each bound evaluation computes the
    KL and G = Q L once, and the rows that take a tilt keep them for the next;
    the bound at the result is left to the caller.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown bound family {family!r}")
    risks = empirical_risks(table, s)
    starts = [gibbs_posterior(p, table, s, beta, risks).weights for beta in BETA_GRID]
    if family == "kst":
        starts.append(_tilt(p, risks, _kl_ball_tilt(p, -risks, 2.0)[1]).weights)

    # One row per (start, sample), so a block of samples is one loop. The tilt
    # changes neither the risks nor, for flatness, the sample means of L^2.
    def stacked(a):
        return np.broadcast_to(a, (len(starts),) + a.shape).reshape(-1, a.shape[-1])

    def evaluate(q, sample):
        kl, g = kl_divergence(q, p), gibbs_losses(q, table, sample)
        return evaluate_posterior_bound(family, params, q, p, table, sample, kl, g).value, kl, g

    shape = s.counts.shape[:-1] + (p.size,)
    w = np.stack([np.broadcast_to(start, shape) for start in starts]).reshape(-1, p.size)
    counts, risks = stacked(s.counts), stacked(risks)
    sq = stacked(s.mean_rows(table.loss_squared)) if FAMILIES[family].needs_sample else None
    # w and counts are built here from checked inputs; w.view() leaves w writable.
    val, kl, g = evaluate(ProbMeasure._of(w.view()), Sample._of(counts, s.m))
    rows = np.arange(len(w))
    for _ in range(_MAX_TILTS):
        if not rows.size:
            break
        sample = Sample._of(counts[rows], s.m)
        flat = (g[rows], sq[rows]) if sq is not None else ()
        q = _tilt(p, *_majoriser(family, params, table, sample, kl[rows], risks[rows], *flat))
        (new, q_kl, q_g), old = evaluate(q, sample), val[rows]
        drop = np.where(new < old, old - new, 0.0)
        took = drop > 0
        kept = rows[took]
        w[kept], val[kept], kl[kept], g[kept] = q.weights[took], new[took], q_kl[took], q_g[took]
        rows = rows[drop > _TILT_RTOL * np.maximum(1.0, np.abs(np.where(took, new, old)))]
    if rows.size:
        raise RuntimeError(f"minimize_bound: {rows.size} rows still open after {_MAX_TILTS} tilts")
    best = val.reshape(len(starts), -1).argmin(axis=0)
    best_w = w.reshape(len(starts), -1, p.size)[best, range(best.size)]
    return ProbMeasure._of(best_w.reshape(shape))
