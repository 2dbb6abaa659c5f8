"""Posterior construction: the tempered Gibbs family and the bound minimiser.

A posterior rule maps (prior, table, sample) to a posterior; given a block of
samples it returns one posterior row per sample, or one posterior for all of
them. gibbs_posterior is such a rule once beta is bound, and so is
minimize_bound once its family, parameters and beta grid are.

Both are made of the Gibbs tilt Q ~ P exp(-t * score) (_tilt): every family's
bound is minimised by a tilt, or for flatness by a sequence of them.
"""

from __future__ import annotations

import numpy as np

from .bounds import FAMILIES, BoundParams, BoundReport, evaluate_bound, flatness_bound
from .core import LossTable, ProbMeasure, Sample, empirical_risks
from .measures import gibbs_empirical_risk, gibbs_losses, kl_divergence
from .processes import _kl_ball_tilt

# minimize_bound's stop rule and cap on tilts per row.
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
    x = np.where(support, -np.where(limit, 0.0, t) * score, -np.inf)
    x -= x.max(axis=-1, keepdims=True)
    w = p.weights * np.exp(x)
    if limit.any():
        least = np.where(support, score, np.inf)
        w = np.where(limit, p.weights * (least == least.min(axis=-1, keepdims=True)), w)
    return ProbMeasure.normalized(w)


def gibbs_posterior(p: ProbMeasure, table: LossTable, s: Sample, beta: float) -> ProbMeasure:
    """Tempered posterior: weights proportional to p(f) exp(-beta * m * Remp(f)),
    one row per sample of s; where beta * m overflows (beta = inf included),
    the beta -> inf limit of _tilt."""
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0:
        return p
    return _tilt(p, empirical_risks(table, s), float(beta) * s.m)


def evaluate_posterior_bound(family: str, params: BoundParams, q: ProbMeasure,
                             prior: ProbMeasure, table: LossTable, s: Sample) -> BoundReport:
    """Evaluate any bound family at a concrete posterior, one value per sample
    of s (and per row of q)."""
    kl = kl_divergence(q, prior)
    if family in FAMILIES and FAMILIES[family].needs_sample:
        return flatness_bound(q, table, s, kl, params)
    return evaluate_bound(family, gibbs_empirical_risk(q, table, s), kl, s.m, params)


def _majoriser(family: str, params: BoundParams, q: ProbMeasure, p: ProbMeasure,
               table: LossTable, s: Sample):
    """(score, t), one row per sample of s: _tilt(p, score, t) minimises the
    bound linearised at q in KL and, for flatness, in its concave -(1-h^2) G^2
    term. t = d_emp / d_kl(KL(q || p)) (+inf where d_kl = 0); score is Remp,
    plus c (mean_rows(L^2) - 2 (1-h^2) matvec(L, G counts) / m) / d_emp for
    flatness (G = q L). The bound's gradient at q is d_emp (score + (log(q/p) + 1) / t)."""
    fam = FAMILIES[family]
    d_emp = fam.d_emp(params)
    b = np.broadcast_to(fam.d_kl(kl_divergence(q, p), s.m, params), s.counts.shape[:-1])
    t = np.divide(d_emp, b, out=np.full(b.shape, np.inf), where=b > 0)
    score = empirical_risks(table, s)
    if fam.needs_sample:
        g = gibbs_losses(q, table, s)
        shrink = 2.0 * (1.0 - params.h * params.h)
        score = (score + params.c * (s.mean_rows(table.loss_squared)
                                     - shrink * np.matvec(table.loss, g * s.counts) / s.m)) / d_emp
    return score, t


def minimize_bound(family: str, params: BoundParams, p: ProbMeasure, table: LossTable,
                   s: Sample, beta_grid) -> tuple[ProbMeasure, BoundReport]:
    """Posterior of least bound found, one posterior row (weights [..., n_h])
    and one bound value per sample of s, by a majorise-minimise loop: each
    step tilts Q_k by _majoriser at Q_k. One tilt is exact for catoni and
    matched_catoni; the loop descends for mcallester (concave in KL) and is
    the convex-concave procedure for flatness. A sample starts from the
    tempered posterior of every beta in beta_grid; kst, whose max(KL, 2) has a
    kink, also from the one with KL = 2, or the beta -> inf limit if its KL <= 2.
    A row takes a tilt only where it lowers its bound B, and stops once the
    decrease is at most _TILT_RTOL * max(1, |B|); a row still open after
    _MAX_TILTS tilts raises RuntimeError. A sample keeps its least bound over
    its starts (the least beta on a tie): never above the grid, and
    independent of the rest of the block.
    """
    starts = [gibbs_posterior(p, table, s, beta).weights for beta in sorted(set(beta_grid))]
    if not starts:
        raise ValueError("beta grid must be nonempty")
    if family == "kst":
        risks = empirical_risks(table, s)
        starts.append(_tilt(p, risks, _kl_ball_tilt(p, -risks, 2.0)[1]).weights)

    # One row per (start, sample), so a block of samples is one loop.
    shape = s.counts.shape[:-1] + (p.size,)
    w = np.stack([np.broadcast_to(start, shape) for start in starts]).reshape(-1, p.size)
    counts = np.broadcast_to(s.counts, (len(starts),) + s.counts.shape).reshape(len(w), -1)
    val = evaluate_posterior_bound(family, params, ProbMeasure(w), p, table, Sample(counts)).value
    rows = np.arange(len(w))
    for _ in range(_MAX_TILTS):
        if not rows.size:
            break
        sample = Sample(counts[rows])
        q = _tilt(p, *_majoriser(family, params, ProbMeasure(w[rows]), p, table, sample))
        new = evaluate_posterior_bound(family, params, q, p, table, sample).value
        drop = np.where(new < val[rows], val[rows] - new, 0.0)
        w[rows[drop > 0]], val[rows[drop > 0]] = q.weights[drop > 0], new[drop > 0]
        rows = rows[drop > _TILT_RTOL * np.maximum(1.0, np.abs(val[rows]))]
    if rows.size:
        raise RuntimeError(f"minimize_bound: {rows.size} rows still open after {_MAX_TILTS} tilts")
    best = val.reshape(len(starts), -1).argmin(axis=0)
    best_q = ProbMeasure(w.reshape(len(starts), -1, p.size)[best, range(best.size)].reshape(shape))
    return best_q, evaluate_posterior_bound(family, params, best_q, p, table, s)
