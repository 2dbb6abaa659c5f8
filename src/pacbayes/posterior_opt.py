"""Posterior construction: the tempered Gibbs family and the bound minimiser.

A posterior rule maps (prior, table, sample) to a posterior; given a block of
samples it returns one posterior row per sample, or one posterior for all of
them. gibbs_posterior is such a rule once beta is bound, and so is
minimize_bound once its family and parameters are; its caller evaluates the
bound at the posterior it returns (evaluate_posterior_bound).

Both are made of the Gibbs tilt Q ~ P exp(-t * score) (_tilt): every family's
bound is minimised by a tilt, or for flatness by a sequence of them. Every
family but flatness depends on Q only through Remp(Q) and KL(Q || P), so
minimize_bound searches the tilt path Q_t ~ P exp(-t Remp) for it, with one
number t per row, and reads Remp and KL off the path's log-partition
(_path_point); flatness's loop carries each row's weights.
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
    w /= w.sum(axis=-1, keepdims=True)
    return ProbMeasure._of(w)


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


def _temperature(family: str, params: BoundParams, kl, m: int):
    """t = d_emp / d_kl(kl), one per entry of kl, and +inf where d_kl = 0 or the
    ratio overflows: the tilt of the risks at t minimises the bound linearised
    in KL at kl."""
    fam = FAMILIES[family]
    b = np.broadcast_to(fam.d_kl(kl, m, params), np.shape(kl))
    with np.errstate(over="ignore"):
        return np.divide(fam.d_emp(params), b, out=np.full(b.shape, np.inf), where=b > 0)


def _majoriser(family: str, params: BoundParams, table: LossTable, s: Sample, risks, g, sq):
    """The score, one row per sample of s, of the tilt that minimises the
    bound of the family that needs_sample linearised at q in KL and in its
    concave -(1-h^2) G^2 term: (risks + c (sq - 2 (1-h^2) matvec(L, G counts)
    / m)) / d_emp, with risks = Remp, G = q L and sq = mean_rows(L^2). At
    t = _temperature(KL(q || p)), the bound's gradient at q is d_emp (score +
    (log(q/p) + 1) / t)."""
    # One [rows, n_h] buffer: a temporary per operation made glibc trim and
    # regrow its heap each step.
    score = np.matvec(table.loss, g * s.counts)
    np.multiply(2.0 * (1.0 - params.h * params.h), score, out=score)
    np.divide(score, s.m, out=score)
    np.subtract(sq, score, out=score)
    np.multiply(params.c, score, out=score)
    np.add(risks, score, out=score)
    np.divide(score, FAMILIES[family].d_emp(params), out=score)
    return score


def _path_point(w0, a, least, t):
    """(Remp, KL(Q || p)) at the tilt Q = _tilt(p, risks, t), one per row, from
    its log-partition: w0 = p's weights on its support, a = risks - least
    there (least = their minimum, one per row), and t >= 0 one per row, +inf
    for the t -> inf limit. With w = w0 exp(-t a) and Z = sum w (at least the
    prior mass of the least risk, so no underflow to 0): Remp = least + w.a / Z
    and KL = -log Z - t w.a / Z, clamped at 0 as kl_divergence is. Its error is
    a few ulp of max(1, KL, -log Z)."""
    limit = np.isinf(t)
    t = np.where(limit, 0.0, t)
    w = -t[:, None] * a  # one buffer: the exponent, then the weights
    if limit.any():
        np.copyto(w, -np.inf, where=limit[:, None] & (a > 0))
    np.multiply(np.exp(w, out=w), w0, out=w)
    z = w.sum(axis=-1)
    mean = np.vecdot(w, a) / z
    return least + mean, np.maximum(-np.log(z) - t * mean, 0.0)


def _path_bound(family: str, params: BoundParams, w0, a, least, t, m: int):
    """(B, KL) at the tilt _tilt(p, risks, t), one per row (_path_point's
    arguments), for a family that depends on Q only through Remp and KL."""
    emp, kl = _path_point(w0, a, least, t)
    return evaluate_bound(family, emp, kl, m, params).value, kl


def _descend(step, val, state, n_starts: int):
    """The majorise-minimise loop on rows (start, sample), start-major: step(rows)
    returns the bound after one more tilt of those rows and their new state,
    one entry per row for each array of state. rows is slice(None) while every
    row is open, so that step reads views and the loop writes in place, and an
    index array once some row has stopped. A row takes the tilt only where it
    lowers its bound val (kept with state, in place), and stops once the
    decrease is at most _TILT_RTOL * max(1, |B|); a row still open after
    _MAX_TILTS tilts raises RuntimeError. The rule bounds the last decrease of
    B, not the distance to the optimum: where the loop converges linearly
    (kst, mcallester), starts of one sample can stop about 5e-14 apart,
    relative. Returns each sample's start of least bound, the first on a tie."""
    rows, index = slice(None), np.arange(len(val))
    for _ in range(_MAX_TILTS):
        new, fresh = step(rows)
        # Under the slice old is a view of val: every mask is formed before val is written.
        old = val[rows]
        # The decrease, formed only where there is one: two +inf bounds make none.
        took = new < old
        drop = np.subtract(old, new, out=np.zeros_like(new), where=took)
        going = drop > _TILT_RTOL * np.maximum(1.0, np.abs(np.where(took, new, old)))
        # Where every row took its tilt, new and its state are written whole, ungathered.
        kept, taken = (rows, slice(None)) if took.all() else (index[rows][took], took)
        val[kept] = new[taken]
        for kept_state, new_state in zip(state, fresh):
            kept_state[kept] = new_state[taken]
        if not going.all():
            rows = index[rows][going]
            if not rows.size:
                return val.reshape(n_starts, -1).argmin(axis=0)
    still_open = index[rows].size
    raise RuntimeError(f"minimize_bound: {still_open} rows still open after {_MAX_TILTS} tilts")


def _path_minimum(family: str, params: BoundParams, p: ProbMeasure, risks, m: int):
    """The t of least bound on the tilt path _tilt(p, risks, t), one per sample
    of risks [..., n_h]: the loop of _descend with one t and its KL per row,
    evaluated by _path_bound."""
    support = p.weights > 0
    w0, r = p.weights[support], risks.reshape(-1, p.size)[:, support]
    least = r.min(axis=-1)
    starts = [np.full(len(r), beta * m) for beta in BETA_GRID]
    if family == "kst":
        starts.append(_kl_ball_tilt(p, -risks, 2.0)[1].reshape(-1))
    t = np.concatenate(starts)
    # The tilt changes neither a nor least, so the rows of every start share them.
    a, least = np.tile(r - least[:, None], (len(starts), 1)), np.tile(least, len(starts))
    val, kl = _path_bound(family, params, w0, a, least, t, m)

    def step(rows):
        t_new = _temperature(family, params, kl[rows], m)
        new, kl_new = _path_bound(family, params, w0, a[rows], least[rows], t_new, m)
        return new, (t_new, kl_new)

    best = _descend(step, val, (t, kl), len(starts))
    return t.reshape(len(starts), -1)[best, range(best.size)].reshape(risks.shape[:-1])


def _weight_minimum(family: str, params: BoundParams, p: ProbMeasure, table: LossTable,
                    s: Sample, risks) -> np.ndarray:
    """The posterior weights of least bound for the family that needs_sample,
    one row per sample of s: the loop of _descend with the weights, KL and
    G = Q L of each row as its state, each step one _tilt of _majoriser's score
    at _temperature(KL)."""
    starts = [gibbs_posterior(p, table, s, beta, risks).weights for beta in BETA_GRID]

    # One row per (start, sample), so a block of samples is one loop. The tilt
    # changes neither the risks nor the sample means of L^2.
    def stacked(x):
        return np.broadcast_to(x, (len(starts),) + x.shape).reshape(-1, x.shape[-1])

    def evaluate(q, sample):
        kl, g = kl_divergence(q, p), gibbs_losses(q, table, sample)
        return evaluate_posterior_bound(family, params, q, p, table, sample, kl, g).value, kl, g

    shape = s.counts.shape[:-1] + (p.size,)
    w = np.stack([np.broadcast_to(start, shape) for start in starts]).reshape(-1, p.size)
    counts, risks, sq = stacked(s.counts), stacked(risks), stacked(s.mean_rows(table.loss_squared))
    # w and counts are built here from checked inputs; w.view() leaves w writable.
    val, kl, g = evaluate(ProbMeasure._of(w.view()), Sample._of(counts, s.m))

    def step(rows):
        sample = Sample._of(counts[rows], s.m)
        score = _majoriser(family, params, table, sample, risks[rows], g[rows], sq[rows])
        q = _tilt(p, score, _temperature(family, params, kl[rows], s.m))
        new, q_kl, q_g = evaluate(q, sample)
        return new, (q.weights, q_kl, q_g)

    best = _descend(step, val, (w, kl, g), len(starts))
    return w.reshape(len(starts), -1, p.size)[best, range(best.size)].reshape(shape)


def minimize_bound(family: str, params: BoundParams, p: ProbMeasure, table: LossTable,
                   s: Sample) -> ProbMeasure:
    """Posterior of least bound found, one posterior row (weights [..., n_h])
    per sample of s, by a majorise-minimise loop: each step tilts by the
    minimiser of the bound linearised at the current posterior. A sample
    starts from the tempered posterior of every beta in BETA_GRID; kst, whose
    max(KL, 2) has a kink, also from the one with KL = 2, or the beta -> inf
    limit if its KL <= 2. A row takes a tilt only where it lowers its bound
    B, and stops once the decrease is at most _TILT_RTOL * max(1, |B|); a row
    still open after _MAX_TILTS tilts raises RuntimeError. The rule bounds the
    last decrease of B, not the distance to the optimum: for kst and
    mcallester, whose loop converges linearly, two starts of one sample can
    stop about 5e-14 apart in B, relative. A sample keeps its
    least bound over its starts (the least beta on a tie): never above the
    grid, and independent of the rest of the block. The bound at the result
    is left to the caller.

    The state of a row is of one of two kinds. Every family but flatness
    depends on Q only through Remp(Q) and KL(Q || p), so its minimiser is on
    the tilt path Q_t ~ p exp(-t Remp), and a row is one t and its KL: the
    starts are t = beta m, each step is t <- _temperature(KL) (one step is
    exact for catoni and matched_catoni; the loop descends for mcallester),
    each bound comes from _path_bound's log-partition, and the result is one
    _tilt per sample, or the prior itself where the beta = 0 start won
    untilted. flatness also depends on G = Q L, so a row is its weights, KL
    and G, each step tilts by _majoriser's score at _temperature(KL) (the
    convex-concave procedure), each evaluation computes the KL and G once (and
    on a binary table takes G for Q L^2, in measures.flatness), and the sample
    means of L^2 are computed once per call.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown bound family {family!r}")
    _check_hypotheses(p, table)
    risks = empirical_risks(table, s)
    if FAMILIES[family].needs_sample:
        return ProbMeasure._of(_weight_minimum(family, params, p, table, s, risks))
    t = _path_minimum(family, params, p, risks, s.m)
    q = _tilt(p, risks, t)
    if (untilted := t == 0).any():
        return ProbMeasure._of(np.where(np.expand_dims(untilted, -1), p.weights, q.weights))
    return q
