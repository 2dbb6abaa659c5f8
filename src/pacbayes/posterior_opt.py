"""Posterior construction: the tempered Gibbs family and the bound minimiser.

A posterior rule maps (prior, table, sample) to a posterior; given a block of
samples it returns one posterior row per sample, or one posterior for all of
them. gibbs_posterior is such a rule once beta is bound, and so is
minimize_bound once its family and parameters are; its caller evaluates the
bound at the posterior it returns (evaluate_posterior_bound).

Both are made of the Gibbs tilt Q ~ P exp(-t a), a the score less its least
value on P's support, whose weights one kernel forms (_tilt_weights).
minimize_bound searches tilts of the prior alone, reading Remp, KL and G = Q L
off each one's log-partition (_path_point). A row is a t on the path Q_t ~ P
exp(-t Remp), and for flatness also the a of the score s0 - (2 c (1 - h^2)/m)
L (n y) at the dual variable y of -G^2 = min_y (y^2 - 2 y G), from one base
score s0 = Remp + c mean_S(L^2) per sample; it returns the winning row's own tilt.
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


def _tilt_weights(w0, a, t):
    """The unnormalised weights w0 exp(-t a) of every tilt the package forms: w0
    = p's weights on its support, a = score - least >= 0 there [..., k] (so an
    atom of least score keeps its weight and the sum cannot underflow to 0), and
    t >= 0 one per row of a, +inf for the limit t -> inf: w0 where a = 0, else 0."""
    limit = np.isinf(t)
    w = -np.where(limit, 0.0, t)[..., None] * a  # one buffer: the exponent, then the weights
    if limit.any():
        np.copyto(w, -np.inf, where=limit[..., None] & (a > 0))
    return np.multiply(np.exp(w, out=w), w0, out=w)


def _tilt_posterior(p: ProbMeasure, support, a, t):
    """The weights [..., n_h]: those of _tilt_weights(p's weights on support, a,
    t), normalised on the support, scattered into a fresh array, 0 off it."""
    on_support = _tilt_weights(p.weights[support], a, t)
    on_support /= on_support.sum(axis=-1, keepdims=True)
    w = np.zeros(on_support.shape[:-1] + (p.size,))
    w[..., support] = on_support
    return w


def _tilt(p: ProbMeasure, score, t) -> ProbMeasure:
    """The tilt Q ~ p exp(-t * score) row by row, score [..., n_h] gathered on p's support
    less its least there, t >= 0 a number or one per row (+inf: p on the least-score atoms)."""
    support = p.weights > 0
    a = score[..., support]  # a copy, whatever the support
    a -= a.min(axis=-1, keepdims=True)
    return ProbMeasure._of(_tilt_posterior(p, support, a, t))


def gibbs_posterior(p: ProbMeasure, table: LossTable, s: Sample, beta: float) -> ProbMeasure:
    """Tempered posterior: weights proportional to p(f) exp(-beta * m * Remp(f)),
    one row per sample of s; where beta * m overflows (beta = inf included),
    the beta -> inf limit of _tilt."""
    _check_hypotheses(p, table)
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0:
        return p
    return _tilt(p, empirical_risks(table, s), float(beta) * s.m)


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


def _path_point(w0, a, least, t, loss):
    """(Q score, KL(Q || p), Q loss) at the tilt Q = _tilt(p, score, t), one per
    row, from its log-partition: with w = _tilt_weights(w0, a, t), Z = sum w,
    least one per row and loss columns on p's support [n, k], k >= 0: Q score
    = least + w.a / Z, KL = -log Z - t w.a / Z, clamped at 0 as kl_divergence
    is, and Q loss = w loss / Z [rows, k]. KL is a few ulp of max(1, KL, -log Z) off."""
    w = _tilt_weights(w0, a, t)
    z = w.sum(axis=-1)
    mean = np.vecdot(w, a) / z
    # t mean is 0 where mean is, at t = +inf too: there w is 0 wherever a > 0.
    t_mean = np.multiply(t, mean, out=np.zeros_like(mean), where=mean > 0)
    emp, kl = least + mean, np.maximum(-np.log(z) - t_mean, 0.0)
    q_loss = np.matmul(w, loss)
    return emp, kl, np.divide(q_loss, z[:, None], out=q_loss)


def _path_bound(family: str, params: BoundParams, w0, a, least, t, m: int, moments, counts):
    """(B, KL, G) at the tilt _tilt(p, score, t), one per row (_path_point's
    arguments, moments its loss columns). A family that reads only Remp and
    KL tilts the risks and reads no moments (G has no columns). flatness reads
    moments = L on p's support, beside L^2 off a binary table (where Q L^2 =
    G), at each row's counts: Remp and its flatness are sample means of G = Q L
    and Q L^2 - (1-h^2) G^2."""
    emp, kl, q_moments = _path_point(w0, a, least, t, moments)
    if not FAMILIES[family].needs_sample:
        return evaluate_bound(family, emp, kl, m, params).value, kl, q_moments
    s = Sample._of(counts, m)
    g, second = q_moments[:, :s.point_count], q_moments[:, -s.point_count:]
    flat = s.mean(second - (1.0 - params.h * params.h) * (g * g))
    return evaluate_bound(family, s.mean(g), kl, m, params, flat).value, kl, g


def _dual_score(params: BoundParams, loss, s0, y, counts, m: int):
    """The flatness score at the dual variable y on the data space, one row per
    row of y: score(y) = s0 - (2 a / m) L (n y), for counts n, a = c (1 - h^2)
    and the base score s0 = score(0) = Remp + c mean_S(L^2). With b = d_kl the
    bound is B(Q) = Q s0 - (a/m) sum_z n_z G_z^2 + b KL + k. As -G^2 = min_y
    (y^2 - 2 y G), min_Q B = min_y F(y), F(y) = k - b log E_p e^{-score(y)/b}
    + (a/m) sum_z n_z y_z^2, and at Q_y ~ p e^{-score(y)/b}, B(Q_y) = F(y) - (a/m)
    sum_z n_z (y_z - G_z(Q_y))^2: so y <- G(Q), Q <- Q_y never raises B."""
    # One [rows, n_h] buffer: a temporary per operation made glibc trim and
    # regrow its heap each step. For y in [0, 1] the factor of c lies in [-2, 0],
    # and c enters last, so no factor is inf.
    score = np.matvec(loss, y * counts * (-2.0 * (1.0 - params.h * params.h) / m))
    if params.c <= 2.0 ** 1022:
        np.multiply(score, params.c, out=score)
        return np.add(score, s0, out=score)
    # Above, c times that factor can pass the float range, though the score lies in
    # [-c, 1 + c]: both terms are halved and their sum doubled, which gives the same
    # bits as the sum in full wherever that is finite.
    np.multiply(score, params.c / 2.0, out=score)
    np.add(score, s0 / 2.0, out=score)
    return np.multiply(score, 2.0, out=score)


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


def minimize_bound(family: str, params: BoundParams, p: ProbMeasure, table: LossTable,
                   s: Sample) -> ProbMeasure:
    """Posterior of least bound found, one posterior row (weights [..., n_h])
    per sample of s, by a majorise-minimise loop (_descend) on rows (start,
    sample): each step tilts by the minimiser of the bound linearised at the
    current posterior. A sample starts from the tempered posterior of every
    beta in BETA_GRID; kst, whose max(KL, 2) has a kink, also from the one with
    KL = 2, or the beta -> inf limit if its KL <= 2. A sample keeps its least
    bound over its starts (the least beta on a tie): never above the grid, and
    independent of the rest of the block. The bound at the result is left to
    the caller.

    Every row is a tilt of the prior, held as its t, its KL and G = Q L, whose
    bound _path_bound reads off the log-partition. A family that depends on Q
    only through Remp(Q) and KL(Q || p) has its minimiser on the tilt path Q_t ~
    p exp(-t Remp); each step is t <- _temperature(KL), exact at once for catoni
    and matched_catoni, and G has no columns. A flatness row also holds the
    shifted score a it tilts, and each step tilts by _dual_score at y = G (the
    convex-concave procedure), from the row's base score s0, formed once. The
    result is the winning row's own tilt, _tilt_posterior at its (a, t), or p
    where that t is 0.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown bound family {family!r}")
    _check_hypotheses(p, table)
    risks = empirical_risks(table, s)
    support = p.weights > 0
    w0, r = p.weights[support], risks.reshape(-1, p.size)[:, support]
    starts = [np.full(len(r), beta * s.m) for beta in BETA_GRID]
    if family == "kst":
        starts.append(_kl_ball_tilt(p, -risks, 2.0)[1].reshape(-1))
    n_starts, t = len(starts), np.concatenate(starts)
    least = r.min(axis=-1)
    # Every start tilts the risks, and the tilt changes neither a nor least.
    a, least = np.tile(r - least[:, None], (n_starts, 1)), np.tile(least, n_starts)
    counts, loss = s.counts.reshape(len(r), -1), table.loss[support]
    moments, n_rows = loss[:, :0], np.zeros((len(t), 0))
    if dual := FAMILIES[family].needs_sample:
        moments = loss if table.binary_flag else np.hstack([loss, table.loss_squared[support]])
        sq = s.mean_rows(table.loss_squared[support]).reshape(r.shape)
        n_rows, s0 = np.tile(counts, (n_starts, 1)), np.tile(r + params.c * sq, (n_starts, 1))
    val, kl, g = _path_bound(family, params, w0, a, least, t, s.m, moments, n_rows)
    state = (t, kl, g, a) if dual else (t, kl, g)

    def step(rows):
        t_new = _temperature(family, params, kl[rows], s.m)
        # The convex-concave step: y <- G, then the tilt of score(y), which
        # for a family that reads only Remp and KL is the risks.
        n = n_rows[rows]
        if dual:
            a_new = _dual_score(params, loss, s0[rows], g[rows], n, s.m)
            least_new = a_new.min(axis=-1)
            np.subtract(a_new, least_new[:, None], out=a_new)
        else:
            a_new, least_new = a[rows], least[rows]
        new, kl_new, g_new = _path_bound(family, params, w0, a_new, least_new, t_new, s.m,
                                         moments, n)
        return new, (t_new, kl_new, g_new, a_new)[:len(state)]

    best = _descend(step, val, state, n_starts)
    pick = best * len(r) + np.arange(len(r))
    w = _tilt_posterior(p, support, a[pick], t[pick])
    w[t[pick] == 0] = p.weights
    return ProbMeasure._of(w.reshape(risks.shape))
