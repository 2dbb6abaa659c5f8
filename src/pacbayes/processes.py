"""Numerical verification of the proof machinery behind the bounds: the
KL-ball sup with its weak-duality bracket, the MGF lemmas, and
shifted-symmetrization tail inequalities.

The exact evaluators (debias MGF, XY MGF) verify their lemmas with no Monte
Carlo noise; the tail estimators report frequencies with Wilson confidence
halfwidths rather than asserting inequalities from noisy point estimates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (LossTable, ProbMeasure, _sample_size, empirical_risks, sample_blocks,
                   true_risks)
from .measures import _check_hypotheses
from .rng import stream

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class TailEstimate:
    """Monte-Carlo tail frequency with a 95% Wilson halfwidth."""

    probability: float
    wilson_halfwidth: float


def wilson_halfwidth(successes: int, trials: int) -> float:
    """The halfwidth of the 95% Wilson score interval."""
    p, z = successes / trials, _Z95
    denom = 1.0 + z * z / trials
    return z / denom * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def _tail_estimate(hits: int, trials: int) -> TailEstimate:
    return TailEstimate(hits / trials, wilson_halfwidth(hits, trials))


# Relative tolerance of kl_ball_sup on the KL radius: an active row stops once
# |KL(Q_lam || p) - kappa| <= _KL_BALL_RTOL * kappa.
_KL_BALL_RTOL = 1e-12
# The KL-ball solve keeps log lam (in its scaled units) and _log_mgf's exponents below it.
_LOG_LAM_CAP = 700.0


def _log_mgf(w, d, cmax, switch, lam):
    """log E_w e^{lam c}, c = d + cmax centred (E_w c taken as 0), lam > 0, with
    d a row and cmax, switch, lam a number per row. It keeps its relative
    accuracy: at the prior mean, log1p(E_w phi(lam c)), phi(x) = e^x - 1 - x,
    each term O(lam^2), until the tilt has moved its mass to max c (lam max c >=
    switch = min(max(1, KL limit), _LOG_LAM_CAP)); then at max c, lam max c +
    log E_w e^{lam d}, by log1p while E_w expm1(lam d) > -1/2, else by the log of
    the sum of w e^x. Returns (at_mean, c or d, x = lam (c or d), expm1(x),
    log E_w e^x, w e^x); the caller's tilt reads the last, as the low rows' log does."""
    at_mean = lam * cmax < switch
    y = d + (cmax * at_mean)[:, None]
    x = lam[:, None] * y
    em1 = np.expm1(x)
    g = em1 - x * at_mean[:, None]  # phi(x) at the prior mean, expm1(x) at the max
    a = (g * w).sum(axis=-1)
    # em1 - x loses up to 2 ulp / |x| of phi(x), more than 100 ulp of a only below
    # a = 1e-4; there phi is its Taylor series below |x| = 1e-2, to 1e-16 relative,
    # by Horner's rule, as six powers per entry would cost more than the rest of a call.
    if np.count_nonzero(redo := at_mean & (a < 1e-4)):
        small = (np.abs(x) < 1e-2) & redo[:, None]
        g[small] = np.polyval([1 / 5040, 1 / 720, 1 / 120, 1 / 24, 1 / 6, 1 / 2, 0, 0], x[small])
        a = (g * w).sum(axis=-1)
    log_m, low, tilt = np.log1p(np.maximum(a, -0.5)), a <= -0.5, w * np.exp(x)
    if np.count_nonzero(low):
        log_m = np.where(low, np.log(tilt.sum(axis=-1)), log_m)
    return at_mean, y, x, em1, log_m, tilt


def kl_ball_sup(p: ProbMeasure, values, kappa: float):
    """sup { E_Q[v] : KL(Q||p) <= kappa } over the simplex, for each row v of
    values [..., n_h]; one value per row, a number for a 1-D values.

    It is reached on the tilt Q_lam ~ p e^{lam v}, whose KL grows with
    derivative lam Var_{Q_lam}(v). Closed rows: E_p v at kappa = 0 or on a row
    constant on p's support, max v from the KL limit -log P(argmax v) on. The
    others take Newton steps on lam together from sqrt(2 kappa / Var_p(v)),
    with KL = lam E_Q[y] - log E_p e^{lam y}, y = v - _log_mgf's anchor (at the
    prior mean E_Q[y] = E_p[y expm1(lam y)] / M sums terms >= 0). A step that
    leaves the bracket, [sqrt(2 kappa), e^_LOG_LAM_CAP] at first, takes its
    geometric midpoint. A row stops once |KL - kappa| <= _KL_BALL_RTOL * kappa,
    or at float resolution (hi = nextafter(lo), or E_{Q_hi} v <= E_{Q_lo} v), at
    E_{Q_lam} v + (kappa - KL) / lam, the first-order step onto the boundary. A
    root beyond the cap and 200 steps raise RuntimeError. Tested within 1e-13 of
    an 80-digit bisection for kappa from 1e-60 to 1e-10; kl_dual_value brackets it.
    It is the first of the four values of _kl_ball_tilt's one solve.
    """
    return _kl_ball_tilt(p, values, kappa)[0]


def _kl_ball_tilt(p: ProbMeasure, values, kappa: float):
    """The one KL-ball solve: (sup, lam, lower, upper), one of each per row, on
    every call. sup is kl_ball_sup, lam the row's tilt (0 at the prior mean,
    +inf at the lam -> inf limit), and (lower, upper) kl_dual_value's bracket.
    Closed rows give sup = lower = upper; open rows take all four from the last
    Newton iterate.

    The open rows are solved on p's support, scaled by 2^k above max v - min v
    (the scaling is exact): d = (v - max v) / 2^k, formed from halves of v so
    that no finite range overflows, and cmax = (max v - E_p v) / 2^k. The rows
    do not interact: every branch is taken per element and a finished row keeps
    its lam, so a row's result is the same bits in any block.
    """
    if not kappa >= 0:
        raise ValueError("kappa must be nonnegative")
    # A subnormal kappa carries too few bits for the stop rule and the KL.
    if 0 < kappa < sys.float_info.min:
        raise ValueError(f"kappa must be 0 or at least {sys.float_info.min!r}, got {kappa!r}")
    v = np.asarray(values, dtype=float)
    if v.shape[-1:] != p.weights.shape or not np.isfinite(v).all():
        raise ValueError("values must be finite, one entry per atom of p along the last axis")
    support = p.weights > 0
    w = p.weights[support]
    shape, rows = v.shape[:-1], v[..., support].reshape(-1, w.size)
    base = (rows * w).sum(axis=-1)
    vmax = rows.max(axis=-1)
    half = rows / 2.0 - vmax[:, None] / 2.0  # (v - max v) / 2, <= 0
    half_width = -half.min(axis=-1)
    limit = -np.log(np.where(half == 0, w, 0.0).sum(axis=-1))
    still = (half_width == 0) | (kappa == 0)
    left = np.flatnonzero(~still & (kappa < limit))
    out, lam_out = np.where(~still & (kappa >= limit), vmax, base), np.where(still, 0.0, np.inf)
    base, vmax = base[left], vmax[left]
    k = np.frexp(half_width[left])[1] + 1
    d = np.ldexp(half[left], (1 - k)[:, None])
    cmax = -(d * w).sum(axis=-1)
    switch = np.minimum(np.maximum(limit[left], 1.0), _LOG_LAM_CAP)
    # The prior variance underflows where only a subnormal prior weight lies off
    # the prior mean: the first step is then +inf, out of the bracket below.
    with np.errstate(divide="ignore", over="ignore"):
        step = np.sqrt(2.0 * kappa / ((d + cmax[:, None]) ** 2 * w).sum(axis=-1))
    # The root is above sqrt(8 kappa), as KL(lam) <= lam^2 R^2 / 8 and the range R < 1 here.
    lo, hi = np.full_like(step, math.sqrt(2.0 * kappa)), np.full_like(step, math.exp(_LOG_LAM_CAP))
    e_lo, e_hi, lam, done = base, vmax, step, np.zeros_like(step, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            if done.all():
                break
            # Finished rows keep lam; a step out of the bracket takes its geometric midpoint,
            # in a form that neither overflows nor rounds onto an end, formed only when
            # some open row needs it.
            outside = ~done & ~((lo < step) & (step < hi))
            lam = np.where(done, lam, step)
            if outside.any():
                lam = np.where(outside, lo + (hi - lo) / (1.0 + np.sqrt(hi) / np.sqrt(lo)), lam)
            at_mean, y, x, em1, log_m, tilt = _log_mgf(w, d, cmax, switch, lam)
            mgf = tilt.sum(axis=-1)
            # E_Q y; at the prior mean E_p y = 0 is left out of the sum.
            mean_y = (np.where(at_mean[:, None], w * em1, tilt) * y).sum(axis=-1) / mgf
            kl = lam * mean_y - log_m
            var = (tilt * (y - mean_y[:, None]) ** 2).sum(axis=-1) / mgf
            e = np.where(at_mean, base, vmax) + np.ldexp(mean_y, k)
            below = kl < kappa
            lo, e_lo = np.where(below, lam, lo), np.where(below, e, e_lo)
            hi, e_hi = np.where(below, hi, lam), np.where(below, e_hi, e)
            done |= ((np.abs(kl - kappa) <= _KL_BALL_RTOL * kappa)
                     | (np.nextafter(lo, np.inf) >= hi) | (e_hi <= e_lo))
            step = lam - (kl - kappa) / (lam * var)  # Newton's
        if not done.all():
            raise RuntimeError(f"kl_ball_sup: {np.count_nonzero(~done)} rows still open after 200 steps")
        if (np.nextafter(lo, np.inf) >= math.exp(_LOG_LAM_CAP)).any():
            raise RuntimeError(f"kl_ball_sup: a root lies beyond log lambda = {_LOG_LAM_CAP:g}")
        lower, upper = out.copy(), out.copy()
        if left.size:
            out[left] = e + np.ldexp((kappa - kl) / lam, k)
            lam_out[left] = np.ldexp(lam, -k)
            # E_Q v - E_p v, with no cancellation at either anchor.
            rise = np.ldexp(mean_y + np.where(at_mean, 0.0, cmax), k)
            lower[left] = base + np.where(kl > kappa, kappa / kl, 1.0) * rise
            upper[left] = np.where(at_mean, base, vmax) + np.ldexp((kappa + log_m) / lam, k)
    return tuple(a.reshape(shape)[()] for a in (out, lam_out, lower, upper))


def kl_dual_value(p: ProbMeasure, values, kappa: float):
    """(lower, upper) around kl_ball_sup for each row of values [..., n_h], by
    weak duality at the lam of its one Newton solve (the last two of
    _kl_ball_tilt's four values):
    - upper = D(lam) = E_p v + (kappa + log E_p e^{lam (v - E_p v)}) / lam, the
      Legendre dual objective, at least the sup for every lam > 0, from
      _log_mgf's terms;
    - lower = E_p v + theta (E_{Q_lam} v - E_p v), theta = min(1, kappa /
      KL(Q_lam || p)): the value of the mixture theta Q_lam + (1 - theta) p,
      which lies in the KL ball as KL is convex.
    So, up to rounding, lower <= sup <= upper, and upper - lower is small only
    where the solve found the root. Closed rows give lower = upper =
    kl_ball_sup. (kl_ball_sup's own E_Q v + (kappa - KL) / lam is D(lam) in
    another form, so that the pair is not (kl_ball_sup, D).) Tested against a
    60-digit sup on 300 random rows.
    """
    return _kl_ball_tilt(p, values, kappa)[2:]


def debias_mgf_exact(p: ProbMeasure, table: LossTable, dist: ProbMeasure,
                     lambda_over_m: float, k: float, m: int) -> float:
    """Exact E_P[((1 - R(f)) + cosh(lam/m) e^{-k lam/m} R(f))^m].

    Requires binary loss so each f(z_i) is Bernoulli(R(f)); the debias lemma
    says this is <= 1 whenever k >= log cosh(lam/m)/(lam/m).
    """
    if not table.binary_flag:
        raise ValueError("debias MGF requires a binary loss table")
    if not 0 < lambda_over_m < math.inf:
        raise ValueError("lambda/m must be positive and finite")
    if not math.isfinite(k):
        raise ValueError("k must be finite")
    m = _sample_size(m)
    _check_hypotheses(p, table)
    x = lambda_over_m
    r = true_risks(table, dist)
    factor = (1.0 - r) + math.cosh(x) * math.exp(-k * x) * r
    return float(p.weights @ factor ** m)


def xy_cap(c: float, c2: float, h: float) -> float:
    """Admissible lambda/m cap (h^2 c - c2) / (2 (1 + h^2 c)(1 + c2))."""
    return (h * h * c - c2) / (2.0 * (1.0 + h * h * c) * (1.0 + c2))


def xy_mgf_bruteforce(mu, lambda_over_m: float, c: float, c2: float, h: float) -> float:
    """Adversarial-Y maximum of E_{eps,X} exp((lam/m) sum_i X_i [(eps_i + eps''_i)
    - eps''_i (1-h^2) Y_i]), X_i ~ Bernoulli(mu_i), eps''_i = eps_i (c+c2)/2 - (c-c2)/2.

    The exponent is affine in each Y_i at fixed (eps, X), so the worst Y is a
    vertex of [0,1]^m chosen per sign vector, and X is integrated in closed
    form. Given the signs, coordinate i's factor depends only on eps_i, and the
    signs are independent, so the mean over the 2^m sign vectors is exactly the
    product over i of 1/2 [max_Y factor_i(+1, Y) + max_Y factor_i(-1, Y)].

    It is computed at any finite lambda/m, c, c2 and h; the lemma bounds it by 1
    only where 0 < h <= 1, 0 < c2 < h^2 c and 0 < lambda/m < xy_cap.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.size == 0 or not ((0 <= mu) & (mu <= 1)).all():
        raise ValueError("mu must be a nonempty vector of Bernoulli means in [0, 1]")
    if not all(map(math.isfinite, (lambda_over_m, c, c2, h))):
        raise ValueError("lambda/m, c, c2 and h must be finite")
    # Exponent coefficient of X_i at (eps_i, Y_i), eps = +1, -1 by row, Y = 0, 1 by column:
    #   eps = +1: (1 + c2) - c2 (1 - h^2) Y
    #   eps = -1: -(1 + c) + c (1 - h^2) Y
    coef = np.array([[1.0 + c2, 1.0 + c2 - c2 * (1.0 - h * h)],
                     [-(1.0 + c), -(1.0 + c) + c * (1.0 - h * h)]])
    # Per-coordinate factor after integrating X_i, for each (eps, Y) pair. A
    # coordinate with mu_i = 0 has factor 1 and is left out, so that a lambda/m
    # large enough to overflow makes the MGF +inf, never 0 * inf; a product that
    # overflows is +inf too.
    mu = mu[mu > 0]
    with np.errstate(over="ignore"):
        fac = 1.0 - mu + mu * np.exp(lambda_over_m * coef[..., None])
        return float(np.prod(0.5 * fac.max(axis=1).sum(axis=0)))


def _check_shifted_flatness(m: int, c2: float, h: float) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 < c2 < math.inf:
        raise ValueError("c2 must be positive and finite")
    if not 0 < h <= 1:
        raise ValueError("h must lie in (0, 1]")


def lemma_a3_threshold(m: int, c2: float, h: float) -> float:
    """Deviation level t above which the shifted-flatness tail is at most 1/2."""
    _check_shifted_flatness(m, c2, h)
    return (1.0 + c2) * (1.0 + c2 * h * h) / (m * c2 * h * h)


def shifted_flatness_tail_mc(table: LossTable, f: int, dist: ProbMeasure,
                             m: int, c2: float, h: float, t: float,
                             trials: int, seed: int) -> TailEstimate:
    """MC frequency of R(f) - (1+c2) Remp(f) + c2 (1-h^2) Remp(f^2) >= t/2.

    The trials' samples come from sample_blocks(dist, m, trials, seed, 0x5F),
    and each block's statistics are one vectorised sample mean.
    """
    blocks = sample_blocks(dist, m, trials, seed, 0x5F)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    _check_shifted_flatness(m, c2, h)
    n = table.hypothesis_count
    if not 0 <= f < n:
        raise ValueError(f"hypothesis index {f} is out of range for a table of {n} "
                         f"hypotheses (0 to {n - 1})")
    row = table.loss[f]
    r = float(row @ dist.weights)
    # stat = r - (1+c2) Remp(f) + c2 (1-h^2) Remp(f^2) = r - (sample mean of `shifted`)
    shifted = (1.0 + c2) * row - c2 * (1.0 - h * h) * row * row
    hits = 0
    for _, s in blocks:
        hits += int(np.count_nonzero(r - s.mean(shifted) >= t / 2.0))
    return _tail_estimate(hits, trials)


def symmetrization_tail_mc(table: LossTable, dist: ProbMeasure, prior: ProbMeasure,
                           kappa: float, c: float, c2: float, t: float, m: int,
                           trials: int, seed: int,
                           h: float | None = None) -> tuple[TailEstimate, TailEstimate]:
    """Estimate both sides of a shifted-symmetrization-in-deviation inequality.

    h is None: the linear variant. LHS is the tail of the sup over the KL ball
    of the deviation R - (1+c) Remp; RHS is the tail of the sup of the shifted
    Rademacher process (1 + c'/2)/m * sum (eps_i - c'/(2+c')) f(z_i) at level
    t'/2 with c' = (c-c2)/(1+c2), t' = t/(2(1+c2)). The inequality asserts
    LHS <= 4 RHS.

    h given: the quadratic variant over the finite class. LHS is the tail of
    max_f [R - (1+c) Remp(f) + c (1-h^2) Remp(f^2)] at level t; RHS is the tail
    of the shifted-and-scaled process with c' = (c+c2)/2, c'' = (c-c2)/2 at
    level t/4. Again LHS <= 4 RHS.

    Trials run in blocks: the LHS samples come from sample_blocks(..., seed, 0),
    the RHS samples from sample_blocks(..., seed, 1), and block b's Rademacher
    signs from stream(seed, 2, b). A block is one call per side for the
    quadratic variant's maxima, and one kl_ball_sup call for both sides of the
    linear variant: its LHS deviation rows stacked on its RHS process rows, as
    kl_ball_sup solves each row on its own, to the same bits as alone.
    """
    blocks = zip(sample_blocks(dist, m, trials, seed, 0), sample_blocks(dist, m, trials, seed, 1))
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if not 0 < c2 < c < math.inf:
        raise ValueError("need 0 < c2 < c, with c finite")
    loss = table.loss
    r = true_risks(table, dist)
    if h is None:
        c_prime = (c - c2) / (1.0 + c2)
        shift = c_prime / (2.0 + c_prime)
        scale = 1.0 + c_prime / 2.0
        rhs_level = t / (2.0 * (1.0 + c2)) / 2.0

        def hits(s, s2, eps):
            dev = r - (1.0 + c) * empirical_risks(table, s)
            proc = scale * (np.matvec(loss, eps) / m - shift * empirical_risks(table, s2))
            sup = kl_ball_sup(prior, np.concatenate([dev, proc]), kappa)
            n = len(dev)
            return np.count_nonzero(sup[:n] >= t), np.count_nonzero(sup[n:] >= rhs_level)
    else:
        if not 0 <= h <= 1:
            raise ValueError("h must lie in [0, 1]")
        # Both processes and their levels are divided by 2^k >= 1 + c, so that
        # each process lies in [-2, 2] and no huge finite c overflows; the
        # scaling is exact.
        k = math.frexp(1.0 + c)[1]
        c_prime = c / 2.0 + c2 / 2.0
        c_dprime = math.ldexp((c - c2) / 2.0, -k)
        loss_sq = table.loss_squared
        shifted = (math.ldexp(1.0 + c, -k) * loss
                   - math.ldexp(c, -k) * (1.0 - h * h) * loss_sq)
        multiplied = (math.ldexp(1.0 + c_prime, -k) * loss
                      - math.ldexp(c_prime, -k) * (1.0 - h * h) * loss_sq)
        reduced = loss - (1.0 - h * h) * loss_sq

        def hits(s, s2, eps):
            dev = np.ldexp(r, -k) - s.mean_rows(shifted)
            proc = np.matvec(multiplied, eps) / m - c_dprime * s2.mean_rows(reduced)
            return (np.count_nonzero(dev.max(axis=-1) >= math.ldexp(t, -k)),
                    np.count_nonzero(proc.max(axis=-1) >= math.ldexp(t / 4.0, -k)))
    lhs = rhs = 0
    for b, ((_, s), (_, s2)) in enumerate(blocks):
        # Per point z, the sum of counts[z] Rademacher signs: 2 Binomial(counts[z], 1/2) - counts[z].
        eps = stream(seed, 2, b).binomial(s2.counts, 0.5) * 2 - s2.counts
        lhs_b, rhs_b = hits(s, s2, eps)
        lhs += int(lhs_b)
        rhs += int(rhs_b)
    return _tail_estimate(lhs, trials), _tail_estimate(rhs, trials)
