"""Numerical verification of the proof machinery behind the bounds:
KL-ball duality, the MGF lemmas, and shifted-symmetrization tail inequalities.

The exact evaluators (debias MGF, XY MGF) verify their lemmas with no Monte
Carlo noise; the tail estimators report frequencies with Wilson confidence
halfwidths rather than asserting inequalities from noisy point estimates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import LossTable, ProbMeasure, empirical_risks, sample_blocks, true_risks
from .rng import stream

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class TailEstimate:
    """Monte-Carlo tail frequency with a 95% Wilson halfwidth."""

    probability: float
    trials: int
    wilson_halfwidth: float


def wilson_halfwidth(successes: int, trials: int, z: float = _Z95) -> float:
    p = successes / trials
    denom = 1.0 + z * z / trials
    return z / denom * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def _tail_estimate(hits: int, trials: int) -> TailEstimate:
    return TailEstimate(hits / trials, trials, wilson_halfwidth(hits, trials))


# Relative tolerance of kl_ball_sup on the KL radius: an active row stops once
# |KL(Q_lam || p) - kappa| <= _KL_BALL_RTOL * kappa.
_KL_BALL_RTOL = 1e-12
# Both KL-ball solvers keep log lam (in _kl_ball's units) and _log_mgf's exponents below it.
_LOG_LAM_CAP = 700.0


def _kl_ball(p: ProbMeasure, values, kappa: float):
    """The checks and rows of values [..., n_h] on p's support that kl_ball_sup
    and kl_dual_value share: (shape, w, out, lam, left, base, vmax, k, d, cmax,
    switch). Closed rows: E_p v (lam = 0) at kappa = 0 or if constant, max v (lam
    = +inf) from the KL limit -log P(argmax v) on. The rest: E_p v, max v, 2^k
    above max v - min v, d = (v - max v) / 2^k from halves of v so that no finite
    range overflows (the scaling is exact), cmax = (max v - E_p v) / 2^k, switch.
    """
    if not kappa >= 0:
        raise ValueError("kappa must be nonnegative")
    # A subnormal kappa carries too few bits for the stop rules and objectives.
    if 0 < kappa < sys.float_info.min:
        raise ValueError(f"kappa must be 0 or at least {sys.float_info.min!r}, got {kappa!r}")
    v = np.asarray(values, dtype=float)
    if v.shape[-1:] != p.weights.shape or not np.isfinite(v).all():
        raise ValueError("values must be finite, one entry per atom of p along the last axis")
    support = p.weights > 0
    w = p.weights[support]
    rows = v[..., support].reshape(-1, w.size)
    base = (rows * w).sum(axis=-1)
    vmax = rows.max(axis=-1)
    half = rows / 2.0 - vmax[:, None] / 2.0  # (v - max v) / 2, <= 0
    half_width = -half.min(axis=-1)
    limit = -np.log(np.where(half == 0, w, 0.0).sum(axis=-1))
    still = (half_width == 0) | (kappa == 0)
    left = np.flatnonzero(~still & (kappa < limit))
    k = np.frexp(half_width[left])[1] + 1
    d = np.ldexp(half[left], (1 - k)[:, None])
    return (v.shape[:-1], w, np.where(~still & (kappa >= limit), vmax, base),
            np.where(still, 0.0, np.inf), left, base[left], vmax[left], k, d,
            -(d * w).sum(axis=-1), np.minimum(np.maximum(limit[left], 1.0), _LOG_LAM_CAP))


def _log_mgf(w, d, cmax, switch, lam):
    """log E_w e^{lam c}, c = d + cmax centred (E_w c taken as 0), lam > 0, with
    cmax, switch, lam one per row (or d one row and lam a vector). It keeps its
    relative accuracy: at the prior mean, log1p(E_w phi(lam c)), phi(x) = e^x - 1
    - x, each term O(lam^2), until the tilt has moved its mass to max c (lam max c
    >= switch = min(max(1, KL limit), _LOG_LAM_CAP)); then at max c, lam max c +
    log E_w e^{lam d}, by log1p while E_w expm1(lam d) > -1/2.
    Returns (at_mean, c or d, x = lam (c or d), expm1(x), log E_w e^x)."""
    at_mean = lam * cmax < switch
    y = d + (cmax * at_mean)[..., None]
    x = lam[..., None] * y
    em1 = np.expm1(x)
    g = em1 - x * at_mean[..., None]  # phi(x) at the prior mean, expm1(x) at the max
    a = (g * w).sum(axis=-1)
    # em1 - x loses up to 2 ulp / |x| of phi(x), more than 100 ulp of a only below
    # a = 1e-4; there phi is its Taylor series below |x| = 1e-2, to 1e-16 relative,
    # by Horner's rule, as six powers per entry would cost more than the rest of a call.
    if np.count_nonzero(redo := at_mean & (a < 1e-4)):
        small = (np.abs(x) < 1e-2) & redo[..., None]
        g[small] = np.polyval([1 / 5040, 1 / 720, 1 / 120, 1 / 24, 1 / 6, 1 / 2, 0, 0], x[small])
        a = (g * w).sum(axis=-1)
    log_m, low = np.log1p(np.maximum(a, -0.5)), a <= -0.5
    if np.count_nonzero(low):
        log_m = np.where(low, np.log((np.exp(x) * w).sum(axis=-1)), log_m)
    return at_mean, y, x, em1, log_m


def kl_ball_sup(p: ProbMeasure, values, kappa: float):
    """sup { E_Q[v] : KL(Q||p) <= kappa } over the simplex, for each row v of
    values [..., n_h]; one value per row, a number for a 1-D values.

    It is reached on the tilt Q_lam ~ p e^{lam v}, whose KL grows with
    derivative lam Var_{Q_lam}(v). _kl_ball gives the closed rows; the others
    take Newton steps on lam together from sqrt(2 kappa / Var_p(v)), with KL =
    lam E_Q[y] - log E_p e^{lam y}, y = v - _log_mgf's anchor (at the prior mean
    E_Q[y] = E_p[y expm1(lam y)] / M sums terms >= 0). A step that leaves the
    bracket, [sqrt(2 kappa), e^_LOG_LAM_CAP] at first, takes its geometric
    midpoint. A row stops once |KL - kappa| <= _KL_BALL_RTOL * kappa, or at
    float resolution (hi = nextafter(lo), or E_{Q_hi} v <= E_{Q_lo} v), at
    E_{Q_lam} v + (kappa - KL) / lam, the first-order step onto the boundary. A
    root beyond the cap and 200 steps raise RuntimeError. Tested within 1e-13 of
    an 80-digit bisection for kappa from 1e-60 to 1e-10.
    """
    return _kl_ball_tilt(p, values, kappa)[0]


def _kl_ball_tilt(p: ProbMeasure, values, kappa: float):
    """kl_ball_sup and each row's lam: 0 at the prior mean, +inf at the lam -> inf limit."""
    shape, w, out, lam_out, left, base, vmax, k, d, cmax, switch = _kl_ball(p, values, kappa)
    step = np.sqrt(2.0 * kappa / ((d + cmax[:, None]) ** 2 * w).sum(axis=-1))
    # The root is above sqrt(8 kappa), as KL(lam) <= lam^2 R^2 / 8 and the range R < 1 here.
    lo, hi = np.full_like(step, math.sqrt(2.0 * kappa)), np.full_like(step, math.exp(_LOG_LAM_CAP))
    e_lo, e_hi, lam, done = base, vmax, step, np.zeros_like(step, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            if done.all():
                break
            # Finished rows keep lam; a step out of the bracket takes its geometric midpoint,
            # in a form that neither overflows nor rounds onto an end.
            mid = lo + (hi - lo) / (1.0 + np.sqrt(hi) / np.sqrt(lo))
            lam = np.where(done, lam, np.where((lo < step) & (step < hi), step, mid))
            at_mean, y, x, em1, log_m = _log_mgf(w, d, cmax, switch, lam)
            tilt = w * np.exp(x)
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
        if left.size:
            out[left] = e + np.ldexp((kappa - kl) / lam, k)
            lam_out[left] = np.ldexp(lam, -k)
    return out.reshape(shape)[()], lam_out.reshape(shape)[()]


def kl_dual_value(p: ProbMeasure, values, kappa: float) -> float:
    """inf_{lam > 0} E_P v + (kappa + log E_P e^{lam (v - E_P v)}) / lam, the
    Legendre dual of kl_ball_sup, solved on its own.

    _kl_ball gives the closed cases and the row scaled by 2^k (the dual of 2^j v
    is 2^j times that of v), _log_mgf the log-MGF. The objective is unimodal in
    u = log lam and least where KL(Q_lam) = kappa, so, as the scaled range is
    below 1, at lam >= sqrt(8 kappa). Each round evaluates 65 points of the
    bracket, [log sqrt(2 kappa), _LOG_LAM_CAP] at first, in one _log_mgf call and
    keeps the two cells beside the least, until the bracket is 1e-10 wide; a least
    point at the cap raises RuntimeError. Tested within 1e-13 of an 80-digit
    bisection, kappa 1e-60 to 1e-10.
    """
    shape, w, out, _, left, base, vmax, k, d, cmax, switch = _kl_ball(p, values, kappa)
    if shape:
        raise ValueError("values must be one row, one entry per atom of p")
    if not left.size:
        return float(out[0])
    top, mean = np.ldexp(vmax[0], -k[0]), np.ldexp(base[0], -k[0])
    lo, hi = 0.5 * math.log(2.0 * kappa), _LOG_LAM_CAP
    while True:
        u = np.linspace(lo, hi, 65)
        at_mean, *_, log_m = _log_mgf(w, d[0], cmax[0], switch[0], lam := np.exp(u))
        f = np.where(at_mean, mean, top) + (kappa + log_m) / lam
        i = int(np.argmin(f))
        if hi - lo <= 1e-10:
            break
        lo, hi = u[max(i - 1, 0)], u[min(i + 1, 64)]
    if u[i] == _LOG_LAM_CAP:
        raise RuntimeError(f"kl_dual_value: no minimum with |log lambda| <= {_LOG_LAM_CAP:g}")
    return math.ldexp(float(f[i]), int(k[0]))


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
    if m < 1:
        raise ValueError("m must be >= 1")
    if p.size != table.hypothesis_count:
        raise ValueError("measure and loss table disagree on hypothesis count")
    x = lambda_over_m
    r = true_risks(table, dist)
    factor = (1.0 - r) + math.cosh(x) * math.exp(-k * x) * r
    return float(p.weights @ factor ** m)


def xy_cap(c: float, c2: float, h: float) -> float:
    """Admissible lambda/m cap (h^2 c - c2) / (2 (1 + h^2 c)(1 + c2))."""
    return (h * h * c - c2) / (2.0 * (1.0 + h * h * c) * (1.0 + c2))


def xy_default_c2(c: float, h: float) -> float:
    """The sufficient c2 = h^2 c / (1 + 16 h^2 c) of the fast-rate flatness theorem."""
    return h * h * c / (1.0 + 16.0 * h * h * c)


def xy_hypothesis_failure(lambda_over_m: float, c: float, c2: float, h: float) -> str | None:
    """The first hypothesis of the xy lemma that fails, as an error message, or
    None if all hold: 0 < h <= 1, 0 < c2 < h^2 c and 0 < lambda/m < xy_cap."""
    if not 0 < h <= 1:
        return "h must lie in (0, 1]"
    if not 0 < c2 < h * h * c:
        return "need 0 < c2 < h^2 c"
    cap = xy_cap(c, c2, h)
    if not 0 < lambda_over_m < cap:
        return f"lambda/m must lie in (0, {cap}); pass force=True to explore"
    return None


def xy_mgf_bruteforce(mu, lambda_over_m: float, c: float, c2: float, h: float,
                      force: bool = False) -> float:
    """Adversarial-Y maximum of E_{eps,X} exp((lam/m) sum_i X_i [(eps_i + eps''_i)
    - eps''_i (1-h^2) Y_i]), X_i ~ Bernoulli(mu_i), eps''_i = eps_i (c+c2)/2 - (c-c2)/2.

    The exponent is affine in each Y_i at fixed (eps, X), so the worst Y is a
    vertex of [0,1]^m chosen per sign vector, and X is integrated in closed
    form. Given the signs, coordinate i's factor depends only on eps_i, and the
    signs are independent, so the mean over the 2^m sign vectors is exactly the
    product over i of 1/2 [max_Y factor_i(+1, Y) + max_Y factor_i(-1, Y)].
    """
    mu = np.asarray(mu, dtype=float)
    if mu.size == 0 or not ((0 <= mu) & (mu <= 1)).all():
        raise ValueError("mu must be a nonempty vector of Bernoulli means in [0, 1]")
    if not all(map(math.isfinite, (lambda_over_m, c, c2, h))):
        raise ValueError("lambda/m, c, c2 and h must be finite")
    if not force and (failure := xy_hypothesis_failure(lambda_over_m, c, c2, h)):
        raise ValueError(failure)
    x = lambda_over_m
    # Exponent coefficient of X_i at (eps_i, Y_i):
    #   eps = +1: (1 + c2) - c2 (1 - h^2) Y
    #   eps = -1: -(1 + c) + c (1 - h^2) Y
    a = {
        (+1, 0): 1.0 + c2,
        (+1, 1): 1.0 + c2 - c2 * (1.0 - h * h),
        (-1, 0): -(1.0 + c),
        (-1, 1): -(1.0 + c) + c * (1.0 - h * h),
    }
    # Per-coordinate factor after integrating X_i, for each (eps, Y) pair. A
    # coordinate with mu_i = 0 has factor 1 and is left out, so that a forced
    # lambda/m large enough to overflow makes the MGF +inf, never 0 * inf.
    mu = mu[mu > 0]
    with np.errstate(over="ignore"):
        fac = {key: 1.0 - mu + mu * np.exp(x * coef) for key, coef in a.items()}
    plus = np.maximum(fac[(+1, 0)], fac[(+1, 1)])
    minus = np.maximum(fac[(-1, 0)], fac[(-1, 1)])
    return float(np.prod(0.5 * (plus + minus)))


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    _check_shifted_flatness(m, c2, h)
    if not 0 <= f < table.hypothesis_count:
        raise ValueError("hypothesis index out of range")
    row = table.loss[f]
    r = float(row @ dist.weights)
    # stat = r - (1+c2) Remp(f) + c2 (1-h^2) Remp(f^2) = r - (sample mean of `shifted`)
    shifted = (1.0 + c2) * row - c2 * (1.0 - h * h) * row * row
    hits = 0
    for _, s in sample_blocks(dist, m, trials, seed, 0x5F):
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
    signs from stream(seed, 2, b). Each side of a block is one call: the
    quadratic variant's maxima, or the linear variant's kl_ball_sup rows.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
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

        def lhs_hits(s):
            dev = r - (1.0 + c) * empirical_risks(table, s)
            return np.count_nonzero(kl_ball_sup(prior, dev, kappa) >= t)

        def rhs_hits(s2, eps):
            proc = scale * (np.matvec(loss, eps) / m - shift * empirical_risks(table, s2))
            return np.count_nonzero(kl_ball_sup(prior, proc, kappa) >= rhs_level)
    else:
        if not 0 <= h <= 1:
            raise ValueError("h must lie in [0, 1]")
        # Both processes and their levels are divided by 2^k >= 1 + c, so that
        # each process lies in [-2, 2] and no huge finite c overflows; the
        # scaling is exact.
        k = math.frexp(1.0 + c)[1]
        c_prime = c / 2.0 + c2 / 2.0
        c_dprime = math.ldexp((c - c2) / 2.0, -k)
        loss_sq = loss * loss
        shifted = (math.ldexp(1.0 + c, -k) * loss
                   - math.ldexp(c, -k) * (1.0 - h * h) * loss_sq)
        multiplied = (math.ldexp(1.0 + c_prime, -k) * loss
                      - math.ldexp(c_prime, -k) * (1.0 - h * h) * loss_sq)
        reduced = loss - (1.0 - h * h) * loss_sq

        def lhs_hits(s):
            return np.count_nonzero((np.ldexp(r, -k) - s.mean_rows(shifted)).max(axis=-1)
                                    >= math.ldexp(t, -k))

        def rhs_hits(s2, eps):
            proc = np.matvec(multiplied, eps) / m - c_dprime * s2.mean_rows(reduced)
            return np.count_nonzero(proc.max(axis=-1) >= math.ldexp(t / 4.0, -k))
    lhs = rhs = 0
    blocks = zip(sample_blocks(dist, m, trials, seed, 0), sample_blocks(dist, m, trials, seed, 1))
    for b, ((_, s), (_, s2)) in enumerate(blocks):
        # Per point z, the sum of counts[z] Rademacher signs: 2 Binomial(counts[z], 1/2) - counts[z].
        eps = stream(seed, 2, b).binomial(s2.counts, 0.5) * 2 - s2.counts
        lhs += int(lhs_hits(s))
        rhs += int(rhs_hits(s2, eps))
    return _tail_estimate(lhs, trials), _tail_estimate(rhs, trials)
