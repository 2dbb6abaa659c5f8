"""Numerical verification of the proof machinery behind the bounds:
KL-ball duality, the MGF lemmas, and shifted-symmetrization tail inequalities.

The exact evaluators (debias MGF, XY MGF) verify their lemmas with no Monte
Carlo noise; the tail estimators report frequencies with Wilson confidence
halfwidths rather than asserting inequalities from noisy point estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .bounds import _bisect_increasing
from .core import DataDistribution, LossTable, draw_sample, empirical_risks, true_risks
from .measures import ProbMeasure
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
    return TailEstimate(
        probability=hits / trials,
        trials=trials,
        wilson_halfwidth=wilson_halfwidth(hits, trials),
    )


def kl_ball_sup(p: ProbMeasure, values, kappa: float) -> float:
    """sup { E_Q[values] : KL(Q||P) <= kappa } over the simplex.

    Solved exactly through the exponentially tilted family Q_lam ~ p * e^{lam v}:
    KL(Q_lam||p) is increasing along the tilt path, so bisection on lam hits the
    ball boundary; beyond the KL of the max-restricted measure the sup is the
    restricted maximum itself.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    v = np.asarray(values, dtype=float)
    if v.shape != p.weights.shape:
        raise ValueError("values must have one entry per atom of p")
    support = p.weights > 0
    w = p.weights[support]
    v = v[support]
    base = float(w @ v)
    if kappa == 0 or np.ptp(v) == 0:
        return base
    vmax = v.max()
    at_max = v == vmax
    kl_limit = -math.log(w[at_max].sum())
    if kappa >= kl_limit:
        return float(vmax)

    def tilt(lam: float):
        logq = lam * (v - vmax) + np.log(w)
        logq -= np.logaddexp.reduce(logq)
        q = np.exp(logq)
        return q, float(q @ (logq - np.log(w)))

    if tilt(0.0)[1] >= kappa:  # kappa is within the rounding error of KL(p||p) = 0
        return base
    hi = 1.0
    while tilt(hi)[1] < kappa:
        hi *= 2.0
    lam = _bisect_increasing(lambda lam: tilt(lam)[1], kappa, 0.0, hi, tol=0.0)
    q, _ = tilt(lam)
    return float(q @ v)


def kl_dual_value(p: ProbMeasure, values, kappa: float, lambda_grid) -> float:
    """inf_lam { kappa/lam + (1/lam) log E_P e^{lam * values} } on a positive grid,
    refined by a golden-section pass on the bracketing cell."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if np.any(grid <= 0):
        raise ValueError("lambda grid must be positive")
    v = np.asarray(values, dtype=float)
    support = p.weights > 0
    logw = np.log(p.weights[support])
    vs = v[support]

    def objective(lam: float) -> float:
        return (kappa + np.logaddexp.reduce(lam * vs + logw)) / lam

    grid = np.sort(grid)
    vals = np.array([objective(l) for l in grid])
    j = int(np.argmin(vals))
    best = float(vals[j])
    lo = grid[j - 1] if j > 0 else grid[j] / 2.0
    hi = grid[j + 1] if j < grid.size - 1 else grid[j] * 2.0
    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    return min(best, float(res.fun))


def debias_mgf_exact(p: ProbMeasure, table: LossTable, dist: DataDistribution,
                     lambda_over_m: float, k: float, m: int) -> float:
    """Exact E_P[((1 - R(f)) + cosh(lam/m) e^{-k lam/m} R(f))^m].

    Requires binary loss so each f(z_i) is Bernoulli(R(f)); the debias lemma
    says this is <= 1 whenever k >= log cosh(lam/m)/(lam/m).
    """
    if not table.binary_flag:
        raise ValueError("debias MGF requires a binary loss table")
    if lambda_over_m <= 0:
        raise ValueError("lambda/m must be positive")
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
    if mu.size == 0 or np.any(mu < 0) or np.any(mu > 1):
        raise ValueError("mu must be a nonempty vector of Bernoulli means in [0, 1]")
    if not force:
        if not 0 < h <= 1:
            raise ValueError("h must lie in (0, 1]")
        if not 0 < c2 < h * h * c:
            raise ValueError("need 0 < c2 < h^2 c")
        cap = xy_cap(c, c2, h)
        if not 0 < lambda_over_m < cap:
            raise ValueError(f"lambda/m must lie in (0, {cap}); pass force=True to explore")
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
    # Per-coordinate factor after integrating X_i, for each (eps, Y) pair.
    fac = {key: 1.0 - mu + mu * np.exp(x * coef) for key, coef in a.items()}
    plus = np.maximum(fac[(+1, 0)], fac[(+1, 1)])
    minus = np.maximum(fac[(-1, 0)], fac[(-1, 1)])
    return float(np.prod(0.5 * (plus + minus)))


def lemma_a3_threshold(m: int, c2: float, h: float) -> float:
    """Deviation level t above which the shifted-flatness tail is at most 1/2."""
    return (1.0 + c2) * (1.0 + c2 * h * h) / (m * c2 * h * h)


def shifted_flatness_tail_mc(table: LossTable, f: int, dist: DataDistribution,
                             m: int, c2: float, h: float, t: float,
                             trials: int, seed: int) -> TailEstimate:
    """MC frequency of R(f) - (1+c2) Remp(f) + c2 (1-h^2) Remp(f^2) >= t/2."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= f < table.hypothesis_count:
        raise ValueError("hypothesis index out of range")
    row = table.loss[f]
    r = float(row @ dist.probs)
    # stat = r - (1+c2) Remp(f) + c2 (1-h^2) Remp(f^2) = r - (sample mean of `shifted`)
    shifted = (1.0 + c2) * row - c2 * (1.0 - h * h) * row * row
    hits = 0
    for i in range(trials):
        s = draw_sample(dist, m, seed, 0x5F, i)
        stat = r - float(s.mean(shifted))
        if stat >= t / 2.0:
            hits += 1
    return _tail_estimate(hits, trials)


def symmetrization_tail_mc(table: LossTable, dist: DataDistribution, prior: ProbMeasure,
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
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 < c2 < c:
        raise ValueError("need 0 < c2 < c")
    loss = table.loss
    r = true_risks(table, dist)
    lhs_hits = 0
    rhs_hits = 0
    if h is None:
        c_prime = (c - c2) / (1.0 + c2)
        shift = c_prime / (2.0 + c_prime)
        scale = 1.0 + c_prime / 2.0
        rhs_level = t / (2.0 * (1.0 + c2)) / 2.0
        for i in range(trials):
            s = draw_sample(dist, m, seed, 0, i)
            emp = empirical_risks(table, s)
            if kl_ball_sup(prior, r - (1.0 + c) * emp, kappa) >= t:
                lhs_hits += 1
            s2 = draw_sample(dist, m, seed, 1, i)
            # Per point z, the sum of counts[z] Rademacher signs: 2 Binomial(counts[z], 1/2) - counts[z].
            eps = stream(seed, 2, i).binomial(s2.counts, 0.5) * 2 - s2.counts
            proc = scale * (loss @ eps / m - shift * empirical_risks(table, s2))
            if kl_ball_sup(prior, proc, kappa) >= rhs_level:
                rhs_hits += 1
    else:
        if not 0 <= h <= 1:
            raise ValueError("h must lie in [0, 1]")
        c_prime = (c + c2) / 2.0
        c_dprime = (c - c2) / 2.0
        loss_sq = loss * loss
        shifted = (1.0 + c) * loss - c * (1.0 - h * h) * loss_sq
        multiplied = (1.0 + c_prime) * loss - c_prime * (1.0 - h * h) * loss_sq
        reduced = loss - (1.0 - h * h) * loss_sq
        for i in range(trials):
            s = draw_sample(dist, m, seed, 0, i)
            stat = r - s.mean_rows(shifted)
            if stat.max() >= t:
                lhs_hits += 1
            s2 = draw_sample(dist, m, seed, 1, i)
            eps = stream(seed, 2, i).binomial(s2.counts, 0.5) * 2 - s2.counts
            proc = multiplied @ eps / m - c_dprime * s2.mean_rows(reduced)
            if proc.max() >= t / 4.0:
                rhs_hits += 1
    return _tail_estimate(lhs_hits, trials), _tail_estimate(rhs_hits, trials)
