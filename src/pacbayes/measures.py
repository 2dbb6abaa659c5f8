"""Functionals of core.ProbMeasure posteriors: KL divergence, Gibbs risks,
and the flatness functional of the empirical risk surface."""

from __future__ import annotations

import numpy as np

from .core import LossTable, ProbMeasure, Sample


def _check_hypotheses(q: ProbMeasure, table: LossTable) -> None:
    if q.size != table.hypothesis_count:
        raise ValueError("measure and loss table disagree on hypothesis count")


def kl_divergence(q: ProbMeasure, p: ProbMeasure):
    """KL(q || p), with 0 log(0/.) = 0, one value per row. It is +inf where q puts
    mass where p has none, so downstream bounds degrade to the vacuous
    certificate instead of erroring. A KL rounded below 0 is clamped to 0."""
    if q.size != p.size:
        raise ValueError("measures must have the same length")
    qw, pw = q.weights, p.weights
    # q / p where both carry mass; +inf where only q does, so its row sums to
    # +inf; 1 (a zero term) where q has none, in place of 0 or 0/0.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = qw / pw
        np.copyto(ratio, 1.0, where=qw == 0)
        kl = np.multiply(qw, np.log(ratio, out=ratio), out=ratio).sum(axis=-1)
        # The ratio also overflows where a prior weight is subnormal; a row that
        # sums to +inf takes q (log q - log p), +inf only where p has no mass.
        if (over := np.isinf(kl)).any():
            terms = np.where(qw > 0, qw * (np.log(qw) - np.log(pw)), 0.0)
            kl = np.where(over, terms.sum(axis=-1), kl)
    return np.maximum(kl, 0.0)


def gibbs_losses(q: ProbMeasure, table: LossTable, s: Sample) -> np.ndarray:
    """G_Q(z) over the data space, [..., n_z] with one row per posterior row;
    s.mean of it is the empirical Gibbs risk."""
    _check_hypotheses(q, table)
    if s.point_count != table.point_count:
        raise ValueError("sample and loss table disagree on point count")
    return np.vecmat(q.weights, table.loss)


def gibbs_risk(q: ProbMeasure, table: LossTable, dist: ProbMeasure):
    """Exact Gibbs risk E_{f~Q} R(f), one value per row of q."""
    _check_hypotheses(q, table)
    if dist.weights.shape != (table.point_count,):
        raise ValueError("the data distribution must be one vector over the table's points")
    return np.vecdot(np.vecmat(q.weights, table.loss), dist.weights)


def flatness(q: ProbMeasure, table: LossTable, s: Sample, h: float, g=None):
    """h-flatness (1/m) sum_i E_Q[f(z_i) - (1+h) G_Q(z_i)]^2, one value per sample.

    Small when the posterior concentrates on hypotheses that agree on the
    sample (a flat region of the empirical risk surface). Valid for any
    [0,1]-valued loss; the alternate form below is exact only for binary loss.
    Computed by the exact expansion (since sum_f Q_f = 1)
    sum_f Q_f (L_fz - (1+h) G_z)^2 = (Q @ L^2)_z - (1-h^2) G_z^2,
    which needs O(n_h + n_z) memory per sample rather than O(n_h * n_z). On a
    binary table L^2 = L entrywise, so Q @ L^2 is G_Q itself, bit for bit, and
    is not recomputed. g: G_Q, if known.
    """
    if not 0 < h <= 1:
        raise ValueError(f"h must lie in (0, 1], got {h!r}")
    g = gibbs_losses(q, table, s) if g is None else g
    second = g if table.binary_flag else np.vecmat(q.weights, table.loss_squared)
    return s.mean(second - (1.0 - h * h) * (g * g))


def flatness_alternate(q: ProbMeasure, table: LossTable, s: Sample, h: float):
    """Empirical Gibbs risk minus (1-h^2)/m * sum_i G_Q(z_i)^2.

    Equals the definitional flatness exactly under binary loss; for general
    [0,1] loss it is an upper bound. Accepts h = 0 (unlike the definitional
    path this side stays meaningful at the boundary).
    """
    if not 0 <= h <= 1:
        raise ValueError(f"h must lie in [0, 1], got {h!r}")
    g = gibbs_losses(q, table, s)
    return s.mean(g) - (1.0 - h * h) * s.mean(g * g)
