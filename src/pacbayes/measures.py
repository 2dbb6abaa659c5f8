"""Probability measures over the loss class, KL divergence, Gibbs risks,
and the flatness functional of the empirical risk surface."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DataDistribution, LossTable, Sample

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProbMeasure:
    """Probability vector over the hypothesis class; serves as prior P or posterior Q.

    weights [..., n_h]: leading axes hold one measure per sample of a block,
    and every check applies to each row.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim == 0 or w.size == 0:
            raise ValueError("weights must be a nonempty vector, or a block of them")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        total = w.sum(axis=-1)
        off = np.abs(total - 1.0) > _SUM_TOL
        if off.any():
            raise ValueError(f"weights must sum to 1 (got {float(total[off].flat[0])!r})")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.shape[-1]

    @staticmethod
    def uniform(n: int) -> "ProbMeasure":
        return ProbMeasure(np.full(n, 1.0 / n))

    @staticmethod
    def point_mass(n: int, f: int) -> "ProbMeasure":
        w = np.zeros(n)
        w[f] = 1.0
        return ProbMeasure(w)

    @staticmethod
    def normalized(raw) -> "ProbMeasure":
        """raw / its sum, row by row."""
        raw = np.asarray(raw, dtype=float)
        total = raw.sum(axis=-1, keepdims=True)
        if (total <= 0).any():
            raise ValueError("cannot normalize a vector with nonpositive total mass")
        return ProbMeasure(raw / total)


def _check_hypotheses(q: ProbMeasure, table: LossTable) -> None:
    if q.size != table.hypothesis_count:
        raise ValueError("measure and loss table disagree on hypothesis count")


def kl_divergence(q: ProbMeasure, p: ProbMeasure):
    """KL(q || p), with 0 log(0/.) = 0, one value per row. It is +inf where q puts
    mass where p has none, so downstream bounds degrade to the vacuous
    certificate instead of erroring."""
    if q.size != p.size:
        raise ValueError("measures must have the same length")
    qw, pw = q.weights, p.weights
    support, charged = qw > 0, pw > 0
    # q / p where both carry mass; +inf where only q does, so its row sums to
    # +inf; 1 (a zero term) where q has none.
    ratio = np.where(support > charged, math.inf, 1.0)
    np.divide(qw, pw, out=ratio, where=support & charged)
    return (qw * np.log(ratio)).sum(axis=-1)


def gibbs_losses(q: ProbMeasure, table: LossTable, s: Sample) -> np.ndarray:
    """G_Q(z) over the data space, [..., n_z] with one row per posterior row;
    s.mean of it is the empirical Gibbs risk."""
    _check_hypotheses(q, table)
    if s.point_count != table.point_count:
        raise ValueError("sample and loss table disagree on point count")
    return np.vecmat(q.weights, table.loss)


def gibbs_risk(q: ProbMeasure, table: LossTable, dist: DataDistribution):
    """Exact Gibbs risk E_{f~Q} R(f), one value per row of q."""
    _check_hypotheses(q, table)
    if table.point_count != dist.point_count:
        raise ValueError("loss table and distribution disagree on point count")
    return np.vecdot(np.vecmat(q.weights, table.loss), dist.probs)


def gibbs_empirical_risk(q: ProbMeasure, table: LossTable, s: Sample):
    """Empirical Gibbs risk: mean of G_Q(z_i) over each sample."""
    return s.mean(gibbs_losses(q, table, s))


def flatness(q: ProbMeasure, table: LossTable, s: Sample, h: float):
    """h-flatness (1/m) sum_i E_Q[f(z_i) - (1+h) G_Q(z_i)]^2, one value per sample.

    Small when the posterior concentrates on hypotheses that agree on the
    sample (a flat region of the empirical risk surface). Valid for any
    [0,1]-valued loss; the alternate form below is exact only for binary loss.
    Computed by the exact expansion (since sum_f Q_f = 1)
    sum_f Q_f (L_fz - (1+h) G_z)^2 = (Q @ L^2)_z - (1-h^2) G_z^2,
    which needs O(n_h + n_z) memory per sample rather than O(n_h * n_z).
    """
    if not 0 < h <= 1:
        raise ValueError(f"h must lie in (0, 1], got {h!r}")
    g = gibbs_losses(q, table, s)
    second = np.vecmat(q.weights, table.loss * table.loss)
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
