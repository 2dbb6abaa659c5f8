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
    """Probability vector over the hypothesis class; serves as prior P or posterior Q."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d vector")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"weights must sum to 1 (got {w.sum()!r})")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.size

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
        raw = np.asarray(raw, dtype=float)
        total = raw.sum()
        if total <= 0:
            raise ValueError("cannot normalize a vector with nonpositive total mass")
        return ProbMeasure(raw / total)


@dataclass(frozen=True)
class FlatnessValue:
    """h-flatness of a posterior on a sample: (1/m) sum_i E_Q[f(z_i) - (1+h) G_Q(z_i)]^2."""

    h: float
    value: float


def kl_divergence(q: ProbMeasure, p: ProbMeasure) -> float:
    """KL(q || p), with 0 log(0/.) = 0. Returns +inf when q puts mass where p has none,
    so downstream bounds degrade to the vacuous certificate instead of erroring."""
    if q.size != p.size:
        raise ValueError("measures must have the same length")
    qw, pw = q.weights, p.weights
    support = qw > 0
    if np.any(pw[support] == 0):
        return math.inf
    return float(np.sum(qw[support] * np.log(qw[support] / pw[support])))


def gibbs_loss(q: ProbMeasure, table: LossTable, z: int) -> float:
    """Expected loss G_Q(z) the randomized classifier suffers on example z."""
    if q.size != table.hypothesis_count:
        raise ValueError("measure and loss table disagree on hypothesis count")
    if not 0 <= z < table.point_count:
        raise ValueError(f"point index {z} out of range [0, {table.point_count})")
    return float(q.weights @ table.loss[:, z])


def gibbs_losses(q: ProbMeasure, table: LossTable, s: Sample) -> np.ndarray:
    """Vector of G_Q(z) over the data space; s.mean of it is the empirical Gibbs risk."""
    if q.size != table.hypothesis_count:
        raise ValueError("measure and loss table disagree on hypothesis count")
    if s.point_count != table.point_count:
        raise ValueError("sample and loss table disagree on point count")
    return q.weights @ table.loss


def gibbs_risk(q: ProbMeasure, table: LossTable, dist: DataDistribution) -> float:
    """Exact Gibbs risk: E_{f~Q} R(f)."""
    if q.size != table.hypothesis_count:
        raise ValueError("measure and loss table disagree on hypothesis count")
    if table.point_count != dist.point_count:
        raise ValueError("loss table and distribution disagree on point count")
    return float(q.weights @ table.loss @ dist.probs)


def gibbs_empirical_risk(q: ProbMeasure, table: LossTable, s: Sample) -> float:
    """Empirical Gibbs risk: mean of G_Q(z_i) over the sample."""
    return float(s.mean(gibbs_losses(q, table, s)))


def flatness(q: ProbMeasure, table: LossTable, s: Sample, h: float) -> FlatnessValue:
    """h-flatness by the definitional double sum.

    Small when the posterior concentrates on hypotheses that agree on the
    sample (a flat region of the empirical risk surface). Valid for any
    [0,1]-valued loss; the alternate form below is exact only for binary loss.
    """
    if not 0 < h <= 1:
        raise ValueError(f"h must lie in (0, 1], got {h!r}")
    return FlatnessValue(h=h, value=_flatness_sum(q, table, s, h))


def _flatness_sum(q: ProbMeasure, table: LossTable, s: Sample, h: float) -> float:
    g = q.weights @ table.loss                      # G_Q(z)
    dev = table.loss - (1.0 + h) * g[None, :]       # [F x n_z]
    return float(s.mean(q.weights @ (dev * dev)))


def flatness_alternate(q: ProbMeasure, table: LossTable, s: Sample, h: float) -> float:
    """Empirical Gibbs risk minus (1-h^2)/m * sum_i G_Q(z_i)^2.

    Equals the definitional flatness exactly under binary loss; for general
    [0,1] loss it is an upper bound. Accepts h = 0 (unlike the definitional
    path this side stays meaningful at the boundary).
    """
    if not 0 <= h <= 1:
        raise ValueError(f"h must lie in [0, 1], got {h!r}")
    g = gibbs_losses(q, table, s)
    return float(s.mean(g) - (1.0 - h * h) * s.mean(g * g))
