"""Finite data spaces, exact distributions, sampling, and per-hypothesis risks.

The data distribution is finite with known probabilities, so the usually
unknown quantities (true risk, true Gibbs risk) are exact dot products.
That is what makes bound-coverage certification possible at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import stream

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DataDistribution:
    """Known categorical distribution over a finite space of labeled examples."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-d vector")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 (got {p.sum()!r})")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def point_count(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class LossTable:
    """[hypothesis_count x point_count] matrix of loss values in [0, 1].

    binary_flag is derived: True iff every entry is exactly 0 or 1. Several
    identities (notably the alternate flatness form) are exact only in the
    binary case, so callers gate on it.
    """

    loss: np.ndarray
    binary_flag: bool = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.loss, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("loss must be a nonempty 2-d matrix")
        if np.any(a < 0) or np.any(a > 1):
            raise ValueError("loss entries must lie in [0, 1]")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "loss", a)
        object.__setattr__(self, "binary_flag", bool(np.all((a == 0) | (a == 1))))

    @property
    def hypothesis_count(self) -> int:
        return self.loss.shape[0]

    @property
    def point_count(self) -> int:
        return self.loss.shape[1]


@dataclass(frozen=True)
class Sample:
    """Training multiset as counts over the data space.

    counts[z] is how often point z occurs among the m draws. Every
    sample-dependent quantity is a sample mean of a function of the point, so
    it depends on the sample only through these counts, and consumers take it
    with mean(). Only draws of per-point randomness (the Rademacher sums of
    the symmetrization processes) read the counts directly.
    """

    counts: np.ndarray
    m: int = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("sample counts must be a nonempty 1-d vector")
        if raw.dtype.kind not in "iu" and not np.all(np.isfinite(raw) & (raw == np.round(raw))):
            raise ValueError("sample counts must be integers")
        c = raw.astype(np.int64)
        if np.any(c < 0):
            raise ValueError("sample counts must be nonnegative")
        m = int(c.sum())
        if m < 1:
            raise ValueError("a sample must contain at least one point")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "m", m)

    @property
    def point_count(self) -> int:
        return self.counts.size

    def mean(self, values):
        """Sample mean of a per-point array whose last axis indexes the data space."""
        v = np.asarray(values, dtype=float)
        if v.ndim == 0 or v.shape[-1] != self.counts.size:
            raise ValueError("sample and per-point values disagree on point count")
        return (v @ self.counts) / self.m


def draw_sample(dist: DataDistribution, m: int, seed: int, *subkeys: int) -> Sample:
    """Draw m i.i.d. points from dist. Identical (dist, m, seed, subkeys) give
    identical samples; subkeys select independent streams (e.g. trial index)."""
    if m < 1:
        raise ValueError("sample size m must be >= 1")
    # Renormalize: dist.probs may sum to 1 only within tolerance, which the
    # multinomial rejects when an entry lands above 1.
    probs = dist.probs / dist.probs.sum()
    counts = stream(seed, *subkeys).multinomial(m, probs)
    return Sample(counts=counts)


def _check_hypothesis(table: LossTable, f: int) -> None:
    if not 0 <= f < table.hypothesis_count:
        raise ValueError(f"hypothesis index {f} out of range [0, {table.hypothesis_count})")


def true_risk(table: LossTable, f: int, dist: DataDistribution) -> float:
    """Exact risk R(f) = sum_z dist(z) * loss[f, z]."""
    _check_hypothesis(table, f)
    if table.point_count != dist.point_count:
        raise ValueError("loss table and distribution disagree on point count")
    return float(table.loss[f] @ dist.probs)


def empirical_risk(table: LossTable, f: int, s: Sample) -> float:
    """Empirical risk: mean of loss[f, z_i] over the sample, with multiplicity."""
    _check_hypothesis(table, f)
    return float(s.mean(table.loss[f]))


def true_risks(table: LossTable, dist: DataDistribution) -> np.ndarray:
    """Vector of R(f) for every hypothesis."""
    if table.point_count != dist.point_count:
        raise ValueError("loss table and distribution disagree on point count")
    return table.loss @ dist.probs


def empirical_risks(table: LossTable, s: Sample) -> np.ndarray:
    """Vector of empirical risks for every hypothesis."""
    return s.mean(table.loss)
