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
    """Training multiset as counts over the data space, or a block of them.

    counts[..., z] is how often point z occurs among the m draws; leading axes
    index the samples of a block (counts [T, n_z] for T trials), all of size
    m. Every sample-dependent quantity is a sample mean of a function of the
    point, so it depends on the sample only through these counts, and
    consumers take it with mean() or mean_rows(). Only draws of per-point
    randomness (the Rademacher sums of the symmetrization processes) read the
    counts directly.
    """

    counts: np.ndarray
    m: int = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.ndim == 0 or raw.size == 0:
            raise ValueError("sample counts must be a nonempty vector, or a block of them")
        if raw.dtype.kind not in "iu" and not np.all(np.isfinite(raw) & (raw == np.round(raw))):
            raise ValueError("sample counts must be integers")
        c = raw.astype(np.int64)
        if (c < 0).any():
            raise ValueError("sample counts must be nonnegative")
        sizes = c.sum(axis=-1)
        m = int(sizes.flat[0])
        if (sizes != m).any():
            raise ValueError("the samples of a block must all have the same size m")
        if m < 1:
            raise ValueError("a sample must contain at least one point")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "m", m)

    @property
    def point_count(self) -> int:
        return self.counts.shape[-1]

    def rows(self) -> list["Sample"]:
        """The samples of a block one by one, each without a leading axis."""
        return [Sample(c) for c in self.counts.reshape(-1, self.point_count)]

    def _per_point(self, values) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.ndim == 0 or v.shape[-1] != self.point_count:
            raise ValueError("sample and per-point values disagree on point count")
        return v

    def mean(self, values):
        """Sample mean of per-point values [..., n_z], one vector per sample:
        the leading axes of values broadcast against those of the counts."""
        return np.vecdot(self._per_point(values), self.counts) / self.m

    def mean_rows(self, table):
        """Sample mean of every row of a [k, n_z] table, for each sample: [..., k]."""
        return np.matvec(self._per_point(table), self.counts) / self.m


def draw_sample(dist: DataDistribution, m: int, seed: int, *subkeys: int,
                size: int | None = None) -> Sample:
    """Draw m i.i.d. points from dist, or a block of `size` such samples (counts
    [size, n_z]) from one multinomial call. Identical (dist, m, seed, subkeys)
    give identical samples, and a smaller size draws a prefix of the same
    block; subkeys select independent streams (e.g. trial or block index)."""
    if m < 1:
        raise ValueError("sample size m must be >= 1")
    if size is not None and size < 1:
        raise ValueError("a block must hold at least one sample")
    # Renormalize: dist.probs may sum to 1 only within tolerance, which the
    # multinomial rejects when an entry lands above 1.
    probs = dist.probs / dist.probs.sum()
    counts = stream(seed, *subkeys).multinomial(m, probs, size=size)
    return Sample(counts=counts)


# Trials per block of sample_blocks: a block's arrays take O(BLOCK * (n_h + n_z)) memory.
BLOCK = 1024


def sample_blocks(dist: DataDistribution, m: int, trials: int, seed: int, *subkeys: int):
    """The samples of trials 0..trials-1 in blocks of at most BLOCK: yields
    (first trial, block Sample with counts [T, n_z]). Block b is one draw_sample
    call keyed by (seed, *subkeys, b), so trial t's sample is the same
    whatever the number of trials."""
    for block, start in enumerate(range(0, trials, BLOCK)):
        yield start, draw_sample(dist, m, seed, *subkeys, block,
                                 size=min(BLOCK, trials - start))


def true_risks(table: LossTable, dist: DataDistribution) -> np.ndarray:
    """Vector of R(f) = sum_z dist(z) * loss[f, z] for every hypothesis."""
    if table.point_count != dist.point_count:
        raise ValueError("loss table and distribution disagree on point count")
    return table.loss @ dist.probs


def empirical_risks(table: LossTable, s: Sample) -> np.ndarray:
    """Empirical risks [..., n_h] of every hypothesis, for each sample of s."""
    return s.mean_rows(table.loss)
