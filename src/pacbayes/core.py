"""Probability measures on finite sets, loss tables, samples, and true risks.

The data distribution D, the prior P and the posterior Q are all ProbMeasures.
D is known exactly, so the usually unknown quantities (true risk, true Gibbs
risk) are dot products: that makes bound-coverage certification possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import stream

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProbMeasure:
    """Probability vector over a finite set: D over the points, P or Q over the
    hypotheses. weights [..., n]: leading axes hold one measure per sample of
    a block (D never has them), and every check applies to each row."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim == 0 or w.size == 0:
            raise ValueError("weights must be a nonempty vector, or a block of them")
        # Each check asks that the good case hold, which NaN never does.
        if not (w >= 0).all():
            raise ValueError("weights must be nonnegative numbers")
        total = w.sum(axis=-1)
        off = ~(np.abs(total - 1.0) <= _SUM_TOL)
        if off.any():
            raise ValueError(f"weights must sum to 1 (got {float(total[off].flat[0])!r})")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def _of(cls, w: np.ndarray) -> "ProbMeasure":
        """A measure of float weights the package has just computed from checked
        measures: w is marked read-only, and neither checked nor copied."""
        w.flags.writeable = False
        q = object.__new__(cls)
        object.__setattr__(q, "weights", w)
        return q

    @property
    def size(self) -> int:
        return self.weights.shape[-1]

    @staticmethod
    def uniform(n: int) -> "ProbMeasure":
        return ProbMeasure(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class LossTable:
    """[hypothesis_count x point_count] matrix of loss values in [0, 1].

    binary_flag is derived: True iff every entry is exactly 0 or 1. Several
    identities (notably the alternate flatness form) are exact only in the
    binary case, so callers gate on it. loss_squared (loss * loss) is derived
    too; on a binary table it equals loss entry for entry (x^2 = x on {0, 1}),
    so Q @ loss_squared is the Gibbs losses G_Q = Q @ loss, to the bit.
    """

    loss: np.ndarray
    binary_flag: bool = field(init=False)
    loss_squared: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.loss, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("loss must be a nonempty 2-d matrix")
        if not ((a >= 0) & (a <= 1)).all():
            raise ValueError("loss entries must be numbers in [0, 1]")
        for name, value in (("loss", a.copy()), ("loss_squared", a * a)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
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

    @classmethod
    def _of(cls, counts: np.ndarray, m: int) -> "Sample":
        """A sample of int64 counts the package has just computed, every row
        summing to m >= 1: counts is marked read-only, and neither checked nor copied."""
        counts.flags.writeable = False
        s = object.__new__(cls)
        object.__setattr__(s, "counts", counts)
        object.__setattr__(s, "m", m)
        return s

    @property
    def point_count(self) -> int:
        return self.counts.shape[-1]

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


def _sample_size(m) -> int:
    """m as an int; ValueError unless it is a whole number >= 1 (an integral
    float or a NumPy integer is one)."""
    if m < 1:
        raise ValueError("sample size m must be >= 1")
    if not isinstance(m, (int, np.integer)) and not float(m).is_integer():
        raise ValueError(f"sample size m must be a whole number, got {m!r}")
    return int(m)


def draw_sample(dist: ProbMeasure, m: int, seed: int, *subkeys: int,
                size: int | None = None) -> Sample:
    """Draw m i.i.d. points from dist, or a block of `size` such samples (counts
    [size, n_z]) from one multinomial call. Identical (dist, m, seed, subkeys)
    give identical samples, and a smaller size draws a prefix of the same
    block; subkeys select independent streams (e.g. trial or block index)."""
    if dist.weights.ndim != 1:
        raise ValueError("the data distribution must be one vector, not a block")
    m = _sample_size(m)
    if size is not None and size < 1:
        raise ValueError("a block must hold at least one sample")
    # Renormalize: dist.weights may sum to 1 only within tolerance, which the
    # multinomial rejects when an entry lands above 1.
    probs = dist.weights / dist.weights.sum()
    counts = stream(seed, *subkeys).multinomial(m, probs, size=size)
    return Sample._of(counts, m)


# Trials per block of sample_blocks: a block's arrays take O(BLOCK * (n_h + n_z)) memory.
BLOCK = 1024


def sample_blocks(dist: ProbMeasure, m: int, trials: int, seed: int, *subkeys: int):
    """The samples of trials 0..trials-1 in blocks of at most BLOCK: an iterator
    of (first trial, block Sample with counts [T, n_z]). Block b is one draw_sample
    call keyed by (seed, *subkeys, b), so trial t's sample is the same
    whatever the number of trials. trials < 1 is rejected at the call, so a
    caller that calls it first reports a bad trial count before its other
    arguments."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return ((start, draw_sample(dist, m, seed, *subkeys, block, size=min(BLOCK, trials - start)))
            for block, start in enumerate(range(0, trials, BLOCK)))


def true_risks(table: LossTable, dist: ProbMeasure) -> np.ndarray:
    """Vector of R(f) = sum_z dist(z) * loss[f, z] for every hypothesis."""
    if dist.weights.shape != (table.point_count,):
        raise ValueError("the data distribution must be one vector over the table's points")
    return table.loss @ dist.weights


def empirical_risks(table: LossTable, s: Sample) -> np.ndarray:
    """Empirical risks [..., n_h] of every hypothesis, for each sample of s."""
    return s.mean_rows(table.loss)
