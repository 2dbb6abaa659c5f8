import mpmath
import numpy as np
import pytest

from pacbayes import LossTable, ProbMeasure, Sample


def random_instance(rng, n_h=5, n_z=4, binary=True):
    """Random (dist, table) pair with strictly positive probabilities."""
    probs = rng.dirichlet(np.ones(n_z))
    if binary:
        loss = rng.integers(0, 2, size=(n_h, n_z)).astype(float)
    else:
        loss = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(n_h, n_z))
    return ProbMeasure(probs), LossTable(loss)


def random_measure(rng, n):
    return ProbMeasure(rng.dirichlet(np.ones(n)))


def assert_passes_its_checks(x):
    """x, a ProbMeasure or Sample the package built without its constructor's
    checks, passes them again unchanged, and its array is read-only."""
    if isinstance(x, Sample):
        again, array = Sample(x.counts), x.counts
        assert again.m == x.m and again.counts.dtype == array.dtype == np.int64
        assert np.array_equal(again.counts, array)
    else:
        array = x.weights
        assert np.array_equal(ProbMeasure(array).weights, array)
    assert not array.flags.writeable


def flatness_double_sum(q, table, s, h):
    """Definitional h-flatness of one posterior on one sample, by explicit loops:
    (1/m) sum over the m points z_i of sum_f Q_f (L(f, z_i) - (1+h) G_Q(z_i))^2."""
    total = 0.0
    for z, count in enumerate(s.counts):
        g = sum(q.weights[f] * table.loss[f, z] for f in range(table.hypothesis_count))
        inner = sum(q.weights[f] * (table.loss[f, z] - (1.0 + h) * g) ** 2
                    for f in range(table.hypothesis_count))
        total += count * inner
    return total / s.m


def mp_logcosh_root_55(c_prime):
    """The root of log(cosh(x))/x = c'/(c'+2) to 55 digits. Newton on the convex
    g(x) = log cosh(x) - t x from x = c' + 2, right of the root (which lies below
    log 2 (c'+2)/2), so the iterates fall to it monotonically. 80 digits leave
    60 after log cosh(x) cancels near x = 1e-6."""
    with mpmath.workdps(80):
        t = mpmath.mpf(c_prime) / (mpmath.mpf(c_prime) + 2)
        x = mpmath.mpf(c_prime) + 2
        for _ in range(200):
            step = (mpmath.log(mpmath.cosh(x)) - t * x) / (mpmath.tanh(x) - t)
            x -= step
            if abs(step) <= mpmath.mpf(10) ** -55 * x:
                return x
    raise AssertionError(f"no convergence at c' = {c_prime}")


def strict_json(constant):
    """json.loads's parse_constant hook: NaN and Infinity are not JSON."""
    raise ValueError(f"{constant} is not JSON")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
