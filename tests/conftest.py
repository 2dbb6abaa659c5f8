import numpy as np
import pytest

from pacbayes import DataDistribution, LossTable, ProbMeasure


def random_instance(rng, n_h=5, n_z=4, binary=True):
    """Random (dist, table) pair with strictly positive probabilities."""
    probs = rng.dirichlet(np.ones(n_z))
    if binary:
        loss = rng.integers(0, 2, size=(n_h, n_z)).astype(float)
    else:
        loss = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(n_h, n_z))
    return DataDistribution(probs), LossTable(loss)


def random_measure(rng, n):
    return ProbMeasure(rng.dirichlet(np.ones(n)))


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
