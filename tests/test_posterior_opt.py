import math

import numpy as np
import pytest

from pacbayes import (FAMILIES, BoundParams, ProbMeasure, draw_sample,
                      evaluate_posterior_bound, gibbs_posterior, kl_divergence,
                      minimize_bound)
from pacbayes.core import empirical_risks
from pacbayes.posterior_opt import _bound_gradient

from conftest import random_instance, random_measure

FAMILIES_CLOSED = ("mcallester", "catoni", "kst", "matched_catoni")


class TestGibbsPosterior:
    def test_beta_zero_returns_prior(self, rng):
        dist, table = random_instance(rng)
        p = random_measure(rng, table.hypothesis_count)
        s = draw_sample(dist, 10, 1)
        assert gibbs_posterior(p, table, s, 0.0) is p

    def test_large_beta_concentrates_on_erm(self, rng):
        dist, table = random_instance(rng, n_h=5)
        p = ProbMeasure.uniform(5)
        s = draw_sample(dist, 30, 2)
        risks = empirical_risks(table, s)
        q = gibbs_posterior(p, table, s, 1e6)
        winners = np.isclose(risks, risks.min(), atol=1e-12)
        assert q.weights[winners].sum() == pytest.approx(1.0, abs=1e-9)
        # mass splits proportionally to the prior among exact ties
        if winners.sum() > 1:
            sub = q.weights[winners]
            ref = p.weights[winners] / p.weights[winners].sum()
            assert np.allclose(sub, ref, atol=1e-9)

    def test_hand_two_hypotheses(self):
        # weights prop to exp(-beta * m * Remp); m=2, losses 1,1 vs 0,0
        from pacbayes import LossTable, Sample
        table = LossTable([[1, 1], [0, 0]])
        s = Sample(np.array([1, 1]))
        q = gibbs_posterior(ProbMeasure.uniform(2), table, s, 0.5)
        z = 1.0 + math.exp(1.0)
        assert q.weights[1] == pytest.approx(math.exp(1.0) / z, abs=1e-14)

    def test_kl_nondecreasing_in_beta(self, rng):
        dist, table = random_instance(rng, n_h=6)
        p = ProbMeasure.uniform(6)
        s = draw_sample(dist, 40, 3)
        kls = [kl_divergence(gibbs_posterior(p, table, s, b), p)
               for b in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a <= b + 1e-10 for a, b in zip(kls, kls[1:]))

    def test_negative_beta_rejected(self, rng):
        dist, table = random_instance(rng)
        s = draw_sample(dist, 5, 1)
        for beta in (-1.0, math.nan):
            with pytest.raises(ValueError):
                gibbs_posterior(ProbMeasure.uniform(table.hypothesis_count), table, s, beta)

    def test_prior_zero_stays_zero(self, rng):
        dist, table = random_instance(rng, n_h=4)
        p = ProbMeasure([0.5, 0.5, 0.0, 0.0])
        s = draw_sample(dist, 20, 4)
        q = gibbs_posterior(p, table, s, 3.0)
        assert q.weights[2] == 0.0 and q.weights[3] == 0.0


    def test_large_beta_with_a_better_atom_outside_the_prior(self):
        # Hypothesis 0 fits the sample perfectly but has no prior mass; at
        # beta * m = 1000 its score would underflow every weight the prior holds.
        from pacbayes import LossTable, Sample
        table = LossTable([[0, 0], [1, 1], [1, 0]])
        s = Sample(np.array([3, 2]))
        q = gibbs_posterior(ProbMeasure([0.0, 0.5, 0.5]), table, s, 200.0)
        assert q.weights[0] == 0.0
        assert q.weights[2] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [math.inf, 1e308, 1e300])
    def test_infinite_beta_is_the_prior_on_the_least_risk_atoms(self, beta):
        # beta * m overflows at inf and 1e308 (m = 4): the beta -> inf limit,
        # which 1e300 reaches in finite arithmetic. Hypothesis 0 fits every
        # sample but has no prior mass; the third sample ties hypothesis 1 with 2 and 3.
        from pacbayes import LossTable, Sample
        table = LossTable([[0, 0], [0, 1], [1, 0], [1, 0]])
        s = Sample(np.array([[3, 1], [0, 4], [2, 2]]))
        q = gibbs_posterior(ProbMeasure([0.0, 0.25, 0.375, 0.375]), table, s, beta)
        expected = ProbMeasure([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5],
                                [0.0, 0.25, 0.375, 0.375]])
        assert np.array_equal(q.weights, expected.weights)


class TestGradient:
    # catoni_C = 1.5 catches a gradient that is right only at C = 1.
    @pytest.mark.parametrize("family,catoni_C", [
        *(pytest.param(f, 1.0, id=f) for f in FAMILIES_CLOSED + ("flatness",)),
        pytest.param("catoni", 1.5, id="catoni-C1.5"),
    ])
    def test_finite_difference(self, rng, family, catoni_C):
        dist, table = random_instance(rng, n_h=5, n_z=4)
        p = random_measure(rng, 5)
        s = draw_sample(dist, 20, 6)
        params = BoundParams(delta=0.05, catoni_C=catoni_C, c=1.0, h=0.5)
        q = random_measure(rng, 5)
        grad = _bound_gradient(family, params, q.weights, p.weights, table, s)

        def objective(w):
            return evaluate_posterior_bound(
                family, params, ProbMeasure.normalized(w), p, table, s).value

        eps = 1e-6
        # compare directional derivatives along simplex-tangent directions
        for a, b in ((0, 1), (2, 4), (1, 3)):
            d = np.zeros(5)
            d[a], d[b] = 1.0, -1.0
            num = (objective(q.weights + eps * d) - objective(q.weights - eps * d)) / (2 * eps)
            assert num == pytest.approx(float(grad @ d), abs=1e-4)


class TestMinimizeBound:
    @pytest.mark.parametrize("family", FAMILIES_CLOSED)
    def test_never_worse_than_prior_or_grid(self, rng, family):
        dist, table = random_instance(rng, n_h=5, n_z=4)
        p = ProbMeasure.uniform(5)
        s = draw_sample(dist, 30, 7)
        params = BoundParams(delta=0.05, catoni_C=1.0, c=1.0, h=0.5)
        betas = (0.0, 0.5, 2.0, 10.0)
        q, rep = minimize_bound(family, params, p, table, s, betas)
        grid_best = min(evaluate_posterior_bound(
            family, params, gibbs_posterior(p, table, s, b), p, table, s).value
            for b in betas)
        assert rep.value <= grid_best + 1e-12

    def test_catoni_tempered_optimality(self, rng):
        # For the Catoni objective the tempered posterior at beta = C is the
        # exact minimizer, so a fine grid containing it cannot be improved much.
        dist, table = random_instance(rng, n_h=4, n_z=4)
        p = ProbMeasure.uniform(4)
        s = draw_sample(dist, 25, 8)
        C = 1.3
        params = BoundParams(delta=0.05, catoni_C=C)
        q_opt = gibbs_posterior(p, table, s, C)
        opt_val = evaluate_posterior_bound("catoni", params, q_opt, p, table, s).value
        _, rep = minimize_bound("catoni", params, p, table, s, (0.0, C, 5.0), refine_steps=100)
        assert rep.value <= opt_val + 1e-12
        assert rep.value >= opt_val - 1e-8

    def test_flatness_runs_and_reports(self, rng):
        dist, table = random_instance(rng, n_h=4, n_z=4)
        p = ProbMeasure.uniform(4)
        s = draw_sample(dist, 30, 9)
        params = BoundParams(delta=0.05, c=1.0, h=0.6)
        q, rep = minimize_bound("flatness", params, p, table, s, (0.0, 1.0, 5.0))
        assert rep.family == "flatness"
        assert set(rep.components) == {"empirical", "flatness", "rate"}
        assert abs(q.weights.sum() - 1.0) <= 1e-12

    def test_deterministic(self, rng):
        dist, table = random_instance(rng)
        p = ProbMeasure.uniform(table.hypothesis_count)
        s = draw_sample(dist, 20, 10)
        params = BoundParams()
        a = minimize_bound("mcallester", params, p, table, s, (0.0, 1.0))
        b = minimize_bound("mcallester", params, p, table, s, (0.0, 1.0))
        assert np.array_equal(a[0].weights, b[0].weights)
        assert a[1].value == b[1].value

    def test_empty_grid_rejected(self, rng):
        dist, table = random_instance(rng)
        s = draw_sample(dist, 5, 1)
        with pytest.raises(ValueError):
            minimize_bound("kst", BoundParams(), ProbMeasure.uniform(table.hypothesis_count),
                           table, s, ())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_equals_one_sample_calls(self, rng, family):
        # Four atoms carry no prior mass, and the rows of the block pick their
        # own grid point and accept different refinement steps.
        dist, table = random_instance(rng, n_h=12, n_z=5, binary=False)
        weights = rng.dirichlet(np.ones(12))
        weights[[1, 4, 5, 9]] = 0.0
        p = ProbMeasure.normalized(weights)
        params = BoundParams(delta=0.05, catoni_C=1.3, c=1.0, h=0.6)
        block = draw_sample(dist, 40, 11, size=7)
        q, rep = minimize_bound(family, params, p, table, block, (0.0, 0.3, 2.0, 1e3), 15)
        assert q.weights.shape == (7, 12) and rep.value.shape == (7,)
        for i, s in enumerate(block.rows()):
            q1, rep1 = minimize_bound(family, params, p, table, s, (0.0, 0.3, 2.0, 1e3), 15)
            assert np.array_equal(q.weights[i], q1.weights)
            assert rep.value[i] == rep1.value
            for name, part in rep.components.items():
                assert part[i] == rep1.components[name]

    @pytest.mark.parametrize("family", ["kst", "flatness"])
    def test_grid_order_and_duplicates_do_not_matter(self, rng, family):
        dist, table = random_instance(rng, n_h=6, n_z=4)
        p = ProbMeasure.uniform(6)
        block = draw_sample(dist, 30, 12, size=5)
        params = BoundParams(delta=0.05, c=1.0, h=0.5)
        q, rep = minimize_bound(family, params, p, table, block, (0.0, 1.0, 10.0), 10)
        q2, rep2 = minimize_bound(family, params, p, table, block, (10.0, 0.0, 1.0, 0.0), 10)
        assert np.array_equal(q.weights, q2.weights)
        assert np.array_equal(rep.value, rep2.value)

    def test_negative_refine_steps_rejected(self, rng):
        dist, table = random_instance(rng)
        s = draw_sample(dist, 5, 1)
        with pytest.raises(ValueError):
            minimize_bound("kst", BoundParams(), ProbMeasure.uniform(table.hypothesis_count),
                           table, s, (0.0, 1.0), -3)
