import math

import numpy as np
import pytest

from spgrad.errors import ConfigurationError
from spgrad.mdp import EnumerableEnv, MdpSpec, make_bandit
from spgrad.oracle import exact_gradient, exact_performance, grid_maximize
from spgrad.policies import GaussianPolicy, PolynomialFeatures, SmoothingConstants, TabularFeatures, SoftmaxPolicy
from spgrad.rng import substream
from spgrad.safe_updates import (
    MetaParams,
    RunLimits,
    exact_improvement_bound,
    lipschitz_constant,
    optimal_step_and_batch,
    optimal_step_exact,
    required_batch_size,
    spg_run,
    stochastic_improvement_bound,
)

from conftest import random_theta


class TestLipschitzConstant:
    def test_gaussian_closed_form(self):
        policy = GaussianPolicy(PolynomialFeatures(1), feature_bound=1.0, sigma=1.0)
        spec = MdpSpec(gamma=0.5, r_max=1.0, horizon=5)
        lip = lipschitz_constant(policy.smoothing_constants(), spec)
        expected = 2.0 / 0.25 * (1.0 + 2.0 * 0.5 / (math.pi * 0.5))
        assert lip.value == pytest.approx(expected, rel=1e-12)
        assert lip.value == pytest.approx(13.0929582, rel=1e-8)

    def test_softmax_closed_form(self):
        policy = SoftmaxPolicy(TabularFeatures(1, 2), feature_bound=1.0, tau=1.0, n_actions=2)
        spec = MdpSpec(gamma=0.9, r_max=1.0, horizon=5)
        lip = lipschitz_constant(policy.smoothing_constants(), spec)
        assert lip.value == pytest.approx(7800.0, rel=1e-12)

    def test_constant_policy_has_zero_constant(self):
        spec = MdpSpec(gamma=0.7, r_max=2.0, horizon=3)
        lip = lipschitz_constant(SmoothingConstants(0.0, 0.0, 0.0), spec)
        assert lip.value == 0.0

    def test_generic_formula_matches_per_class_forms(self):
        rng = substream(40, 0)
        for _ in range(50):
            bound = rng.uniform(0.1, 3.0)
            gamma = rng.uniform(0.05, 0.95)
            r = rng.uniform(0.1, 5.0)
            sigma = rng.uniform(0.1, 2.0)
            tau = rng.uniform(0.1, 2.0)
            spec = MdpSpec(gamma=gamma, r_max=r, horizon=5)
            gauss = lipschitz_constant(
                GaussianPolicy(PolynomialFeatures(1), bound, sigma).smoothing_constants(), spec
            ).value
            gauss_expected = (
                2 * bound**2 * r / (sigma**2 * (1 - gamma) ** 2)
                * (1 + 2 * gamma / (math.pi * (1 - gamma)))
            )
            soft = lipschitz_constant(
                SmoothingConstants(2 * bound / tau, 4 * bound**2 / tau**2, 2 * bound**2 / tau**2),
                spec,
            ).value
            soft_expected = (
                2 * bound**2 * r / (tau**2 * (1 - gamma) ** 2) * (3 + 4 * gamma / (1 - gamma))
            )
            assert gauss == pytest.approx(gauss_expected, rel=1e-12)
            assert soft == pytest.approx(soft_expected, rel=1e-12)

    def test_provenance_recorded(self):
        sc = SmoothingConstants(1.0, 2.0, 3.0)
        spec = MdpSpec(gamma=0.5, r_max=1.5, horizon=2)
        lip = lipschitz_constant(sc, spec)
        assert (lip.psi, lip.kappa, lip.xi, lip.r_max, lip.gamma) == (1.0, 2.0, 3.0, 1.5, 0.5)


class TestExactBound:
    def test_example_value(self):
        assert exact_improvement_bound(0.5, 1.0, 2.0).value == pytest.approx(0.25)

    def test_zero_step(self):
        assert exact_improvement_bound(0.0, 3.0, 2.0).value == 0.0

    def test_vanishes_at_twice_optimal_step(self):
        assert exact_improvement_bound(1.0, 1.0, 2.0).value == 0.0

    def test_confidence_is_one(self):
        assert exact_improvement_bound(0.1, 1.0, 2.0).confidence == 1.0


class TestOptimalStepExact:
    def test_inverse_of_lipschitz(self):
        meta = optimal_step_exact(10.0)
        assert meta.alpha == 0.1
        assert exact_improvement_bound(meta.alpha, 2.0, 10.0).value == pytest.approx(4.0 / 20.0)

    def test_dominates_grid(self):
        lip, grad_norm = 3.7, 1.4
        best = exact_improvement_bound(1.0 / lip, grad_norm, lip).value
        _, _, grid_best = grid_maximize(
            lambda a: exact_improvement_bound(a, grad_norm, lip).value, (0.0, 3.0 / lip)
        )
        assert best >= grid_best - 1e-15

    def test_monotone_in_lipschitz(self):
        alphas = [optimal_step_exact(l).alpha for l in (1.0, 10.0, 100.0, 1e6)]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_step_exact(0.0)


class TestStochasticBound:
    def test_example_value(self):
        bound = stochastic_improvement_bound(0.5, 1.0, 1.0, 4, 1.0, delta=0.2)
        assert bound.value == pytest.approx(0.125)
        assert bound.confidence == pytest.approx(0.8)

    def test_zero_margin_never_positive(self):
        # estimate norm equals the error level: no alpha can certify progress
        for alpha in np.linspace(0.0, 2.0, 50):
            value = stochastic_improvement_bound(alpha, 1.0, 2.0, 4, 1.0, delta=0.5).value
            assert value <= 0.0
        assert stochastic_improvement_bound(0.0, 1.0, 2.0, 4, 1.0, delta=0.5).value == 0.0

    def test_reduces_to_exact_bound_without_error(self):
        for alpha in np.linspace(0.0, 1.0, 25):
            stochastic = stochastic_improvement_bound(alpha, 1.3, 0.0, 7, 2.0, delta=0.1).value
            exact = exact_improvement_bound(alpha, 1.3, 2.0).value
            assert stochastic == pytest.approx(exact, rel=1e-12, abs=1e-15)

    def test_max_branch_selection(self):
        # below the error level the averaged branch is the active one
        value = stochastic_improvement_bound(1.0, 0.5, 2.0, 1, 0.0, delta=0.5).value
        assert value == pytest.approx((0.5 - 2.0) * (0.5 + 2.0) / 2.0)


class TestOptimalStepAndBatch:
    def test_example_values(self):
        meta = optimal_step_and_batch(2.0, 10.0, 2.0)
        assert meta.alpha == 0.25
        assert meta.batch_size == 100
        improvement = stochastic_improvement_bound(
            meta.alpha, 2.0, 10.0, meta.batch_size, 2.0, delta=0.5
        )
        assert improvement.value == pytest.approx(4.0 / 16.0)

    def test_scaling_law(self):
        base = optimal_step_and_batch(1.0, 10.0, 2.0)
        doubled = optimal_step_and_batch(2.0, 10.0, 2.0)
        assert doubled.alpha == base.alpha
        assert doubled.batch_size * 4 == base.batch_size

    def test_zero_gradient_signalled(self):
        with pytest.raises(ValueError):
            optimal_step_and_batch(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            optimal_step_and_batch(1.0, 0.0, 2.0)

    def test_required_batch_size(self):
        assert required_batch_size(2.0, 10.0) == 100
        assert required_batch_size(0.0, 10.0) is None
        assert required_batch_size(1e9, 1e-9) == 1


class TestSpgRun:
    def test_constant_reward_stalls_without_update(self):
        mdp = make_bandit([0.5, 0.5], gamma=0.5, horizon=1)
        inst_policy = SoftmaxPolicy(
            TabularFeatures(1, 2), feature_bound=1.0, tau=1.0, n_actions=2
        )
        theta0 = np.array([0.1, -0.2])
        result = spg_run(
            EnumerableEnv(mdp),
            inst_policy,
            theta0,
            n_iterations=1,
            delta=0.2,
            limits=RunLimits(max_trajectories_per_iteration=2000),
            seed=5,
        )
        record = result.records[0]
        assert record.stalled
        assert record.batch_size == 2000
        assert record.guaranteed_improvement == 0.0
        np.testing.assert_array_equal(result.theta_final, theta0)

    def test_loop_postcondition_and_certified_rows(self, bandit):
        result = spg_run(
            bandit.env, bandit.policy, np.zeros(1), n_iterations=4, delta=0.2, seed=17
        )
        eps = result.error.eps_delta
        lip = result.lipschitz.value
        cum_prev = 0
        for record in result.records:
            assert record.cum_trajectories >= cum_prev
            cum_prev = record.cum_trajectories
            if not record.stalled:
                assert record.batch_size >= math.ceil(4 * eps**2 / record.grad_norm**2)
                assert record.guaranteed_improvement == pytest.approx(
                    record.grad_norm**2 / (8 * lip)
                )
                assert record.guaranteed_improvement > 0.0

    def test_total_cap_stops_run(self, bandit):
        result = spg_run(
            bandit.env,
            bandit.policy,
            np.zeros(1),
            n_iterations=50,
            delta=0.2,
            limits=RunLimits(max_total_trajectories=8000),
            seed=17,
        )
        assert result.records[-1].cum_trajectories <= 8000
        assert len(result.records) < 50

    def test_deterministic_given_seed(self, bandit):
        kwargs = dict(n_iterations=2, delta=0.3, seed=99)
        first = spg_run(bandit.env, bandit.policy, np.zeros(1), **kwargs)
        second = spg_run(bandit.env, bandit.policy, np.zeros(1), **kwargs)
        assert first.records == second.records
        for a, b in zip(first.thetas, second.thetas):
            np.testing.assert_array_equal(a, b)

    def test_zero_lipschitz_rejected(self, bandit):
        degenerate = SoftmaxPolicy(
            TabularFeatures(1, 2), feature_bound=0.0, tau=1.0, n_actions=2
        )
        with pytest.raises(ConfigurationError):
            spg_run(bandit.env, degenerate, np.zeros(2), n_iterations=1, delta=0.2, seed=0)


class TestFixedMetaRun:
    def test_runs_requested_iterations(self, bandit):
        result = spg_run(
            bandit.env, bandit.policy, np.zeros(1), n_iterations=5, delta=0.5,
            fixed=MetaParams(alpha=0.02, batch_size=40), seed=3,
        )
        assert len(result.records) == 5
        assert all(r.batch_size == 40 for r in result.records)
        assert all(not r.stalled for r in result.records)
        assert result.records[-1].cum_trajectories == 200

    def test_respects_total_cap(self, bandit):
        result = spg_run(
            bandit.env, bandit.policy, np.zeros(1), n_iterations=10, delta=0.5,
            fixed=MetaParams(alpha=0.02, batch_size=40),
            limits=RunLimits(max_total_trajectories=100), seed=3,
        )
        assert len(result.records) == 2


class TestOracleBackedGuarantees:
    # Smaller-count versions of the acceptance checks, for fast feedback.

    def test_quadratic_bound(self, two_state):
        lip = lipschitz_constant(two_state.policy.smoothing_constants(), two_state.mdp.spec)
        rng = substream(41, 0)
        for _ in range(40):
            theta = random_theta(rng, two_state.policy.dim)
            step = rng.standard_normal(4)
            step *= rng.uniform(0.05, 1.0) / np.linalg.norm(step)
            grad = exact_gradient(two_state.mdp, two_state.policy, theta).grad
            deviation = abs(
                exact_performance(two_state.mdp, two_state.policy, theta + step)
                - exact_performance(two_state.mdp, two_state.policy, theta)
                - float(step @ grad)
            )
            assert deviation <= lip.value / 2 * float(step @ step) + 1e-9

    def test_exact_step_guarantee(self, two_state):
        lip = lipschitz_constant(two_state.policy.smoothing_constants(), two_state.mdp.spec)
        alpha = optimal_step_exact(lip).alpha
        rng = substream(41, 1)
        for _ in range(30):
            theta = random_theta(rng, two_state.policy.dim)
            grad = exact_gradient(two_state.mdp, two_state.policy, theta).grad
            improvement = exact_performance(
                two_state.mdp, two_state.policy, theta + alpha * grad
            ) - exact_performance(two_state.mdp, two_state.policy, theta)
            assert improvement >= float(grad @ grad) / (2 * lip.value) - 1e-9
