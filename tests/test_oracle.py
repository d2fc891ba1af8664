import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from spgrad.errors import ConfigurationError, NumericError, OracleBudgetError
import spgrad.oracle as oracle
from spgrad.estimators import BLOCK_ROWS, BaselineKind, EstimatorKind, GradientAccumulator
from spgrad.mdp import make_bandit
from spgrad.oracle import (
    GRID_ROWS,
    _walk_paths,
    enumerated_gradient,
    enumerated_performance,
    exact_gradient,
    exact_hessian,
    exact_performance,
    expected_gradient_estimate,
    fd_gradient,
    grid_maximize,
    path_blocks,
    policy_table,
)
from spgrad.policies import ActionIndicatorFeatures, SoftmaxPolicy
from spgrad.rng import substream
from spgrad.safe_updates import lipschitz_constant
from spgrad.testbeds import DiscreteInstance, chain_instance

from conftest import random_theta


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def uniform_policy():
    return SoftmaxPolicy(
        ActionIndicatorFeatures(), feature_bound=1.0, tau=1.0, n_actions=2, n_states=1
    )


class TestExactPerformance:
    def test_degenerate_chain(self):
        # both arms pay 1: J = 1 + 0.5 + 0.25
        mdp = make_bandit([1.0, 1.0], gamma=0.5, horizon=3)
        assert exact_performance(mdp, uniform_policy(), np.zeros(1)) == pytest.approx(1.75)

    def test_bandit_sigmoid_closed_form(self, bandit):
        assert exact_performance(bandit.mdp, bandit.policy, np.zeros(1)) == pytest.approx(0.5)
        rng = substream(30, 0)
        for _ in range(10):
            theta = random_theta(rng, 1, scale=2.0)
            j = exact_performance(bandit.mdp, bandit.policy, theta)
            assert j == pytest.approx(sigmoid(theta[0]), rel=1e-12)

    def test_symmetric_rewards_cancel(self):
        mdp = make_bandit([1.0, -1.0], gamma=0.5, horizon=2)
        assert exact_performance(mdp, uniform_policy(), np.zeros(1)) == pytest.approx(0.0, abs=1e-15)

    def test_matches_enumeration(self, two_state, binned_gaussian):
        rng = substream(30, 1)
        for inst in (two_state, binned_gaussian):
            for _ in range(5):
                theta = random_theta(rng, inst.oracle_policy.dim)
                j_dp = exact_performance(inst.mdp, inst.oracle_policy, theta)
                j_enum = enumerated_performance(inst.mdp, inst.oracle_policy, theta)
                assert abs(j_dp - j_enum) <= 1e-10


class TestValueTables:
    def test_consistency_and_bound(self, two_state):
        # v(s) is J of the same MDP started in s; J is v's mean under initial
        mdp = two_state.mdp
        starts = [dataclasses.replace(mdp, initial=e) for e in np.eye(mdp.n_states)]
        rng = substream(31, 0)
        spec = mdp.spec
        v_bound = spec.r_max * (1.0 - spec.gamma**spec.horizon) / (1.0 - spec.gamma)
        for _ in range(10):
            theta = random_theta(rng, two_state.policy.dim)
            v = np.array([exact_performance(start, two_state.policy, theta) for start in starts])
            j = exact_performance(mdp, two_state.policy, theta)
            assert j == pytest.approx(float(mdp.initial @ v), abs=1e-12)
            assert np.max(np.abs(v)) <= v_bound + 1e-12


class TestExactGradient:
    def test_bandit_sigmoid_derivative(self, bandit):
        grad = exact_gradient(bandit.mdp, bandit.policy, np.zeros(1))
        np.testing.assert_allclose(grad, [0.25], atol=1e-14)
        rng = substream(32, 0)
        for _ in range(10):
            theta = random_theta(rng, 1, scale=2.0)
            s = sigmoid(theta[0])
            grad = exact_gradient(bandit.mdp, bandit.policy, theta)
            assert grad[0] == pytest.approx(s * (1 - s), rel=1e-12)

    def test_constant_rewards_zero_gradient(self):
        mdp = make_bandit([0.7, 0.7], gamma=0.5, horizon=3)
        grad = exact_gradient(mdp, uniform_policy(), np.array([0.3]))
        np.testing.assert_allclose(grad, [0.0], atol=1e-15)

    def test_matches_finite_differences(self, two_state):
        rng = substream(32, 1)
        for _ in range(100):
            theta = random_theta(rng, two_state.policy.dim)
            grad = exact_gradient(two_state.mdp, two_state.policy, theta)
            fd = fd_gradient(two_state.mdp, two_state.policy, theta)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)


class TestForwardGradient:
    """The forward pass of ``exact_gradient`` against path enumeration where
    paths can be enumerated, and against finite differences of the DP value
    at a horizon where they cannot."""

    @pytest.mark.parametrize(
        "name", ["two_state", "binned_gaussian", "chain", "bandit-T10", "chain-2x7"]
    )
    def test_matches_enumerated_gradient(self, request, name):
        if name == "bandit-T10":
            inst = long_bandit(10)
        elif name == "chain-2x7":
            inst = chain_instance(n_states=2, horizon=7)
        else:
            inst = request.getfixturevalue(name)
        mdp, policy = inst.mdp, inst.oracle_policy
        rng = substream(37, len(name))
        for _ in range(5):
            theta = random_theta(rng, policy.dim, scale=1.0)
            grad = exact_gradient(mdp, policy, theta)
            enumerated = enumerated_gradient(mdp, policy, theta)
            assert grad.shape == enumerated.shape
            assert np.max(np.abs(grad - enumerated)) <= 1e-12

    def test_long_horizon_beyond_enumeration(self):
        inst = chain_instance(n_states=10, horizon=50)
        mdp, policy = inst.mdp, inst.oracle_policy
        rng = substream(37, 50)
        for _ in range(3):
            theta = random_theta(rng, policy.dim)
            with pytest.raises(OracleBudgetError):
                enumerated_gradient(mdp, policy, theta)
            grad = exact_gradient(mdp, policy, theta)
            fd = fd_gradient(mdp, policy, theta)
            assert np.linalg.norm(fd) > 1e-3
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


class TestExactHessian:
    def test_bandit_inflection_at_zero(self, bandit):
        # second derivative of the sigmoid vanishes at theta = 0
        hess = exact_hessian(bandit.mdp, bandit.policy, np.zeros(1))
        np.testing.assert_allclose(hess, [[0.0]], atol=1e-8)

    def test_constant_rewards_zero_matrix(self):
        mdp = make_bandit([0.7, 0.7], gamma=0.5, horizon=2)
        hess = exact_hessian(mdp, uniform_policy(), np.array([0.2]))
        np.testing.assert_allclose(hess, [[0.0]], atol=1e-9)

    def test_symmetry_and_spectral_bound(self, chain):
        lip = lipschitz_constant(chain.policy.smoothing_constants(), chain.mdp.spec)
        rng = substream(33, 0)
        for _ in range(5):
            theta = random_theta(rng, chain.policy.dim)
            hess = exact_hessian(chain.mdp, chain.policy, theta)
            np.testing.assert_allclose(hess, hess.T, atol=1e-12)
            assert np.linalg.norm(hess, 2) <= lip * (1 + 1e-6)


class CountingTables:
    """A policy whose ``table`` calls, and the thetas they cover, are counted."""

    def __init__(self, policy):
        self.policy, self.dim, self.calls, self.thetas = policy, policy.dim, 0, 0

    def table(self, theta):
        self.calls += 1
        self.thetas += len(np.atleast_2d(theta))
        return self.policy.table(theta)


class TestOneTablePerTheta:
    """Each oracle fetches the policy's table once per call, covering every
    theta it evaluates."""

    ORACLES = {
        "exact_performance": exact_performance,
        "enumerated_performance": enumerated_performance,
        "exact_gradient": exact_gradient,
        "enumerated_gradient": enumerated_gradient,
        "expected_gradient_estimate": lambda mdp, policy, theta: expected_gradient_estimate(
            mdp, policy, theta, EstimatorKind.GPOMDP, BaselineKind.PETERS
        ),
        "fd_gradient": fd_gradient,
        "exact_hessian": exact_hessian,
    }
    STACKED = ["exact_performance", "exact_gradient", "fd_gradient", "exact_hessian"]

    @pytest.mark.parametrize("name", list(ORACLES))
    @pytest.mark.parametrize("instance", ["binned_gaussian", "two_state"])
    def test_table_calls(self, request, instance, name):
        inst = request.getfixturevalue(instance)
        policy = CountingTables(inst.oracle_policy)
        self.ORACLES[name](inst.mdp, policy, random_theta(substream(38, 0), policy.dim))
        # the central differences evaluate two thetas per component, in one table
        thetas = 2 * policy.dim if name in ("fd_gradient", "exact_hessian") else 1
        assert (policy.calls, policy.thetas) == (1, thetas)

    @pytest.mark.parametrize("name", STACKED)
    @pytest.mark.parametrize("instance", ["binned_gaussian", "two_state"])
    def test_one_table_covers_a_stack(self, request, instance, name):
        inst = request.getfixturevalue(instance)
        policy = CountingTables(inst.oracle_policy)
        thetas = random_theta(substream(38, 1), 5 * policy.dim).reshape(5, policy.dim)
        self.ORACLES[name](inst.mdp, policy, thetas)
        per_theta = 2 * policy.dim if name in ("fd_gradient", "exact_hessian") else 1
        assert (policy.calls, policy.thetas) == (1, 5 * per_theta)


def stacked_oracles(mdp, policy, thetas) -> dict:
    """Every stacked oracle's result at ``thetas``, (m,) or (k, m)."""
    return {
        "exact_performance": exact_performance(mdp, policy, thetas),
        "exact_gradient": exact_gradient(mdp, policy, thetas),
        "fd_gradient": fd_gradient(mdp, policy, thetas),
        "exact_hessian": exact_hessian(mdp, policy, thetas),
    }


class TestStackedOracles:
    @pytest.mark.parametrize("name", ["two_state", "chain", "bandit", "binned_gaussian"])
    def test_rows_equal_single_theta_results(self, request, name):
        inst = request.getfixturevalue(name)
        mdp, policy = inst.mdp, inst.oracle_policy
        thetas = random_theta(substream(39, 0), 20 * policy.dim).reshape(20, policy.dim)
        stacked = stacked_oracles(mdp, policy, thetas)
        for i, theta in enumerate(thetas):
            single = stacked_oracles(mdp, policy, theta)
            one = stacked_oracles(mdp, policy, theta[None])
            for key, value in single.items():
                assert one[key].shape == (1, *np.shape(value))
                assert np.asarray(value).tobytes() == one[key][0].tobytes()
                assert np.asarray(value).tobytes() == stacked[key][i].tobytes(), key
            assert type(single["exact_performance"]) is float

    def test_single_theta_shapes(self, two_state):
        m = two_state.policy.dim
        results = stacked_oracles(two_state.mdp, two_state.policy, np.zeros(m))
        shapes = {key: np.shape(value) for key, value in results.items()}
        assert shapes == {
            "exact_performance": (),
            "exact_gradient": (m,),
            "fd_gradient": (m,),
            "exact_hessian": (m, m),
        }

    def test_hessian_asymmetry_names_the_row(self, two_state, monkeypatch):
        # a gradient field whose Jacobian is asymmetric where theta[0] > 5
        skew = np.array([[1.0, 2.0], [0.0, 1.0]])

        def gradient(mdp, policy, thetas):
            return np.where(thetas[:, :1] > 5.0, thetas @ skew.T, thetas)

        monkeypatch.setattr(oracle, "exact_gradient", gradient)
        thetas = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 1.0]])
        message = "^finite-difference Hessian asymmetry [0-9.]+ exceeds 1e-6"
        with pytest.raises(NumericError, match=message + " at theta row 1$"):
            exact_hessian(two_state.mdp, two_state.policy, thetas)
        with pytest.raises(NumericError, match=message + "$"):
            exact_hessian(two_state.mdp, two_state.policy, thetas[1])
        np.testing.assert_allclose(exact_hessian(two_state.mdp, two_state.policy, thetas[:1]), [np.eye(2)])


class TestBudget:
    def test_enumeration_budget_enforced(self, two_state):
        theta = np.zeros(two_state.policy.dim)
        with pytest.raises(OracleBudgetError):
            enumerated_gradient(two_state.mdp, two_state.policy, theta, budget=10)
        with pytest.raises(OracleBudgetError):
            # raised by the call itself, before any block is taken
            path_blocks(two_state.mdp, two_state.policy.table(theta).probs, budget=10)
        # dynamic programming does not enumerate paths and stays available
        exact_performance(two_state.mdp, two_state.policy, theta)

    @pytest.mark.parametrize("budget", [None, True, 0.5, 1e6, "64"])
    def test_budget_must_be_an_integer(self, two_state, budget):
        probs = two_state.policy.table(np.zeros(two_state.policy.dim)).probs
        with pytest.raises(ConfigurationError, match=rf"^budget must be an integer, got {budget!r}$"):
            path_blocks(two_state.mdp, probs, budget=budget)
        # a numpy integer is a count
        assert len(list(path_blocks(two_state.mdp, probs, budget=np.int64(64)))) > 0

    def test_chain_is_charged_its_positive_probability_paths(self, chain):
        # (S*A)^T = 6^5 = 7,776 state-action sequences, of which 232 have
        # positive probability
        theta = np.zeros(chain.policy.dim)
        assert enumerated_performance(chain.mdp, chain.oracle_policy, theta, budget=232) > 0.0
        message = "^232 paths exceed the enumeration budget of 231$"
        with pytest.raises(OracleBudgetError, match=message):
            enumerated_performance(chain.mdp, chain.oracle_policy, theta, budget=231)

    @pytest.mark.parametrize("name", ["two_state", "binned_gaussian", "chain-2x7", "underflow"])
    def test_charge_is_never_below_the_paths_walked(self, request, name):
        if name == "underflow":
            # one arm has probability ~1e-304, so the path pulling it twice
            # underflows to zero: it is charged but not walked
            mdp, policy = make_bandit([0.9, -0.7], gamma=0.9, horizon=2), uniform_policy()
            theta = np.array([-700.0])
        else:
            if name == "chain-2x7":
                inst = chain_instance(n_states=2, horizon=7)
            else:
                inst = request.getfixturevalue(name)
            mdp, policy = inst.mdp, inst.oracle_policy
            theta = random_theta(substream(35, 0), policy.dim)
        probs = policy.table(theta).probs
        walked = sum(len(block[0]) for block in path_blocks(mdp, probs))
        with pytest.raises(OracleBudgetError) as error:
            path_blocks(mdp, probs, budget=0)
        charged = int(str(error.value).split()[0])
        assert charged >= walked
        assert (charged > walked) == (name == "underflow")
        path_blocks(mdp, probs, budget=charged)

    def test_path_count_matches_combinatorics(self, two_state):
        # 2 states * 2 actions over T=3 gives 64 paths, all positive here
        blocks = list(path_blocks(two_state.mdp, two_state.policy.table(np.zeros(4)).probs))
        assert len(blocks) == 1
        probs, states, actions = blocks[0]
        assert probs.shape == (64,) and states.shape == actions.shape == (64, 3)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def long_bandit(horizon: int) -> DiscreteInstance:
    """A two-armed bandit with 2 ** horizon paths and one parameter."""
    mdp = make_bandit([0.9, -0.7], gamma=0.9, horizon=horizon)
    policy = uniform_policy()
    return DiscreteInstance(mdp=mdp, env=None, policy=policy, oracle_policy=policy)


def reference_path_sums(mdp, policy, theta):
    """(J, exact gradient, {(kind, baseline): expected estimate}) summed one
    path at a time, each path's return and score in time order, and each path
    a weighted one-row batch of the accumulator, scored step by step."""
    probs = policy_table(mdp, policy, theta).probs
    scores = np.stack(
        [[policy.score(theta, s, a) for a in range(mdp.n_actions)] for s in range(mdp.n_states)]
    )
    discounts = mdp.spec.gamma ** np.arange(mdp.spec.horizon)
    accs = {
        (kind, baseline): GradientAccumulator(policy, theta, mdp.spec.gamma, kind, baseline)
        for kind in EstimatorKind
        for baseline in BaselineKind
    }
    total, grad = 0.0, np.zeros(scores.shape[-1])
    for prob, states, actions in _walk_paths(mdp, probs):
        total += prob * sum(d * mdp.reward[s, a] for d, s, a in zip(discounts, states, actions))
        ret, score_sum = 0.0, np.zeros_like(grad)
        for d, s, a in zip(discounts, states, actions):
            ret += d * mdp.reward[s, a]
            score_sum += scores[s, a]
        grad += (prob * ret) * score_sum
        rewards = np.array([[mdp.reward[s, a] for s, a in zip(states, actions)]])
        path_scores = np.stack([policy.score(theta, s, a) for s, a in zip(states, actions)])
        weight = None if prob == 1.0 else np.array([float(prob)])
        for acc in accs.values():
            acc.add_block(rewards, path_scores[None], weight)
    return total, grad, {key: acc.finalize().vector for key, acc in accs.items()}


def bits(value) -> bytes:
    return np.asarray(value).dtype.str.encode() + np.asarray(value).tobytes()


class TestBlockedPathSums:
    """The path sums over blocks of paths equal the one-path-at-a-time sums
    bit for bit, for path counts below, at a multiple of and past the block size."""

    @pytest.mark.parametrize(
        "name, n_paths",
        [("two_state", 64), ("binned_gaussian", 216), ("chain", 232), ("bandit-T10", 1024),
         ("chain-2x7", 1458)],
    )
    def test_bit_identical_to_per_path_sums(self, request, name, n_paths):
        if name == "bandit-T10":
            inst = long_bandit(10)
        elif name == "chain-2x7":
            inst = chain_instance(n_states=2, horizon=7)
        else:
            inst = request.getfixturevalue(name)
        mdp, policy = inst.mdp, inst.oracle_policy
        rng = substream(34, n_paths)
        for _ in range(3):
            theta = random_theta(rng, policy.dim)
            sizes = [len(block[0]) for block in path_blocks(mdp, policy.table(theta).probs)]
            assert sum(sizes) == n_paths and max(sizes) <= BLOCK_ROWS
            total, grad, estimates = reference_path_sums(mdp, policy, theta)
            assert bits(enumerated_performance(mdp, policy, theta)) == bits(total)
            assert bits(enumerated_gradient(mdp, policy, theta)) == bits(grad)
            for (kind, baseline), vector in estimates.items():
                blocked = expected_gradient_estimate(mdp, policy, theta, kind, baseline)
                assert bits(blocked) == bits(vector), (kind, baseline)

    @pytest.mark.parametrize("name", ["chain", "chain-2x7"])
    def test_block_size_does_not_change_sums(self, chain, name, monkeypatch):
        inst = chain if name == "chain" else chain_instance(n_states=2, horizon=7)
        mdp, policy = inst.mdp, inst.oracle_policy
        theta = random_theta(substream(36, 0), policy.dim)

        def sums():
            values = [enumerated_performance(mdp, policy, theta)]
            values += [enumerated_gradient(mdp, policy, theta)]
            values += [
                expected_gradient_estimate(mdp, policy, theta, kind, baseline)
                for kind in EstimatorKind
                for baseline in BaselineKind
            ]
            return [bits(value) for value in values]

        default = sums()
        for rows in (1, 7):
            monkeypatch.setattr(oracle, "BLOCK_ROWS", rows)
            sizes = [len(block[0]) for block in path_blocks(mdp, policy.table(theta).probs)]
            assert max(sizes) == rows
            assert sums() == default

    def test_memory_stays_flat_in_the_path_count(self):
        # 2 ** 14 paths: one object per path held at once would take ~14 MiB,
        # a block of them takes ~1 MiB
        inst = long_bandit(14)
        mdp, policy, theta = inst.mdp, inst.policy, np.array([0.3])
        sums = {
            "enumerated_performance": lambda: enumerated_performance(mdp, policy, theta),
            "enumerated_gradient": lambda: enumerated_gradient(mdp, policy, theta),
            "expected_gradient_estimate": lambda: expected_gradient_estimate(
                mdp, policy, theta, EstimatorKind.GPOMDP, BaselineKind.PETERS
            ),
        }
        for name, path_sum in sums.items():
            tracemalloc.start()
            try:
                path_sum()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, f"{name} peaked at {peak / 2**20:.1f} MiB"


class TestGridMaximize:
    def test_quadratic_bound_argmax(self):
        lip, grad_norm = 2.0, 1.0
        alpha, n, value = grid_maximize(
            lambda a: a * grad_norm**2 - a * a * lip / 2.0 * grad_norm**2, (0.0, 1.0)
        )
        assert n is None
        assert alpha == pytest.approx(0.5, abs=1e-3)
        assert value == pytest.approx(0.25, abs=1e-6)

    def test_two_dimensional_surface(self):
        alpha, n, value = grid_maximize(
            lambda a, n: -((a - 0.3) ** 2) - ((n - 40.0) / 10.0) ** 2,
            (0.0, 1.0),
            (1.0, 100.0),
            resolution=201,
        )
        assert alpha == pytest.approx(0.3, abs=0.01)
        assert n == pytest.approx(40.0, abs=1.0)
        assert value == pytest.approx(0.0, abs=1e-3)

    def test_ties_go_to_the_first_in_row_major_order(self):
        # alphas 0, 0.25, ..., 1 and ns 1, 2, ..., 5: maxima of 1 at
        # (0.25, 3), (0.25, 5) and (0.75, 1)
        def surface(a, n):
            top = (a == 0.25) & ((n == 3.0) | (n == 5.0)) | (a == 0.75) & (n == 1.0)
            return np.where(top, 1.0, 0.0)

        assert grid_maximize(surface, (0.0, 1.0), (1.0, 5.0), resolution=5) == (0.25, 3.0, 1.0)
        line = lambda a: np.where((a == 0.25) | (a == 0.75), 1.0, 0.0)
        assert grid_maximize(line, (0.0, 1.0), resolution=5) == (0.25, None, 1.0)

    def test_tie_across_a_block_boundary_goes_to_the_first_in_row_major_order(self):
        # alphas 0, 1, ..., 32 and ns 1, 2, ..., 33: rows 15 and 16 sit on
        # either side of the first block boundary, and row 16's maximum comes
        # first by column
        assert GRID_ROWS == 16
        shapes = []

        def surface(a, n):
            shapes.append(np.broadcast(a, n).shape)
            top = (a == 15.0) & (n == 30.0) | (a == 16.0) & (n == 1.0) | (a == 32.0) & (n == 2.0)
            return np.where(top, 1.0, 0.0)

        assert grid_maximize(surface, (0.0, 32.0), (1.0, 33.0), resolution=33) == (15.0, 30.0, 1.0)
        assert shapes == [(16, 33), (16, 33), (1, 33)]

    def test_nan_row_is_passed_over(self):
        # row 1 holds the largest value but its first maximum is NaN: a
        # row-by-row search skips it, and so does the block search
        def surface(a, n):
            values = np.where((a == 0.5) & (n == 2.0), 5.0, a + n)
            return np.where((a == 0.5) & (n == 1.0), np.nan, values)

        assert grid_maximize(surface, (0.0, 1.0), (1.0, 3.0), resolution=3) == (1.0, 3.0, 4.0)

    def test_scalar_bound_accepted(self):
        assert grid_maximize(lambda a: 2.0, (0.0, 1.0)) == (0.0, None, 2.0)
        assert grid_maximize(lambda a, n: 2.0, (0.0, 1.0), (1.0, 5.0)) == (0.0, 1.0, 2.0)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            grid_maximize(lambda a: a, (1.0, 1.0))
        with pytest.raises(ValueError):
            grid_maximize(lambda a, n: a, (0.0, 1.0), (5.0, 2.0))
