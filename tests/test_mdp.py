import itertools
import math

import numpy as np
import pytest

import spgrad.mdp as mdp_module
from spgrad.errors import ConfigurationError, NumericError
from spgrad.mdp import (
    ChainConfig,
    EnumerableEnv,
    EnumerableMdp,
    Lqg1dConfig,
    Lqg1dEnv,
    MdpSpec,
    Trajectory,
    check_theta,
    make_bandit,
    make_chain,
    row_draws,
    sample_block,
    sample_trajectory,
)
from spgrad.estimators import trajectory_scores
from spgrad.policies import (
    ActionIndicatorFeatures,
    GaussianPolicy,
    PolynomialFeatures,
    SoftmaxPolicy,
    StateTabularFeatures,
    TabularFeatures,
)
from spgrad.rng import UniformRows, box_muller, inverse_cdf, substream
from spgrad.safe_updates import spg_run
from spgrad.testbeds import (
    DiscreteInstance,
    bandit_instance,
    binned_gaussian_instance,
    chain_instance,
    lqg_instance,
    two_state_instance,
)

from conftest import Scripted, iteration_generator, random_theta, record_block, scripted_rows


def uniform_two_action_policy():
    return SoftmaxPolicy(
        ActionIndicatorFeatures(), feature_bound=1.0, tau=1.0, n_actions=2, n_states=1
    )


class TestMdpSpec:
    def test_valid(self):
        spec = MdpSpec(gamma=0.9, r_max=1.0, horizon=10)
        assert spec.horizon == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=0.0, r_max=1.0, horizon=1),
            dict(gamma=1.0, r_max=1.0, horizon=1),
            dict(gamma=0.5, r_max=0.0, horizon=1),
            dict(gamma=0.5, r_max=-1.0, horizon=1),
            dict(gamma=0.5, r_max=1.0, horizon=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            MdpSpec(**kwargs)

    @pytest.mark.parametrize("horizon", [2.5, 3.0, True, "3"])
    def test_non_integer_horizon_refused(self, horizon):
        with pytest.raises(ConfigurationError, match="^horizon must be an integer, got "):
            MdpSpec(gamma=0.9, r_max=1.0, horizon=horizon)

    def test_numpy_integer_horizon_stored_as_int(self):
        spec = MdpSpec(gamma=0.9, r_max=1.0, horizon=np.int64(4))
        assert type(spec.horizon) is int and spec.horizon == 4
        # an int out of range keeps its range message
        with pytest.raises(ConfigurationError, match=r"^horizon must be in \[1, \d+\], got 0$"):
            MdpSpec(gamma=0.9, r_max=1.0, horizon=np.int64(0))

    def test_bandit_with_a_float_horizon_is_refused_before_any_run(self):
        # before, it built, nu^2 was computed at T = 2.5, and spg_run died in range()
        with pytest.raises(ConfigurationError, match="^horizon must be an integer"):
            make_bandit([1.0, 0.0], horizon=2.5)


class TestTrajectory:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros(0), np.zeros(0), np.zeros(0))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros(3), np.zeros(2), np.zeros(3))


class TestSampleTrajectory:
    def test_deterministic_unit_reward_mdp(self):
        # both arms pay 1, so the only possible reward sequence is [1, 1, 1]
        mdp = make_bandit([1.0, 1.0], gamma=0.5, horizon=3)
        traj = sample_trajectory(
            EnumerableEnv(mdp), uniform_two_action_policy(), np.zeros(1), substream(0, 0)
        )
        assert np.array_equal(traj.rewards, [1.0, 1.0, 1.0])
        assert len(traj.rewards) == 3

    def test_uniform_softmax_action_frequency(self):
        mdp = make_bandit([1.0, 0.0])
        env = EnumerableEnv(mdp)
        policy = uniform_two_action_policy()
        theta = np.zeros(1)
        n = 10_000
        hits = sum(
            int(sample_trajectory(env, policy, theta, substream(1, i)).actions[0] == 0)
            for i in range(n)
        )
        assert abs(hits / n - 0.5) <= 0.01

    def test_repeatable_with_fixed_stream(self, chain):
        theta = np.zeros(chain.policy.dim)
        first = sample_trajectory(chain.env, chain.policy, theta, substream(42, 3, 7))
        second = sample_trajectory(chain.env, chain.policy, theta, substream(42, 3, 7))
        assert np.array_equal(first.states, second.states)
        assert np.array_equal(first.actions, second.actions)
        assert np.array_equal(first.rewards, second.rewards)

    def test_theta_dimension_checked(self, chain):
        with pytest.raises(ConfigurationError):
            sample_trajectory(chain.env, chain.policy, np.zeros(2), substream(0, 0))

    @pytest.mark.parametrize("theta", [np.zeros(2), np.zeros((1, 6)), 0.0])
    def test_sampler_and_run_share_check_theta(self, chain, theta):
        with pytest.raises(ConfigurationError) as want:
            check_theta(theta, chain.policy.dim)
        shape = np.shape(theta)
        assert str(want.value) == f"theta has shape {shape}, policy expects (6,)"
        for call in (
            lambda: sample_trajectory(chain.env, chain.policy, theta, substream(0, 0)),
            lambda: spg_run(chain.env, chain.policy, theta, n_iterations=1, delta=0.5),
        ):
            with pytest.raises(ConfigurationError) as got:
                call()
            assert str(got.value) == str(want.value)

    def test_check_theta_returns_floats(self):
        theta = check_theta([1, 2], 2)
        assert theta.dtype == float and theta.tolist() == [1.0, 2.0]

    def test_length_and_reward_bound(self, chain, lqg):
        env, policy = lqg
        for setup, theta in (
            ((chain.env, chain.policy), np.zeros(chain.policy.dim)),
            ((env, policy), np.array([0.4])),
        ):
            e, p = setup
            for i in range(300):
                traj = sample_trajectory(e, p, theta, substream(9, i))
                assert len(traj.rewards) == e.spec.horizon
                assert np.max(np.abs(traj.rewards)) <= e.spec.r_max + 1e-12


class TestLqg1d:
    def test_origin_is_cost_free(self):
        env = Lqg1dEnv(Lqg1dConfig(q=1.0, c=1.0))
        _, reward = env.step(0.0, 0.0, substream(0, 0))
        assert reward == 0.0

    def test_reward_clipping(self):
        env = Lqg1dEnv(Lqg1dConfig(q=1.0, c=1.0, r_max=5.0))
        _, reward = env.step(10.0, 10.0, substream(0, 0))
        assert reward == -5.0

    def test_bad_r_max_rejected(self):
        with pytest.raises(ConfigurationError):
            Lqg1dEnv(Lqg1dConfig(r_max=0.0))

    @pytest.mark.parametrize("s_max", [0.0, -1.0, math.inf, math.nan])
    def test_bad_s_max_rejected(self, s_max):
        with pytest.raises(ConfigurationError, match="s_max"):
            Lqg1dEnv(Lqg1dConfig(s_max=s_max))

    @pytest.mark.parametrize("value", [-2.0, -1e-300, math.nan, math.inf])
    @pytest.mark.parametrize("weight", ["q", "c"])
    def test_bad_cost_weight_rejected(self, weight, value):
        # c = -2 would pay step(0.9, 1.5) a reward of +4.095 against r_max = 1
        with pytest.raises(ConfigurationError, match=f"^{weight} must be finite and non-negative"):
            Lqg1dEnv(Lqg1dConfig(**{weight: value}))

    @pytest.mark.parametrize("action", [math.nan, math.inf, -math.inf])
    def test_non_finite_action_raises(self, action):
        env = Lqg1dEnv(Lqg1dConfig())
        with pytest.raises(NumericError, match="non-finite action"):
            env.step(0.5, action, substream(0, 0))
        # the batch methods alone, each under its one error-state scope: the
        # scalar step's message and no numpy warning (the suite makes
        # warnings errors); the bad action is named among finite ones
        states, actions = np.array([0.5, 0.5]), np.array([0.25, action])
        for call in (
            lambda: env.reward_batch(states, actions),
            lambda: env.step_batch(states, actions, np.full((2, 2), 0.5)),
        ):
            with pytest.raises(NumericError, match=f"^non-finite action {action}$"):
                call()

    @pytest.mark.parametrize(
        "state, action",
        [(1e200, 0.3), (-1e200, 0.3), (0.3, 1e200), (0.3, -1.7e308), (1.7e308, 1.7e308)],
    )
    def test_overflowing_batch_steps_match_the_scalar_step(self, state, action):
        """States or actions whose squares or drift overflow give, without a
        numpy warning, the inf the scalar step's Python floats give, clipped:
        the rewards -r_max and next states at the edge of [-s_max, s_max]."""
        env = Lqg1dEnv(Lqg1dConfig())
        u = np.array([[0.3, 0.7], [0.0, 0.5]])
        states, actions = np.full(2, state), np.full(2, action)
        next_states, rewards = env.step_batch(states, actions, u)
        np.testing.assert_array_equal(env.reward_batch(states, actions), rewards)
        step = env.kernels()[1]
        expected = [step(state, action, z) for z in box_muller(u[:, 0], u[:, 1]).tolist()]
        assert next_states.tolist() == [s for s, _ in expected]
        assert rewards.tolist() == [r for _, r in expected] == [-env.spec.r_max] * 2

    def test_step_batch_clips_as_np_clip(self):
        """The drift is clipped by maximum then minimum, which keep np.clip's
        NaN and signed zeros."""
        env = Lqg1dEnv(Lqg1dConfig(a_dyn=1.0, b_dyn=1.0, noise_std=0.2))
        states = np.array([math.nan, -0.0, 0.0, -0.0, 0.7, -0.9])
        actions = np.array([0.0, -0.0, -0.0, 0.0, 0.6, -0.4])
        # u1 = 0 gives the normal 0.0 (or -0.0, where the cosine is negative)
        u = np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 0.5], [0.0, 0.0], [0.5, 0.1], [0.5, 0.6]])
        next_states, rewards = env.step_batch(states, actions, u)
        z = box_muller(u[:, 0], u[:, 1])
        expected = np.clip(states + actions + 0.2 * z, -1.0, 1.0)
        assert next_states.tobytes() == expected.tobytes()
        assert np.signbit(next_states[1]) and math.isnan(next_states[0])
        # the scalar step's comparisons give the same bits, rewards included
        step = env.kernels()[1]
        scalar = [step(s, a, v) for s, a, v in zip(states.tolist(), actions.tolist(), z.tolist())]
        assert np.array([s for s, _ in scalar]).tobytes() == expected.tobytes()
        assert np.array([r for _, r in scalar]).tobytes() == rewards.tobytes()

    def test_rewards_bounded_over_random_steps(self):
        env = Lqg1dEnv(Lqg1dConfig())
        rng = substream(7, 0)
        states = rng.uniform(-1.0, 1.0, size=100_000)
        actions = 2.0 * rng.standard_normal(100_000)
        worst = 0.0
        for s, a in zip(states, actions):
            next_state, reward = env.step(s, a, rng)
            worst = max(worst, abs(reward))
            assert abs(next_state) <= env.config.s_max
        assert worst <= env.spec.r_max


class TestChain:
    def test_rows_sum_to_one_exactly(self):
        mdp = make_chain(ChainConfig(n_states=2, slip=0.0))
        assert np.all(mdp.transition.sum(axis=-1) == 1.0)

    def test_slip_entries(self):
        mdp = make_chain(ChainConfig(n_states=5, slip=0.1))
        allowed = np.array([0.0, 0.1, 0.9, 1.0])
        gaps = np.min(np.abs(mdp.transition[..., None] - allowed), axis=-1)
        assert np.max(gaps) < 1e-12

    def test_reward_bound_tight_at_goal(self):
        mdp = make_chain(ChainConfig(n_states=4, goal_reward=1.0, step_reward=0.0))
        assert np.max(np.abs(mdp.reward)) == mdp.spec.r_max == 1.0

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            make_chain(ChainConfig(n_states=1))

    @pytest.mark.parametrize("n_states", [3.0, 2.5, True])
    def test_non_integer_state_count_refused(self, n_states):
        with pytest.raises(ConfigurationError, match="^n_states must be an integer, got "):
            make_chain(ChainConfig(n_states=n_states))

    def test_numpy_integer_state_count_stored_as_int(self):
        mdp = make_chain(ChainConfig(n_states=np.int64(3)))
        assert type(mdp.n_states) is int and mdp.n_states == 3

    def test_bad_slip_rejected(self):
        with pytest.raises(ConfigurationError):
            make_chain(ChainConfig(n_states=3, slip=1.0))


class TestEnumerableMdp:
    def test_bad_rows_rejected(self):
        # a row sum off by 0.1; a NaN transition or initial probability
        for transition, initial in (
            ([[[0.5, 0.4]], [[0.5, 0.5]]], [1.0, 0.0]),
            ([[[math.nan, 1.0]], [[0.5, 0.5]]], [1.0, 0.0]),
            ([[[0.5, 0.5]], [[0.5, 0.5]]], [math.nan, 1.0]),
        ):
            with pytest.raises(ConfigurationError):
                EnumerableMdp(
                    n_states=2,
                    n_actions=1,
                    transition=np.array(transition),
                    reward=np.zeros((2, 1)),
                    initial=np.array(initial),
                    spec=MdpSpec(0.9, 1.0, 2),
                )

    def test_reward_above_bound_rejected(self):
        for bad in (2.0, math.nan):
            with pytest.raises(ConfigurationError):
                EnumerableMdp(
                    n_states=1,
                    n_actions=2,
                    transition=np.ones((1, 2, 1)),
                    reward=np.array([[bad, 0.0]]),
                    initial=np.ones(1),
                    spec=MdpSpec(0.9, 1.0, 1),
                )

    @staticmethod
    def one_state_bandit(n_states=1, n_actions=2):
        return EnumerableMdp(
            n_states=n_states,
            n_actions=n_actions,
            transition=np.ones((1, 2, 1)),
            reward=np.array([[1.0, 0.0]]),
            initial=np.ones(1),
            spec=MdpSpec(0.9, 1.0, 1),
        )

    @pytest.mark.parametrize("field", ["n_states", "n_actions"])
    @pytest.mark.parametrize("count", [1.0, 2.0, True, 1.5, "1"])
    def test_non_integer_count_refused(self, field, count):
        # before, a float count equal to the table's shape built, and only
        # EnumerableEnv failed, with a bare TypeError
        with pytest.raises(ConfigurationError, match=f"^{field} must be an integer, got "):
            self.one_state_bandit(**{field: count})

    @pytest.mark.parametrize("field", ["n_states", "n_actions"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_refused(self, field, count):
        with pytest.raises(ConfigurationError, match=f"^{field} must be >= 1, got {count}$"):
            self.one_state_bandit(**{field: count})

    def test_numpy_integer_counts_stored_as_int(self):
        mdp = self.one_state_bandit(np.int64(1), np.int32(2))
        assert (type(mdp.n_states), type(mdp.n_actions)) == (int, int)
        assert (mdp.n_states, mdp.n_actions) == (1, 2)
        EnumerableEnv(mdp)

    def test_binned_env_requires_matching_edges(self, binned_gaussian):
        with pytest.raises(ConfigurationError):
            EnumerableEnv(binned_gaussian.mdp, bin_edges=np.array([0.0]))

    @pytest.mark.parametrize("edges", [[-0.5, math.nan], [-math.inf, 0.5], [-0.5, math.inf]])
    def test_binned_env_rejects_non_finite_edges(self, binned_gaussian, edges):
        with pytest.raises(ConfigurationError, match="finite and strictly increasing"):
            EnumerableEnv(binned_gaussian.mdp, bin_edges=np.array(edges))

    @pytest.mark.parametrize("action", [-1, 2, 7])
    def test_action_out_of_range_raises(self, chain, action):
        with pytest.raises(ValueError, match=f"action {action} out of range"):
            chain.env.step(0, action, substream(0, 0))

    def test_fractional_action_raises(self, two_state):
        env = two_state.env
        states, u = np.array([0, 1]), np.full((2, 1), 0.5)
        for action in (0.7, 1.9, -0.5):
            with pytest.raises(ValueError, match=f"action {action} out of range"):
                env.step(0, action, substream(0, 0))
        for method, args in (("step_batch", (u,)), ("reward_batch", ())):
            with pytest.raises(ValueError, match="action 0.7 out of range"):
                getattr(env, method)(states, np.array([0.7, 1.9]), *args)
            with pytest.raises(ValueError, match="action 1.5 out of range"):
                getattr(env, method)(states, np.array([1.0, 1.5]), *args)
        # integral actions of any dtype are indices
        assert env.step(0, 1.0, substream(0, 0)) == env.step(0, 1, substream(0, 0))
        for actions in (np.array([0.0, 1.0]), np.array([0, 1], dtype=np.int32)):
            assert np.array_equal(
                env.reward_batch(states, actions), env.reward_batch(states, np.array([0, 1]))
            )

    def test_binned_env_rejects_two_dimensional_edges(self, binned_gaussian):
        with pytest.raises(ConfigurationError, match=r"1-D array .* got shape \(1, 2\)"):
            EnumerableEnv(binned_gaussian.mdp, bin_edges=[[-0.5, 0.5]])

    def test_binned_action_mapping(self, binned_gaussian):
        env = binned_gaussian.env
        assert env.action_index(-0.7) == 0
        assert env.action_index(0.0) == 1
        assert env.action_index(0.9) == 2


class TestRngContract:
    def test_substream_is_order_independent(self):
        a = substream(123, 4, 5).standard_normal(8)
        _ = substream(123, 9, 9).standard_normal(3)
        b = substream(123, 4, 5).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = substream(123, 0, 0).standard_normal(8)
        b = substream(123, 0, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seed_range_checked(self):
        with pytest.raises(ConfigurationError):
            substream(-1, 0)

    def test_inverse_cdf_of_one_outcome_is_always_index_zero(self):
        u = np.array([0.0, 0.3, 1.0 - 2.0**-53, 2.0])
        got = inverse_cdf([], u)
        assert got.dtype == np.intp
        assert got.tolist() == [0, 0, 0, 0]


def generator_at(seed, k, i, width):
    """A generator at row i of iteration k's uniforms, reached without
    ``advance``: iteration k's generator from its start, its first i rows of
    ``width`` drawn in order and dropped."""
    rng = iteration_generator(seed, k)
    rng.random((i, width))
    return rng


class TestUniformRows:
    # chain (T=5): 1 + 5 * (1 + 1) = 11 draws a row; lqg (T=10): 1 + 10 * (2 + 2) = 41
    WIDTHS = {"chain": 11, "lqg": 41}

    def test_widths_of_the_chain_and_lqg_instances(self):
        chain = chain_instance()
        env, policy = lqg_instance()
        actor = chain.policy.actor(np.zeros(chain.policy.dim))
        assert row_draws(chain.env, actor) == 11
        assert row_draws(env, policy.actor(np.zeros(policy.dim))) == 41

    @pytest.mark.parametrize("width", list(WIDTHS.values()), ids=list(WIDTHS))
    @pytest.mark.parametrize("block", [1, 7, 513])
    def test_any_split_gives_the_same_rows(self, width, block):
        n = 1100
        whole = UniformRows(5, 3, width).take(0, n)
        assert whole.shape == (n, width)
        assert np.all((whole >= 0.0) & (whole < 1.0))
        parts = [UniformRows(5, 3, width).take(first, min(block, n - first))
                 for first in range(0, n, block)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        # and a split at the same points in one pass: [0, 1), [1, 7), [7, 513), [513, n)
        edges = [0, 1, 7, 513, n]
        uneven = [UniformRows(5, 3, width).take(a, b - a) for a, b in zip(edges, edges[1:])]
        np.testing.assert_array_equal(np.concatenate(uneven), whole)

    @pytest.mark.parametrize("width", list(WIDTHS.values()), ids=list(WIDTHS))
    def test_one_source_read_in_any_order(self, width):
        whole = UniformRows(5, 3, width).take(0, 1100)
        rows = UniformRows(5, 3, width)
        # on from the last read, a jump forward, a move back, a re-read, an empty read
        for first, n in [(0, 7), (7, 513), (1000, 100), (3, 20), (3, 20), (23, 0), (23, 2)]:
            np.testing.assert_array_equal(rows.take(first, n), whole[first : first + n])

    @pytest.mark.parametrize("width", list(WIDTHS.values()), ids=list(WIDTHS))
    def test_rows_written_into_a_larger_buffer(self, width):
        whole = UniformRows(5, 3, width).take(0, 1100)
        rows = UniformRows(5, 3, width)
        for first, n in [(0, 50), (50, 80), (1000, 30), (3, 0)]:
            buffer = np.full((80, width), np.nan)
            got = rows.take(first, n, buffer)
            assert got.shape == (n, width) and got.base is buffer
            np.testing.assert_array_equal(got, whole[first : first + n])
            assert np.isnan(buffer[n:]).all()
        # the default still allocates: an earlier result is not overwritten
        kept = rows.take(0, 2)
        rows.take(0, 2)
        rows.take(0, 2, np.empty((2, width)))
        np.testing.assert_array_equal(kept, whole[:2])

    @pytest.mark.parametrize("width", list(WIDTHS.values()), ids=list(WIDTHS))
    def test_row_is_the_generator_advanced_to_it(self, width):
        rows = UniformRows(2**64 - 1, 6, width).take(40, 3)
        drawn_in_order = iteration_generator(2**64 - 1, 6).random((43, width))
        for j, row in enumerate(rows):
            np.testing.assert_array_equal(row, drawn_in_order[40 + j])

    def test_distinct_addresses_differ(self):
        addresses = [(0, 0), (0, 1), (1, 0), (1, 1), (7, 3), (3, 7), (2**64 - 1, 0)]
        rows = [UniformRows(seed, k, 11).take(0, 2) for seed, k in addresses]
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                assert not np.any(rows[a] == rows[b]), (addresses[a], addresses[b])

    @pytest.mark.parametrize("seed", [0, 1, 2020, 2**64 - 1])
    def test_rows_share_no_value_with_substreams(self, seed):
        # the substreams of spg_run's iterations and of validate's sampled
        # checks: what they draw, and what iteration k's generator would give
        # on their addresses, if a path could reach the rows' address
        paths = [(k,) for k in range(4)] + [(9, idx) for idx in range(4)] + [(10,)]
        drawn = []
        for path in paths:
            stream = substream(seed, *path)
            aliased = np.random.PCG64DXSM(stream.bit_generator.seed_seq)
            drawn += [stream.random(4096), np.random.Generator(aliased).random(4096)]
        drawn = np.concatenate(drawn)
        for k in range(4):
            rows = UniformRows(seed, k, 11).take(0, 400)
            assert not np.isin(rows, drawn).any(), k

    @pytest.mark.parametrize(
        "seed, k, first",
        [(-1, 0, 0), (2**64, 0, 0), (0, -1, 0), (0, 0, -1)],
    )
    def test_address_range_checked(self, seed, k, first):
        with pytest.raises(ConfigurationError):
            UniformRows(seed, k, 11).take(first, 1)


class TestBoxMuller:
    def test_finite_at_the_ends_of_the_unit_interval(self):
        ends = np.array([0.0, 1.0 - 2.0**-53])
        u1, u2 = np.meshgrid(ends, ends)
        z = box_muller(u1.ravel(), u2.ravel())
        assert np.all(np.isfinite(z))
        assert z[0] == 0.0  # u1 = 0 gives radius 0
        assert np.max(np.abs(z)) == pytest.approx(math.sqrt(106.0 * math.log(2.0)))

    def test_standard_normal_moments(self):
        n = 100_000
        u = UniformRows(31, 0, 2).take(0, n)
        z = box_muller(u[:, 0], u[:, 1])
        # about five standard errors: sd(mean) = 1/sqrt(n) = 0.0032,
        # sd(variance) = sqrt(2/n) = 0.0045
        assert abs(z.mean()) <= 0.016
        assert abs(z.var() - 1.0) <= 0.023


class TestBlockMatchesScalarPath:
    """On uniform-only pairs, row i of ``sample_block`` is the episode
    ``sample_trajectory`` rolls out on a generator at row i, bit for bit."""

    SETUPS = {"bandit": bandit_instance, "chain": chain_instance, "two-state": two_state_instance}

    @pytest.mark.parametrize("name", list(SETUPS))
    def test_rows_equal_scalar_episodes(self, name):
        inst = self.SETUPS[name]()
        env, policy = inst.env, inst.policy
        theta = random_theta(substream(62, 0), policy.dim, scale=2.0)
        actor = policy.actor(theta)
        width = row_draws(env, actor)
        seed, k, first, n = 9, 2, 30, 200
        rewards, scores = record_block(env, actor, UniformRows(seed, k, width).take(first, n))
        assert rewards.shape == (n, env.spec.horizon)
        for i in range(n):
            traj = sample_trajectory(env, policy, theta, generator_at(seed, k, first + i, width))
            np.testing.assert_array_equal(rewards[i], traj.rewards)
            np.testing.assert_array_equal(scores[i], trajectory_scores(traj, policy, theta))

    @pytest.mark.parametrize("name", ["chain", "lqg"])
    def test_steps_share_one_score_slab(self, name):
        # every step is handed over in order, its scores in the one (n, m)
        # array that every step rewrites; copied as they come, the steps are
        # the rows' episodes, bit for bit (``record_block`` copies them too)
        if name == "lqg":
            env, policy = lqg_instance()
        else:
            inst = chain_instance()
            env, policy = inst.env, inst.policy
        theta = random_theta(substream(64, 0), policy.dim, scale=2.0)
        actor = policy.actor(theta)
        draws = UniformRows(5, 0, row_draws(env, actor)).take(0, 50)
        steps, slabs = [], []

        def consume(t, rewards, scores):
            steps.append((t, rewards.copy(), scores.copy()))
            slabs.append(scores)

        sample_block(env, actor, draws, consume)
        assert [t for t, _, _ in steps] == list(range(env.spec.horizon))
        assert all(slab is slabs[0] and slab.shape == (50, policy.dim) for slab in slabs)
        rewards = np.stack([r for _, r, _ in steps], axis=1)
        scores = np.stack([c for _, _, c in steps], axis=1)
        assert_rows_equal_per_step_episodes(env, policy, theta, actor, draws, rewards, scores)

    def test_wrong_width_rejected(self):
        inst = chain_instance()
        actor = inst.policy.actor(np.zeros(inst.policy.dim))
        with pytest.raises(ValueError, match="expected"):
            record_block(inst.env, actor, UniformRows(0, 0, 10).take(0, 4))


def assert_rows_equal_per_step_episodes(env, policy, theta, actor, draws, rewards, scores):
    """Row i of a block's rewards and scores is, bit for bit, the episode
    that a per-step loop of ``env.reset``/``step`` and the scalar
    ``sample_action`` and ``score`` gives on row i's stand-in generator."""
    for i, rng in enumerate(scripted_rows(env, actor, draws)):
        state = env.reset(rng)
        for t in range(env.spec.horizon):
            action = policy.sample_action(theta, state, rng)
            np.testing.assert_array_equal(scores[i, t], policy.score(theta, state, action))
            state, reward = env.step(state, action, rng)
            assert rewards[i, t] == reward


class CountingPolynomialFeatures(PolynomialFeatures):
    """Polynomial features that record the length of every ``batch`` call."""

    def __init__(self, degree=1):
        super().__init__(degree)
        self.batch_sizes = []

    def batch(self, states):
        self.batch_sizes.append(len(states))
        return super().batch(states)


class TestGaussianBlockMatchesPerStepLoop:
    """Row i of ``sample_block`` with a Gaussian policy is the episode that a
    per-step loop of ``env.reset``/``step`` and the scalar ``sample_action``
    and ``score`` gives, bit for bit, on a stand-in generator that serves
    row i's uniforms and the normals ``box_muller`` makes of its column pairs."""

    SETUPS = {"lqg": lqg_instance, "binned-gaussian": binned_gaussian_instance}

    @pytest.mark.parametrize("name", list(SETUPS))
    def test_rows_equal_per_step_episodes(self, name):
        built = self.SETUPS[name]()
        env, policy = built if name == "lqg" else (built.env, built.policy)
        theta = random_theta(substream(63, 0), policy.dim, scale=2.0)
        actor = policy.actor(theta)
        draws = UniformRows(11, 1, row_draws(env, actor)).take(40, 300)
        rewards, scores = record_block(env, actor, draws)
        assert rewards.shape == (300, env.spec.horizon)
        assert scores.shape == (300, env.spec.horizon, policy.dim)
        assert_rows_equal_per_step_episodes(env, policy, theta, actor, draws, rewards, scores)

    def test_one_feature_pass_per_step(self):
        env, _ = lqg_instance()
        features = CountingPolynomialFeatures()
        actor = GaussianPolicy(features, feature_bound=1.0, sigma=0.5).actor(np.array([0.4]))
        record_block(env, actor, UniformRows(3, 0, row_draws(env, actor)).take(0, 64))
        assert features.batch_sizes == [64] * env.spec.horizon


class CountingEnv:
    """An environment that counts its ``step_batch`` and ``reward_batch``
    calls and passes every other attribute through."""

    def __init__(self, env):
        self.env = env
        self.calls = {"step_batch": 0, "reward_batch": 0}

    def __getattr__(self, name):
        return getattr(self.env, name)

    def step_batch(self, states, actions, u):
        self.calls["step_batch"] += 1
        return self.env.step_batch(states, actions, u)

    def reward_batch(self, states, actions):
        self.calls["reward_batch"] += 1
        return self.env.reward_batch(states, actions)


class TestNoStateAfterTheHorizon:
    """``sample_block`` draws a next state after steps 0 .. T-2 only; the
    last step takes its rewards from ``reward_batch``.  The rows are still
    the per-step episodes, which also step after the last action."""

    SETUPS = {
        "bandit": bandit_instance,
        "chain": chain_instance,
        "two-state": two_state_instance,
        "binned-gaussian": binned_gaussian_instance,
        "lqg": lqg_instance,
    }

    @pytest.mark.parametrize("name", list(SETUPS))
    def test_last_step_draws_rewards_only(self, name):
        built = self.SETUPS[name]()
        env, policy = built if name == "lqg" else (built.env, built.policy)
        counting = CountingEnv(env)
        theta = random_theta(substream(65, 0), policy.dim, scale=2.0)
        actor = policy.actor(theta)
        draws = UniformRows(13, 2, row_draws(env, actor)).take(7, 150)
        rewards, scores = record_block(counting, actor, draws)
        horizon = env.spec.horizon
        assert counting.calls == {"step_batch": horizon - 1, "reward_batch": 1}
        if name == "bandit":
            assert horizon == 1  # no transition at all
        assert_rows_equal_per_step_episodes(env, policy, theta, actor, draws, rewards, scores)


def searchsorted_draw(cum, u) -> int:
    """``np.searchsorted(cum, u, side="right")``, clamped to the last index."""
    return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)


def short_row_instance() -> DiscreteInstance:
    """Two states whose initial and transition CDFs end 5e-13 below 1, so a
    uniform above the end counts every state and is clamped to the last."""
    gap = 5e-13
    transition = np.array(
        [[[0.25, 0.75 - gap], [0.5, 0.5 - gap]], [[0.75, 0.25 - gap], [1.0 - gap, 0.0]]]
    )
    mdp = EnumerableMdp(
        n_states=2,
        n_actions=2,
        transition=transition,
        reward=np.array([[0.1, -0.2], [0.3, -0.4]]),
        initial=np.array([0.5, 0.5 - gap]),
        spec=MdpSpec(gamma=0.9, r_max=1.0, horizon=3),
    )
    policy = SoftmaxPolicy(
        TabularFeatures(2, 2), feature_bound=1.0, tau=1.0, n_actions=2, n_states=2
    )
    return DiscreteInstance(mdp=mdp, env=EnumerableEnv(mdp), policy=policy, oracle_policy=policy)


class TestBlockDrawsOnCdfSteps:
    """Uniforms equal to a cumulative probability, uniforms above a CDF's
    end, and actions on a bin edge give, in the block path, the index that a
    per-row ``np.searchsorted(..., side="right")`` clamped to the last index
    gives."""

    SETUPS = {
        "two-state": two_state_instance,
        "bandit": bandit_instance,
        "chain": chain_instance,
        "short-rows": short_row_instance,
    }
    TOP = 1.0 - 2.0**-53  # the largest uniform in [0, 1)

    @pytest.mark.parametrize("name", list(SETUPS))
    def test_sample_block_rows(self, name):
        inst = self.SETUPS[name]()
        env, policy, mdp = inst.env, inst.policy, inst.mdp
        theta = np.zeros(policy.dim)  # probabilities 1/2, whose CDF ends at 1 exactly
        actor = policy.actor(theta)
        cum_initial = np.cumsum(mdp.initial)
        cum_next = np.cumsum(mdp.transition, axis=-1)
        cum_pi = [np.cumsum(policy.action_probabilities(theta, s)) for s in range(env.n_states)]
        steps = {u for c in [cum_initial, cum_next, *cum_pi] for u in c.ravel().tolist()}
        uniforms = sorted({u for u in steps if u < 1.0} | {0.0, self.TOP})
        width, size = row_draws(env, actor), len(uniforms)
        # every column meets every uniform, next to a different one in each pass
        draws = np.array(
            [
                [uniforms[(i + j * (1 + i // size)) % size] for j in range(width)]
                for i in range(4 * size)
            ]
        )
        rewards, scores = record_block(env, actor, draws)
        hits = {"action": 0, "transition": 0}
        for i, row in enumerate(draws):
            state = searchsorted_draw(cum_initial, row[0])
            for t in range(mdp.spec.horizon):
                u_action, u_next = row[1 + 2 * t], row[2 + 2 * t]
                cum = cum_pi[state]
                action = searchsorted_draw(cum, u_action * cum[-1])
                # (state, action) is pinned down by the score: each pair has its own
                np.testing.assert_array_equal(scores[i, t], policy.score(theta, state, action))
                assert rewards[i, t] == mdp.reward[state, action]
                hits["action"] += u_action * cum[-1] in cum
                hits["transition"] += u_next in cum_next[state, action]
                state = searchsorted_draw(cum_next[state, action], u_next)
        assert hits["action"] > 0
        assert hits["transition"] > 0 or env.n_states == 1  # one state has no step

    def test_step_batch_on_bin_edges(self):
        inst = binned_gaussian_instance()
        env, mdp = inst.env, inst.mdp
        cum_next = np.cumsum(mdp.transition, axis=-1)
        uniforms = sorted({u for u in cum_next.ravel().tolist() if u < 1.0} | {0.0, self.TOP})
        edges = env.bin_edges.tolist()
        below = [math.nextafter(e, -math.inf) for e in edges]
        above = [math.nextafter(e, math.inf) for e in edges]
        values = edges + below + above + [-2.0, 0.0, 2.0]
        grid = list(itertools.product(range(mdp.n_states), values, uniforms))
        states, actions, u = (np.array(column) for column in zip(*grid))
        next_states, rewards = env.step_batch(states, actions, u[:, None])
        for i, (state, action, v) in enumerate(grid):
            a = int(np.searchsorted(env.bin_edges, action, side="right"))
            assert rewards[i] == mdp.reward[state, a]
            assert next_states[i] == searchsorted_draw(cum_next[state, a], v)


# The scalar steps as numpy calls on one value each, written out here as the
# reference for the shipped Python-float forms.


def numpy_reset(env, rng):
    if isinstance(env, Lqg1dEnv):
        return float(rng.uniform(-env.config.s_max, env.config.s_max))
    cum = np.cumsum(env.mdp.initial)
    return min(int(np.searchsorted(cum, rng.random(), side="right")), cum.size - 1)


def numpy_step(env, state, action, rng):
    if isinstance(env, Lqg1dEnv):
        cfg, s, a = env.config, float(state), float(action)
        assert np.isfinite(a)
        reward = -min(cfg.q * s * s + cfg.c * a * a, cfg.r_max)
        drift = cfg.a_dyn * s + cfg.b_dyn * a + cfg.noise_std * rng.standard_normal()
        return float(np.clip(drift, -cfg.s_max, cfg.s_max)), reward
    s = int(state)
    if env.bin_edges is None:
        a = int(action)
    else:
        a = int(np.searchsorted(env.bin_edges, float(action), side="right"))
    cum = np.cumsum(env.mdp.transition, axis=-1)[s, a]
    next_state = min(int(np.searchsorted(cum, rng.random(), side="right")), cum.size - 1)
    return next_state, float(env.mdp.reward[s, a])


def log_softmax(policy, theta, state) -> np.ndarray:
    """log pi(. | state) from the features, unmemoised, so a stale memo in
    the policy cannot leak into the reference."""
    phi = np.array([policy.features(state, a) for a in range(policy.n_actions)], dtype=float)
    z = phi @ np.asarray(theta, dtype=float) / policy.tau
    z = z - np.max(z)
    return z - math.log(float(np.sum(np.exp(z))))


def numpy_action(policy, theta, state, rng):
    if isinstance(policy, SoftmaxPolicy):
        cum = np.cumsum(np.exp(log_softmax(policy, theta, state)))
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return min(idx, policy.n_actions - 1)
    phi = np.asarray(policy.features(state), dtype=float)
    assert float(np.linalg.norm(phi)) <= policy.feature_bound + 1e-9
    mean = 0.0
    for t, p in zip(theta.tolist(), phi.tolist()):
        mean += t * p
    return mean + policy.sigma * rng.standard_normal()


def numpy_trajectory(env, policy, theta, rng):
    states, actions, rewards = [], [], []
    state = numpy_reset(env, rng)
    for _ in range(env.spec.horizon):
        action = numpy_action(policy, theta, state, rng)
        next_state, reward = numpy_step(env, state, action, rng)
        states.append(state)
        actions.append(action)
        rewards.append(reward)
        state = next_state
    return np.asarray(states), np.asarray(actions), np.asarray(rewards, dtype=float)


def assert_same_episode(traj, reference):
    for got, want in zip((traj.states, traj.actions, traj.rewards), reference):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# a feature bound whose 1e-12 slack, (b + 1e-9) * (1 - 1e-12) < |x| <= b + 1e-9, holds 1.0
SLACK_BOUND = 1.0 - 1e-9 + 5e-13


def lqg_with(features, feature_bound):
    """The lqg instance's environment and sigma under another feature map."""
    env, policy = lqg_instance()
    return env, GaussianPolicy(features, feature_bound=feature_bound, sigma=policy.sigma)


class TestScalarRolloutMatchesNumpyReference:
    """``sample_trajectory`` equals the numpy formulation of every scalar step,
    states, actions and rewards bit for bit and with the same dtypes."""

    SETUPS = {
        "two-state": two_state_instance,
        "bandit": bandit_instance,
        "chain": chain_instance,
        "binned-gaussian": binned_gaussian_instance,
        "lqg": lqg_instance,
        # the closed-form act at another scale, and at a bound whose slack
        # holds the clipped states +-1.0, which np.linalg.norm then decides
        "lqg-scaled": lambda: lqg_with(PolynomialFeatures(1, scale=0.7), 1.0),
        "lqg-slack": lambda: lqg_with(PolynomialFeatures(1), SLACK_BOUND),
        # the general act, feature by feature
        "lqg-quadratic": lambda: lqg_with(PolynomialFeatures(2), 1.5),
    }

    def env_and_policy(self, name):
        built = self.SETUPS[name]()
        return built if name.startswith("lqg") else (built.env, built.policy)

    @pytest.mark.parametrize("name", list(SETUPS))
    @pytest.mark.parametrize("scale", [0.0, 1.5])
    def test_episodes_on_substreams(self, name, scale):
        env, policy = self.env_and_policy(name)
        if name.startswith("lqg"):
            theta = np.full(policy.dim, 0.5 - 1.2 * scale)
        else:
            theta = scale * np.linspace(-1.0, 0.6, policy.dim)
        for i in range(200):
            traj = sample_trajectory(env, policy, theta, substream(71, i))
            assert_same_episode(traj, numpy_trajectory(env, policy, theta, substream(71, i)))

    @pytest.mark.parametrize("name", ["two-state", "bandit", "chain"])
    def test_softmax_log_pdf_is_the_reference_log_softmax(self, name):
        _, policy = self.env_and_policy(name)
        rng = substream(75, len(name))
        for scale in (0.5, 3.0, 20.0):
            for _ in range(10):
                theta = scale * rng.standard_normal(policy.dim)
                for s in range(policy.n_states):
                    got = [policy.log_pdf(theta, s, a) for a in range(policy.n_actions)]
                    assert np.array(got).tobytes() == log_softmax(policy, theta, s).tobytes()

    @pytest.mark.parametrize("name", list(SETUPS))
    def test_generator_state_after_an_episode(self, name):
        """The episode's variates drawn up front, a run of like ones per call,
        leave the generator where drawing them one at a time leaves it; a
        wrongly declared kind (binned-gaussian alternates normals and
        uniforms) would not."""
        env, policy = self.env_and_policy(name)
        theta = 1.5 * np.linspace(-1.0, 0.6, policy.dim)
        for i in range(100):
            rng, reference = substream(73, i), substream(73, i)
            sample_trajectory(env, policy, theta, rng)
            numpy_trajectory(env, policy, theta, reference)
            assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("theta", [0.0, -0.0])
    def test_signed_zero_means(self, theta):
        """A zero product theta_0 x (-0.0 from theta 0 at a negative state,
        or from theta -0.0 at a positive one) enters the mean as
        0.0 + theta_0 x, which is +0.0; an action of z = -0.0 is then +0.0."""
        env, policy = lqg_instance()
        theta = np.array([theta])
        # initial states -0.8, -0.5, 0.0 and 0.4, which a zero mean and
        # z = +-0.0 keep; three normals, so the actions get both zeros
        for uniform in (0.1, 0.25, 0.5, 0.7):
            for first in range(3):
                normals = [0.0, -0.0, -0.0][first:] + [0.0, -0.0, -0.0][:first]
                traj = sample_trajectory(env, policy, theta, Scripted([uniform], normals))
                reference = numpy_trajectory(env, policy, theta, Scripted([uniform], normals))
                assert_same_episode(traj, reference)
                assert not np.signbit(reference[1]).any()

    def test_non_finite_action_raises_past_the_whole_episode(self):
        """A Gaussian action that overflows still raises the environment's
        NumericError; the generator is then past all 1 + 2T of the episode's
        variates, as every episode leaves it."""
        env, _ = lqg_instance()
        # |sigma * z| overflows for |z| > 1.797, about one action in 14
        policy = GaussianPolicy(PolynomialFeatures(1), feature_bound=1.0, sigma=1e308)
        raised = 0
        for i in range(20):
            rng, reference = substream(74, i), substream(74, i)
            try:
                sample_trajectory(env, policy, np.zeros(1), rng)
            except NumericError as error:
                assert str(error).startswith("non-finite action")
                raised += 1
            reference.random()
            reference.standard_normal(2 * env.spec.horizon)
            assert rng.bit_generator.state == reference.bit_generator.state
        assert raised > 0

    def test_alternating_thetas_from_the_same_state(self):
        # the chain starts in state 0, so each episode asks the memo for
        # state 0 at a theta other than the last one seen
        inst = chain_instance()
        thetas = [np.zeros(inst.policy.dim), np.linspace(-2.0, 2.0, inst.policy.dim)]
        for i in range(200):
            theta = thetas[i % 2]
            traj = sample_trajectory(inst.env, inst.policy, theta, substream(72, i))
            assert_same_episode(
                traj, numpy_trajectory(inst.env, inst.policy, theta, substream(72, i))
            )

    @pytest.mark.parametrize("name", ["two-state", "bandit", "chain", "binned"])
    def test_draws_on_a_cdf_step(self, name):
        """Uniforms equal to a cumulative probability, and actions on a bin
        edge, go to the next index, as ``side="right"`` does."""
        if name == "binned":
            inst = binned_gaussian_instance()
            # sigma 0.5 puts the actions 0.5 * z exactly on the edges -0.5 and 0.5
            env = EnumerableEnv(inst.mdp, bin_edges=np.array([-0.5, 0.5]))
            policy = GaussianPolicy(StateTabularFeatures(2), feature_bound=1.0, sigma=0.5)
        else:
            env, policy = self.env_and_policy(name)
        theta = np.zeros(policy.dim)
        cdfs = [np.cumsum(env.mdp.transition, axis=-1), np.cumsum(env.mdp.initial)]
        if isinstance(policy, SoftmaxPolicy):
            cdfs += [np.cumsum(policy.action_probabilities(theta, s)) for s in range(env.n_states)]
        uniforms = sorted({u for c in cdfs for u in c.ravel().tolist() if u < 1.0} | {0.0, 0.33})
        normals = [-1.0, 1.0, 0.0, 0.3]
        for i in range(60):
            shift = i % len(uniforms)
            script = uniforms[shift:] + uniforms[:shift]
            traj = sample_trajectory(env, policy, theta, Scripted(script, normals))
            assert_same_episode(
                traj, numpy_trajectory(env, policy, theta, Scripted(script, normals))
            )


class TestScalarKernelIndices:
    """The scalar env step and Softmax act take a state by ``check_index``'s
    rule, where ``int()`` used to wrap -1 to the last row, truncate 1.9 to
    1 and let ``n_states`` raise a bare IndexError."""

    BAD_STATES = [-1, 1.9, "n_states", math.nan]

    def bad_states(self, n_states):
        return [n_states if s == "n_states" else s for s in self.BAD_STATES]

    @pytest.mark.parametrize("name", ["chain", "binned_gaussian"])
    def test_env_step_refuses_a_bad_state(self, request, name):
        env = request.getfixturevalue(name).env
        action = 0 if env.bin_edges is None else 0.3
        step = env.kernels()[1]
        for state in self.bad_states(env.n_states):
            pattern = rf"^state {state} out of range \[0, {env.n_states}\)$"
            with pytest.raises(ValueError, match=pattern):
                env.step(state, action, substream(0, 0))
            with pytest.raises(ValueError, match=pattern):
                step(state, action, 0.5)

    @pytest.mark.parametrize("name", ["chain", "binned_gaussian"])
    def test_env_step_takes_integral_states(self, request, name):
        env = request.getfixturevalue(name).env
        action = 1 if env.bin_edges is None else 0.3
        want = env.step(1, action, substream(0, 0))
        for state in (np.int64(1), 1.0, True):
            assert env.step(state, action, substream(0, 0)) == want

    def test_softmax_act_refuses_a_bad_state(self, chain):
        policy = chain.policy
        theta = random_theta(substream(15, 0), policy.dim)
        act = policy.action_kernel(theta)
        for state in self.bad_states(policy.n_states):
            pattern = rf"^state {state} out of range \[0, {policy.n_states}\)$"
            with pytest.raises(ValueError, match=pattern):
                policy.sample_action(theta, state, substream(0, 0))
            with pytest.raises(ValueError, match=pattern):
                act(state, 0.5)

    def test_softmax_act_takes_integral_states(self, chain):
        policy = chain.policy
        theta = random_theta(substream(15, 1), policy.dim)
        act = policy.action_kernel(theta)
        for u in np.linspace(0.0, 0.99, 12).tolist():
            want = act(1, u)
            assert act(np.int64(1), u) == act(1.0, u) == want


class PlainPolynomial(PolynomialFeatures):
    """PolynomialFeatures under another type: the Gaussian act takes its
    general path on the same feature values."""


def act_outcome(act, state, z):
    """The bits of ``act(state, z)``, or the type and message of its error."""
    try:
        return np.array(act(state, z)).tobytes()
    except (ConfigurationError, NumericError, ValueError) as error:
        return type(error), str(error)


class TestClosedFormGaussianAct:
    """On a one-feature ``PolynomialFeatures`` map the Gaussian act is
    written in closed form; it gives the general path's bits, or raises
    the general path's error with its message."""

    @pytest.mark.parametrize("bound", [0.5, SLACK_BOUND, 4.0])
    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_closed_form_equals_the_general_path(self, bound, scale):
        closed = GaussianPolicy(PolynomialFeatures(1, scale=scale), bound, sigma=0.5)
        general = GaussianPolicy(PlainPolynomial(1, scale=scale), bound, sigma=0.5)
        near = (bound + 1e-9) * (1.0 - 1e-12)
        # x on both sides of the screen and of the bound, a norm past the
        # bound, a mean past the float range at theta = +-1e308, inf and NaN
        xs = [near, math.nextafter(near, 2.0 * near), bound + 1e-9]
        xs += [math.nextafter(xs[-1], 2.0 * near), 0.0, 0.3, 1.0, 2.0, 3.9, math.inf, math.nan]
        states = [sign * x / scale for x in xs for sign in (1.0, -1.0)] + [np.float64(-0.3), 1]
        seen = set()
        for theta in ([0.0], [-0.0], [0.5], [-1.3], [1e308], [-1e308], [0.5, 0.5]):
            acts = closed.action_kernel(np.array(theta)), general.action_kernel(np.array(theta))
            for state in states:
                for z in (0.0, -0.0, 1.3):
                    outcome = act_outcome(acts[0], state, z)
                    assert outcome == act_outcome(acts[1], state, z)
                    seen.add(outcome[0] if isinstance(outcome, tuple) else bytes)
        assert seen == {bytes, ConfigurationError, NumericError, ValueError}

    def test_feature_values_only_for_flagged_states(self, monkeypatch):
        """200 lqg episodes call no ``PolynomialFeatures.values``, but for
        the states the screen flags, or on the general path."""
        calls = []
        values = PolynomialFeatures.values

        def counted(features, state):
            calls.append(state)
            return values(features, state)

        monkeypatch.setattr(PolynomialFeatures, "values", counted)
        horizon = lqg_instance()[0].spec.horizon
        setups = {  # name -> (map, bound, the states whose values are read)
            "lqg": (PolynomialFeatures(1), 1.0, lambda s: False),
            "lqg-slack": (PolynomialFeatures(1), SLACK_BOUND, lambda s: abs(s) == 1.0),
            "lqg-quadratic": (PolynomialFeatures(2), 1.5, lambda s: True),
        }
        for name, (features, bound, read) in setups.items():
            env, policy = lqg_with(features, bound)
            theta = np.full(policy.dim, 0.5)
            del calls[:]
            episodes = [sample_trajectory(env, policy, theta, substream(80, i)) for i in range(200)]
            states = [s for traj in episodes for s in traj.states.tolist()]
            assert calls == [s for s in states if read(s)], name
            assert (len(calls) > 0) == (name != "lqg")
        assert len(states) == 200 * horizon


class CountingCalls:
    """Counts the calls of ``env.kernels`` and ``policy.action_kernel``
    made through instance attributes that wrap the methods."""

    def __init__(self, monkeypatch, env, policy):
        self.calls = {"kernels": 0, "action_kernel": 0}
        for owner, name in ((env, "kernels"), (policy, "action_kernel")):
            monkeypatch.setattr(owner, name, self.counted(name, getattr(owner, name)))

    def counted(self, name, method):
        def call(*args):
            self.calls[name] += 1
            return method(*args)

        return call


class TestSamplerBinding:
    """``sample_trajectory`` resolves its kernels once per (env, policy,
    theta) and rebinds on any other; a call after a rebinding equals a
    freshly bound call bit for bit."""

    def setups(self):
        chain = chain_instance()
        env, policy = lqg_instance()
        return {
            "chain": (chain.env, chain.policy, np.linspace(-1.0, 1.0, chain.policy.dim)),
            "lqg": (env, policy, np.array([0.4])),
        }

    @staticmethod
    def fresh(monkeypatch, env, policy, theta, rng):
        """The episode of a call with no binding kept."""
        monkeypatch.setattr(mdp_module, "_bound", None)
        return sample_trajectory(env, policy, theta, rng)

    @pytest.mark.parametrize("name", ["chain", "lqg"])
    def test_one_binding_for_many_calls(self, monkeypatch, name):
        env, policy, theta = self.setups()[name]
        counter = CountingCalls(monkeypatch, env, policy)
        episodes = [sample_trajectory(env, policy, theta, substream(76, i)) for i in range(200)]
        assert counter.calls == {"kernels": 1, "action_kernel": 1}
        for i, traj in enumerate(episodes):
            assert_same_episode(traj, numpy_trajectory(env, policy, theta, substream(76, i)))

    @pytest.mark.parametrize("name", ["chain", "lqg"])
    @pytest.mark.parametrize("change", ["new-theta", "theta-in-place", "other-env", "other-policy"])
    def test_any_other_setup_rebinds(self, monkeypatch, name, change):
        env, policy, theta = self.setups()[name]
        theta = theta.copy()
        sample_trajectory(env, policy, theta, substream(77, 0))
        # an equal env or policy built anew: the same construction, another object
        other_env, other_policy, _ = self.setups()[name]
        if change == "new-theta":
            theta = theta + 0.25
        elif change == "theta-in-place":
            theta += 0.25
        elif change == "other-env":
            env = other_env
        else:
            policy = other_policy
        counter = CountingCalls(monkeypatch, env, policy)
        rng, reference = substream(77, 1), substream(77, 1)
        traj = sample_trajectory(env, policy, theta, rng)
        assert counter.calls == {"kernels": 1, "action_kernel": 1}
        assert_same_episode(traj, astuple(self.fresh(monkeypatch, env, policy, theta, reference)))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_interleaved_setups_match_each_alone(self, monkeypatch):
        """Alternating two setups call by call, as validate's checks
        alternate between theirs, gives each setup's own episodes."""
        setups = list(self.setups().values())
        alone = []
        for k, (env, policy, theta) in enumerate(setups):
            monkeypatch.setattr(mdp_module, "_bound", None)
            rng = substream(78, k)
            alone.append([astuple(sample_trajectory(env, policy, theta, rng)) for _ in range(50)])
        rngs = [substream(78, k) for k in range(len(setups))]
        for i in range(50):
            for k, (env, policy, theta) in enumerate(setups):
                assert_same_episode(sample_trajectory(env, policy, theta, rngs[k]), alone[k][i])

    @pytest.mark.parametrize("name", ["chain", "lqg"])
    def test_wrong_theta_shape_raises_before_any_draw(self, name):
        env, policy, theta = self.setups()[name]
        for bad in (np.zeros(policy.dim + 1), np.zeros((1, policy.dim))):
            for bound_first in (False, True):
                if bound_first:  # right after a successful call on the same setup
                    sample_trajectory(env, policy, theta, substream(79, 0))
                rng = substream(79, 1)
                before = rng.bit_generator.state
                with pytest.raises(ConfigurationError, match="theta has shape"):
                    sample_trajectory(env, policy, bad, rng)
                assert rng.bit_generator.state == before


def astuple(traj) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    return traj.states, traj.actions, traj.rewards
