import warnings

import numpy as np
import pytest

from spgrad.errors import ConfigurationError, NumericError
from spgrad.estimators import (
    BaselineKind,
    EstimatorKind,
    GradientAccumulator,
    GradientEstimate,
    TermFold,
    error_bound,
    trajectory_scores,
    variance_bound,
)
from spgrad.mdp import MdpSpec, Trajectory, sample_trajectory
from spgrad.oracle import exact_gradient, expected_gradient_estimate
from spgrad.policies import ActionIndicatorFeatures, GaussianPolicy, PolynomialFeatures, SoftmaxPolicy
from spgrad.rng import substream
from spgrad.testbeds import chain_instance

from conftest import random_theta


def bandit_trajectory(action: int, reward: float) -> Trajectory:
    return Trajectory(np.array([0]), np.array([action]), np.array([reward]))


def bandit_policy() -> SoftmaxPolicy:
    return SoftmaxPolicy(
        ActionIndicatorFeatures(), feature_bound=1.0, tau=1.0, n_actions=2, n_states=1
    )


def estimate(batch, policy, theta, gamma, kind, baseline=BaselineKind.ZERO) -> np.ndarray:
    """The accumulator's estimate over ``batch``, added one trajectory at a time."""
    acc = GradientAccumulator(policy, theta, gamma, kind, baseline)
    for traj in batch:
        acc.add_trajectory(traj)
    return acc.finalize().vector


class TestBanditExpectation:
    """Hand enumeration of the two-armed bandit at theta = 0.

    Both arms have probability 1/2, rewards are 1 and 0, scores are +-1/2,
    so the expected single-trajectory estimate is 0.5 * 1 * 0.5 = 0.25.
    """

    def test_reinforce(self):
        policy = bandit_policy()
        theta = np.zeros(1)
        estimates = [
            estimate([bandit_trajectory(0, 1.0)], policy, theta, 0.5, EstimatorKind.REINFORCE),
            estimate([bandit_trajectory(1, 0.0)], policy, theta, 0.5, EstimatorKind.REINFORCE),
        ]
        np.testing.assert_allclose(0.5 * estimates[0] + 0.5 * estimates[1], [0.25])

    def test_gpomdp_equals_reinforce_at_horizon_one(self):
        policy = bandit_policy()
        theta = np.zeros(1)
        batch = [bandit_trajectory(0, 1.0), bandit_trajectory(1, 0.0), bandit_trajectory(0, 1.0)]
        for baseline in BaselineKind:
            r = estimate(batch, policy, theta, 0.5, EstimatorKind.REINFORCE, baseline)
            g = estimate(batch, policy, theta, 0.5, EstimatorKind.GPOMDP, baseline)
            np.testing.assert_array_equal(r, g)


class TestDegenerateBatches:
    def test_zero_rewards_give_zero_vector(self):
        policy = bandit_policy()
        batch = [bandit_trajectory(0, 0.0), bandit_trajectory(1, 0.0)]
        for kind in EstimatorKind:
            np.testing.assert_array_equal(estimate(batch, policy, np.zeros(1), 0.5, kind), [0.0])

    def test_identical_trajectories_average_to_single(self):
        policy = bandit_policy()
        kind = EstimatorKind.REINFORCE
        single = estimate([bandit_trajectory(0, 1.0)], policy, np.zeros(1), 0.5, kind)
        repeated = estimate([bandit_trajectory(0, 1.0)] * 5, policy, np.zeros(1), 0.5, kind)
        np.testing.assert_allclose(repeated, single, rtol=1e-15)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            estimate([], bandit_policy(), np.zeros(1), 0.5, EstimatorKind.REINFORCE)

    def test_peters_degenerate_denominator_falls_back_to_zero(self):
        # all actions exactly at the Gaussian mean: every score is zero
        policy = GaussianPolicy(PolynomialFeatures(1), feature_bound=1.0, sigma=1.0)
        traj = Trajectory(np.array([0.5]), np.array([0.0]), np.array([1.0]))
        kind = EstimatorKind.REINFORCE
        vector = estimate([traj], policy, np.zeros(1), 0.9, kind, BaselineKind.PETERS)
        assert np.all(np.isfinite(vector))
        np.testing.assert_array_equal(vector, [0.0])

    def test_norm_past_the_float_range_is_a_numeric_error(self):
        # finite components whose squares overflow: no overflow warning, a typed error
        assert GradientEstimate(np.array([3.0, 4.0])).norm == 5.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="norm is not finite"):
                GradientEstimate(np.array([1e200, 1.0])).norm


class TestAccumulator:
    def sample_batch(self, chain, theta, n=6):
        return [
            sample_trajectory(chain.env, chain.policy, theta, substream(21, i)) for i in range(n)
        ]

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_incremental_matches_batch_bitwise_zero_baseline(self, chain, kind):
        theta = random_theta(substream(20, 0), chain.policy.dim)
        batch = self.sample_batch(chain, theta)
        gamma = chain.mdp.spec.gamma
        incremental = GradientAccumulator(chain.policy, theta, gamma, kind)
        for traj in batch:
            incremental.add_trajectory(traj)
        block = GradientAccumulator(chain.policy, theta, gamma, kind)
        block.add_block(
            np.stack([traj.rewards for traj in batch]),
            np.stack([trajectory_scores(traj, chain.policy, theta) for traj in batch]),
        )
        assert block.count == incremental.count == len(batch)
        assert block.mean_return() == incremental.mean_return()
        np.testing.assert_array_equal(block.finalize().vector, incremental.finalize().vector)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_incremental_matches_batch_peters(self, chain, kind):
        theta = random_theta(substream(20, 1), chain.policy.dim)
        batch = self.sample_batch(chain, theta)
        gamma = chain.mdp.spec.gamma
        # the finite-batch Peters estimate written out directly from per-step
        # scores, an explicit discount loop and trajectory weights w:
        # REINFORCE is the one-step case of GPOMDP, with rewards (N, K, 1) and
        # factors (N, K, m), K = 1 for REINFORCE and K = T for GPOMDP
        scores = np.array(
            [[chain.policy.score(theta, s, a) for s, a in zip(t.states, t.actions)] for t in batch]
        )
        discounted = np.zeros((len(batch), scores.shape[1]))
        for i, traj in enumerate(batch):
            discount = 1.0
            for t, reward in enumerate(traj.rewards):
                discounted[i, t] = discount * reward
                discount *= gamma
        if kind is EstimatorKind.REINFORCE:
            rewards = discounted.sum(axis=1)[:, None, None]
            factors = scores.sum(axis=1)[:, None, :]
        else:
            rewards = discounted[:, :, None]
            factors = np.zeros_like(scores)
            for t in range(scores.shape[1]):
                factors[:, t] = scores[:, : t + 1].sum(axis=1)

        def expected(weights):
            w = weights[:, None, None]
            den = (w * factors**2).sum(axis=0)
            num = (w * rewards * factors**2).sum(axis=0)
            b = np.where(den > 1e-12, num / np.maximum(den, 1e-12), 0.0)
            return (w * (rewards - b) * factors).sum(axis=(0, 1)) / weights.sum()

        acc = GradientAccumulator(chain.policy, theta, gamma, kind, BaselineKind.PETERS)
        for traj in batch:
            acc.add_trajectory(traj)
        unit = expected(np.ones(len(batch)))
        np.testing.assert_allclose(acc.finalize().vector, unit, rtol=1e-12, atol=1e-15)

        # non-unit weights, as an enumerated batch carries path probabilities
        weights = substream(20, 3).uniform(0.1, 2.0, len(batch))
        acc = GradientAccumulator(chain.policy, theta, gamma, kind, BaselineKind.PETERS)
        acc.add_block(np.stack([traj.rewards for traj in batch]), scores, weights)
        weighted = expected(weights)
        assert np.max(np.abs(weighted - unit)) > 1e-6  # the weights matter
        np.testing.assert_allclose(acc.finalize().vector, weighted, rtol=1e-12, atol=1e-15)

    def test_order_permutation(self, chain):
        theta = random_theta(substream(20, 2), chain.policy.dim)
        batch = self.sample_batch(chain, theta)
        gamma = chain.mdp.spec.gamma
        forward = estimate(batch, chain.policy, theta, gamma, EstimatorKind.GPOMDP)
        backward = estimate(batch[::-1], chain.policy, theta, gamma, EstimatorKind.GPOMDP)
        np.testing.assert_allclose(forward, backward, rtol=1e-12, atol=1e-15)

    def test_empty_finalize_rejected(self, chain):
        acc = GradientAccumulator(chain.policy, np.zeros(chain.policy.dim), 0.9, "gpomdp")
        with pytest.raises(ValueError):
            acc.finalize()

    def test_horizon_mismatch_rejected(self):
        policy = bandit_policy()
        acc = GradientAccumulator(policy, np.zeros(1), 0.5, EstimatorKind.GPOMDP)
        acc.add_trajectory(bandit_trajectory(0, 1.0))
        long_traj = Trajectory(np.zeros(2), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            acc.add_trajectory(long_traj)

    def test_non_finite_estimate_rejected(self):
        from spgrad.errors import NumericError

        policy = bandit_policy()
        acc = GradientAccumulator(policy, np.zeros(1), 0.5, EstimatorKind.REINFORCE)
        acc.add_trajectory(bandit_trajectory(0, float("inf")))
        with pytest.raises(NumericError):
            acc.finalize()


def python_terms(kind, gamma, rewards, scores, weights):
    """The term form (w R, w r, c, g) row by row in plain Python floats,
    every sum over a row's steps added in time order: the return and g from
    0.0, the cumulative scores from the first step's score.  The discount
    factors are numpy's ``gamma ** t``, which may round unlike Python's."""
    discount = (gamma ** np.arange(rewards.shape[1])).tolist()
    rows = []
    for i, row in enumerate(rewards.tolist()):
        w = 1.0 if weights is None else float(weights[i])
        r = [w * (d * x) for d, x in zip(discount, row)]
        c = []
        for step in scores[i].tolist():
            c.append(step if not c else [a + b for a, b in zip(c[-1], step)])
        ret = 0.0
        for x in r:
            ret += x
        if kind is EstimatorKind.REINFORCE:
            r, c = [ret], c[-1:]
        g = [0.0] * scores.shape[2]
        for rk, ck in zip(r, c):
            g = [gj + rk * cj for gj, cj in zip(g, ck)]
        rows.append((ret, r, c, g))
    return tuple(np.array(column) for column in zip(*rows))


def python_totals(kind, baseline, gamma, blocks) -> dict:
    """The accumulator's totals after ``blocks`` of (rewards, scores, weights),
    each total continued from 0.0 one row after another."""
    totals = {}
    for rewards, scores, weights in blocks:
        ret, r, c, g = python_terms(kind, gamma, rewards, scores, weights)
        w = np.ones(len(rewards)) if weights is None else weights
        terms = {"weight_sum": w, "return_sum": ret, "_sum_g": g}
        if baseline is BaselineKind.PETERS:
            w3, r3, c2 = w[:, None, None], r[:, :, None], c * c
            terms.update(_sum_rc=r3 * c, _sum_c=w3 * c, _sum_rc2=r3 * c2, _sum_c2=w3 * c2)
        for name, rows in terms.items():
            total = totals.get(name, 0.0)
            for row in rows:
                total = total + row
            totals[name] = total
    return totals


def term_inputs(seed: int, n: int, horizon: int, m: int):
    """Rewards (n, T), scores (n, T, m) and weights (n,) spread over many
    orders of magnitude, so that a sum taken in another order differs; a
    third of the rewards are 0, whose products with negative scores are -0.0."""
    rng = substream(24, seed, horizon, m)
    base = rng.choice([0.0, 1.0, -0.5], size=(n, horizon))
    rewards = base * 10.0 ** rng.uniform(-3, 3, (n, horizon))
    scores = rng.standard_normal((n, horizon, m)) * 10.0 ** rng.uniform(-8, 8, (n, horizon, m))
    return rewards, scores, rng.uniform(0.1, 2.0, n)


def step_major(scores: np.ndarray) -> np.ndarray:
    """The same scores laid out step by step in memory, as ``sample_block`` returns them."""
    return np.ascontiguousarray(scores.swapaxes(0, 1)).swapaxes(0, 1)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestTermFormMatchesNumpyExpressions:
    """``TermFold`` and ``add_block`` give, bit for bit, what the
    plain-Python reference gives row by row, summing every trajectory's
    steps in time order and the rows in row order, for C-ordered and
    step-major ``scores`` alike."""

    SHAPES = [(m, horizon) for m in (1, 2, 6) for horizon in (1, 5, 8, 10, 17)]

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("m, horizon", SHAPES)
    def test_trajectory_terms(self, kind, m, horizon):
        rewards, scores, weights = term_inputs(0, 40, horizon, m)
        for w in (None, weights):
            want_ret, want_r, _, want_g = python_terms(kind, 0.9, rewards, scores, w)
            for layout in (scores, step_major(scores)):
                fold = TermFold(kind, 0.9, horizon, w)
                r = np.stack([fold(t, rewards[:, t], layout[:, t]) for t in range(horizon)], axis=1)
                assert same_bits(fold.ret, want_ret)
                assert same_bits(r if fold.gpomdp else fold.ret[:, None], want_r)
                assert same_bits(fold.g, want_g)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("m, horizon", SHAPES)
    def test_feed_is_the_step_by_step_fold(self, kind, m, horizon):
        rewards, scores, weights = term_inputs(2, 40, horizon, m)
        for w in (None, weights):
            for layout in (scores, step_major(scores)):
                stepped = TermFold(kind, 0.9, horizon, w)
                for t in range(horizon):
                    stepped(t, rewards[:, t], layout[:, t])
                fed = TermFold(kind, 0.9, horizon, w)
                assert fed.feed(rewards, layout) is fed
                assert same_bits(fed.ret, stepped.ret)
                assert same_bits(fed.c, stepped.c)
                assert same_bits(fed.g, stepped.g)

    def test_feed_of_no_rows_folds_nothing(self):
        fold = TermFold(EstimatorKind.GPOMDP, 0.9, 3).feed(np.empty((0, 3)), np.empty((0, 3, 2)))
        assert fold.g is None and fold.ret == 0.0

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("m, horizon", SHAPES)
    def test_add_block(self, kind, m, horizon):
        rewards, scores, weights = term_inputs(1, 40, horizon, m)
        policy = SoftmaxPolicy(
            ActionIndicatorFeatures(), feature_bound=1.0, tau=1.0, n_actions=2, n_states=1
        )
        for baseline in BaselineKind:
            for w in (None, weights):
                blocks = [
                    (rewards[rows], scores[rows], None if w is None else w[rows])
                    for rows in (slice(0, 25), slice(25, 40))
                ]
                acc = GradientAccumulator(policy, np.zeros(1), 0.9, kind, baseline)
                for r, c, block_w in blocks:
                    acc.add_block(r, step_major(c), block_w)
                want = python_totals(kind, baseline, 0.9, blocks)
                for name, total in want.items():
                    assert same_bits(getattr(acc, name), total), (baseline, w is None, name)


def stop_inputs(seed: int, n: int, inf_row: "int | None" = None):
    """A block of positive rewards, so that an inf score at step 1 of row
    ``inf_row`` makes that row's estimate and every later one +inf, never NaN."""
    rewards, scores, weights = term_inputs(seed, n, 3, 2)
    rewards = np.abs(rewards) + 1.0
    if inf_row is not None:
        scores[inf_row, 1, 0] = np.inf
    return rewards, scores, weights


def python_running(kind, rewards, scores, weights, sum_g, weight_sum):
    """The running zero-baseline sum S and weight w after each row, continued
    from (``sum_g``, ``weight_sum``) in plain Python floats."""
    g = python_terms(kind, 0.9, rewards, scores, weights)[3].tolist()
    w = [1.0] * len(rewards) if weights is None else weights.tolist()
    sums, weight_sums = [], []
    for gi, wi in zip(g, w):
        sum_g = [a + b for a, b in zip(sum_g, gi)]
        weight_sum = weight_sum + wi
        sums.append(sum_g)
        weight_sums.append(weight_sum)
    return np.array(sums), np.array(weight_sums)


class TestAddBlockStop:
    """``add_block`` hands its stop the count N and the running sum S after
    each row, up to the first row whose estimate S / N is not finite; a
    stop takes unit-weight rows only, on an accumulator whose weight sum
    is its count."""

    @staticmethod
    def recorder(end=None):
        seen = []

        def stop(counts, sums):
            seen.append((counts.copy(), sums.copy()))
            return end

        return seen, stop

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_stop_sees_the_rows_before_an_inf(self, kind):
        first = stop_inputs(0, 4)
        rewards, scores, _ = stop_inputs(1, 12, inf_row=7)
        acc = GradientAccumulator(bandit_policy(), np.zeros(1), 0.9, kind)
        acc.add_block(first[0], first[1])
        want_sums, want_w = python_running(
            kind, rewards, scores, None, acc._sum_g.tolist(), acc.weight_sum
        )
        seen, stop = self.recorder()
        with pytest.raises(NumericError, match="gradient estimate is not finite"):
            acc.add_block(rewards, scores, stop=stop)
        [(counts, sums)] = seen
        assert counts.tolist() == list(range(5, 12))
        assert same_bits(sums, want_sums[:7])
        # the counts as floats are the running weight sums, bit for bit
        assert same_bits(counts.astype(float), want_w[:7])
        assert np.isfinite(sums / counts[:, None]).all()
        # a stop that ends the block before the inf keeps the rows up to its end
        seen, stop = self.recorder(end=3)
        acc = GradientAccumulator(bandit_policy(), np.zeros(1), 0.9, kind)
        assert acc.add_block(rewards, scores, stop=stop)
        assert acc.count == 4 and seen[0][0].tolist() == list(range(1, 8))
        # with no stop the block is added and finalize raises the same error
        acc = GradientAccumulator(bandit_policy(), np.zeros(1), 0.9, kind)
        assert not acc.add_block(rewards, scores)
        assert acc.count == 12
        with pytest.raises(NumericError, match="gradient estimate is not finite"):
            acc.finalize()

    def test_stop_refuses_weighted_rows(self):
        rewards, scores, weights = stop_inputs(2, 6)
        acc = GradientAccumulator(bandit_policy(), np.zeros(1), 0.9, EstimatorKind.GPOMDP)
        seen, stop = self.recorder()
        with pytest.raises(ValueError, match="unit-weight rows only"):
            acc.add_block(rewards, scores, weights, stop=stop)
        assert seen == [] and acc.count == 0 and acc.weight_sum == 0.0

    def test_stop_refuses_an_accumulator_of_weighted_rows(self):
        # after weighted rows S / N is not the estimate S / w
        rewards, scores, weights = stop_inputs(3, 6)
        acc = GradientAccumulator(bandit_policy(), np.zeros(1), 0.9, EstimatorKind.GPOMDP)
        acc.add_block(rewards, scores, weights)
        before = (acc.count, acc.weight_sum, acc._sum_g.copy())
        assert acc.weight_sum != acc.count
        seen, stop = self.recorder()
        with pytest.raises(ValueError, match="unit-weight rows only"):
            acc.add_block(rewards, scores, stop=stop)
        assert seen == [] and (acc.count, acc.weight_sum) == before[:2]
        assert same_bits(acc._sum_g, before[2])


class TestAddSteps:
    """``add_steps`` fed one step at a time, each step's scores written into
    one array that the feed rewrites, as ``sample_block`` hands them over,
    gives the totals of ``add_block`` on the whole arrays, bit for bit."""

    TOTALS = ("count", "weight_sum", "return_sum", "_sum_g", "_sum_rc", "_sum_c", "_sum_rc2", "_sum_c2")

    @staticmethod
    def slab_feed(rewards, scores):
        slab = np.full(scores[:, 0].shape, np.nan)

        def feed(fold):
            for t in range(rewards.shape[1]):
                slab[...] = scores[:, t]
                fold(t, rewards[:, t].copy(), slab)

        return feed

    @pytest.mark.parametrize("baseline", list(BaselineKind), ids=lambda b: b.value)
    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
    def test_steps_from_one_slab_match_add_block(self, kind, baseline):
        rewards, scores, weights = term_inputs(6, 30, 7, 3)
        policy = bandit_policy()
        for w in (None, weights):
            blocks = [slice(0, 1), slice(1, 18), slice(18, 30)]
            by_steps = GradientAccumulator(policy, np.zeros(1), 0.9, kind, baseline)
            by_block = GradientAccumulator(policy, np.zeros(1), 0.9, kind, baseline)
            for rows in blocks:
                block_w = None if w is None else w[rows]
                assert not by_steps.add_steps(self.slab_feed(rewards[rows], scores[rows]), 7, block_w)
                by_block.add_block(rewards[rows], scores[rows], block_w)
            for name in self.TOTALS:
                assert same_bits(getattr(by_steps, name), getattr(by_block, name)), (w is None, name)

    def test_a_feed_of_no_step_adds_nothing(self):
        acc = GradientAccumulator(bandit_policy(), np.zeros(1), 0.9, "gpomdp")
        assert acc.add_steps(lambda fold: None, 3, stop=lambda counts, sums: 0) is False
        assert (acc.count, acc.horizon, acc.weight_sum) == (0, None, 0.0)

    def test_stop_refuses_the_peters_baseline(self):
        # a stop reads the zero-baseline sums, which a Peters run does not estimate by
        rewards, scores, _ = stop_inputs(7, 6)
        acc = GradientAccumulator(bandit_policy(), np.zeros(1), 0.9, "gpomdp", "peters")
        acc.add_block(rewards, scores)
        before = {name: np.copy(getattr(acc, name)) for name in self.TOTALS}
        seen = []
        with pytest.raises(ValueError, match="^a stop takes the zero baseline only$"):
            acc.add_block(rewards, scores, stop=lambda counts, sums: seen.append(counts))
        assert seen == []
        for name, value in before.items():
            assert same_bits(getattr(acc, name), value), name


class TestAddBlockShapes:
    """``add_block`` adds nothing for a block of no rows and refuses shapes
    that disagree, before anything is added."""

    @staticmethod
    def state(acc):
        return (acc.count, acc.horizon, acc.weight_sum, acc.return_sum, np.shape(acc._sum_g))

    @pytest.mark.parametrize("baseline", list(BaselineKind))
    def test_empty_block_adds_nothing(self, baseline):
        acc = GradientAccumulator(bandit_policy(), np.zeros(1), 0.9, "gpomdp", baseline)
        before = self.state(acc)
        empty = np.empty((0, 5)), np.empty((0, 5, 2))
        assert acc.add_block(*empty) is False
        assert acc.add_block(*empty, weights=np.empty(0)) is False
        assert acc.add_block(*empty, stop=lambda counts, sums: 0) is False
        assert self.state(acc) == before and acc.horizon is None
        with pytest.raises(ValueError, match="empty accumulator"):
            acc.finalize()
        # the empty blocks fixed no horizon: a block of horizon 3 is taken
        rewards, scores, _ = stop_inputs(4, 6)
        assert not acc.add_block(rewards, scores)
        assert acc.count == 6 and acc.horizon == 3
        want = GradientAccumulator(bandit_policy(), np.zeros(1), 0.9, "gpomdp", baseline)
        want.add_block(rewards, scores)
        assert acc.finalize().vector.tobytes() == want.finalize().vector.tobytes()

    def test_mismatched_shapes_rejected(self):
        rewards, scores, weights = stop_inputs(5, 6)  # (6, 3), (6, 3, 2), (6,)
        bad = [
            (rewards[:5], scores, None),
            (rewards, scores[:, :2], None),
            (rewards, scores, weights[:4]),
            (rewards, scores[:, :, 0], None),
            (rewards[:, :, None], scores, None),
        ]
        acc = GradientAccumulator(bandit_policy(), np.zeros(1), 0.9, "reinforce")
        for r, s, w in bad:
            with pytest.raises(ValueError, match="^block shapes disagree: rewards"):
                acc.add_block(r, s, w)
            assert self.state(acc) == (0, None, 0.0, 0.0, ())
        # a later block must keep the m of the first
        acc.add_block(rewards, scores)
        with pytest.raises(ValueError, match=r"expected \(n, T\), \(n, T, 2\) and \(n,\)$"):
            acc.add_block(rewards, scores[:, :, :1])
        assert acc.count == 6


class TestVarianceBound:
    SPEC = MdpSpec(gamma=0.9, r_max=1.0, horizon=10)

    def test_reinforce_value(self):
        nu2 = variance_bound(EstimatorKind.REINFORCE, self.SPEC, kappa=1.0).nu_squared
        assert nu2 == pytest.approx(424.2197743905692, rel=1e-12)

    def test_gpomdp_value(self):
        nu2 = variance_bound(EstimatorKind.GPOMDP, self.SPEC, kappa=1.0).nu_squared
        assert nu2 == pytest.approx(651.3215598999998, rel=1e-12)

    def test_degenerate_kappa(self):
        for kind in EstimatorKind:
            assert variance_bound(kind, self.SPEC, kappa=0.0).nu_squared == 0.0

    def test_overflow_is_a_configuration_error(self):
        from spgrad.estimators import VarianceBound

        for kind in EstimatorKind:
            with pytest.raises(ConfigurationError, match="nu\\^2 overflows"):
                variance_bound(kind, self.SPEC, kappa=1e307)
        with pytest.raises(ConfigurationError, match="eps_delta overflows"):
            error_bound(VarianceBound(1e308), 0.1)

    def test_error_bound_values(self):
        r = variance_bound(EstimatorKind.REINFORCE, self.SPEC, kappa=1.0)
        g = variance_bound(EstimatorKind.GPOMDP, self.SPEC, kappa=1.0)
        assert error_bound(r, 0.1) == pytest.approx(65.13215599, rel=1e-9)
        assert error_bound(g, 0.1) == pytest.approx(80.70449553, rel=1e-9)

    def test_error_bound_degenerate(self):
        from spgrad.estimators import VarianceBound

        assert error_bound(VarianceBound(0.0), 0.7) == 0.0

    def test_error_bound_delta_validated(self):
        vb = variance_bound(EstimatorKind.GPOMDP, self.SPEC, kappa=1.0)
        for delta in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ConfigurationError):
                error_bound(vb, delta)


class TestUnbiasedness:
    def test_enumeration_mean_equals_exact_gradient(self, two_state):
        theta = random_theta(substream(22, 0), two_state.policy.dim)
        exact = exact_gradient(two_state.mdp, two_state.policy, theta)
        for kind in EstimatorKind:
            mean = expected_gradient_estimate(two_state.mdp, two_state.policy, theta, kind)
            assert np.max(np.abs(mean - exact)) <= 1e-10

    def test_peters_baseline_leaves_mean_unchanged(self, two_state):
        theta = random_theta(substream(22, 1), two_state.policy.dim)
        for kind in EstimatorKind:
            zero = expected_gradient_estimate(
                two_state.mdp, two_state.policy, theta, kind, BaselineKind.ZERO
            )
            peters = expected_gradient_estimate(
                two_state.mdp, two_state.policy, theta, kind, BaselineKind.PETERS
            )
            assert np.max(np.abs(zero - peters)) <= 1e-10


class TestEmpiricalVariance:
    def test_gpomdp_dominates_reinforce_at_long_horizon(self):
        # Advisory expectation, deterministic under the fixed seed: the
        # per-reward score truncation of GPOMDP reduces variance once T >= 5.
        inst = chain_instance(n_states=3, slip=0.1, gamma=0.9, horizon=5)
        theta = np.zeros(inst.policy.dim)
        gamma = inst.mdp.spec.gamma
        n, horizon = 20_000, inst.mdp.spec.horizon
        trajs = [sample_trajectory(inst.env, inst.policy, theta, substream(23, i)) for i in range(n)]
        rewards, states, actions = (
            np.concatenate([getattr(t, field) for t in trajs]).reshape(n, horizon)
            for field in ("rewards", "states", "actions")
        )
        scores = inst.policy.actor(theta).score(states, actions)
        sums = {kind: np.zeros(inst.policy.dim) for kind in EstimatorKind}
        sq = {kind: 0.0 for kind in EstimatorKind}
        for kind in EstimatorKind:
            # row i is trajectory i's single-trajectory estimate, the vector
            # of a one-trajectory accumulator bit for bit
            for vec in TermFold(kind, gamma, horizon).feed(rewards, scores).g:
                sums[kind] += vec
                sq[kind] += float(vec @ vec)
        trace_var = {
            kind: sq[kind] / n - float((sums[kind] / n) @ (sums[kind] / n))
            for kind in EstimatorKind
        }
        assert trace_var[EstimatorKind.GPOMDP] <= trace_var[EstimatorKind.REINFORCE]
