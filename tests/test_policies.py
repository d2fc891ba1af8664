import math
import warnings

import numpy as np
import pytest

from spgrad.errors import ConfigurationError
from spgrad.policies import (
    ActionIndicatorFeatures,
    BinnedGaussianPolicy,
    GaussianPolicy,
    PolynomialFeatures,
    SoftmaxPolicy,
    StateTabularFeatures,
    TabularFeatures,
)
from spgrad.rng import box_muller, substream

from conftest import random_theta


def bandit_softmax():
    # phi(s, a0) = [1], phi(s, a1) = [0]
    return SoftmaxPolicy(
        ActionIndicatorFeatures(), feature_bound=1.0, tau=1.0, n_actions=2, n_states=1
    )


def scalar_gaussian(sigma=1.0, bound=1.0):
    return GaussianPolicy(PolynomialFeatures(degree=1), feature_bound=bound, sigma=sigma)


class RowFeatures:
    """A stand-in feature map: state i has the features ``rows[i]``."""

    def __init__(self, rows):
        self.rows = rows
        self.dim = rows.shape[1]

    def values(self, state):
        return self.rows[int(state)].tolist()

    def batch(self, states):
        return self.rows[np.asarray(states, dtype=int)]


class TestSampling:
    def test_gaussian_zero_mean(self):
        policy = scalar_gaussian()
        rng = substream(0, 0)
        n = 100_000
        draws = np.array([policy.sample_action(np.zeros(1), 1.0, rng) for _ in range(n)])
        assert abs(draws.mean()) <= 3.0 * policy.sigma / math.sqrt(n)

    def test_gaussian_mean_follows_features(self):
        policy = scalar_gaussian(sigma=0.5)
        rng = substream(0, 1)
        draws = np.array([policy.sample_action(np.array([2.0]), 1.0, rng) for _ in range(20_000)])
        assert draws.mean() == pytest.approx(2.0, abs=0.02)

    def test_softmax_uniform_frequencies(self):
        policy = SoftmaxPolicy(
            TabularFeatures(1, 4), feature_bound=1.0, tau=1.0, n_actions=4, n_states=1
        )
        rng = substream(0, 2)
        n = 10_000
        counts = np.bincount(
            [policy.sample_action(np.zeros(4), 0, rng) for _ in range(n)], minlength=4
        )
        assert np.max(np.abs(counts / n - 0.25)) <= 0.01


class TestScore:
    def test_gaussian_formula(self):
        policy = scalar_gaussian()
        assert policy.score(np.zeros(1), 1.0, 0.5) == pytest.approx([0.5])

    def test_gaussian_zero_at_mean(self):
        policy = scalar_gaussian(sigma=0.7)
        theta = np.array([1.3])
        assert policy.score(theta, 1.0, 1.3) == pytest.approx([0.0], abs=1e-15)

    def test_gaussian_divides_by_python_pow(self):
        # at this sigma, sigma**2 (Python's pow) and sigma * sigma differ in
        # the last bit with some libms; the scalar and array scores divide by
        # the former
        sigma = 1.0000210734110846
        policy = scalar_gaussian(sigma=sigma)
        expected = (np.array([0.8]) * 0.3 / sigma**2).tobytes()
        assert policy.score(np.zeros(1), 0.8, 0.3).tobytes() == expected
        actor = policy.actor(np.zeros(1))
        assert actor.score(np.array([0.8]), np.array([0.3])).tobytes() == expected

    def test_gaussian_variance_past_the_float_range(self):
        # Python's sigma**2 raises OverflowError here; the variance is inf
        # and every score of a finite action is 0, with no numpy warning
        policy = scalar_gaussian(sigma=1e200)
        assert policy.variance == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert policy.score(np.zeros(1), 0.8, 0.3).tolist() == [0.0]
            assert policy.observed_information(np.zeros(1), 0.8, 0.3).tolist() == [[0.0]]
            actor = policy.actor(np.zeros(1))
            scores = np.full((3, 1), np.nan)
            actions = actor.sample(np.array([0.8, 0.0, -0.5]), np.full((3, 2), 0.25), scores)
            assert np.all(np.isfinite(actions)) and scores.tolist() == [[0.0]] * 3

    def test_softmax_uniform_case(self):
        policy = bandit_softmax()
        assert policy.score(np.zeros(1), 0, 0) == pytest.approx([0.5])
        assert policy.score(np.zeros(1), 0, 1) == pytest.approx([-0.5])


class TestObservedInformation:
    def test_gaussian_formula(self):
        policy = scalar_gaussian()
        info = policy.observed_information(np.zeros(1), 1.0, 0.3)
        np.testing.assert_allclose(info, [[-1.0]])

    def test_gaussian_zero_features(self):
        policy = scalar_gaussian()
        np.testing.assert_allclose(policy.observed_information(np.zeros(1), 0.0, 0.3), [[0.0]])

    def test_softmax_uniform_brute_force(self):
        # expand E_{a'}[phi (mean - phi)^T] by hand over the uniform policy:
        # mean = 0.5, terms 0.5*1*(0.5-1) + 0.5*0*(0.5-0) = -0.25
        policy = bandit_softmax()
        probs = np.array([0.5, 0.5])
        feats = np.array([[1.0], [0.0]])
        mean = probs @ feats
        expected = sum(
            p * np.outer(f, mean - f) for p, f in zip(probs, feats)
        )
        info = policy.observed_information(np.zeros(1), 0, 0)
        np.testing.assert_allclose(info, expected)
        np.testing.assert_allclose(info, [[-0.25]])


class TestSmoothingConstants:
    def test_gaussian_values(self):
        policy = scalar_gaussian(sigma=0.5)
        sc = policy.smoothing_constants()
        assert sc.psi == pytest.approx(2.0 / (math.sqrt(2.0 * math.pi) * 0.5), rel=1e-12)
        assert sc.psi == pytest.approx(1.5957691, rel=1e-7)
        assert sc.kappa == 4.0
        assert sc.xi == 4.0

    def test_softmax_values(self):
        policy = SoftmaxPolicy(
            TabularFeatures(1, 2), feature_bound=1.0, tau=2.0, n_actions=2, n_states=1
        )
        sc = policy.smoothing_constants()
        assert (sc.psi, sc.kappa, sc.xi) == (1.0, 1.0, 0.5)

    def test_degenerate_zero_feature_bound(self):
        policy = GaussianPolicy(PolynomialFeatures(1), feature_bound=0.0, sigma=1.0)
        sc = policy.smoothing_constants()
        assert (sc.psi, sc.kappa, sc.xi) == (0.0, 0.0, 0.0)

    def test_theta_free(self):
        policy = bandit_softmax()
        assert policy.smoothing_constants() == policy.smoothing_constants()

    def test_bad_scale_rejected(self):
        for value in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="sigma"):
                GaussianPolicy(PolynomialFeatures(1), feature_bound=1.0, sigma=value)
            with pytest.raises(ConfigurationError, match="tau"):
                SoftmaxPolicy(
                    TabularFeatures(1, 2), feature_bound=1.0, tau=value, n_actions=2, n_states=1
                )

    def test_bad_state_count_rejected(self):
        with pytest.raises(ConfigurationError, match="n_states"):
            SoftmaxPolicy(TabularFeatures(1, 2), feature_bound=1.0, tau=1.0, n_actions=2, n_states=0)

    def test_bad_feature_bound_rejected(self):
        for value in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="feature_bound"):
                GaussianPolicy(PolynomialFeatures(1), feature_bound=value, sigma=1.0)
            with pytest.raises(ConfigurationError, match="feature_bound"):
                SoftmaxPolicy(
                    TabularFeatures(1, 2), feature_bound=value, tau=1.0, n_actions=2, n_states=1
                )


class TestLogPdf:
    def test_softmax_uniform(self):
        policy = bandit_softmax()
        assert policy.log_pdf(np.zeros(1), 0, 0) == pytest.approx(math.log(0.5))
        assert policy.log_pdf(np.zeros(1), 0, 1) == pytest.approx(math.log(0.5))

    def test_gaussian_peak(self):
        policy = scalar_gaussian()
        assert policy.log_pdf(np.zeros(1), 1.0, 0.0) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_softmax_normalization(self, two_state):
        rng = substream(3, 0)
        for _ in range(20):
            theta = random_theta(rng, two_state.policy.dim, scale=2.0)
            for s in range(2):
                probs = np.exp(
                    [two_state.policy.log_pdf(theta, s, a) for a in range(2)]
                )
                assert abs(probs.sum() - 1.0) <= 1e-12

    def test_softmax_finite_for_large_theta(self):
        policy = bandit_softmax()
        assert math.isfinite(policy.log_pdf(np.array([700.0]), 0, 1))


def fd_grad(fn, theta, h=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = h
        grad[i] = (fn(theta + bump) - fn(theta - bump)) / (2 * h)
    return grad


def fd_hess(fn, theta, h=1e-3):
    m = theta.size
    hess = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            ei = np.zeros(m)
            ej = np.zeros(m)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (
                fn(theta + ei + ej) - fn(theta + ei - ej) - fn(theta - ei + ej) + fn(theta - ei - ej)
            ) / (4 * h * h)
    return hess


def policy_cases(rng):
    gaussian = scalar_gaussian(sigma=0.6)
    softmax = SoftmaxPolicy(
        TabularFeatures(2, 3), feature_bound=1.0, tau=0.8, n_actions=3, n_states=2
    )

    def gaussian_case():
        theta = random_theta(rng, 1)
        state = rng.uniform(-0.9, 0.9)
        action = gaussian.sample_action(theta, state, rng)
        return gaussian, theta, state, action

    def softmax_case():
        theta = random_theta(rng, 6)
        state = int(rng.integers(2))
        action = softmax.sample_action(theta, state, rng)
        return softmax, theta, state, action

    return gaussian_case, softmax_case


class TestDerivativeIdentities:
    def test_score_matches_fd_gradient(self):
        rng = substream(11, 0)
        for case in policy_cases(rng):
            for _ in range(100):
                policy, theta, state, action = case()
                analytic = policy.score(theta, state, action)
                numeric = fd_grad(lambda t: policy.log_pdf(t, state, action), theta)
                denom = max(np.linalg.norm(numeric), 1e-8)
                assert np.linalg.norm(analytic - numeric) / denom <= 1e-5

    def test_observed_information_matches_fd_hessian(self):
        rng = substream(11, 1)
        for case in policy_cases(rng):
            for _ in range(20):
                policy, theta, state, action = case()
                analytic = policy.observed_information(theta, state, action)
                numeric = fd_hess(lambda t: policy.log_pdf(t, state, action), theta)
                assert np.max(np.abs(analytic - numeric)) <= 1e-4


class TestDefinitionBounds:
    # One-sided checks: the constants are upper bounds over states and theta.

    def test_score_has_zero_mean(self):
        n = 100_000
        rng = substream(12, 0)
        gaussian = scalar_gaussian(sigma=0.6)
        theta = np.array([0.4])
        state = 0.7
        kappa_g = gaussian.smoothing_constants().kappa
        mean_action = gaussian.mean(theta, state)
        actions = mean_action + gaussian.sigma * rng.standard_normal(n)
        phi = np.asarray(gaussian.features(state))
        score_mean = phi * np.mean(actions - mean_action) / gaussian.sigma**2
        assert np.linalg.norm(score_mean) <= 5.0 * math.sqrt(kappa_g / n)

        softmax = SoftmaxPolicy(
            TabularFeatures(2, 3), feature_bound=1.0, tau=0.8, n_actions=3, n_states=2
        )
        theta_s = random_theta(rng, 6)
        probs = softmax.action_probabilities(theta_s, 1)
        counts = np.bincount(rng.choice(3, size=n, p=probs), minlength=3)
        scores = np.stack([softmax.score(theta_s, 1, a) for a in range(3)])
        score_mean = (counts / n) @ scores
        kappa_s = softmax.smoothing_constants().kappa
        assert np.linalg.norm(score_mean) <= 5.0 * math.sqrt(kappa_s / n)

    def test_gaussian_moment_bounds(self):
        rng = substream(12, 1)
        policy = scalar_gaussian(sigma=0.6)
        sc = policy.smoothing_constants()
        n = 10_000
        for _ in range(20):
            theta = random_theta(rng, 1)
            state = rng.uniform(-0.9, 0.9)  # strict interior keeps honest MC headroom
            m = policy.mean(theta, state)
            actions = m + policy.sigma * rng.standard_normal(n)
            phi_norm = abs(float(np.asarray(policy.features(state))[0]))
            norms = phi_norm * np.abs(actions - m) / policy.sigma**2
            assert norms.mean() <= sc.psi
            assert (norms**2).mean() <= sc.kappa
            info_norm = phi_norm**2 / policy.sigma**2
            assert info_norm <= sc.xi

    def test_softmax_moment_bounds(self):
        rng = substream(12, 2)
        policy = SoftmaxPolicy(
            TabularFeatures(2, 3), feature_bound=1.0, tau=0.8, n_actions=3, n_states=2
        )
        sc = policy.smoothing_constants()
        n = 10_000
        for _ in range(20):
            theta = random_theta(rng, 6)
            state = int(rng.integers(2))
            probs = policy.action_probabilities(theta, state)
            counts = np.bincount(rng.choice(3, size=n, p=probs), minlength=3) / n
            score_norms = np.array(
                [np.linalg.norm(policy.score(theta, state, a)) for a in range(3)]
            )
            info_norm = np.linalg.norm(policy.observed_information(theta, state, 0), 2)
            assert counts @ score_norms <= sc.psi
            assert counts @ score_norms**2 <= sc.kappa
            assert info_norm <= sc.xi


class TestFeatureBoundEnforcement:
    def test_gaussian_violation_raises(self):
        policy = GaussianPolicy(PolynomialFeatures(1), feature_bound=0.5, sigma=1.0)
        for call in (
            lambda: policy.mean(np.zeros(1), 1.0),
            lambda: policy.sample_action(np.zeros(1), 1.0, substream(0, 0)),
            lambda: policy.score(np.zeros(1), 1.0, 0.0),
        ):
            with pytest.raises(ConfigurationError) as info:
                call()
            assert str(info.value) == "||phi(state)|| = 1.0 exceeds feature_bound 0.5"

    @pytest.mark.parametrize("dim", [1, 3, 7])
    def test_decisions_near_the_bound_follow_numpy_norm(self, dim):
        """Raise exactly when np.linalg.norm(phi) exceeds feature_bound + 1e-9,
        for feature vectors within a few ulps of that threshold."""
        rng = substream(81, dim)
        bound = 0.75
        raised = kept = 0
        for _ in range(300):
            direction = rng.standard_normal(dim)
            phi = direction * ((bound + 1e-9) / np.linalg.norm(direction))
            phi = phi * (1.0 + float(rng.integers(-4, 5)) * 2.0**-52)
            policy = GaussianPolicy(lambda state, phi=phi: phi, feature_bound=bound, sigma=1.0)
            norm = float(np.linalg.norm(phi))
            if norm > bound + 1e-9:
                with pytest.raises(ConfigurationError) as info:
                    policy.sample_action(np.zeros(dim), 0.0, substream(0, 0))
                assert str(info.value) == f"||phi(state)|| = {norm} exceeds feature_bound {bound}"
                raised += 1
            else:
                policy.sample_action(np.zeros(dim), 0.0, substream(0, 0))
                kept += 1
        assert raised > 0 and kept > 0

    @pytest.mark.parametrize("dim", [1, 3, 7])
    def test_block_decisions_near_the_bound_follow_numpy_norm(self, dim):
        """The actor's screen flags every row whose np.linalg.norm exceeds
        feature_bound + 1e-9, for rows within a few ulps of that threshold:
        each row alone raises exactly then, with the scalar path's message,
        and a block raises for its first such row."""
        rng = substream(82, dim)
        bound = 0.75
        rows = rng.standard_normal((1000, dim))
        rows *= (bound + 1e-9) / np.linalg.norm(rows, axis=1, keepdims=True)
        rows *= 1.0 + rng.integers(-4, 5, (1000, 1)) * 2.0**-52
        policy = GaussianPolicy(RowFeatures(rows), feature_bound=bound, sigma=1.0)
        actor = policy.actor(np.zeros(dim))
        u, scores = np.full((1, 2), 0.5), np.empty((1, dim))
        messages = []
        for i, phi in enumerate(rows):
            norm = float(np.linalg.norm(phi))
            message = f"||phi(state)|| = {norm} exceeds feature_bound {bound}"
            over = norm > bound + 1e-9
            for call in (
                lambda: actor.sample(np.array([i]), u, scores),
                lambda: actor.score(np.array([[i]]), np.zeros((1, 1))),
            ):
                if over:
                    with pytest.raises(ConfigurationError) as info:
                        call()
                    assert str(info.value) == message
                else:
                    call()
            if over:
                messages.append(message)
        assert 0 < len(messages) < len(rows)
        states = np.arange(len(rows))
        with pytest.raises(ConfigurationError) as info:
            actor.sample(states, np.full((len(rows), 2), 0.5), np.empty((len(rows), dim)))
        assert str(info.value) == messages[0]

    def test_overflowing_mean_raises_numeric_error(self):
        from spgrad.errors import NumericError

        policy = GaussianPolicy(PolynomialFeatures(2), feature_bound=2.0, sigma=1.0)
        theta = np.array([1.7e308, 1.7e308])
        with pytest.raises(NumericError):
            policy.sample_action(theta, 0.85, substream(0, 0))
        with pytest.raises(NumericError):
            policy.score(theta, 0.85, 0.0)
        # the actor's scores alone, under their one error-state scope: the
        # same error and no numpy warning (the suite makes warnings errors)
        with pytest.raises(NumericError, match="^non-finite policy mean inf$"):
            policy.actor(theta).score(np.array([[0.85]]), np.zeros((1, 1)))
        # an action that overflows the score gives inf, as Python floats do
        narrow = GaussianPolicy(PolynomialFeatures(1), feature_bound=1.0, sigma=1e-10)
        scores = narrow.actor(np.zeros(1)).score(np.array([0.5, -0.5]), np.array([1e300, 1e300]))
        np.testing.assert_array_equal(scores, [[math.inf], [-math.inf]])

    def test_overflowing_softmax_logit_raises_numeric_error(self):
        from spgrad.errors import NumericError
        from spgrad.oracle import exact_performance
        from spgrad.testbeds import two_state_instance

        mdp = two_state_instance().mdp
        theta = np.array([1e308, 0.0, 0.0, 0.0])  # phi . theta / tau = 2e308 overflows
        for build in (exact_performance, lambda mdp, policy, theta: policy.actor(theta)):
            policy = SoftmaxPolicy(
                TabularFeatures(2, 2), feature_bound=1.0, tau=0.5, n_actions=2, n_states=2
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError, match="non-finite Softmax logit inf"):
                    build(mdp, policy, theta)

    def test_softmax_violation_raises(self):
        features = TabularFeatures(1, 2)
        policy = SoftmaxPolicy(features, feature_bound=0.5, tau=1.0, n_actions=2, n_states=1)
        with pytest.raises(ConfigurationError):
            policy.action_probabilities(np.zeros(2), 0)


class TestBinnedGaussian:
    def test_probabilities_sum_to_one(self, binned_gaussian):
        view = binned_gaussian.oracle_policy
        rng = substream(13, 0)
        for _ in range(10):
            theta = random_theta(rng, view.dim)
            for s in range(2):
                probs = view.action_probabilities(theta, s)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(probs >= 0.0)

    def test_score_matches_fd_of_log_bin_probability(self, binned_gaussian):
        view = binned_gaussian.oracle_policy
        rng = substream(13, 1)
        for _ in range(20):
            theta = random_theta(rng, view.dim)
            state = int(rng.integers(2))
            action = int(rng.integers(view.n_actions))
            analytic = view.score(theta, state, action)
            numeric = fd_grad(
                lambda t: math.log(view.action_probabilities(t, state)[action]), theta
            )
            assert np.linalg.norm(analytic - numeric) <= 1e-6 * max(
                1.0, np.linalg.norm(numeric)
            )

    @pytest.mark.parametrize("edges", [[-0.5, math.nan], [-math.inf, 0.5], [-0.5, math.inf]])
    def test_non_finite_edges_rejected(self, edges):
        with pytest.raises(ConfigurationError, match="finite and strictly increasing"):
            BinnedGaussianPolicy(scalar_gaussian(), edges, n_states=1)

    def test_bins_match_env_binning(self, binned_gaussian):
        assert isinstance(binned_gaussian.oracle_policy, BinnedGaussianPolicy)
        assert np.array_equal(binned_gaussian.oracle_policy.edges, binned_gaussian.env.bin_edges)


class TestFeatureMaps:
    def test_state_tabular(self):
        features = StateTabularFeatures(3)
        assert np.array_equal(features(2), [0.0, 0.0, 1.0])

    def test_polynomial(self):
        features = PolynomialFeatures(degree=3, scale=2.0)
        assert features(1.0) == pytest.approx([2.0, 4.0, 8.0])

    def test_tabular_state_action(self):
        features = TabularFeatures(2, 2)
        assert np.argmax(features(1, 0)) == 2


class NextNormal:
    """A stand-in generator whose standard normal is ``z``."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self):
        return self.z


class TestActors:
    """A policy frozen at theta acts on arrays of states as the scalar methods do, bit for bit."""

    GAUSSIANS = {
        "poly1": (
            GaussianPolicy(PolynomialFeatures(1), 1.0, 0.5),
            lambda r, n: r.uniform(-1, 1, n),
        ),
        "poly3": (
            GaussianPolicy(PolynomialFeatures(3, scale=0.7), 2.0, 0.3),
            lambda r, n: r.uniform(-1, 1, n),
        ),
        "state-tabular": (
            GaussianPolicy(StateTabularFeatures(4), 1.0, 0.8),
            lambda r, n: r.integers(0, 4, n),
        ),
    }

    @pytest.mark.parametrize("name", list(GAUSSIANS))
    def test_gaussian_actor_matches_scalar_methods(self, name):
        policy, draw_states = self.GAUSSIANS[name]
        rng = substream(60, 0)
        theta = random_theta(rng, policy.dim, scale=2.0)
        states = draw_states(rng, 200)
        actor = policy.actor(theta)
        u = np.stack([substream(60, 1, i).random(2) for i in range(200)])
        sampled_scores = np.full((200, policy.dim), np.nan)
        actions = actor.sample(states, u, sampled_scores)
        # sample_action given the standard normal the actor makes of each row
        z = box_muller(u[:, 0], u[:, 1])
        expected = [policy.sample_action(theta, s, NextNormal(z[i])) for i, s in enumerate(states)]
        np.testing.assert_array_equal(actions, expected)
        grid = (states.reshape(20, 10), actions.reshape(20, 10))
        scores = [policy.score(theta, s, a) for s, a in zip(states, actions)]
        np.testing.assert_array_equal(sampled_scores, scores)
        np.testing.assert_array_equal(actor.score(*grid), np.reshape(scores, (20, 10, policy.dim)))

    def test_softmax_actor_matches_scalar_methods(self):
        policy = SoftmaxPolicy(
            TabularFeatures(3, 2), feature_bound=1.0, tau=0.7, n_actions=2, n_states=3
        )
        rng = substream(61, 0)
        theta = random_theta(rng, policy.dim, scale=2.0)
        states = rng.integers(0, 3, 300)
        actor = policy.actor(theta)
        u = np.array([substream(61, 1, i).random() for i in range(300)])
        sampled_scores = np.full((300, policy.dim), np.nan)
        actions = actor.sample(states, u[:, None], sampled_scores)
        expected = [
            policy.sample_action(theta, s, substream(61, 1, i)) for i, s in enumerate(states)
        ]
        np.testing.assert_array_equal(actions, expected)
        scores = [policy.score(theta, s, a) for s, a in zip(states, actions)]
        np.testing.assert_array_equal(sampled_scores, scores)
        np.testing.assert_array_equal(actor.score(states, actions), scores)


class CountingFeatures(TabularFeatures):
    """Tabular features that count their calls."""

    calls = 0

    def __call__(self, state, action):
        self.calls += 1
        return super().__call__(state, action)


class TestActionProbabilityMemo:
    def test_memo_follows_theta_and_is_read_only(self):
        policy = SoftmaxPolicy(
            TabularFeatures(2, 3), feature_bound=1.0, tau=1.0, n_actions=3, n_states=2
        )
        theta = np.linspace(-1.0, 1.0, 6)
        first = policy.action_probabilities(theta, 1)
        memo = policy._memo  # a rebuild would replace it
        again = policy.action_probabilities(theta.copy(), np.int64(1))
        assert policy._memo is memo
        # both are views of row 1 of the one memo's probabilities
        for row in (first, again):
            assert row.base is memo.probs and np.shares_memory(row, memo.probs[1])
        with pytest.raises(ValueError):
            first[0] = 0.5
        moved = policy.action_probabilities(2.0 * theta, 1)
        assert policy._memo is not memo and not np.array_equal(moved, first)
        np.testing.assert_array_equal(policy.action_probabilities(theta, 1), first)

    def test_features_are_evaluated_once(self):
        features = CountingFeatures(3, 2)
        policy = SoftmaxPolicy(features, feature_bound=1.0, tau=1.0, n_actions=2, n_states=3)
        theta = np.linspace(-1.0, 1.0, 6)
        for t in (theta, 2.0 * theta):
            policy.actor(t)
            policy.score(t, 2, 1)
            policy.sample_action(t, 1, substream(0, 0))
            policy.observed_information(t, 0, 0)
            policy.log_pdf(t, 1, 0)
        assert features.calls == 3 * 2

    def test_one_table_per_theta(self):
        policy = SoftmaxPolicy(
            TabularFeatures(3, 2), feature_bound=1.0, tau=1.0, n_actions=2, n_states=3
        )
        theta = np.linspace(-1.0, 1.0, 6)
        actor = policy.actor(theta)
        table = policy._memo  # a rebuild would replace it
        policy.score(theta, 2, 1)
        policy.action_probabilities(theta.copy(), 0)
        policy.sample_action(theta, 1, substream(0, 0))
        policy.actor(theta)
        assert policy._memo is table and actor.scores.base is table.scores
        policy.actor(2.0 * theta)
        assert policy._memo is not table

    def test_score_and_probability_rows_are_read_only(self):
        policy = SoftmaxPolicy(
            TabularFeatures(2, 2), feature_bound=1.0, tau=1.0, n_actions=2, n_states=2
        )
        theta = np.linspace(-1.0, 1.0, 4)
        for row in (policy.score(theta, 1, 0), policy.action_probabilities(theta, 0)):
            with pytest.raises(ValueError):
                row[0] = 0.5


def bits(value) -> bytes:
    return np.asarray(value).dtype.str.encode() + np.asarray(value).tobytes()


def softmax_reference(policy, theta):
    """(S, A) probabilities and (S, A, m) scores built state by state."""
    actions = range(policy.n_actions)
    probs, scores = [], []
    for s in range(policy.n_states):
        phi = np.array([policy.features(s, a) for a in actions], dtype=float)
        z = phi @ theta / policy.tau
        z = z - np.max(z)
        p = np.exp(z - math.log(float(np.sum(np.exp(z)))))
        probs.append(p)
        scores.append((phi - p @ phi) / policy.tau)
    return np.stack(probs), np.stack(scores)


class TestPolicyTables:
    @pytest.mark.parametrize("n_states, n_actions", [(1, 2), (2, 2), (2, 3), (3, 5), (7, 4)])
    @pytest.mark.parametrize("kind", ["tabular", "indicator"])
    def test_softmax_table_matches_per_state_build(self, kind, n_states, n_actions):
        if kind == "tabular":
            features = TabularFeatures(n_states, n_actions)
        else:
            features = ActionIndicatorFeatures(active=n_actions - 1)
        rng = substream(82, n_states, n_actions)
        for tau in (0.3, 1.0, 2.5):
            policy = SoftmaxPolicy(features, 1.0, tau, n_actions=n_actions, n_states=n_states)
            for _ in range(5):
                theta = random_theta(rng, features.dim, scale=3.0)
                table = policy.table(theta)
                probs, scores = softmax_reference(policy, theta)
                assert bits(table.probs) == bits(probs)
                assert bits(table.scores) == bits(scores)
                for s in range(n_states):
                    assert bits(policy.action_probabilities(theta, s)) == bits(probs[s])
                for array in table:
                    with pytest.raises(ValueError):
                        array[(0,) * array.ndim] = 0.5

    def test_softmax_table_non_finite_logit(self):
        from spgrad.errors import NumericError

        policy = SoftmaxPolicy(
            TabularFeatures(2, 2), feature_bound=1.0, tau=0.5, n_actions=2, n_states=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^non-finite Softmax logit inf$"):
                policy.table(np.array([0.0, 0.0, 1e308, 0.0]))

    def test_binned_table_matches_erf_formula(self, binned_gaussian):
        view = binned_gaussian.oracle_policy
        sigma, edges = view.gaussian.sigma, view.edges.tolist()
        rng = substream(83, 0)
        for _ in range(20):
            theta = random_theta(rng, view.dim, scale=1.0)
            table = view.table(theta)
            assert table.probs.shape == (2, 3) and table.scores.shape == (2, 3, view.dim)
            for s in range(2):
                phi = view.gaussian.features.values(s)
                mean = 0.0
                for t, p in zip(theta.tolist(), phi):
                    mean += t * p
                z = [(edge - mean) / sigma for edge in edges]
                cdf = [0.0, *(0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z), 1.0]
                pdf = [0.0, *(math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) for v in z), 0.0]
                for a in range(3):
                    # bin a spans edges a - 1 and a: the CDF difference, and
                    # the density at its lower edge less that at its upper one
                    prob = cdf[a + 1] - cdf[a]
                    score = [p * (pdf[a] - pdf[a + 1]) / (sigma * prob) for p in phi]
                    assert bits(table.probs[s, a]) == bits(prob)
                    assert bits(table.scores[s, a]) == bits(score)
                    assert bits(view.score(theta, s, a)) == bits(score)
                assert bits(view.action_probabilities(theta, s)) == bits(table.probs[s])

    def test_binned_table_vanishing_bin(self, binned_gaussian):
        from spgrad.errors import NumericError

        # a mean of 40 at state 0 leaves bins 0 and 1 no probability
        view = binned_gaussian.oracle_policy
        theta = np.array([40.0, 0.0])
        message = "^bin 0 has vanishing probability at the queried theta$"
        with pytest.raises(NumericError, match=message):
            view.score(theta, 0, 0)
        with pytest.raises(NumericError, match=message):
            view.table(theta)

    def test_binned_methods_refuse_a_theta_with_a_vanishing_bin(self, binned_gaussian):
        from spgrad.errors import NumericError

        # a mean of 40 at state 1 leaves its bins 0 and 1 no probability;
        # state 0, at mean 0, has none vanishing, and its entries are
        # refused all the same, as the table that holds them is
        view = binned_gaussian.oracle_policy
        theta = np.array([0.0, 40.0])
        message = "^bin 0 has vanishing probability at the queried theta$"
        with pytest.raises(NumericError, match=message):
            view.action_probabilities(theta, 0)
        for a in range(view.n_actions):
            with pytest.raises(NumericError, match=message):
                view.score(theta, 0, a)
