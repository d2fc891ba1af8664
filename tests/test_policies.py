import math

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
from spgrad.rng import substream

from conftest import random_theta


def bandit_softmax():
    # phi(s, a0) = [1], phi(s, a1) = [0]
    return SoftmaxPolicy(ActionIndicatorFeatures(), feature_bound=1.0, tau=1.0, n_actions=2)


def scalar_gaussian(sigma=1.0, bound=1.0):
    return GaussianPolicy(PolynomialFeatures(degree=1), feature_bound=bound, sigma=sigma)


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
        policy = SoftmaxPolicy(TabularFeatures(1, 4), feature_bound=1.0, tau=1.0, n_actions=4)
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
        policy = SoftmaxPolicy(TabularFeatures(1, 2), feature_bound=1.0, tau=2.0, n_actions=2)
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
        with pytest.raises(ConfigurationError):
            GaussianPolicy(PolynomialFeatures(1), feature_bound=1.0, sigma=0.0)
        with pytest.raises(ConfigurationError):
            SoftmaxPolicy(TabularFeatures(1, 2), feature_bound=1.0, tau=0.0, n_actions=2)


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
    softmax = SoftmaxPolicy(TabularFeatures(2, 3), feature_bound=1.0, tau=0.8, n_actions=3)

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

        softmax = SoftmaxPolicy(TabularFeatures(2, 3), feature_bound=1.0, tau=0.8, n_actions=3)
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
        policy = SoftmaxPolicy(TabularFeatures(2, 3), feature_bound=1.0, tau=0.8, n_actions=3)
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
        with pytest.raises(ConfigurationError):
            policy.mean(np.zeros(1), 1.0)

    def test_overflowing_mean_raises_numeric_error(self):
        from spgrad.errors import NumericError

        policy = GaussianPolicy(PolynomialFeatures(2), feature_bound=2.0, sigma=1.0)
        theta = np.array([1.7e308, 1.7e308])
        with pytest.raises(NumericError):
            policy.sample_action(theta, 0.85, substream(0, 0))
        with pytest.raises(NumericError):
            policy.score(theta, 0.85, 0.0)

    def test_softmax_violation_raises(self):
        features = TabularFeatures(1, 2)
        policy = SoftmaxPolicy(features, feature_bound=0.5, tau=1.0, n_actions=2)
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
