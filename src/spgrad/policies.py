"""Smoothing parametric policies: linear-mean Gaussian and linear Softmax.

Both classes expose the same surface: ``sample_action``, ``log_pdf``,
``score`` (gradient of the log-density in theta), ``observed_information``
(its Hessian), and ``smoothing_constants`` returning the class constants
(psi, kappa, xi) that bound, uniformly over states and theta,

    E ||score||      <= psi
    E ||score||^2    <= kappa
    E ||obs. info||  <= xi      (spectral norm)

with the expectation over actions drawn from the policy itself.  The
constants depend only on the feature-norm bound and sigma (Gaussian) or
tau (Softmax), never on theta, which is what makes adaptive safe updates
computable before any data is seen.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SmoothingConstants:
    psi: float
    kappa: float
    xi: float

    def __post_init__(self) -> None:
        if self.psi < 0 or self.kappa < 0 or self.xi < 0:
            raise ConfigurationError("smoothing constants must be non-negative")


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------


class PolynomialFeatures:
    """phi(s) = [(s*scale)^1, ..., (s*scale)^degree] for scalar states."""

    def __init__(self, degree: int = 1, scale: float = 1.0):
        if degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {degree}")
        self.degree = degree
        self.scale = scale
        self.dim = degree

    def __call__(self, state) -> np.ndarray:
        x = float(state) * self.scale
        return np.array([x**k for k in range(1, self.degree + 1)])


class StateTabularFeatures:
    """One-hot encoding of a discrete state (for Gaussian means over finite MDPs)."""

    def __init__(self, n_states: int):
        if n_states < 1:
            raise ConfigurationError(f"n_states must be >= 1, got {n_states}")
        self.n_states = n_states
        self.dim = n_states
        self._eye = np.eye(n_states)

    def __call__(self, state) -> np.ndarray:
        return self._eye[int(state)]


class TabularFeatures:
    """One-hot encoding of a (state, action) pair."""

    def __init__(self, n_states: int, n_actions: int):
        if n_states < 1 or n_actions < 1:
            raise ConfigurationError("n_states and n_actions must be >= 1")
        self.n_states = n_states
        self.n_actions = n_actions
        self.dim = n_states * n_actions
        self._eye = np.eye(self.dim)

    def __call__(self, state, action) -> np.ndarray:
        return self._eye[int(state) * self.n_actions + int(action)]


class ActionIndicatorFeatures:
    """phi(s, a) = [1] if a equals the active action, else [0].

    One-parameter feature for small bandit instances; the induced Softmax is
    a sigmoid in theta.
    """

    def __init__(self, active: int = 0):
        self.active = active
        self.dim = 1

    def __call__(self, state, action) -> np.ndarray:
        return np.array([1.0 if int(action) == self.active else 0.0])


# ---------------------------------------------------------------------------
# Gaussian policy
# ---------------------------------------------------------------------------


class GaussianPolicy:
    """Scalar-action Gaussian: a ~ N(theta . phi(s), sigma^2), fixed sigma.

    ``feature_bound`` must dominate ||phi(s)|| for every state the policy is
    queried on; it is asserted online because the sup-norm of an arbitrary
    feature map is not computable in general.
    """

    def __init__(self, features, feature_bound: float, sigma: float):
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        if feature_bound < 0:
            raise ConfigurationError(f"feature_bound must be non-negative, got {feature_bound}")
        self.features = features
        self.feature_bound = feature_bound
        self.sigma = sigma

    @property
    def dim(self) -> int:
        return self.features.dim

    def _phi(self, state) -> np.ndarray:
        phi = np.asarray(self.features(state), dtype=float)
        norm = float(np.linalg.norm(phi))
        if norm > self.feature_bound + 1e-9:
            raise ConfigurationError(
                f"||phi(state)|| = {norm} exceeds feature_bound {self.feature_bound}"
            )
        return phi

    @staticmethod
    def _linear_mean(theta: np.ndarray, phi: np.ndarray) -> float:
        # Python floats overflow to inf without numpy's RuntimeWarning; at
        # dim 1 the sum is exactly np.dot's
        m = 0.0
        for t, p in zip(np.asarray(theta, dtype=float).tolist(), phi.tolist()):
            m += t * p
        if not math.isfinite(m):
            raise NumericError(f"non-finite policy mean {m}")
        return m

    def mean(self, theta: np.ndarray, state) -> float:
        return self._linear_mean(theta, self._phi(state))

    def sample_action(self, theta: np.ndarray, state, rng: np.random.Generator) -> float:
        return self.mean(theta, state) + self.sigma * rng.standard_normal()

    def log_pdf(self, theta: np.ndarray, state, action) -> float:
        z = (float(action) - self.mean(theta, state)) / self.sigma
        return -0.5 * z * z - math.log(_SQRT_2PI * self.sigma)

    def score(self, theta: np.ndarray, state, action) -> np.ndarray:
        phi = self._phi(state)
        m = self._linear_mean(theta, phi)
        return phi * (float(action) - m) / (self.sigma**2)

    def observed_information(self, theta: np.ndarray, state, action) -> np.ndarray:
        phi = self._phi(state)
        return -np.outer(phi, phi) / (self.sigma**2)

    def smoothing_constants(self) -> SmoothingConstants:
        b = self.feature_bound
        return SmoothingConstants(
            psi=2.0 * b / (_SQRT_2PI * self.sigma),
            kappa=(b / self.sigma) ** 2,
            xi=(b / self.sigma) ** 2,
        )


# ---------------------------------------------------------------------------
# Softmax policy
# ---------------------------------------------------------------------------


class SoftmaxPolicy:
    """Discrete-action Softmax: pi(a|s) proportional to exp(theta . phi(s,a) / tau)."""

    def __init__(self, features, feature_bound: float, tau: float, n_actions: int):
        if tau <= 0:
            raise ConfigurationError(f"tau must be positive, got {tau}")
        if feature_bound < 0:
            raise ConfigurationError(f"feature_bound must be non-negative, got {feature_bound}")
        if n_actions < 2:
            raise ConfigurationError(f"need at least 2 actions, got {n_actions}")
        self.features = features
        self.feature_bound = feature_bound
        self.tau = tau
        self.n_actions = n_actions
        self._matrix_cache: dict = {}

    @property
    def dim(self) -> int:
        return self.features.dim

    def _feature_matrix(self, state) -> np.ndarray:
        key = None
        try:
            key = int(state)
            cached = self._matrix_cache.get(key)
            if cached is not None:
                return cached
        except (TypeError, ValueError):
            pass
        rows = np.stack(
            [np.asarray(self.features(state, a), dtype=float) for a in range(self.n_actions)]
        )
        worst = float(np.max(np.linalg.norm(rows, axis=1)))
        if worst > self.feature_bound + 1e-9:
            raise ConfigurationError(
                f"||phi(state, action)|| = {worst} exceeds feature_bound {self.feature_bound}"
            )
        if key is not None:
            self._matrix_cache[key] = rows
        return rows

    def _log_probabilities(self, theta: np.ndarray, state) -> np.ndarray:
        rows = self._feature_matrix(state)
        z = rows @ np.asarray(theta, dtype=float) / self.tau
        z = z - np.max(z)  # max subtraction keeps exp finite for any finite theta
        return z - math.log(float(np.sum(np.exp(z))))

    def action_probabilities(self, theta: np.ndarray, state) -> np.ndarray:
        return np.exp(self._log_probabilities(theta, state))

    def sample_action(self, theta: np.ndarray, state, rng: np.random.Generator) -> int:
        cum = np.cumsum(self.action_probabilities(theta, state))
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return min(idx, self.n_actions - 1)

    def log_pdf(self, theta: np.ndarray, state, action) -> float:
        return float(self._log_probabilities(theta, state)[int(action)])

    def score(self, theta: np.ndarray, state, action) -> np.ndarray:
        rows = self._feature_matrix(state)
        probs = self.action_probabilities(theta, state)
        return (rows[int(action)] - probs @ rows) / self.tau

    def observed_information(self, theta: np.ndarray, state, action) -> np.ndarray:
        # Action-independent: mean mean^T - E[phi phi^T], scaled by 1/tau^2.
        rows = self._feature_matrix(state)
        probs = self.action_probabilities(theta, state)
        mean = probs @ rows
        second = rows.T @ (probs[:, None] * rows)
        return (np.outer(mean, mean) - second) / (self.tau**2)

    def smoothing_constants(self) -> SmoothingConstants:
        b = self.feature_bound
        return SmoothingConstants(
            psi=2.0 * b / self.tau,
            kappa=4.0 * b * b / (self.tau**2),
            xi=2.0 * b * b / (self.tau**2),
        )


# ---------------------------------------------------------------------------
# Discrete view of a Gaussian policy
# ---------------------------------------------------------------------------


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


class BinnedGaussianPolicy:
    """Discrete-action view of a Gaussian policy over binned real actions.

    Action index j stands for the interval [edges[j-1], edges[j]) of the
    real line (with open ends at the extremes), matching the binning of
    :class:`spgrad.mdp.EnumerableEnv`.  Probabilities and their exact score
    come from Gaussian CDF differences, which lets the exact oracles run on
    the Gaussian policy class.
    """

    def __init__(self, gaussian: GaussianPolicy, edges: np.ndarray):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 1:
            raise ConfigurationError("need at least one bin edge")
        if np.any(np.diff(edges) <= 0):
            raise ConfigurationError("bin edges must be strictly increasing")
        self.gaussian = gaussian
        self.edges = edges
        self.n_actions = edges.size + 1

    @property
    def dim(self) -> int:
        return self.gaussian.dim

    def action_probabilities(self, theta: np.ndarray, state) -> np.ndarray:
        m = self.gaussian.mean(theta, state)
        z = (self.edges - m) / self.gaussian.sigma
        cdf = np.array([_normal_cdf(v) for v in z])
        return np.diff(np.concatenate(([0.0], cdf, [1.0])))

    def score(self, theta: np.ndarray, state, action) -> np.ndarray:
        a = int(action)
        m = self.gaussian.mean(theta, state)
        sigma = self.gaussian.sigma
        z = (self.edges - m) / sigma
        pdf_lo = _normal_pdf(z[a - 1]) if a > 0 else 0.0
        pdf_hi = _normal_pdf(z[a]) if a < self.n_actions - 1 else 0.0
        prob = float(self.action_probabilities(theta, state)[a])
        if prob <= 0.0:
            raise NumericError(f"bin {a} has vanishing probability at the queried theta")
        phi = self.gaussian._phi(state)
        return phi * (pdf_lo - pdf_hi) / (sigma * prob)
