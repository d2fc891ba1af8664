"""Smoothing parametric policies: linear-mean Gaussian and linear Softmax.

Both classes expose the same surface: ``sample_action`` (one action, in
Python floats and lists: a Softmax draw is ``bisect_right`` on cumulative
probabilities memoised with the probabilities, as ``np.searchsorted`` on
``np.cumsum`` would find it), ``log_pdf``, ``score`` (gradient of the
log-density in theta), ``observed_information`` (its Hessian), ``actor``
(the policy frozen at theta, acting on arrays of states), and
``smoothing_constants`` returning the class constants (psi, kappa, xi)
that bound, uniformly over states and theta,

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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigurationError, NumericError
from .rng import box_muller, inverse_cdf

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

    def batch(self, states: np.ndarray) -> np.ndarray:
        """(n, degree) rows equal to ``self(state)``; powers above 1 use Python's pow."""
        x = np.asarray(states, dtype=float) * self.scale
        powers = [np.array([v**k for v in x.tolist()]) for k in range(2, self.degree + 1)]
        return np.stack([x, *powers], axis=1)


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

    def batch(self, states: np.ndarray) -> np.ndarray:
        return self._eye[np.asarray(states, dtype=int)]


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
        if not 0 < sigma < math.inf:
            raise ConfigurationError(f"sigma must be positive and finite, got {sigma}")
        if not 0 <= feature_bound < math.inf:
            raise ConfigurationError(f"feature_bound must be finite and >= 0, got {feature_bound}")
        self.features = features
        self.feature_bound = feature_bound
        self.sigma = sigma

    @property
    def dim(self) -> int:
        return self.features.dim

    def _phi(self, state) -> np.ndarray:
        phi = np.asarray(self.features(state), dtype=float)
        bound = self.feature_bound + 1e-9
        # math.hypot may differ from np.linalg.norm in the last bits, so a
        # norm near the bound is decided, and reported, by np.linalg.norm
        if math.hypot(*phi.tolist()) > bound * (1.0 - 1e-12):
            norm = float(np.linalg.norm(phi))
            if norm > bound:
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

    def actor(self, theta: np.ndarray, n_states: "int | None" = None) -> "GaussianActor":
        return GaussianActor(self, theta)

    def smoothing_constants(self) -> SmoothingConstants:
        b = self.feature_bound
        return SmoothingConstants(
            psi=2.0 * b / (_SQRT_2PI * self.sigma),
            kappa=(b / self.sigma) ** 2,
            xi=(b / self.sigma) ** 2,
        )


class GaussianActor:
    """A Gaussian policy frozen at theta, acting on arrays of states.

    ``sample`` and ``score`` repeat ``sample_action`` (given the standard
    normal ``box_muller`` makes of a row's two uniforms) and ``score`` state
    by state, float for float: features from the map's ``batch``, the mean
    summed feature by feature as ``_linear_mean`` does, and the same typed
    errors.  Arithmetic that overflows gives inf as Python floats do, with no
    numpy warning.
    """

    draws = 2  # uniforms per action: one standard normal by ``box_muller``

    def __init__(self, policy: GaussianPolicy, theta: np.ndarray):
        self.policy = policy
        self.theta = np.asarray(theta, dtype=float).tolist()

    def _phi_and_mean(self, states: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        policy = self.policy
        phi = np.asarray(policy.features.batch(states), dtype=float)
        # np.linalg.norm per row may differ from the scalar norm in the last
        # bit; rows near the bound are re-checked by the scalar check
        near = np.linalg.norm(phi, axis=1) > (policy.feature_bound + 1e-9) * (1.0 - 1e-12)
        for i in np.flatnonzero(near):
            policy._phi(states[i])
        mean = np.zeros(len(states))
        with np.errstate(over="ignore", invalid="ignore"):
            for j, t in enumerate(self.theta):
                mean += t * phi[:, j]
        bad = ~np.isfinite(mean)
        if bad.any():
            raise NumericError(f"non-finite policy mean {mean[bad][0]}")
        return phi, mean

    def sample(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Actions at ``states`` (n,) from uniforms ``u`` (n, 2): the mean plus
        sigma times the standard normal ``box_muller`` makes of each row."""
        z = box_muller(u[:, 0], u[:, 1])
        _, mean = self._phi_and_mean(states)
        with np.errstate(over="ignore"):
            return mean + self.policy.sigma * z

    def score(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Scores, shape states.shape + (m,), of ``actions`` at ``states``."""
        phi, mean = self._phi_and_mean(states.ravel())
        with np.errstate(over="ignore", invalid="ignore"):
            scores = phi * (actions.ravel() - mean)[:, None] / (self.policy.sigma**2)
        return scores.reshape(*states.shape, -1)


# ---------------------------------------------------------------------------
# Softmax policy
# ---------------------------------------------------------------------------


class SoftmaxPolicy:
    """Discrete-action Softmax: pi(a|s) proportional to exp(theta . phi(s,a) / tau)."""

    def __init__(self, features, feature_bound: float, tau: float, n_actions: int):
        if not 0 < tau < math.inf:
            raise ConfigurationError(f"tau must be positive and finite, got {tau}")
        if not 0 <= feature_bound < math.inf:
            raise ConfigurationError(f"feature_bound must be finite and >= 0, got {feature_bound}")
        if n_actions < 2:
            raise ConfigurationError(f"need at least 2 actions, got {n_actions}")
        self.features = features
        self.feature_bound = feature_bound
        self.tau = tau
        self.n_actions = n_actions
        self._matrix_cache: dict = {}
        # (action probabilities, their cumulative sums) at the last theta
        # seen, by int state
        self._probs_theta: "bytes | None" = None
        self._probs_memo: "dict[int, tuple[np.ndarray, list[float]]]" = {}

    @property
    def dim(self) -> int:
        return self.features.dim

    def _feature_matrix(self, state) -> np.ndarray:
        key = int(state) if isinstance(state, (int, np.integer)) else None
        if key is not None:
            cached = self._matrix_cache.get(key)
            if cached is not None:
                return cached
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

    def _probabilities_and_cdf(self, theta: np.ndarray, state) -> "tuple[np.ndarray, list[float]]":
        """pi(. | state) at theta and its cumulative sums, as ``np.cumsum`` adds them.

        Sampling and scoring ask for the same (theta, state) in turn, so
        integer states are memoised at the last theta seen, both in one entry.
        """
        if not isinstance(state, (int, np.integer)):
            probs = np.exp(self._log_probabilities(theta, state))
            return probs, list(accumulate(probs.tolist()))
        key = np.asarray(theta, dtype=float).tobytes()
        if key != self._probs_theta:
            self._probs_theta = key
            self._probs_memo = {}
        entry = self._probs_memo.get(int(state))
        if entry is None:
            probs = np.exp(self._log_probabilities(theta, state))
            probs.flags.writeable = False
            entry = self._probs_memo[int(state)] = (probs, list(accumulate(probs.tolist())))
        return entry

    def action_probabilities(self, theta: np.ndarray, state) -> np.ndarray:
        """pi(. | state) at theta, read-only at integer states (memoised)."""
        return self._probabilities_and_cdf(theta, state)[0]

    def sample_action(self, theta: np.ndarray, state, rng: np.random.Generator) -> int:
        cum = self._probabilities_and_cdf(theta, state)[1]
        # np.searchsorted(cum, u * cum[-1], side="right"), the last action at the top
        return min(bisect_right(cum, rng.random() * cum[-1]), self.n_actions - 1)

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

    def actor(self, theta: np.ndarray, n_states: int) -> "SoftmaxActor":
        """The policy frozen at theta over states 0..n_states-1."""
        return SoftmaxActor(self, theta, n_states)

    def smoothing_constants(self) -> SmoothingConstants:
        b = self.feature_bound
        return SmoothingConstants(
            psi=2.0 * b / self.tau,
            kappa=4.0 * b * b / (self.tau**2),
            xi=2.0 * b * b / (self.tau**2),
        )


class SoftmaxActor:
    """A Softmax policy frozen at theta, acting on arrays of integer states.

    Its tables are the policy's own ``action_probabilities`` and ``score``
    at every state, so a rollout is table lookups: column a of the
    cumulative probabilities over the S states, and the (S * A, m) scores
    at the flat index s * A + a, each read with one ``take``.  ``sample``
    draws for row i the action ``sample_action`` draws from uniform i.
    """

    draws = 1

    def __init__(self, policy: SoftmaxPolicy, theta: np.ndarray, n_states: int):
        states, actions = range(n_states), range(policy.n_actions)
        probs = np.stack([policy.action_probabilities(theta, s) for s in states])
        self.cdf = list(np.cumsum(probs, axis=1).T.copy())
        scores = np.stack([[policy.score(theta, s, a) for a in actions] for s in states])
        self.n_actions = policy.n_actions
        self.scores = scores.reshape(n_states * policy.n_actions, -1)

    def sample(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Actions at ``states`` (n,) from uniforms ``u`` (n, 1)."""
        cdf = [column.take(states) for column in self.cdf]
        # searchsorted(cum, u * cum[-1], side="right") on every row at once
        return inverse_cdf(cdf, u[:, 0] * cdf[-1])

    def score(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Scores, shape states.shape + (m,), of ``actions`` at ``states``."""
        return self.scores.take(states * self.n_actions + actions, axis=0)


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
