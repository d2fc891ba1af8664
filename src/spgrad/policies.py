"""Smoothing parametric policies: linear-mean Gaussian and linear Softmax.

Both classes expose the same surface: ``action_kernel(theta)`` (one
action at a time from a given variate, of the ``np.random.Generator``
method the class names as ``variate``, in Python floats and lists: a
Softmax draw is ``bisect_right`` on a row of cumulative probabilities, as
``np.searchsorted`` on ``np.cumsum`` would find it), ``sample_action`` (the
same, drawing its variate from a generator), ``log_pdf``, ``score``
(gradient of the log-density in theta),
``observed_information`` (the Hessian of the log-density in theta,
negative semidefinite for both classes, so the negative of what statistics
calls the observed information), ``actor(theta)`` (the policy frozen
at theta, acting on arrays of states), and
``smoothing_constants`` returning the class constants (psi, kappa, xi)
that bound, uniformly over states and theta,

    E ||score||      <= psi
    E ||score||^2    <= kappa
    E ||obs. info||  <= xi      (spectral norm)

with the expectation over actions drawn from the policy itself.  The
constants depend only on the feature-norm bound and sigma (Gaussian) or
tau (Softmax), never on theta, which is what makes adaptive safe updates
computable before any data is seen.

On a finite state space a policy at theta is one table: ``table(theta)``
gives the (S, A) probabilities pi(a | s) and the (S, A, m) scores, which
is how the exact oracles read ``SoftmaxPolicy`` and ``BinnedGaussianPolicy``,
and the scalar methods of both return entries of it.  ``table`` also takes
a stack of theta (k, m) and returns the k tables stacked, each equal bit
for bit to the table at its row; a single theta is the same array pass
without the leading axis.  Both policies build a table in one array pass
over the thetas and states.  Only the Softmax table is memoised: the
scalar sampler asks for it once per binding of (env, policy, theta),
through ``action_kernel``, which builds its cumulative rows from it, but
``add_trajectory`` and the scalar methods ask for it on every call.  The
memo holds the policy at the last theta seen, keyed by theta's shape and
bytes (a (1, m) stack never returns a single theta's table), with the
log-probabilities.  The binned view builds its table on each call.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericError, check_integer
from .mdp import check_bin_edges, check_index
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


def _square(x: float) -> float:
    """x**2 as Python's pow rounds it (x * x may differ in the last bit), and
    inf where pow raises OverflowError; a square that underflows is 0."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _floats(theta: np.ndarray, dim: "int | None" = None) -> "list[float]":
    """A single theta (m,) as a list of Python floats; ValueError for any
    other shape, or for m other than ``dim`` where that is given."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or dim not in (None, theta.size):
        raise ValueError(f"theta has shape {theta.shape}, expected ({'m' if dim is None else dim},)")
    return theta.tolist()


def _thetas(theta: np.ndarray, dim: int) -> np.ndarray:
    """A single theta (m,) or a stack (k, m) as a contiguous float array,
    checked when a table is built.  Tables broadcast over the optional
    leading axis, so a single theta is the k = 1 case of the same code,
    with the leading axis dropped."""
    theta = np.ascontiguousarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != dim:
        raise ValueError(f"theta has shape {theta.shape}, expected ({dim},) or (k, {dim})")
    return theta


def _at_row(theta: np.ndarray, index: "tuple | np.ndarray", single: str = "") -> str:
    """How an error at ``index`` (theta row first, for a stack) names the
    theta it arose at: ``single`` for a single theta, the row for a stack."""
    return f" at theta row {index[0]}" if theta.ndim == 2 else single


def _finite_constants(key: str, value: float, **constants: float) -> SmoothingConstants:
    """The constants, or a ConfigurationError naming ``key`` if one overflows."""
    for name, constant in constants.items():
        if not math.isfinite(constant):
            raise ConfigurationError(
                f"{key} = {value} makes the smoothing constant {name} overflow"
            )
    return SmoothingConstants(**constants)


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------


class PolynomialFeatures:
    """phi(s) = [(s*scale)^1, ..., (s*scale)^degree] for scalar states."""

    def __init__(self, degree: int = 1, scale: float = 1.0):
        degree = check_integer(degree, "degree")
        if degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {degree}")
        self.degree = degree
        self.scale = scale
        self.dim = degree

    def values(self, state) -> "list[float]":
        """phi(state) as Python floats: x itself (x**1 == x), then Python's
        x**k for k >= 2, with no comprehension's frame per call."""
        x = float(state) * self.scale
        phi = [x]
        for k in range(2, self.degree + 1):
            phi.append(x**k)
        return phi

    def __call__(self, state) -> np.ndarray:
        return np.array(self.values(state))

    def batch(self, states: np.ndarray) -> np.ndarray:
        """(n, degree) rows equal to ``self(state)``; powers above 1 use Python's pow."""
        states = np.asarray(states, dtype=float)
        phi = np.empty((len(states), self.degree))
        np.multiply(states, self.scale, out=phi[:, 0])
        for k in range(2, self.degree + 1):
            phi[:, k - 1] = [v**k for v in phi[:, 0].tolist()]
        return phi


class StateTabularFeatures:
    """One-hot encoding of a discrete state (for Gaussian means over finite MDPs)."""

    def __init__(self, n_states: int):
        n_states = check_integer(n_states, "n_states")
        if n_states < 1:
            raise ConfigurationError(f"n_states must be >= 1, got {n_states}")
        self.n_states = n_states
        self.dim = n_states
        self._eye = np.eye(n_states)

    def __call__(self, state) -> np.ndarray:
        return self._eye[int(state)]

    def values(self, state) -> "list[float]":
        """phi(state) as Python floats."""
        return self._eye[int(state)].tolist()

    def batch(self, states: np.ndarray) -> np.ndarray:
        return self._eye[np.asarray(states, dtype=int)]


class TabularFeatures:
    """One-hot encoding of a (state, action) pair."""

    def __init__(self, n_states: int, n_actions: int):
        n_states, n_actions = check_integer(n_states, "n_states"), check_integer(n_actions, "n_actions")
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
    a sigmoid in theta.  ``active`` must be an integer >= 0; one past the
    last action gives phi = [0] for every action, which ``SoftmaxPolicy``
    refuses.
    """

    def __init__(self, active: int = 0):
        active = check_integer(active, "active")
        if active < 0:
            raise ConfigurationError(f"active must be >= 0, got {active}")
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
    feature map is not computable in general.  The scalar methods read the
    features as Python floats, through the map's ``values`` where it has one;
    the act on a one-feature ``PolynomialFeatures`` map computes its one
    feature itself (see ``action_kernel``).
    """

    variate = "standard_normal"  # the Generator method of an action's variate

    def __init__(self, features, feature_bound: float, sigma: float):
        if not 0 < sigma < math.inf:
            raise ConfigurationError(f"sigma must be positive and finite, got {sigma}")
        if not 0 <= feature_bound < math.inf:
            raise ConfigurationError(f"feature_bound must be finite and >= 0, got {feature_bound}")
        self.features = features
        self.feature_bound = feature_bound
        self.sigma = sigma
        self.variance = _square(sigma)
        # the norm above which a state is re-checked: math.hypot may differ
        # from np.linalg.norm in the last bits, so a norm near the bound is
        # decided, and reported, by np.linalg.norm
        self._screen = (feature_bound + 1e-9) * (1.0 - 1e-12)
        self._values = getattr(features, "values", None) or (
            lambda state: np.asarray(features(state), dtype=float).tolist()
        )

    @property
    def dim(self) -> int:
        return self.features.dim

    def _phi_values(self, state) -> "list[float]":
        """phi(state) as Python floats, its norm checked against the bound."""
        phi = self._values(state)
        if math.hypot(*phi) > self._screen:
            norm = float(np.linalg.norm(phi))
            if norm > self.feature_bound + 1e-9:
                raise ConfigurationError(
                    f"||phi(state)|| = {norm} exceeds feature_bound {self.feature_bound}"
                )
        return phi

    @staticmethod
    def _linear_mean(theta: "list[float]", phi: "list[float]") -> float:
        # a feature map need not declare its dim, so theta is matched to phi
        if len(theta) != len(phi):
            raise ValueError(f"theta has shape ({len(theta)},), expected ({len(phi)},)")
        # Python floats overflow to inf without numpy's RuntimeWarning; at
        # dim 1 the sum is exactly np.dot's
        m = 0.0
        for t, p in zip(theta, phi):
            m += t * p
        if not math.isfinite(m):
            raise NumericError(f"non-finite policy mean {m}")
        return m

    def mean(self, theta: np.ndarray, state) -> float:
        return self._linear_mean(_floats(theta), self._phi_values(state))

    def action_kernel(self, theta: np.ndarray):
        """``act(state, z)``: the action at ``state`` for the standard normal
        z, the mean plus sigma times z, with theta bound once as floats.

        On a ``PolynomialFeatures(degree=1)`` map and a theta of one entry
        the act is written in closed form, with the operations of the
        general path: x = float(state) * scale, the norm screen on abs(x)
        (``math.hypot`` of one value), a flagged state decided and reported
        by ``_phi_values``, and the mean 0.0 + theta_0 x that
        ``_linear_mean`` sums.  Every other map, and a theta of another
        length, takes ``_linear_mean(theta, _phi_values(state))``.
        """
        theta, sigma = _floats(theta), self.sigma
        phi, linear_mean = self._phi_values, self._linear_mean
        features = self.features
        if type(features) is PolynomialFeatures and features.degree == 1 and len(theta) == 1:
            (t,), scale, screen = theta, features.scale, self._screen

            def act(state, z: float) -> float:
                x = float(state) * scale
                if abs(x) > screen:
                    phi(state)
                m = 0.0 + t * x
                if not math.isfinite(m):
                    raise NumericError(f"non-finite policy mean {m}")
                return m + sigma * z

        else:

            def act(state, z: float) -> float:
                return linear_mean(theta, phi(state)) + sigma * z

        return act

    def sample_action(self, theta: np.ndarray, state, rng: np.random.Generator) -> float:
        return self.action_kernel(theta)(state, rng.standard_normal())

    def log_pdf(self, theta: np.ndarray, state, action) -> float:
        z = (float(action) - self.mean(theta, state)) / self.sigma
        return -0.5 * z * z - math.log(_SQRT_2PI * self.sigma)

    def score(self, theta: np.ndarray, state, action) -> np.ndarray:
        phi = self._phi_values(state)
        m = self._linear_mean(_floats(theta), phi)
        return np.array(phi) * (float(action) - m) / self.variance

    def observed_information(self, theta: np.ndarray, state, action) -> np.ndarray:
        """grad^2_theta log pi(action | state) = -phi phi^T / sigma^2.

        Negative semidefinite: this is the negative of the statistical
        observed information, whose name the method keeps.
        """
        phi = np.array(self._phi_values(state))
        return -np.outer(phi, phi) / self.variance

    def actor(self, theta: np.ndarray) -> "GaussianActor":
        return GaussianActor(self, theta)

    def smoothing_constants(self) -> SmoothingConstants:
        b = self.feature_bound
        ratio2 = _square(b / self.sigma)
        return _finite_constants(
            "sigma", self.sigma, psi=2.0 * b / (_SQRT_2PI * self.sigma), kappa=ratio2, xi=ratio2
        )


class GaussianActor:
    """A Gaussian policy frozen at theta, acting on arrays of states.

    ``sample`` repeats ``sample_action`` (given the standard normal
    ``box_muller`` makes of a row's two uniforms) and ``score`` repeats the
    scalar ``score``, state by state and float for float: features from the
    map's ``batch``, the mean summed feature by feature as ``_linear_mean``
    does, and the same typed errors.  ``sample`` also writes the scores of
    the actions it draws, from the features and mean of the draw, so a
    rollout evaluates the policy once per state.  Arithmetic that overflows
    gives inf as Python floats do, with no numpy warning: each public
    method holds one ``np.errstate`` for the whole call, and the private
    helpers it calls enter none.
    """

    draws = 2  # uniforms per action: one standard normal by ``box_muller``

    def __init__(self, policy: GaussianPolicy, theta: np.ndarray):
        self.policy = policy
        self.dim = policy.dim
        self.theta = _floats(theta, policy.dim)
        # the squared feature norm above which a row is re-checked
        self._near = _square(policy._screen)

    def _phi_and_mean(self, states: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        policy = self.policy
        phi = np.asarray(policy.features.batch(states), dtype=float)
        # a screen: squared row norms, whose last bits may differ from
        # np.linalg.norm's, against the squared bound less a slack far above
        # that; the scalar check's np.linalg.norm decides each flagged row
        near = np.einsum("ij,ij->i", phi, phi) > self._near
        if near.any():
            for i in np.flatnonzero(near):
                policy._phi_values(states[i])
        mean = np.zeros(len(states))
        for j, t in enumerate(self.theta):
            mean += t * phi[:, j]
        if not np.isfinite(mean).all():
            raise NumericError(f"non-finite policy mean {mean[~np.isfinite(mean)][0]}")
        return phi, mean

    def _score(
        self, phi: np.ndarray, mean: np.ndarray, actions: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        # the scalar score, row by row: phi times (action - mean), over the variance
        out = np.multiply(phi, (actions - mean)[:, None], out=out)
        out /= self.policy.variance
        return out

    def sample(self, states: np.ndarray, u: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Actions at ``states`` (n,) from uniforms ``u`` (n, 2): the mean plus
        sigma times the standard normal ``box_muller`` makes of each row.
        Their scores are written to ``scores`` (n, m)."""
        z = box_muller(u[:, 0], u[:, 1])
        with np.errstate(over="ignore", invalid="ignore"):
            phi, mean = self._phi_and_mean(states)
            z *= self.policy.sigma
            actions = np.add(mean, z, out=z)
            self._score(phi, mean, actions, out=scores)
        return actions

    def score(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Scores, shape states.shape + (m,), of ``actions`` at ``states``."""
        with np.errstate(over="ignore", invalid="ignore"):
            phi, mean = self._phi_and_mean(states.ravel())
            return self._score(phi, mean, actions.ravel()).reshape(*states.shape, -1)


# ---------------------------------------------------------------------------
# Softmax policy
# ---------------------------------------------------------------------------


def _cell(policy, state, action) -> "tuple[int, int]":
    """(state, action) as an index of the policy's (S, A) table, each checked."""
    state = check_index(state, policy.n_states, "state")
    return state, check_index(action, policy.n_actions, "action")


class PolicyTable(NamedTuple):
    """A policy on a finite state and action space, at one theta (m,) or
    at each row of a stack (k, m), whose arrays then lead with k."""

    probs: np.ndarray  # (S, A) pi(a | s), read-only
    scores: np.ndarray  # (S, A, m) grad_theta log pi(a | s), read-only


class _SoftmaxTable(NamedTuple):
    """A Softmax policy at one theta, or a stack of them, at every state and action."""

    probs: np.ndarray  # (S, A) pi(a | s), read-only; a row is ``action_probabilities``
    log_probs: np.ndarray  # (S, A) log pi(a | s), read-only, which ``log_pdf`` reads
    scores: np.ndarray  # (S, A, m) read-only


class SoftmaxPolicy:
    """Discrete-action Softmax: pi(a|s) proportional to exp(theta . phi(s,a) / tau)
    on states 0 .. n_states-1.  The features are evaluated once, and their
    bound checked, when the first table is built; features that are the same
    for every action at every state are refused, since they leave pi uniform.
    """

    variate = "random"  # the Generator method of an action's variate

    def __init__(self, features, feature_bound: float, tau: float, n_actions: int, n_states: int):
        if not 0 < tau < math.inf:
            raise ConfigurationError(f"tau must be positive and finite, got {tau}")
        if not 0 <= feature_bound < math.inf:
            raise ConfigurationError(f"feature_bound must be finite and >= 0, got {feature_bound}")
        n_actions, n_states = check_integer(n_actions, "n_actions"), check_integer(n_states, "n_states")
        if n_actions < 2:
            raise ConfigurationError(f"need at least 2 actions, got {n_actions}")
        if n_states < 1:
            raise ConfigurationError(f"n_states must be >= 1, got {n_states}")
        self.features = features
        self.feature_bound = feature_bound
        self.tau = tau
        self.n_actions = n_actions
        self.n_states = n_states
        self._phi: "np.ndarray | None" = None
        self._key: "tuple | None" = None  # theta's shape and bytes
        self._memo: "_SoftmaxTable | None" = None

    @property
    def dim(self) -> int:
        return self.features.dim

    def _feature_table(self) -> np.ndarray:
        """(S, A, m) features phi(s, a), evaluated on first use."""
        if self._phi is None:
            states, actions = range(self.n_states), range(self.n_actions)
            phi = np.array([[self.features(s, a) for a in actions] for s in states], dtype=float)
            worst = float(np.max(np.linalg.norm(phi, axis=2)))
            if worst > self.feature_bound + 1e-9:
                raise ConfigurationError(
                    f"||phi(state, action)|| = {worst} exceeds feature_bound {self.feature_bound}"
                )
            if np.all(phi == phi[:, :1]):
                # then every action is equally likely at every theta and every score is 0
                raise ConfigurationError("phi(state, action) is the same for every action at every state")
            self._phi = phi
        return self._phi

    def _table(self, theta: np.ndarray) -> _SoftmaxTable:
        """The memo at theta (m,) or at a stack (k, m), rebuilt when theta's
        shape or bytes differ from the last one seen.

        One array pass over the thetas and states, each value as a per-state
        log-softmax and score at a single theta would give it: the
        broadcast products compute every (theta, state) row as its own
        product does, and the normalizer is ``math.log`` of each row's sum.
        """
        theta = np.asarray(theta, dtype=float)
        key = (theta.shape, theta.tobytes())
        if key != self._key:
            theta, phi = _thetas(theta, self.dim), self._feature_table()
            with np.errstate(over="ignore", invalid="ignore"):
                # ([k,] S, A): per theta and state, the (A, m) @ (m,) product
                z = (phi @ theta[..., None, :, None])[..., 0] / self.tau
            finite = np.isfinite(z)
            if not finite.all():
                index = np.argwhere(~finite)[0]
                raise NumericError(f"non-finite Softmax logit {z[tuple(index)]}{_at_row(theta, index)}")
            z -= z.max(axis=-1, keepdims=True)  # finite logits: exp(z) in [0, 1], the largest 1
            norms = [math.log(total) for total in np.exp(z).sum(axis=-1).ravel().tolist()]
            log_probs = z - np.array(norms).reshape(z.shape[:-1] + (1,))
            probs = np.exp(log_probs)
            scores = (phi - np.matmul(probs[..., None, :], phi)) / self.tau
            for table in (probs, log_probs, scores):
                table.flags.writeable = False
            self._memo, self._key = _SoftmaxTable(probs, log_probs, scores), key
        return self._memo

    def table(self, theta: np.ndarray) -> PolicyTable:
        """The probabilities and scores at every state and action, read-only;
        at a stack of theta (k, m), one table per row, stacked."""
        memo = self._table(theta)
        return PolicyTable(memo.probs, memo.scores)

    def action_probabilities(self, theta: np.ndarray, state) -> np.ndarray:
        """pi(. | state) at theta, read-only."""
        return self._table(theta).probs[check_index(state, self.n_states, "state")]

    def action_kernel(self, theta: np.ndarray):
        """``act(state, u)``: the action at ``state`` for the uniform u, from
        the cumulative rows of the table at theta, built once per call."""
        cum = np.cumsum(self._table(theta).probs, axis=1).tolist()
        last, n_states = self.n_actions - 1, self.n_states

        def act(state, u: float) -> int:
            # the states the env kernels produce skip check_index
            if not (type(state) is int and 0 <= state < n_states):
                state = check_index(state, n_states, "state")
            row = cum[state]
            # np.searchsorted(row, u * row[-1], side="right"), the last action at the top
            return min(bisect_right(row, u * row[-1]), last)

        return act

    def sample_action(self, theta: np.ndarray, state, rng: np.random.Generator) -> int:
        return self.action_kernel(theta)(state, rng.random())

    def log_pdf(self, theta: np.ndarray, state, action) -> float:
        return float(self._table(theta).log_probs[_cell(self, state, action)])

    def score(self, theta: np.ndarray, state, action) -> np.ndarray:
        """The score at (state, action), read-only."""
        return self._table(theta).scores[_cell(self, state, action)]

    def observed_information(self, theta: np.ndarray, state, action) -> np.ndarray:
        """grad^2_theta log pi(action | state) = (mu mu^T - E[phi phi^T]) / tau^2
        with mu = E[phi] under pi(. | state), for every action.  Minus a
        covariance, so negative semidefinite: this is the negative of the
        statistical observed information, whose name the method keeps.
        """
        state, _ = _cell(self, state, action)
        probs = self._table(theta).probs[state]
        rows = self._phi[state]
        mean = probs @ rows
        second = rows.T @ (probs[:, None] * rows)
        return (np.outer(mean, mean) - second) / (self.tau**2)

    def actor(self, theta: np.ndarray) -> "SoftmaxActor":
        return SoftmaxActor(self, theta)

    def smoothing_constants(self) -> SmoothingConstants:
        b = self.feature_bound
        tau2 = _square(self.tau)
        if tau2 == 0.0:
            raise ConfigurationError(
                f"tau = {self.tau} is too small: tau^2 underflows to 0, and kappa and xi divide by it"
            )
        return _finite_constants(
            "tau", self.tau, psi=2.0 * b / self.tau, kappa=4.0 * b * b / tau2, xi=2.0 * b * b / tau2
        )


class SoftmaxActor:
    """A Softmax policy frozen at theta, acting on arrays of integer states:
    a view of ``policy.table(theta)``.  ``sample`` draws for row i the
    action ``sample_action`` draws from uniform i, reading column a of the
    cumulative probabilities over the S states with one ``take`` each, and
    writes its score, the row of the (S * A, m) scores at the flat index
    s * A + a, with one more.
    """

    draws = 1

    def __init__(self, policy: SoftmaxPolicy, theta: np.ndarray):
        _floats(theta, policy.dim)  # a single theta, as ``GaussianActor`` takes
        table = policy.table(theta)
        self.n_actions = policy.n_actions
        self.dim = policy.dim
        self.cdf = list(np.cumsum(table.probs, axis=1).T.copy())
        self.scores = table.scores.reshape(-1, table.scores.shape[-1])

    def sample(self, states: np.ndarray, u: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Actions at ``states`` (n,) from uniforms ``u`` (n, 1); their scores
        are written to ``scores`` (n, m)."""
        cdf = [column.take(states) for column in self.cdf]
        # searchsorted(cum, u * cum[-1], side="right") on every row at once;
        # the last column only scales u
        actions = inverse_cdf(cdf[:-1], u[:, 0] * cdf[-1])
        # states and actions are in range, so "clip" never moves an index; the
        # default "raise" would buffer the take into ``out``
        self.scores.take(states * self.n_actions + actions, axis=0, out=scores, mode="clip")
        return actions

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
    :class:`spgrad.mdp.EnumerableEnv` on states 0 .. n_states-1.
    Probabilities and their exact scores come from Gaussian CDF differences
    in ``table(theta)``, which the scalar methods read and which lets the
    exact oracles run on the Gaussian policy class.  No sampler reads this
    view, so the table is built on each call.
    """

    def __init__(self, gaussian: GaussianPolicy, edges: np.ndarray, n_states: int):
        n_states = check_integer(n_states, "n_states")
        if n_states < 1:
            raise ConfigurationError(f"n_states must be >= 1, got {n_states}")
        self.gaussian = gaussian
        self.edges = check_bin_edges(edges)
        self.n_actions = self.edges.size + 1
        self.n_states = n_states

    @property
    def dim(self) -> int:
        return self.gaussian.dim

    def action_probabilities(self, theta: np.ndarray, state) -> np.ndarray:
        """pi(. | state) at theta, read-only: a row of ``table(theta)``."""
        return self.table(theta).probs[check_index(state, self.n_states, "state")]

    def score(self, theta: np.ndarray, state, action) -> np.ndarray:
        """The score at (state, action), read-only: an entry of ``table(theta)``."""
        return self.table(theta).scores[_cell(self, state, action)]

    def table(self, theta: np.ndarray) -> PolicyTable:
        """The probabilities and scores at every state and bin, read-only; at
        a stack of theta (k, m), one table per row, stacked.

        One array pass over the thetas and states: each mean is summed
        feature by feature, as ``GaussianPolicy._linear_mean`` sums it, and
        ``math.erf`` and ``math.exp`` give the edge CDFs and densities of
        every (theta, state) row from one flat list.  A bin's probability is
        the difference of the CDFs at its edges, and its score phi(s) times
        the density at its lower edge less that at its upper one, over sigma
        times its probability.  At the first (theta, state) in row-major
        order with a non-finite mean or a bin of vanishing probability,
        raises NumericError for the first of the two.
        """
        theta, sigma = _thetas(theta, self.dim), self.gaussian.sigma
        # (S, m), each row checked against the feature bound
        phi = np.array([self.gaussian._phi_values(s) for s in range(self.n_states)])
        mean = np.zeros(theta.shape[:-1] + (self.n_states,))
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(self.dim):
                mean += theta[..., j, None] * phi[:, j]
            z = (self.edges - mean[..., None]) / sigma  # ([k,] S, edges)
        flat = z.ravel().tolist()
        cdf = np.array([_normal_cdf(v) for v in flat]).reshape(z.shape)
        probs = np.diff(cdf, axis=-1, prepend=0.0, append=1.0)
        bad_mean = ~np.isfinite(mean)
        vanishing = probs <= 0.0
        flagged = np.argwhere(bad_mean | vanishing.any(axis=-1))
        if flagged.size:
            index = tuple(flagged[0])
            if bad_mean[index]:
                raise NumericError(f"non-finite policy mean {float(mean[index])}{_at_row(theta, index)}")
            where = _at_row(theta, index, " at the queried theta")
            raise NumericError(
                f"bin {np.flatnonzero(vanishing[index])[0]} has vanishing probability{where}"
            )
        pdf = np.array([_normal_pdf(v) for v in flat]).reshape(z.shape)
        # the density at each bin's lower edge minus that at its upper one
        outer = np.zeros(z.shape[:-1] + (1,))
        slopes = np.concatenate([outer, pdf], axis=-1) - np.concatenate([pdf, outer], axis=-1)
        scores = phi[:, None, :] * slopes[..., None] / (sigma * probs)[..., None]
        for table in (probs, scores):
            table.flags.writeable = False
        return PolicyTable(probs, scores)
