"""MDP abstractions, trajectory sampling, and desk-scale environments.

An environment is any object with an ``spec`` attribute (an :class:`MdpSpec`)
and two pure sampling operations::

    reset(rng) -> state
    step(state, action, rng) -> (next_state, reward)

``step`` is stateless: identical inputs and rng stream yield identical
outputs.  Episodes always run exactly ``spec.horizon`` steps; there are no
absorbing states or early terminations.  The shipped environments do this
per-step work in Python floats, ints and lists (``bisect_right`` for an
inverse-CDF draw, ``min``/``max`` for a clamp), taking the same generator
calls, and giving the same values, as the numpy forms
(``np.searchsorted(..., side="right")``, ``np.clip``, ``rng.uniform``) would.

The shipped environments also step arrays of episodes at once for
:func:`sample_block`, the one rollout of ``safe_updates.spg_run``:
``reset_batch(u)`` and ``step_batch(states, actions, u)`` take an (n, k)
array of uniforms in [0, 1), k being the count the environment declares as
``reset_draws`` / ``step_draws``, and ``n_states`` is the size of a finite
state space (None when it is continuous).  Their
numpy calls run over whole columns of n episodes: an enumerable
environment reads each (state, action) pair at its flat index
s * n_actions + a, one ``take`` per column of its transition CDFs and one
for the reward, and draws the next state with ``rng.inverse_cdf``, a count
over those columns, as ``np.searchsorted(..., side="right")`` finds it.
"""
from __future__ import annotations

import math
import reprlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from .errors import ConfigurationError, NumericError
from .rng import box_muller, inverse_cdf

_STOCHASTIC_ATOL = 1e-12
_INTP_MAX = np.iinfo(np.intp).max  # numpy's largest dimension and array byte size


@dataclass(frozen=True)
class MdpSpec:
    """The scalars every bound is parameterized by.

    gamma: discount factor in (0, 1).
    r_max: bound on the absolute value of every reward the environment emits.
    horizon: episode length T; the effective horizon of the task.
    """

    gamma: float
    r_max: float
    horizon: int

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError(f"gamma must be in (0, 1), got {self.gamma}")
        if not self.r_max > 0.0:
            raise ConfigurationError(f"r_max must be positive, got {self.r_max}")
        if not 1 <= self.horizon <= _INTP_MAX:
            raise ConfigurationError(
                f"horizon must be in [1, {_INTP_MAX}], got {reprlib.repr(self.horizon)}"
            )


@dataclass
class Trajectory:
    """A fixed-horizon episode: per-step states, actions and rewards."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.states) == len(self.actions) == len(self.rewards)):
            raise ValueError("states, actions and rewards must have equal length")
        if len(self.rewards) == 0:
            raise ValueError("trajectory must contain at least one step")

    def __len__(self) -> int:
        return len(self.rewards)


class Environment(Protocol):
    spec: MdpSpec

    def reset(self, rng: np.random.Generator) -> Any: ...

    def step(self, state: Any, action: Any, rng: np.random.Generator) -> tuple[Any, float]: ...


def sample_trajectory(
    env: Environment, policy, theta: np.ndarray, rng: np.random.Generator
) -> Trajectory:
    """Roll out one episode of exactly ``env.spec.horizon`` steps.

    The initial state is drawn from the environment, each action from
    ``policy`` at ``theta``, each transition from the environment kernel.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (policy.dim,):
        raise ConfigurationError(
            f"theta has shape {theta.shape}, policy expects ({policy.dim},)"
        )
    horizon = env.spec.horizon
    sample_action, step = policy.sample_action, env.step
    states, actions, rewards = [], [], []
    state = env.reset(rng)
    for _ in range(horizon):
        action = sample_action(theta, state, rng)
        next_state, reward = step(state, action, rng)
        states.append(state)
        actions.append(action)
        rewards.append(reward)
        state = next_state
    return Trajectory(
        states=np.asarray(states),
        actions=np.asarray(actions),
        rewards=np.asarray(rewards, dtype=float),
    )


def row_draws(env, actor) -> int:
    """Uniforms one episode takes: the reset's, then an action's and a transition's per step."""
    return env.reset_draws + env.spec.horizon * (actor.draws + env.step_draws)


def sample_block(env, actor, draws: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Roll out one episode per row of ``draws``, stepping all of them together.

    ``actor`` is a policy frozen at theta (``policy.actor``) with
    ``sample(states, u)`` and ``score(states, actions)``.  ``draws`` holds
    uniforms in [0, 1), shape (n, ``row_draws(env, actor)``); each row is
    read left to right, in the order ``sample_trajectory`` draws (reset,
    then action and transition at every step), each component taking the
    count of columns it declares.  Returns the rewards, shape (n, T), and
    the per-step scores, shape (n, T, m).
    """
    horizon = env.spec.horizon
    width = row_draws(env, actor)
    if draws.ndim != 2 or draws.shape[1] != width:
        raise ValueError(f"draws have shape {draws.shape}, expected (n, {width})")
    r, a, s = env.reset_draws, actor.draws, env.step_draws
    states, actions, rewards = [], [], []
    state = env.reset_batch(draws[:, :r])
    for t in range(horizon):
        col = r + t * (a + s)
        action = actor.sample(state, draws[:, col : col + a])
        states.append(state)
        actions.append(action)
        state, reward = env.step_batch(state, action, draws[:, col + a : col + a + s])
        rewards.append(reward)
    # scores after the whole episode, as add_trajectory takes them, laid out
    # step by step: scores[:, t] is one contiguous (n, m) block
    scores = actor.score(np.stack(states), np.stack(actions)).swapaxes(0, 1)
    return np.stack(rewards, axis=1), scores


@dataclass
class EnumerableMdp:
    """A finite MDP given by explicit tables; the substrate for exact oracles.

    transition[s, a, s'] holds the transition probabilities, reward[s, a]
    the (deterministic) rewards, initial[s] the start distribution.
    """

    n_states: int
    n_actions: int
    transition: np.ndarray
    reward: np.ndarray
    initial: np.ndarray
    spec: MdpSpec

    def __post_init__(self) -> None:
        self.transition = np.asarray(self.transition, dtype=float)
        self.reward = np.asarray(self.reward, dtype=float)
        self.initial = np.asarray(self.initial, dtype=float)
        expected = (self.n_states, self.n_actions, self.n_states)
        if self.transition.shape != expected:
            raise ConfigurationError(
                f"transition tensor has shape {self.transition.shape}, expected {expected}"
            )
        if self.reward.shape != (self.n_states, self.n_actions):
            raise ConfigurationError(
                f"reward table has shape {self.reward.shape}, "
                f"expected {(self.n_states, self.n_actions)}"
            )
        if self.initial.shape != (self.n_states,):
            raise ConfigurationError(
                f"initial distribution has shape {self.initial.shape}, "
                f"expected {(self.n_states,)}"
            )
        # negated comparisons, so that a NaN entry is rejected too
        if not (np.all(self.transition >= 0.0) and np.all(self.initial >= 0.0)):
            raise ConfigurationError("probabilities must be non-negative")
        row_sums = self.transition.sum(axis=-1)
        if not np.max(np.abs(row_sums - 1.0)) <= _STOCHASTIC_ATOL:
            raise ConfigurationError("transition rows must sum to 1 within 1e-12")
        if not abs(self.initial.sum() - 1.0) <= _STOCHASTIC_ATOL:
            raise ConfigurationError("initial distribution must sum to 1 within 1e-12")
        if not np.max(np.abs(self.reward)) <= self.spec.r_max + 1e-12:
            raise ConfigurationError("rewards exceed spec.r_max")


class EnumerableEnv:
    """Sampling view of an :class:`EnumerableMdp`.

    When ``bin_edges`` is given, real-valued actions are mapped to discrete
    action indices by interval: action index j covers
    [edges[j-1], edges[j]).  This lets continuous-action policies drive a
    finite MDP while keeping the MDP itself enumerable.
    """

    reset_draws = step_draws = 1  # one uniform per inverse-CDF draw

    def __init__(self, mdp: EnumerableMdp, bin_edges: np.ndarray | None = None):
        self.mdp = mdp
        self.spec = mdp.spec
        self.bin_edges = None if bin_edges is None else np.asarray(bin_edges, dtype=float)
        if self.bin_edges is not None:
            if self.bin_edges.size != mdp.n_actions - 1:
                raise ConfigurationError(
                    f"{mdp.n_actions} actions require {mdp.n_actions - 1} bin edges, "
                    f"got {self.bin_edges.size}"
                )
            if np.any(np.diff(self.bin_edges) <= 0):
                raise ConfigurationError("bin edges must be strictly increasing")
        self.n_states = mdp.n_states
        self._cum_initial = np.cumsum(mdp.initial)
        cum_next = np.cumsum(mdp.transition, axis=-1)
        # step_batch reads (s, a) at the flat index s * n_actions + a: column
        # s' of the transition CDFs and the rewards, each one contiguous table
        self._next_columns = list(cum_next.reshape(-1, self.n_states).T.copy())
        self._flat_reward = mdp.reward.ravel()
        # the same tables as Python lists for the scalar reset and step
        self._initial_cdf = self._cum_initial.tolist()
        self._next_cdf = cum_next.tolist()
        self._reward = mdp.reward.tolist()
        self._edges = None if self.bin_edges is None else self.bin_edges.tolist()

    def _draw(self, cum: "list[float]", rng: np.random.Generator) -> int:
        # np.searchsorted(cum, u, side="right"), clamped to the last index
        return min(bisect_right(cum, rng.random()), len(cum) - 1)

    def action_index(self, action: Any) -> int:
        if self._edges is not None:
            return bisect_right(self._edges, float(action))
        index = int(action)
        if not 0 <= index < self.mdp.n_actions:
            raise ValueError(f"action {index} out of range [0, {self.mdp.n_actions})")
        return index

    def reset(self, rng: np.random.Generator) -> int:
        return self._draw(self._initial_cdf, rng)

    def step(self, state: int, action: Any, rng: np.random.Generator) -> tuple[int, float]:
        s = int(state)
        a = self.action_index(action)
        return self._draw(self._next_cdf[s][a], rng), self._reward[s][a]

    def reset_batch(self, u: np.ndarray) -> np.ndarray:
        return np.minimum(
            np.searchsorted(self._cum_initial, u[:, 0], side="right"), self.n_states - 1
        )

    def step_batch(
        self, states: np.ndarray, actions: np.ndarray, u: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        if self.bin_edges is not None:
            a = np.searchsorted(self.bin_edges, actions, side="right")
        else:
            a = np.asarray(actions).astype(int)
            bad = (a < 0) | (a >= self.mdp.n_actions)
            if bad.any():
                raise ValueError(f"action {a[bad][0]} out of range [0, {self.mdp.n_actions})")
        flat = states * self.mdp.n_actions + a
        next_states = inverse_cdf([column.take(flat) for column in self._next_columns], u[:, 0])
        return next_states, self._flat_reward.take(flat)


@dataclass(frozen=True)
class Lqg1dConfig:
    """Bounded 1-D linear-quadratic testbed for continuous-action policies.

    Dynamics s' = a_dyn*s + b_dyn*action + noise, with the state clipped to
    [-s_max, s_max] and the quadratic cost clipped at r_max, so rewards are
    always in [-r_max, 0].
    """

    gamma: float = 0.9
    horizon: int = 10
    a_dyn: float = 1.0
    b_dyn: float = 1.0
    noise_std: float = 0.2
    q: float = 0.5
    c: float = 0.5
    s_max: float = 1.0
    r_max: float = 1.0


class Lqg1dEnv:
    # a uniform initial state; a standard normal (two uniforms) of noise per step
    reset_draws, step_draws, n_states = 1, 2, None

    def __init__(self, config: Lqg1dConfig):
        if not 0 < config.s_max < math.inf:
            raise ConfigurationError(f"s_max must be positive and finite, got {config.s_max}")
        if config.noise_std < 0:
            raise ConfigurationError(f"noise_std must be non-negative, got {config.noise_std}")
        # a negative cost weight pays rewards above 0, past r_max; an infinite one NaN at 0
        for name, weight in (("q", config.q), ("c", config.c)):
            if not 0 <= weight < math.inf:
                raise ConfigurationError(f"{name} must be finite and non-negative, got {weight}")
        # MdpSpec rejects r_max <= 0.
        self.spec = MdpSpec(gamma=config.gamma, r_max=config.r_max, horizon=config.horizon)
        self.config = config

    def reset(self, rng: np.random.Generator) -> float:
        # Generator.uniform(low, high) is low + (high - low) * random()
        low, high = -self.config.s_max, self.config.s_max
        return low + (high - low) * rng.random()

    def step(self, state: float, action: float, rng: np.random.Generator) -> tuple[float, float]:
        cfg = self.config
        s = float(state)
        a = float(action)
        if not math.isfinite(a):
            raise NumericError(f"non-finite action {a}")
        reward = -min(cfg.q * s * s + cfg.c * a * a, cfg.r_max)
        drift = cfg.a_dyn * s + cfg.b_dyn * a + cfg.noise_std * rng.standard_normal()
        # np.clip(drift, -s_max, s_max); a NaN drift stays NaN, as there
        return min(max(drift, -cfg.s_max), cfg.s_max), reward

    def reset_batch(self, u: np.ndarray) -> np.ndarray:
        low, high = -self.config.s_max, self.config.s_max
        return low + (high - low) * u[:, 0]

    def step_batch(
        self, states: np.ndarray, actions: np.ndarray, u: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        cfg = self.config
        z = box_muller(u[:, 0], u[:, 1])
        s, a = states, actions
        bad = ~np.isfinite(a)
        if bad.any():
            raise NumericError(f"non-finite action {a[bad][0]}")
        with np.errstate(over="ignore", invalid="ignore"):
            reward = -np.minimum(cfg.q * s * s + cfg.c * a * a, cfg.r_max)
            drift = cfg.a_dyn * s + cfg.b_dyn * a + cfg.noise_std * z
        return np.clip(drift, -cfg.s_max, cfg.s_max), reward


@dataclass(frozen=True)
class ChainConfig:
    """Discrete chain: move LEFT/RIGHT along n states, reward at the goal.

    With probability ``slip`` the move fails and the agent stays put.  The
    goal is the rightmost state; reward depends on the current state only.
    """

    n_states: int
    slip: float = 0.0
    goal_reward: float = 1.0
    step_reward: float = 0.0
    gamma: float = 0.9
    horizon: int = 5


LEFT, RIGHT = 0, 1


def make_chain(config: ChainConfig) -> EnumerableMdp:
    """Build the chain as an enumerable MDP (start at the leftmost state)."""
    n = config.n_states
    if n < 2:
        raise ConfigurationError(f"chain needs at least 2 states, got {n}")
    if not 0.0 <= config.slip < 1.0:
        raise ConfigurationError(f"slip must be in [0, 1), got {config.slip}")
    # the (n, 2, n) float table against numpy's size limit, checked before allocating
    if n * 2 * n * 8 > _INTP_MAX:
        raise ConfigurationError(f"n_states = {n} makes a transition table too large for numpy")
    transition = np.zeros((n, 2, n))
    for s in range(n):
        for a, move in ((LEFT, -1), (RIGHT, +1)):
            target = min(max(s + move, 0), n - 1)
            transition[s, a, target] += 1.0 - config.slip
            transition[s, a, s] += config.slip
    reward = np.zeros((n, 2))
    reward[: n - 1, :] = config.step_reward
    reward[n - 1, :] = config.goal_reward
    initial = np.zeros(n)
    initial[0] = 1.0
    r_max = max(abs(config.goal_reward), abs(config.step_reward))
    spec = MdpSpec(gamma=config.gamma, r_max=r_max, horizon=config.horizon)
    return EnumerableMdp(
        n_states=n, n_actions=2, transition=transition, reward=reward, initial=initial, spec=spec
    )


def make_bandit(
    arm_rewards: "list[float] | np.ndarray", gamma: float = 0.5, horizon: int = 1
) -> EnumerableMdp:
    """Single-state bandit: one arm per action, deterministic rewards."""
    arms = np.asarray(arm_rewards, dtype=float)
    if arms.ndim != 1 or arms.size < 2:
        raise ConfigurationError("bandit needs at least two arm rewards")
    n_actions = arms.size
    transition = np.ones((1, n_actions, 1))
    spec = MdpSpec(gamma=gamma, r_max=float(np.max(np.abs(arms))), horizon=horizon)
    return EnumerableMdp(
        n_states=1,
        n_actions=n_actions,
        transition=transition,
        reward=arms.reshape(1, n_actions),
        initial=np.ones(1),
        spec=spec,
    )
