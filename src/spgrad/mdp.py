"""MDP abstractions, trajectory sampling, and desk-scale environments.

An environment is any object with an ``spec`` attribute (an :class:`MdpSpec`)
and two pure sampling operations::

    reset(rng) -> state
    step(state, action, rng) -> (next_state, reward)

``step`` is stateless: identical inputs and rng stream yield identical
outputs.  Episodes always run exactly ``spec.horizon`` steps; there are no
absorbing states or early terminations.  Each operation draws one variate,
by the ``np.random.Generator`` method named in ``reset_variate`` /
``step_variate``, and passes it to its form in ``kernels()``: ``reset(v)``
and ``step(state, action, v)``, the environment's constants bound once.  A
policy's ``variate`` and ``action_kernel(theta)`` do the same for an action.
:func:`sample_trajectory` draws an episode's 1 + 2T variates first, with one
generator call per run of like ones: the values and the end state of one
call per variate, though no longer the same calls.  It then runs the
kernels in Python floats, ints and lists (``bisect_right`` for an
inverse-CDF draw, for a clamp the comparisons ``min(max(x, low), high)``
makes, which keep a NaN and signed zeros), giving the values of the
numpy forms (``np.searchsorted(..., side="right")``, ``np.clip``,
``rng.uniform``).  It binds the runs and kernels once per (env, policy,
theta) and keeps the one binding for the calls that follow, so a call
pays only for its own episode.  The enumerable step and the Softmax act
index with an in-range Python int as it is and pass any other state (and
the step, without bin edges, any other action) through
:func:`check_index`; the states and actions they produce are such ints.

The shipped environments also step arrays of episodes at once for
:func:`sample_block`, the one rollout of ``safe_updates.spg_run``:
``reset_batch(u)`` and ``step_batch(states, actions, u)`` take an (n, k)
array of uniforms in [0, 1), k being the count the environment declares as
``reset_draws`` / ``step_draws``; ``reward_batch(states, actions)`` gives
the rewards ``step_batch`` gives, after the same action checks, and no next
state.  It takes the last step of every episode, so no state after the
horizon is drawn, though each row keeps that step's columns.  The policy's
side of a block is ``policy.actor(theta)``, so the contract has no state
count; its one call per step, ``sample(states, u, scores)``, draws the
actions and scores them in the same pass, and ``sample_block`` hands each
step's rewards and scores to a consumer as the step is taken.  The
batch methods' numpy calls run over whole columns of n episodes: an
enumerable environment reads each (state, action) pair at its flat index
s * n_actions + a, one ``take`` per column of its transition CDFs but the
last and one for the reward, and draws the next state with
``rng.inverse_cdf``, a count over those columns, as
``np.searchsorted(..., side="right")`` clamped to the last state finds it.
Its initial state is drawn the same way, over the initial CDF's entries
but the last.
"""
from __future__ import annotations

import itertools
import math
import reprlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigurationError, NumericError, check_integer
from .rng import box_muller, inverse_cdf

_STOCHASTIC_ATOL = 1e-12
_INTP_MAX = np.iinfo(np.intp).max  # numpy's largest dimension and array byte size


@dataclass(frozen=True)
class MdpSpec:
    """The scalars every bound is parameterized by.

    gamma: discount factor in (0, 1).
    r_max: bound on the absolute value of every reward the environment emits.
    horizon: episode length T; the effective horizon of the task, stored as
        an int (``check_integer``).
    """

    gamma: float
    r_max: float
    horizon: int

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError(f"gamma must be in (0, 1), got {self.gamma}")
        if not self.r_max > 0.0:
            raise ConfigurationError(f"r_max must be positive, got {self.r_max}")
        object.__setattr__(self, "horizon", check_integer(self.horizon, "horizon"))
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


def _draw_runs(reset: str, action: str, step: str, horizon: int) -> "tuple[tuple[str, int], ...]":
    """(Generator method, count) for each run of like variates of an episode,
    in draw order: the reset's, then an action's and a transition's per step."""
    kinds = [reset] + [action, step] * horizon
    return tuple((kind, sum(1 for _ in run)) for kind, run in itertools.groupby(kinds))


def _draw_variates(rng: np.random.Generator, runs) -> "list[float]":
    """The variates of ``runs``, one generator call per run; k draws of one
    kind in a single call give the values, and leave the generator in the
    state, of k scalar calls."""
    values = []
    for kind, count in runs:
        draw = getattr(rng, kind)
        if count == 1:
            values.append(draw())
        else:
            values.extend(draw(count).tolist())
    return values


# sample_trajectory's one binding: (env, policy, theta's shape and bytes,
# draw runs, reset, step, act) of the last setup sampled, which it keeps
# alive until the next binding
_bound: "tuple | None" = None


def sample_trajectory(env, policy, theta: np.ndarray, rng: np.random.Generator) -> Trajectory:
    """Roll out one episode of exactly ``env.spec.horizon`` steps.

    The initial state is drawn from the environment, each action from
    ``policy`` at ``theta``, each transition from the environment kernel.
    All of the episode's variates are drawn before the first step, so an
    error raised on the way leaves ``rng`` past the whole episode's draws.

    The draw runs, ``env.kernels()`` and ``policy.action_kernel(theta)``
    are resolved once per binding and kept for the calls that follow: one
    entry, keyed on ``env`` and ``policy`` by identity and on theta's shape
    and bytes, so any other env, policy or theta (a theta changed in place
    included) rebinds.  An env or policy changed after it is built is not
    noticed; the shipped classes are never changed after construction, and
    the Softmax table memo has the same limit.  Theta's shape is checked on
    every call, by :func:`check_theta`, before any draw.
    """
    global _bound
    theta = check_theta(theta, policy.dim)
    key = (theta.shape, theta.tobytes())
    bound = _bound
    if bound is None or bound[0] is not env or bound[1] is not policy or bound[2] != key:
        runs = _draw_runs(env.reset_variate, policy.variate, env.step_variate, env.spec.horizon)
        variates = iter(_draw_variates(rng, runs))
        # bound after the draws, so an error binding leaves rng past them
        bound = _bound = (env, policy, key, runs, *env.kernels(), policy.action_kernel(theta))
    else:
        variates = iter(_draw_variates(rng, bound[3]))
    reset, step, act = bound[4:]
    states, actions, rewards = [], [], []
    state = reset(next(variates))
    for action_variate, step_variate in zip(variates, variates):
        action = act(state, action_variate)
        next_state, reward = step(state, action, step_variate)
        states.append(state)
        actions.append(action)
        rewards.append(reward)
        state = next_state
    return Trajectory(
        states=np.asarray(states),
        actions=np.asarray(actions),
        rewards=np.asarray(rewards, dtype=float),
    )


def check_theta(theta: np.ndarray, dim: int) -> np.ndarray:
    """A single theta as a float array of shape (dim,); ConfigurationError otherwise."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dim,):
        raise ConfigurationError(f"theta has shape {theta.shape}, policy expects ({dim},)")
    return theta


def row_draws(env, actor) -> int:
    """Uniforms one episode takes: the reset's, then an action's and a transition's per step."""
    return env.reset_draws + env.spec.horizon * (actor.draws + env.step_draws)


def sample_block(env, actor, draws: np.ndarray, consume) -> None:
    """Roll out one episode per row of ``draws``, stepping all of them
    together, and hand each step to ``consume``.

    ``actor`` is a policy frozen at theta (``policy.actor``) with ``draws``,
    ``dim`` (m) and ``sample(states, u, scores)``, which returns the actions
    and writes their scores into the (n, m) array ``scores``.  ``draws``
    holds uniforms in [0, 1), shape (n, ``row_draws(env, actor)``); each row
    is read left to right, in the order ``sample_trajectory`` draws (reset,
    then action and transition at every step), each component taking the
    count of columns it declares.  Steps 0 .. T-2 go through
    ``env.step_batch``; the last step takes its rewards from
    ``env.reward_batch(states, actions)`` and draws no next state, though
    its transition columns stay in the row.

    After step t, ``consume(t, rewards, scores)`` gets the rewards (n,) and
    the scores (n, m) of every row at that step, for t = 0 .. T-1 in order.
    The scores are one array that every step rewrites, so a consumer copies
    what it keeps; no array of more than one step is made.
    ``GradientAccumulator.add_steps`` folds the steps into its terms as
    they come.
    """
    horizon = env.spec.horizon
    width = row_draws(env, actor)
    if draws.ndim != 2 or draws.shape[1] != width:
        raise ValueError(f"draws have shape {draws.shape}, expected (n, {width})")
    r, a, s = env.reset_draws, actor.draws, env.step_draws
    scores = np.empty((len(draws), actor.dim))
    state = env.reset_batch(draws[:, :r])
    for t in range(horizon):
        col = r + t * (a + s)
        action = actor.sample(state, draws[:, col : col + a], scores)
        if t < horizon - 1:
            state, rewards = env.step_batch(state, action, draws[:, col + a : col + a + s])
        else:  # no state follows the last step
            rewards = env.reward_batch(state, action)
        consume(t, rewards, scores)


@dataclass
class EnumerableMdp:
    """A finite MDP given by explicit tables; the substrate for exact oracles.

    transition[s, a, s'] holds the transition probabilities, reward[s, a]
    the (deterministic) rewards, initial[s] the start distribution.  The
    counts must be integers >= 1 (``check_integer``) and are stored as ints.
    """

    n_states: int
    n_actions: int
    transition: np.ndarray
    reward: np.ndarray
    initial: np.ndarray
    spec: MdpSpec

    def __post_init__(self) -> None:
        for name in ("n_states", "n_actions"):
            count = check_integer(getattr(self, name), name)
            if count < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {count}")
            setattr(self, name, count)
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


def check_bin_edges(edges) -> np.ndarray:
    """``edges`` as a 1-D float array of at least one finite edge, strictly
    increasing; ConfigurationError otherwise."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 1:
        raise ConfigurationError(f"need a 1-D array of at least one bin edge, got shape {edges.shape}")
    if not (np.all(np.abs(edges) < math.inf) and np.all(np.diff(edges) > 0)):
        raise ConfigurationError(f"bin edges must be finite and strictly increasing, got {edges}")
    return edges


def check_index(value: Any, size: int, what: str) -> int:
    """``value`` as an index into range(size): integral floats and numpy
    integers index as their int, anything else raises a ValueError that
    names the range."""
    try:
        index = int(value)
    except (TypeError, ValueError, OverflowError):
        index = None
    if index is None or index != value or not 0 <= index < size:
        raise ValueError(f"{what} {value} out of range [0, {size})")
    return index


class EnumerableEnv:
    """Sampling view of an :class:`EnumerableMdp`.

    When ``bin_edges`` is given, real-valued actions are mapped to discrete
    action indices by interval: action index j covers
    [edges[j-1], edges[j]).  This lets continuous-action policies drive a
    finite MDP while keeping the MDP itself enumerable.
    """

    reset_draws = step_draws = 1  # one uniform per inverse-CDF draw
    reset_variate = step_variate = "random"

    def __init__(self, mdp: EnumerableMdp, bin_edges: np.ndarray | None = None):
        self.mdp = mdp
        self.spec = mdp.spec
        self.bin_edges = None if bin_edges is None else check_bin_edges(bin_edges)
        if self.bin_edges is not None and self.bin_edges.size != mdp.n_actions - 1:
            raise ConfigurationError(
                f"{mdp.n_actions} actions require {mdp.n_actions - 1} bin edges, "
                f"got {self.bin_edges.size}"
            )
        self.n_states = mdp.n_states
        cum_initial = np.cumsum(mdp.initial)
        # the initial CDF's entries but the last, one column each for inverse_cdf
        self._initial_columns = list(cum_initial[:-1])
        cum_next = np.cumsum(mdp.transition, axis=-1)
        # step_batch reads (s, a) at the flat index s * n_actions + a: column
        # s' of the transition CDFs and the rewards, each one contiguous table;
        # inverse_cdf never reads the last column, so it is not kept
        self._next_columns = list(cum_next.reshape(-1, self.n_states).T[:-1].copy())
        self._flat_reward = mdp.reward.ravel()
        # the same tables as Python lists for the scalar reset and step
        self._initial_cdf = cum_initial.tolist()
        self._next_cdf = cum_next.tolist()
        self._reward = mdp.reward.tolist()
        self._edges = None if self.bin_edges is None else self.bin_edges.tolist()

    def action_index(self, action: Any) -> int:
        if self._edges is not None:
            return bisect_right(self._edges, float(action))
        return check_index(action, self.mdp.n_actions, "action")

    def kernels(self):
        """``reset(u)`` and ``step(state, action, u)``, each an inverse-CDF
        draw from its uniform u: ``np.searchsorted(cum, u, side="right")``,
        clamped to the last state.  ``step`` takes its state, and without
        bin edges its action, by :func:`check_index`'s rule."""
        initial, next_cdf, reward = self._initial_cdf, self._next_cdf, self._reward
        action_index, n_states, last = self.action_index, self.n_states, self.n_states - 1
        # without bin edges, an in-range int action indexes directly
        n_actions = self.mdp.n_actions if self._edges is None else 0

        def reset(u: float) -> int:
            return min(bisect_right(initial, u), last)

        def step(state: int, action: Any, u: float) -> "tuple[int, float]":
            # the states and actions the scalar kernels produce skip check_index
            if not (type(state) is int and 0 <= state < n_states):
                state = check_index(state, n_states, "state")
            if not (type(action) is int and 0 <= action < n_actions):
                action = action_index(action)
            return min(bisect_right(next_cdf[state][action], u), last), reward[state][action]

        return reset, step

    def reset(self, rng: np.random.Generator) -> int:
        return self.kernels()[0](rng.random())

    def step(self, state: int, action: Any, rng: np.random.Generator) -> tuple[int, float]:
        return self.kernels()[1](state, action, rng.random())

    def reset_batch(self, u: np.ndarray) -> np.ndarray:
        return inverse_cdf(self._initial_columns, u[:, 0])

    def _flat_index(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """s * n_actions + a for every (state, action) pair, the actions
        checked: in range and, in an array not of intp, integral."""
        if self.bin_edges is not None:
            a = np.searchsorted(self.bin_edges, actions, side="right")
        else:
            actions = np.asarray(actions)
            a = actions.astype(np.intp, copy=False)
            bad = (a < 0) | (a >= self.mdp.n_actions)
            if a is not actions:  # cast: an action the cast moved is not an index
                bad |= a != actions
            if bad.any():
                raise ValueError(f"action {actions[bad][0]} out of range [0, {self.mdp.n_actions})")
        return states * self.mdp.n_actions + a

    def reward_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return self._flat_reward.take(self._flat_index(states, actions))

    def step_batch(
        self, states: np.ndarray, actions: np.ndarray, u: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        flat = self._flat_index(states, actions)
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
    reset_draws, step_draws = 1, 2
    reset_variate, step_variate = "random", "standard_normal"

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

    def kernels(self):
        """``reset(u)`` from a uniform u and ``step(state, action, z)`` from a
        standard normal z, the config's floats bound once.  ``step`` takes a
        Python float as it is and passes anything else through ``float()``."""
        cfg = self.config
        low, high = -cfg.s_max, cfg.s_max
        q, c, r_max = cfg.q, cfg.c, cfg.r_max
        a_dyn, b_dyn, noise_std = cfg.a_dyn, cfg.b_dyn, cfg.noise_std

        def reset(u: float) -> float:
            # Generator.uniform(low, high) is low + (high - low) * random()
            return low + (high - low) * u

        def step(state: float, action: float, z: float) -> "tuple[float, float]":
            s = state if type(state) is float else float(state)
            a = action if type(action) is float else float(action)
            if not math.isfinite(a):
                raise NumericError(f"non-finite action {a}")
            # -min(cost, r_max): a NaN cost stays NaN
            cost = q * s * s + c * a * a
            reward = -(r_max if r_max < cost else cost)
            drift = a_dyn * s + b_dyn * a + noise_std * z
            # np.clip(drift, low, high), as min(max(drift, low), high) takes
            # it: a NaN drift stays NaN, and signed zeros stay
            if low > drift:
                drift = low
            elif high < drift:
                drift = high
            return drift, reward

        return reset, step

    def reset(self, rng: np.random.Generator) -> float:
        return self.kernels()[0](rng.random())

    def step(self, state: float, action: float, rng: np.random.Generator) -> tuple[float, float]:
        return self.kernels()[1](state, action, rng.standard_normal())

    def reset_batch(self, u: np.ndarray) -> np.ndarray:
        low, high = -self.config.s_max, self.config.s_max
        return low + (high - low) * u[:, 0]

    def _reward(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The rewards, the actions checked.  The batch methods hold one
        np.errstate per call, under which overflow gives inf as the scalar
        step's Python floats do, with no numpy warning."""
        cfg = self.config
        if not np.isfinite(a).all():
            raise NumericError(f"non-finite action {a[~np.isfinite(a)][0]}")
        return -np.minimum(cfg.q * s * s + cfg.c * a * a, cfg.r_max)

    def reward_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self._reward(states, actions)

    def step_batch(
        self, states: np.ndarray, actions: np.ndarray, u: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        cfg = self.config
        with np.errstate(over="ignore", invalid="ignore"):
            reward = self._reward(states, actions)
            noise = box_muller(u[:, 0], u[:, 1])
            # (a_dyn s + b_dyn a) + noise_std z, clipped as np.clip clips it,
            # NaN and signed zeros included
            drift = np.multiply(cfg.a_dyn, states)
            drift += cfg.b_dyn * actions
            noise *= cfg.noise_std
            drift += noise
            np.maximum(drift, -cfg.s_max, out=drift)
            np.minimum(drift, cfg.s_max, out=drift)
        return drift, reward


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
    n = check_integer(config.n_states, "n_states")
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
