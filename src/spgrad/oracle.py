"""Exact quantities on enumerable MDPs; the ground truth for every check.

Performance J(theta) comes from finite-horizon backward induction, which is
exact.  The gradient comes from likelihood-ratio summation over all T-step
paths, cross-checkable against central finite differences of J.  The
Hessian is the central finite difference of the exact gradient.  Any policy
exposing ``action_probabilities(theta, state)`` (and ``score`` for gradient
work) over the MDP's discrete actions can be used: the Softmax policy
directly, the Gaussian one through its binned-action view.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, OracleBudgetError
from .estimators import BaselineKind, EstimatorKind, GradientAccumulator
from .mdp import EnumerableMdp, Trajectory

DEFAULT_PATH_BUDGET = 1_000_000


@dataclass
class ValueTable:
    """State values v[s] and action values q[s, a] at the start of the episode."""

    v: np.ndarray
    q: np.ndarray


@dataclass
class ExactGradient:
    j: float
    grad: np.ndarray


def policy_matrix(mdp: EnumerableMdp, policy, theta: np.ndarray) -> np.ndarray:
    """(S, A) action probabilities of the policy on the MDP's states."""
    rows = [policy.action_probabilities(theta, s) for s in range(mdp.n_states)]
    matrix = np.stack(rows)
    if matrix.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(
            f"policy yields {matrix.shape[1]} actions, MDP has {mdp.n_actions}"
        )
    return matrix


def exact_values(mdp: EnumerableMdp, policy, theta: np.ndarray) -> ValueTable:
    """Backward induction over the remaining horizon; exact."""
    probs = policy_matrix(mdp, policy, theta)
    gamma = mdp.spec.gamma
    v = np.zeros(mdp.n_states)
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(mdp.spec.horizon):
        q = mdp.reward + gamma * mdp.transition @ v
        v = (probs * q).sum(axis=1)
    return ValueTable(v=v, q=q)


def exact_performance(mdp: EnumerableMdp, policy, theta: np.ndarray) -> float:
    return float(mdp.initial @ exact_values(mdp, policy, theta).v)


# ---------------------------------------------------------------------------
# Path enumeration
# ---------------------------------------------------------------------------


def _check_budget(mdp: EnumerableMdp, budget: int) -> None:
    total = (mdp.n_states * mdp.n_actions) ** mdp.spec.horizon
    if total > budget:
        raise OracleBudgetError(
            f"{total} paths exceed the enumeration budget of {budget}"
        )


def _walk_paths(mdp: EnumerableMdp, probs: np.ndarray):
    """Yield (probability, states, actions) over all positive-probability paths."""
    horizon = mdp.spec.horizon
    stack = [
        (1, s0, float(mdp.initial[s0]), (s0,), ())
        for s0 in range(mdp.n_states - 1, -1, -1)
        if mdp.initial[s0] > 0.0
    ]
    while stack:
        t, state, prob, states, actions = stack.pop()
        for a in range(mdp.n_actions):
            p_action = probs[state, a] * prob
            if p_action <= 0.0:
                continue
            new_actions = actions + (a,)
            if t == horizon:
                yield p_action, states, new_actions
                continue
            for s2 in range(mdp.n_states):
                p_next = mdp.transition[state, a, s2] * p_action
                if p_next > 0.0:
                    stack.append((t + 1, s2, p_next, states + (s2,), new_actions))


def enumerate_trajectories(
    mdp: EnumerableMdp, policy, theta: np.ndarray, budget: int = DEFAULT_PATH_BUDGET
) -> list[tuple[float, Trajectory]]:
    """All T-step trajectories with their probabilities under the policy."""
    _check_budget(mdp, budget)
    probs = policy_matrix(mdp, policy, theta)
    out = []
    for prob, states, actions in _walk_paths(mdp, probs):
        rewards = np.array([mdp.reward[s, a] for s, a in zip(states, actions)])
        traj = Trajectory(
            states=np.array(states), actions=np.array(actions), rewards=rewards
        )
        out.append((prob, traj))
    return out


def enumerated_performance(
    mdp: EnumerableMdp, policy, theta: np.ndarray, budget: int = DEFAULT_PATH_BUDGET
) -> float:
    """J(theta) as a probability-weighted sum over all paths; equals the DP value."""
    _check_budget(mdp, budget)
    probs = policy_matrix(mdp, policy, theta)
    discounts = mdp.spec.gamma ** np.arange(mdp.spec.horizon)
    total = 0.0
    for prob, states, actions in _walk_paths(mdp, probs):
        ret = sum(
            d * mdp.reward[s, a] for d, s, a in zip(discounts, states, actions)
        )
        total += prob * ret
    return total


def exact_gradient(
    mdp: EnumerableMdp, policy, theta: np.ndarray, budget: int = DEFAULT_PATH_BUDGET
) -> ExactGradient:
    """Likelihood-ratio gradient summed over all paths.

    grad J = sum_tau p(tau) * G(tau) * sum_t score(s_t, a_t); exact because
    the sum runs over every path.
    """
    _check_budget(mdp, budget)
    probs = policy_matrix(mdp, policy, theta)
    scores = np.stack(
        [
            [policy.score(theta, s, a) for a in range(mdp.n_actions)]
            for s in range(mdp.n_states)
        ]
    )
    discounts = mdp.spec.gamma ** np.arange(mdp.spec.horizon)
    j = 0.0
    grad = np.zeros(scores.shape[-1])
    for prob, states, actions in _walk_paths(mdp, probs):
        ret = 0.0
        score_sum = np.zeros_like(grad)
        for d, s, a in zip(discounts, states, actions):
            ret += d * mdp.reward[s, a]
            score_sum += scores[s, a]
        j += prob * ret
        grad += (prob * ret) * score_sum
    return ExactGradient(j=j, grad=grad)


def fd_gradient(mdp: EnumerableMdp, policy, theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the exact performance."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = h
        grad[i] = (
            exact_performance(mdp, policy, theta + bump)
            - exact_performance(mdp, policy, theta - bump)
        ) / (2.0 * h)
    return grad


def exact_hessian(
    mdp: EnumerableMdp,
    policy,
    theta: np.ndarray,
    h: float = 1e-4,
    budget: int = DEFAULT_PATH_BUDGET,
) -> np.ndarray:
    """Central finite differences of the exact gradient, symmetrized."""
    theta = np.asarray(theta, dtype=float)
    m = theta.size
    hess = np.zeros((m, m))
    for j in range(m):
        bump = np.zeros(m)
        bump[j] = h
        plus = exact_gradient(mdp, policy, theta + bump, budget).grad
        minus = exact_gradient(mdp, policy, theta - bump, budget).grad
        hess[:, j] = (plus - minus) / (2.0 * h)
    asymmetry = float(np.max(np.abs(hess - hess.T)))
    if asymmetry > 1e-6:
        raise NumericError(f"finite-difference Hessian asymmetry {asymmetry} exceeds 1e-6")
    return 0.5 * (hess + hess.T)


def expected_gradient_estimate(
    mdp: EnumerableMdp,
    policy,
    theta: np.ndarray,
    kind: EstimatorKind,
    baseline: BaselineKind = BaselineKind.ZERO,
    budget: int = DEFAULT_PATH_BUDGET,
) -> np.ndarray:
    """Probability-weighted mean of the single-trajectory estimator.

    Every path enters the accumulator weighted by its probability, so a
    Peters baseline is the population baseline (a one-trajectory batch
    estimate of the baseline would be degenerate).
    """
    acc = GradientAccumulator(policy, theta, mdp.spec.gamma, kind, baseline)
    for prob, traj in enumerate_trajectories(mdp, policy, theta, budget):
        acc.add_trajectory(traj, weight=prob)
    return acc.finalize().vector


# ---------------------------------------------------------------------------
# Grid maximization
# ---------------------------------------------------------------------------


def grid_maximize(
    bound_fn: Callable,
    alpha_range: tuple[float, float],
    n_range: tuple[float, float] | None = None,
    resolution: int = 1001,
) -> tuple[float, float | None, float]:
    """Brute-force argmax of a bound surface on a regular grid.

    With ``n_range`` given, ``bound_fn(alpha, n)`` is maximized over the 2-D
    grid, called once per alpha with the array of every n; otherwise
    ``bound_fn(alpha)`` is called once on the array of every alpha.  The
    first maximum in row-major order wins.  Used to confirm closed-form
    optimal meta-parameters against an independent search.
    """
    lo, hi = alpha_range
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise ValueError(f"alpha_range {alpha_range} is empty or not finite")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    alphas = np.linspace(lo, hi, resolution)
    if n_range is None:
        values = np.broadcast_to(bound_fn(alphas), alphas.shape)
        best = int(np.argmax(values))
        return float(alphas[best]), None, float(values[best])
    n_lo, n_hi = n_range
    if not (np.isfinite(n_lo) and np.isfinite(n_hi)) or n_hi <= n_lo:
        raise ValueError(f"n_range {n_range} is empty or not finite")
    ns = np.linspace(n_lo, n_hi, resolution)
    best_val = -np.inf
    best_alpha = alphas[0]
    best_n = ns[0]
    # row by row: the whole grid would hold resolution^2 values at once
    for a in alphas:
        row = np.broadcast_to(bound_fn(a, ns), ns.shape)
        j = int(np.argmax(row))
        if row[j] > best_val:
            best_val, best_alpha, best_n = row[j], a, ns[j]
    return float(best_alpha), float(best_n), float(best_val)
