"""Exact quantities on enumerable MDPs; the ground truth for every check.

Performance J(theta) comes from finite-horizon backward induction and the
gradient from one forward pass over the horizon (``exact_gradient``), both
exact and both linear in T.  The Hessian is the central finite difference
of that gradient.  Path enumeration stays as their judge on small
instances: ``enumerated_performance`` and ``enumerated_gradient`` sum over
every T-step path, and ``expected_gradient_estimate`` runs the estimator
on every path.  Only these enumerate, and only they take a path budget.  A
policy enters through its table at theta, ``policy.table(theta)``, fetched
once per call: (S, A) probabilities and (S, A, m) scores over the MDP's
discrete actions.  The Softmax policy gives it directly, the Gaussian one
through its binned-action view.

``exact_performance``, ``exact_gradient``, ``fd_gradient`` and
``exact_hessian`` also take a stack of theta (k, m) and return one result
per row, stacked; a single theta (m,) is the k = 1 case of the same code.
A row of a stack equals the single-theta result bit for bit: the stacked
products are numpy broadcasts of the products a single theta forms.
``fd_gradient`` and ``exact_hessian`` evaluate all their bumped thetas in
one call of ``exact_performance`` and ``exact_gradient``, and so fetch one
table per call.  Path enumeration takes a single theta.

The path sums take the paths in walk order in blocks (``path_blocks``) and
carry their totals across blocks in path order, so each is the
one-path-at-a-time sum bit for bit, in memory that does not grow with the
number of paths.  Only ``expected_gradient_estimate`` goes through
``GradientAccumulator``, so the exact gradient stays an independent check of it.
"""
from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .errors import NumericError, OracleBudgetError
from .estimators import BLOCK_ROWS, BaselineKind, EstimatorKind, GradientAccumulator, running_sums
from .mdp import EnumerableMdp
from .policies import PolicyTable

DEFAULT_PATH_BUDGET = 1_000_000
# central-difference steps of fd_gradient (on J) and exact_hessian (on grad J)
_FD_STEP = 1e-6
_HESSIAN_STEP = 1e-4
# alphas per bound_fn call of a 2-D grid_maximize
GRID_ROWS = 16


def policy_table(mdp: EnumerableMdp, policy, theta: np.ndarray) -> PolicyTable:
    """The policy's table at theta (m,), or its stacked tables at the rows
    of theta (k, m), checked against the MDP's states and actions."""
    table = policy.table(theta)
    if table.probs.shape[-2:] != (mdp.n_states, mdp.n_actions):
        raise ValueError(
            f"policy table has shape {table.probs.shape}, "
            f"MDP has {mdp.n_states} states and {mdp.n_actions} actions"
        )
    return table


def exact_performance(mdp: EnumerableMdp, policy, theta: np.ndarray) -> "float | np.ndarray":
    """J at theta (m,) as a float; at a stack of theta (k, m), the (k,) array.

    Backward induction over the remaining horizon; exact.  v[s] ends as the
    value of starting in state s, and J is its mean under ``initial``.
    """
    probs = policy_table(mdp, policy, theta).probs
    discounted = mdp.spec.gamma * mdp.transition
    v = np.zeros(probs.shape[:-1])
    for _ in range(mdp.spec.horizon):  # at least one step: MdpSpec checks horizon >= 1
        # per theta and state, the (A, S) @ (S,) product of a single theta
        q = mdp.reward + (discounted @ v[..., None, :, None])[..., 0]
        v = (probs * q).sum(axis=-1)
    j = (mdp.initial @ v[..., None])[..., 0]
    return j if j.ndim else float(j)


# ---------------------------------------------------------------------------
# Path enumeration
# ---------------------------------------------------------------------------


def _check_budget(mdp: EnumerableMdp, probs: np.ndarray, budget: int) -> None:
    """Raise unless the paths over the supports of ``initial``, ``probs`` and
    ``transition`` fit the budget.

    The count runs forward in Python integers, so it cannot overflow.  It is
    never below the number of paths ``_walk_paths`` visits, which skips the
    same zero entries and also a path whose probability underflows to zero.
    """
    allowed = probs > 0.0
    # edges[s][s2]: the allowed actions at s that can lead to s2
    edges = (allowed[:, :, None] & (mdp.transition > 0.0)).sum(axis=1).tolist()
    counts = [int(p > 0.0) for p in mdp.initial]  # paths so far, by current state
    for _ in range(mdp.spec.horizon - 1):
        counts = [sum(c * row[s2] for c, row in zip(counts, edges)) for s2 in range(mdp.n_states)]
    total = sum(c * n for c, n in zip(counts, allowed.sum(axis=1).tolist()))
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


def path_blocks(mdp: EnumerableMdp, probs: np.ndarray, budget: int = DEFAULT_PATH_BUDGET):
    """The paths of ``_walk_paths`` under the (S, A) action probabilities
    ``probs``, in walk order, in blocks of at most ``BLOCK_ROWS``:
    (probabilities (n,), states (n, T), actions (n, T)) per block.

    The budget is checked by this call, before any path is walked.
    """
    _check_budget(mdp, probs, budget)
    paths = _walk_paths(mdp, probs)
    blocks = iter(lambda: list(itertools.islice(paths, BLOCK_ROWS)), [])
    return (tuple(np.array(column) for column in zip(*block)) for block in blocks)


def _returns(mdp: EnumerableMdp, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """(n,) discounted returns of a block of paths, each summed in time order."""
    discounted = mdp.spec.gamma ** np.arange(mdp.spec.horizon) * mdp.reward[states, actions]
    return np.cumsum(discounted, axis=1)[:, -1]


def enumerated_performance(
    mdp: EnumerableMdp, policy, theta: np.ndarray, budget: int = DEFAULT_PATH_BUDGET
) -> float:
    """J(theta) as a probability-weighted sum over all paths; equals the DP value."""
    total = 0.0
    probs = policy_table(mdp, policy, theta).probs
    for weights, states, actions in path_blocks(mdp, probs, budget):
        total = running_sums(total, weights * _returns(mdp, states, actions))[-1]
    return total


def exact_gradient(mdp: EnumerableMdp, policy, theta: np.ndarray) -> np.ndarray:
    """grad J by one forward pass over t = 0 .. T-1; exact, O(T S A (S + m)).

    With c_t = score(s_0, a_0) + ... + score(s_t, a_t), grad J is the sum
    over t of gamma^t E[r(s_t, a_t) c_t].  The pass carries, per state s,
    p(s) = P(s_t = s) and e(s) = E[c_{t-1}; s_t = s], with c_{-1} = 0.  At
    step t the pair (s, a) has probability p(s) pi(a|s), and
    E[c_t; s_t = s, a_t = a] = pi(a|s) (e(s) + p(s) score(s, a)); the
    rewards weigh these into the gradient and the transition tensor
    carries both to s_{t+1}.  gamma^t is built by repeated multiplication.
    At a stack of theta (k, m) the pass carries k of each and returns (k, m);
    every product is a broadcast stack of the product one theta forms.
    """
    probs, scores = policy_table(mdp, policy, theta)
    lead, m = probs.shape[:-2], scores.shape[-1]  # lead: () for one theta, (k,) for a stack
    n_pairs = mdp.n_states * mdp.n_actions
    transition = mdp.transition.reshape(n_pairs, mdp.n_states)
    reward = mdp.reward.ravel()
    p = mdp.initial
    e = np.zeros(lead + (mdp.n_states, m))
    grad = np.zeros(lead + (m,))
    discount = 1.0
    for t in range(mdp.spec.horizon):
        carried = (probs[..., None] * (e[..., None, :] + p[..., None, None] * scores)).reshape(
            lead + (n_pairs, m)
        )
        grad += discount * (reward @ carried)
        if t < mdp.spec.horizon - 1:
            p = ((p[..., None] * probs).reshape(lead + (1, n_pairs)) @ transition)[..., 0, :]
            e = transition.T @ carried
            discount *= mdp.spec.gamma
    return grad


def enumerated_gradient(
    mdp: EnumerableMdp, policy, theta: np.ndarray, budget: int = DEFAULT_PATH_BUDGET
) -> np.ndarray:
    """Likelihood-ratio gradient summed over all paths; the judge of ``exact_gradient``.

    grad J = sum_tau p(tau) * G(tau) * sum_t score(s_t, a_t); exact because
    the sum runs over every path.  Paths are added in walk order and each
    path's return and score in time order.
    """
    table = policy_table(mdp, policy, theta)
    scores = table.scores
    grad = np.zeros(scores.shape[-1])
    for weights, states, actions in path_blocks(mdp, table.probs, budget):
        weighted = weights * _returns(mdp, states, actions)
        score_sums = np.cumsum(scores[states, actions], axis=1)[:, -1]
        grad = running_sums(grad, weighted[:, None] * score_sums)[-1]
    return grad


def _bumped(theta: np.ndarray, step: float) -> np.ndarray:
    """The central-difference points of theta (m,) or of each row of theta
    (k, m): (k * 2 * m, m), row-major over (row, +step then -step, coordinate)."""
    rows = theta.reshape(-1, theta.shape[-1])[:, None, :]
    bump = step * np.eye(theta.shape[-1])
    return np.stack([rows + bump, rows - bump], axis=1).reshape(-1, theta.shape[-1])


def fd_gradient(mdp: EnumerableMdp, policy, theta: np.ndarray) -> np.ndarray:
    """Central finite differences of the exact performance, step ``_FD_STEP``;
    at a stack of theta (k, m), (k, m).  The 2m bumped thetas of every row
    are evaluated in one ``exact_performance`` call."""
    theta = np.asarray(theta, dtype=float)
    j = exact_performance(mdp, policy, _bumped(theta, _FD_STEP)).reshape(-1, 2, theta.shape[-1])
    return ((j[:, 0] - j[:, 1]) / (2.0 * _FD_STEP)).reshape(theta.shape)


def exact_hessian(mdp: EnumerableMdp, policy, theta: np.ndarray) -> np.ndarray:
    """Central finite differences of the exact gradient, step ``_HESSIAN_STEP``,
    symmetrized; at a stack of theta (k, m), (k, m, m).  The 2m bumped
    thetas of every row are evaluated in one ``exact_gradient`` call."""
    theta = np.asarray(theta, dtype=float)
    m = theta.shape[-1]
    grads = exact_gradient(mdp, policy, _bumped(theta, _HESSIAN_STEP)).reshape(-1, 2, m, m)
    # column j of a Hessian from the gradients at theta + and - step e_j
    hess = ((grads[:, 0] - grads[:, 1]) / (2.0 * _HESSIAN_STEP)).swapaxes(1, 2)
    asymmetry = np.max(np.abs(hess - hess.swapaxes(1, 2)), axis=(1, 2))
    rows = np.flatnonzero(asymmetry > 1e-6)
    if rows.size:
        where = f" at theta row {rows[0]}" if theta.ndim == 2 else ""
        raise NumericError(
            f"finite-difference Hessian asymmetry {float(asymmetry[rows[0]])} exceeds 1e-6{where}"
        )
    return (0.5 * (hess + hess.swapaxes(1, 2))).reshape(theta.shape + (m,))


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
    table = policy_table(mdp, policy, theta)
    for weights, states, actions in path_blocks(mdp, table.probs, budget):
        acc.add_block(mdp.reward[states, actions], table.scores[states, actions], weights)
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
    grid, called once per block of at most ``GRID_ROWS`` alphas, as a
    column, with the row of every n; otherwise ``bound_fn(alpha)`` is called
    once on the array of every alpha.  The first maximum in row-major order
    wins, and a row whose first maximum is NaN is passed over, as a
    row-by-row search comparing each row's maximum would do.  Used to
    confirm closed-form optimal meta-parameters against an independent search.
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
    # in blocks of rows: the whole grid would hold resolution^2 values at once
    for first in range(0, resolution, GRID_ROWS):
        rows = alphas[first : first + GRID_ROWS]
        block = np.broadcast_to(bound_fn(rows[:, None], ns), (rows.size, ns.size))
        cols = np.argmax(block, axis=1)
        tops = block[np.arange(rows.size), cols]
        tops = np.where(np.isnan(tops), -np.inf, tops)
        i = int(np.argmax(tops))
        if tops[i] > best_val:
            best_val, best_alpha, best_n = tops[i], rows[i], ns[cols[i]]
    return float(best_alpha), float(best_n), float(best_val)
