"""Improvement bounds, safe meta-parameter rules, and the adaptive loop.

For a smoothing policy the performance J is L-smooth with

    L = R / (1-gamma)^2 * (2*gamma*psi^2 / (1-gamma) + kappa + xi),

which yields a quadratic lower bound on the improvement of a gradient
update.  Maximizing that bound gives the exact-gradient step 1/L; with
estimated gradients the bound degrades by the estimation error
eps_delta/sqrt(N), and jointly maximizing improvement per trajectory gives
the constant step 1/(2L) together with the adaptive batch size
N = ceil(4*eps_delta^2 / ||grad_est||^2).  The loop below applies that rule
to blocks of trajectories and stops at the first prefix that meets it, so
each update is certified to improve J by at least ||grad_est||^2 / (8L)
with probability 1 - delta.

The certification is per update: no union bound is taken across the K
updates of a run.  The parameter space is all of R^m; bounded parameter
sets would need a projection step that is not modeled here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .estimators import (
    BLOCK_ROWS,
    BaselineKind,
    ErrorBound,
    EstimatorKind,
    GradientAccumulator,
    VarianceBound,
    error_bound,
    variance_bound,
)
# sample_trajectory and substream stay bound here: perfbench patches them by name
from .mdp import row_draws, sample_block, sample_trajectory
from .policies import SmoothingConstants
from .rng import UniformRows, substream


@dataclass(frozen=True)
class MetaParams:
    alpha: float
    batch_size: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigurationError(f"alpha must be finite and non-negative, got {self.alpha}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")


def lipschitz_constant(sc: SmoothingConstants, spec) -> float:
    """L such that J is L-smooth, from the policy constants and the MDP scalars."""
    gamma, r = spec.gamma, spec.r_max
    return r / (1.0 - gamma) ** 2 * (2.0 * gamma * sc.psi**2 / (1.0 - gamma) + sc.kappa + sc.xi)


def exact_improvement_bound(alpha: float, grad_norm: float, lip: float) -> float:
    """Guaranteed improvement of an exact-gradient update of step alpha (elementwise on arrays)."""
    if np.any(alpha < 0) or np.any(grad_norm < 0):
        raise ValueError("alpha and grad_norm must be non-negative")
    return alpha * grad_norm**2 - alpha**2 * (lip / 2.0) * grad_norm**2


def optimal_step_exact(lip: float) -> float:
    """The step maximizing the exact improvement bound: alpha = 1/L."""
    if lip <= 0:
        raise ConfigurationError(f"Lipschitz constant must be positive, got {lip}")
    return 1.0 / lip


def stochastic_improvement_bound(
    alpha: float, grad_est_norm: float, eps_delta: float, batch_size: float, lip: float
) -> float:
    """Improvement bound of a stochastic update, holding on the event
    ||grad_est - grad J|| <= eps_delta/sqrt(N) (probability 1 - delta for the
    Chebyshev eps_delta of ``error_bound``).

    The max term keeps the bound valid on both sides of the estimation
    error: its first argument applies when the estimated norm exceeds
    eps_delta/sqrt(N), the second otherwise.  Array arguments give the
    bound elementwise.
    """
    if any(np.any(x < 0) for x in (alpha, grad_est_norm, eps_delta)) or np.any(batch_size < 1):
        raise ValueError("inputs must be non-negative with batch_size >= 1")
    err = eps_delta / np.sqrt(batch_size)
    anticipated = np.maximum(grad_est_norm, (grad_est_norm + err) / 2.0)
    return alpha * (grad_est_norm - err) * anticipated - alpha**2 * lip * grad_est_norm**2 / 2.0


def required_batch_size(grad_est_norm: float, eps_delta: float) -> "int | None":
    """ceil(4 eps^2 / ||grad||^2); None when the estimate vanishes."""
    if grad_est_norm <= 0.0:
        return None
    return max(1, math.ceil(4.0 * eps_delta**2 / grad_est_norm**2))


def optimal_step_and_batch(grad_est_norm: float, eps_delta: float, lip: float) -> MetaParams:
    """Jointly optimal (alpha, N) for improvement per trajectory.

    alpha = 1/(2L) and N = ceil(4 eps^2 / ||grad||^2) guarantee an
    improvement of ||grad||^2 / (8L) at confidence 1 - delta.
    """
    if grad_est_norm <= 0.0:
        raise ValueError("zero gradient estimate: no batch size can be certified")
    if eps_delta <= 0.0:
        raise ValueError(f"eps_delta must be positive, got {eps_delta}")
    if lip <= 0:
        raise ConfigurationError(f"Lipschitz constant must be positive, got {lip}")
    batch = required_batch_size(grad_est_norm, eps_delta)
    return MetaParams(alpha=1.0 / (2.0 * lip), batch_size=batch)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunLimits:
    max_trajectories_per_iteration: int = 100_000
    max_total_trajectories: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_trajectories_per_iteration < 1 or self.max_total_trajectories < 1:
            raise ConfigurationError("trajectory limits must be >= 1")


@dataclass
class RunRecord:
    iteration: int
    batch_size: int
    alpha: float
    grad_norm: float
    j_hat: float
    guaranteed_improvement: float
    cum_trajectories: int
    stalled: bool


@dataclass
class RunResult:
    records: "list[RunRecord]"
    thetas: "list[np.ndarray]"  # parameter vector before/after each iteration
    constants: SmoothingConstants
    lipschitz: float
    variance: VarianceBound
    error: ErrorBound
    estimator_kind: EstimatorKind

    @property
    def theta_final(self) -> np.ndarray:
        return self.thetas[-1]


def check_schedule(
    fixed: "MetaParams | None",
    limits: RunLimits,
    baseline: BaselineKind = BaselineKind.ZERO,
) -> None:
    """Reject a schedule that ``spg_run`` could not follow as stated.

    Certified updates need the zero baseline, for which the error bound is
    proven; a fixed schedule takes whole batches, so N must fit under the
    per-iteration cap.  Raises before anything is sampled.
    """
    if fixed is None:
        if BaselineKind(baseline) is not BaselineKind.ZERO:
            raise ConfigurationError(
                "certified updates use the zero baseline; only a fixed schedule may set another"
            )
    elif fixed.batch_size > limits.max_trajectories_per_iteration:
        raise ConfigurationError(
            f"fixed batch size {fixed.batch_size} exceeds max_trajectories_per_iteration"
            f" = {limits.max_trajectories_per_iteration}"
        )


def _rollout(env, policy, theta: np.ndarray, seed: int, k: int):
    """(first, n) -> (rewards (n, T), scores (n, T, m)) for trajectories
    first .. first+n-1 of iteration k.

    The environment steps them as a block (``mdp.sample_block``) with the
    policy frozen at theta, ``policy.actor(theta, env.n_states)``, on rows of
    iteration k's one ``UniformRows(seed, k, width)``, so row i depends only
    on (seed, k, i).
    """
    actor = policy.actor(theta, env.n_states)
    rows = UniformRows(seed, k, row_draws(env, actor))
    return lambda first, n: sample_block(env, actor, rows.take(first, n))


def _first_certified(eps_delta: float):
    """stop(counts, estimates) for ``GradientAccumulator.add_block``: the first
    row whose prefix meets N >= required_batch_size(||estimate||, eps_delta).

    A vectorized screen with slack picks the candidate rows; each is then
    decided by the rule itself on ``np.linalg.norm`` of the estimate, the
    norm ``finalize`` reports, so the stop is the one a check after every
    trajectory finds.
    """
    floor = 4.0 * eps_delta**2 * (1.0 - 1e-9)

    def stop(counts: np.ndarray, estimates: np.ndarray) -> "int | None":
        with np.errstate(over="ignore"):
            squares = np.einsum("ij,ij->i", estimates, estimates)
        for i in np.flatnonzero((squares > 0.0) & (counts * squares >= floor)):
            needed = required_batch_size(float(np.linalg.norm(estimates[i])), eps_delta)
            if needed is not None and counts[i] >= needed:
                return int(i)
        return None

    return stop


def spg_run(
    env,
    policy,
    theta0: np.ndarray,
    n_iterations: int,
    delta: float,
    estimator_kind: EstimatorKind = EstimatorKind.GPOMDP,
    limits: RunLimits = RunLimits(),
    seed: int = 0,
    fixed: "MetaParams | None" = None,
    baseline: BaselineKind = BaselineKind.ZERO,
) -> RunResult:
    """Safe policy gradient: the adaptive rule, or a fixed (alpha, N) for comparison.

    With ``fixed=None`` each iteration samples blocks of ``BLOCK_ROWS``
    trajectories, fewer where a cap leaves less room (trajectory i of
    iteration k depends only on (seed, k, i); see ``_rollout``), and stops
    at the first prefix with N >= ceil(4 eps^2 / ||grad_est||^2), the
    estimate taken over that prefix; rows past it are dropped and not
    counted.  It then updates theta with the constant step 1/(2L).  The records are
    those of checking the rule after every trajectory, whatever the block
    sizes.  An iteration that hits ``max_trajectories_per_iteration`` before
    satisfying the rule stalls: theta is left unchanged (a safe no-op) and
    the run moves on.  Hitting ``max_total_trajectories`` ends the run.
    Certified updates use the zero baseline, for which the error bound is
    proven.

    With ``fixed`` given, every iteration takes exactly ``fixed.batch_size``
    trajectories and the step ``fixed.alpha``, estimated with ``baseline``.
    An iteration whose batch would cross ``max_total_trajectories`` is not
    started.  Nothing is certified, so the guaranteed improvement is logged
    as zero.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if not np.all(np.isfinite(theta)):
        raise ConfigurationError("theta0 must be finite")
    if theta.shape != (policy.dim,):
        raise ConfigurationError(
            f"theta has shape {theta.shape}, policy expects ({policy.dim},)"
        )
    if n_iterations < 1:
        raise ConfigurationError(f"n_iterations must be >= 1, got {n_iterations}")
    check_schedule(fixed, limits, baseline)
    kind = EstimatorKind(estimator_kind)
    constants = policy.smoothing_constants()
    lip = lipschitz_constant(constants, env.spec)
    var = variance_bound(kind, env.spec, constants.kappa)
    err = error_bound(var, delta)
    if fixed is not None:
        alpha = fixed.alpha
    elif lip <= 0:
        raise ConfigurationError("Lipschitz constant is zero; no certified step exists")
    else:
        alpha = 1.0 / (2.0 * lip)
    gamma = env.spec.gamma
    stop = None if fixed is not None else _first_certified(err.eps_delta)

    records: list[RunRecord] = []
    thetas = [theta.copy()]
    total = 0
    for k in range(n_iterations):
        if fixed is not None and total + fixed.batch_size > limits.max_total_trajectories:
            break
        acc = GradientAccumulator(policy, theta, gamma, kind, baseline)
        rollout = _rollout(env, policy, theta, seed, k)
        stalled = False
        while True:
            room = min(
                limits.max_trajectories_per_iteration - acc.count,
                limits.max_total_trajectories - total,
            )
            if room <= 0:
                stalled = True
                break
            size = min(BLOCK_ROWS, room)
            if fixed is not None:
                size = min(size, fixed.batch_size - acc.count)
            first = acc.count
            met = acc.add_block(*rollout(first, size), stop=stop)
            total += acc.count - first
            if met or (fixed is not None and acc.count >= fixed.batch_size):
                break
        if acc.count == 0:
            # total cap exhausted before this iteration could sample anything
            break
        estimate = acc.finalize()
        guaranteed = 0.0
        if not stalled:
            if fixed is None:
                guaranteed = estimate.norm**2 / (8.0 * lip)
            theta = theta + alpha * estimate.vector
            if not np.all(np.isfinite(theta)):
                raise NumericError("parameter update produced non-finite values")
        records.append(
            RunRecord(
                iteration=k,
                batch_size=acc.count,
                alpha=alpha,
                grad_norm=estimate.norm,
                j_hat=acc.mean_return(),
                guaranteed_improvement=guaranteed,
                cum_trajectories=total,
                stalled=stalled,
            )
        )
        thetas.append(theta.copy())
        if total >= limits.max_total_trajectories:
            break
    return RunResult(
        records=records,
        thetas=thetas,
        constants=constants,
        lipschitz=lip,
        variance=var,
        error=err,
        estimator_kind=kind,
    )
