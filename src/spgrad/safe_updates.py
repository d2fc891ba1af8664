"""Improvement bounds, safe meta-parameter rules, and the adaptive loop.

For a smoothing policy the performance J is L-smooth with

    L = R / (1-gamma)^2 * (2*gamma*psi^2 / (1-gamma) + kappa + xi),

which yields a quadratic lower bound on the improvement of a gradient
update.  Maximizing that bound gives the exact-gradient step 1/L; with
estimated gradients the bound degrades by the estimation error
eps_delta/sqrt(N), and jointly maximizing improvement per trajectory gives
the constant step 1/(2L) together with the adaptive batch size
N = ceil(4*eps_delta^2 / ||grad_est||^2).  The loop below applies that rule
with a do-while inner collection phase, so each update is certified to
improve J by at least ||grad_est||^2 / (8L) with probability 1 - delta.

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
    BaselineKind,
    ErrorBound,
    EstimatorKind,
    GradientAccumulator,
    VarianceBound,
    error_bound,
    variance_bound,
)
from .mdp import Environment, sample_trajectory
from .policies import SmoothingConstants
from .rng import substream


@dataclass(frozen=True)
class LipschitzConstant:
    """Gradient Lipschitz constant of J together with its provenance."""

    value: float
    psi: float
    kappa: float
    xi: float
    r_max: float
    gamma: float


@dataclass(frozen=True)
class MetaParams:
    alpha: float
    batch_size: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigurationError(f"alpha must be finite and non-negative, got {self.alpha}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class ImprovementBound:
    value: float
    confidence: float


def lipschitz_constant(sc: SmoothingConstants, spec) -> LipschitzConstant:
    """L such that J is L-smooth, from the policy constants and the MDP scalars."""
    gamma, r = spec.gamma, spec.r_max
    value = r / (1.0 - gamma) ** 2 * (2.0 * gamma * sc.psi**2 / (1.0 - gamma) + sc.kappa + sc.xi)
    return LipschitzConstant(
        value=value, psi=sc.psi, kappa=sc.kappa, xi=sc.xi, r_max=r, gamma=gamma
    )


def _l_value(lip: "LipschitzConstant | float") -> float:
    return lip.value if isinstance(lip, LipschitzConstant) else float(lip)


def exact_improvement_bound(
    alpha: float, grad_norm: float, lip: "LipschitzConstant | float"
) -> ImprovementBound:
    """Guaranteed improvement of an exact-gradient update of step alpha."""
    if alpha < 0 or grad_norm < 0:
        raise ValueError("alpha and grad_norm must be non-negative")
    l = _l_value(lip)
    value = alpha * grad_norm**2 - alpha**2 * (l / 2.0) * grad_norm**2
    return ImprovementBound(value=value, confidence=1.0)


def optimal_step_exact(lip: "LipschitzConstant | float") -> MetaParams:
    """The step maximizing the exact improvement bound: alpha = 1/L."""
    l = _l_value(lip)
    if l <= 0:
        raise ConfigurationError(f"Lipschitz constant must be positive, got {l}")
    return MetaParams(alpha=1.0 / l, batch_size=1)


def stochastic_improvement_bound(
    alpha: float,
    grad_est_norm: float,
    eps_delta: float,
    batch_size: float,
    lip: "LipschitzConstant | float",
    delta: float,
) -> ImprovementBound:
    """Improvement bound of a stochastic update, holding with probability 1 - delta.

    The max term keeps the bound valid on both sides of the estimation
    error: its first argument applies when the estimated norm exceeds
    eps_delta/sqrt(N), the second otherwise.
    """
    if min(alpha, grad_est_norm, eps_delta) < 0 or batch_size < 1:
        raise ValueError("inputs must be non-negative with batch_size >= 1")
    l = _l_value(lip)
    err = eps_delta / math.sqrt(batch_size)
    anticipated = max(grad_est_norm, (grad_est_norm + err) / 2.0)
    value = alpha * (grad_est_norm - err) * anticipated - alpha**2 * l * grad_est_norm**2 / 2.0
    return ImprovementBound(value=value, confidence=1.0 - delta)


def required_batch_size(grad_est_norm: float, eps_delta: float) -> "int | None":
    """ceil(4 eps^2 / ||grad||^2); None when the estimate vanishes."""
    if grad_est_norm <= 0.0:
        return None
    return max(1, math.ceil(4.0 * eps_delta**2 / grad_est_norm**2))


def optimal_step_and_batch(
    grad_est_norm: float, eps_delta: float, lip: "LipschitzConstant | float"
) -> MetaParams:
    """Jointly optimal (alpha, N) for improvement per trajectory.

    alpha = 1/(2L) and N = ceil(4 eps^2 / ||grad||^2) guarantee an
    improvement of ||grad||^2 / (8L) at confidence 1 - delta.
    """
    if grad_est_norm <= 0.0:
        raise ValueError("zero gradient estimate: no batch size can be certified")
    if eps_delta <= 0.0:
        raise ValueError(f"eps_delta must be positive, got {eps_delta}")
    l = _l_value(lip)
    if l <= 0:
        raise ConfigurationError(f"Lipschitz constant must be positive, got {l}")
    batch = required_batch_size(grad_est_norm, eps_delta)
    return MetaParams(alpha=1.0 / (2.0 * l), batch_size=batch)


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
    lipschitz: LipschitzConstant
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


def spg_run(
    env: Environment,
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

    With ``fixed=None`` each iteration collects trajectories one at a time,
    recomputing the estimate after each, until N >= ceil(4 eps^2 /
    ||grad_est||^2), then updates theta with the constant step 1/(2L).  An
    iteration that hits ``max_trajectories_per_iteration`` before satisfying
    the rule stalls: theta is left unchanged (a safe no-op) and the run moves
    on.  Hitting ``max_total_trajectories`` ends the run.  Certified updates
    use the zero baseline, for which the error bound is proven.

    With ``fixed`` given, every iteration takes exactly ``fixed.batch_size``
    trajectories and the step ``fixed.alpha``, estimated with ``baseline``.
    An iteration whose batch would cross ``max_total_trajectories`` is not
    started.  Nothing is certified, so the guaranteed improvement is logged
    as zero.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if not np.all(np.isfinite(theta)):
        raise ConfigurationError("theta0 must be finite")
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
    elif lip.value <= 0:
        raise ConfigurationError("Lipschitz constant is zero; no certified step exists")
    else:
        alpha = 1.0 / (2.0 * lip.value)
    gamma = env.spec.gamma

    records: list[RunRecord] = []
    thetas = [theta.copy()]
    total = 0
    for k in range(n_iterations):
        if fixed is not None and total + fixed.batch_size > limits.max_total_trajectories:
            break
        acc = GradientAccumulator(policy, theta, gamma, kind, baseline)
        stalled = False
        while True:
            if acc.count >= limits.max_trajectories_per_iteration or (
                total >= limits.max_total_trajectories
            ):
                stalled = True
                break
            traj = sample_trajectory(env, policy, theta, substream(seed, k, acc.count))
            acc.add_trajectory(traj)
            total += 1
            if fixed is None:
                needed = required_batch_size(acc.finalize().norm, err.eps_delta)
            else:
                needed = fixed.batch_size
            if needed is not None and acc.count >= needed:
                break
        if acc.count == 0:
            # total cap exhausted before this iteration could sample anything
            break
        estimate = acc.finalize()
        guaranteed = 0.0
        if not stalled:
            if fixed is None:
                guaranteed = estimate.norm**2 / (8.0 * lip.value)
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
