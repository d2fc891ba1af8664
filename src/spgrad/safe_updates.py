"""Improvement bounds, safe meta-parameter rules, and the adaptive loop.

For a smoothing policy the performance J is L-smooth with

    L = R / (1-gamma)^2 * (2*gamma*psi^2 / (1-gamma) + kappa + xi),

which yields a quadratic lower bound on the improvement of a gradient
update.  Maximizing that bound gives the exact-gradient step 1/L; with
estimated gradients the bound degrades by the estimation error
eps_delta/sqrt(N), and jointly maximizing improvement per trajectory gives
the certified rule, written once here and judged by criterion 07
(``validate.check_joint_grid``): the step 1/(2L) (``certified_step``), the
batch N = ceil(4*eps_delta^2 / ||grad_est||^2) (``required_batch_size``)
and the guarantee ||grad_est||^2 / (8L) (``certified_improvement``).
``spg_run`` stops each update at the first prefix of its blocks that meets
the rule, so each is certified with probability 1 - delta; a fixed
schedule (``MetaParams``) runs the same loop uncertified.

The certification is per update: no union bound is taken across the K
updates of a run.  The parameter space is all of R^m; bounded parameter
sets would need a projection step that is not modeled here.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError, check_integer
from .estimators import (
    BaselineKind,
    EstimatorKind,
    GradientAccumulator,
    VarianceBound,
    error_bound,
    variance_bound,
)
# sample_trajectory and substream stay bound here: perfbench patches them by name
from .mdp import check_theta, row_draws, sample_block, sample_trajectory
from .policies import SmoothingConstants
from .rng import UniformRows, check_seed, substream

# Rows per rollout block of ``spg_run``, at most.  No record depends on the
# block sizes (row i of iteration k is addressed by its offset).  Each block
# makes the same Python and numpy calls whatever its size (cProfile: ~270 on
# the chain config, T = 5, and ~970 on lqg, T = 10), so fewer, larger blocks
# cost less; but every row of the last block is rolled out, also past the
# stop.  Every iteration therefore draws a first block of ROLLOUT_ROWS // 2
# rows (one block for the bandit config's ~1.9k; a fixed schedule keeps
# that size), then a certified one sizes each block to what the stop rule
# forecasts from the estimate in hand: FORECAST_MARGIN times the rows it
# still asks for, at least FORECAST_FLOOR.  Each step is folded into the
# estimates as it is rolled out, so a block holds no (T, n, m) scores: at
# 4096 rows one certified update peaks at ~1.5 MiB on the chain config,
# ~2.0 on lqg.
ROLLOUT_ROWS = 4096
FORECAST_MARGIN = 1.05
FORECAST_FLOOR = 256


def _integer_field(owner, name: str) -> None:
    """Refuse a field of a frozen dataclass that is not an int or numpy
    integer (``check_integer``), and store it as an int."""
    object.__setattr__(owner, name, check_integer(getattr(owner, name), name))


@dataclass(frozen=True)
class MetaParams:
    """A fixed, uncertified schedule: step alpha, batch N and the estimator's baseline."""

    alpha: float
    batch_size: int
    baseline: BaselineKind = BaselineKind.ZERO

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigurationError(f"alpha must be finite and non-negative, got {self.alpha}")
        _integer_field(self, "batch_size")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        try:
            object.__setattr__(self, "baseline", BaselineKind(self.baseline))
        except ValueError:
            raise ConfigurationError(f"unknown baseline {self.baseline!r}") from None


def lipschitz_constant(sc: SmoothingConstants, spec) -> float:
    """L such that J is L-smooth, from the policy constants and the MDP scalars.

    Raises ConfigurationError when L overflows.
    """
    gamma, r = spec.gamma, spec.r_max
    try:
        lip = r / (1.0 - gamma) ** 2 * (2.0 * gamma * sc.psi**2 / (1.0 - gamma) + sc.kappa + sc.xi)
    except OverflowError:
        lip = math.inf
    if not math.isfinite(lip):
        raise ConfigurationError(
            f"the Lipschitz constant L overflows at psi = {sc.psi:g}, kappa = {sc.kappa:g},"
            f" xi = {sc.xi:g}, gamma = {gamma}, r_max = {r}"
        )
    return lip


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


def certified_step(lip: float) -> float:
    """The certified rule's step, alpha = 1/(2L)."""
    if lip <= 0:
        raise ConfigurationError("Lipschitz constant is zero; no certified step exists")
    return 1.0 / (2.0 * lip)


def required_batch_size(grad_est_norm: float, eps_delta: float) -> "int | None":
    """The certified rule's batch, ceil(4 eps^2 / ||grad||^2); None where no
    finite batch meets it: the estimate vanishes or is not finite, or the
    quotient is not (a square underflows to 0 or overflows)."""
    if not 0.0 < grad_est_norm < math.inf:
        return None
    try:
        square = grad_est_norm**2
        bound = 4.0 * eps_delta**2 / square if square > 0.0 else math.inf
    except OverflowError:
        return None
    return max(1, math.ceil(bound)) if bound < math.inf else None


def certified_improvement(grad_est_norm: float, lip: float) -> float:
    """The certified rule's guarantee, ||grad||^2 / (8L): the
    ``stochastic_improvement_bound`` at step 1/(2L) and N = 4 eps^2 / ||grad||^2."""
    return grad_est_norm**2 / (8.0 * lip)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunLimits:
    max_trajectories_per_iteration: int = 100_000
    max_total_trajectories: int = 10_000_000

    def __post_init__(self) -> None:
        _integer_field(self, "max_trajectories_per_iteration")
        _integer_field(self, "max_total_trajectories")
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
    delta: float
    eps_delta: float
    estimator_kind: EstimatorKind


def check_schedule(fixed: "MetaParams | None", limits: RunLimits) -> None:
    """Reject a fixed schedule that ``spg_run`` could not follow as stated:
    it takes whole batches, so N must fit under the per-iteration cap.
    Raises before anything is sampled.  The certified rule (``None``) has
    nothing to check: its baseline is always zero.
    """
    if fixed is not None and fixed.batch_size > limits.max_trajectories_per_iteration:
        raise ConfigurationError(
            f"fixed batch size {fixed.batch_size} exceeds max_trajectories_per_iteration"
            f" = {limits.max_trajectories_per_iteration}"
        )


def _rollout(env, policy, theta: np.ndarray, seed: int, k: int):
    """(first, n, consume) -> None: rolls out trajectories first ..
    first+n-1 of iteration k and hands each step to ``consume``.

    The environment steps them as a block (``mdp.sample_block``) with the
    policy frozen at theta, ``policy.actor(theta)``, on rows of iteration k's
    one ``UniformRows(seed, k, width)``, so row i depends only on (seed, k, i).
    ``spg_run`` passes the fold of ``GradientAccumulator.add_steps`` as the
    consumer, so no block array of rewards or scores is made.  Every block's
    draws are written into one buffer, made anew only when a block is
    longer than any before it: memory written once per iteration is not
    handed back to the system and faulted in again for every block.
    """
    actor = policy.actor(theta)
    width = row_draws(env, actor)
    rows = UniformRows(seed, k, width)
    draws = np.empty((0, width))

    def block(first: int, n: int, consume) -> None:
        nonlocal draws
        if n > len(draws):
            draws = np.empty((n, width))
        sample_block(env, actor, rows.take(first, n, draws), consume)

    return block


def _first_certified(eps_delta: float):
    """stop(counts, sums) for ``GradientAccumulator.add_steps``: the first
    row whose prefix meets N >= required_batch_size(||S / N||, eps_delta),
    S / N being the estimate after that row's N unit-weight trajectories.

    A vectorized screen with slack picks the candidate rows on
    ``einsum(S, S) / N**2``, the counts taken as floats, so no (n, m) array
    of estimates is formed; each candidate is then decided by the rule
    itself on ``np.linalg.norm`` of S_i / N_i, the division a row of the
    full array would make and the norm ``finalize`` reports, so the stop is
    the one a check after every trajectory finds.  Since N >= 1,
    |S / N| <= |S|, and a square the screen sees as 0 is 0 for the estimate
    too.  Squares and norms past the float range are inf, with no warning,
    and a candidate whose norm is inf is not certified.
    """
    floor = 4.0 * eps_delta**2 * (1.0 - 1e-9)

    def stop(counts: np.ndarray, sums: np.ndarray) -> "int | None":
        with np.errstate(over="ignore"):
            squares = np.einsum("ij,ij->i", sums, sums) / np.square(counts, dtype=float)
            for i in np.flatnonzero((squares > 0.0) & (counts * squares >= floor)):
                norm = float(np.linalg.norm(sums[i] / counts[i]))
                needed = required_batch_size(norm, eps_delta)
                if needed is not None and counts[i] >= needed:
                    return int(i)
        return None

    return stop


def _forecast_rows(norm: float, eps_delta: float, count: int) -> int:
    """Rows for the next block of a certified iteration that has ``count``
    rows and an estimate of norm ``norm``: FORECAST_MARGIN times the rows
    ``required_batch_size`` still asks for, and at least FORECAST_FLOOR.
    Where the rule asks for ``ROLLOUT_ROWS`` more rows or no finite batch at
    all (a zero estimate, or one whose square underflows) it is
    ``ROLLOUT_ROWS``.  The caller caps it at ``ROLLOUT_ROWS`` and the room left.
    """
    needed = required_batch_size(norm, eps_delta)
    if needed is None or needed >= count + ROLLOUT_ROWS:
        return ROLLOUT_ROWS
    return max(FORECAST_FLOOR, math.ceil(FORECAST_MARGIN * (needed - count)))


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
) -> RunResult:
    """Safe policy gradient: the adaptive rule, or a fixed (alpha, N) for comparison.

    Both schedules run one block loop.  Iteration k samples blocks of
    trajectories (trajectory i of iteration k depends only on (seed, k, i);
    see ``_rollout``), each step folded into the estimates as the block is
    rolled out (``GradientAccumulator.add_steps``), toward its target:
    ``max_trajectories_per_iteration`` for the certified rule,
    ``fixed.batch_size`` for a fixed schedule.  A
    block has at most ``ROLLOUT_ROWS`` rows and the room that the target and
    ``max_total_trajectories`` leave.  The first is a pilot of
    ``ROLLOUT_ROWS // 2`` rows; only the later sizes depend on the schedule:
    the rows the rule forecasts from the estimate so far
    (``_forecast_rows``), or the pilot's size again for a fixed schedule.

    With ``fixed=None`` the iteration ends at the first prefix with
    N >= ``required_batch_size``, the estimate taken over that prefix; rows
    past it are dropped and not counted.  It then steps theta by
    ``certified_step`` and logs ``certified_improvement`` as the guarantee.
    The records are those of checking the rule after every trajectory,
    whatever the block sizes.  An iteration that runs out of room before
    meeting the rule stalls: theta is left unchanged (a safe no-op) and the
    run moves on.  Hitting ``max_total_trajectories`` ends the run.
    Certified updates use the zero baseline, for which the error bound is
    proven.

    With ``fixed`` given, every iteration takes exactly ``fixed.batch_size``
    trajectories and the step ``fixed.alpha``, estimated with
    ``fixed.baseline``.  An iteration whose batch would cross
    ``max_total_trajectories`` is not started.  Nothing is certified, so the
    guaranteed improvement is logged as zero.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if not np.all(np.isfinite(theta)):
        raise ConfigurationError("theta0 must be finite")
    check_theta(theta, policy.dim)
    if check_integer(n_iterations, "n_iterations") < 1:
        raise ConfigurationError(f"n_iterations must be >= 1, got {n_iterations}")
    check_seed(seed)
    check_schedule(fixed, limits)
    kind = EstimatorKind(estimator_kind)
    constants = policy.smoothing_constants()
    lip = lipschitz_constant(constants, env.spec)
    var = variance_bound(kind, env.spec, constants.kappa)
    eps_delta = error_bound(var, delta)
    if fixed is None:
        alpha, baseline, stop = certified_step(lip), BaselineKind.ZERO, _first_certified(eps_delta)
    else:
        alpha, baseline, stop = fixed.alpha, fixed.baseline, None
    gamma, horizon = env.spec.gamma, env.spec.horizon

    target = limits.max_trajectories_per_iteration if fixed is None else fixed.batch_size
    records: list[RunRecord] = []
    thetas = [theta.copy()]
    total = 0
    for k in range(n_iterations):
        if fixed is not None and total + fixed.batch_size > limits.max_total_trajectories:
            break
        acc = GradientAccumulator(policy, theta, gamma, kind, baseline)
        rollout = _rollout(env, policy, theta, seed, k)
        want, met = max(1, ROLLOUT_ROWS // 2), False
        while (room := min(target - acc.count, limits.max_total_trajectories - total)) > 0:
            first = acc.count
            feed = functools.partial(rollout, first, min(ROLLOUT_ROWS, room, want))
            met = acc.add_steps(feed, horizon, stop=stop)
            total += acc.count - first
            if met:
                break
            if stop is not None:
                want = _forecast_rows(acc.finalize().norm, eps_delta, acc.count)
        estimate = acc.finalize()
        stalled = stop is not None and not met
        guaranteed = certified_improvement(estimate.norm, lip) if met else 0.0
        if not stalled:
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
        delta=delta,
        eps_delta=eps_delta,
        estimator_kind=kind,
    )
