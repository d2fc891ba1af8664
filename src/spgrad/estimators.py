"""Likelihood-ratio policy-gradient estimators and their error bounds.

Two estimators over a batch of N trajectories:

  REINFORCE:  mean_i (sum_t gamma^t r_t^i - b) * (sum_t score_t^i)
  GPOMDP:     mean_i sum_t (gamma^t r_t^i - b_t) * (sum_{h<=t} score_h^i)

Both pair K reward terms r_k with K score terms c_k per trajectory and
average sum_k (r_k - b_k) c_k: REINFORCE is the one-step case (K = 1, the
discounted return and the summed score), GPOMDP has K = T.  That term form
is computed in one place, the per-step fold ``TermFold``: a certified run
feeds it each step as the block is rolled out
(``GradientAccumulator.add_steps`` as the consumer of
``mdp.sample_block``), so no (T, n, m) array of scores is made, while
``add_block`` (the exact oracle, ``add_trajectory``) and
``trajectory_terms`` (the sampled validate checks) feed it from arrays.
Every sum over a trajectory's steps runs in time order, one (n, m) slice
per step, whatever the memory layout.  The baseline is zero or the component-wise
variance-minimizing one of Peters & Schaal, b_k = E[r_k c_k^2] / E[c_k^2],
estimated from the batch.  Single-trajectory variance is bounded by a
closed-form nu^2 (so Var <= nu^2 / N), which a Chebyshev argument turns
into the high-probability estimation error eps_delta = sqrt(nu^2 / delta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, NumericError
from .mdp import MdpSpec, Trajectory

_PETERS_DENOM_FLOOR = 1e-12
# Rows per block of ``oracle.path_blocks`` and of the scoring chunks of
# ``validate``'s sampled checks.  No output depends on it.  A path block holds
# its rows as Python tuples, so the block size bounds the enumeration's memory.
# (``spg_run`` sizes its rollout blocks itself: a pilot, then what the stop rule
# forecasts, at most ``safe_updates.ROLLOUT_ROWS``.)
BLOCK_ROWS = 512


class EstimatorKind(str, Enum):
    REINFORCE = "reinforce"
    GPOMDP = "gpomdp"


class BaselineKind(str, Enum):
    ZERO = "zero"
    PETERS = "peters"


@dataclass
class GradientEstimate:
    vector: np.ndarray

    @property
    def norm(self) -> float:
        """||vector||; NumericError where it is past the float range."""
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.vector))
        if not math.isfinite(norm):
            raise NumericError("gradient estimate norm is not finite")
        return norm


@dataclass(frozen=True)
class VarianceBound:
    """Single-trajectory bound: Var of the N-sample estimate is <= nu_squared / N."""

    nu_squared: float

    def __post_init__(self) -> None:
        if self.nu_squared < 0:
            raise ConfigurationError("nu_squared must be non-negative")


# ---------------------------------------------------------------------------
# Per-trajectory terms
# ---------------------------------------------------------------------------


def trajectory_scores(traj: Trajectory, policy, theta: np.ndarray) -> np.ndarray:
    """(T, m) array of per-step scores along the trajectory."""
    return np.stack(
        [policy.score(theta, s, a) for s, a in zip(traj.states, traj.actions)]
    )


def trajectory_terms(
    kind: EstimatorKind,
    gamma: float,
    rewards: np.ndarray,
    scores: np.ndarray,
    weights: "np.ndarray | None" = None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The term form of a block of trajectories: (w R, w r, g).

    ``rewards`` is (n, T) and ``scores`` (n, T, m), row i holding trajectory
    i.  Reward terms r are (n, K), paired with the score terms c_k (n, m).
    GPOMDP has K = T, the weighted discounted rewards w_i gamma^t r_t and
    the cumulative scores c_t = score_0 + ... + score_t; REINFORCE has
    K = 1, their totals: the weighted discounted return w_i R_i (n,), which
    is returned for both kinds, and c_{T-1}.  Row i's estimate is
    g_i = sum_k w_i r_ik c_ik (n, m); every w_i is 1 when ``weights`` is
    None.  The arrays are fed to a ``TermFold`` one step at a time, so the
    bits do not depend on the memory layout of ``scores``.
    """
    fold = TermFold(kind, gamma, rewards.shape[1], weights)
    r = np.empty(rewards.shape)
    for t in range(rewards.shape[1]):
        r[:, t] = fold(t, rewards[:, t], scores[:, t])
    return fold.ret, r if fold.gpomdp else fold.ret[:, None], fold.g


class TermFold:
    """The term form of one block of n trajectories, folded in a step at a time.

    ``fold(t, rewards, scores)`` takes step t's rewards (n,) and scores
    (n, m), for t = 0 .. T-1 in order, and returns the step's reward term
    w_i gamma^t r_t, gamma^t read from ``gamma ** np.arange(T)`` and w_i
    only where ``weights`` are given.  Every sum over a trajectory's steps
    runs in time order, one (n, m) slice per step: the return ``ret`` from
    0.0, the cumulative score c_t = c_{t-1} + score_t from a copy of
    score_0 (so ``scores`` may be one array that the caller rewrites every
    step), and the estimates ``g`` from zero: GPOMDP adds r_t c_t at every
    step, REINFORCE the return times c_{T-1} after the last.  c_t, g and
    each product r_k c_k are written in place, into one (n, m) array each,
    taken from ``work``: a list that keeps those three arrays between folds
    (``GradientAccumulator`` passes its own, so that every block of an
    iteration writes over the same memory), grown when a block is longer.
    ``c`` and ``g`` are views of them, valid until the next fold on ``work``.

    ``peters``, if given, maps the names of the four Peters (K, m) totals of
    r c, c, r c^2 and c^2 to the totals to continue (0.0 before any row).
    Each reward term k then sets row k of ``totals[name]``: the total
    continued by its n rows, summed in row order.
    """

    PETERS_TOTALS = ("_sum_rc", "_sum_c", "_sum_rc2", "_sum_c2")

    def __init__(
        self,
        kind: EstimatorKind,
        gamma: float,
        horizon: int,
        weights: "np.ndarray | None" = None,
        peters: "dict | None" = None,
        work: "list | None" = None,
    ):
        self.gpomdp = EstimatorKind(kind) is EstimatorKind.GPOMDP
        self.discount = gamma ** np.arange(horizon)
        self.weights = weights
        self.peters = peters
        self.work = [] if work is None else work
        self.ret = 0.0
        self.c = self.g = None

    def __call__(self, t: int, rewards: np.ndarray, scores: np.ndarray) -> np.ndarray:
        r = self.discount[t] * rewards
        if self.weights is not None:
            r = self.weights * r
        self.ret += r
        if t == 0:
            n, m = scores.shape
            if not self.work or len(self.work[0]) < n or self.work[0].shape[1] != m:
                self.work[:] = (np.empty((n, m)) for _ in range(3))
            self.c, self.g, self._term = (buffer[:n] for buffer in self.work)
            np.copyto(self.c, scores)
            self.g.fill(0.0)
            if self.peters is not None:
                shape = (len(self.discount) if self.gpomdp else 1, m)
                self.totals = {name: np.empty(shape) for name in self.PETERS_TOTALS}
        else:
            self.c += scores
        if self.gpomdp:
            self._add(t, r)
        elif t == len(self.discount) - 1:
            self._add(0, self.ret)
        return r

    def _add(self, k: int, r: np.ndarray) -> None:
        """g += r c_t for reward term k, and row k of the Peters totals.

        Where m > 1, r is repeated along each row first: the same
        products, but numpy forms them more than twice as fast as against a
        broadcast (n, 1) column when m is small (m = 6 on the chain config);
        at m = 1 the column already is the layout of c.
        """
        c = self.c
        n, m = c.shape
        rk = r[:, None] if m == 1 else r.repeat(m).reshape(n, m)
        self.g += np.multiply(rk, c, out=self._term)
        if self.peters is not None:
            w = 1.0 if self.weights is None else self.weights[:, None]
            c2 = c**2
            for name, term in zip(self.PETERS_TOTALS, (rk * c, w * c, rk * c2, w * c2)):
                start = self.peters[name]
                total = start if np.ndim(start) == 0 else start[k]
                self.totals[name][k] = running_sums(total, term)[-1]


# ---------------------------------------------------------------------------
# Incremental accumulation
# ---------------------------------------------------------------------------


class GradientAccumulator:
    """Streaming sufficient statistics for a gradient estimate.

    Each trajectory enters with a positive weight: 1 when sampled, its path
    probability when the exact oracle adds a block of enumerated paths
    (``oracle.expected_gradient_estimate``).  The accumulator keeps weighted
    sums and divides by the weight sum, so the estimate is the weighted mean
    of the per-trajectory terms; Peters baselines are recomputed from the
    weighted statistics at finalize time.  A block comes either as arrays
    (``add_block``) or one step at a time as it is rolled out
    (``add_steps``, fed by ``mdp.sample_block``); both fold it through one
    ``TermFold``, so they give the same bits.
    """

    def __init__(
        self,
        policy,
        theta: np.ndarray,
        gamma: float,
        kind: EstimatorKind,
        baseline: BaselineKind = BaselineKind.ZERO,
    ):
        self.policy = policy
        self.theta = np.asarray(theta, dtype=float)
        self.gamma = gamma
        self.kind = EstimatorKind(kind)
        self.baseline = BaselineKind(baseline)
        self.count = 0
        self.horizon: int | None = None
        # weighted totals, each 0.0 until its first term: the return (for
        # J-hat logging), the zero-baseline gradient (m,), and under Peters
        # the (K, m) totals of r c, c, r c^2 and c^2
        self.weight_sum = self.return_sum = self._sum_g = 0.0
        self._sum_rc = self._sum_c = self._sum_rc2 = self._sum_c2 = 0.0
        self._work: list = []  # the folds' (n, m) work arrays, kept across blocks

    def add_trajectory(self, traj: Trajectory) -> "GradientAccumulator":
        rewards = np.asarray(traj.rewards, dtype=float)[None]
        self.add_block(rewards, trajectory_scores(traj, self.policy, self.theta)[None])
        return self

    def add_block(
        self,
        rewards: np.ndarray,
        scores: np.ndarray,
        weights: "np.ndarray | None" = None,
        stop=None,
    ) -> bool:
        """Add a block of trajectories given as arrays: ``add_steps`` fed
        step t's rewards[:, t] and scores[:, t] for t = 0 .. T-1.

        ``rewards`` is (n, T) and ``scores`` (n, T, m), row i holding
        trajectory i, with the T and m of any earlier block; ``weights``
        (n,) defaults to 1 for every row.  Shapes that disagree raise
        ValueError; a block of no rows adds nothing and returns False.
        """
        dim = np.shape(self._sum_g)  # () before the first row, (m,) after
        if (
            rewards.ndim != 2
            or scores.ndim != 3
            or scores.shape[:2] != rewards.shape
            or dim not in ((), scores.shape[2:])
            or (weights is not None and weights.shape != rewards.shape[:1])
        ):
            weighted = "" if weights is None else f", weights {weights.shape}"
            m = dim[0] if dim else "m"
            raise ValueError(
                f"block shapes disagree: rewards {rewards.shape}, scores {scores.shape}{weighted};"
                f" expected (n, T), (n, T, {m}) and (n,)"
            )
        n, horizon = rewards.shape

        def feed(fold: TermFold) -> None:
            for t in range(horizon if n else 0):
                fold(t, rewards[:, t], scores[:, t])

        return self.add_steps(feed, horizon, weights, stop)

    def add_steps(self, feed, horizon: int, weights: "np.ndarray | None" = None, stop=None) -> bool:
        """Add a block of trajectories of ``horizon`` steps, row after row,
        its terms folded in one step at a time.

        ``feed(fold)`` calls ``fold(t, rewards, scores)`` with every row's
        rewards (n,) and scores (n, m) of step t, for t = 0 .. T-1 in order
        (``mdp.sample_block`` takes it as its consumer); ``weights`` (n,)
        defaults to 1 for every row.  A feed that makes no call adds nothing
        and returns False.  The rows' terms are then accumulated with
        ``np.cumsum``, which adds in row order like the one-at-a-time sums
        (``np.sum`` may pair terms), so the statistics after row i are the
        ones that adding rows one at a time reaches, bit for bit, however the
        rows are split into blocks.  The Peters totals are continued step by
        step inside the fold.

        ``stop(counts, sums)``, if given, sees after each row the trajectory
        count N and the running zero-baseline sum S (the estimate is S / N),
        up to the first row whose estimate is not finite, and returns the
        index of the row that ends the block or None.  Rows past that row
        are dropped and True is returned; otherwise every row is added, or
        NumericError is raised when an estimate is not finite.  A stop
        takes unit-weight rows only, on an accumulator whose weight sum is
        its count, and the zero baseline only (ValueError otherwise), so
        that S / N is the estimate; N >= 1 makes it finite where S is, and a
        running sum that turns non-finite stays so, so a check of the last
        sum stands for the per-row check, which runs only where it fails.
        """
        if stop is not None and (weights is not None or self.weight_sum != self.count):
            raise ValueError("a stop takes unit-weight rows only")
        if weights is not None and not np.all((weights > 0.0) & (weights < math.inf)):
            raise ValueError(f"trajectory weights must be positive and finite, got {weights}")
        if self.horizon not in (None, horizon):
            raise ValueError(
                f"trajectory has horizon {horizon}, accumulator expects {self.horizon}"
            )
        peters = None
        if self.baseline is BaselineKind.PETERS:
            peters = {name: getattr(self, name) for name in TermFold.PETERS_TOTALS}
        fold = TermFold(self.kind, self.gamma, horizon, weights, peters, self._work)
        feed(fold)
        n = 0 if fold.g is None else len(fold.g)
        if n == 0:
            return False
        if stop is not None and peters is not None:
            raise ValueError("a stop takes the zero baseline only")
        self.horizon = horizon
        sums = running_sums(self._sum_g, fold.g)
        keep, stopped = n, False
        if stop is not None:
            valid = n if np.isfinite(sums[-1]).all() else int(np.argmin(np.isfinite(sums).all(axis=1)))
            end = stop(self.count + np.arange(1, valid + 1), sums[:valid])
            if end is not None:
                keep, stopped = end + 1, True
            elif valid < n:
                raise NumericError("gradient estimate is not finite")
        self._sum_g = sums[keep - 1].copy()
        self.return_sum = float(running_sums(self.return_sum, fold.ret)[keep - 1])
        if weights is None and self.weight_sum == self.count:
            self.weight_sum = float(self.count + keep)  # a running sum of ones is exact
        else:
            unit = np.ones(n) if weights is None else weights
            self.weight_sum = float(running_sums(self.weight_sum, unit)[keep - 1])
        if peters is not None:
            for name, total in fold.totals.items():
                setattr(self, name, total)
        self.count += keep
        return stopped

    def mean_return(self) -> float:
        if self.count == 0:
            raise ValueError("no trajectories accumulated")
        return self.return_sum / self.weight_sum

    def finalize(self) -> GradientEstimate:
        if self.count == 0:
            raise ValueError("cannot finalize an empty accumulator")
        if self.baseline is BaselineKind.ZERO:
            vector = self._sum_g / self.weight_sum
        else:
            c2, floor = self._sum_c2, _PETERS_DENOM_FLOOR
            b = np.where(c2 > floor, self._sum_rc2 / np.maximum(c2, floor), 0.0)
            vector = (self._sum_rc - b * self._sum_c).sum(axis=0) / self.weight_sum
        if not np.all(np.isfinite(vector)):
            raise NumericError("gradient estimate is not finite")
        return GradientEstimate(vector)


def running_sums(total, terms: np.ndarray) -> np.ndarray:
    """total + terms[0], total + terms[0] + terms[1], ...: sums in row order.

    ``total`` is a running total or its 0.0 start, broadcast to a term's shape.
    """
    if len(terms) == 1:
        return total + terms
    sums = np.empty((len(terms) + 1, *terms.shape[1:]))
    sums[0], sums[1:] = total, terms
    return np.cumsum(sums, axis=0, out=sums)[1:]


# ---------------------------------------------------------------------------
# Variance and estimation-error bounds
# ---------------------------------------------------------------------------


def variance_bound(kind: EstimatorKind, spec: MdpSpec, kappa: float) -> VarianceBound:
    """Closed-form nu^2 such that the N-sample trace variance is <= nu^2 / N.

    REINFORCE grows linearly with the horizon; GPOMDP stays bounded in T.
    Raises ConfigurationError when nu^2 overflows.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    gamma, r, t = spec.gamma, spec.r_max, spec.horizon
    truncation = 1.0 - gamma**t
    if EstimatorKind(kind) is EstimatorKind.REINFORCE:
        nu2 = t * kappa * r * r * truncation**2 / (1.0 - gamma) ** 2
    else:
        nu2 = kappa * r * r * truncation / (1.0 - gamma) ** 3
    if not math.isfinite(nu2):
        raise ConfigurationError(
            f"the {EstimatorKind(kind).value} variance bound nu^2 overflows at kappa = {kappa:g},"
            f" r_max = {r}, gamma = {gamma}, horizon = {t}"
        )
    return VarianceBound(nu_squared=nu2)


def error_bound(vb: VarianceBound, delta: float) -> float:
    """eps_delta = sqrt(nu^2 / delta): by Chebyshev, with probability 1 - delta
    the N-sample estimate is within eps_delta / sqrt(N) of the gradient."""
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    eps_delta = float(np.sqrt(vb.nu_squared / delta))
    if not math.isfinite(eps_delta):
        raise ConfigurationError(f"eps_delta overflows at nu^2 = {vb.nu_squared:g}, delta = {delta}")
    return eps_delta
