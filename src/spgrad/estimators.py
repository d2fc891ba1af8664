"""Likelihood-ratio policy-gradient estimators and their error bounds.

Two estimators over a batch of N trajectories:

  REINFORCE:  mean_i (sum_t gamma^t r_t^i - b) * (sum_t score_t^i)
  GPOMDP:     mean_i sum_t (gamma^t r_t^i - b_t) * (sum_{h<=t} score_h^i)

Both pair K reward terms r_k with K score terms c_k per trajectory and
average sum_k (r_k - b_k) c_k: REINFORCE is the one-step case (K = 1, the
discounted return and the summed score), GPOMDP has K = T.  That term form
is computed in one place, ``trajectory_terms``: ``GradientAccumulator``
sums it for certified runs and the exact oracle, and the sampled validate
checks read its per-trajectory estimates directly.  Every sum over a
trajectory's steps runs in time order, one (n, m) slice per step, whatever
the memory layout.  The baseline is zero or the component-wise
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
    None.  The c_k are the last K steps of ``np.cumsum(scores, axis=1)``.

    Every sum over a trajectory's steps runs in time order, one (n, m) slice
    per step: the return and g from 0.0, c_t from score_0.  So the bits do
    not depend on the memory layout of ``scores``.  g, the running c_t and
    each product r_k c_k are written in place, into one (n, m) array each.
    """
    horizon = rewards.shape[1]
    gpomdp = EstimatorKind(kind) is EstimatorKind.GPOMDP
    r = gamma ** np.arange(horizon) * rewards
    if weights is not None:
        r = weights[:, None] * r
    ret = 0.0
    ct = scores[:, 0]
    g, term = np.zeros(ct.shape), np.empty(ct.shape)
    for t in range(horizon):
        ret += r[:, t]
        if t == 1:
            ct = ct + scores[:, t]  # a new array: c_0 is a view of scores
        elif t > 1:
            ct += scores[:, t]
        if gpomdp:
            g += np.multiply(r[:, t, None], ct, out=term)
    if not gpomdp:
        r = ret[:, None]
        g += np.multiply(r, ct, out=term)
    return ret, r, g


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
    weighted statistics at finalize time.
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
        """Add a block of trajectories, row after row.

        ``rewards`` is (n, T) and ``scores`` (n, T, m), row i holding
        trajectory i; ``weights`` defaults to 1 for every row.  The terms of
        all rows come from one ``trajectory_terms`` call and are accumulated with
        ``np.cumsum``, which adds in row order like the one-at-a-time sums
        (``np.sum`` may pair terms), so the statistics after row i are the
        ones that adding rows one at a time reaches, bit for bit, however
        the rows are split into blocks.

        ``stop(counts, sums)``, if given, sees after each row the trajectory
        count N and the running zero-baseline sum S (the estimate is S / N),
        up to the first row whose estimate is not finite, and returns the
        index of the row that ends the block or None.  Rows past that row
        are dropped and True is returned; otherwise every row is added, or
        NumericError is raised when an estimate is not finite.  A stop
        takes unit-weight rows only, on an accumulator whose weight sum is
        its count (ValueError otherwise), so that S / N is the estimate;
        N >= 1 makes it finite where S is, so one check over all the sums
        stands for the per-row check, which runs only where it fails.
        """
        n, horizon = rewards.shape
        if stop is not None and (weights is not None or self.weight_sum != self.count):
            raise ValueError("a stop takes unit-weight rows only")
        if weights is not None and not np.all((weights > 0.0) & (weights < math.inf)):
            raise ValueError(f"trajectory weights must be positive and finite, got {weights}")
        if self.horizon is None:
            self.horizon = horizon
        elif horizon != self.horizon:
            raise ValueError(
                f"trajectory has horizon {horizon}, accumulator expects {self.horizon}"
            )
        ret, wr, g = trajectory_terms(self.kind, self.gamma, rewards, scores, weights)
        if weights is None:
            weights = np.ones(n)
        terms = {"weight_sum": weights, "return_sum": ret, "_sum_g": g}
        if self.baseline is BaselineKind.PETERS:
            # the (n, K, m) score terms, summed over steps in time order
            c = np.cumsum(scores, axis=1)[:, -wr.shape[1] :]
            w, wr3, c2 = weights[:, None, None], wr[:, :, None], c**2
            terms.update(_sum_rc=wr3 * c, _sum_c=w * c, _sum_rc2=wr3 * c2, _sum_c2=w * c2)
        running = {name: running_sums(getattr(self, name), term) for name, term in terms.items()}
        keep, stopped = n, False
        if stop is not None:
            sums = running["_sum_g"]
            valid = n if np.isfinite(sums).all() else int(np.argmin(np.isfinite(sums).all(axis=1)))
            end = stop(self.count + np.arange(1, valid + 1), sums[:valid])
            if end is not None:
                keep, stopped = end + 1, True
            elif valid < n:
                raise NumericError("gradient estimate is not finite")
        for name, values in running.items():
            value = values[keep - 1]
            setattr(self, name, float(value) if values.ndim == 1 else value.copy())
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
