"""Named oracle-backed checks behind the ``validate`` CLI command.

Each check compares an implementation path against an independent route:
dynamic programming and the forward-pass gradient vs path enumeration,
closed forms vs grid search, analytic constants vs finite differences,
sampled statistics vs their bounds.  A check returns (ok, observed) and is
declared with ``_check(name, tolerance)``, which builds its
``CheckResult``.  Only the checks that enumerate paths
(``dp-enumeration-consistency``, ``estimator-unbiasedness`` and
``baseline-mean-invariance``) take the ``budget`` argument; ``_check``
reports one as skipped when the budget is too small.  Every other exact
quantity comes from dynamic programming or the forward pass, which need no
budget.  A check that evaluates them at many theta first draws every
point from its stream, in the order a one-point-at-a-time loop would, and
then makes one oracle call per quantity on the stack of points.

These checks are the only implementation of the acceptance criteria: the
CLI runs them at its default sizes, the acceptance tests at larger ones
(``n_points``, ``n_samples``, ``n_estimates``).  The sampled criteria are
split into a ``check_*`` wrapper and a helper taking the stream key, so the
tests can draw their own streams.  Each helper call builds one generator,
``substream(seed, *key)``, and both sample through one chunked sampler,
``_sampled_estimates``: it rolls the trajectories out of that generator in
row order, one ``sample_trajectory`` call each (the sampler binds its
kernels at a helper call's first trajectory and reuses them for the rest,
so each later call pays only for its episode), checks each chunk against
the horizon and r_max contract the bounds assume, and scores chunks of at
most ``estimators.BLOCK_ROWS`` of them at once (whole batches of 25 in the
Chebyshev check).  Per-trajectory estimates come from
``estimators.TermFold.feed`` and are summed in row order, so every
statistic equals the one-at-a-time sum and none depends on the chunk size.

``check_quadratic_bound`` and ``check_hessian_bound`` take a
``lipschitz_scale`` that multiplies the smoothness constant; shrinking it
enough must flip them, which guards against the checks passing vacuously.
"""
from __future__ import annotations

import functools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import OracleBudgetError
from .estimators import (
    BLOCK_ROWS,
    BaselineKind,
    EstimatorKind,
    TermFold,
    error_bound,
    running_sums,
    variance_bound,
)
from .mdp import sample_trajectory
from .policies import GaussianPolicy, PolynomialFeatures, SoftmaxPolicy, TabularFeatures
from .oracle import (
    DEFAULT_PATH_BUDGET,
    enumerated_gradient,
    enumerated_performance,
    exact_gradient,
    exact_hessian,
    exact_performance,
    expected_gradient_estimate,
    fd_gradient,
    grid_maximize,
)
from .rng import substream
from .runlog import read_run_csv, write_run_csv
from .safe_updates import (
    RunLimits,
    certified_improvement,
    certified_step,
    exact_improvement_bound,
    lipschitz_constant,
    optimal_step_exact,
    required_batch_size,
    spg_run,
    stochastic_improvement_bound,
)
from .testbeds import binned_gaussian_instance, chain_instance, lqg_instance, two_state_instance


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    tolerance: str
    observed: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _check(name: str, tolerance: str):
    """Decorator for a check returning (ok, observed): the wrapped check
    returns its ``CheckResult``, a skip when the enumeration budget is
    exceeded."""

    def decorate(fn):
        @functools.wraps(fn)
        def check(*args, **kwargs) -> CheckResult:
            try:
                ok, observed = fn(*args, **kwargs)
            except OracleBudgetError:
                return CheckResult(name, "skip", tolerance, "enumeration budget exceeded")
            return CheckResult(name, "pass" if ok else "fail", tolerance, observed)

        return check

    return decorate


def _random_theta(rng: np.random.Generator, dim: int, scale: float = 0.5) -> np.ndarray:
    return scale * rng.standard_normal(dim)


def _random_thetas(rng: np.random.Generator, dim: int, n_points: int) -> np.ndarray:
    """(n_points, dim): ``n_points`` draws of ``_random_theta``, in order."""
    return np.array([_random_theta(rng, dim) for _ in range(n_points)]).reshape(n_points, dim)


def _row_dots(a: np.ndarray, b: np.ndarray) -> "list[float]":
    """``np.dot`` of each row of ``a`` (n, m) with the same row of ``b``."""
    return (a[:, None, :] @ b[:, :, None]).ravel().tolist()


@_check("dp-enumeration-consistency", "<= 1e-10")
def check_dp_enumeration(budget: int, seed: int):
    inst = two_state_instance()
    mdp, policy = inst.mdp, inst.oracle_policy
    thetas = _random_thetas(substream(seed, 1), policy.dim, 10)
    j_dp = exact_performance(mdp, policy, thetas).tolist()
    grads = exact_gradient(mdp, policy, thetas)
    worst = worst_grad = 0.0
    for theta, j, grad in zip(thetas, j_dp, grads):
        worst = max(worst, abs(j - enumerated_performance(mdp, policy, theta, budget)))
        grad_enum = enumerated_gradient(mdp, policy, theta, budget)
        worst_grad = max(worst_grad, float(np.max(np.abs(grad - grad_enum))))
    observed = f"max |J_dp - J_enum| = {worst:.3e}; max |grad_fwd - grad_enum| = {worst_grad:.3e}"
    return max(worst, worst_grad) <= 1e-10, observed


@_check("gradient-fd-crosscheck", "rel <= 1e-6")
def check_gradient_crosscheck(seed: int):
    inst = two_state_instance()
    thetas = _random_thetas(substream(seed, 2), inst.policy.dim, 20)
    grads = exact_gradient(inst.mdp, inst.oracle_policy, thetas)
    fds = fd_gradient(inst.mdp, inst.oracle_policy, thetas)
    gaps = grads - fds
    worst = 0.0
    # each norm as np.linalg.norm gives it: the square root of the row's np.dot
    for gap2, fd2 in zip(_row_dots(gaps, gaps), _row_dots(fds, fds)):
        worst = max(worst, math.sqrt(gap2) / max(math.sqrt(fd2), 1e-12))
    return worst <= 1e-6, f"max relative gap = {worst:.3e}"


@_check("estimator-unbiasedness", "<= 1e-10 per component")
def check_estimator_unbiasedness(budget: int, seed: int):
    inst = two_state_instance()
    theta = _random_theta(substream(seed, 3), inst.policy.dim)
    exact = exact_gradient(inst.mdp, inst.oracle_policy, theta)
    worst = 0.0
    for kind in EstimatorKind:
        mean = expected_gradient_estimate(
            inst.mdp, inst.oracle_policy, theta, kind, BaselineKind.ZERO, budget
        )
        worst = max(worst, float(np.max(np.abs(mean - exact))))
    return worst <= 1e-10, f"max component gap = {worst:.3e}"


@_check("baseline-mean-invariance", "<= 1e-10 per component")
def check_baseline_invariance(budget: int, seed: int):
    inst = two_state_instance()
    theta = _random_theta(substream(seed, 4), inst.policy.dim)
    worst = 0.0
    for kind in EstimatorKind:
        zero = expected_gradient_estimate(
            inst.mdp, inst.oracle_policy, theta, kind, BaselineKind.ZERO, budget
        )
        peters = expected_gradient_estimate(
            inst.mdp, inst.oracle_policy, theta, kind, BaselineKind.PETERS, budget
        )
        worst = max(worst, float(np.max(np.abs(zero - peters))))
    return worst <= 1e-10, f"max component gap = {worst:.3e}"


@_check("quadratic-bound", "deviation <= (L/2)||dtheta||^2 + 1e-9")
def check_quadratic_bound(seed: int, lipschitz_scale: float, n_points: int = 100):
    inst = two_state_instance()
    lip = lipschitz_constant(inst.policy.smoothing_constants(), inst.mdp.spec)
    l_used = lip * lipschitz_scale
    dim, rng = inst.policy.dim, substream(seed, 5)
    thetas, steps = [], []
    for _ in range(n_points):
        thetas.append(_random_theta(rng, dim))
        step = rng.standard_normal(dim)
        step *= rng.uniform(0.05, 1.0) / np.linalg.norm(step)
        steps.append(step)
    thetas, steps = np.reshape(thetas, (n_points, dim)), np.reshape(steps, (n_points, dim))
    grads = exact_gradient(inst.mdp, inst.oracle_policy, thetas)
    stacked = np.concatenate([thetas, thetas + steps])
    j = exact_performance(inst.mdp, inst.oracle_policy, stacked).tolist()
    along, squares = _row_dots(steps, grads), _row_dots(steps, steps)
    worst = -np.inf
    for j_theta, j_step, d, sq in zip(j[:n_points], j[n_points:], along, squares):
        worst = max(worst, abs(j_step - j_theta - d) - (l_used / 2.0) * sq)
    return worst <= 1e-9, f"max excess = {worst:.3e}"


@_check("hessian-spectral-bound", "||H||_2 <= L (1 + 1e-6)")
def check_hessian_bound(seed: int, lipschitz_scale: float, n_points: int = 10):
    worst_ratio = 0.0
    for idx, inst in enumerate((two_state_instance(), binned_gaussian_instance())):
        lip = lipschitz_constant(inst.policy.smoothing_constants(), inst.mdp.spec)
        l_used = lip * lipschitz_scale
        thetas = _random_thetas(substream(seed, 6, idx), inst.policy.dim, n_points)
        hess = exact_hessian(inst.mdp, inst.oracle_policy, thetas)
        for norm in np.linalg.norm(hess, 2, axis=(1, 2)).tolist():
            worst_ratio = max(worst_ratio, norm / l_used)
    return worst_ratio <= 1.0 + 1e-6, f"max ||H||/L = {worst_ratio:.3e}"


@_check("exact-step-guarantee", "improvement >= ||grad||^2/(2L) - 1e-9")
def check_exact_step(seed: int, n_points: int = 50):
    inst = two_state_instance()
    lip = lipschitz_constant(inst.policy.smoothing_constants(), inst.mdp.spec)
    alpha = optimal_step_exact(lip)
    thetas = _random_thetas(substream(seed, 7), inst.policy.dim, n_points)
    grads = exact_gradient(inst.mdp, inst.oracle_policy, thetas)
    stacked = np.concatenate([thetas, thetas + alpha * grads])
    j = exact_performance(inst.mdp, inst.oracle_policy, stacked).tolist()
    worst = np.inf
    for j_theta, j_step, sq in zip(j[:n_points], j[n_points:], _row_dots(grads, grads)):
        worst = min(worst, j_step - j_theta - sq / (2.0 * lip))
    return worst >= -1e-9, f"min margin = {worst:.3e}"


@_check("step-size-grid-optimality", "closed form within 1% of grid value")
def check_step_grid():
    lip, grad_norm = 2.0, 1.0
    alpha_star = optimal_step_exact(lip)
    best = grad_norm**2 / (2.0 * lip)
    _, _, grid_val = grid_maximize(
        lambda a: exact_improvement_bound(a, grad_norm, lip), (0.0, 3.0 / lip)
    )
    gap_exact = abs(grid_val - best) / best

    eps, n = 1.0, 16.0
    adaptive_best = (grad_norm - eps / math.sqrt(n)) ** 2 / (2.0 * lip)
    _, _, grid_adaptive = grid_maximize(
        lambda a: stochastic_improvement_bound(a, grad_norm, eps, n, lip),
        (0.0, 3.0 / lip),
    )
    gap_adaptive = abs(grid_adaptive - adaptive_best) / adaptive_best
    worst = max(gap_exact, gap_adaptive)
    return worst <= 0.01 and abs(alpha_star - 0.5) < 1e-12, f"max value gap = {worst:.3e}"


@_check("joint-step-batch-grid", "closed form within 1% of grid; kept branch wins")
def check_joint_grid():
    lip, eps, grad_norm = 2.0, 10.0, 2.0
    alpha, batch = certified_step(lip), required_batch_size(grad_norm, eps)
    upsilon_star = grad_norm**4 / (32.0 * lip * eps**2)
    upsilon_rejected = grad_norm**4 / (54.0 * lip * eps**2)
    _, _, grid_val = grid_maximize(
        lambda a, n: stochastic_improvement_bound(a, grad_norm, eps, n, lip) / n,
        (0.0, 1.0 / lip),
        (1.0, 10.0 * batch),
    )
    gap = abs(grid_val - upsilon_star) / upsilon_star
    # the rejected stationary point of the averaged branch of the bound
    rejected_alpha, rejected_n = 1.0 / (3.0 * lip), 3.0 * eps**2 / grad_norm**2
    second_branch = (
        rejected_alpha / 2.0 * (grad_norm**2 - eps**2 / rejected_n)
        - rejected_alpha**2 * lip * grad_norm**2 / 2.0
    ) / rejected_n
    rejected_identity = abs(second_branch - upsilon_rejected) / upsilon_rejected
    # the certified guarantee is the stochastic bound at the rule's step and batch
    guarantee = stochastic_improvement_bound(alpha, grad_norm, eps, 4.0 * eps**2 / grad_norm**2, lip)
    ok = (
        gap <= 0.01
        and rejected_identity <= 1e-12
        and upsilon_rejected < upsilon_star
        and alpha == 1.0 / (2.0 * lip)
        and batch == 100
        and abs(certified_improvement(grad_norm, lip) - guarantee) <= 1e-12
    )
    return ok, f"value gap = {gap:.3e}"


@_check("constants-closed-forms", "generic vs per-class formula, rel <= 1e-12")
def check_constants_closed_forms(seed: int):
    rng = substream(seed, 8)
    worst = 0.0
    for _ in range(50):
        bound = rng.uniform(0.1, 3.0)
        gamma = rng.uniform(0.05, 0.95)
        r = rng.uniform(0.1, 5.0)
        sigma = rng.uniform(0.1, 2.0)
        tau = rng.uniform(0.1, 2.0)
        spec_like = type("S", (), {"gamma": gamma, "r_max": r})
        gauss = lipschitz_constant(
            GaussianPolicy(PolynomialFeatures(1), bound, sigma).smoothing_constants(), spec_like
        )
        gauss_table = (
            2.0 * bound**2 * r / (sigma**2 * (1 - gamma) ** 2)
            * (1.0 + 2.0 * gamma / (math.pi * (1.0 - gamma)))
        )
        softmax = SoftmaxPolicy(TabularFeatures(1, 2), bound, tau, n_actions=2, n_states=1)
        soft = lipschitz_constant(softmax.smoothing_constants(), spec_like)
        soft_table = (
            2.0 * bound**2 * r / (tau**2 * (1 - gamma) ** 2)
            * (3.0 + 4.0 * gamma / (1.0 - gamma))
        )
        worst = max(worst, abs(gauss - gauss_table) / gauss_table, abs(soft - soft_table) / soft_table)
    return worst <= 1e-12, f"max relative gap = {worst:.3e}"


def _sampled_estimates(env, policy, theta: np.ndarray, rng, n: int, chunk: int, kinds):
    """Per-trajectory zero-baseline estimates of the first ``n`` rollouts
    of ``rng`` under the policy at theta, one chunk of at most ``chunk``
    trajectories at a time, in row order: yields kind -> (rows, m) per chunk.

    Each trajectory is one ``sample_trajectory`` call; a chunk's rewards are
    stacked, its scores taken in one ``policy.actor(theta).score`` call and
    its estimates by one ``TermFold.feed`` per kind.  Yields None,
    and stops, at the first chunk with a trajectory that breaks the
    contract the bounds assume: exactly ``horizon`` steps and every
    |reward| <= r_max.
    """
    spec = env.spec
    actor = policy.actor(theta)
    for first in range(0, n, chunk):
        trajs = [sample_trajectory(env, policy, theta, rng) for _ in range(min(chunk, n - first))]
        # np.stack needs equal lengths, so the horizon is checked first
        if any(len(t.rewards) != spec.horizon for t in trajs) or not (
            np.max(np.abs(rewards := np.stack([t.rewards for t in trajs]))) <= spec.r_max + 1e-12
        ):
            yield None
            return
        scores = actor.score(np.stack([t.states for t in trajs]), np.stack([t.actions for t in trajs]))
        yield {kind: TermFold(kind, spec.gamma, spec.horizon).feed(rewards, scores).g for kind in kinds}


def variance_setups() -> "dict[str, tuple]":
    """Label -> (env, policy, theta) for the empirical variance criterion."""
    env, policy = lqg_instance()
    chain = chain_instance()
    return {
        "gaussian-lqg": (env, policy, np.array([0.5])),
        "softmax-chain": (chain.env, chain.policy, np.zeros(chain.policy.dim)),
    }


def _check_count(count, least: int, name: str) -> None:
    """Refuse a sample count that is not an integer >= ``least``."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {count!r}")


def variance_ratios(setup: tuple, seed: int, n_samples: int, *key: int) -> "dict | None":
    """Single-trajectory trace variance over nu^2, per estimator kind.

    Trajectory i is the i-th rollout of the one stream
    ``substream(seed, *key)``, in chunks of ``BLOCK_ROWS``.  Returns None
    when a trajectory breaks the horizon or r_max contract.  A variance
    needs two samples: one alone has variance 0 and would pass vacuously.
    """
    _check_count(n_samples, 2, "n_samples")
    env, policy, theta = setup
    sums = {kind: np.zeros(policy.dim) for kind in EstimatorKind}
    sq_sums = {kind: 0.0 for kind in EstimatorKind}
    rng = substream(seed, *key)
    for estimates in _sampled_estimates(env, policy, theta, rng, n_samples, BLOCK_ROWS, EstimatorKind):
        if estimates is None:
            return None
        for kind, g in estimates.items():
            sums[kind] = running_sums(sums[kind], g)[-1]
            sq_sums[kind] = float(running_sums(sq_sums[kind], (g * g).sum(axis=1))[-1])
    kappa = policy.smoothing_constants().kappa
    ratios = {}
    for kind in EstimatorKind:
        mean = sums[kind] / n_samples
        trace_var = sq_sums[kind] / n_samples - float(np.dot(mean, mean))
        ratios[kind] = trace_var / variance_bound(kind, env.spec, kappa).nu_squared
    return ratios


@_check("variance-bound-empirical", "trace variance <= nu^2")
def check_variance_bound(seed: int, n_samples: int):
    worst_ratio = 0.0
    for idx, setup in enumerate(variance_setups().values()):
        ratios = variance_ratios(setup, seed, n_samples, 9, idx)
        if ratios is None:
            return False, "a trajectory breaks the horizon or r_max contract"
        worst_ratio = max(worst_ratio, *ratios.values())
    return worst_ratio <= 1.0, f"max variance/nu^2 = {worst_ratio:.3e}"


def chebyshev_violations(
    seed: int, n_estimates: int, kinds: tuple, *key: int
) -> "dict[tuple, float] | None":
    """Rate of batch-25 estimates farther than eps_delta/sqrt(25) from the exact gradient.

    Estimates are at theta = 0 on the two-state instance; estimate i takes
    trajectories 25i .. 25i+24 of the one stream ``substream(seed, *key)``,
    each feeding every kind, in chunks of whole batches.  Returns the rate
    per (kind, delta) for delta in (0.1, 0.5), or None when a trajectory
    breaks the horizon or r_max contract.
    """
    _check_count(n_estimates, 1, "n_estimates")
    inst = two_state_instance()
    theta = np.zeros(inst.policy.dim)
    batch = 25
    exact = exact_gradient(inst.mdp, inst.oracle_policy, theta)
    kappa = inst.policy.smoothing_constants().kappa
    radius = {
        (kind, delta): error_bound(variance_bound(kind, inst.mdp.spec, kappa), delta)
        / math.sqrt(batch)
        for kind in kinds
        for delta in (0.1, 0.5)
    }
    violations = {pair: 0 for pair in radius}
    rng = substream(seed, *key)
    chunk = batch * (BLOCK_ROWS // batch)
    for estimates in _sampled_estimates(
        inst.env, inst.policy, theta, rng, batch * n_estimates, chunk, kinds
    ):
        if estimates is None:
            return None
        for kind, g in estimates.items():
            for rows in np.split(g, len(g) // batch):
                err = np.linalg.norm(running_sums(0.0, rows)[-1] / batch - exact)
                for delta in (0.1, 0.5):
                    violations[kind, delta] += bool(err > radius[kind, delta])
    return {pair: count / n_estimates for pair, count in violations.items()}


@_check("chebyshev-coverage", "violation rate <= delta")
def check_chebyshev(seed: int, n_estimates: int):
    rates = chebyshev_violations(seed, n_estimates, (EstimatorKind.GPOMDP,), 10)
    if rates is None:
        return False, "a trajectory breaks the horizon or r_max contract"
    worst = max(rate - delta for (_, delta), rate in rates.items())
    return worst <= 0.0, f"max rate-minus-delta = {worst:.3e}"


@_check("run-log-roundtrip", "schema parses; row invariants hold")
def check_runlog_roundtrip(seed: int):
    inst = chain_instance(n_states=2, gamma=0.5, horizon=3, tau=2.0)
    result = spg_run(
        inst.env,
        inst.policy,
        np.zeros(inst.policy.dim),
        n_iterations=3,
        delta=0.9,  # certifies each iteration in about 2.5k-2.9k trajectories
        limits=RunLimits(max_trajectories_per_iteration=3000),
        seed=seed,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.csv")
        write_run_csv(path, result, config_echo={"check": "run-log-roundtrip"})
        parsed = read_run_csv(path)
    ok = len(parsed.records) == len(result.records)
    cum = 0
    for rec, orig in zip(parsed.records, result.records):
        ok = ok and rec == orig
        ok = ok and rec.cum_trajectories >= cum
        cum = rec.cum_trajectories
        if not rec.stalled:
            ok = ok and rec.guaranteed_improvement >= 0.0
    return ok, f"{len(parsed.records)} rows round-tripped"


def run_validation(
    budget: int = DEFAULT_PATH_BUDGET,
    seed: int = 20240,
    mc_samples: int = 20_000,
    chebyshev_estimates: int = 1_000,
) -> "list[CheckResult]":
    """Run every check; returns one result per named check.  Refuses too
    few samples for the two sampled checks before any check runs."""
    _check_count(mc_samples, 2, "mc_samples")
    _check_count(chebyshev_estimates, 1, "chebyshev_estimates")
    return [
        check_dp_enumeration(budget, seed),
        check_gradient_crosscheck(seed),
        check_estimator_unbiasedness(budget, seed),
        check_baseline_invariance(budget, seed),
        check_quadratic_bound(seed, 1.0),
        check_hessian_bound(seed, 1.0),
        check_exact_step(seed),
        check_step_grid(),
        check_joint_grid(),
        check_constants_closed_forms(seed),
        check_variance_bound(seed, mc_samples),
        check_chebyshev(seed, chebyshev_estimates),
        check_runlog_roundtrip(seed),
    ]
