"""The four benchmark workloads, each a sequence of seeded passes.

A pass is one user-level job, driven through spgrad's public functions:

* ``chain`` / ``lqg``: ``load_config`` -> ``build_experiment`` -> ``spg_run``
  -> ``write_run_csv`` on the shipped config, cut to its first certified
  update (one update costs ~30k / ~11k trajectories at the seed commit).
* ``audit``: the same on ``configs/bandit.yaml`` at ``delta = 0.2``, one
  update per run, followed by ``oracle.exact_performance`` before and after
  the update to see whether the certificate held.
* ``validate``: ``validate.run_validation`` at the default enumeration
  budget with a quarter of the CLI's sampling counts, so one pass fits the
  run length.

Pass ``i`` of a run draws everything from a seed derived from the workload
seed and ``i``, so the same workload seed gives the same inputs.
"""
from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spgrad.config as config
import spgrad.estimators as estimators
import spgrad.mdp as mdp
import spgrad.oracle as oracle
import spgrad.rng as rng
import spgrad.runlog as runlog
import spgrad.safe_updates as safe_updates
import spgrad.validate as validate

from spans import counting

# run_validation's sampling counts: a quarter of the CLI defaults
# (mc_samples=20_000, chebyshev_estimates=1_000), which alone take ~38 s.
VALIDATE_MC_SAMPLES = 5_000
VALIDATE_CHEBYSHEV_ESTIMATES = 250

# Trajectories in the side sample behind estimators.var_over_nu2.
VARIANCE_SIDE_SAMPLE = 2_000


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # keeps derived seeds of different workloads apart
    config: str | None  # certified workloads: the shipped config they run
    delta: float | None = None  # override of safety.delta
    audit_exact: bool = False  # compare each update against exact J
    trace_passes: int = 1  # fixed pass count of a traced run

    @property
    def certified(self) -> bool:
        return self.config is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain", 0, "configs/chain.yaml", trace_passes=1),
        Workload("lqg", 1, "configs/lqg.yaml", trace_passes=2),
        Workload("audit", 2, "configs/bandit.yaml", delta=0.2, audit_exact=True, trace_passes=8),
        Workload("validate", 3, None, trace_passes=1),
    )
}


@dataclass
class PassResult:
    start: float  # time.perf_counter() when the pass began
    wall_s: float  # the whole pass, as a user would time it
    run_s: float = 0.0  # inside spg_run (certified workloads)
    trajectories: int = 0
    iterations: int = 0
    updates: int = 0
    stalled: int = 0
    guaranteed_sum: float = 0.0
    audited: int = 0
    violations: int = 0
    output: bytes = b""  # run.csv bytes, or the rendered check results
    problems: list = field(default_factory=list)


def derived_seed(seed: int, workload: Workload, *key: int) -> int:
    """A 63-bit seed for one pass (or side sample) of one workload."""
    seq = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(workload.index, *key))
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def load(root: Path, workload: Workload, seed: int):
    """The workload's config with the pass seed and the benchmark's overrides."""
    cfg = config.load_config(str(root / workload.config))
    cfg.seed = seed
    cfg.iterations = 1
    if workload.delta is not None:
        cfg.delta = workload.delta
    raw = copy.deepcopy(cfg.raw)
    raw.pop("output", None)
    raw["seed"] = seed
    raw["safety"] = {"delta": cfg.delta, "iterations": cfg.iterations}
    cfg.raw = raw
    return cfg


def run_pass(root: Path, workload: Workload, seed: int, out_dir: Path) -> PassResult:
    if workload.certified:
        return _certified_pass(root, workload, seed, out_dir)
    return _validate_pass(seed)


def _certified_pass(root: Path, workload: Workload, seed: int, out_dir: Path) -> PassResult:
    path = out_dir / "run.csv"
    start = time.perf_counter()
    cfg = load(root, workload, seed)
    built = config.build_experiment(cfg)
    run_start = time.perf_counter()
    result = safe_updates.spg_run(
        built.env,
        built.policy,
        built.theta0,
        n_iterations=cfg.iterations,
        delta=cfg.delta,
        estimator_kind=cfg.estimator_kind,
        limits=cfg.limits,
        seed=cfg.seed,
    )
    run_s = time.perf_counter() - run_start
    runlog.write_run_csv(str(path), result, config_echo=cfg.raw)
    gains = []
    if workload.audit_exact:
        for k, record in enumerate(result.records):
            if not record.stalled:
                before = oracle.exact_performance(built.mdp, built.policy, result.thetas[k])
                after = oracle.exact_performance(built.mdp, built.policy, result.thetas[k + 1])
                gains.append((after - before, record.guaranteed_improvement))
    wall_s = time.perf_counter() - start

    records = result.records
    out = PassResult(
        start=start,
        wall_s=wall_s,
        run_s=run_s,
        trajectories=records[-1].cum_trajectories if records else 0,
        iterations=len(records),
        updates=sum(not r.stalled for r in records),
        stalled=sum(r.stalled for r in records),
        guaranteed_sum=sum(r.guaranteed_improvement for r in records),
        audited=len(gains),
        violations=sum(gain < guaranteed for gain, guaranteed in gains),
        output=path.read_bytes(),
    )
    out.problems = check_run_log(path)
    if not records:
        out.problems.append("spg_run returned no iterations")
    return out


def _validate_pass(seed: int) -> PassResult:
    # run_validation samples through these two names; counting them costs a
    # dictionary update per trajectory, far below the trajectory itself.
    with counting(
        [(validate, "sample_trajectory"), (safe_updates, "sample_trajectory")]
    ) as sampled:
        start = time.perf_counter()
        results = validate.run_validation(
            seed=seed,
            mc_samples=VALIDATE_MC_SAMPLES,
            chebyshev_estimates=VALIDATE_CHEBYSHEV_ESTIMATES,
        )
        wall_s = time.perf_counter() - start
    rendered = "".join(f"{r.name}|{r.status}|{r.tolerance}|{r.observed}\n" for r in results)
    return PassResult(
        start=start,
        wall_s=wall_s,
        trajectories=sampled["calls"],
        output=rendered.encode(),
        problems=[f"check {r.name}: {r.status} ({r.observed})" for r in results if not r.passed],
    )


def check_run_log(path: Path) -> list[str]:
    """The paper's rule, row by row, against the log's own logged constants.

    alpha = 1/(2L); a certified row has N >= ceil(4 eps_delta^2 / ||g||^2)
    and guarantees ||g||^2 / (8L); a stalled row guarantees nothing; the
    trajectory count never decreases.
    """
    log = runlog.read_run_csv(str(path))
    derived = dict(item.split("=", 1) for item in log.metadata["derived"].split())
    lip = float(derived["L"])
    eps = float(derived["eps_delta"])
    problems = []
    previous = 0
    for r in log.records:
        row = f"row {r.iteration}"
        if not math.isclose(r.alpha, 1.0 / (2.0 * lip), rel_tol=1e-12):
            problems.append(f"{row}: alpha {r.alpha!r} != 1/(2L)")
        if r.cum_trajectories < previous:
            problems.append(f"{row}: cum_trajectories decreased")
        previous = r.cum_trajectories
        if r.stalled:
            if r.guaranteed_improvement != 0.0:
                problems.append(f"{row}: stalled row guarantees {r.guaranteed_improvement!r}")
            continue
        if not r.grad_norm > 0.0:
            problems.append(f"{row}: certified with gradient norm {r.grad_norm!r}")
            continue
        needed = math.ceil(4.0 * eps**2 / r.grad_norm**2 * (1.0 - 1e-12))
        if r.batch_size < needed:
            problems.append(f"{row}: batch {r.batch_size} < required {needed}")
        expected = r.grad_norm**2 / (8.0 * lip)
        if not math.isclose(r.guaranteed_improvement, expected, rel_tol=1e-12):
            problems.append(f"{row}: guarantee {r.guaranteed_improvement!r} != ||g||^2/(8L)")
    return problems


def variance_over_nu2(root: Path, workload: Workload, seed: int) -> float:
    """Empirical per-trajectory trace variance of the estimator at theta0, over nu^2."""
    cfg = load(root, workload, seed)
    built = config.build_experiment(cfg)
    policy, theta = built.policy, built.theta0
    gamma = built.env.spec.gamma
    vectors = np.empty((VARIANCE_SIDE_SAMPLE, policy.dim))
    for i in range(VARIANCE_SIDE_SAMPLE):
        traj = mdp.sample_trajectory(built.env, policy, theta, rng.substream(seed, i))
        acc = estimators.GradientAccumulator(policy, theta, gamma, cfg.estimator_kind)
        vectors[i] = acc.add_trajectory(traj).finalize().vector
    trace_var = float(np.sum(np.var(vectors, axis=0, ddof=1)))
    kappa = policy.smoothing_constants().kappa
    nu2 = estimators.variance_bound(cfg.estimator_kind, built.env.spec, kappa).nu_squared
    return trace_var / nu2
