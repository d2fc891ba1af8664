"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Sampling-heavy criteria use counter-derived
streams, so every number here is reproducible.  Criteria 01-07 run the
named checks of ``spgrad.validate`` (the code behind ``spgrad validate``)
at larger sizes and with this module's seed.
"""
import math

import numpy as np
import pytest
import yaml

from spgrad.cli import EXIT_OK, main
from spgrad.estimators import EstimatorKind
from spgrad.oracle import exact_performance
from spgrad.safe_updates import spg_run
from spgrad.validate import (
    DEFAULT_BUDGET,
    chebyshev_violations,
    check_estimator_unbiasedness,
    check_exact_step,
    check_gradient_crosscheck,
    check_hessian_bound,
    check_joint_grid,
    check_quadratic_bound,
    check_step_grid,
    variance_ratios,
    variance_setups,
)

SEED = 77_000


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def report_checks(number: str, *results) -> None:
    report(
        f"{number} " + " + ".join(r.name for r in results),
        all(r.passed for r in results),
        "; ".join(f"{r.observed} (tol {r.tolerance})" for r in results),
    )


def test_01_estimator_unbiasedness():
    # the oracle itself is checked by an independent route: finite differences of the DP value
    report_checks(
        "01",
        check_estimator_unbiasedness(DEFAULT_BUDGET, SEED),
        check_gradient_crosscheck(DEFAULT_BUDGET, SEED),
    )


@pytest.mark.parametrize(
    "label,stream",
    [("gaussian-lqg", 2), ("softmax-chain", 3)],
)
def test_02_variance_bounds(label, stream):
    ratios = variance_ratios(variance_setups()[label], SEED, 100_000, stream)
    assert ratios is not None, "a sampled trajectory breaks the horizon or r_max contract"
    report(
        f"02 variance-bounds[{label}]",
        max(ratios.values()) <= 1.0,
        "variance/nu^2 = "
        + ", ".join(f"{k.value} {v:.3f}" for k, v in ratios.items())
        + " (must be <= 1)",
    )


def test_03_chebyshev_coverage():
    rates = chebyshev_violations(DEFAULT_BUDGET, SEED, 10_000, tuple(EstimatorKind), 4)
    shown = {f"{kind.value}@{delta}": rate for (kind, delta), rate in rates.items()}
    report(
        "03 chebyshev-coverage",
        max(rate - delta for (_, delta), rate in rates.items()) <= 0.0,
        f"violation rates {shown} (each must be <= its delta)",
    )


def test_04_quadratic_bound():
    report_checks("04", check_quadratic_bound(DEFAULT_BUDGET, SEED, 1.0, n_points=200))


def test_05_hessian_spectral_bound():
    # both policy classes: the two-state Softmax and the binned Gaussian
    report_checks("05", check_hessian_bound(DEFAULT_BUDGET, SEED, 1.0, n_points=50))


def test_06_exact_step_guarantee():
    report_checks("06", check_exact_step(DEFAULT_BUDGET, SEED, n_points=100))


def test_07_kkt_optima():
    report_checks("07", check_step_grid(), check_joint_grid())


def test_08_spg_monotonicity(bandit):
    n_seeds, iterations, delta = 20, 20, 0.2
    updates = 0
    violations = 0
    for s in range(n_seeds):
        result = spg_run(
            bandit.env,
            bandit.policy,
            np.zeros(1),
            n_iterations=iterations,
            delta=delta,
            seed=SEED + s,
        )
        for k, record in enumerate(result.records):
            if record.stalled:
                continue
            updates += 1
            before = exact_performance(bandit.mdp, bandit.policy, result.thetas[k])
            after = exact_performance(bandit.mdp, bandit.policy, result.thetas[k + 1])
            if after - before < record.guaranteed_improvement:
                violations += 1
    rate = violations / updates
    ok = updates == n_seeds * iterations and rate <= delta + 0.1
    report(
        "08 spg-monotonicity",
        ok,
        f"{violations}/{updates} updates below the certified bound "
        f"(rate {rate:.4f}, allowed {delta + 0.1:.2f})",
    )


CONSTANTS_CONFIGS = [
    (
        "gaussian-lqg",
        {
            "environment": {"kind": "lqg1d", "gamma": 0.9, "horizon": 10, "r_max": 1.0},
            "policy": {"kind": "gaussian", "sigma": 0.5, "feature_bound": 1.0},
            "estimator": {"kind": "gpomdp"},
            "safety": {"delta": 0.1, "iterations": 1},
            "seed": 0,
        },
        dict(kind="gaussian", bound=1.0, scale=0.5, gamma=0.9, horizon=10, r=1.0, delta=0.1),
    ),
    (
        "softmax-short",
        {
            "environment": {"kind": "chain", "n_states": 2, "gamma": 0.5, "horizon": 5},
            "policy": {"kind": "softmax", "tau": 2.0, "feature_bound": 1.0},
            "estimator": {"kind": "gpomdp"},
            "safety": {"delta": 0.2, "iterations": 1},
            "seed": 0,
        },
        dict(kind="softmax", bound=1.0, scale=2.0, gamma=0.5, horizon=5, r=1.0, delta=0.2),
    ),
    (
        "softmax-long",
        {
            "environment": {"kind": "chain", "n_states": 2, "gamma": 0.9, "horizon": 10},
            "policy": {"kind": "softmax", "tau": 2.0, "feature_bound": 1.0},
            "estimator": {"kind": "reinforce"},
            "safety": {"delta": 0.1, "iterations": 1},
            "seed": 0,
        },
        dict(kind="softmax", bound=1.0, scale=2.0, gamma=0.9, horizon=10, r=1.0, delta=0.1),
    ),
]


def hand_constants(kind, bound, scale, gamma, horizon, r, delta):
    """Independent evaluation of the per-class closed forms."""
    if kind == "gaussian":
        psi = 2.0 * bound / (math.sqrt(2.0 * math.pi) * scale)
        kappa = bound**2 / scale**2
        xi = kappa
        lip = (
            2.0 * bound**2 * r / (scale**2 * (1 - gamma) ** 2)
            * (1.0 + 2.0 * gamma / (math.pi * (1.0 - gamma)))
        )
    else:
        psi = 2.0 * bound / scale
        kappa = 4.0 * bound**2 / scale**2
        xi = 2.0 * bound**2 / scale**2
        lip = (
            2.0 * bound**2 * r / (scale**2 * (1 - gamma) ** 2)
            * (3.0 + 4.0 * gamma / (1.0 - gamma))
        )
    truncation = 1.0 - gamma**horizon
    nu2_reinforce = horizon * kappa * r * r * truncation**2 / (1.0 - gamma) ** 2
    nu2_gpomdp = kappa * r * r * truncation / (1.0 - gamma) ** 3
    return {
        "psi": psi,
        "kappa": kappa,
        "xi": xi,
        "L": lip,
        "nu2_reinforce": nu2_reinforce,
        "nu2_gpomdp": nu2_gpomdp,
        "eps_delta_reinforce": math.sqrt(nu2_reinforce / delta),
        "eps_delta_gpomdp": math.sqrt(nu2_gpomdp / delta),
    }


def test_09_constants_tables(tmp_path, capsys):
    mismatches = []
    for label, config, hand_args in CONSTANTS_CONFIGS:
        path = tmp_path / f"{label}.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["constants", "--config", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        printed = {line.split()[0]: line.split()[1] for line in lines}
        for name, value in hand_constants(**hand_args).items():
            expected = format(value, "#.6g")
            if printed[name] != expected:
                mismatches.append(f"{label}.{name}: printed {printed[name]} != {expected}")
    report(
        "09 constants-tables",
        not mismatches,
        "all three configs reproduce the closed forms to 6 significant digits"
        if not mismatches
        else "; ".join(mismatches),
    )


def test_10_run_csv_determinism(tmp_path, capsys):
    config = {
        "environment": {"kind": "chain", "n_states": 2, "slip": 0.1, "gamma": 0.5, "horizon": 3},
        "policy": {"kind": "softmax", "tau": 2.0, "features": "tabular", "feature_bound": 1.0},
        "estimator": {"kind": "gpomdp", "baseline": "zero"},
        "safety": {"delta": 0.5, "iterations": 5},
        "limits": {"max_trajectories_per_iteration": 300, "max_total_trajectories": 100000},
        "seed": 123,
    }
    path = tmp_path / "determinism.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    contents = []
    for run_dir in ("first", "second"):
        out = tmp_path / run_dir
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        with open(out / "run.csv", "rb") as handle:
            contents.append(handle.read())
    ok = contents[0] == contents[1] and len(contents[0]) > 0
    report(
        "10 run-csv-determinism",
        ok,
        f"two invocations produced byte-identical logs ({len(contents[0])} bytes)",
    )
