"""Command-line harness: run, constants, validate, sweep.

Exit codes: 0 success, 1 validation check failed, 2 configuration error,
3 run error, 4 I/O error, 5 validation skipped checks (none failed).
"""
from __future__ import annotations

import argparse
import copy
import os
import sys

from .config import ExperimentConfig, build_experiment, check_seed, load_config
from .errors import ConfigurationError, NumericError, SpgradError
from .estimators import BaselineKind, EstimatorKind, error_bound, variance_bound
from .oracle import DEFAULT_PATH_BUDGET
from .runlog import write_run_csv
from .safe_updates import MetaParams, check_schedule, lipschitz_constant, spg_run
from .validate import run_validation

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_IO = 4
EXIT_SKIPPED = 5


def _sig6(value: float) -> str:
    return format(float(value), "#.6g")


def _effective_config(args) -> ExperimentConfig:
    config = load_config(args.config)
    raw = copy.deepcopy(config.raw)
    if getattr(args, "seed", None) is not None:
        config.seed = check_seed(args.seed)
        raw["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        config.output_dir = args.out
    # the echo captures what determines the run, not where it is written,
    # so identical experiments produce byte-identical logs anywhere
    raw.pop("output", None)
    config.raw = raw
    return config


def cmd_run(args) -> int:
    config = _effective_config(args)
    built = build_experiment(config)
    result = spg_run(
        built.env,
        built.policy,
        built.theta0,
        n_iterations=config.iterations,
        delta=config.delta,
        estimator_kind=config.estimator_kind,
        limits=config.limits,
        seed=config.seed,
    )
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, "run.csv")
    write_run_csv(path, result, config_echo=config.raw)
    print(path)
    return EXIT_OK


def derived_constants(config: ExperimentConfig) -> "dict[str, float]":
    """Every derived constant of a configuration, for the constants table."""
    built = build_experiment(config)
    sc = built.policy.smoothing_constants()
    spec = built.env.spec
    table: dict[str, float] = {
        "psi": sc.psi,
        "kappa": sc.kappa,
        "xi": sc.xi,
        "L": lipschitz_constant(sc, spec),
    }
    for kind in EstimatorKind:
        vb = variance_bound(kind, spec, sc.kappa)
        table[f"nu2_{kind.value}"] = vb.nu_squared
        table[f"eps_delta_{kind.value}"] = error_bound(vb, config.delta).eps_delta
    return table


def cmd_constants(args) -> int:
    config = _effective_config(args)
    for name, value in derived_constants(config).items():
        print(f"{name:<22}{_sig6(value)}")
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.budget < 0:
        raise ConfigurationError(f"--budget must be a non-negative path count, got {args.budget}")
    check_seed(args.seed)
    results = run_validation(budget=args.budget, seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width + 2}}{r.status.upper():<6} tolerance: {r.tolerance}; observed: {r.observed}")
    statuses = {r.status for r in results}
    if "fail" in statuses:
        return EXIT_CHECK_FAILED
    if "skip" in statuses:
        return EXIT_SKIPPED
    return EXIT_OK


def _parse_schedule(text: str) -> "MetaParams | None":
    """None for the adaptive rule, else the fixed (alpha, N)."""
    if text == "spg":
        return None
    if text.startswith("fixed:"):
        fields = {}
        for part in text[len("fixed:"):].split(","):
            key, sep, value = (side.strip() for side in part.partition("="))
            if not sep:
                raise ConfigurationError(f"schedule {text!r}: expected key=value, got {part!r}")
            if key in fields:
                raise ConfigurationError(f"schedule {text!r}: field {key!r} given twice")
            fields[key] = value
        unknown = set(fields) - {"alpha", "n"}
        if unknown:
            raise ConfigurationError(f"schedule {text!r}: unknown field {sorted(unknown)[0]!r}")
        try:
            alpha = float(fields["alpha"])
            n = int(fields["n"])
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"schedule {text!r}: needs alpha=<float>,n=<int>") from exc
        return MetaParams(alpha=alpha, batch_size=n)
    raise ConfigurationError(f"unknown schedule {text!r}; use 'spg' or 'fixed:alpha=...,n=...'")


def _schedule_label(fixed: "MetaParams | None") -> str:
    if fixed is None:
        return "spg"
    # comma-free so the label can sit in a CSV field
    return f"fixed_a{fixed.alpha:g}_n{fixed.batch_size}"


def cmd_sweep(args) -> int:
    config = _effective_config(args)
    if not args.schedule:
        raise ConfigurationError("sweep needs at least one --schedule")
    # every schedule is checked before any is run, so a bad one writes nothing
    schedules: dict[str, tuple[str, MetaParams | None]] = {}
    for text in args.schedule:
        fixed = _parse_schedule(text)
        check_schedule(fixed, config.limits)
        label = _schedule_label(fixed)
        if label in schedules:
            raise ConfigurationError(
                f"schedules {schedules[label][0]!r} and {text!r} both write sweep_{label}.csv"
            )
        schedules[label] = (text, fixed)
    built = build_experiment(config)
    os.makedirs(config.output_dir, exist_ok=True)
    summary_rows = []
    for label, (text, fixed) in schedules.items():
        result = spg_run(
            built.env,
            built.policy,
            built.theta0,
            n_iterations=config.iterations,
            delta=config.delta,
            estimator_kind=config.estimator_kind,
            limits=config.limits,
            seed=config.seed,
            fixed=fixed,
            baseline=BaselineKind.ZERO if fixed is None else config.baseline_kind,
        )
        echo = copy.deepcopy(config.raw)
        echo["schedule"] = text
        path = os.path.join(config.output_dir, f"sweep_{label}.csv")
        write_run_csv(path, result, config_echo=echo)
        drops = sum(
            1
            for prev, cur in zip(result.records, result.records[1:])
            if cur.j_hat < prev.j_hat
        )
        final_j = result.records[-1].j_hat if result.records else float("nan")
        total = result.records[-1].cum_trajectories if result.records else 0
        summary_rows.append((label, final_j, total, drops))
    summary_path = os.path.join(config.output_dir, "sweep_summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("schedule,final_J_hat,total_trajectories,performance_drops\n")
        for label, final_j, total, drops in summary_rows:
            handle.write(f"{label},{format(final_j, '.17g')},{total},{drops}\n")
    print(summary_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spgrad",
        description="Safe policy gradient runs, derived-constant tables, validation, and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a safe policy gradient run and write run.csv")
    run_p.add_argument("--config", required=True, help="path to the YAML experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.set_defaults(func=cmd_run)

    const_p = sub.add_parser("constants", help="print the derived constants of a config")
    const_p.add_argument("--config", required=True)
    const_p.set_defaults(func=cmd_constants)

    val_p = sub.add_parser("validate", help="run the oracle-backed check suite")
    val_p.add_argument("--budget", type=int, default=DEFAULT_PATH_BUDGET, help="path-enumeration budget")
    val_p.add_argument("--seed", type=int, default=20240)
    val_p.set_defaults(func=cmd_validate)

    sweep_p = sub.add_parser("sweep", help="compare meta-parameter schedules on one config")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument(
        "--schedule",
        action="append",
        default=[],
        help="'spg' or 'fixed:alpha=<float>,n=<int>'; repeatable",
    )
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out", default=None)
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, SpgradError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_RUN


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
