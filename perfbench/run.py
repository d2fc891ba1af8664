"""spgrad benchmark: certified-run speed and sample cost, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced for ``--seconds`` seconds and
reports the end-to-end metrics named in BENCHMARK.json.  ``--trace 1`` runs a
fixed number of passes twice, untraced and then traced, checks that both
give byte-identical outputs, and reports the per-layer metrics.  Every run
prints a human-readable report, then one JSON result as its last line, and
writes the result with the machine description (and, when traced, the
spans) under ``.perfbench/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def setup_seconds(workload) -> tuple[float, float]:
    """Median cold set-up time over several fresh interpreters: as measured,
    and at reference speed."""
    from speed import REFERENCE_SECONDS

    command = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(SRC)]
    if workload.config is not None:
        command.append(str(ROOT / workload.config))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        seconds, reference = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_SECONDS / reference)
    return statistics.median(raw), statistics.median(scaled)


def guarded(run, label: str):
    """Run one pass; a failing pass is reported and counted, not fatal."""
    try:
        return run()
    except Exception:  # noqa: BLE001 - the boundary that keeps the run going
        print(f"pass {label} raised:", file=sys.stderr)
        traceback.print_exc()
        return None


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest order statistic with ten values beyond it, and its percentile."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return ordered[-11], 100.0 * (len(values) - 10) / len(values)


def outcome_metrics(passes, workload) -> dict:
    """Sample cost and outcome of the certified runs in ``passes``."""
    if not workload.certified:
        return {}
    trajectories = sum(p.trajectories for p in passes)
    updates = sum(p.updates for p in passes)
    guaranteed = sum(p.guaranteed_sum for p in passes)
    iterations = sum(p.iterations for p in passes)
    audited = sum(p.audited for p in passes)
    out = {
        "traj_per_update": (ratio(trajectories, updates), "traj/update"),
        "traj_per_improvement": (ratio(trajectories, guaranteed), "traj/J"),
        "stall_rate": (ratio(sum(p.stalled for p in passes), iterations), "ratio"),
    }
    if workload.audit_exact:
        out["violation_rate"] = (ratio(sum(p.violations for p in passes), audited), "ratio")
    return out


def measure(workload, seed: int, seconds: float, tmp_dir: Path):
    """Untraced passes, started while less than ``seconds`` have elapsed,
    with the machine's speed probed before and during each pass."""
    from speed import REFERENCE_SECONDS, SpeedProbe
    from workloads import derived_seed, run_pass

    passes, failed = [], 0
    probe = SpeedProbe()
    started = time.perf_counter()
    i = 0
    with probe.running():
        while True:
            pass_seed = derived_seed(seed, workload, i)
            probe.sample()
            result = guarded(lambda: run_pass(ROOT, workload, pass_seed, tmp_dir), str(i))
            i += 1
            if result is None or result.problems:
                failed += 1
                for problem in [] if result is None else result.problems:
                    print(f"pass {i - 1}: {problem}", file=sys.stderr)
            if result is not None:
                passes.append(result)
            if time.perf_counter() - started >= seconds:
                break
    # Each pass's wall time without the probe's own samples, and the same
    # time at reference speed.
    raw, scaled = [], []
    for p in passes:
        reference, probing = probe.window(p.start, p.start + p.wall_s)
        raw.append(p.wall_s - probing)
        scaled.append(raw[-1] * REFERENCE_SECONDS / reference)
    return passes, raw, scaled, statistics.median(probe.durations), i, failed


def end_to_end(workload, seed: int, seconds: float, tmp_dir: Path):
    setup_raw, setup_scaled = setup_seconds(workload)
    passes, raw, scaled, reference, attempted, failed = measure(workload, seed, seconds, tmp_dir)
    if not passes:
        raise SystemExit("perfbench: every pass failed")
    # Times are at reference speed (see speed.py) unless named *_raw, and
    # means over the run's passes, which spread less than medians on a box
    # whose speed drifts for seconds at a time.
    trajectories = sum(p.trajectories for p in passes)
    metrics = {
        "setup_s": (setup_scaled, "s"),
        "wall_s": (sum(scaled) / len(passes), "s"),
        "traj_per_s": (trajectories / sum(scaled), "traj/s"),
        "setup_s_raw": (setup_raw, "s"),
        "wall_s_raw": (sum(raw) / len(passes), "s"),
        "traj_per_s_raw": (trajectories / sum(raw), "traj/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }
    notes = {"passes": len(passes), "trajectories": trajectories, "reference_loop_s": reference}
    if workload.certified:
        updates = sum(p.updates for p in passes)
        run_s = [p.run_s * s / r for p, r, s in zip(passes, raw, scaled)]
        metrics["s_per_update"] = (ratio(sum(run_s), updates), "s/update")
        metrics["run_s_p50"] = (statistics.median(run_s), "s")
        tail_value = tail(run_s)
        if tail_value is not None:
            metrics["run_s_tail"] = (tail_value[0], "s")
            notes["run_s_tail_percentile"] = tail_value[1]
        notes["spg_run_calls"] = len(run_s)
        notes["updates"] = updates
        notes["audited_updates"] = sum(p.audited for p in passes)
        notes["violations"] = sum(p.violations for p in passes)
    metrics.update(outcome_metrics(passes, workload))
    notes["pass_wall_s"] = [p.wall_s for p in passes]
    return metrics, notes, attempted, failed


def per_layer(workload, seed: int, tmp_dir: Path):
    from spans import SPAN_NAMES, CHECK_PREFIX, Tracer
    from speed import reference_speed
    from workloads import derived_seed, run_pass, variance_over_nu2

    var_ratio = 0.0
    if workload.certified:
        var_ratio = variance_over_nu2(ROOT, workload, derived_seed(seed, workload, 1 << 20))
    tracer = Tracer()
    passes, untraced_s, traced_s, attempted, failed = [], 0.0, 0.0, 0, 0
    for i in range(workload.trace_passes):
        pass_seed = derived_seed(seed, workload, i)
        # Reference-loop times before, between and after the pair put both
        # passes at the machine speed of their own moment.
        speeds = [reference_speed()]
        plain = guarded(lambda: run_pass(ROOT, workload, pass_seed, tmp_dir), f"{i}")
        speeds.append(reference_speed())
        with tracer.installed():
            traced = guarded(lambda: run_pass(ROOT, workload, pass_seed, tmp_dir), f"{i} traced")
        speeds.append(reference_speed())
        attempted += 2
        problems = []
        if plain is None or traced is None:
            problems.append("raised")
        else:
            problems += plain.problems + traced.problems
            if plain.output != traced.output:
                problems.append("traced output differs from untraced output")
            passes.append(plain)
            untraced_s += plain.wall_s / (speeds[0] + speeds[1])
            traced_s += traced.wall_s / (speeds[1] + speeds[2])
        for problem in problems:
            print(f"pass {i}: {problem}", file=sys.stderr)
        failed += 2 if problems else 0
    if not passes:
        raise SystemExit("perfbench: every traced pass failed")

    spans = tracer.summary()
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "calls_in_run": 0}
    metrics = {}
    for name in SPAN_NAMES:
        s = spans.get(name, empty)
        metrics[f"{name}.calls"] = (s["calls"], "count")
        metrics[f"{name}.self_s"] = (s["self_s"], "s")
        metrics[f"{name}.us_per_call"] = (1e6 * ratio(s["incl_s"], s["calls"]), "us")
    for name, s in spans.items():
        if name.startswith(CHECK_PREFIX) and s["calls"]:
            metrics[f"{name}.wall_s"] = (s["incl_s"], "s")
    # ratios count the calls made inside spg_run, the certified-run loop
    sampled = spans.get("mdp.sample_trajectory", empty)["calls_in_run"]
    stop_checks = spans.get("safe_updates.required_batch_size", empty)["calls_in_run"]
    steps = spans.get("mdp.step", empty)["calls_in_run"]
    probabilities = spans.get("policies.action_probabilities", empty)["calls_in_run"]
    metrics["policies.action_probabilities.per_step"] = (ratio(probabilities, steps), "ratio")
    metrics["safe_updates.stop_checks_per_traj"] = (ratio(stop_checks, sampled), "ratio")
    metrics["rollout.sampled_per_counted"] = (
        ratio(sampled, tracer.counted_trajectories),
        "ratio",
    )
    metrics["estimators.var_over_nu2"] = (var_ratio, "ratio")
    metrics["trace.overhead"] = (ratio(traced_s, untraced_s), "ratio")
    metrics.update(outcome_metrics(passes, workload))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}-seed{seed}.npz")
    notes = {"traced_passes": len(passes), "span_count": sum(s["calls"] for s in spans.values())}
    return metrics, notes, attempted, failed


def declared_metrics(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spgrad" / "__init__.py").is_file():
        print(f"perfbench: no spgrad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spgrad

    if Path(spgrad.__file__).resolve().parent != (SRC / "spgrad").resolve():
        print(f"perfbench: imported spgrad from {spgrad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    host = machine()
    print(
        f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={host['nproc']} cpu={host['cpu']!r} "
        f"python={host['python']} numpy={host['numpy']}"
    )
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp_dir:
        if args.trace:
            metrics, notes, attempted, failed = per_layer(workload, args.seed, Path(tmp_dir))
        else:
            metrics, notes, attempted, failed = end_to_end(
                workload, args.seed, args.seconds, Path(tmp_dir)
            )

    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<48} {value:>16.6g} {unit}")
    print("  " + " ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in notes.items() if not isinstance(v, list)))

    reported = {}
    for item in declared_metrics(args.trace):
        if item["name"] in metrics:
            value = metrics[item["name"]][0]
        elif args.trace:
            value = 0.0  # a layer this workload never calls
        else:
            print(f"perfbench: end-to-end metric {item['name']} not measured", file=sys.stderr)
            return 1
        reported[item["name"]] = {"value": value, "unit": item["unit"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": host,
        "notes": notes,
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "result": result,
    }
    with open(OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
