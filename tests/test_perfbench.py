"""The benchmark reads spgrad by name: its tracer patches attributes and its
workloads call public functions.  A rename or deletion of one of them must
fail here, not only when the benchmark runs."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_and_restores_every_target():
    targets = spans._FUNCTION_TARGETS + spans._METHOD_TARGETS
    originals = [owner.__dict__[attr] for owner, attr, _ in targets]
    with spans.Tracer().installed():
        for (owner, attr, _), original in zip(targets, originals):
            assert owner.__dict__[attr] is not original
    for (owner, attr, _), original in zip(targets, originals):
        assert owner.__dict__[attr] is original


def test_audit_pass_runs_without_problems(tmp_path):
    result = workloads.run_pass(ROOT, workloads.WORKLOADS["audit"], 5, tmp_path)
    assert result.problems == []
    assert result.updates >= 1 and result.trajectories > 0 and result.output


@pytest.mark.parametrize("name", ["chain", "lqg"])
def test_certified_pass_runs_without_problems(tmp_path, name):
    # one certified update; check_run_log finds no problem in its run log
    result = workloads.run_pass(ROOT, workloads.WORKLOADS[name], 5, tmp_path)
    assert result.problems == []
    assert result.updates >= 1 and result.trajectories > 0 and result.output


def test_variance_over_nu2_on_audit():
    ratio = workloads.variance_over_nu2(ROOT, workloads.WORKLOADS["audit"], 5)
    assert 0.0 < ratio < 1.0


def test_validate_pass_counts_every_sampled_trajectory(monkeypatch):
    monkeypatch.setattr(workloads, "VALIDATE_MC_SAMPLES", 40)
    monkeypatch.setattr(workloads, "VALIDATE_CHEBYSHEV_ESTIMATES", 8)
    result = workloads._validate_pass(5)
    assert result.problems == []
    # two variance setups of 40 trajectories, and 8 estimates of 25
    assert result.trajectories == 2 * 40 + 8 * 25


@pytest.mark.parametrize("name", ["chain", "lqg", "bandit"])
def test_setup_probe_on_config(name):
    # the load-and-build path that setup_s times, on each shipped config
    done = subprocess.run(
        [sys.executable, "perfbench/setup_probe.py", "src", f"configs/{name}.yaml"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, reference = map(float, done.stdout.split())
    assert seconds > 0.0 and reference > 0.0
