import os

import numpy as np
import pytest
import yaml

from spgrad.cli import EXIT_CONFIG, EXIT_OK, EXIT_SKIPPED, main
from spgrad.config import load_config, parse_config, build_experiment
from spgrad.errors import ConfigurationError
from spgrad.mdp import MdpSpec
from spgrad.policies import SoftmaxPolicy, TabularFeatures
from spgrad.runlog import read_run_csv
from spgrad.validate import check_hessian_bound, check_quadratic_bound, run_validation


def chain_config(out_dir, delta=0.5, seed=7, cap=300):
    return {
        "environment": {"kind": "chain", "n_states": 2, "slip": 0.1, "gamma": 0.5, "horizon": 3},
        "policy": {"kind": "softmax", "tau": 2.0, "features": "tabular", "feature_bound": 1.0},
        "estimator": {"kind": "gpomdp", "baseline": "zero"},
        "safety": {"delta": delta, "iterations": 5},
        "limits": {"max_trajectories_per_iteration": cap, "max_total_trajectories": 100000},
        "output": {"directory": str(out_dir)},
        "seed": seed,
    }


def write_config(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, chain_config(tmp_path / "out"))
        config = load_config(path)
        assert config.delta == 0.5
        assert config.iterations == 5
        assert config.seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        data = chain_config(tmp_path)
        data["environment"]["slp"] = 0.1
        with pytest.raises(ConfigurationError, match="environment.slp"):
            parse_config(data)

    def test_unknown_section_rejected(self, tmp_path):
        data = chain_config(tmp_path)
        data["extras"] = {}
        with pytest.raises(ConfigurationError, match="extras"):
            parse_config(data)

    def test_bad_delta_rejected(self, tmp_path):
        data = chain_config(tmp_path, delta=1.5)
        with pytest.raises(ConfigurationError, match="safety.delta"):
            parse_config(data)

    def test_policy_environment_pairing(self, tmp_path):
        data = chain_config(tmp_path)
        data["policy"] = {"kind": "gaussian", "sigma": 0.5}
        with pytest.raises(ConfigurationError, match="policy.kind"):
            parse_config(data)

    def test_theta0_length_checked(self, tmp_path):
        data = chain_config(tmp_path)
        data["policy"]["theta0"] = [0.0, 0.0]
        with pytest.raises(ConfigurationError, match="policy.theta0"):
            build_experiment(parse_config(data))

    def test_build_experiment_shapes(self, tmp_path):
        built = build_experiment(parse_config(chain_config(tmp_path)))
        assert built.policy.dim == 4
        assert built.theta0.shape == (4,)
        assert built.mdp.n_states == 2


class TestRunCommand:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, chain_config(out))
        assert main(["run", "--config", path]) == EXIT_OK
        log = read_run_csv(os.path.join(str(out), "run.csv"))
        assert len(log.records) == 5
        assert all(r.batch_size >= 1 for r in log.records)
        assert "config" in log.metadata and "derived" in log.metadata

    def test_invalid_config_exits_without_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, chain_config(out, delta=1.5))
        assert main(["run", "--config", path]) == EXIT_CONFIG
        assert "safety.delta" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(str(out), "run.csv"))

    def test_seed_override_changes_echo(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        path = write_config(tmp_path, chain_config(out_a, seed=7))
        assert main(["run", "--config", path, "--seed", "8", "--out", str(out_b)]) == EXIT_OK
        log = read_run_csv(os.path.join(str(out_b), "run.csv"))
        assert '"seed":8' in log.metadata["config"].replace(" ", "")


class TestConstantsCommand:
    def capture_table(self, capsys, tmp_path, data):
        path = write_config(tmp_path, data)
        assert main(["constants", "--config", path]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        return {line.split()[0]: line.split()[1] for line in lines}

    def test_gaussian_table_values(self, tmp_path, capsys):
        data = {
            "environment": {"kind": "lqg1d", "gamma": 0.9, "horizon": 10, "r_max": 1.0},
            "policy": {"kind": "gaussian", "sigma": 0.5, "feature_bound": 1.0},
            "estimator": {"kind": "gpomdp"},
            "safety": {"delta": 0.1, "iterations": 1},
            "seed": 0,
        }
        table = self.capture_table(capsys, tmp_path, data)
        assert table["psi"] == "1.59577"
        assert table["kappa"] == "4.00000"
        assert table["xi"] == "4.00000"

    def test_softmax_table_values(self, tmp_path, capsys):
        data = {
            "environment": {"kind": "chain", "n_states": 2, "gamma": 0.9, "horizon": 10},
            "policy": {"kind": "softmax", "tau": 2.0, "feature_bound": 1.0},
            "estimator": {"kind": "reinforce"},
            "safety": {"delta": 0.1, "iterations": 1},
            "seed": 0,
        }
        table = self.capture_table(capsys, tmp_path, data)
        assert table["xi"] == "0.500000"
        assert table["eps_delta_reinforce"] == "65.1322"
        assert table["eps_delta_gpomdp"] == "80.7045"


class TestValidateCommand:
    def test_zero_budget_skips_oracle_checks(self):
        results = run_validation(budget=0, mc_samples=500, chebyshev_estimates=50)
        skipped = {r.name for r in results if r.status == "skip"}
        assert "estimator-unbiasedness" in skipped
        assert "quadratic-bound" in skipped
        assert all(r.status != "fail" for r in results)

    def test_zero_budget_exit_code(self, monkeypatch, capsys):
        import spgrad.cli as cli

        monkeypatch.setattr(
            cli,
            "run_validation",
            lambda budget, seed: run_validation(
                budget=budget, seed=seed, mc_samples=500, chebyshev_estimates=50
            ),
        )
        assert main(["validate", "--budget", "0"]) == EXIT_SKIPPED
        out = capsys.readouterr().out
        assert "SKIP" in out

    def test_corrupted_lipschitz_constant_fails_bound_checks(self):
        # The closed-form L dominates the true curvature by about four
        # orders of magnitude on the desk instances, so the sensitivity
        # hook must shrink it well below that slack to flip the checks.
        assert check_quadratic_bound(10**6, 20240, lipschitz_scale=1e-5).status == "fail"
        assert check_hessian_bound(10**6, 20240, lipschitz_scale=1e-5).status == "fail"

    def test_reward_above_r_max_fails_variance_check(self, monkeypatch):
        import spgrad.validate as validate

        class ConstantRewardEnv:
            """One state; every step pays ``reward`` against a declared r_max of 1."""

            spec = MdpSpec(gamma=0.9, r_max=1.0, horizon=2)

            def __init__(self, reward):
                self.reward = reward

            def reset(self, rng):
                return 0

            def step(self, state, action, rng):
                return 0, self.reward

        policy = SoftmaxPolicy(TabularFeatures(1, 2), feature_bound=1.0, tau=1.0, n_actions=2)
        theta = np.zeros(policy.dim)
        assert validate.variance_ratios((ConstantRewardEnv(1.0), policy, theta), 0, 10, 9)
        breach = (ConstantRewardEnv(1.5), policy, theta)
        assert validate.variance_ratios(breach, 0, 10, 9) is None
        monkeypatch.setattr(validate, "variance_setups", lambda: {"breach": breach})
        assert validate.check_variance_bound(0, 10).status == "fail"

    def test_full_suite_passes_via_cli(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out and "SKIP" not in out


class TestSweepCommand:
    def test_two_schedules_produce_logs_and_summary(self, tmp_path):
        out = tmp_path / "sweep"
        path = write_config(tmp_path, chain_config(out, cap=100))
        code = main(
            [
                "sweep",
                "--config",
                path,
                "--schedule",
                "spg",
                "--schedule",
                "fixed:alpha=0.05,n=20",
            ]
        )
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(str(out), "sweep_spg.csv"))
        assert os.path.exists(os.path.join(str(out), "sweep_fixed_a0.05_n20.csv"))
        with open(os.path.join(str(out), "sweep_summary.csv"), encoding="utf-8") as handle:
            summary = handle.read()
        lines = summary.strip().splitlines()
        assert lines[0] == "schedule,final_J_hat,total_trajectories,performance_drops"
        assert len(lines) == 3
        assert lines[1].startswith("spg,")
        assert lines[2].startswith("fixed_a0.05_n20,")
        for line in lines[1:]:
            assert len(line.split(",")) == 4

    def test_empty_schedule_list_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, chain_config(tmp_path / "x"))
        assert main(["sweep", "--config", path]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "schedules",
        [
            pytest.param(["fixed:alpha=oops"], id="malformed"),
            pytest.param(["fixed:alpha=nan,n=20"], id="alpha-nan"),
            pytest.param(["fixed:alpha=inf,n=20"], id="alpha-inf"),
            pytest.param(["spg", "fixed:alpha=0.05,n=400"], id="batch-over-cap"),
            pytest.param(
                ["fixed:alpha=0.1234567,n=20", "fixed:alpha=0.12345678,n=20"],
                id="duplicate-fixed-label",
            ),
            pytest.param(["spg", "spg"], id="duplicate-spg"),
        ],
    )
    def test_bad_schedule_rejected(self, tmp_path, schedules):
        out = tmp_path / "x"
        path = write_config(tmp_path, chain_config(out))
        argv = ["sweep", "--config", path]
        for schedule in schedules:
            argv += ["--schedule", schedule]
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()
