import copy
import itertools
import math
import os

import numpy as np
import pytest
import yaml

from spgrad.cli import EXIT_CONFIG, EXIT_OK, EXIT_SKIPPED, main
from spgrad.config import load_config, parse_config, build_experiment
from spgrad.errors import ConfigurationError
from spgrad.estimators import ErrorBound, EstimatorKind, GradientAccumulator, variance_bound
from spgrad.mdp import MdpSpec, sample_trajectory
from spgrad.oracle import exact_gradient
from spgrad.policies import SoftmaxPolicy, TabularFeatures
from spgrad.rng import substream
from spgrad.runlog import read_run_csv
from spgrad.testbeds import two_state_instance
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

    def test_omitted_limits_keep_the_default_caps(self, tmp_path):
        data = chain_config(tmp_path)
        del data["limits"]
        limits = parse_config(data).limits
        assert (limits.max_trajectories_per_iteration, limits.max_total_trajectories) == (
            100_000, 10_000_000
        )
        data["limits"] = {"max_total_trajectories": 5000}
        limits = parse_config(data).limits
        assert (limits.max_trajectories_per_iteration, limits.max_total_trajectories) == (
            100_000, 5000
        )

    def test_unknown_key_rejected(self, tmp_path):
        data = chain_config(tmp_path)
        data["environment"]["slp"] = 0.1
        with pytest.raises(ConfigurationError, match="environment.slp"):
            parse_config(data)

    def test_unknown_keys_of_mixed_types_rejected(self, tmp_path):
        # YAML keys need not be strings; the first unknown one is named, not compared
        data = chain_config(tmp_path)
        data["environment"].update({1: 2, "x": 3})
        with pytest.raises(ConfigurationError, match=r"^environment\.1: unknown key"):
            parse_config(data)
        data = chain_config(tmp_path)
        data.update({2: {}, "extras": {}})
        with pytest.raises(ConfigurationError, match=r"^2: unknown top-level key"):
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

    @pytest.mark.parametrize("seed", ["abc", True, 1.5, -1, 2**64])
    def test_bad_seed_named(self, tmp_path, seed):
        data = chain_config(tmp_path, seed=seed)
        with pytest.raises(ConfigurationError, match=r"^seed: "):
            parse_config(data)

    def test_build_experiment_shapes(self, tmp_path):
        built = build_experiment(parse_config(chain_config(tmp_path)))
        assert built.policy.dim == 4
        assert built.theta0.shape == (4,)
        assert built.mdp.n_states == 2


REQUIRED = "required"
# Every documented key: (section, kind, key, type, default).  kind is None
# for the sections without one; theta0 defaults to zeros of the policy's dim.
DOCUMENTED_KEYS = [
    ("environment", None, "kind", str, REQUIRED),
    ("environment", "chain", "gamma", float, 0.9),
    ("environment", "chain", "horizon", int, 10),
    ("environment", "chain", "n_states", int, REQUIRED),
    ("environment", "chain", "slip", float, 0.0),
    ("environment", "chain", "goal_reward", float, 1.0),
    ("environment", "chain", "step_reward", float, 0.0),
    ("environment", "bandit", "gamma", float, 0.9),
    ("environment", "bandit", "horizon", int, 10),
    ("environment", "bandit", "arm_rewards", list, REQUIRED),
    ("environment", "lqg1d", "gamma", float, 0.9),
    ("environment", "lqg1d", "horizon", int, 10),
    ("environment", "lqg1d", "a_dyn", float, 1.0),
    ("environment", "lqg1d", "b_dyn", float, 1.0),
    ("environment", "lqg1d", "noise_std", float, 0.2),
    ("environment", "lqg1d", "q", float, 0.5),
    ("environment", "lqg1d", "c", float, 0.5),
    ("environment", "lqg1d", "s_max", float, 1.0),
    ("environment", "lqg1d", "r_max", float, 1.0),
    ("policy", None, "kind", str, REQUIRED),
    ("policy", "softmax", "tau", float, 1.0),
    ("policy", "softmax", "features", str, "tabular"),
    ("policy", "softmax", "feature_bound", float, 1.0),
    ("policy", "softmax", "theta0", list, "zeros"),
    ("policy", "gaussian", "sigma", float, REQUIRED),
    ("policy", "gaussian", "features", str, "polynomial"),
    ("policy", "gaussian", "degree", int, 1),
    ("policy", "gaussian", "scale", float, 1.0),
    ("policy", "gaussian", "feature_bound", float, 1.0),
    ("policy", "gaussian", "theta0", list, "zeros"),
    ("estimator", None, "kind", str, "gpomdp"),
    ("estimator", None, "baseline", str, "zero"),
    ("safety", None, "delta", float, REQUIRED),
    ("safety", None, "iterations", int, REQUIRED),
    ("limits", None, "max_trajectories_per_iteration", int, 100_000),
    ("limits", None, "max_total_trajectories", int, 10_000_000),
    ("output", None, "directory", str, "runs"),
]
# a second valid value of each string default, to show the key is read
# (polynomial is the gaussian policy's only feature family)
OTHER_STRINGS = {
    "tabular": "action_indicator",
    "gpomdp": "reinforce",
    "zero": "peters",
    "runs": "elsewhere",
    "polynomial": None,
}
WRONG_TYPE = {int: 1.5, float: "x", str: 5, list: 5}
KEY_PARAMS = [pytest.param(*row, id=f"{row[0]}-{row[1]}-{row[2]}") for row in DOCUMENTED_KEYS]


def keyed_config(kind):
    """A config of every section, on the environment that ``kind`` names or needs."""
    environment = {
        "bandit": {"kind": "bandit", "arm_rewards": [1.0, 0.0]},
        "lqg1d": {"kind": "lqg1d"},
        "gaussian": {"kind": "lqg1d"},
    }.get(kind, {"kind": "chain", "n_states": 3})
    policy = {"kind": "gaussian", "sigma": 0.5} if environment["kind"] == "lqg1d" else {"kind": "softmax"}
    return {
        "environment": environment,
        "policy": policy,
        "estimator": {},
        "safety": {"delta": 0.5, "iterations": 2},
        "limits": {},
        "output": {},
    }


def observed(data):
    """What a config builds to, through build_experiment and the parsed fields."""
    config = parse_config(data)
    built = build_experiment(config)
    policy, mdp = built.policy, built.mdp
    return {
        "config": (config.estimator_kind, config.baseline_kind, config.limits, config.output_dir),
        "spec": built.env.spec,
        "lqg": getattr(built.env, "config", None),
        "mdp": None if mdp is None else (mdp.transition.tolist(), mdp.reward.tolist()),
        "features": type(policy.features).__name__,
        "polynomial": (getattr(policy.features, "degree", None), getattr(policy.features, "scale", None)),
        "dim": policy.dim,
        "policy": (policy.feature_bound, getattr(policy, "tau", None), getattr(policy, "sigma", None)),
        "theta0": built.theta0.tolist(),
    }


class TestDocumentedKeys:
    @pytest.mark.parametrize("section, kind, key, kind_of, default", KEY_PARAMS)
    def test_omitted_key_takes_its_default(self, tmp_path, capsys, section, kind, key, kind_of, default):
        data = keyed_config(kind)
        data[section].pop(key, None)
        if default == REQUIRED:
            path = write_config(tmp_path, data)
            assert main(["constants", "--config", path]) == EXIT_CONFIG
            assert f"{section}.{key}: missing required key" in capsys.readouterr().err
            return
        omitted = observed(data)
        if default == "zeros":
            default = [0.0] * omitted["dim"]
            assert omitted["theta0"] == default
            other = [0.5] * omitted["dim"]
        elif kind_of is str:
            other = OTHER_STRINGS[default]
        elif kind_of is int:
            other = default + 1
        else:
            other = default / 2 if default else 0.5
        explicit = copy.deepcopy(data)
        explicit[section][key] = default
        assert observed(explicit) == omitted
        if other is not None:
            explicit[section][key] = other
            assert observed(explicit) != omitted

    @pytest.mark.parametrize("section, kind, key, kind_of, default", KEY_PARAMS)
    def test_wrong_type_names_the_key(self, tmp_path, capsys, section, kind, key, kind_of, default):
        out = tmp_path / "out"
        data = keyed_config(kind)
        data[section][key] = WRONG_TYPE[kind_of]
        path = write_config(tmp_path, data)
        assert main(["run", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_omitted_seed_is_zero(self):
        data = keyed_config(None)
        assert "seed" not in data and parse_config(data).seed == 0


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

    @pytest.mark.parametrize(
        "text, message",
        [("environment: [\n", "not valid YAML"), ("", "empty config")],
        ids=["malformed", "empty"],
    )
    def test_unreadable_yaml_exits_without_output(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.yaml"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.yaml"]

    @pytest.mark.parametrize(
        "section, key, value",
        [
            pytest.param("environment", "arm_rewards", [1.0, "x"], id="arm-str"),
            pytest.param("environment", "arm_rewards", [1.0, math.inf], id="arm-inf"),
            pytest.param("policy", "theta0", ["a"], id="theta0-str"),
            pytest.param("policy", "theta0", [True, 0, 0, 0], id="theta0-bool"),
            pytest.param("policy", "feature_bound", math.nan, id="bound-nan"),
            pytest.param("policy", "tau", math.nan, id="tau-nan"),
            pytest.param("policy", "sigma", math.inf, id="sigma-inf"),
            # integers too large for a float
            pytest.param("policy", "sigma", 10**400, id="sigma-huge-int"),
            pytest.param("environment", "arm_rewards", [1.0, 10**400], id="arm-huge-int"),
            pytest.param("policy", "theta0", [0, 0, 0, -(10**400)], id="theta0-huge-int"),
        ],
    )
    def test_untyped_value_exits_without_output(self, tmp_path, capsys, section, key, value):
        out = tmp_path / "out"
        data = chain_config(out)
        if key == "arm_rewards":
            data["environment"] = {"kind": "bandit", "arm_rewards": [1.0, 0.0], "horizon": 1}
            data["policy"]["features"] = "action_indicator"
        elif key == "sigma":
            data["environment"] = {"kind": "lqg1d", "horizon": 3}
            data["policy"] = {"kind": "gaussian", "sigma": 0.5}
        data[section][key] = value
        path = write_config(tmp_path, data)
        assert main(["run", "--config", path]) == EXIT_CONFIG
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, line, key",
        [
            pytest.param(
                "seed: 1\nenvironment: {kind: chain, n_states: 2}\nseed: 2\n", 3, "seed", id="top-level"
            ),
            pytest.param(
                "safety:\n  delta: 0.05\n  iterations: 2\n  delta: 0.9\n", 4, "delta", id="nested"
            ),
        ],
    )
    def test_duplicate_key_exits_without_output(self, tmp_path, capsys, text, line, key):
        # YAML would keep the last value, so a run would certify at a delta it was not given
        path = tmp_path / "config.yaml"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and f"duplicate key {key!r}" in err and f"line {line}," in err
        assert os.listdir(tmp_path) == ["config.yaml"]

    def test_seed_override_changes_echo(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        path = write_config(tmp_path, chain_config(out_a, seed=7))
        assert main(["run", "--config", path, "--seed", "8", "--out", str(out_b)]) == EXIT_OK
        log = read_run_csv(os.path.join(str(out_b), "run.csv"))
        assert '"seed":8' in log.metadata["config"].replace(" ", "")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("seed", [-5, 2**64])
    def test_bad_seed_override_exits_without_output(self, tmp_path, capsys, command, seed):
        path = write_config(tmp_path, chain_config(tmp_path / "from-config"))
        argv = [command, "--config", path, "--seed", str(seed), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--schedule", "spg"]
        assert main(argv) == EXIT_CONFIG
        assert "seed: must be an unsigned 64-bit integer" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.yaml"]


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

    @pytest.mark.parametrize(
        "environment, message",
        [
            pytest.param({"kind": "lqg1d", "q": -1.0}, "q must be finite and non-negative", id="q"),
            pytest.param({"kind": "lqg1d", "c": -2.0}, "c must be finite and non-negative", id="c"),
            pytest.param({"kind": "lqg1d", "horizon": 10**400}, "horizon must be in [1, ", id="horizon"),
            pytest.param({"kind": "chain", "n_states": 2**64}, f"n_states = {2**64} ", id="n_states"),
        ],
    )
    def test_out_of_range_environment_names_the_key(self, tmp_path, capsys, environment, message):
        data = keyed_config(environment["kind"])
        data["environment"].update(environment)
        path = write_config(tmp_path, data)
        assert main(["constants", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err


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

    def test_negative_budget_is_a_configuration_error(self, monkeypatch, capsys):
        import spgrad.cli as cli

        def no_checks(budget, seed):
            raise AssertionError("no check may run on a negative budget")

        monkeypatch.setattr(cli, "run_validation", no_checks)
        assert main(["validate", "--budget", "-3"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget" in captured.err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_bad_seed_is_checked_before_any_check(self, monkeypatch, capsys, seed):
        import spgrad.cli as cli

        def no_checks(budget, seed):
            raise AssertionError("no check may run on a bad seed")

        monkeypatch.setattr(cli, "run_validation", no_checks)
        assert main(["validate", "--seed", str(seed)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed: must be an unsigned 64-bit integer" in captured.err

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
            n_states = 1

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

    @pytest.mark.parametrize("seed", [20240, 7])
    def test_runlog_roundtrip_parses_back_a_certified_row(self, monkeypatch, seed):
        import spgrad.validate as validate

        parsed = []

        def reading(path):
            parsed.append(read_run_csv(path))
            return parsed[-1]

        monkeypatch.setattr(validate, "read_run_csv", reading)
        result = validate.check_runlog_roundtrip(seed)
        assert result.passed and result.observed == "3 rows round-tripped"
        # a stalled row guarantees nothing, so only a certified one exercises
        # the guarantee >= 0 invariant
        assert any(not rec.stalled for rec in parsed[0].records)

    def test_full_suite_passes_via_cli(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out and "SKIP" not in out


class TestValidateSampling:
    """The sampled helpers against references that draw every trajectory
    in order from the helper's one stream and score each once per kind with
    ``add_trajectory``, at small sizes and at sizes that cross validate's
    scoring chunk."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        """Counts trajectories drawn through validate's ``sample_trajectory``
        and generators built through its ``substream``."""
        import spgrad.validate as validate

        count = {"calls": 0, "streams": 0}

        def counting(*args):
            count["calls"] += 1
            return sample_trajectory(*args)

        def counting_streams(*args):
            count["streams"] += 1
            return substream(*args)

        monkeypatch.setattr(validate, "sample_trajectory", counting)
        monkeypatch.setattr(validate, "substream", counting_streams)
        return count

    def test_variance_ratios_match_reference(self, sampled):
        import spgrad.validate as validate

        setups = list(validate.variance_setups().values())
        assert validate.BLOCK_ROWS < 600 < 2 * validate.BLOCK_ROWS
        for n, (idx, (env, policy, theta)) in itertools.product((30, 600), enumerate(setups)):
            sums = {kind: np.zeros(policy.dim) for kind in EstimatorKind}
            sq_sums = {kind: 0.0 for kind in EstimatorKind}
            rng = substream(5, 9, idx)
            for _ in range(n):
                traj = sample_trajectory(env, policy, theta, rng)
                for kind in EstimatorKind:
                    acc = GradientAccumulator(policy, theta, env.spec.gamma, kind)
                    g = acc.add_trajectory(traj).finalize().vector
                    sums[kind] += g
                    sq_sums[kind] += float(np.dot(g, g))
            kappa = policy.smoothing_constants().kappa
            expected = {}
            for kind in EstimatorKind:
                mean = sums[kind] / n
                trace_var = sq_sums[kind] / n - float(np.dot(mean, mean))
                expected[kind] = trace_var / variance_bound(kind, env.spec, kappa).nu_squared
            calls, streams = sampled["calls"], sampled["streams"]
            assert validate.variance_ratios((env, policy, theta), 5, n, 9, idx) == expected
            assert sampled["calls"] - calls == n
            assert sampled["streams"] - streams == 1

    def test_chebyshev_violations_match_reference(self, monkeypatch, sampled):
        import spgrad.validate as validate

        # a radius of 3 delta / sqrt(25) puts every rate strictly inside (0, 1)
        monkeypatch.setattr(validate, "error_bound", lambda vb, delta: ErrorBound(delta, 3 * delta))
        inst = two_state_instance()
        theta = np.zeros(inst.policy.dim)
        exact = exact_gradient(inst.mdp, inst.oracle_policy, theta)
        # two full chunks of 20 estimates and one of a single estimate
        kinds, n, gamma = tuple(EstimatorKind), 41, inst.mdp.spec.gamma
        assert validate.BLOCK_ROWS // 25 == 20
        violations = {(kind, delta): 0 for kind in kinds for delta in (0.1, 0.5)}
        rng = substream(5, 10)
        for _ in range(n):
            accs = {kind: GradientAccumulator(inst.policy, theta, gamma, kind) for kind in kinds}
            for _ in range(25):
                traj = sample_trajectory(inst.env, inst.policy, theta, rng)
                for acc in accs.values():
                    acc.add_trajectory(traj)
            for kind, delta in violations:
                err = np.linalg.norm(accs[kind].finalize().vector - exact)
                violations[kind, delta] += err > 3 * delta / math.sqrt(25)
        expected = {pair: count / n for pair, count in violations.items()}
        assert all(0.0 < rate < 1.0 for rate in expected.values())
        assert validate.chebyshev_violations(10**6, 5, n, kinds, 10) == expected
        assert sampled["calls"] == 25 * n
        assert sampled["streams"] == 1

    @pytest.mark.parametrize("rows", [50, 4096])
    def test_block_size_does_not_change_statistics(self, monkeypatch, rows):
        import spgrad.validate as validate

        monkeypatch.setattr(validate, "error_bound", lambda vb, delta: ErrorBound(delta, 3 * delta))
        setups = list(validate.variance_setups().values())
        kinds = tuple(EstimatorKind)

        def statistics():
            # 600 samples and 41 estimates of 25 trajectories cross the default block
            ratios = [validate.variance_ratios(s, 5, 600, 9, i) for i, s in enumerate(setups)]
            return ratios, validate.chebyshev_violations(10**6, 5, 41, kinds, 10)

        default = statistics()
        assert all(0.0 < rate < 1.0 for rate in default[1].values())
        monkeypatch.setattr(validate, "BLOCK_ROWS", rows)
        assert statistics() == default


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
            pytest.param(["fixed:alpha=0.1,alpha=5,n=3"], id="repeated-alpha"),
            pytest.param(["fixed:alpha=0.1,n=3,n=4"], id="repeated-n"),
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
