"""Experiment configuration: strict YAML parsing and component construction.

The config file has fixed sections (environment, policy, estimator, safety,
limits, output) plus a top-level seed.  Unknown keys are rejected with
field-level messages: a typo in a meta-parameter must never silently change
what a run certifies.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .errors import ConfigurationError
from .estimators import BaselineKind, EstimatorKind
from .mdp import ChainConfig, EnumerableEnv, Lqg1dConfig, Lqg1dEnv, make_bandit, make_chain
from .policies import (
    ActionIndicatorFeatures,
    GaussianPolicy,
    PolynomialFeatures,
    SoftmaxPolicy,
    TabularFeatures,
)
from .safe_updates import RunLimits


@dataclass
class EnvironmentSection:
    kind: str
    params: dict


@dataclass
class PolicySection:
    kind: str
    params: dict


@dataclass
class ExperimentConfig:
    environment: EnvironmentSection
    policy: PolicySection
    estimator_kind: EstimatorKind
    baseline_kind: BaselineKind
    delta: float
    iterations: int
    limits: RunLimits
    seed: int
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)


@dataclass
class BuiltExperiment:
    env: Any
    policy: Any
    theta0: np.ndarray
    mdp: Any = None  # EnumerableMdp when the environment is enumerable


_SECTION_KEYS = {
    "environment": None,  # depends on kind
    "policy": None,
    "estimator": {"kind", "baseline"},
    "safety": {"delta", "iterations"},
    "limits": {"max_trajectories_per_iteration", "max_total_trajectories"},
    "output": {"directory"},
}
_ENV_KEYS = {
    "chain": {"kind", "gamma", "horizon", "n_states", "slip", "goal_reward", "step_reward"},
    "lqg1d": {
        "kind",
        "gamma",
        "horizon",
        "a_dyn",
        "b_dyn",
        "noise_std",
        "q",
        "c",
        "s_max",
        "r_max",
    },
    "bandit": {"kind", "gamma", "horizon", "arm_rewards"},
}
_POLICY_KEYS = {
    "softmax": {"kind", "tau", "features", "feature_bound", "theta0"},
    "gaussian": {"kind", "sigma", "features", "degree", "scale", "feature_bound", "theta0"},
}


def _fail(path: str, message: str) -> None:
    raise ConfigurationError(f"{path}: {message}")


def _section(data: dict, name: str) -> dict:
    if name not in data:
        _fail(name, "missing section")
    value = data[name]
    if not isinstance(value, dict):
        _fail(name, f"expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(section: dict, path: str, allowed: set) -> None:
    unknown = set(section) - allowed
    if unknown:
        _fail(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _get(section: dict, path: str, key: str, types, default=None, required=False):
    if key not in section:
        if required:
            _fail(f"{path}.{key}", "missing required key")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, types):
        _fail(f"{path}.{key}", f"expected {types}, got {value!r}")
    return value


def _to_float(value, path: str) -> float:
    """``float(value)``; failing at ``path`` unless it is finite and in float range."""
    try:
        number = float(value)
    except OverflowError:
        _fail(path, f"must fit in a float, got {reprlib.repr(value)}")
    if not math.isfinite(number):
        _fail(path, f"must be finite, got {value!r}")
    return number


def _float(section: dict, path: str, key: str, default=None, required=False) -> float:
    """The number at ``path.key`` as a finite float."""
    value = _get(section, path, key, (int, float), default, required)
    return _to_float(value, f"{path}.{key}")


def _numbers(values: list, path: str) -> "list[float]":
    """The entries of a list as floats; each must be a finite, non-bool number."""
    numbers = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, f"entries must be numbers, got {value!r}")
        numbers.append(_to_float(value, path))
    return numbers


def check_seed(value) -> int:
    """The run seed, from the config file or a command-line override: an
    unsigned 64-bit integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        _fail("seed", f"expected {int}, got {value!r}")
    if not 0 <= value <= 2**64 - 1:
        _fail("seed", f"must be an unsigned 64-bit integer, got {value}")
    return value


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    top_allowed = set(_SECTION_KEYS) | {"seed"}
    unknown = set(data) - top_allowed
    if unknown:
        _fail(sorted(unknown)[0], "unknown top-level key")

    env_sec = _section(data, "environment")
    env_kind = _get(env_sec, "environment", "kind", str, required=True)
    if env_kind not in _ENV_KEYS:
        _fail("environment.kind", f"unknown environment {env_kind!r}")
    _check_keys(env_sec, "environment", _ENV_KEYS[env_kind])

    pol_sec = _section(data, "policy")
    pol_kind = _get(pol_sec, "policy", "kind", str, required=True)
    if pol_kind not in _POLICY_KEYS:
        _fail("policy.kind", f"unknown policy {pol_kind!r}")
    _check_keys(pol_sec, "policy", _POLICY_KEYS[pol_kind])
    if env_kind == "lqg1d" and pol_kind != "gaussian":
        _fail("policy.kind", "continuous-action environments need the gaussian policy")
    if env_kind in ("chain", "bandit") and pol_kind != "softmax":
        _fail("policy.kind", "discrete environments need the softmax policy")

    est_sec = _section(data, "estimator")
    _check_keys(est_sec, "estimator", _SECTION_KEYS["estimator"])
    est_kind = _get(est_sec, "estimator", "kind", str, default="gpomdp")
    try:
        estimator_kind = EstimatorKind(est_kind)
    except ValueError:
        _fail("estimator.kind", f"unknown estimator {est_kind!r}")
    base_kind = _get(est_sec, "estimator", "baseline", str, default="zero")
    try:
        baseline_kind = BaselineKind(base_kind)
    except ValueError:
        _fail("estimator.baseline", f"unknown baseline {base_kind!r}")

    safety = _section(data, "safety")
    _check_keys(safety, "safety", _SECTION_KEYS["safety"])
    delta = _float(safety, "safety", "delta", required=True)
    if not 0.0 < delta < 1.0:
        _fail("safety.delta", f"must be in (0, 1), got {delta}")
    iterations = _get(safety, "safety", "iterations", int, required=True)
    if iterations < 1:
        _fail("safety.iterations", f"must be >= 1, got {iterations}")

    limits_sec = data.get("limits", {})
    if not isinstance(limits_sec, dict):
        _fail("limits", "expected a mapping")
    _check_keys(limits_sec, "limits", _SECTION_KEYS["limits"])
    # keys left out take the RunLimits defaults
    given = {key: _get(limits_sec, "limits", key, int) for key in limits_sec}
    try:
        limits = RunLimits(**given)
    except ConfigurationError as exc:
        _fail("limits", str(exc))

    output_sec = data.get("output", {})
    if not isinstance(output_sec, dict):
        _fail("output", "expected a mapping")
    _check_keys(output_sec, "output", _SECTION_KEYS["output"])
    output_dir = _get(output_sec, "output", "directory", str, default="runs")

    return ExperimentConfig(
        environment=EnvironmentSection(kind=env_kind, params=dict(env_sec)),
        policy=PolicySection(kind=pol_kind, params=dict(pol_sec)),
        estimator_kind=estimator_kind,
        baseline_kind=baseline_kind,
        delta=delta,
        iterations=iterations,
        limits=limits,
        seed=check_seed(data.get("seed", 0)),
        output_dir=output_dir,
        raw=data,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # libyaml's loader when PyYAML was built with it; the same dicts, ~10x faster
            data = yaml.load(handle, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: not valid YAML ({exc})") from exc
    if data is None:
        raise ConfigurationError(f"{path}: empty config")
    return parse_config(data)


def _build_environment(config: ExperimentConfig):
    p = config.environment.params
    kind = config.environment.kind
    gamma = _float(p, "environment", "gamma", default=0.9)
    horizon = _get(p, "environment", "horizon", int, default=10)
    if kind == "chain":
        mdp = make_chain(
            ChainConfig(
                n_states=_get(p, "environment", "n_states", int, required=True),
                slip=_float(p, "environment", "slip", default=0.0),
                goal_reward=_float(p, "environment", "goal_reward", default=1.0),
                step_reward=_float(p, "environment", "step_reward", default=0.0),
                gamma=gamma,
                horizon=horizon,
            )
        )
        return EnumerableEnv(mdp), mdp
    if kind == "bandit":
        arms = _get(p, "environment", "arm_rewards", list, required=True)
        mdp = make_bandit(_numbers(arms, "environment.arm_rewards"), gamma=gamma, horizon=horizon)
        return EnumerableEnv(mdp), mdp
    env = Lqg1dEnv(
        Lqg1dConfig(
            gamma=gamma,
            horizon=horizon,
            a_dyn=_float(p, "environment", "a_dyn", default=1.0),
            b_dyn=_float(p, "environment", "b_dyn", default=1.0),
            noise_std=_float(p, "environment", "noise_std", default=0.2),
            q=_float(p, "environment", "q", default=0.5),
            c=_float(p, "environment", "c", default=0.5),
            s_max=_float(p, "environment", "s_max", default=1.0),
            r_max=_float(p, "environment", "r_max", default=1.0),
        )
    )
    return env, None


def _build_policy(config: ExperimentConfig, mdp):
    p = config.policy.params
    bound = _float(p, "policy", "feature_bound", default=1.0)
    if config.policy.kind == "softmax":
        n_actions = mdp.n_actions
        family = _get(p, "policy", "features", str, default="tabular")
        if family == "tabular":
            features = TabularFeatures(mdp.n_states, n_actions)
        elif family == "action_indicator":
            features = ActionIndicatorFeatures(active=0)
        else:
            _fail("policy.features", f"unknown feature family {family!r}")
        tau = _float(p, "policy", "tau", default=1.0)
        return SoftmaxPolicy(features, feature_bound=bound, tau=tau, n_actions=n_actions)
    family = _get(p, "policy", "features", str, default="polynomial")
    if family != "polynomial":
        _fail("policy.features", f"unknown feature family {family!r}")
    features = PolynomialFeatures(
        degree=_get(p, "policy", "degree", int, default=1),
        scale=_float(p, "policy", "scale", default=1.0),
    )
    sigma = _float(p, "policy", "sigma", required=True)
    return GaussianPolicy(features, feature_bound=bound, sigma=sigma)


def build_experiment(config: ExperimentConfig) -> BuiltExperiment:
    """Construct the environment, policy and initial parameters from a config."""
    env, mdp = _build_environment(config)
    policy = _build_policy(config, mdp)
    theta0_raw = config.policy.params.get("theta0")
    if theta0_raw is None:
        theta0 = np.zeros(policy.dim)
    else:
        if not isinstance(theta0_raw, list):
            _fail("policy.theta0", "expected a list of numbers")
        theta0 = np.asarray(_numbers(theta0_raw, "policy.theta0"), dtype=float)
        if theta0.shape != (policy.dim,):
            _fail(
                "policy.theta0",
                f"expected {policy.dim} entries for this policy, got {theta0.size}",
            )
    return BuiltExperiment(env=env, policy=policy, theta0=theta0, mdp=mdp)
