"""Experiment configuration: one table of keys, strict YAML parsing, and
component construction.

The config file has fixed sections (environment, policy, estimator, safety,
limits, output) plus a top-level seed.  ``SCHEMA`` declares every key once,
as ``section -> key -> (type, default)``; environment and policy keys sit
under the section's ``kind``.  :func:`parse_config` checks each section
against it and turns the values into typed dicts, so :func:`load_config`
raises every value error and :func:`build_experiment` only constructs.
Unknown keys, and keys given twice, are rejected with field-level messages:
a typo in a meta-parameter must never silently change what a run certifies.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np
import yaml

from . import rng
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
class ExperimentConfig:
    environment: dict  # the section's typed values, kind included
    policy: dict
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


REQUIRED = object()  # in place of a default: the key must be given


def _dataclass_keys(cls) -> dict:
    """A dataclass's fields as table entries, with the defaults it declares."""
    return {f.name: (type(f.default), f.default) for f in fields(cls)}


# A float key takes an int too; a list holds finite numbers; a theta0 of
# None means zeros of the policy's dimension.
SCHEMA = {
    "environment": {
        "chain": {
            "gamma": (float, 0.9),
            "horizon": (int, 10),
            "n_states": (int, REQUIRED),
            "slip": (float, 0.0),
            "goal_reward": (float, 1.0),
            "step_reward": (float, 0.0),
        },
        "lqg1d": _dataclass_keys(Lqg1dConfig),
        "bandit": {"gamma": (float, 0.9), "horizon": (int, 10), "arm_rewards": (list, REQUIRED)},
    },
    "policy": {
        "softmax": {
            "feature_bound": (float, 1.0),
            "features": (str, "tabular"),
            "tau": (float, 1.0),
            "theta0": (list, None),
        },
        "gaussian": {
            "feature_bound": (float, 1.0),
            "features": (str, "polynomial"),
            "degree": (int, 1),
            "scale": (float, 1.0),
            "sigma": (float, REQUIRED),
            "theta0": (list, None),
        },
    },
    "estimator": {"kind": (str, "gpomdp"), "baseline": (str, "zero")},
    "safety": {"delta": (float, REQUIRED), "iterations": (int, REQUIRED)},
    "limits": _dataclass_keys(RunLimits),
    "output": {"directory": (str, "runs")},
}
_KINDED = ("environment", "policy")  # keyed by their kind
_OPTIONAL = ("limits", "output")  # may be left out; the others are required

# policy kind -> features family -> constructor from (policy values, mdp)
_FEATURES = {
    "softmax": {
        "tabular": lambda p, mdp: TabularFeatures(mdp.n_states, mdp.n_actions),
        "action_indicator": lambda p, mdp: ActionIndicatorFeatures(active=0),
    },
    "gaussian": {"polynomial": lambda p, mdp: PolynomialFeatures(p["degree"], p["scale"])},
}


def _fail(path: str, message: str) -> None:
    raise ConfigurationError(f"{path}: {message}")


def _to_float(value, path: str) -> float:
    """``float(value)``; failing at ``path`` unless it is finite and in float range."""
    try:
        number = float(value)
    except OverflowError:
        _fail(path, f"must fit in a float, got {reprlib.repr(value)}")
    if not math.isfinite(number):
        _fail(path, f"must be finite, got {value!r}")
    return number


def _entry(value, path: str) -> float:
    """A list entry as a float; it must be a finite, non-bool number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"entries must be numbers, got {value!r}")
    return _to_float(value, path)


def _value(section: dict, name: str, key: str, kind_of: type, default):
    """``section[key]`` as ``kind_of``, or its default; failing at ``name.key``."""
    path = f"{name}.{key}"
    if key not in section or (default is None and section[key] is None):
        # left out, or null where null is the default (theta0)
        if default is REQUIRED:
            _fail(path, "missing required key")
        return default
    value = section[key]
    accepted = (int, float) if kind_of is float else kind_of
    if isinstance(value, bool) or not isinstance(value, accepted):
        _fail(path, f"expected {accepted}, got {value!r}")
    if kind_of is float:
        return _to_float(value, path)
    if kind_of is list:
        return [_entry(entry, path) for entry in value]
    return value


def _read_section(data: dict, name: str) -> dict:
    """Section ``name`` checked against ``SCHEMA``: every key of its table,
    typed, with left-out keys at their defaults (and ``kind`` where it has one)."""
    if name in data:
        section = data[name]
    elif name in _OPTIONAL:
        section = {}
    else:
        _fail(name, "missing section")
    if not isinstance(section, dict):
        _fail(name, f"expected a mapping, got {type(section).__name__}")
    table, values = SCHEMA[name], {}
    if name in _KINDED:
        kind = values["kind"] = _value(section, name, "kind", str, REQUIRED)
        if kind not in table:
            _fail(f"{name}.kind", f"unknown {name} {kind!r}")
        table = table[kind]
    unknown = set(section) - set(table) - set(values)
    if unknown:
        _fail(f"{name}.{min(unknown, key=str)}", "unknown key")
    for key, (kind_of, default) in table.items():
        values[key] = _value(section, name, key, kind_of, default)
    return values


def check_seed(value) -> int:
    """The run seed, from the config file or a command-line override, by
    ``rng.check_seed``'s rule, its error named ``seed: `` as a key's is."""
    try:
        return rng.check_seed(value)
    except ConfigurationError as exc:
        _fail("seed", str(exc).removeprefix("seed "))


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    unknown = set(data) - set(SCHEMA) - {"seed"}
    if unknown:
        _fail(min(unknown, key=str), "unknown top-level key")

    environment = _read_section(data, "environment")
    policy = _read_section(data, "policy")
    if environment["kind"] == "lqg1d" and policy["kind"] != "gaussian":
        _fail("policy.kind", "continuous-action environments need the gaussian policy")
    if environment["kind"] in ("chain", "bandit") and policy["kind"] != "softmax":
        _fail("policy.kind", "discrete environments need the softmax policy")
    if policy["features"] not in _FEATURES[policy["kind"]]:
        _fail("policy.features", f"unknown feature family {policy['features']!r}")

    estimator = _read_section(data, "estimator")
    try:
        estimator_kind = EstimatorKind(estimator["kind"])
    except ValueError:
        _fail("estimator.kind", f"unknown estimator {estimator['kind']!r}")
    try:
        baseline_kind = BaselineKind(estimator["baseline"])
    except ValueError:
        _fail("estimator.baseline", f"unknown baseline {estimator['baseline']!r}")

    safety = _read_section(data, "safety")
    if not 0.0 < safety["delta"] < 1.0:
        _fail("safety.delta", f"must be in (0, 1), got {safety['delta']}")
    if safety["iterations"] < 1:
        _fail("safety.iterations", f"must be >= 1, got {safety['iterations']}")

    caps = _read_section(data, "limits")
    try:
        limits = RunLimits(**caps)
    except ConfigurationError as exc:
        _fail("limits", str(exc))
    output = _read_section(data, "output")

    return ExperimentConfig(
        environment=environment,
        policy=policy,
        estimator_kind=estimator_kind,
        baseline_kind=baseline_kind,
        delta=safety["delta"],
        iterations=safety["iterations"],
        limits=limits,
        seed=check_seed(data.get("seed", 0)),
        output_dir=output["directory"],
        raw=data,
    )


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader (libyaml's when PyYAML was built with it; the same dicts,
    ~10x faster) that rejects a key given twice in one mapping, where YAML
    itself would keep the last."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key!r}", key_node.start_mark
                    )
                seen.add(key)
        return super().construct_mapping(node, deep)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.load(handle, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: not valid YAML ({exc})") from exc
    if data is None:
        raise ConfigurationError(f"{path}: empty config")
    return parse_config(data)


def build_experiment(config: ExperimentConfig) -> BuiltExperiment:
    """Construct the environment, policy and initial parameters from a config."""
    kind, mdp = config.environment["kind"], None
    args = {key: value for key, value in config.environment.items() if key != "kind"}
    if kind == "lqg1d":
        env = Lqg1dEnv(Lqg1dConfig(**args))
    else:
        mdp = make_chain(ChainConfig(**args)) if kind == "chain" else make_bandit(**args)
        env = EnumerableEnv(mdp)
    p = config.policy
    features = _FEATURES[p["kind"]][p["features"]](p, mdp)
    if p["kind"] == "softmax":
        policy = SoftmaxPolicy(features, p["feature_bound"], p["tau"], mdp.n_actions, mdp.n_states)
    else:
        policy = GaussianPolicy(features, p["feature_bound"], sigma=p["sigma"])
    theta0 = np.zeros(policy.dim) if p["theta0"] is None else np.asarray(p["theta0"], dtype=float)
    if theta0.shape != (policy.dim,):
        _fail("policy.theta0", f"expected {policy.dim} entries for this policy, got {theta0.size}")
    return BuiltExperiment(env=env, policy=policy, theta0=theta0, mdp=mdp)
