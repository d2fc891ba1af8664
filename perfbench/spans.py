"""In-memory span tracing around spgrad's public callables.

The tracer replaces functions and methods where their callers look them up
(module globals such as ``spgrad.safe_updates.substream``, class attributes
such as ``SoftmaxPolicy.score``) with pass-through wrappers that record one
span per call: name, start, end and the enclosing span.  Spans live in flat
arrays while the traced code runs and are written out only at the end, so
the traced program does no I/O of its own.  Everything is restored when the
``installed`` context exits.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

import spgrad.config
import spgrad.estimators
import spgrad.mdp
import spgrad.oracle
import spgrad.policies
import spgrad.rng
import spgrad.runlog
import spgrad.safe_updates
import spgrad.validate

# (owner, attribute, span name).  A callable imported by name into several
# modules is patched in each of them.
_FUNCTION_TARGETS = [
    (spgrad.config, "load_config", "config.load_config"),
    (spgrad.config, "build_experiment", "config.build_experiment"),
    (spgrad.safe_updates, "substream", "rng.substream"),
    (spgrad.validate, "substream", "rng.substream"),
    (spgrad.safe_updates, "sample_trajectory", "mdp.sample_trajectory"),
    (spgrad.validate, "sample_trajectory", "mdp.sample_trajectory"),
    (spgrad.safe_updates, "spg_run", "safe_updates.spg_run"),
    (spgrad.validate, "spg_run", "safe_updates.spg_run"),
    (spgrad.safe_updates, "required_batch_size", "safe_updates.required_batch_size"),
    (spgrad.runlog, "write_run_csv", "runlog.write_run_csv"),
    (spgrad.validate, "write_run_csv", "runlog.write_run_csv"),
    (spgrad.oracle, "exact_performance", "oracle.exact_performance"),
    (spgrad.validate, "exact_performance", "oracle.exact_performance"),
    (spgrad.oracle, "exact_gradient", "oracle.exact_gradient"),
    (spgrad.validate, "exact_gradient", "oracle.exact_gradient"),
    (spgrad.oracle, "expected_gradient_estimate", "oracle.expected_gradient_estimate"),
    (spgrad.validate, "expected_gradient_estimate", "oracle.expected_gradient_estimate"),
    (spgrad.oracle, "grid_maximize", "oracle.grid_maximize"),
    (spgrad.validate, "grid_maximize", "oracle.grid_maximize"),
]
_METHOD_TARGETS = [
    (spgrad.mdp.EnumerableEnv, "reset", "mdp.reset"),
    (spgrad.mdp.EnumerableEnv, "step", "mdp.step"),
    (spgrad.mdp.Lqg1dEnv, "reset", "mdp.reset"),
    (spgrad.mdp.Lqg1dEnv, "step", "mdp.step"),
    (spgrad.policies.SoftmaxPolicy, "sample_action", "policies.sample_action"),
    (spgrad.policies.GaussianPolicy, "sample_action", "policies.sample_action"),
    (spgrad.policies.SoftmaxPolicy, "score", "policies.score"),
    (spgrad.policies.GaussianPolicy, "score", "policies.score"),
    (spgrad.policies.BinnedGaussianPolicy, "score", "policies.score"),
    (spgrad.policies.SoftmaxPolicy, "action_probabilities", "policies.action_probabilities"),
    (
        spgrad.policies.BinnedGaussianPolicy,
        "action_probabilities",
        "policies.action_probabilities",
    ),
    (spgrad.estimators.GradientAccumulator, "add_trajectory", "estimators.add_trajectory"),
    (spgrad.estimators.GradientAccumulator, "finalize", "estimators.finalize"),
]

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in _FUNCTION_TARGETS + _METHOD_TARGETS))

CHECK_PREFIX = "validate."


class Tracer:
    """Span store: parallel arrays of name id, start/end (ns) and parent index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._stack: list[int] = []
        self.counted_trajectories = 0  # trajectories spg_run reports in its records

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, rename=None, on_result=None):
        """Pass-through wrapper recording one span per call of ``fn``.

        ``rename(result)`` may give the span a name known only after the call;
        ``on_result(result)`` sees the return value.
        """
        name_id = self.name_id(name)
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(ends)
            parents.append(stack[-1] if stack else -1)
            names.append(name_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if rename is not None:
                names[idx] = self.name_id(rename(result))
            if on_result is not None:
                on_result(result)
            return result

        return functools.wraps(fn)(traced)

    def _count_run(self, result) -> None:
        if result.records:
            self.counted_trajectories += result.records[-1].cum_trajectories

    def installed(self):
        """Context manager: every target traced for the block, then restored."""
        replacements = []
        wrapped: dict[tuple[int, str], object] = {}
        for owner, attr, name in _FUNCTION_TARGETS + _METHOD_TARGETS:
            original = owner.__dict__[attr]
            key = (id(original), name)
            if key not in wrapped:
                on_result = self._count_run if name == "safe_updates.spg_run" else None
                wrapped[key] = self.wrap(original, name, on_result=on_result)
            replacements.append((owner, attr, wrapped[key]))
        for attr, original in vars(spgrad.validate).items():
            if attr.startswith("check_") and callable(original):
                traced = self.wrap(original, CHECK_PREFIX + attr, rename=_check_span_name)
                replacements.append((spgrad.validate, attr, traced))
        return _patched(replacements)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16).astype(np.int64),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).astype(np.int64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and calls made
        from inside an spg_run call."""
        a = self.arrays()
        n_names = len(self.names)
        dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        in_run = _inside(a["name"], parent, self._ids.get("safe_updates.spg_run", -1))
        calls = np.bincount(a["name"], minlength=n_names)
        incl = np.bincount(a["name"], weights=dur, minlength=n_names)
        excl = np.bincount(a["name"], weights=self_time, minlength=n_names)
        calls_in_run = np.bincount(a["name"][in_run], minlength=n_names)
        return {
            name: {
                "calls": int(calls[i]),
                "incl_s": float(incl[i]),
                "self_s": float(excl[i]),
                "calls_in_run": int(calls_in_run[i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _check_span_name(result) -> str:
    return CHECK_PREFIX + result.name


def _inside(names: np.ndarray, parent: np.ndarray, ancestor_id: int) -> np.ndarray:
    """True for spans with an ancestor span named ``ancestor_id``.

    A parent is always opened before its children, so following parent links
    terminates; each round walks one level up for every span at once.
    """
    flag = np.zeros(names.size, dtype=bool)
    up = parent.copy()
    while True:
        live = up >= 0
        if not live.any():
            return flag
        flag[live] |= names[up[live]] == ancestor_id
        up[live] = parent[up[live]]


@contextmanager
def _patched(replacements):
    """Set each (owner, attribute, value) for the block, then restore."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def counting(owner_attrs):
    """Count calls to the given (owner, attribute) callables without timing them."""
    counter = {"calls": 0}

    def make(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter["calls"] += 1
            return fn(*args, **kwargs)

        return counted

    with _patched([(owner, attr, make(owner.__dict__[attr])) for owner, attr in owner_attrs]):
        yield counter
