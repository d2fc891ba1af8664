"""Run-log CSV emission and parsing.

Format contract: comma separation, '.' decimal point, LF line endings, one
header row after '#'-prefixed metadata lines, then one row per iteration.
``_COLUMNS`` declares the rows once, as (column, RunRecord field, type); the
header, the writer and the reader all come from it.  Ints are printed with
``str``, floats with 17 significant digits so values round-trip
bit-exactly, and bools as 1/0.  Given the same config and seed, the emitted
bytes are identical across invocations.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .safe_updates import RunRecord, RunResult


def format_float(value: float) -> str:
    return format(float(value), ".17g")


# run.csv's rows: (column, RunRecord field, type)
_COLUMNS = (
    ("iteration", "iteration", int),
    ("batch_size", "batch_size", int),
    ("alpha", "alpha", float),
    ("grad_norm", "grad_norm", float),
    ("J_hat", "j_hat", float),
    ("guaranteed_improvement", "guaranteed_improvement", float),
    ("cum_trajectories", "cum_trajectories", int),
    ("stalled", "stalled", bool),
)
RUN_CSV_COLUMNS = tuple(column for column, _, _ in _COLUMNS)
_WRITE = {int: str, float: format_float, bool: lambda flag: "1" if flag else "0"}
_READ = {int: int, float: float, bool: lambda text: text == "1"}


def _record_row(record: RunRecord) -> str:
    return ",".join(_WRITE[kind](getattr(record, name)) for _, name, kind in _COLUMNS)


def render_run_csv(result: RunResult, config_echo: dict) -> str:
    """Render the full log, metadata lines first, as one LF-terminated string."""
    lines = [
        "# config: " + json.dumps(config_echo, sort_keys=True, separators=(",", ":")),
        "# derived: "
        + " ".join(
            f"{name}={format_float(value)}"
            for name, value in (
                ("psi", result.constants.psi),
                ("kappa", result.constants.kappa),
                ("xi", result.constants.xi),
                ("L", result.lipschitz),
                ("nu2", result.variance.nu_squared),
                ("eps_delta", result.eps_delta),
            )
        ),
        f"# estimator: {result.estimator_kind.value}",
        "# note: the improvement guarantee holds per update at confidence "
        f"{format_float(1.0 - result.delta)}; no union bound is taken across updates",
        ",".join(RUN_CSV_COLUMNS),
    ]
    lines.extend(_record_row(record) for record in result.records)
    return "\n".join(lines) + "\n"


def write_run_csv(path: str, result: RunResult, config_echo: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_run_csv(result, config_echo))


@dataclass
class ParsedRunLog:
    metadata: dict
    records: "list[RunRecord]"


def read_run_csv(path: str) -> ParsedRunLog:
    """Parse a log written by :func:`write_run_csv` back into records."""
    metadata: dict = {}
    records: list[RunRecord] = []
    header_seen = False
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    metadata[key.strip()] = value.strip()
                continue
            if not header_seen:
                if tuple(line.split(",")) != RUN_CSV_COLUMNS:
                    raise ValueError(f"unexpected CSV header: {line}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != len(RUN_CSV_COLUMNS):
                raise ValueError(f"malformed CSV row: {line}")
            fields = {name: _READ[kind](text) for (_, name, kind), text in zip(_COLUMNS, parts)}
            records.append(RunRecord(**fields))
    if not header_seen:
        raise ValueError(f"{path} contains no CSV header")
    return ParsedRunLog(metadata=metadata, records=records)
