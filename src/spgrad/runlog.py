"""Run-log CSV emission and parsing.

Format contract: comma separation, '.' decimal point, LF line endings, one
header row after '#'-prefixed metadata lines, floats printed with 17
significant digits so values round-trip bit-exactly.  Given the same config
and seed, the emitted bytes are identical across invocations.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .safe_updates import RunRecord, RunResult

RUN_CSV_COLUMNS = (
    "iteration",
    "batch_size",
    "alpha",
    "grad_norm",
    "J_hat",
    "guaranteed_improvement",
    "cum_trajectories",
    "stalled",
)


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def _record_row(record: RunRecord) -> str:
    return ",".join(
        (
            str(record.iteration),
            str(record.batch_size),
            format_float(record.alpha),
            format_float(record.grad_norm),
            format_float(record.j_hat),
            format_float(record.guaranteed_improvement),
            str(record.cum_trajectories),
            "1" if record.stalled else "0",
        )
    )


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
                ("eps_delta", result.error.eps_delta),
            )
        ),
        f"# estimator: {result.estimator_kind.value}",
        "# note: the improvement guarantee holds per update at confidence "
        f"{format_float(1.0 - result.error.delta)}; no union bound is taken across updates",
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
            records.append(
                RunRecord(
                    iteration=int(parts[0]),
                    batch_size=int(parts[1]),
                    alpha=float(parts[2]),
                    grad_norm=float(parts[3]),
                    j_hat=float(parts[4]),
                    guaranteed_improvement=float(parts[5]),
                    cum_trajectories=int(parts[6]),
                    stalled=parts[7] == "1",
                )
            )
    if not header_seen:
        raise ValueError(f"{path} contains no CSV header")
    return ParsedRunLog(metadata=metadata, records=records)
