"""Result documents and stable serialization.

The one place a record becomes output data: a document walks each record once,
when it is built (a dataclass gives its fields in field order), and json, jsonl
and csv render from that data. json and jsonl output is byte-deterministic for
a fixed command, seed, and thread count; the wall-time field is informational
and excluded from that contract (jsonl omits it entirely). CSV uses a fixed
column set with floats printed to 17 significant digits.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

CSV_COLUMNS = [
    "experiment",
    "N",
    "k",
    "alpha",
    "p",
    "method",
    "samples",
    "seed",
    "value",
    "normalizer",
    "ratio",
    "std_error",
]
# the columns read from the record itself; the others come from its params
_RECORD_COLUMNS = {"experiment", "value", "normalizer", "ratio", "std_error"}


@dataclass
class ResultDocument:
    """One command's output, fields in the order of its json form; the records are given as
    record objects and kept as their output data."""

    tool: str
    version: str
    command: list[str]
    seed: int | None
    threads: int
    warnings: list[str]
    records: list
    wall_time_s: float | None = None

    def __post_init__(self):
        self.records = [_data(record) for record in self.records]


def _data(value):
    """The output data of a record: numpy scalars unwrapped, non-finite floats None, complex
    numbers split, keys stringified; a type with no output form is an internal error."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _data(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_data(v) for v in value]
    if isinstance(value, complex):
        return {"re": _data(value.real), "im": _data(value.imag)}
    if is_dataclass(value):
        return {f.name: _data(getattr(value, f.name)) for f in fields(value)}
    raise AssertionError(f"a record holds a {type(value).__name__}, which has no output form")


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def records_to_csv(records: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        params = rec.get("params", {})
        lines.append(",".join(_fmt_csv(rec.get(col) if col in _RECORD_COLUMNS else params.get(col))
                              for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render(doc: ResultDocument, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(vars(doc), allow_nan=False, separators=(",", ": "), indent=1) + "\n"
    if fmt == "jsonl":
        return "".join(json.dumps(r, allow_nan=False, separators=(",", ":")) + "\n" for r in doc.records)
    if fmt == "csv":
        return records_to_csv(doc.records)
    raise ValueError(f"unknown format {fmt!r}")


def write_atomic(path: str, data: str) -> None:
    """Write via a temp file in the destination directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
