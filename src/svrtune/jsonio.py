"""Deterministic artifact text: JSON documents and CSV tables.

Every artifact file (models, normalizers, tune reports, and the CSV data
sets, sweeps, histories and predictions) is written through this module, so
reruns with identical inputs produce byte-identical output, and these rules
are stated here only. Floats are rendered in Python's shortest round-trip
form (``repr``), which reads back as the same double, sign of zero included,
and as a float, never an int. Non-finite floats are refused, when written and
when read.

JSON is indented by 2 spaces, keeps dict keys in insertion order and ends in
a newline. CSV is a header line, then one line per row, cells joined by
commas; a float cell (numpy float64 included) is written as above and any
other cell, such as an int or a date, through ``str``; every line ends in a
newline.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

__all__ = ["dumps", "loads", "fmt_float", "csv_text"]


def fmt_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return repr(float(value))


def dumps(obj: Any) -> str:
    """Serialize to pretty JSON with lossless, reproducible float formatting."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in JSON")
    return value


def loads(text: str) -> Any:
    """Parse JSON. NaN, Infinity, -Infinity and a number too large for a
    double, none of which dumps writes, are refused with a ValueError."""
    return json.loads(text, parse_float=_finite, parse_constant=_finite)


def csv_text(header: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    """A CSV table: the header line, then one line per row."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt_float(v) if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"
