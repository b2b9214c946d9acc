"""Deterministic JSON serialization.

Every artifact file (models, normalizers, tune reports) is written through
this module so that reruns with identical inputs produce byte-identical
output. Floats are rendered in Python's shortest round-trip form (``repr``),
which reads back as the same double, sign of zero included, and as a float,
never an int; dict keys keep insertion order. Non-finite floats are refused.
"""

from __future__ import annotations

import json
import math
from typing import Any

__all__ = ["dumps", "loads", "fmt_float"]


def fmt_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return repr(float(value))


def dumps(obj: Any) -> str:
    """Serialize to pretty JSON with lossless, reproducible float formatting."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def loads(text: str) -> Any:
    return json.loads(text)
