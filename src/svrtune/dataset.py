"""Daily OHLCV ingestion and the next-day-close prediction task.

The supervised problem: features are (open, high, low, adj_close, volume)
of day t, the target is the closing price of day t+1. Normalization is the
per-column affine map onto a fixed interval (default [-1, +1]):

    x' = x_low + (x_up - x_low) * (x - x_min) / (x_max - x_min)

fitted column-wise (including the target) over a caller-chosen row range,
typically the training rows only, and inverted exactly for reporting
predictions back in price units.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import jsonio

__all__ = [
    "DataError",
    "Bar",
    "RawSeries",
    "SupervisedSet",
    "ColumnStats",
    "NormalizationMap",
    "SplitSpec",
    "parse_csv",
    "build_supervised",
    "fit_normalizer",
    "apply_normalizer",
    "invert_normalizer",
    "split",
    "series_to_csv",
    "supervised_to_csv",
    "supervised_from_csv",
    "normalizer_to_json",
    "normalizer_from_json",
    "FEATURE_COLUMNS",
    "TARGET_COLUMN",
]

FEATURE_COLUMNS = ("open", "high", "low", "adj_close", "volume")
TARGET_COLUMN = "next_close"

_REQUIRED = ("date", "open", "high", "low", "close", "adj_close", "volume")
_HEADER_ALIASES = {
    "adjclose": "adj_close",
    "adjusted_close": "adj_close",
    "close_adjusted": "adj_close",
    "adj_close": "adj_close",
}


class DataError(ValueError):
    """Malformed input data; messages carry the offending row when known."""


@dataclass(frozen=True)
class Bar:
    """A single trading day."""

    day: date
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: float


@dataclass(frozen=True)
class RawSeries:
    rows: tuple[Bar, ...]

    def __post_init__(self) -> None:
        prev = None
        for bar in self.rows:
            if prev is not None and bar.day <= prev:
                raise DataError(f"dates not strictly increasing at {bar.day}")
            prev = bar.day
            prices = (bar.open, bar.high, bar.low, bar.close, bar.adj_close)
            if not all(np.isfinite(p) and p > 0 for p in prices):
                raise DataError(f"non-positive or non-finite price on {bar.day}")
            if not (np.isfinite(bar.volume) and bar.volume >= 0):
                raise DataError(f"negative or non-finite volume on {bar.day}")
            if bar.high < max(bar.open, bar.close, bar.low):
                raise DataError(f"high below open/close/low on {bar.day}")
            if bar.low > min(bar.open, bar.close, bar.high):
                raise DataError(f"low above open/close/high on {bar.day}")

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SupervisedSet:
    """Feature matrix plus next-day close targets; arrays are read-only."""

    features: np.ndarray
    targets: np.ndarray
    column_names: tuple[str, ...] = FEATURE_COLUMNS
    target_name: str = TARGET_COLUMN

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64)
        targs = np.array(self.targets, dtype=np.float64)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if targs.ndim != 1 or feats.shape[0] != targs.shape[0]:
            raise DataError("feature row count must equal target length")
        if feats.shape[1] != len(self.column_names):
            raise DataError("column_names must match feature width")
        if feats.size and not np.isfinite(feats).all():
            raise DataError("non-finite feature value")
        if targs.size and not np.isfinite(targs).all():
            raise DataError("non-finite target value")
        feats.setflags(write=False)
        targs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class ColumnStats:
    name: str
    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min:
            raise DataError(f"column {self.name}: x_max < x_min")

    @property
    def degenerate(self) -> bool:
        return self.x_max == self.x_min


@dataclass(frozen=True)
class NormalizationMap:
    """Per-column min/max records (features then target) plus shared bounds."""

    columns: tuple[ColumnStats, ...]
    x_low: float
    x_up: float

    def __post_init__(self) -> None:
        if not self.x_up > self.x_low:
            raise DataError("x_up must exceed x_low")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column name in normalization map")

    def stats_for(self, column: str) -> ColumnStats:
        for c in self.columns:
            if c.name == column:
                return c
        raise KeyError(f"no normalization record for column {column!r}")


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous chronological split: first train_count rows, then test rows."""

    train_count: int
    test_count: int = 0

    def __post_init__(self) -> None:
        if self.train_count < 1:
            raise DataError("train_count must be >= 1")
        if self.test_count < 0:
            raise DataError("test_count must be >= 0")


def _normalize_header(name: str) -> str:
    key = name.strip().lower().replace(" ", "_").replace("-", "_")
    return _HEADER_ALIASES.get(key, key)


def parse_csv(source: str | TextIO | Iterable[str]) -> RawSeries:
    """Parse an OHLCV CSV into a date-ascending RawSeries.

    The header must name date, open, high, low, close, adj close (any of the
    usual spellings) and volume, case-insensitively and in any order; extra
    columns are ignored. Dates must be ISO (YYYY-MM-DD). Rows may arrive in
    any order and are sorted ascending. Errors name the offending file row,
    counting the header as row 1.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: no header row") from None
    positions: dict[str, int] = {}
    for idx, cell in enumerate(header):
        key = _normalize_header(cell)
        if key in _REQUIRED and key not in positions:
            positions[key] = idx
    missing = [c for c in _REQUIRED if c not in positions]
    if missing:
        raise DataError(f"row 1: missing required column(s): {', '.join(missing)}")

    bars: list[Bar] = []
    seen: dict[date, int] = {}
    rownum = 1
    for row in reader:
        rownum += 1
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise DataError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
        raw_date = row[positions["date"]].strip()
        try:
            day = date.fromisoformat(raw_date)
        except ValueError:
            raise DataError(f"row {rownum}: cannot parse date {raw_date!r} (expected YYYY-MM-DD)") from None
        if day in seen:
            raise DataError(f"row {rownum}: duplicate date {day} (first seen at row {seen[day]})")
        seen[day] = rownum
        values = {}
        for col in ("open", "high", "low", "close", "adj_close", "volume"):
            cell = row[positions[col]].strip()
            try:
                values[col] = float(cell)
            except ValueError:
                raise DataError(f"row {rownum}: cannot parse {col}={cell!r}") from None
        bars.append(Bar(day=day, **values))
    if not bars:
        raise DataError("row 1: header only, no data rows")
    bars.sort(key=lambda b: b.day)
    return RawSeries(rows=tuple(bars))


def build_supervised(series: RawSeries) -> SupervisedSet:
    """Pair each day's OHLCV features with the following day's close."""
    if len(series) < 2:
        raise DataError("need at least 2 rows to build a supervised set")
    rows = series.rows
    feats = np.array(
        [(b.open, b.high, b.low, b.adj_close, b.volume) for b in rows[:-1]],
        dtype=np.float64,
    )
    targets = np.array([b.close for b in rows[1:]], dtype=np.float64)
    return SupervisedSet(features=feats, targets=targets)


def fit_normalizer(
    sset: SupervisedSet,
    x_low: float = -1.0,
    x_up: float = 1.0,
    fit_rows: Sequence[int] | range | None = None,
) -> NormalizationMap:
    """Compute per-column min/max (features and target) over fit_rows only.

    fit_rows defaults to all rows. Fitting on the training rows only avoids
    leaking test-set scale into the model; pass the full range to mirror a
    whole-dataset fit instead.
    """
    if fit_rows is None:
        idx = np.arange(len(sset))
    else:
        idx = np.asarray(list(fit_rows), dtype=np.intp)
    if idx.size == 0:
        raise DataError("fit_rows is empty")
    if idx.min() < 0 or idx.max() >= len(sset):
        raise DataError("fit_rows out of range")
    cols = []
    sub = sset.features[idx]
    for k, name in enumerate(sset.column_names):
        cols.append(ColumnStats(name, float(sub[:, k].min()), float(sub[:, k].max())))
    targ = sset.targets[idx]
    cols.append(ColumnStats(sset.target_name, float(targ.min()), float(targ.max())))
    return NormalizationMap(columns=tuple(cols), x_low=float(x_low), x_up=float(x_up))


def _apply_column(values: np.ndarray, stats: ColumnStats, x_low: float, x_up: float) -> np.ndarray:
    if stats.degenerate:
        return np.full_like(values, 0.5 * (x_low + x_up))
    # keep this exact op order: fitted extremes then land exactly on the bounds
    ratio = (values - stats.x_min) / (stats.x_max - stats.x_min)
    return x_low + (x_up - x_low) * ratio


def apply_normalizer(nmap: NormalizationMap, sset: SupervisedSet) -> SupervisedSet:
    """Map every column (and the target) onto [x_low, x_up], no clamping.

    Values outside the fitted range extrapolate linearly; degenerate columns
    collapse to the interval midpoint.
    """
    expected = tuple(c.name for c in nmap.columns)
    actual = sset.column_names + (sset.target_name,)
    if expected != actual:
        raise DataError(f"normalizer columns {expected} do not match data columns {actual}")
    out = np.empty_like(sset.features)
    for k, name in enumerate(sset.column_names):
        out[:, k] = _apply_column(sset.features[:, k], nmap.stats_for(name), nmap.x_low, nmap.x_up)
    targets = _apply_column(sset.targets, nmap.stats_for(sset.target_name), nmap.x_low, nmap.x_up)
    return SupervisedSet(out, targets, sset.column_names, sset.target_name)


def invert_normalizer(nmap: NormalizationMap, column: str, value):
    """Exact inverse of apply_normalizer for one column.

    Accepts a scalar or an ndarray. Raises for degenerate columns, where the
    inverse is undefined.
    """
    stats = nmap.stats_for(column)
    if stats.degenerate:
        raise DataError(f"column {column!r} is degenerate (x_min == x_max); inverse undefined")
    value = np.asarray(value, dtype=np.float64)
    result = stats.x_min + (value - nmap.x_low) * (stats.x_max - stats.x_min) / (nmap.x_up - nmap.x_low)
    return float(result) if result.ndim == 0 else result


def split(sset: SupervisedSet, spec: SplitSpec) -> tuple[SupervisedSet, SupervisedSet]:
    """First train_count rows, then test_count rows, chronological order kept."""
    if spec.train_count + spec.test_count > len(sset):
        raise DataError(
            f"split ({spec.train_count}+{spec.test_count}) exceeds {len(sset)} rows"
        )
    a, b = spec.train_count, spec.train_count + spec.test_count
    train = SupervisedSet(sset.features[:a].copy(), sset.targets[:a].copy(),
                          sset.column_names, sset.target_name)
    test = SupervisedSet(sset.features[a:b].copy(), sset.targets[a:b].copy(),
                         sset.column_names, sset.target_name)
    return train, test


# --- file formats -----------------------------------------------------------

def series_to_csv(series: RawSeries) -> str:
    lines = ["date,open,high,low,close,adj_close,volume"]
    for b in series.rows:
        vals = ",".join(jsonio.fmt_float(v) for v in (b.open, b.high, b.low, b.close, b.adj_close, b.volume))
        lines.append(f"{b.day.isoformat()},{vals}")
    return "\n".join(lines) + "\n"


def supervised_to_csv(sset: SupervisedSet) -> str:
    header = ",".join(sset.column_names + (sset.target_name,))
    lines = [header]
    for k in range(len(sset)):
        row = [jsonio.fmt_float(v) for v in sset.features[k]]
        row.append(jsonio.fmt_float(sset.targets[k]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def supervised_from_csv(text: str) -> tuple[SupervisedSet, bool]:
    """Read a supervised-set CSV back.

    Returns (set, has_target). The target column is optional; when absent,
    targets are zero-filled and has_target is False.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError("empty input: no header row") from None
    lookup = {_normalize_header(h): i for i, h in enumerate(header)}
    missing = [c for c in FEATURE_COLUMNS if c not in lookup]
    if missing:
        raise DataError(f"row 1: missing feature column(s): {', '.join(missing)}")
    has_target = TARGET_COLUMN in lookup
    feats: list[list[float]] = []
    targs: list[float] = []
    rownum = 1
    for row in reader:
        rownum += 1
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            feats.append([float(row[lookup[c]]) for c in FEATURE_COLUMNS])
            targs.append(float(row[lookup[TARGET_COLUMN]]) if has_target else 0.0)
        except (ValueError, IndexError):
            raise DataError(f"row {rownum}: cannot parse numeric fields") from None
    if not feats:
        raise DataError("row 1: header only, no data rows")
    return SupervisedSet(np.array(feats), np.array(targs)), has_target


def normalizer_to_json(nmap: NormalizationMap) -> str:
    doc = {
        "x_low": nmap.x_low,
        "x_up": nmap.x_up,
        "columns": [
            {"name": c.name, "x_min": c.x_min, "x_max": c.x_max} for c in nmap.columns
        ],
    }
    return jsonio.dumps(doc)


def normalizer_from_json(text: str) -> NormalizationMap:
    doc = jsonio.loads(text)
    cols = tuple(
        ColumnStats(c["name"], float(c["x_min"]), float(c["x_max"])) for c in doc["columns"]
    )
    return NormalizationMap(columns=cols, x_low=float(doc["x_low"]), x_up=float(doc["x_up"]))
