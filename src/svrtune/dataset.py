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
import math
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import jsonio

__all__ = [
    "DataError",
    "RawSeries",
    "SupervisedSet",
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
_BAR_COLUMNS = _REQUIRED[1:]
_HEADER_ALIASES = {
    "adjclose": "adj_close",
    "adjusted_close": "adj_close",
    "close_adjusted": "adj_close",
    "adj_close": "adj_close",
}


class DataError(ValueError):
    """Malformed input data; messages carry the offending row when known."""


@dataclass(frozen=True)
class RawSeries:
    """Trading days in ascending order and their bars: one read-only row per
    day of open, high, low, close, adj_close and volume, the file's columns
    after the date."""

    days: tuple[date, ...]
    bars: np.ndarray

    def __post_init__(self) -> None:
        bars = np.array(self.bars, dtype=np.float64)
        if bars.shape != (len(self.days), len(_BAR_COLUMNS)):
            raise DataError(f"bars must hold {len(_BAR_COLUMNS)} values for each day")
        prev = None
        for day, (open_, high, low, close, adj_close, volume) in zip(self.days, bars.tolist()):
            if prev is not None and day <= prev:
                raise DataError(f"dates not strictly increasing at {day}")
            prev = day
            prices = (open_, high, low, close, adj_close)
            if not all(math.isfinite(p) and p > 0 for p in prices):
                raise DataError(f"non-positive or non-finite price on {day}")
            if not (math.isfinite(volume) and volume >= 0):
                raise DataError(f"negative or non-finite volume on {day}")
            if high < max(open_, close, low):
                raise DataError(f"high below open/close/low on {day}")
            if low > min(open_, close, high):
                raise DataError(f"low above open/close/high on {day}")
        bars.setflags(write=False)
        object.__setattr__(self, "bars", bars)

    def __len__(self) -> int:
        return len(self.days)

    def column(self, name: str) -> np.ndarray:
        """One column of the bars, such as "close", as a read-only view."""
        return self.bars[:, _BAR_COLUMNS.index(name)]


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
class NormalizationMap:
    """The fitted minimum and maximum of each named column (features, then
    the target), and the interval [x_low, x_up] they map onto, which has
    x_up > x_low and a finite width. A column whose minimum equals its
    maximum is degenerate."""

    names: tuple[str, ...]
    x_min: tuple[float, ...]
    x_max: tuple[float, ...]
    x_low: float
    x_up: float

    def __post_init__(self) -> None:
        if not len(self.x_min) == len(self.x_max) == len(self.names):
            raise DataError("x_min and x_max need one value per column name")
        for name, lo, hi in zip(self.names, self.x_min, self.x_max):
            if hi < lo:
                raise DataError(f"column {name}: x_max < x_min")
        if not (self.x_up > self.x_low and math.isfinite(self.x_up - self.x_low)):
            raise DataError("x_up must exceed x_low, by a finite width")
        if len(set(self.names)) != len(self.names):
            raise DataError("duplicate column name in normalization map")


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


def _read_rows(source: str | TextIO | Iterable[str]) -> tuple[list[str], Iterator]:
    """The header row, then (file row number, row) for each row that is not
    blank, numbered as the file is with the header as row 1."""
    reader = csv.reader(io.StringIO(source) if isinstance(source, str) else source)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: no header row") from None
    return header, ((rownum, row) for rownum, row in enumerate(reader, start=2)
                    if any(cell.strip() for cell in row))


def parse_csv(source: str | TextIO | Iterable[str]) -> RawSeries:
    """Parse an OHLCV CSV into a date-ascending RawSeries.

    The header must name date, open, high, low, close, adj close (any of the
    usual spellings) and volume, case-insensitively and in any order; extra
    columns are ignored. Dates must be ISO (YYYY-MM-DD). Rows may arrive in
    any order and are sorted ascending. Errors name the offending file row,
    counting the header as row 1.
    """
    header, rows = _read_rows(source)
    positions: dict[str, int] = {}
    for idx, cell in enumerate(header):
        key = _normalize_header(cell)
        if key in _REQUIRED and key not in positions:
            positions[key] = idx
    missing = [c for c in _REQUIRED if c not in positions]
    if missing:
        raise DataError(f"row 1: missing required column(s): {', '.join(missing)}")

    records: list[tuple[date, list[float]]] = []
    seen: dict[date, int] = {}
    for rownum, row in rows:
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
        values = []
        for col in _BAR_COLUMNS:
            cell = row[positions[col]].strip()
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"row {rownum}: cannot parse {col}={cell!r}") from None
        records.append((day, values))
    if not records:
        raise DataError("row 1: header only, no data rows")
    records.sort(key=lambda record: record[0])
    days, bars = zip(*records)
    return RawSeries(days, np.array(bars))


def build_supervised(series: RawSeries) -> SupervisedSet:
    """Pair each day's OHLCV features with the following day's close."""
    if len(series) < 2:
        raise DataError("need at least 2 rows to build a supervised set")
    feats = series.bars[:-1, [_BAR_COLUMNS.index(c) for c in FEATURE_COLUMNS]]
    return SupervisedSet(features=feats, targets=series.column("close")[1:])


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
    table = np.column_stack([sset.features[idx], sset.targets[idx]])
    return NormalizationMap(sset.column_names + (sset.target_name,),
                            tuple(table.min(axis=0).tolist()), tuple(table.max(axis=0).tolist()),
                            float(x_low), float(x_up))


def apply_normalizer(nmap: NormalizationMap, sset: SupervisedSet) -> SupervisedSet:
    """Map every column (and the target) onto [x_low, x_up], no clamping.

    Values outside the fitted range extrapolate linearly; degenerate columns
    collapse to the interval midpoint.
    """
    actual = sset.column_names + (sset.target_name,)
    if nmap.names != actual:
        raise DataError(f"normalizer columns {nmap.names} do not match data columns {actual}")
    x_min, x_max = np.array(nmap.x_min), np.array(nmap.x_max)
    degenerate = x_max == x_min
    span = np.where(degenerate, 1.0, x_max - x_min)
    table = np.column_stack([sset.features, sset.targets])
    # keep this exact op order: fitted extremes then land exactly on the bounds
    out = nmap.x_low + (nmap.x_up - nmap.x_low) * ((table - x_min) / span)
    out[:, degenerate] = 0.5 * (nmap.x_low + nmap.x_up)
    return SupervisedSet(out[:, :-1], out[:, -1], sset.column_names, sset.target_name)


def invert_normalizer(nmap: NormalizationMap, column: str, value):
    """Exact inverse of apply_normalizer for one column.

    Accepts a scalar or an ndarray. Raises for degenerate columns, where the
    inverse is undefined.
    """
    if column not in nmap.names:
        raise KeyError(f"no normalization record for column {column!r}")
    k = nmap.names.index(column)
    x_min, x_max = nmap.x_min[k], nmap.x_max[k]
    if x_max == x_min:
        raise DataError(f"column {column!r} is degenerate (x_min == x_max); inverse undefined")
    value = np.asarray(value, dtype=np.float64)
    result = x_min + (value - nmap.x_low) * (x_max - x_min) / (nmap.x_up - nmap.x_low)
    return float(result) if result.ndim == 0 else result


def split(sset: SupervisedSet, spec: SplitSpec) -> tuple[SupervisedSet, SupervisedSet]:
    """First train_count rows, then test_count rows, chronological order kept."""
    if spec.train_count + spec.test_count > len(sset):
        raise DataError(
            f"split ({spec.train_count}+{spec.test_count}) exceeds {len(sset)} rows"
        )
    a, b = spec.train_count, spec.train_count + spec.test_count
    train = SupervisedSet(sset.features[:a], sset.targets[:a], sset.column_names, sset.target_name)
    test = SupervisedSet(sset.features[a:b], sset.targets[a:b], sset.column_names, sset.target_name)
    return train, test


# --- file formats -----------------------------------------------------------

def series_to_csv(series: RawSeries) -> str:
    return jsonio.csv_text(_REQUIRED, ((day, *bar) for day, bar in zip(series.days,
                                                                      series.bars.tolist())))


def supervised_to_csv(sset: SupervisedSet) -> str:
    return jsonio.csv_text(sset.column_names + (sset.target_name,),
                           ((*x, y) for x, y in zip(sset.features, sset.targets)))


def supervised_from_csv(text: str) -> tuple[SupervisedSet, bool]:
    """Read a supervised-set CSV back.

    Returns (set, has_target). The target column is optional; when absent,
    targets are zero-filled and has_target is False.
    """
    header, rows = _read_rows(text)
    lookup = {_normalize_header(h): i for i, h in enumerate(header)}
    missing = [c for c in FEATURE_COLUMNS if c not in lookup]
    if missing:
        raise DataError(f"row 1: missing feature column(s): {', '.join(missing)}")
    has_target = TARGET_COLUMN in lookup
    feats: list[list[float]] = []
    targs: list[float] = []
    for rownum, row in rows:
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
        "columns": [{"name": name, "x_min": lo, "x_max": hi}
                    for name, lo, hi in zip(nmap.names, nmap.x_min, nmap.x_max)],
    }
    return jsonio.dumps(doc)


def normalizer_from_json(text: str) -> NormalizationMap:
    doc = jsonio.loads(text)
    cols = doc["columns"]
    return NormalizationMap(tuple(c["name"] for c in cols), tuple(float(c["x_min"]) for c in cols),
                            tuple(float(c["x_max"]) for c in cols),
                            float(doc["x_low"]), float(doc["x_up"]))
