"""Benchmark inputs: 701-row geometric random walks in OHLCV CSV form, and
the benchmark's own reading of them.

Every input is derived from the run's ``--seed``. A run uses as many
walks as its workload has jobs per round. The walks differ in one property
that drives the solver: the spread of their daily changes relative to
their price range over the training rows. A run draws
``CANDIDATES_PER_WALK`` candidate walks per stratum of that ratio and takes
one from each stratum, so each run covers the whole range of the ratio
rather than a lucky or unlucky handful of walks. How closely the ratio
predicts a job's cost depends on the job: on 48 walks its correlation with
a one-generation desk-de tune's time was 0.94, but on 80 walks it was
-0.14 with the benchmark's eight-generation desk-de tune, whose time
varied from walk to walk with a coefficient of variation of 20%.

The reference arrays here are built from the CSV with the standard ``csv``
module and plain numpy, apart from the program, for the output checks.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from workloads import TEST_N, TRAIN_N

ROWS = 701
CANDIDATES_PER_WALK = 8
VOLATILITY = 0.012
START_PRICE = 100.0
START_DAY = date(2015, 1, 2)
HEADER = ("date", "open", "high", "low", "close", "adj_close", "volume")


def walk_columns(seed: int) -> dict[str, np.ndarray]:
    """One geometric random walk with drift 0.

    The bars are built around the close path so that high and low envelope
    open and close; volume is lognormal around 1e6.
    """
    rng = np.random.default_rng(seed)
    close = START_PRICE * np.exp(np.cumsum(VOLATILITY * rng.standard_normal(ROWS)))
    prev_close = np.concatenate([[START_PRICE], close[:-1]])
    open_ = prev_close * np.exp(0.25 * VOLATILITY * rng.standard_normal(ROWS))
    hi_pad = np.abs(0.5 * VOLATILITY * rng.standard_normal(ROWS))
    lo_pad = np.abs(0.5 * VOLATILITY * rng.standard_normal(ROWS))
    return {
        "open": open_,
        "high": np.maximum(open_, close) * np.exp(hi_pad),
        "low": np.minimum(open_, close) * np.exp(-lo_pad),
        "close": close,
        "adj_close": 0.98 * close,
        "volume": 1e6 * np.exp(0.3 * rng.standard_normal(ROWS)),
    }


def walk_csv(seed: int) -> str:
    cols = walk_columns(seed)
    lines = [",".join(HEADER)]
    for k in range(ROWS):
        day = (START_DAY + timedelta(days=k)).isoformat()
        lines.append(day + "," + ",".join(repr(float(cols[c][k])) for c in HEADER[1:]))
    return "\n".join(lines) + "\n"


def difficulty(seed: int) -> float:
    """Daily-change spread over price range of the training targets."""
    close = walk_columns(seed)["close"][1:TRAIN_N + 1]
    return float(np.std(np.diff(close)) / (close.max() - close.min()))


def choose_walk_seeds(run_seed: int, walks: int) -> list[int]:
    """``walks`` walk seeds for one run, one per stratum of ``difficulty``."""
    pool = CANDIDATES_PER_WALK * walks
    candidates = [run_seed * pool + i for i in range(pool)]
    ranked = sorted(candidates, key=lambda s: (difficulty(s), s))
    pick = np.random.default_rng(run_seed).integers(CANDIDATES_PER_WALK, size=walks)
    return [ranked[k * CANDIDATES_PER_WALK + int(pick[k])] for k in range(walks)]


@dataclass(frozen=True)
class Reference:
    """Supervised arrays rebuilt from the CSV without the program."""

    closes: np.ndarray
    raw_targets: np.ndarray
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _scale(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # min-max onto [-1, 1] over the training rows, in the documented op order
    return -1.0 + 2.0 * ((values - lo) / (hi - lo))


def reference(text: str) -> Reference:
    rows = list(csv.DictReader(io.StringIO(text)))
    feats = np.array([[float(r[c]) for c in ("open", "high", "low", "adj_close", "volume")]
                      for r in rows[:-1]])
    closes = np.array([float(r["close"]) for r in rows])
    targets = closes[1:]
    x = np.empty_like(feats)
    for k in range(feats.shape[1]):
        col = feats[:TRAIN_N, k]
        x[:, k] = _scale(feats[:, k], col.min(), col.max())
    fit = targets[:TRAIN_N]
    y = _scale(targets, fit.min(), fit.max())
    end = TRAIN_N + TEST_N
    return Reference(closes, targets, x[:TRAIN_N], y[:TRAIN_N], x[TRAIN_N:end], y[TRAIN_N:end])
