"""Synthetic daily OHLCV generators for experiments and tests.

Prices follow a geometric random walk; open/high/low are built around the
close path so the bar invariants (high envelope, positive prices) hold by
construction. Volume is lognormal around a configurable scale, which makes
it easy to create one feature orders of magnitude larger than the others.
"""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

from .dataset import RawSeries

__all__ = ["synthetic_ohlcv", "noisy_sine"]


def synthetic_ohlcv(
    rows: int,
    seed: int,
    start_price: float = 100.0,
    drift: float = 0.0,
    volatility: float = 0.012,
    volume_scale: float = 1e6,
    start_date: date = date(2015, 1, 2),
) -> RawSeries:
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    log_ret = drift + volatility * rng.standard_normal(rows)
    close = start_price * np.exp(np.cumsum(log_ret))
    prev_close = np.concatenate([[start_price], close[:-1]])
    open_ = prev_close * np.exp(0.25 * volatility * rng.standard_normal(rows))
    hi_pad = np.abs(0.5 * volatility * rng.standard_normal(rows))
    lo_pad = np.abs(0.5 * volatility * rng.standard_normal(rows))
    high = np.maximum(open_, close) * np.exp(hi_pad)
    low = np.minimum(open_, close) * np.exp(-lo_pad)
    adj_close = 0.98 * close
    volume = volume_scale * np.exp(0.3 * rng.standard_normal(rows))
    days = tuple(start_date + timedelta(days=k) for k in range(rows))
    return RawSeries(days, np.column_stack([open_, high, low, close, adj_close, volume]))


def noisy_sine(n: int, seed: int, noise: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """1-D regression toy set: y = sin(x) + noise on [0, 4*pi]."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 4.0 * np.pi, n))[:, None]
    y = np.sin(x).ravel() + noise * rng.standard_normal(n)
    return x, y
