#!/usr/bin/env python3
"""Generate a synthetic daily OHLCV CSV (geometric random walk)."""

import argparse
import inspect
from pathlib import Path

from svrtune.dataset import series_to_csv
from svrtune.synth import synthetic_ohlcv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=701,
                        help="calendar rows to generate (701 -> 700 supervised rows)")
    parser.add_argument("--seed", type=int, default=0)
    library = inspect.signature(synthetic_ohlcv).parameters
    parser.add_argument("--drift", type=float, default=library["drift"].default)
    parser.add_argument("--volatility", type=float, default=library["volatility"].default)
    parser.add_argument("--volume-scale", type=float, default=library["volume_scale"].default)
    parser.add_argument("--out", required=True, help="output CSV path")
    args = parser.parse_args()

    series = synthetic_ohlcv(
        rows=args.rows,
        seed=args.seed,
        drift=args.drift,
        volatility=args.volatility,
        volume_scale=args.volume_scale,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(series_to_csv(series), encoding="utf-8")
    print(f"wrote {args.rows} rows -> {out}")


if __name__ == "__main__":
    main()
