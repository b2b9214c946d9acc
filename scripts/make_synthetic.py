#!/usr/bin/env python3
"""Generate a synthetic daily OHLCV CSV (geometric random walk)."""

import argparse
import inspect
from pathlib import Path

from svrtune.cli import run_guarded, write
from svrtune.dataset import series_to_csv
from svrtune.synth import synthetic_ohlcv


def main() -> int:
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

    def configure():
        """The walk, drawn before anything is written: synthetic_ohlcv's
        refusal of a bad --rows or --seed is a usage error."""
        series = synthetic_ohlcv(
            rows=args.rows,
            seed=args.seed,
            drift=args.drift,
            volatility=args.volatility,
            volume_scale=args.volume_scale,
        )
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        return lambda: save(series, out)

    return run_guarded(configure)


def save(series, out: Path) -> int:
    write(out.parent, {out.name: series_to_csv(series)})
    print(f"wrote {len(series)} rows -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
