#!/usr/bin/env python3
"""Run the desk tune at --threads 1 and 2 and print the sha256 of its files.

    python scripts/desk_hashes.py [--expect REPORT MODEL HISTORY]

Builds the walk that ``make_synthetic.py --rows 701 --seed 0`` writes and
runs the desk tune on it once per thread count, each in a temporary
directory:

    svrtune tune --data walk.csv --normalize --method de --np 15 --gmax 50 \\
        --cr 0.7 --f 0.9 --strategy local_to_best_1_bin --c-range 1:550 \\
        --epsilon-range 0.01:0.3 --gamma-range 0.2:4 --fitness holdout:0.2 \\
        --max-passes 3 --train-n 500 --test-n 200 --threads N --out run/

It prints the sha256 of report.json, model.json and history.csv per run, and
exits 1 when the two runs differ or a hash does not start with the prefix
that --expect gives for its file (report, model, history, in that order).
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from svrtune.cli import main as svrtune
from svrtune.dataset import series_to_csv
from svrtune.synth import synthetic_ohlcv

FILES = ("report.json", "model.json", "history.csv")
DESK_TUNE = ["tune", "--normalize", "--method", "de", "--np", "15", "--gmax", "50",
             "--cr", "0.7", "--f", "0.9", "--strategy", "local_to_best_1_bin",
             "--c-range", "1:550", "--epsilon-range", "0.01:0.3", "--gamma-range", "0.2:4",
             "--fitness", "holdout:0.2", "--max-passes", "3", "--train-n", "500", "--test-n", "200"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", nargs=3, metavar=("REPORT", "MODEL", "HISTORY"),
                        help="hash prefixes of report.json, model.json and history.csv")
    args = parser.parse_args()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "walk.csv"
        walk = synthetic_ohlcv(rows=701, seed=0)
        data.write_text(series_to_csv(walk), encoding="utf-8")
        for threads in (1, 2):
            out = Path(tmp) / f"threads-{threads}"
            code = svrtune([*DESK_TUNE, "--data", str(data), "--threads", str(threads),
                            "--out", str(out)])
            if code != 0:
                print(f"the desk tune at --threads {threads} exited {code}", file=sys.stderr)
                return 1
            hashes = [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES]
            for name, digest in zip(FILES, hashes):
                print(f"--threads {threads}  {name:<12} {digest}")
            runs.append(hashes)
    ok = runs[0] == runs[1]
    if not ok:
        print("the runs at --threads 1 and 2 differ", file=sys.stderr)
    for name, digest, prefix in zip(FILES, runs[0], args.expect or ()):
        if not digest.startswith(prefix):
            print(f"{name} is {digest}, not {prefix}...", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
