#!/usr/bin/env python3
"""svrtune benchmark: one run of one workload, in a fresh process.

    python3 bench/run.py --workload desk-de --seed 0 --seconds 25 --trace 0

The run builds its walks from --seed, times set-up in fresh probe
processes, then runs whole rounds of jobs (one tune or sweep per walk)
through the library, as many as fit in --seconds. It checks every output,
compares a one-generation job with what the ``svrtune`` command writes, and prints the
end-to-end metrics; with --trace 1 it runs one untraced and one traced
round and prints the per-layer metrics instead. The last line of standard
output is one JSON object. Files go to bench/out/<workload>-seed<n>[-trace]/.
"""

from __future__ import annotations

import argparse
import os
import sys

from workloads import BLAS_VARS, SRC, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "svrtune" / "__init__.py").is_file():
        print(f"bench: no program sources at {SRC / 'svrtune'}; run it from a full checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # BLAS reads its thread count once, when numpy loads: set it first
    for var in BLAS_VARS:
        os.environ.pop(var, None)
    os.environ.update(wl.blas)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(wl, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
