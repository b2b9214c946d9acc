#!/usr/bin/env python3
"""Steadiness check: run sets of benchmark runs of the same code and compare.

    python3 bench/steady.py                      # 2 sets x 10 seeds, every workload
    python3 bench/steady.py --workloads desk-de --runs 5 --sets 1
    python3 bench/steady.py --runs 1 --sets 1   # every workload once

Each set runs every workload once per seed (seeds 1..runs), each run a
fresh ``bench/run.py`` process with BENCHMARK.json's run length, and prints
each run's metrics and operation counts as it ends. The sets are
interleaved: for each seed and workload, one run of every set, with the
order of the sets rotated from seed to seed, so that a drift of the
machine's speed over minutes falls on every set alike. For each
workload and end-to-end metric it prints every set's median, quartiles and
spread (quartile distance over median, the quantity BENCHMARK.json bounds),
and the second set's median over the first's. It also checks that each
seed's artifacts hash the same in every set and that the share of failed
operations is the same. A summary goes to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def one_run(command, workload, seed, seconds, set_no) -> dict:
    res = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {res.returncode}:\n{res.stderr[-2000:]}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "bench" / "out" / f"{workload}-seed{seed}" / "run.json").read_text())
    result["hashes"] = record["hashes"]
    cells = "  ".join(f"{n} {m['value']:.4g} {m['unit']}" for n, m in result["metrics"].items())
    print(f"set {set_no} {workload:10s} seed {seed:<3d} {cells}  attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}", flush=True)
    return result


def spread(values) -> tuple[float, float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    seeds = range(1, args.runs + 1)
    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    t0 = time.perf_counter()
    for seed in seeds:
        order = [(seed - 1 + i) % args.sets for i in range(args.sets)]
        for w in args.workloads:
            for s in order:
                results[w][s].append(one_run(spec["command"], w, seed, spec["run_seconds"], s + 1))
        print(f"seed {seed} done after {time.perf_counter() - t0:.0f} s", flush=True)

    ok, summary = True, {}
    for w in args.workloads:
        sets = results[w]
        summary[w] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            summary[w][name] = [dict(zip(("median", "q1", "q3", "spread"), row)) for row in rows]
            worse = [row[0] / rows[0][0] - 1.0 for row in rows[1:]]
            if metric["better"] == "higher":
                worse = [-x for x in worse]
            flag = ""
            if any(row[3] > bound for row in rows):
                flag, ok = " SPREAD OVER BOUND", False
            if any(x > bound for x in worse):
                flag, ok = flag + " MEDIAN MOVED OVER BOUND", False
            cells = "  ".join(f"med {m:.4g} [{a:.4g}, {b:.4g}] spread {sp:.3f}" for m, a, b, sp in rows)
            moved = "  ".join(f"set{i + 2}/set1 {x:+.3f}" for i, x in enumerate(worse))
            print(f"{w:10s} {name:12s} bound {bound:.2f}  {cells}  {moved}{flag}")
        shares = {tuple(r["failed"] / r["attempted"] for r in runs) for runs in sets}
        hashes = {json.dumps([r["hashes"] for r in runs]) for runs in sets}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"{w:10s} failed shares equal across sets: {len(shares) == 1}; "
              f"artifacts equal across sets: {len(hashes) == 1}; all runs correct: {correct}")
        ok = ok and len(shares) == 1 and len(hashes) == 1 and correct
    out = ROOT / "bench" / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"summary": summary, "runs": results}, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
