"""The three workloads and their settings.

This module imports no numpy: the entry point reads it to set each
workload's BLAS variables before numpy loads.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRAIN_N = 500
TEST_N = 200
BOX = ((1.0, 550.0), (0.01, 0.3), (0.2, 4.0))
POP = 15
GRID = (0.01, 0.3, 8)  # sweep-eps: lo, hi, points
MAX_PASSES = 3
KKT_TOLERANCE = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "de", "pso" or "sweep"
    blas: dict
    workers: int
    generations: int  # per tune job, after the initial population; 0 for sweeps
    walks: int  # jobs per round, one per walk
    trace_walks: int  # jobs per round in a traced run
    cli_args: tuple

    @property
    def ops_per_job(self) -> int:
        """Fitness evaluations per tune, or grid points per sweep."""
        return GRID[2] if self.method == "sweep" else POP * (self.generations + 1)

    def short(self) -> "Workload":
        """The same job with one generation, for the self-check against the command."""
        return replace(self, generations=min(self.generations, 1))

    def cli_command(self, csv_path: Path, out_dir: Path, seed: int) -> list[str]:
        """The ``svrtune`` command that writes what one job writes."""
        args = [sys.executable, "-m", "svrtune.cli", *self.cli_args,
                "--data", str(csv_path), "--out", str(out_dir), "--normalize",
                "--train-n", str(TRAIN_N), "--test-n", str(TEST_N), "--seed", str(seed)]
        if self.method != "sweep":
            args += ["--gmax" if self.method == "de" else "--iters", str(self.generations),
                     "--max-passes", str(MAX_PASSES)]
            for flag, (lo, hi) in zip(("--c-range", "--epsilon-range", "--gamma-range"), BOX):
                args += [flag, f"{lo!r}:{hi!r}"]
        return args


# The generation counts are the fewest at which the per-call mix of fitness
# calls resembles a 50-generation tune's: the median solve stops at the
# step cap, and more than half of the solves are cut off by it. With fewer
# generations the calls are those of the random initial population, which
# are cheaper and rarely truncated (bench/README.md has the comparison).
# pool-pso jobs cost 5 to 12 s by walk, depending on where the swarm
# settles, so a run averages 5 walks. Its traced run, which also replays
# every solve, takes 3 so that it ends well within three minutes.
WORKLOADS = {
    # single-threaded baseline of DE-SVM: holdout fitness rebuilds the kernel per call
    "desk-de": Workload(
        "desk-de", "de", {"OPENBLAS_NUM_THREADS": "1"}, 1, 8, 8, 8,
        ("tune", "--method", "de", "--np", str(POP), "--cr", "0.7", "--f", "0.9",
         "--strategy", "local_to_best_1_bin", "--fitness", "holdout:0.2", "--threads", "1")),
    # PSO over the process pool at the command's defaults: train-mse, one worker per core
    "pool-pso": Workload(
        "pool-pso", "pso", {}, os.cpu_count() or 1, 13, 5, 3,
        ("tune", "--method", "pso", "--swarm", str(POP))),
    # range selection: one model at a time, solved to tolerance, no pool
    "sweep-eps": Workload(
        "sweep-eps", "sweep", {}, 1, 0, 16, 16,
        ("sweep", "--vary", "epsilon", "--grid", ":".join(repr(v) for v in GRID))),
}
