#!/usr/bin/env python3
"""Per-call mix of a long tune, by generation: what a shorter tune keeps.

    python3 bench/mix.py --method de --generations 50 --walks 1,5,10,14

Runs one tune per chosen walk (walk indices into the 16 walks of run seed
1) with the workload's settings and a wrapper around the fitness that
times each call. Each call's triple is then solved again through
``svr.train_svr`` to read its solver steps and whether the step budget cut
it off. Calls of a G-generation tune are the first pop x (G + 1) calls of
a longer one, so one long tune gives the mix of every shorter one. For
each G it prints the median solver steps, the truncated share, the mean
and median fitness time, and the final retrain's share of the job. Takes
about 65 s per walk for DE and 80 s for PSO at 50 generations.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

from workloads import BLAS_VARS, SRC, WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--method", choices=("de", "pso"), required=True)
    parser.add_argument("--generations", type=int, default=50)
    parser.add_argument("--walks", default="1,5,10,14")
    args = parser.parse_args()
    wl = WORKLOADS["desk-de" if args.method == "de" else "pool-pso"]
    for var in BLAS_VARS:
        os.environ.pop(var, None)
    os.environ.update(wl.blas)
    sys.path.insert(0, str(SRC))
    import harness
    import walks
    from svrtune import optim, svr, tuning

    seeds = walks.choose_walk_seeds(1, 16)
    calls_by_walk, retrain_s = [], 0.0
    for k in (int(v) for v in args.walks.split(",")):
        seed = seeds[k]
        _, train, test = harness.prepare(walks.walk_csv(seed))
        if args.method == "de":
            config = optim.DeConfig(pop_size=harness.POP, f=0.9, cr=0.7, strategy="local_to_best_1_bin",
                                    g_max=args.generations, seed=seed)
            fitness, rows = tuning.FitnessSpec.holdout(0.2), slice(0, 400)
        else:
            config = optim.PsoConfig(swarm=harness.POP, iters=args.generations, seed=seed)
            fitness, rows = tuning.FitnessSpec.train_mse(), slice(0, len(train))
        objective = tuning.make_fitness(train, fitness, "rbf", harness.SETTINGS, seed=seed)
        calls = []

        def timed(x):
            t0 = time.perf_counter()
            value = objective(x)
            calls.append([[float(v) for v in x], (time.perf_counter() - t0) * 1e3])
            return value

        space = tuning.ParamBox(*harness.BOX).to_search_space()
        optimize = optim.de_optimize if args.method == "de" else optim.pso_optimize
        result = optimize(timed, space, config, workers=1)
        t0 = time.perf_counter()
        tuning.evaluate_triple(train, test, *(float(v) for v in result.best_x),
                               settings=harness.SETTINGS, seed=seed)
        retrain_s += time.perf_counter() - t0
        x, y = train.features[rows], train.targets[rows]
        budget = harness.MAX_PASSES * len(y)
        for call in calls:
            c, eps, gamma = call[0]
            diag = svr.train_svr(x, y, svr.SvrParams(c, eps, svr.KernelSpec("rbf", gamma=gamma)),
                                 harness.SETTINGS).diagnostics
            call += [diag.iterations,
                     diag.iterations >= budget and diag.max_kkt_violation > harness.KKT_TOLERANCE]
        calls_by_walk.append(calls)
        print(f"walk {k} (seed {seed}): {len(calls)} calls", flush=True)

    print(" G  calls  steps_p50  truncated  fitness_ms_mean  fitness_ms_p50  retrain_share")
    for g in sorted({1, 5, 7, 8, 10, 12, 13, 15, 20, args.generations}):
        if g > args.generations:
            continue
        calls = [c for cs in calls_by_walk for c in cs[:harness.POP * (g + 1)]]
        ms = [c[1] for c in calls]
        print(f"{g:2d} {len(calls):6d} {statistics.median(c[2] for c in calls):10.0f} "
              f"{sum(c[3] for c in calls) / len(calls):10.3f} {statistics.mean(ms):16.1f} "
              f"{statistics.median(ms):15.1f} {retrain_s / (retrain_s + sum(ms) / 1e3):14.3f}")


if __name__ == "__main__":
    main()
