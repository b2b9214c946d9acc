"""Per-layer metrics of the traced run, derived from its spans.

Solver counts come from replaying every solve of the traced round through
the public ``svr.train_svr`` and reading ``SvrModel.diagnostics``. Counts
are totals over the traced round; times are medians per call. A metric
whose layer the workload does not reach reads 0.
"""

from __future__ import annotations

import pickle
import statistics
import time

import numpy as np

P90_MIN_CALLS = 100


def _ms(span) -> float:
    return (span["end"] - span["start"]) / 1e6


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _covered(intervals, lo, hi) -> int:
    """Nanoseconds of [lo, hi] covered by the union of the intervals."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def replay(solves, svr) -> dict:
    """Re-run each (features, targets, params, settings) through train_svr.

    The kernel build is timed apart, by solves stopped at step 0 under a
    huge tolerance, so that microseconds per step exclude it.
    """
    train_ms, steps, truncated = [], [], 0
    build_ms = {}
    for x, y, params, settings in solves:
        t0 = time.perf_counter()
        model = svr.train_svr(x, y, params, settings)
        train_ms.append((time.perf_counter() - t0) * 1e3)
        diag = model.diagnostics
        steps.append(diag.iterations)
        n = len(y)
        budget = (settings.max_passes if settings.max_passes is not None else 10 * n) * n
        if diag.iterations >= budget and diag.max_kkt_violation > settings.kkt_tolerance:
            truncated += 1
        if n not in build_ms:
            idle = svr.SolverSettings(kkt_tolerance=1e300)
            laps = []
            for _ in range(5):
                t0 = time.perf_counter()
                svr.train_svr(x, y, params, idle)
                laps.append((time.perf_counter() - t0) * 1e3)
            build_ms[n] = statistics.median(laps)
    build_total = sum(build_ms[len(s[1])] for s in solves)
    total_steps = sum(steps)
    return {
        "svr.solves": len(solves),
        "svr.steps": total_steps,
        "svr.steps_per_solve_p50": _median(steps),
        "svr.us_per_step": (sum(train_ms) - build_total) * 1e3 / total_steps if total_steps else 0.0,
        "svr.truncated_solves": truncated,
        "svr.train_ms_p50": _median(train_ms),
        "svr.kernel_build_ms": build_ms,
    }


def fitness_solves(objective, triples, svr):
    """The solves one fitness call makes, as public train_svr arguments."""
    folds = objective.fold_indices()
    rows = [np.arange(len(objective.targets))] if folds is None else [fit for fit, _ in folds]
    out = []
    for c, eps, gamma in triples:
        params = svr.SvrParams(c, eps, svr.KernelSpec(objective.kernel_kind, gamma=gamma))
        for fit in rows:
            out.append((objective.features[fit], objective.targets[fit], params, objective.settings))
    return out


def generations(spans):
    """(interval_ns, self_ns) per steady-state generation (index >= 1).

    Fitness calls of one generation all start after the previous one's
    results came back, so sorting an optimizer's calls by start and
    cutting them into groups of the population size gives its generations.
    Generation g runs from the end of generation g-1's last call to the end
    of its own last call; its self time is the part no fitness call covers.
    """
    fitness = [s for s in spans if s["name"] == "tuning.fitness"]
    out, busy, wall, gens_total = [], 0, 0, 0
    for opt in (s for s in spans if s["name"] in ("optim.de_optimize", "optim.pso_optimize")):
        calls = [s for s in fitness if opt["start"] <= s["start"] <= opt["end"]]
        pop = opt["pop"]
        groups = [calls[i:i + pop] for i in range(0, len(calls), pop)]
        ends = [max(s["end"] for s in g) for g in groups]
        for g in range(1, len(groups)):
            lo, hi = ends[g - 1], ends[g]
            covered = _covered([(s["start"], s["end"]) for s in groups[g]], lo, hi)
            out.append((hi - lo, hi - lo - covered))
        busy += sum(s["end"] - s["start"] for s in calls)
        wall += opt["end"] - opt["start"]
        gens_total += len(groups)
    return out, busy, wall, gens_total


def sweep_points_ms(spans):
    """Per grid point: from the previous point's test predict to its own."""
    out = []
    for sw in (s for s in spans if s["name"] == "tuning.sweep"):
        preds = [s for s in spans if s["name"] == "svr.predict_batch"
                 and sw["start"] <= s["start"] <= sw["end"]]
        last = sw["start"]
        for test_pred in preds[1::2]:  # train rows, then test rows, per point
            out.append((test_pred["end"] - last) / 1e6)
            last = test_pred["end"]
    return out


def derive(spans, tracer, probes, replayed, evaluations, workers, overhead_s) -> dict:
    fitness = [_ms(s) for s in spans if s["name"] == "tuning.fitness"]
    preds = [s for s in spans if s["name"] == "svr.predict_batch"]
    gens, busy, wall, n_gens = generations(spans)
    writes = [s for s in spans if s["name"] == "cli.write"]
    pickled = statistics.mean(len(pickle.dumps(o)) for o in tracer.objectives) if tracer.objectives else 0
    pred_ns = sum(s["end"] - s["start"] for s in preds)
    return {
        "cli.import_ms": _median([p["import_ms"] for p in probes]),
        "dataset.load_ms": _median([p["load_ms"] for p in probes]),
        "dataset.prepare_ms": _median([p["prepare_ms"] for p in probes]),
        **{k: v for k, v in replayed.items() if k != "svr.kernel_build_ms"},
        "svr.predict_rows_per_s": sum(s["rows"] for s in preds) / (pred_ns / 1e9) if pred_ns else 0.0,
        "tuning.fitness_calls": len(fitness),
        "tuning.fitness_ms_p50": _median(fitness),
        "tuning.fitness_ms_p90": (statistics.quantiles(fitness, n=10)[-1]
                                  if len(fitness) >= P90_MIN_CALLS else 0.0),
        "tuning.sweep_point_ms_p50": _median(sweep_points_ms(spans)),
        "tuning.retrain_ms": _median([_ms(s) for s in spans if s["name"] == "tuning.evaluate_triple"]),
        "optim.evaluations": evaluations,
        "optim.generation_ms_p50": _median([g / 1e6 for g, _ in gens]),
        "optim.gen_self_ms_p50": _median([s / 1e6 for _, s in gens]),
        "optim.pool_busy_frac": busy / (workers * wall) if wall else 0.0,
        "optim.pickled_bytes_per_gen": pickled * tracer.pickles / n_gens if n_gens else 0.0,
        "cli.write_ms": _median([_ms(s) for s in writes]),
        "jsonio.bytes_written": sum(s["bytes"] for s in writes),
        "trace.overhead_s": overhead_s,
    }
