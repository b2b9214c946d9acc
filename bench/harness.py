"""The body of one benchmark run; ``run.py`` sets the BLAS environment first.

A job is what a user runs once: a tune (or a sweep) on one walk, its
artifacts serialized and written. A round is one job per walk. At least
one untraced round runs, and another starts while, at the mean round time
so far, it would end within the run's seconds. The end-to-end metrics are
medians over rounds of the mean per job.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import checks
import layers
import tracing
import walks
from workloads import BLAS_VARS, BOX, GRID, KKT_TOLERANCE, MAX_PASSES, POP, ROOT, SRC, TEST_N, TRAIN_N

from svrtune import dataset, optim, svr, tuning

OUT = ROOT / "bench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_PROBES = 9  # at least, spread over the first round's jobs


def cpu_seconds() -> float:
    """CPU of this process (all threads) and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GRID_VALUES = tuple(float(v) for v in numpy.linspace(*GRID))
SETTINGS = svr.SolverSettings(kkt_tolerance=KKT_TOLERANCE, max_passes=MAX_PASSES)
SWEEP_SETTINGS = svr.SolverSettings(kkt_tolerance=KKT_TOLERANCE)


def prepare(text: str):
    """The program's set-up of one walk, as the command does it."""
    raw = dataset.build_supervised(dataset.parse_csv(text))
    nmap = dataset.fit_normalizer(raw, -1.0, 1.0, range(TRAIN_N))
    train, test = dataset.split(dataset.apply_normalizer(nmap, raw), dataset.SplitSpec(TRAIN_N, TEST_N))
    return raw, train, test


def sweep_params(train, epsilon: float) -> svr.SvrParams:
    kernel = svr.KernelSpec("rbf", gamma=tuning.heuristic_gamma())
    return svr.SvrParams(tuning.heuristic_c(train.targets), epsilon, kernel)


def job(wl, seed: int, train, test, out_dir: Path, tracer) -> dict[str, str]:
    """One tune or sweep through the library, serialized and written."""
    if wl.method == "sweep":
        spec = tuning.SweepSpec("epsilon", GRID_VALUES, c=tuning.heuristic_c(train.targets),
                                gamma=tuning.heuristic_gamma())
        with tracer.span("tuning.sweep"):
            rows = tuning.sweep(train, test, spec, SWEEP_SETTINGS, seed)
        texts = {"sweep.csv": tuning.sweep_rows_to_csv(rows)}
    else:
        if wl.method == "de":
            config = optim.DeConfig(pop_size=POP, f=0.9, cr=0.7, strategy="local_to_best_1_bin",
                                    g_max=wl.generations, seed=seed)
            fitness = tuning.FitnessSpec.holdout(0.2)
        else:
            config = optim.PsoConfig(swarm=POP, iters=wl.generations, seed=seed)
            fitness = tuning.FitnessSpec.train_mse()
        with tracer.span("tuning.tune"):
            report, model = tuning.tune(train, test, tuning.ParamBox(*BOX), config, fitness,
                                        SETTINGS, workers=wl.workers)
        texts = {"report.json": tuning.report_to_json(report), "model.json": svr.model_to_json(model),
                 "history.csv": optim.history_csv(report.optimizer_history)}
    with tracer.span("cli.write", bytes=sum(len(t.encode("utf-8")) for t in texts.values())):
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    return texts


def run_round(wl, data, out: Path, tracer, log, before_job=lambda: None) -> dict:
    """One job per walk: wall and CPU seconds and the artifact texts of each."""
    rec = {"wall": [], "cpu": [], "texts": []}
    for k, (seed, _, train, test) in enumerate(data):
        before_job()
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            with tracer.span("bench.job", walk=k):
                texts = job(wl, seed, train, test, out / "jobs" / f"walk-{k:02d}", tracer)
        except Exception:  # the job's operations count as failed
            texts = None
            log(f"walk {k} (seed {seed}): job raised\n{traceback.format_exc()}")
        rec["wall"].append(time.perf_counter() - t0)
        rec["cpu"].append(cpu_seconds() - c0)
        rec["texts"].append(texts)
    return rec


def setup_probe(csv_path: Path) -> dict:
    """Interpreter start to data ready, timed from before the spawn."""
    spawn = time.monotonic_ns()
    res = subprocess.run([sys.executable, str(ROOT / "bench" / "setup_probe.py"), str(SRC),
                          str(csv_path)], capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    doc["setup_s"] = (doc["ready_ns"] - spawn) / 1e9
    return doc


def environment(wl) -> dict:
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    git_sha = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        git_sha = res.stdout.strip() or "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "svrtune").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "cores": os.cpu_count(),
        "load_average": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "workers": wl.workers,
    }


def check_walk(wl, rounds, k, train, ref) -> tuple[list[str], list[str]]:
    """Every output check of one walk, outside the timed region: the
    failures, and the observations that do not fail the walk."""
    outs = [r["texts"][k] for r in rounds]
    problems = [f"the job raised in {outs.count(None)} of {len(outs)} rounds"] if None in outs else []
    outs = [t for t in outs if t is not None]
    if not outs:
        return problems, []
    if len({tuple(sorted((n, sha(t)) for n, t in o.items())) for o in outs}) != 1:
        problems.append("artifacts differ between rounds of the same walk")
    if wl.method != "sweep":
        return problems + checks.tune_problems(outs[0], ref, BOX, wl.ops_per_job), []
    found, rises, rows = checks.sweep_problems(outs[0]["sweep.csv"], GRID_VALUES)
    problems += found
    for idx in (0, len(rows) // 2, len(rows) - 1):
        model = svr.train_svr(train.features, train.targets, sweep_params(train, GRID_VALUES[idx]),
                              SWEEP_SETTINGS)
        problems += checks.sweep_point_problems(svr.model_to_json(model), rows[idx], ref,
                                                KKT_TOLERANCE)
    return problems, rises


def self_check(wl, csv_path: Path, walk, out_dir: Path) -> list[str]:
    """A short job through the library must write byte for byte what the
    ``svrtune`` command writes for the same arguments."""
    short = wl.short()
    seed, _, train, test = walk
    try:
        lib = job(short, seed, train, test, out_dir / "library", tracing.NullTracer())
    except Exception:
        return [f"the self-check job raised\n{traceback.format_exc()}"]
    res = subprocess.run(short.cli_command(csv_path, out_dir / "command", seed), capture_output=True,
                         text=True, timeout=170)
    if res.returncode != 0:
        return [f"svrtune command exited {res.returncode}: {res.stderr[-400:]}"]
    return [f"{name} differs from the svrtune command's output" for name, text in lib.items()
            if (out_dir / "command" / name).read_bytes() != text.encode("utf-8")]


def traced_layers(wl, data, tracer, traced, probes, overhead_s, out: Path):
    spans = tracer.collect()
    (out / "spans.jsonl").write_text("".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
    if wl.method == "sweep":
        solves = [(train.features, train.targets, sweep_params(train, e), SWEEP_SETTINGS)
                  for _, _, train, _ in data for e in GRID_VALUES]
    else:
        solves = []
        jobs = [s for s in spans if s["name"] == "bench.job"]
        for job_span, objective in zip(jobs, tracer.objectives):
            triples = [s["x"] for s in spans if s["name"] == "tuning.fitness"
                       and job_span["start"] <= s["start"] <= job_span["end"]]
            solves += layers.fitness_solves(objective, triples, svr)
    replayed = layers.replay(solves, svr)
    evaluations = sum(json.loads(t["report.json"])["optimizer_history"]["evaluations"]
                      for t in traced["texts"] if t and "report.json" in t)
    values = layers.derive(spans, tracer, probes, replayed, evaluations, wl.workers, overhead_s)
    problems = []
    if wl.method != "sweep" and values["tuning.fitness_calls"] != evaluations:
        problems.append(f"traced {values['tuning.fitness_calls']} fitness calls, "
                        f"the reports count {evaluations}")
    return values, replayed["svr.kernel_build_ms"], problems


def run(wl, seed: int, seconds: float, trace: bool) -> int:
    out = OUT / f"{wl.name}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "walks").mkdir(parents=True)

    def log(msg: str) -> None:
        print(f"[{wl.name}] {msg}", flush=True)

    seeds = walks.choose_walk_seeds(seed, wl.trace_walks if trace else wl.walks)
    texts = [walks.walk_csv(s) for s in seeds]
    for k, text in enumerate(texts):
        (out / "walks" / f"walk-{k:02d}.csv").write_text(text, encoding="utf-8")
    csv0 = out / "walks" / "walk-00.csv"

    data = [(s, *prepare(text)) for s, text in zip(seeds, texts)]
    refs = [walks.reference(text) for text in texts]
    problems = {k: checks.data_problems(refs[k], d[1:]) for k, d in enumerate(data)}

    # set-up probes run between the first round's jobs, outside their
    # timing, so that they sample the same stretch of machine time
    setup_probe(csv0)  # fills the file and bytecode caches; not timed
    probes = []

    def probe() -> None:
        probes.extend(setup_probe(csv0) for _ in range(-(-SETUP_PROBES // len(data))))

    # whole rounds only: another round starts if, at the mean round time so
    # far, it would end within the run's seconds
    rounds, measured_s = [], 0.0
    while not rounds or (not trace and measured_s * (len(rounds) + 1) / len(rounds) <= seconds):
        before_job = probe if not rounds else (lambda: None)
        rounds.append(run_round(wl, data, out, tracing.NullTracer(), log, before_job))
        measured_s += sum(rounds[-1]["wall"])

    if trace:
        tracer = tracing.Tracer(out / "spans")
        tracer.out_dir.mkdir()
        undo = tracing.install(tracer, tuning)
        try:
            traced = run_round(wl, data, out, tracer, log)
        finally:
            undo()
        rounds.append(traced)

    notes = {}
    for k, (_, _, train, _) in enumerate(data):
        found, notes[k] = check_walk(wl, rounds, k, train, refs[k])
        problems[k] += found
    problems[0] += self_check(wl, csv0, data[0], out / "self-check")

    record = {"workload": wl.name, "seed": seed, "trace": trace, "walk_seeds": seeds,
              "environment": environment(wl), "rounds": len(rounds), "measured_s": measured_s,
              "setup_probes": probes, "jobs": [{"wall_s": r["wall"], "cpu_s": r["cpu"]} for r in rounds],
              "hashes": [{n: sha(t) for n, t in (t or {}).items()} for t in rounds[0]["texts"]]}
    run_problems = []
    if trace:
        overhead_s = statistics.mean(traced["wall"]) - statistics.mean(rounds[0]["wall"])
        values, build_ms, run_problems = traced_layers(wl, data, tracer, traced, probes, overhead_s, out)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["per_layer"]}
        record["kernel_build_ms"] = build_ms
        (out / "layers.json").write_text(json.dumps(metrics, indent=1) + "\n", encoding="utf-8")
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "job_s": statistics.median(statistics.mean(r["wall"]) for r in rounds),
            "cpu_s": statistics.median(statistics.mean(r["cpu"]) for r in rounds),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}

    failed_walks = {k for k, p in problems.items() if p}
    jobs = [(k, t) for r in rounds for k, t in enumerate(r["texts"])]
    attempted = wl.ops_per_job * len(jobs)
    failed = wl.ops_per_job * sum(1 for k, t in jobs if t is None or k in failed_walks)
    for k in sorted(failed_walks):
        for p in problems[k]:
            log(f"walk {k} (seed {seeds[k]}): {p}")
    for p in run_problems:
        log(p)
    for k, found in notes.items():
        for note in found:
            log(f"walk {k} (seed {seeds[k]}), not counted as failed: {note}")
    record.update(metrics=metrics, problems={str(k): p for k, p in problems.items() if p},
                  run_problems=run_problems, notes={str(k): n for k, n in notes.items() if n})
    (out / "run.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    log(f"{attempted} operations attempted, {failed} failed, {len(rounds)} rounds; files in {out}")
    correct = not failed_walks and not run_problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0
