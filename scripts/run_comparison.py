#!/usr/bin/env python3
"""End-to-end comparison: default SVM vs DE-SVM vs PSO-SVM on one dataset.

Loads a daily OHLCV CSV (or generates a synthetic walk), normalizes on the
training rows, tunes with both optimizers, and prints the side-by-side
table plus a per-row prediction sample in price units. Artifacts (reports,
models, histories, prediction CSV) land in --out.
"""

import argparse
import functools
import os
from pathlib import Path

from svrtune.cli import EXIT_OK, check_counts, read_text, run_guarded, write
from svrtune.dataset import (
    RawSeries,
    SplitSpec,
    apply_normalizer,
    build_supervised,
    fit_normalizer,
    normalizer_to_json,
    parse_csv,
    series_to_csv,
    split,
)
from svrtune.optim import DeConfig, PsoConfig, history_csv
from svrtune.svr import DEFAULT_PARAMS, SolverSettings, model_to_json
from svrtune.synth import synthetic_ohlcv
from svrtune.tuning import (
    FitnessSpec,
    ParamBox,
    PRESET_BOXES,
    compare_report,
    evaluate_triple,
    report_to_json,
    tune,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", help="OHLCV CSV; omit to generate a synthetic walk")
    parser.add_argument("--synthetic-seed", type=int, default=0)
    parser.add_argument("--rows", type=int, default=701)
    parser.add_argument("--train-n", type=int, default=500)
    parser.add_argument("--test-n", type=int, default=200)
    parser.add_argument("--preset", choices=sorted(PRESET_BOXES), default=None)
    parser.add_argument("--np", dest="np_size", type=int, default=15)
    parser.add_argument("--gmax", type=int, default=50)
    parser.add_argument("--swarm", type=int, default=15)
    parser.add_argument("--iters", type=int, default=50)
    parser.add_argument("--fitness", type=FitnessSpec.parse, default="holdout:0.2",
                        help="train-mse, holdout:FRAC or kfold:K")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--out", required=True)
    return run_guarded(functools.partial(configure, parser.parse_args()))


def configure(args: argparse.Namespace):
    """The output directory, walk, box, search configs and fitness split,
    checked before any fit."""
    check_counts(args, ("rows", "train_n", "test_n", "threads"))
    args.fitness.splits(args.train_n)
    walk = None if args.data else synthetic_ohlcv(rows=args.rows, seed=args.synthetic_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.preset:
        box = PRESET_BOXES[args.preset]
    else:
        box = ParamBox((1.0, 550.0), (0.01, 0.3), (0.2, 4.0))
    de_config = DeConfig(pop_size=args.np_size, g_max=args.gmax, cr=0.7, f=0.9,
                         strategy="local_to_best_1_bin", seed=args.seed)
    pso_config = PsoConfig(swarm=args.swarm, iters=args.iters, seed=args.seed)
    return functools.partial(compare, args, out, walk, box, de_config, pso_config)


def compare(args: argparse.Namespace, out: Path, walk: RawSeries | None, box: ParamBox,
            de_config: DeConfig, pso_config: PsoConfig) -> int:
    texts = {}
    if walk is None:
        series = parse_csv(read_text(Path(args.data), "data"))
    else:
        series = walk
        texts["data.csv"] = series_to_csv(walk)

    sset = build_supervised(series)
    nmap = fit_normalizer(sset, -1.0, 1.0, fit_rows=range(args.train_n))
    normed = apply_normalizer(nmap, sset)
    train, test = split(normed, SplitSpec(args.train_n, args.test_n))
    texts["normalizer.json"] = normalizer_to_json(nmap)

    settings = SolverSettings(max_passes=3)

    default_report, default_model = evaluate_triple(
        train, test, DEFAULT_PARAMS.c, DEFAULT_PARAMS.epsilon, DEFAULT_PARAMS.kernel.gamma,
        settings=settings)
    de_report, de_model = tune(train, test, box, de_config, args.fitness, settings,
                               workers=args.threads)
    pso_report, pso_model = tune(train, test, box, pso_config, args.fitness, settings,
                                 workers=args.threads)

    for name, report, model in (
        ("svm", default_report, default_model),
        ("de", de_report, de_model),
        ("pso", pso_report, pso_model),
    ):
        texts[f"{name}_report.json"] = report_to_json(report)
        texts[f"{name}_model.json"] = model_to_json(model)
        if report.optimizer_history is not None:
            texts[f"{name}_history.csv"] = history_csv(report.optimizer_history)

    table = compare_report([default_report, de_report, pso_report],
                           normalizer=nmap, test=test,
                           models=[default_model, de_model, pso_model])
    texts["predictions.csv"] = table.predictions_csv()
    write(out, texts)  # every file serialized first: a failure leaves an earlier run whole
    print(table.render())
    print("\nfirst five test-day predictions (price units):")
    header = ",".join(table.prediction_columns)
    print(header)
    for row in table.predictions[:5]:
        print(",".join(f"{v:.4f}" for v in row))
    print(f"\nartifacts in {out}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
