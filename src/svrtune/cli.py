"""Command line entry point.

Subcommands: ingest, sweep, tune, train, predict. All outputs land under
--out and are byte-identical across reruns of the same configuration
(including --threads), so experiment directories can be diffed.

Exit codes: 0 success, 2 usage error, 3 data error, 4 solver or optimizer
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import jsonio
from .dataset import (
    DataError,
    NormalizationMap,
    SplitSpec,
    SupervisedSet,
    apply_normalizer,
    build_supervised,
    fit_normalizer,
    invert_normalizer,
    normalizer_from_json,
    normalizer_to_json,
    parse_csv,
    split,
    supervised_from_csv,
    supervised_to_csv,
)
from .optim import DeConfig, ObjectiveError, PsoConfig, history_csv
from .svr import (
    SolverSettings,
    model_from_json,
    model_to_json,
    predict_batch,
)
from .tuning import (
    PRESET_BOXES,
    FitnessSpec,
    ParamBox,
    SweepSpec,
    evaluate_triple,
    heuristic_c,
    heuristic_gamma,
    report_to_json,
    sweep,
    sweep_rows_to_csv,
    tune,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Resolved shared experiment configuration."""

    data_path: Path
    out_dir: Path
    normalize: bool
    x_low: float
    x_up: float
    train_n: int
    test_n: int
    fit_range: str  # "train" or "full"
    seed: int
    threads: int
    settings: SolverSettings

    def __post_init__(self) -> None:
        if self.fit_range not in ("train", "full"):
            raise UsageError("--fit-range must be 'train' or 'full'")
        if not self.x_up > self.x_low:
            raise UsageError("--x-up must exceed --x-low")
        if self.train_n < 1:
            raise UsageError("--train-n must be >= 1")
        if self.test_n < 0:
            raise UsageError("--test-n must be >= 0")
        if self.threads < 1:
            raise UsageError("--threads must be >= 1")


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")
    return value


def _grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must look like lo:hi:n")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise argparse.ArgumentTypeError("grid point count must be >= 1")
    if not hi > lo:
        raise argparse.ArgumentTypeError("grid needs hi > lo")
    return lo, hi, n


def _range_pair(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("range must look like lo:hi")
    return float(parts[0]), float(parts[1])


def _fix_pair(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError("--fix expects name=value")
    name, _, raw = text.partition("=")
    name = name.strip().lower()
    if name not in ("c", "epsilon", "gamma"):
        raise argparse.ArgumentTypeError("--fix name must be c, epsilon or gamma")
    return name, float(raw)


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="input OHLCV CSV path")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="JSON file with defaults; flags override it")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=None,
                   help="min-max normalize features and target (default off)")
    p.add_argument("--x-low", type=float, default=None, help="lower normalization bound (-1)")
    p.add_argument("--x-up", type=float, default=None, help="upper normalization bound (+1)")
    p.add_argument("--train-n", type=int, default=None, help="training rows (500)")
    p.add_argument("--test-n", type=int, default=None, help="test rows (200)")
    p.add_argument("--fit-range", choices=("train", "full"), default=None,
                   help="rows the normalizer is fitted on (train)")
    p.add_argument("--seed", type=int, default=None, help="random seed (0)")
    p.add_argument("--threads", type=int, default=None,
                   help="parallel fitness evaluations (machine cores)")
    p.add_argument("--kkt-tolerance", type=float, default=None, help="solver tolerance (1e-3)")
    p.add_argument("--max-passes", type=int, default=None, help="solver sweep budget (10n)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svrtune",
        description="Train and tune epsilon-SVR models for next-day close prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build the supervised set (and normalizer) from a CSV")
    _add_shared(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("sweep", help="one-at-a-time parameter sweep to CSV")
    _add_shared(p)
    p.add_argument("--vary", choices=("c", "epsilon", "gamma"), required=True)
    p.add_argument("--grid", type=_grid, required=True, metavar="LO:HI:N")
    p.add_argument("--fix", type=_fix_pair, action="append", default=[],
                   metavar="NAME=VALUE", help="fixed value for a non-varying parameter")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tune", help="search (C, epsilon, gamma) with DE or PSO")
    _add_shared(p)
    p.add_argument("--method", choices=("de", "pso"), required=True)
    p.add_argument("--preset", choices=sorted(PRESET_BOXES), default=None)
    p.add_argument("--c-range", type=_range_pair, default=None, metavar="LO:HI")
    p.add_argument("--epsilon-range", type=_range_pair, default=None, metavar="LO:HI")
    p.add_argument("--gamma-range", type=_range_pair, default=None, metavar="LO:HI")
    p.add_argument("--fitness", default=None,
                   help="train-mse (default), holdout:FRAC or kfold:K")
    p.add_argument("--np", dest="np_size", type=int, default=None, help="DE population (30)")
    p.add_argument("--gmax", type=int, default=None, help="DE generations (200)")
    p.add_argument("--cr", type=float, default=None, help="DE crossover probability (0.9)")
    p.add_argument("--f", type=float, default=None, help="DE scale factor (0.5)")
    p.add_argument("--strategy", choices=("rand_1_bin", "local_to_best_1_bin"), default=None)
    p.add_argument("--swarm", type=int, default=None, help="PSO swarm size (30)")
    p.add_argument("--iters", type=int, default=None, help="PSO iterations (200)")
    p.add_argument("--w", type=float, default=None, help="PSO inertia weight (0.729)")
    p.add_argument("--c1", type=float, default=None, help="PSO cognitive coefficient (1.494)")
    p.add_argument("--c2", type=float, default=None, help="PSO social coefficient (1.494)")
    p.add_argument("--vmax-fraction", type=float, default=None,
                   help="PSO velocity clamp as span fraction (1.0)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("train", help="train one SVR at a fixed triple")
    _add_shared(p)
    p.add_argument("--c", type=_positive_float, default=None, help="cost penalty (1)")
    p.add_argument("--epsilon", type=_nonneg_float, default=None, help="tube half-width (0.1)")
    p.add_argument("--gamma", type=_positive_float, default=None, help="RBF width 2*sigma^2 (0.2)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict from a saved model")
    _add_shared(p)
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--normalizer", default=None,
                   help="normalizer JSON; output in original price units")
    p.set_defaults(func=cmd_predict)

    return parser


def _load_config_file(args: argparse.Namespace) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    doc = jsonio.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    return doc


def _get(args: argparse.Namespace, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return args._file_config.get(key, default)


def _run_config(args: argparse.Namespace, need_data: bool = True) -> RunConfig:
    data = _get(args, "data", None)
    out = _get(args, "out", None)
    if need_data and data is None:
        raise UsageError("--data is required")
    if out is None:
        raise UsageError("--out is required")
    max_passes = _get(args, "max_passes", None)
    settings = SolverSettings(
        kkt_tolerance=float(_get(args, "kkt_tolerance", 1e-3)),
        max_passes=int(max_passes) if max_passes is not None else None,
    )
    return RunConfig(
        data_path=Path(data) if data is not None else Path(os.devnull),
        out_dir=Path(out),
        normalize=bool(_get(args, "normalize", False)),
        x_low=float(_get(args, "x_low", -1.0)),
        x_up=float(_get(args, "x_up", 1.0)),
        train_n=int(_get(args, "train_n", 500)),
        test_n=int(_get(args, "test_n", 200)),
        fit_range=str(_get(args, "fit_range", "train")),
        seed=int(_get(args, "seed", 0)),
        threads=int(_get(args, "threads", os.cpu_count() or 1)),
        settings=settings,
    )


def _load_supervised(cfg: RunConfig) -> SupervisedSet:
    if not cfg.data_path.exists():
        raise DataError(f"data file not found: {cfg.data_path}")
    series = parse_csv(cfg.data_path.read_text(encoding="utf-8"))
    return build_supervised(series)


def _prepare(cfg: RunConfig) -> tuple[SupervisedSet, SupervisedSet, NormalizationMap | None]:
    """Ingest, optionally normalize (fit on the configured row range), split."""
    sset = _load_supervised(cfg)
    if cfg.train_n + cfg.test_n > len(sset):
        raise DataError(
            f"split {cfg.train_n}+{cfg.test_n} exceeds the {len(sset)} supervised rows"
        )
    if cfg.test_n < 1:
        raise UsageError("--test-n must be >= 1 for evaluation commands")
    nmap = None
    if cfg.normalize:
        rows = range(cfg.train_n) if cfg.fit_range == "train" else range(len(sset))
        nmap = fit_normalizer(sset, cfg.x_low, cfg.x_up, rows)
        sset = apply_normalizer(nmap, sset)
    train, test = split(sset, SplitSpec(cfg.train_n, cfg.test_n))
    return train, test, nmap


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    sset = _load_supervised(cfg)
    nmap = None
    if cfg.normalize:
        if cfg.train_n > len(sset):
            raise DataError(f"--train-n {cfg.train_n} exceeds the {len(sset)} supervised rows")
        rows = range(cfg.train_n) if cfg.fit_range == "train" else range(len(sset))
        nmap = fit_normalizer(sset, cfg.x_low, cfg.x_up, rows)
        sset = apply_normalizer(nmap, sset)
    _write(cfg.out_dir / "supervised.csv", supervised_to_csv(sset))
    if nmap is not None:
        _write(cfg.out_dir / "normalizer.json", normalizer_to_json(nmap))
    print(f"supervised rows: {len(sset)} (features per row: {sset.features.shape[1]})")
    print(f"wrote {cfg.out_dir / 'supervised.csv'}")
    if nmap is not None:
        print(f"wrote {cfg.out_dir / 'normalizer.json'}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    train, test, _ = _prepare(cfg)
    fixed = dict(args.fix)
    if "c" not in fixed and args.vary != "c":
        fixed["c"] = heuristic_c(train.targets)
    if "gamma" not in fixed and args.vary != "gamma":
        fixed["gamma"] = heuristic_gamma()
    if "epsilon" not in fixed and args.vary != "epsilon":
        fixed["epsilon"] = 0.1
    lo, hi, n = args.grid
    grid = tuple(float(v) for v in np.linspace(lo, hi, n))
    spec = SweepSpec(
        varying=args.vary,
        grid=grid,
        c=fixed.get("c") if args.vary != "c" else None,
        epsilon=fixed.get("epsilon") if args.vary != "epsilon" else None,
        gamma=fixed.get("gamma") if args.vary != "gamma" else None,
    )
    rows = sweep(train, test, spec, cfg.settings, cfg.seed)
    _write(cfg.out_dir / "sweep.csv", sweep_rows_to_csv(rows))
    print(f"swept {args.vary} over {len(rows)} grid points -> {cfg.out_dir / 'sweep.csv'}")
    return EXIT_OK


def _parse_fitness(text: str | None) -> FitnessSpec:
    if text is None or text in ("train-mse", "train_mse"):
        return FitnessSpec.train_mse()
    if text.startswith("holdout:"):
        return FitnessSpec.holdout(float(text.split(":", 1)[1]))
    if text.startswith("kfold:"):
        return FitnessSpec.kfold(int(text.split(":", 1)[1]))
    raise UsageError(f"unknown fitness spec {text!r}")


def cmd_tune(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    preset = _get(args, "preset", None)
    ranges = (_get(args, "c_range", None), _get(args, "epsilon_range", None),
              _get(args, "gamma_range", None))
    have_explicit = any(r is not None for r in ranges)
    if preset is not None and have_explicit:
        raise UsageError("give either --preset or explicit ranges, not both")
    if preset is not None:
        box = PRESET_BOXES[preset]
    elif all(r is not None for r in ranges):
        box = ParamBox(tuple(ranges[0]), tuple(ranges[1]), tuple(ranges[2]))
    else:
        raise UsageError("tune needs --preset or all of --c-range/--epsilon-range/--gamma-range")
    if args.method == "de":
        config = DeConfig(
            pop_size=int(_get(args, "np_size", 30)),
            f=float(_get(args, "f", 0.5)),
            cr=float(_get(args, "cr", 0.9)),
            strategy=str(_get(args, "strategy", "rand_1_bin")),
            g_max=int(_get(args, "gmax", 200)),
            seed=cfg.seed,
        )
    else:
        config = PsoConfig(
            swarm=int(_get(args, "swarm", 30)),
            w=float(_get(args, "w", 0.729)),
            c1=float(_get(args, "c1", 1.494)),
            c2=float(_get(args, "c2", 1.494)),
            iters=int(_get(args, "iters", 200)),
            v_max_fraction=float(_get(args, "vmax_fraction", 1.0)),
            seed=cfg.seed,
        )
    fitness = _parse_fitness(_get(args, "fitness", None))
    train, test, _ = _prepare(cfg)
    report, model = tune(train, test, box, config, fitness, cfg.settings,
                         workers=cfg.threads)
    _write(cfg.out_dir / "report.json", report_to_json(report))
    _write(cfg.out_dir / "model.json", model_to_json(model))
    _write(cfg.out_dir / "history.csv", history_csv(report.optimizer_history))
    print(
        f"{report.method}: C={report.c:.8g} epsilon={report.epsilon:.8g} "
        f"gamma={report.gamma:.8g} train_mse={report.train_mse:.8g} "
        f"test_mse={report.test_mse:.8g} n_sv={report.n_sv} "
        f"wall_time={report.wall_time:.2f}s"
    )
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    c = float(_get(args, "c", 1.0))
    epsilon = float(_get(args, "epsilon", 0.1))
    gamma = float(_get(args, "gamma", 0.2))
    train, test, _ = _prepare(cfg)
    report, model = evaluate_triple(train, test, c, epsilon, gamma,
                                    settings=cfg.settings, seed=cfg.seed)
    _write(cfg.out_dir / "model.json", model_to_json(model))
    print(
        f"svm: C={c:.8g} epsilon={epsilon:.8g} gamma={gamma:.8g} "
        f"train_mse={report.train_mse:.8g} test_mse={report.test_mse:.8g} "
        f"n_sv={report.n_sv}"
    )
    return EXIT_OK


def _read_json_file(path: Path, what: str, parse):
    """Parse a file this program wrote; a missing or malformed one is a data error."""
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {what} file {path}: {exc!r}") from exc


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    model = _read_json_file(Path(args.model), "model", model_from_json)
    if not cfg.data_path.exists():
        raise DataError(f"data file not found: {cfg.data_path}")
    sset, has_target = supervised_from_csv(cfg.data_path.read_text(encoding="utf-8"))
    predictions = predict_batch(model, sset.features)
    actual = sset.targets if has_target else None
    if args.normalizer is not None:
        nmap = _read_json_file(Path(args.normalizer), "normalizer", normalizer_from_json)
        predictions = invert_normalizer(nmap, sset.target_name, predictions)
        if actual is not None:
            actual = invert_normalizer(nmap, sset.target_name, actual)
    if actual is not None:
        lines = ["actual,predicted"]
        for a, p in zip(actual, predictions):
            lines.append(f"{jsonio.fmt_float(a)},{jsonio.fmt_float(p)}")
    else:
        lines = ["predicted"]
        lines.extend(jsonio.fmt_float(p) for p in predictions)
    _write(cfg.out_dir / "predictions.csv", "\n".join(lines) + "\n")
    print(f"wrote {len(predictions)} predictions -> {cfg.out_dir / 'predictions.csv'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._file_config = _load_config_file(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ObjectiveError, RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
