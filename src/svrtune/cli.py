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
    DEFAULT_PARAMS,
    KernelSpec,
    SolverSettings,
    SvrParams,
    model_from_json,
    model_to_json,
    predict_batch,
)
from .tuning import (
    PARAM_NAMES,
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
    if name not in PARAM_NAMES:
        raise argparse.ArgumentTypeError("--fix name must be c, epsilon or gamma")
    return name, (_nonneg_float if name == "epsilon" else _positive_float)(raw)


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
    p.set_defaults(func=cmd_ingest, options=lambda args, cfg: None)

    p = sub.add_parser("sweep", help="one-at-a-time parameter sweep to CSV")
    _add_shared(p)
    p.add_argument("--vary", choices=PARAM_NAMES, default=None)
    p.add_argument("--grid", type=_grid, default=None, metavar="LO:HI:N")
    p.add_argument("--fix", type=_fix_pair, action="append", default=[],
                   metavar="NAME=VALUE", help="fixed value for a non-varying parameter")
    p.set_defaults(func=cmd_sweep, options=_sweep_options)

    p = sub.add_parser("tune", help="search (C, epsilon, gamma) with DE or PSO")
    _add_shared(p)
    p.add_argument("--method", choices=("de", "pso"), default=None)
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
    p.set_defaults(func=cmd_tune, options=_tune_options)

    p = sub.add_parser("train", help="train one SVR at a fixed triple")
    _add_shared(p)
    p.add_argument("--c", type=_positive_float, default=None, help="cost penalty (1)")
    p.add_argument("--epsilon", type=_nonneg_float, default=None, help="tube half-width (0.1)")
    p.add_argument("--gamma", type=_positive_float, default=None, help="RBF width 2*sigma^2 (0.2)")
    p.set_defaults(func=cmd_train, options=_train_params)

    p = sub.add_parser("predict", help="predict from a saved model")
    _add_shared(p)
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--normalizer", default=None,
                   help="normalizer JSON; output in original price units")
    p.set_defaults(func=cmd_predict, options=lambda args, cfg: (Path(args.model), args.normalizer))

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


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The shared settings; creates the output directory."""
    data = _get(args, "data", None)
    out = _get(args, "out", None)
    if data is None:
        raise UsageError("--data is required")
    if out is None:
        raise UsageError("--out is required")
    normalize = _get(args, "normalize", False)
    if not isinstance(normalize, bool):
        raise UsageError(f"normalize must be true or false, got {normalize!r}")
    max_passes = _get(args, "max_passes", None)
    settings = SolverSettings(
        kkt_tolerance=float(_get(args, "kkt_tolerance", 1e-3)),
        max_passes=int(max_passes) if max_passes is not None else None,
    )
    cfg = RunConfig(
        data_path=Path(data),
        out_dir=Path(out),
        normalize=normalize,
        x_low=float(_get(args, "x_low", -1.0)),
        x_up=float(_get(args, "x_up", 1.0)),
        train_n=int(_get(args, "train_n", 500)),
        test_n=int(_get(args, "test_n", 200)),
        fit_range=str(_get(args, "fit_range", "train")),
        seed=int(_get(args, "seed", 0)),
        threads=int(_get(args, "threads", os.cpu_count() or 1)),
        settings=settings,
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg


def _read_text(path: Path, what: str) -> str:
    """A file's text; a missing or unreadable file is a data error."""
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc


def _load_supervised(cfg: RunConfig) -> SupervisedSet:
    return build_supervised(parse_csv(_read_text(cfg.data_path, "data")))


def _normalize(cfg: RunConfig, sset: SupervisedSet) -> tuple[SupervisedSet, NormalizationMap | None]:
    if not cfg.normalize:
        return sset, None
    rows = range(cfg.train_n) if cfg.fit_range == "train" else range(len(sset))
    nmap = fit_normalizer(sset, cfg.x_low, cfg.x_up, rows)
    return apply_normalizer(nmap, sset), nmap


def _prepare(cfg: RunConfig) -> tuple[SupervisedSet, SupervisedSet, NormalizationMap | None]:
    """Ingest, optionally normalize, split."""
    sset = _load_supervised(cfg)
    if cfg.train_n + cfg.test_n > len(sset):
        raise DataError(
            f"split {cfg.train_n}+{cfg.test_n} exceeds the {len(sset)} supervised rows"
        )
    if cfg.test_n < 1:
        raise UsageError("--test-n must be >= 1 for evaluation commands")
    sset, nmap = _normalize(cfg, sset)
    train, test = split(sset, SplitSpec(cfg.train_n, cfg.test_n))
    return train, test, nmap


def _write(out_dir: Path, texts: dict[str, str]) -> None:
    """Write artifacts, each through a temp file moved into place. Callers
    serialize them all first, so a failure leaves the old run's files whole."""
    for name, text in texts.items():
        tmp = out_dir / f".{name}.tmp"
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, out_dir / name)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise UsageError(f"cannot write {out_dir / name}: {exc}") from exc


def cmd_ingest(cfg: RunConfig, _options: None) -> int:
    sset = _load_supervised(cfg)
    if cfg.normalize and cfg.train_n > len(sset):
        raise DataError(f"--train-n {cfg.train_n} exceeds the {len(sset)} supervised rows")
    sset, nmap = _normalize(cfg, sset)
    texts = {"supervised.csv": supervised_to_csv(sset)}
    if nmap is not None:
        texts["normalizer.json"] = normalizer_to_json(nmap)
    _write(cfg.out_dir, texts)
    print(f"supervised rows: {len(sset)} (features per row: {sset.features.shape[1]})")
    for name in texts:
        print(f"wrote {cfg.out_dir / name}")
    return EXIT_OK


def _required(args: argparse.Namespace, key: str, choices=None):
    """A value with no default, from the flags or the config file."""
    value = _get(args, key, None)
    if value is None:
        raise UsageError(f"--{key} is required")
    if choices is not None and value not in choices:
        raise UsageError(f"--{key} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _sweep_options(args: argparse.Namespace, cfg: RunConfig):
    """(varying parameter, grid values, fixed values given by --fix)."""
    vary = _required(args, "vary", PARAM_NAMES)
    grid = _required(args, "grid")
    lo, hi, n = grid if isinstance(grid, tuple) else _grid(str(grid))  # a file holds the text
    fixed = dict(args.fix)
    if vary in fixed:
        raise UsageError(f"--fix {vary} names the varying parameter")
    (_nonneg_float if vary == "epsilon" else _positive_float)(lo)  # raises if out of range
    return vary, tuple(float(v) for v in np.linspace(lo, hi, n)), fixed


def cmd_sweep(cfg: RunConfig, options) -> int:
    vary, grid, fixed = options
    train, test, _ = _prepare(cfg)
    if "c" not in fixed and vary != "c":
        fixed["c"] = heuristic_c(train.targets)
    if "gamma" not in fixed and vary != "gamma":
        fixed["gamma"] = heuristic_gamma()
    if "epsilon" not in fixed and vary != "epsilon":
        fixed["epsilon"] = 0.1
    rows = sweep(train, test, SweepSpec(varying=vary, grid=grid, **fixed), cfg.settings)
    _write(cfg.out_dir, {"sweep.csv": sweep_rows_to_csv(rows)})
    print(f"swept {vary} over {len(rows)} grid points -> {cfg.out_dir / 'sweep.csv'}")
    return EXIT_OK


def _tune_options(args: argparse.Namespace, cfg: RunConfig):
    """(search box, DE or PSO config, fitness)."""
    preset = _get(args, "preset", None)
    ranges = (_get(args, "c_range", None), _get(args, "epsilon_range", None),
              _get(args, "gamma_range", None))
    if preset is not None and any(r is not None for r in ranges):
        raise UsageError("give either --preset or explicit ranges, not both")
    if preset is not None:
        if preset not in PRESET_BOXES:
            raise UsageError(f"unknown preset {preset!r}")
        box = PRESET_BOXES[preset]
    elif all(r is not None for r in ranges):
        box = ParamBox(tuple(ranges[0]), tuple(ranges[1]), tuple(ranges[2]))
    else:
        raise UsageError("tune needs --preset or all of --c-range/--epsilon-range/--gamma-range")
    if _required(args, "method", ("de", "pso")) == "de":
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
    return box, config, FitnessSpec.parse(str(_get(args, "fitness", "train-mse")))


def cmd_tune(cfg: RunConfig, options) -> int:
    box, config, fitness = options
    train, test, _ = _prepare(cfg)
    report, model = tune(train, test, box, config, fitness, cfg.settings,
                         workers=cfg.threads)
    _write(cfg.out_dir, {
        "report.json": report_to_json(report),
        "model.json": model_to_json(model),
        "history.csv": history_csv(report.optimizer_history),
    })
    print(
        f"{report.method}: C={report.c:.8g} epsilon={report.epsilon:.8g} "
        f"gamma={report.gamma:.8g} train_mse={report.train_mse:.8g} "
        f"test_mse={report.test_mse:.8g} n_sv={report.n_sv} "
        f"wall_time={report.wall_time:.2f}s"
    )
    return EXIT_OK


def _train_params(args: argparse.Namespace, cfg: RunConfig) -> SvrParams:
    kernel = KernelSpec(gamma=float(_get(args, "gamma", DEFAULT_PARAMS.kernel.gamma)))
    return SvrParams(float(_get(args, "c", DEFAULT_PARAMS.c)),
                     float(_get(args, "epsilon", DEFAULT_PARAMS.epsilon)), kernel)


def cmd_train(cfg: RunConfig, params: SvrParams) -> int:
    train, test, _ = _prepare(cfg)
    report, model = evaluate_triple(train, test, params.c, params.epsilon, params.kernel.gamma,
                                    settings=cfg.settings)
    _write(cfg.out_dir, {"model.json": model_to_json(model)})
    print(
        f"svm: C={report.c:.8g} epsilon={report.epsilon:.8g} gamma={report.gamma:.8g} "
        f"train_mse={report.train_mse:.8g} test_mse={report.test_mse:.8g} "
        f"n_sv={report.n_sv}"
    )
    return EXIT_OK


def _read_json_file(path: Path, what: str, parse):
    """Parse a file this program wrote; a missing or malformed one is a data error."""
    text = _read_text(path, what)
    try:
        return parse(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {what} file {path}: {exc!r}") from exc


def cmd_predict(cfg: RunConfig, options) -> int:
    model_path, normalizer_path = options
    model = _read_json_file(model_path, "model", model_from_json)
    sset, has_target = supervised_from_csv(_read_text(cfg.data_path, "data"))
    predictions = predict_batch(model, sset.features)
    actual = sset.targets if has_target else None
    if normalizer_path is not None:
        nmap = _read_json_file(Path(normalizer_path), "normalizer", normalizer_from_json)
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
    _write(cfg.out_dir, {"predictions.csv": "\n".join(lines) + "\n"})
    print(f"wrote {len(predictions)} predictions -> {cfg.out_dir / 'predictions.csv'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:  # every flag and config-file value, converted and validated before any fit
            args._file_config = _load_config_file(args)
            cfg = _run_config(args)
            options = args.options(args, cfg)
        except (OSError, TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(str(exc)) from exc
        return args.func(cfg, options)
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
