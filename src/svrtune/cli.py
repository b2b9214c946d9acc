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
from pathlib import Path
from typing import Callable

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
from .optim import DE_STRATEGIES, DeConfig, ObjectiveError, PsoConfig, history_csv
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


def run_guarded(configure: Callable[[], Callable[[], int]]) -> int:
    """Run the job that ``configure()`` returns and give its exit code, with
    every expected failure reported on one line instead of a traceback.
    ``configure`` converts and checks the settings before any fit, so its
    TypeError, ValueError or OSError is a usage error (2). In the job, a
    DataError is 3 and a solver or optimizer failure 4."""
    try:
        try:
            job = configure()
        except (OSError, TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(str(exc)) from exc
        return job()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ObjectiveError, RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def _grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must look like lo:hi:n")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise argparse.ArgumentTypeError("grid point count must be >= 1")
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise argparse.ArgumentTypeError("grid needs finite lo and hi with hi > lo")
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
    return name, float(raw)


def _io_flags(p: argparse.ArgumentParser, data_help: str = "input OHLCV CSV path") -> None:
    p.add_argument("--data", type=Path, help=data_help)
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--config", help="JSON file of flag values; flags on the command line win")


def _prepare_flags(p: argparse.ArgumentParser) -> None:
    _io_flags(p)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=False,
                   help="min-max normalize features and target")
    p.add_argument("--x-low", type=float, default=-1.0, help="lower normalization bound")
    p.add_argument("--x-up", type=float, default=1.0, help="upper normalization bound")
    p.add_argument("--train-n", type=int, default=500, help="training rows")
    p.add_argument("--fit-range", choices=("train", "full"), default="train",
                   help="rows the normalizer is fitted on")


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    _prepare_flags(p)
    p.add_argument("--test-n", type=int, default=200, help="test rows")
    p.add_argument("--kkt-tolerance", type=float, default=SolverSettings.kkt_tolerance,
                   help="solver tolerance")
    p.add_argument("--max-passes", type=int, default=SolverSettings.max_passes,
                   help="solver budget in passes of n pairwise updates; None is the solver's own")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svrtune",
        description="Train and tune epsilon-SVR models for next-day close prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, whose options a config file may set

    def command(name: str, summary: str, flags, func,
                options=lambda args: None) -> argparse.ArgumentParser:
        # no abbreviations: --config is found before the parse, so --conf would go unread
        p = sub.add_parser(name, help=summary, allow_abbrev=False,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        flags(p)
        p.set_defaults(func=func, options=options)
        return p

    command("ingest", "build the supervised set (and normalizer) from a CSV",
            _prepare_flags, cmd_ingest)

    p = command("sweep", "one-at-a-time parameter sweep to CSV", _evaluate_flags, cmd_sweep,
                _sweep_options)
    # kept only because the benchmark's self-check passes it; it goes in the
    # benchmark's next change, together with tuning.sweep's seed
    p.add_argument("--seed", type=int, default=0, help="unused: a sweep draws nothing at random")
    p.add_argument("--vary", choices=PARAM_NAMES, required=True)
    p.add_argument("--grid", type=_grid, required=True, metavar="LO:HI:N")
    p.add_argument("--fix", type=_fix_pair, action="append", default=[],
                   metavar="NAME=VALUE", help="fixed value for a non-varying parameter")

    de, pso = DeConfig(), PsoConfig()
    p = command("tune", "search (C, epsilon, gamma) with DE or PSO", _evaluate_flags, cmd_tune,
                _tune_options)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="parallel fitness evaluations")
    p.add_argument("--method", choices=("de", "pso"), required=True)
    p.add_argument("--preset", choices=sorted(PRESET_BOXES), help="named search box")
    p.add_argument("--c-range", type=_range_pair, metavar="LO:HI")
    p.add_argument("--epsilon-range", type=_range_pair, metavar="LO:HI")
    p.add_argument("--gamma-range", type=_range_pair, metavar="LO:HI")
    p.add_argument("--fitness", default="train-mse", help="train-mse, holdout:FRAC or kfold:K")
    p.add_argument("--np", dest="np_size", type=int, default=de.pop_size, help="DE population")
    p.add_argument("--gmax", type=int, default=de.g_max, help="DE generations")
    p.add_argument("--cr", type=float, default=de.cr, help="DE crossover probability")
    p.add_argument("--f", type=float, default=de.f, help="DE scale factor")
    p.add_argument("--strategy", choices=DE_STRATEGIES, default=de.strategy, help="DE mutation")
    p.add_argument("--swarm", type=int, default=pso.swarm, help="PSO swarm size")
    p.add_argument("--iters", type=int, default=pso.iters, help="PSO iterations")
    p.add_argument("--w", type=float, default=pso.w, help="PSO inertia weight")
    p.add_argument("--c1", type=float, default=pso.c1, help="PSO cognitive coefficient")
    p.add_argument("--c2", type=float, default=pso.c2, help="PSO social coefficient")
    p.add_argument("--vmax-fraction", type=float, default=pso.v_max_fraction,
                   help="PSO velocity clamp as span fraction")

    p = command("train", "train one SVR at a fixed triple", _evaluate_flags, cmd_train,
                _train_options)
    p.add_argument("--c", type=float, default=DEFAULT_PARAMS.c, help="cost penalty")
    p.add_argument("--epsilon", type=float, default=DEFAULT_PARAMS.epsilon,
                   help="tube half-width")
    p.add_argument("--gamma", type=float, default=DEFAULT_PARAMS.kernel.gamma,
                   help="RBF width 2*sigma^2")

    p = command("predict", "predict from a saved model",
                lambda p: _io_flags(p, "supervised-set CSV, such as ingest's supervised.csv"),
                cmd_predict)
    p.add_argument("--model", type=Path, required=True, help="model JSON path")
    p.add_argument("--normalizer", type=Path,
                   help="normalizer JSON; output in original price units")

    return parser


def _config_tokens(command: argparse.ArgumentParser, path: str) -> list[str]:
    """The values of a config file as flag tokens of this command.

    A key is an option's dest; a key that is no option of the command is
    skipped. Each value becomes ``--flag=value``, true and false become
    ``--flag`` and ``--no-flag``, and a list repeats its flag."""
    try:
        doc = jsonio.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    flags = {action.dest: action.option_strings[0] for action in command._actions
             if action.option_strings and action.dest not in ("help", "config")}
    tokens = []
    for key, value in doc.items():
        flag = flags.get(key)
        if flag is None:
            continue
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, bool):
                tokens.append(flag if item else f"--no-{flag[2:]}")
            else:
                tokens.append(f"{flag}={item}")
    return tokens


def _check(args: argparse.Namespace) -> None:
    """The checks argparse cannot make alone; creates the output directory."""
    if args.data is None:
        raise UsageError("--data is required")
    if args.out is None:
        raise UsageError("--out is required")
    if "x_low" in vars(args):
        NormalizationMap((), (), (), args.x_low, args.x_up)  # refuses a bad interval
    check_counts(args, ("train_n", "test_n", "threads"))
    args.out.mkdir(parents=True, exist_ok=True)


def check_counts(args: argparse.Namespace, names: tuple[str, ...]) -> None:
    """Refuse a count below 1 among the named flags that args holds."""
    for name in names:
        if vars(args).get(name, 1) < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1")


def read_text(path: Path, what: str) -> str:
    """A file's text; a missing or unreadable file is a data error."""
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc


def _load_supervised(args: argparse.Namespace) -> SupervisedSet:
    return build_supervised(parse_csv(read_text(args.data, "data")))


def _normalizer(args: argparse.Namespace, sset: SupervisedSet) -> NormalizationMap | None:
    """The map of --normalize, fitted on the first --train-n rows or, under
    --fit-range full, on every supervised row; None without --normalize."""
    if not args.normalize:
        return None
    fit = split(sset, SplitSpec(args.train_n))[0] if args.fit_range == "train" else sset
    return fit_normalizer(fit, args.x_low, args.x_up)


def _prepare(args: argparse.Namespace
             ) -> tuple[SupervisedSet, SupervisedSet, NormalizationMap | None]:
    """Ingest, split, and normalize both parts when asked."""
    sset = _load_supervised(args)
    train, test = split(sset, SplitSpec(args.train_n, args.test_n))
    nmap = _normalizer(args, sset)
    if nmap is not None:
        train, test = apply_normalizer(nmap, train), apply_normalizer(nmap, test)
    return train, test, nmap


def _settings(args: argparse.Namespace) -> SolverSettings:
    return SolverSettings(args.kkt_tolerance, args.max_passes)


def write(out_dir: Path, texts: dict[str, str]) -> None:
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


def cmd_ingest(args: argparse.Namespace, _options: None) -> int:
    sset = _load_supervised(args)
    nmap = _normalizer(args, sset)
    if nmap is not None:
        sset = apply_normalizer(nmap, sset)
    texts = {"supervised.csv": supervised_to_csv(sset)}
    if nmap is not None:
        texts["normalizer.json"] = normalizer_to_json(nmap)
    write(args.out, texts)
    print(f"supervised rows: {len(sset)} (features per row: {sset.features.shape[1]})")
    for name in texts:
        print(f"wrote {args.out / name}")
    return EXIT_OK


def _sweep_options(args: argparse.Namespace):
    """(varying parameter, grid values, fixed values given by --fix, solver settings)."""
    vary, (lo, hi, n), fixed = args.vary, args.grid, dict(args.fix)
    return vary, tuple(float(v) for v in np.linspace(lo, hi, n)), fixed, _settings(args)


def cmd_sweep(args: argparse.Namespace, options) -> int:
    """The default C comes from the training targets, so the sweep's values
    are checked once the data is read, still before any fit."""
    vary, grid, fixed, settings = options
    train, test, _ = _prepare(args)
    if "c" not in fixed and vary != "c":
        try:
            fixed["c"] = heuristic_c(train.targets)
        except ValueError as exc:
            raise UsageError(f"default C: {exc}; raise --train-n or give --fix c=VALUE") from exc
    if "gamma" not in fixed and vary != "gamma":
        fixed["gamma"] = heuristic_gamma()
    if "epsilon" not in fixed and vary != "epsilon":
        fixed["epsilon"] = DEFAULT_PARAMS.epsilon
    try:
        spec = SweepSpec(varying=vary, grid=grid, **fixed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = sweep(train, test, spec, settings)
    write(args.out, {"sweep.csv": sweep_rows_to_csv(rows)})
    print(f"swept {vary} over {len(rows)} grid points -> {args.out / 'sweep.csv'}")
    return EXIT_OK


def _tune_options(args: argparse.Namespace):
    """(search box, DE or PSO config, fitness, solver settings)."""
    ranges = (args.c_range, args.epsilon_range, args.gamma_range)
    if args.preset is not None and any(r is not None for r in ranges):
        raise UsageError("give either --preset or explicit ranges, not both")
    if args.preset is not None:
        box = PRESET_BOXES[args.preset]
    elif all(r is not None for r in ranges):
        box = ParamBox(*ranges)
    else:
        raise UsageError("tune needs --preset or all of --c-range/--epsilon-range/--gamma-range")
    if args.method == "de":
        config = DeConfig(pop_size=args.np_size, f=args.f, cr=args.cr, strategy=args.strategy,
                          g_max=args.gmax, seed=args.seed)
    else:
        config = PsoConfig(swarm=args.swarm, w=args.w, c1=args.c1, c2=args.c2, iters=args.iters,
                           v_max_fraction=args.vmax_fraction, seed=args.seed)
    fitness = FitnessSpec.parse(args.fitness)
    fitness.splits(args.train_n)  # refuses a split the training rows cannot take
    return box, config, fitness, _settings(args)


def cmd_tune(args: argparse.Namespace, options) -> int:
    box, config, fitness, settings = options
    train, test, _ = _prepare(args)
    report, model = tune(train, test, box, config, fitness, settings, workers=args.threads)
    write(args.out, {
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


def _train_options(args: argparse.Namespace) -> tuple[SvrParams, SolverSettings]:
    return SvrParams(args.c, args.epsilon, KernelSpec(gamma=args.gamma)), _settings(args)


def cmd_train(args: argparse.Namespace, options: tuple[SvrParams, SolverSettings]) -> int:
    params, settings = options
    train, test, _ = _prepare(args)
    report, model = evaluate_triple(train, test, params.c, params.epsilon, params.kernel.gamma,
                                    settings=settings)
    write(args.out, {"model.json": model_to_json(model)})
    print(
        f"svm: C={report.c:.8g} epsilon={report.epsilon:.8g} gamma={report.gamma:.8g} "
        f"train_mse={report.train_mse:.8g} test_mse={report.test_mse:.8g} "
        f"n_sv={report.n_sv}"
    )
    return EXIT_OK


def _read_json_file(path: Path, what: str, parse):
    """Parse a file this program wrote; a missing or malformed one is a data error."""
    text = read_text(path, what)
    try:
        return parse(text)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed {what} file {path}: {exc!r}") from exc


def cmd_predict(args: argparse.Namespace, _options: None) -> int:
    model = _read_json_file(args.model, "model", model_from_json)
    sset, has_target = supervised_from_csv(read_text(args.data, "data"))
    if sset.features.shape[1] != model.n_features:
        raise DataError(f"dimension mismatch: model has d={model.n_features}, "
                        f"data d={sset.features.shape[1]}")
    columns = {"actual": sset.targets} if has_target else {}
    columns["predicted"] = predict_batch(model, sset.features)
    if args.normalizer is not None:
        nmap = _read_json_file(args.normalizer, "normalizer", normalizer_from_json)
        if sset.target_name not in nmap.names:
            raise DataError(f"normalizer file {args.normalizer} has no record for column "
                            f"{sset.target_name!r}")
        columns = {name: invert_normalizer(nmap, sset.target_name, values)
                   for name, values in columns.items()}
    write(args.out, {"predictions.csv": jsonio.csv_text(columns, zip(*columns.values()))})
    print(f"wrote {len(sset)} predictions -> {args.out / 'predictions.csv'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)

    def configure() -> Callable[[], int]:
        """Every flag and config-file value, converted and checked by one parse."""
        command = parser.commands.get(argv[0]) if argv else None
        pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv[1:])[0].config
        tokens = _config_tokens(command, path) if command and path else []
        args = parser.parse_args([*argv[:1], *tokens, *argv[1:]])
        _check(args)
        options = args.options(args)
        return lambda: args.func(args, options)

    return run_guarded(configure)


if __name__ == "__main__":
    sys.exit(main())
