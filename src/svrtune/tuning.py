"""Hyperparameter selection for the SVR: heuristics, one-at-a-time sweeps,
and global search over (C, epsilon, gamma) with DE or PSO.

The search objective defaults to training MSE; holdout and contiguous
k-fold variants are available for honest generalization estimates. The test
set is used for reporting only and never enters the fitness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import jsonio
from .dataset import NormalizationMap, SupervisedSet, invert_normalizer
from .optim import DeConfig, OptResult, PsoConfig, SearchSpace, de_optimize, pso_optimize
from .svr import (
    KernelGeometry,
    KernelSpec,
    SolverSettings,
    SvrModel,
    SvrParams,
    mse,
    predict_batch,
    predict_rows,
    train_svr,
)

__all__ = [
    "ParamBox",
    "PRESET_BOXES",
    "FitnessSpec",
    "SweepSpec",
    "SweepRow",
    "TuneReport",
    "ComparisonTable",
    "heuristic_c",
    "heuristic_gamma",
    "sweep",
    "select_range_by_sv_fraction",
    "make_fitness",
    "SvrObjective",
    "evaluate_triple",
    "tune",
    "compare_report",
    "report_to_json",
    "sweep_rows_to_csv",
]

PARAM_NAMES = ("c", "epsilon", "gamma")
METHOD_ORDER = {"svm_default": 0, "de_svm": 1, "pso_svm": 2}


@dataclass(frozen=True)
class ParamBox:
    """Bounded 3-D search region for (C, epsilon, gamma): each range finite
    with hi > lo (SearchSpace's rule), and both its corners legal SvrParams."""

    c_range: tuple[float, float]
    epsilon_range: tuple[float, float]
    gamma_range: tuple[float, float]

    def __post_init__(self) -> None:
        self.to_search_space()
        for c, epsilon, gamma in zip(self.c_range, self.epsilon_range, self.gamma_range):
            SvrParams(c, epsilon, KernelSpec(gamma=gamma))

    def to_search_space(self) -> SearchSpace:
        return SearchSpace((
            ("c",) + tuple(map(float, self.c_range)),
            ("epsilon",) + tuple(map(float, self.epsilon_range)),
            ("gamma",) + tuple(map(float, self.gamma_range)),
        ))

    def contains(self, c: float, epsilon: float, gamma: float) -> bool:
        return self.to_search_space().contains((c, epsilon, gamma))


# ready-made boxes for the daily-price experiments these defaults mirror
PRESET_BOXES: dict[str, ParamBox] = {
    "apple-normalized": ParamBox((1.0, 550.0), (0.033, 0.052), (0.01, 0.11)),
    "apple-raw": ParamBox((1.0, 300.0), (0.033, 0.052), (0.01, 0.1)),
    "honeywell-normalized": ParamBox((1.0, 440.0), (0.08, 0.15), (0.02, 0.08)),
    "honeywell-raw": ParamBox((1.0, 60.0), (0.05, 0.07), (0.01, 0.1)),
}


@dataclass(frozen=True)
class FitnessSpec:
    """What the optimizer minimizes: train_mse, holdout, or contiguous k-fold."""

    kind: str = "train_mse"
    fraction: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("train_mse", "holdout", "kfold"):
            raise ValueError("kind must be train_mse, holdout or kfold")
        if self.kind == "holdout" and not (self.fraction and 0.0 < self.fraction < 1.0):
            raise ValueError("holdout requires fraction in (0, 1)")
        if self.kind == "kfold" and not (self.k and self.k >= 2):
            raise ValueError("kfold requires k >= 2")

    @classmethod
    def train_mse(cls) -> "FitnessSpec":
        return cls(kind="train_mse")

    @classmethod
    def holdout(cls, fraction: float) -> "FitnessSpec":
        return cls(kind="holdout", fraction=fraction)

    @classmethod
    def kfold(cls, k: int) -> "FitnessSpec":
        return cls(kind="kfold", k=k)

    @classmethod
    def parse(cls, text: str) -> "FitnessSpec":
        """Read the text form: train-mse, holdout:FRACTION or kfold:K."""
        if text in ("train-mse", "train_mse"):
            return cls.train_mse()
        if text.startswith("holdout:"):
            return cls.holdout(float(text.split(":", 1)[1]))
        if text.startswith("kfold:"):
            return cls.kfold(int(text.split(":", 1)[1]))
        raise ValueError(f"unknown fitness spec {text!r}")

    def validation_blocks(self, n: int) -> list[tuple[int, int]] | None:
        """The validation blocks [a, b) of n training rows, the fit rows being
        the rest: none for train_mse, one at the tail for holdout, k
        contiguous chronological runs for kfold. A split that n rows cannot
        take is a ValueError."""
        if self.kind == "holdout":
            n_val = max(1, int(round(self.fraction * n)))
            if n_val >= n:
                raise ValueError("holdout fraction leaves no training rows")
            return [(n - n_val, n)]
        if self.kind == "kfold":
            k = int(self.k)
            if k > n:
                raise ValueError("more folds than rows")
            bounds = [round(i * n / k) for i in range(k + 1)]
            return list(zip(bounds, bounds[1:]))
        return None


@dataclass(frozen=True)
class SweepSpec:
    """One-at-a-time grid: vary one of (c, epsilon, gamma), fix the others.

    The grid is non-empty and strictly increasing, and every grid value with
    the fixed values must make legal SvrParams; params() builds them.
    """

    varying: str
    grid: tuple[float, ...]
    c: float | None = None
    epsilon: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.varying not in PARAM_NAMES:
            raise ValueError(f"varying must be one of {PARAM_NAMES}")
        if len(self.grid) == 0:
            raise ValueError("grid must be non-empty")
        g = np.asarray(self.grid, dtype=np.float64)
        if g.size > 1 and not np.all(np.diff(g) > 0):
            raise ValueError("grid must be strictly increasing (no duplicates)")
        if getattr(self, self.varying) is not None:
            raise ValueError(f"fixed value given for the varying parameter {self.varying!r}")
        for name in PARAM_NAMES:
            if name != self.varying and getattr(self, name) is None:
                raise ValueError(f"missing fixed value for {name!r}")
        self.params()

    def params(self) -> list[SvrParams]:
        """The SvrParams at each grid value, in grid order; the ValueError of
        one that SvrParams rejects names the grid value and the parameter."""
        vals = {name: getattr(self, name) for name in PARAM_NAMES}
        out = []
        for value in self.grid:
            vals[self.varying] = value
            c, epsilon, gamma = (float(vals[name]) for name in PARAM_NAMES)
            try:
                out.append(SvrParams(c, epsilon, KernelSpec(gamma=gamma)))
            except ValueError as exc:
                raise ValueError(f"{self.varying} grid value {value}: {exc}") from exc
        return out


@dataclass(frozen=True)
class SweepRow:
    value: float
    train_mse: float
    test_mse: float
    n_sv: int


@dataclass(frozen=True)
class TuneReport:
    method: str
    c: float
    epsilon: float
    gamma: float
    train_mse: float
    test_mse: float
    n_sv: int
    wall_time: float
    optimizer_history: OptResult | None
    data_fingerprint: str


def heuristic_c(train_targets) -> float:
    """Data-driven cost bound: max(|mean + 3 std|, |mean - 3 std|) of the
    training targets, with the sample (n-1) standard deviation."""
    y = np.asarray(train_targets, dtype=np.float64).ravel()
    if y.size < 2:
        raise ValueError("need at least 2 targets")
    m = float(np.mean(y))
    s = float(np.std(y, ddof=1))
    return max(abs(m + 3.0 * s), abs(m - 3.0 * s))


def heuristic_gamma() -> float:
    """Fixed pre-sweep RBF width 0.0625 (= 2 sigma^2, sigma ~ 0.177), the
    usual sigma ~ 0.1..0.5 rule of thumb for unit-range inputs."""
    return 0.0625


def _fingerprint(train: SupervisedSet, test: SupervisedSet) -> str:
    import hashlib  # here, not at module level: only a fit's report needs it
    h = hashlib.sha256()
    for arr in (train.features, train.targets, test.features, test.targets):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _fit_and_score(train: SupervisedSet, test: SupervisedSet, params: Sequence[SvrParams],
                   settings: SolverSettings | None):
    """(model, train MSE, test MSE) per SvrParams, in order: each fitted on one
    kernel geometry of the training rows, which also scores them."""
    if len(train) == 0:
        raise ValueError("train set is empty")
    if len(test) == 0:
        raise ValueError("test set is empty")
    geometry = KernelGeometry(train.features)
    rows = np.arange(len(train))
    for p in params:
        model = train_svr(train.features, train.targets, p, settings, geometry=geometry)
        yield (model, mse(train.targets, predict_rows(model, geometry, rows)),
               mse(test.targets, predict_batch(model, test.features)))


def sweep(train: SupervisedSet, test: SupervisedSet, spec: SweepSpec,
          settings: SolverSettings | None = None, seed: int = 0) -> list[SweepRow]:
    """Train one model per grid value, each on one shared kernel geometry; rows
    come back in grid order. seed is unused (the solver is deterministic)."""
    fits = _fit_and_score(train, test, spec.params(), settings)
    return [SweepRow(float(value), train_mse, test_mse, model.n_sv)
            for value, (model, train_mse, test_mse) in zip(spec.grid, fits)]


def select_range_by_sv_fraction(rows: Sequence[SweepRow], train_size: int,
                                lo_frac: float, hi_frac: float) -> tuple[float, float]:
    """Smallest and largest grid values whose SV fraction falls in the window."""
    if not rows:
        raise ValueError("rows must be non-empty")
    if not (0.0 <= lo_frac < hi_frac <= 1.0):
        raise ValueError("need 0 <= lo_frac < hi_frac <= 1")
    if train_size < 1:
        raise ValueError("train_size must be >= 1")
    qualified = [r.value for r in rows if lo_frac <= r.n_sv / train_size <= hi_frac]
    if not qualified:
        raise ValueError(
            f"no grid value has an SV fraction inside [{lo_frac}, {hi_frac}]"
        )
    return min(qualified), max(qualified)


class SvrObjective:
    """Pure, picklable fitness over (c, epsilon, gamma) triples.

    The splits are decided once: the spec's validation blocks and the fit
    rows that are the rest, with their targets. The kernel geometry of the
    training rows is built once too; every call fits on it (train_mse) or
    on its sub-blocks (holdout and k-fold), and scores the validation rows
    (the training rows for train_mse) from the squared distances it holds,
    so repeated calls only pay for the kernel map, the dual solve and the
    scoring sums.

    The fitness is a pure function of the triple, so the objective keeps a
    memo of every value it has scored, keyed by the triple's float64 bytes
    (epsilon 0.0 and -0.0 are two keys), and fits each triple once in its
    lifetime. Calling the objective on a point scores it in this process
    when the memo lacks it; evaluate_with hands what the memo lacks to
    another scorer, such as optim's process pool, whose workers each call
    their own copy.
    """

    kernel_kind = "rbf"

    def __init__(self, train: SupervisedSet, spec: FitnessSpec,
                 settings: SolverSettings) -> None:
        if len(train) == 0:
            raise ValueError("train set is empty")
        self.features = train.features
        self.targets = train.targets
        self.settings = settings
        blocks = spec.validation_blocks(len(train))
        rows = np.arange(len(train))
        self._folds = None if blocks is None else [
            (np.concatenate([rows[:a], rows[b:]]), rows[a:b]) for a, b in blocks]
        self._splits = [(fit, val, self.targets[fit], self.targets[val])
                        for fit, val in self._folds or [(rows, rows)]]
        self.geometry = KernelGeometry(self.features)
        self._memo: dict[bytes, float] = {}

    def fold_indices(self) -> list[tuple[np.ndarray, np.ndarray]] | None:
        return self._folds

    def __call__(self, x) -> float:
        return self.evaluate_with([x], lambda triples: map(self._score, triples))[0]

    def evaluate_with(self, points, score) -> list[float]:
        """The fitness at each point, in order, from the memo. The triples
        not yet in it go to score(triples) once each, largest C first (the
        fits the step cap binds on, which in a pool should start first), and
        its values are remembered. Every value is that of fitting its
        point alone."""
        keys = [np.asarray(x, dtype=np.float64).ravel().tobytes() for x in points]
        new = list(dict.fromkeys(key for key in keys if key not in self._memo))
        if new:
            new.sort(key=lambda key: -np.frombuffer(key)[0])
            self._memo.update(zip(new, score([np.frombuffer(key) for key in new])))
        return [self._memo[key] for key in keys]

    def _score(self, x) -> float:
        """The fitness at one triple, fitted now and not remembered: one fit
        per split, on the split's sub-block of the geometry (a view when its
        fit rows are contiguous)."""
        c, epsilon, gamma = (float(v) for v in np.asarray(x, dtype=np.float64).ravel())
        params = SvrParams(c, epsilon, KernelSpec(gamma=gamma))
        total = 0.0
        for fit, val, fit_targets, val_targets in self._splits:
            geometry = self.geometry.subset(fit)
            model = train_svr(geometry.features, fit_targets, params, self.settings,
                              geometry=geometry)
            total += mse(val_targets, predict_rows(model, self.geometry, val, fit))
        return total / len(self._splits)


def make_fitness(train: SupervisedSet, spec: FitnessSpec, kernel_kind: str = "rbf",
                 settings: SolverSettings | None = None, seed: int = 0) -> SvrObjective:
    """The fitness the optimizers minimize; kernel_kind must be "rbf" and
    seed is unused (it draws nothing)."""
    KernelSpec(kernel_kind)  # rejects any kind but rbf
    return SvrObjective(train, spec, settings or SolverSettings())


def evaluate_triple(train: SupervisedSet, test: SupervisedSet,
                    c: float, epsilon: float, gamma: float,
                    settings: SolverSettings | None = None, seed: int = 0,
                    method: str = "svm_default") -> tuple[TuneReport, SvrModel]:
    """Train at one triple and report train/test MSE and the SV count: the
    one-point sweep. seed is unused (the solver is deterministic)."""
    params = SvrParams(c, epsilon, KernelSpec(gamma=gamma))
    t0 = time.perf_counter()
    (model, train_mse, test_mse), = _fit_and_score(train, test, [params], settings)
    wall = time.perf_counter() - t0
    report = TuneReport(
        method=method, c=float(c), epsilon=float(epsilon), gamma=float(gamma),
        train_mse=train_mse, test_mse=test_mse, n_sv=model.n_sv,
        wall_time=wall, optimizer_history=None,
        data_fingerprint=_fingerprint(train, test),
    )
    return report, model


def tune(train: SupervisedSet, test: SupervisedSet, box: ParamBox,
         config: DeConfig | PsoConfig, fitness: FitnessSpec | None = None,
         settings: SolverSettings | None = None, workers: int = 1) -> tuple[TuneReport, SvrModel]:
    """Search the box with DE or PSO, then retrain and report at the best triple.

    The test set never enters the fitness; it only appears in the report.
    """
    fitness = fitness or FitnessSpec.train_mse()
    objective = make_fitness(train, fitness, settings=settings)
    space = box.to_search_space()
    t0 = time.perf_counter()
    if isinstance(config, DeConfig):
        result = de_optimize(objective, space, config, workers=workers)
        method = "de_svm"
    elif isinstance(config, PsoConfig):
        result = pso_optimize(objective, space, config, workers=workers)
        method = "pso_svm"
    else:
        raise TypeError("config must be a DeConfig or PsoConfig")
    c, epsilon, gamma = (float(v) for v in result.best_x)
    report, model = evaluate_triple(train, test, c, epsilon, gamma,
                                    settings=settings, method=method)
    wall = time.perf_counter() - t0
    report = replace(report, wall_time=wall, optimizer_history=result)
    return report, model


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[dict, ...]
    prediction_columns: tuple[str, ...] | None = None
    predictions: np.ndarray | None = None

    def render(self) -> str:
        lines = [f"{'method':<14} {'train_mse':>14} {'test_mse':>14} {'n_sv':>6}"]
        for r in self.rows:
            lines.append(
                f"{r['method']:<14} {r['train_mse']:>14.6g} {r['test_mse']:>14.6g} {r['n_sv']:>6d}"
            )
        return "\n".join(lines)

    def predictions_csv(self) -> str:
        if self.predictions is None:
            raise ValueError("no prediction table was built")
        return jsonio.csv_text(self.prediction_columns, self.predictions)


def compare_report(reports: Sequence[TuneReport],
                   normalizer: NormalizationMap | None = None,
                   test: SupervisedSet | None = None,
                   models: Sequence[SvrModel] | None = None) -> ComparisonTable:
    """Side-by-side method table, ordered svm_default, de_svm, pso_svm.

    With models and a test set, a per-row prediction table is added, in
    original price units when a normalization map is supplied.
    """
    if not reports:
        raise ValueError("reports must be non-empty")
    prints = {r.data_fingerprint for r in reports}
    if len(prints) > 1:
        raise ValueError("reports cover different datasets")
    if models is not None and len(models) != len(reports):
        raise ValueError("models must parallel reports")
    order = sorted(range(len(reports)),
                   key=lambda k: (METHOD_ORDER.get(reports[k].method, 99), k))
    rows = tuple(
        {
            "method": reports[k].method,
            "train_mse": reports[k].train_mse,
            "test_mse": reports[k].test_mse,
            "n_sv": reports[k].n_sv,
        }
        for k in order
    )
    columns = None
    table = None
    if models is not None and test is not None and len(test) > 0:
        actual = test.targets
        cols = [actual]
        names = ["actual"]
        for k in order:
            pred = predict_batch(models[k], test.features)
            cols.append(pred)
            names.append(reports[k].method)
        table = np.column_stack(cols)
        if normalizer is not None:
            for c in range(table.shape[1]):
                table[:, c] = invert_normalizer(normalizer, test.target_name, table[:, c])
        columns = tuple(names)
    return ComparisonTable(rows=rows, prediction_columns=columns, predictions=table)


def report_to_json(report: TuneReport) -> str:
    """Reproducible report document.

    wall_time is deliberately left out: outputs must be byte-identical
    across reruns and thread counts. It is still printed by the CLI.
    """
    opt = None
    if report.optimizer_history is not None:
        h = report.optimizer_history
        opt = {
            "best_x": [float(v) for v in h.best_x],
            "best_f": h.best_f,
            "evaluations": h.evaluations,
            "history": [[b, m] for b, m in h.history],
        }
    doc = {
        "method": report.method,
        "optimized": {"c": report.c, "epsilon": report.epsilon, "gamma": report.gamma},
        "train_mse": report.train_mse,
        "test_mse": report.test_mse,
        "n_sv": report.n_sv,
        "data_fingerprint": report.data_fingerprint,
        "optimizer_history": opt,
    }
    return jsonio.dumps(doc)


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    return jsonio.csv_text(("value", "train_mse", "test_mse", "n_sv"),
                           ((r.value, r.train_mse, r.test_mse, r.n_sv) for r in rows))
