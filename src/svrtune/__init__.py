"""svrtune: epsilon-SVR with DE and PSO hyperparameter search.

Library layout:
  dataset  - OHLCV ingestion, next-day-close task, min-max normalization
  svr      - RBF kernel, dual solver, prediction, MSE
  optim    - differential evolution and particle swarm optimization
  tuning   - heuristics, sweeps, DE-SVM / PSO-SVM search, comparison reports
  cli      - the `svrtune` command
"""

from .dataset import (
    DataError,
    NormalizationMap,
    RawSeries,
    SplitSpec,
    SupervisedSet,
    apply_normalizer,
    build_supervised,
    fit_normalizer,
    invert_normalizer,
    parse_csv,
    split,
)
from .optim import (
    DeConfig,
    ObjectiveError,
    OptResult,
    PsoConfig,
    SearchSpace,
    de_crossover,
    de_mutate,
    de_optimize,
    init_population,
    pso_optimize,
)
from .svr import (
    DEFAULT_PARAMS,
    KernelSpec,
    SolverSettings,
    SvrModel,
    SvrParams,
    TrainingDiagnostics,
    kernel_eval,
    mse,
    predict,
    predict_batch,
    train_svr,
)
from .tuning import (
    PRESET_BOXES,
    ComparisonTable,
    FitnessSpec,
    ParamBox,
    SweepRow,
    SweepSpec,
    TuneReport,
    compare_report,
    evaluate_triple,
    heuristic_c,
    heuristic_gamma,
    make_fitness,
    select_range_by_sv_fraction,
    sweep,
    tune,
)

__version__ = "0.1.0"
