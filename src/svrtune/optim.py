"""Population-based optimizers over bounded real vectors.

Differential evolution (rand/1/bin and local-to-best/1/bin) and gbest
particle swarm optimization, both fully deterministic per seed.

Randomness contract: every population member gets its own generator
substream per generation, derived as
  Generator(PCG64(SeedSequence(seed, spawn_key=(generation, index))))
with generation 0 reserved for initialization. All draws happen on the
coordinator; objective evaluations consume no randomness, so running them
in a worker pool cannot change results. Draw order within a member's
substream is fixed: DE draws partner indices, then the forced crossover
index, then the per-component uniforms; PSO draws r1 then r2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jsonio

__all__ = [
    "SearchSpace",
    "DeConfig",
    "PsoConfig",
    "OptResult",
    "ObjectiveError",
    "init_population",
    "de_mutate",
    "de_crossover",
    "de_optimize",
    "pso_optimize",
    "history_csv",
]

DE_STRATEGIES = ("rand_1_bin", "local_to_best_1_bin")


class ObjectiveError(RuntimeError):
    """Objective returned a non-finite value; carries the offending point."""

    def __init__(self, point: np.ndarray, value: float) -> None:
        self.point = np.asarray(point, dtype=np.float64)
        self.value = value
        super().__init__(
            f"objective returned non-finite value {value!r} at {self.point.tolist()}"
        )


@dataclass(frozen=True)
class SearchSpace:
    """Ordered, named box bounds; one (name, lo, hi) per dimension."""

    dims: tuple[tuple[str, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.dims) < 1:
            raise ValueError("search space needs at least one dimension")
        for name, lo, hi in self.dims:
            if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
                raise ValueError(f"dimension {name!r}: need finite hi > lo, got [{lo}, {hi}]")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.dims)

    @property
    def lower(self) -> np.ndarray:
        return np.array([lo for _, lo, _ in self.dims])

    @property
    def upper(self) -> np.ndarray:
        return np.array([hi for _, _, hi in self.dims])

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass(frozen=True)
class DeConfig:
    pop_size: int = 30
    f: float = 0.5
    cr: float = 0.9
    strategy: str = "rand_1_bin"
    g_max: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pop_size < 4:
            raise ValueError("pop_size must be >= 4 (mutation draws three distinct partners)")
        if not 0 < self.f < np.inf:
            raise ValueError("f must be finite and > 0")
        if not 0.0 <= self.cr <= 1.0:
            raise ValueError("cr must lie in [0, 1]")
        if self.strategy not in DE_STRATEGIES:
            raise ValueError(f"strategy must be one of {DE_STRATEGIES}")
        if self.g_max < 1:
            raise ValueError("g_max must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class PsoConfig:
    swarm: int = 30
    w: float = 0.729
    c1: float = 1.494
    c2: float = 1.494
    iters: int = 200
    v_max_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.swarm < 2:
            raise ValueError("swarm must be >= 2")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if not np.isfinite(self.w):
            raise ValueError("w must be finite")
        if not (0 <= self.c1 < np.inf and 0 <= self.c2 < np.inf):
            raise ValueError("acceleration coefficients must be finite and >= 0")
        if not 0.0 < self.v_max_fraction <= 1.0:
            raise ValueError("v_max_fraction must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class OptResult:
    """Best point found plus the per-generation (best_f, mean_f) trace."""

    best_x: np.ndarray
    best_f: float
    history: tuple[tuple[float, float], ...]
    evaluations: int

    def __post_init__(self) -> None:
        x = np.array(self.best_x, dtype=np.float64)
        x.setflags(write=False)
        object.__setattr__(self, "best_x", x)


def _member_rng(seed: int, generation: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(generation, index))
    return np.random.Generator(np.random.PCG64(ss))


def init_population(space: SearchSpace, size: int, seed: int) -> np.ndarray:
    """Uniform sample inside the box; substream (0, i) drives member i."""
    if size < 1:
        raise ValueError("population size must be >= 1")
    lower, upper = space.lower, space.upper
    members = np.empty((size, space.d))
    for i in range(size):
        members[i] = _member_rng(seed, 0, i).uniform(lower, upper)
    return members


def de_mutate(members: np.ndarray, target_index: int, config: DeConfig,
              best_index: int, rng: np.random.Generator) -> np.ndarray:
    """Mutant vector for one target.

    rand_1_bin:          v = x_r0 + F (x_r1 - x_r2)
    local_to_best_1_bin: v = x_i + F (x_best - x_i) + F (x_r1 - x_r2)
    Partner indices are distinct and never equal the target.
    """
    size = members.shape[0]
    if size < 4:
        raise ValueError("population too small to draw distinct partners")
    others = np.delete(np.arange(size), target_index)
    if config.strategy == "rand_1_bin":
        r0, r1, r2 = rng.choice(others, size=3, replace=False)
        return members[r0] + config.f * (members[r1] - members[r2])
    r1, r2 = rng.choice(others, size=2, replace=False)
    xi = members[target_index]
    return xi + config.f * (members[best_index] - xi) + config.f * (members[r1] - members[r2])


def de_crossover(target: np.ndarray, mutant: np.ndarray, cr: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Binomial crossover of two float vectors: mutant component where
    u_j <= cr or j == j_rand."""
    if target.shape != mutant.shape:
        raise ValueError("target and mutant dimensions differ")
    d = target.shape[0]
    j_rand = int(rng.integers(d))
    take = rng.random(d) <= cr
    take[j_rand] = True
    return np.where(take, mutant, target)


# the objective of this pool worker process, set once by _install_objective
_WORKER_OBJECTIVE: Callable | None = None


def _install_objective(objective: Callable) -> None:
    global _WORKER_OBJECTIVE
    _WORKER_OBJECTIVE = objective


def _score_in_worker(point) -> float:
    """The value at one point in a pool worker."""
    return _WORKER_OBJECTIVE(point)


class _Evaluator:
    """Batch objective evaluation, optionally over a process pool.

    Without a pool, the objective is called once per point. Each pool
    worker receives the objective once, when it starts, and every point it
    scores is a task of its own and one call of its copy, so a free worker
    takes the next point and no fixed share waits on its slowest fit. An
    objective with evaluate_with(points, score), as tuning.SvrObjective has,
    keeps its memo in this process: evaluate_with answers the points it has
    already scored and passes only the others here, once each, so a worker's
    copy never meets a point twice; any other objective is called once per
    point. Results are order-preserving, so worker count never changes
    outputs. A pool has at most batch_size workers, as more would get no
    point, and its modules are imported only when one is built.
    """

    def __init__(self, objective: Callable, workers: int, batch_size: int) -> None:
        self.objective = objective
        self.count = 0
        self._pool = None
        self._workers = max(1, min(int(workers), batch_size))
        if self._workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            ctx = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(max_workers=self._workers, mp_context=ctx,
                                             initializer=_install_objective,
                                             initargs=(objective,))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        rows = list(points)
        if self._pool is None:
            values = [self.objective(p) for p in rows]
        else:
            evaluate_with = getattr(self.objective, "evaluate_with", None)
            values = (evaluate_with(rows, self._in_pool) if evaluate_with is not None
                      else self._in_pool(rows))
        self.count += len(rows)
        out = np.asarray(values, dtype=np.float64)
        if not np.isfinite(out).all():
            bad = int(np.flatnonzero(~np.isfinite(out))[0])
            raise ObjectiveError(rows[bad], float(out[bad]))
        return out

    def _in_pool(self, points: list) -> list:
        """The value at each point, each point a pool task, submitted in order."""
        futures = [self._pool.submit(_score_in_worker, p) for p in points]
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def de_optimize(objective: Callable, space: SearchSpace, config: DeConfig,
                workers: int = 1) -> OptResult:
    """Generational DE with greedy one-to-one replacement (trial wins ties).

    Trials are clamped to the box after crossover. Exactly
    pop_size * (g_max + 1) objective evaluations are made, and the result's
    evaluations counts them all: points scored, whether or not the objective
    answered a repeated point from a memo.
    """
    evaluate = _Evaluator(objective, workers, config.pop_size)
    try:
        members = init_population(space, config.pop_size, config.seed)
        fitness = evaluate(members)
        lower, upper = space.lower, space.upper
        best_i = int(np.argmin(fitness))
        best_x = members[best_i].copy()
        best_f = float(fitness[best_i])
        history = [(best_f, float(fitness.mean()))]
        trials = np.empty_like(members)
        for g in range(1, config.g_max + 1):
            best_index = int(np.argmin(fitness))
            for i in range(config.pop_size):
                rng = _member_rng(config.seed, g, i)
                mutant = de_mutate(members, i, config, best_index, rng)
                trial = de_crossover(members[i], mutant, config.cr, rng)
                trial.clip(lower, upper, out=trial)
                trials[i] = trial
            trial_fit = evaluate(trials)
            improved = trial_fit <= fitness
            members[improved] = trials[improved]
            fitness[improved] = trial_fit[improved]
            gen_best = int(np.argmin(fitness))
            if fitness[gen_best] < best_f:
                best_f = float(fitness[gen_best])
                best_x = members[gen_best].copy()
            history.append((best_f, float(fitness.mean())))
        return OptResult(best_x=best_x, best_f=best_f,
                         history=tuple(history), evaluations=evaluate.count)
    finally:
        evaluate.close()


def pso_optimize(objective: Callable, space: SearchSpace, config: PsoConfig,
                 workers: int = 1) -> OptResult:
    """Synchronous gbest PSO with per-dimension velocity clamping.

    v <- w v + c1 r1 (pbest - x) + c2 r2 (gbest - x), x <- x + v, with
    velocities clamped to +/- v_max_fraction * span and positions to the box.
    Personal and global bests update on strict improvement. Exactly
    swarm * (iters + 1) objective evaluations are made, and the result's
    evaluations counts them all: points scored, whether or not the objective
    answered a repeated point from a memo.
    """
    evaluate = _Evaluator(objective, workers, config.swarm)
    try:
        x = init_population(space, config.swarm, config.seed)
        fitness = evaluate(x)
        lower, upper = space.lower, space.upper
        v_max = config.v_max_fraction * space.span
        v = np.zeros_like(x)
        pbest_x = x.copy()
        pbest_f = fitness.copy()
        g_i = int(np.argmin(pbest_f))
        gbest_x = pbest_x[g_i].copy()
        gbest_f = float(pbest_f[g_i])
        history = [(gbest_f, float(fitness.mean()))]
        for t in range(1, config.iters + 1):
            for i in range(config.swarm):
                rng = _member_rng(config.seed, t, i)
                r1 = rng.random(space.d)
                r2 = rng.random(space.d)
                v[i] = (config.w * v[i]
                        + config.c1 * r1 * (pbest_x[i] - x[i])
                        + config.c2 * r2 * (gbest_x - x[i]))
            v.clip(-v_max, v_max, out=v)
            x += v
            x.clip(lower, upper, out=x)
            fitness = evaluate(x)
            improved = fitness < pbest_f
            pbest_x[improved] = x[improved]
            pbest_f[improved] = fitness[improved]
            g_i = int(np.argmin(pbest_f))
            if pbest_f[g_i] < gbest_f:
                gbest_f = float(pbest_f[g_i])
                gbest_x = pbest_x[g_i].copy()
            history.append((gbest_f, float(fitness.mean())))
        return OptResult(best_x=gbest_x, best_f=gbest_f,
                         history=tuple(history), evaluations=evaluate.count)
    finally:
        evaluate.close()


def history_csv(result: OptResult) -> str:
    return jsonio.csv_text(("generation", "best_f", "mean_f"),
                           ((g, *pair) for g, pair in enumerate(result.history)))
