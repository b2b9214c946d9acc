import concurrent.futures
import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import svrtune.optim as optim
from svrtune.benchmarks import rosenbrock, sphere
from svrtune.dataset import SupervisedSet
from svrtune.optim import (
    DeConfig,
    ObjectiveError,
    PsoConfig,
    SearchSpace,
    de_crossover,
    de_mutate,
    de_optimize,
    history_csv,
    init_population,
    pso_optimize,
)
from svrtune.svr import SolverSettings
from svrtune.tuning import FitnessSpec, ParamBox, make_fitness

BOX2 = SearchSpace((("a", -5.0, 5.0), ("b", -5.0, 5.0)))


def rng_for(seed=0, gen=1, idx=0):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(gen, idx))
    return np.random.Generator(np.random.PCG64(ss))


class TestSearchSpace:
    def test_degenerate_dimension_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace((("x", 1.0, 1.0),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(())

    def test_bounds_arrays(self):
        assert BOX2.d == 2
        assert np.array_equal(BOX2.lower, [-5.0, -5.0])
        assert np.array_equal(BOX2.span, [10.0, 10.0])


class TestConfigs:
    def test_de_population_floor(self):
        with pytest.raises(ValueError, match="pop_size"):
            DeConfig(pop_size=3)

    def test_de_bad_values(self):
        with pytest.raises(ValueError):
            DeConfig(f=0.0)
        with pytest.raises(ValueError):
            DeConfig(cr=1.5)
        with pytest.raises(ValueError):
            DeConfig(strategy="best_2_exp")
        for f in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                DeConfig(f=f)

    def test_pso_bad_values(self):
        with pytest.raises(ValueError):
            PsoConfig(swarm=1)
        with pytest.raises(ValueError):
            PsoConfig(v_max_fraction=0.0)
        for name in ("w", "c1", "c2"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="finite"):
                    PsoConfig(**{name: value})


class TestInitPopulation:
    def test_within_bounds(self):
        space = SearchSpace((("x", 0.0, 1.0),))
        pop = init_population(space, 4, seed=0)
        assert pop.shape == (4, 1)
        assert np.all(pop >= 0.0) and np.all(pop <= 1.0)

    def test_same_seed_identical(self):
        a = init_population(BOX2, 12, seed=5)
        b = init_population(BOX2, 12, seed=5)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = init_population(BOX2, 12, seed=5)
        b = init_population(BOX2, 12, seed=6)
        assert not np.array_equal(a, b)


class TestMutate:
    def test_scale_collapse_rand_1(self):
        pop = init_population(BOX2, 8, seed=1)
        cfg = DeConfig(pop_size=8, f=1e-9)
        # with F ~ 0 the mutant collapses onto the base member x_r0
        mutant = de_mutate(pop, 0, DeConfig(pop_size=8, f=0.5), 0, rng_for())
        assert mutant.shape == (2,)
        cfg0 = DeConfig(pop_size=8, f=0.5, strategy="rand_1_bin")
        rng = rng_for(seed=3)
        m = de_mutate(pop, 2, cfg0, 0, rng)
        assert m.shape == (2,)

    def test_identical_population_fixed_point(self):
        members = np.tile(np.array([1.5, -2.0]), (6, 1))
        for strategy in ("rand_1_bin", "local_to_best_1_bin"):
            cfg = DeConfig(pop_size=6, f=0.8, strategy=strategy)
            mutant = de_mutate(members, 1, cfg, 0, rng_for())
            np.testing.assert_array_equal(mutant, [1.5, -2.0])

    def test_local_to_best_f_zero_returns_target(self):
        pop = init_population(BOX2, 6, seed=2)
        cfg = DeConfig(pop_size=6, f=1e-300, strategy="local_to_best_1_bin")
        mutant = de_mutate(pop, 3, cfg, 0, rng_for())
        np.testing.assert_allclose(mutant, pop[3], rtol=0, atol=1e-290)

    def test_rand_1_base_is_another_member(self):
        pop = init_population(BOX2, 6, seed=2)
        cfg = DeConfig(pop_size=6, f=1e-300, strategy="rand_1_bin")
        mutant = de_mutate(pop, 3, cfg, 0, rng_for())
        close = [np.allclose(mutant, pop[k], atol=1e-290) for k in range(6)]
        assert any(close)
        assert not close[3]

    def test_too_small_population(self):
        with pytest.raises(ValueError, match="too small"):
            de_mutate(np.zeros((3, 2)), 0, DeConfig(pop_size=4), 0, rng_for())


class TestCrossover:
    def test_cr_one_gives_mutant(self):
        t = np.zeros(6)
        m = np.arange(6.0)
        out = de_crossover(t, m, 1.0, rng_for())
        np.testing.assert_array_equal(out, m)

    def test_cr_zero_keeps_target_except_forced_index(self):
        t = np.zeros(6)
        m = np.ones(6)
        out = de_crossover(t, m, 0.0, rng_for(seed=9))
        assert out.sum() == 1.0  # exactly one forced mutant component

    def test_identical_sources(self):
        t = np.arange(4.0)
        out = de_crossover(t, t.copy(), 0.5, rng_for())
        np.testing.assert_array_equal(out, t)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            de_crossover(np.zeros(3), np.zeros(4), 0.5, rng_for())

    @given(
        arrays(np.float64, 5, elements=st.floats(-10, 10)),
        arrays(np.float64, 5, elements=st.floats(-10, 10)),
        st.floats(0.0, 1.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_lineage(self, target, mutant, cr, seed):
        out = de_crossover(target, mutant, cr, rng_for(seed=seed))
        for j in range(5):
            assert out[j] == target[j] or out[j] == mutant[j]


class TestDeOptimize:
    def test_constant_objective_flat_history(self):
        cfg = DeConfig(pop_size=6, g_max=10, seed=0)
        result = de_optimize(lambda x: 3.25, BOX2, cfg)
        assert result.best_f == 3.25
        assert all(b == 3.25 and m == 3.25 for b, m in result.history)

    def test_budget_exactness(self):
        calls = []

        def objective(x):
            calls.append(1)
            return sphere(x)

        cfg = DeConfig(pop_size=7, g_max=9, seed=1)
        result = de_optimize(objective, BOX2, cfg)
        assert result.evaluations == 7 * 10
        assert len(calls) == 7 * 10
        assert len(result.history) == 10

    def test_elitism_best_non_increasing(self):
        cfg = DeConfig(pop_size=10, g_max=30, seed=2)
        result = de_optimize(rosenbrock, BOX2, cfg)
        best = [b for b, _ in result.history]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    def test_bound_containment(self):
        seen = []

        def objective(x):
            seen.append(x.copy())
            return sphere(x)

        space = SearchSpace((("x", 0.5, 1.0), ("y", -2.0, -1.0)))
        de_optimize(objective, space, DeConfig(pop_size=6, g_max=15, seed=3))
        pts = np.array(seen)
        assert np.all(pts >= space.lower) and np.all(pts <= space.upper)

    def test_seed_determinism(self):
        cfg = DeConfig(pop_size=8, g_max=12, seed=4)
        a = de_optimize(sphere, BOX2, cfg)
        b = de_optimize(sphere, BOX2, cfg)
        assert np.array_equal(a.best_x, b.best_x)
        assert a.best_f == b.best_f
        assert a.history == b.history

    def test_worker_count_does_not_change_result(self):
        cfg = DeConfig(pop_size=6, g_max=6, seed=5)
        serial = de_optimize(sphere, BOX2, cfg, workers=1)
        parallel = de_optimize(sphere, BOX2, cfg, workers=2)
        assert np.array_equal(serial.best_x, parallel.best_x)
        assert serial.history == parallel.history

    def test_non_finite_objective_reports_point(self):
        def bad(x):
            return np.nan if x[0] > 0 else sphere(x)

        with pytest.raises(ObjectiveError) as err:
            de_optimize(bad, BOX2, DeConfig(pop_size=6, g_max=5, seed=6))
        assert err.value.point.shape == (2,)

    def test_local_to_best_strategy_converges(self):
        cfg = DeConfig(pop_size=12, g_max=60, f=0.9, cr=0.7,
                       strategy="local_to_best_1_bin", seed=7)
        result = de_optimize(sphere, BOX2, cfg)
        assert result.best_f < 1e-4


class TestPsoOptimize:
    def test_all_coefficients_zero_freezes_swarm(self):
        cfg = PsoConfig(swarm=5, w=0.0, c1=0.0, c2=0.0, iters=8, seed=0)
        result = pso_optimize(sphere, BOX2, cfg)
        means = [m for _, m in result.history]
        assert all(m == means[0] for m in means)

    def test_gbest_never_worsens(self):
        cfg = PsoConfig(swarm=10, iters=40, seed=1)
        result = pso_optimize(rosenbrock, BOX2, cfg)
        best = [b for b, _ in result.history]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    def test_already_at_optimum_stays(self):
        space = SearchSpace((("x", -1e-12, 1e-12),))
        result = pso_optimize(sphere, space, PsoConfig(swarm=4, iters=5, seed=2))
        assert result.history[0][0] <= 1e-24
        assert result.best_f <= result.history[0][0]

    def test_budget_exactness(self):
        calls = []

        def objective(x):
            calls.append(1)
            return sphere(x)

        result = pso_optimize(objective, BOX2, PsoConfig(swarm=6, iters=7, seed=3))
        assert result.evaluations == 6 * 8
        assert len(calls) == 6 * 8
        assert len(result.history) == 8

    def test_bound_containment(self):
        seen = []

        def objective(x):
            seen.append(x.copy())
            return sphere(x)

        space = SearchSpace((("x", 2.0, 3.0),))
        pso_optimize(objective, space, PsoConfig(swarm=5, iters=20, seed=4))
        pts = np.array(seen)
        assert np.all(pts >= 2.0) and np.all(pts <= 3.0)

    def test_seed_determinism_and_workers(self):
        cfg = PsoConfig(swarm=6, iters=6, seed=5)
        a = pso_optimize(sphere, BOX2, cfg, workers=1)
        b = pso_optimize(sphere, BOX2, cfg, workers=2)
        assert np.array_equal(a.best_x, b.best_x)
        assert a.history == b.history

    def test_non_finite_objective_aborts(self):
        def bad(x):
            return np.inf if x[0] < 0 else sphere(x)

        with pytest.raises(ObjectiveError):
            pso_optimize(bad, BOX2, PsoConfig(swarm=5, iters=5, seed=6))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("method", ["de", "pso"])
def test_batched_and_per_point_objectives_agree(method, workers):
    """An SvrObjective is called once per point without a pool; in the
    pool its memo stays in this process and each triple it has not scored
    is a worker task of its own. The result is the same as calling it
    through a plain function, which has no memo of its own to offer, so
    the pool calls it once per point."""
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 3.0, 41)
    feats = np.column_stack([np.sin(t + k) + 0.05 * rng.standard_normal(41) for k in range(5)])
    train = SupervisedSet(feats[:-1], feats[1:, 0])
    objective = make_fitness(train, FitnessSpec.holdout(0.25), settings=SolverSettings(max_passes=3))
    space = ParamBox((1.0, 100.0), (0.01, 0.3), (0.2, 4.0)).to_search_space()
    if method == "de":
        optimize, config = de_optimize, DeConfig(pop_size=14, g_max=3, f=0.9, cr=0.7, seed=2)
    else:
        optimize, config = pso_optimize, PsoConfig(swarm=14, iters=3, seed=2)
    batched = optimize(objective, space, config, workers=workers)
    per_point = optimize(lambda x: objective(x), space, config, workers=workers)
    assert np.array_equal(batched.best_x, per_point.best_x)
    assert batched.best_f == per_point.best_f
    assert batched.history == per_point.history
    assert batched.evaluations == per_point.evaluations == 14 * 4


@pytest.fixture
def recording_pool(monkeypatch):
    """A stand-in for the process pool that runs each task in this process
    as it is submitted, so a test starts no process. Its worker holds a
    deep copy of the objective, as a forked worker holds its own. Returns
    the list of pool sizes asked for and the list of points submitted, one
    per task."""
    sizes, tasks = [], []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
            sizes.append(max_workers)
            initializer(*copy.deepcopy(initargs))

        def submit(self, fn, point):
            tasks.append(np.array(point))
            future = concurrent.futures.Future()
            future.set_result(fn(point))
            return future

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    if hasattr(optim, "ProcessPoolExecutor"):
        monkeypatch.setattr(optim, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(optim, "_WORKER_OBJECTIVE", None)
    return sizes, tasks


@pytest.mark.parametrize("method", ["de", "pso"])
def test_pool_is_never_larger_than_the_population(recording_pool, method):
    """A process pool starts all its workers at the first submit, and a
    worker past the population size never gets a point, so the optimizers
    ask for at most one worker per member. Every point is a task of its own."""
    sizes, tasks = recording_pool
    if method == "de":
        optimize, config = de_optimize, DeConfig(pop_size=5, g_max=3, seed=8)
    else:
        optimize, config = pso_optimize, PsoConfig(swarm=5, iters=3, seed=8)
    serial = optimize(sphere, BOX2, config, workers=1)
    assert sizes == []
    for workers in (64, 100_000, 2):
        pooled = optimize(sphere, BOX2, config, workers=workers)
        assert sizes.pop() == min(workers, 5)
        assert [np.shape(point) for point in tasks] == [(2,)] * (5 * 4)
        tasks.clear()
        assert np.array_equal(pooled.best_x, serial.best_x)
        assert pooled.history == serial.history


def test_pool_calls_a_plain_objective_once_per_point(recording_pool):
    """An objective with no batch protocol gets no memo from the pool: each
    point scored is one task and one call, repeats included."""
    _, tasks = recording_pool
    calls = []

    def objective(x):
        calls.append(np.asarray(x).tobytes())
        return sphere(x)

    # the box clip piles the swarm onto corners, so points repeat
    space = SearchSpace((("a", 0.0, 0.1), ("b", 0.0, 0.1)))
    config = PsoConfig(swarm=6, iters=5, seed=1)
    result = pso_optimize(objective, space, config, workers=2)
    assert result.evaluations == len(calls) == len(tasks) == 6 * 6
    assert len(set(calls)) < len(calls)
    assert calls == [np.asarray(x).tobytes() for x in tasks]
    assert result.history == pso_optimize(sphere, space, config).history


@pytest.mark.parametrize("spec", [FitnessSpec.train_mse(), FitnessSpec.kfold(3)],
                         ids=["train-mse", "kfold"])
def test_pool_fits_each_triple_once_per_tune(recording_pool, monkeypatch, spec):
    """The parent's SvrObjective answers every triple it has scored: across
    the workers each distinct triple is fitted once per split in a whole
    tune, only new triples become tasks, largest C first, and the values are
    those of a serial run."""
    import svrtune.tuning as tuning

    _, tasks = recording_pool
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 3.0, 41)
    feats = np.column_stack([np.sin(t + k) + 0.05 * rng.standard_normal(41) for k in range(5)])
    train = SupervisedSet(feats[:-1], feats[1:, 0])
    settings = SolverSettings(max_passes=3)
    space = ParamBox((0.5, 8.0), (0.02, 0.1), (0.3, 1.5)).to_search_space()
    config = PsoConfig(swarm=8, iters=8, seed=0)
    serial = pso_optimize(make_fitness(train, spec, settings=settings), space, config)
    fitted = []
    train_svr = tuning.train_svr

    def counting(features, targets, params, *args, **kwargs):
        fitted.append(np.array([params.c, params.epsilon, params.kernel.gamma]).tobytes())
        return train_svr(features, targets, params, *args, **kwargs)

    monkeypatch.setattr(tuning, "train_svr", counting)
    scored = []
    objective = make_fitness(train, spec, settings=settings)
    evaluate_with = tuning.SvrObjective.evaluate_with

    def recording(self, points, score):
        if self is objective:  # the parent's calls; a worker's copy scores its task
            scored.append([np.asarray(x, dtype=np.float64).tobytes() for x in points])
        return evaluate_with(self, points, score)

    monkeypatch.setattr(tuning.SvrObjective, "evaluate_with", recording)
    pooled = pso_optimize(objective, space, config, workers=2)
    assert pooled.history == serial.history
    assert np.array_equal(pooled.best_x, serial.best_x)
    keys = [key for points in scored for key in points]
    distinct = list(dict.fromkeys(keys))
    assert len(keys) == 8 * 9 and len(distinct) < len(keys)
    assert [np.asarray(x).tobytes() for x in tasks] == list(dict.fromkeys(
        key for points in scored
        for key in sorted(dict.fromkeys(points), key=lambda k: -np.frombuffer(k)[0])))
    splits = len(objective.fold_indices() or [None])
    assert Counter(fitted) == {key: splits for key in distinct}


def test_serial_evaluator_scores_each_generation_in_one_batch(monkeypatch):
    """Without a pool, each generation is one batch for the evaluator, and
    every point of it one call of the objective, in order; evaluate_with is
    for pools only."""
    class Recording:
        def __init__(self):
            self.calls = []

        def __call__(self, x):
            self.calls.append(np.asarray(x).tobytes())
            return sphere(x)

        def evaluate_with(self, points, score):
            raise AssertionError("a serial run calls the objective point by point")

    batches = []
    evaluate = optim._Evaluator.__call__

    def recording(self, points):
        batches.append(points.copy())
        return evaluate(self, points)

    monkeypatch.setattr(optim._Evaluator, "__call__", recording)
    objective = Recording()
    config = DeConfig(pop_size=5, g_max=3, seed=0)
    result = de_optimize(objective, BOX2, config)
    assert [len(batch) for batch in batches] == [5] * 4
    assert objective.calls == [x.tobytes() for batch in batches for x in batch]
    assert result.evaluations == 5 * 4
    assert result.history == de_optimize(sphere, BOX2, config).history


def test_history_csv_format():
    result = de_optimize(sphere, BOX2, DeConfig(pop_size=5, g_max=3, seed=0))
    text = history_csv(result)
    lines = text.strip().splitlines()
    assert lines[0] == "generation,best_f,mean_f"
    assert len(lines) == 1 + 4
    assert lines[1].startswith("0,")
