import ast
import copy
import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import svrtune.svr as svr_mod
import svrtune.tuning as tuning
from svrtune.dataset import SupervisedSet
from svrtune.svr import (
    KernelGeometry,
    KernelSpec,
    SolverSettings,
    SvrModel,
    SvrParams,
    TrainingDiagnostics,
    dual_objective,
    kernel_eval,
    model_from_json,
    model_to_json,
    mse,
    predict,
    predict_batch,
    predict_rows,
    train_svr,
)
from svrtune.synth import noisy_sine
from svrtune.tuning import FitnessSpec, SvrObjective

from reference_qp import reference_bias, reference_predict, reference_solution

RBF = KernelSpec("rbf", gamma=1.0)


def models_equal(a: SvrModel, b: SvrModel) -> bool:
    return (
        np.array_equal(a.support_inputs, b.support_inputs)
        and np.array_equal(a.beta, b.beta)
        and a.bias == b.bias
        and a.n_sv == b.n_sv
        and a.diagnostics == b.diagnostics
    )


class TestKernels:
    def test_rbf_zero_distance_is_one(self):
        x = np.array([0.3, -0.7, 2.0])
        assert kernel_eval(RBF, x, x) == 1.0

    def test_rbf_heuristic_width_value(self):
        # gamma = 0.0625 and squared distance 0.0625 gives exp(-1)
        spec = KernelSpec("rbf", gamma=0.0625)
        x = np.array([0.0])
        z = np.array([0.25])  # squared distance 0.0625
        assert kernel_eval(spec, x, z) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kernel_eval(RBF, [1, 2], [1, 2, 3])

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", gamma=0.0)
        with pytest.raises(ValueError):
            KernelSpec("polynomial")
        with pytest.raises(ValueError):
            KernelSpec("cubic")

    @given(
        arrays(np.float64, 3, elements=st.floats(-5, 5)),
        arrays(np.float64, 3, elements=st.floats(-5, 5)),
    )
    @settings(max_examples=100, deadline=None)
    def test_rbf_symmetric_and_bounded(self, x, z):
        v = kernel_eval(RBF, x, z)
        assert v == kernel_eval(RBF, z, x)
        assert 0.0 < v <= 1.0


class TestTrainSvr:
    def test_constant_targets_all_inside_tube(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        y = np.full(20, 7.0)
        params = SvrParams(c=2.0, epsilon=0.5, kernel=RBF)
        model = train_svr(X, y, params)
        assert model.n_sv == 0
        assert model.bias == 7.0
        assert predict(model, rng.normal(size=3)) == 7.0

    def test_five_point_instance_matches_reference_qp(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(5, 2))
        y = rng.uniform(-1, 1, size=5)
        params = SvrParams(c=1.5, epsilon=0.08, kernel=RBF)
        settings = SolverSettings(kkt_tolerance=1e-10, max_passes=1000)
        model = train_svr(X, y, params, settings)
        K = svr_mod._kernel_matrix(RBF, X)
        beta_full, _, _, _ = svr_mod._solve_dual(svr_mod._DenseKernel(K), y, 1.5, 0.08, 1e-10, 100000)
        ref_beta, ref_val = reference_solution(K, y, 1.5, 0.08)
        assert dual_objective(K, y, 0.08, beta_full) >= ref_val - 1e-6
        assert abs(dual_objective(K, y, 0.08, beta_full) - ref_val) <= 1e-6
        ref_b = reference_bias(K, y, 1.5, 0.08, ref_beta)
        ref_pred = reference_predict(lambda a, b: kernel_eval(RBF, a, b), X, ref_beta, ref_b, X)
        np.testing.assert_allclose(predict_batch(model, X), ref_pred, atol=1e-4)

    def test_free_sv_residuals_sit_on_tube(self):
        X, y = noisy_sine(80, seed=3)
        params = SvrParams(c=5.0, epsilon=0.05, kernel=KernelSpec("rbf", gamma=1.0))
        settings = SolverSettings(kkt_tolerance=1e-3, max_passes=500)
        model = train_svr(X, y, params, settings)
        resid = y - predict_batch(model, X)
        betas = np.zeros(len(y))
        for b_val, row in zip(model.beta, model.support_inputs):
            idx = np.flatnonzero((X == row).all(axis=1))[0]
            betas[idx] = b_val
        free = (np.abs(betas) > 1e-8) & (np.abs(betas) < 5.0 - 1e-9 * 5.0)
        assert free.any()
        assert np.all(np.abs(np.abs(resid[free]) - 0.05) <= 1e-3)

    def test_box_and_equality_invariants(self):
        X, y = noisy_sine(60, seed=5)
        params = SvrParams(c=3.0, epsilon=0.02, kernel=RBF)
        model = train_svr(X, y, params, SolverSettings(max_passes=500))
        assert np.all(np.abs(model.beta) <= 3.0 + 1e-12)
        assert abs(model.beta.sum()) <= 1e-3 * 3.0

    def test_epsilon_monotonicity_small(self):
        X, y = noisy_sine(60, seed=8)
        prev = None
        for eps in np.linspace(0.01, 0.4, 10):
            params = SvrParams(c=5.0, epsilon=float(eps), kernel=RBF)
            model = train_svr(X, y, params, SolverSettings(max_passes=500))
            if prev is not None:
                assert model.n_sv <= prev + 1
            prev = model.n_sv

    def test_deterministic_bit_identical(self):
        X, y = noisy_sine(50, seed=2)
        params = SvrParams(c=2.0, epsilon=0.05, kernel=RBF)
        a = train_svr(X, y, params)
        b = train_svr(X, y, params)
        assert models_equal(a, b)

    def test_single_point(self):
        model = train_svr(np.array([[1.0, 2.0]]), np.array([3.0]),
                          SvrParams(c=1.0, epsilon=0.1, kernel=RBF))
        assert model.n_sv == 0
        assert model.bias == 3.0

    def test_input_validation(self):
        params = SvrParams(c=1.0, epsilon=0.1, kernel=RBF)
        with pytest.raises(ValueError, match="at least one"):
            train_svr(np.zeros((0, 2)), np.zeros(0), params)
        with pytest.raises(ValueError, match="non-finite"):
            train_svr(np.array([[np.nan, 1.0]]), np.array([1.0]), params)
        with pytest.raises(ValueError):
            train_svr(np.ones((3, 2)), np.ones(4), params)
        with pytest.raises(ValueError):
            SvrParams(c=0.0, epsilon=0.1, kernel=RBF)
        with pytest.raises(ValueError):
            SvrParams(c=1.0, epsilon=-0.1, kernel=RBF)
        for tolerance in (0.0, -1e-3, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="kkt_tolerance"):
                SolverSettings(kkt_tolerance=tolerance)
        SolverSettings(kkt_tolerance=1e300)

    def test_lazy_kernel_path_consistent(self, monkeypatch):
        X, y = noisy_sine(40, seed=9)
        params = SvrParams(c=2.0, epsilon=0.05, kernel=RBF)
        dense = train_svr(X, y, params, SolverSettings(max_passes=500))
        monkeypatch.setattr(svr_mod, "KERNEL_CACHE_LIMIT", 8)
        lazy = train_svr(X, y, params, SolverSettings(max_passes=500))
        assert models_equal(lazy, dense)
        np.testing.assert_array_equal(predict_batch(lazy, X), predict_batch(dense, X))

    def test_lazy_solve_keeps_its_eta_cache_bounded(self, monkeypatch):
        """A solve on the lazy kernel holds at most ETA_CACHE_DOUBLES of
        cached eta rows, whatever the number of indices that lead a step,
        and its model is the dense solve's bit for bit. Peaks are traced
        numpy allocations, in n-length rows of doubles."""
        import tracemalloc

        n = 300
        rng = np.random.default_rng(0)
        X = rng.uniform(-1.0, 1.0, (n, 3))
        y = np.sin(3.0 * X[:, 0]) + 0.1 * rng.standard_normal(n)
        params = SvrParams(c=100.0, epsilon=0.01, kernel=KernelSpec(gamma=0.5))
        settings = SolverSettings(kkt_tolerance=1e-9, max_passes=3)
        dense = train_svr(X, y, params, settings)
        assert dense.diagnostics.iterations == 3 * n
        monkeypatch.setattr(svr_mod, "KERNEL_CACHE_LIMIT", 8)
        peaks = {}
        for cap in (8 * n, n * n):
            monkeypatch.setattr(svr_mod, "ETA_CACHE_DOUBLES", cap)
            tracemalloc.start()
            try:
                lazy = train_svr(X, y, params, settings)
                peaks[cap] = tracemalloc.get_traced_memory()[1] / (8 * n)
            finally:
                tracemalloc.stop()
            assert models_equal(lazy, dense)
        # about 30 rows under the cap of 8, about 150 with every row cached
        assert peaks[8 * n] < 40 < 100 < peaks[n * n]


@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
def test_predict_rows_equals_predict_batch(monkeypatch, lazy):
    """Scores read from a kernel geometry equal predict_batch bit for bit:
    on the training rows, a holdout tail, k-fold blocks whose fit rows are
    not contiguous, and for a model with no support vector (epsilon above
    every |y|)."""
    if lazy:
        monkeypatch.setattr(svr_mod, "KERNEL_CACHE_LIMIT", 10)
    X, y = noisy_sine(60, seed=3)
    assert np.abs(y).max() < 10.0
    geometry = KernelGeometry(X)
    assert (geometry.base is None) == lazy
    rows = np.arange(60)
    splits = [(rows, rows), (rows[:45], rows[45:]), (np.r_[0:20, 40:60], rows[20:40]),
              (rows[20:], rows[:20])]
    params = [SvrParams(c, eps, KernelSpec(gamma=gamma)) for c, eps, gamma in
              [(5.0, 0.05, 1.0), (100.0, 0.01, 0.05), (0.5, 0.2, 3.0), (1.0, 10.0, 1.0)]]
    settings = SolverSettings(max_passes=20)
    for fit, val in splits:
        subset = geometry.subset(fit)
        models = [train_svr(X[fit], y[fit], p, settings, geometry=subset) for p in params]
        assert min(model.n_sv for model in models[:-1]) > 8 and models[-1].n_sv == 0
        for model in models:
            np.testing.assert_array_equal(model.support_inputs, X[fit][model.support_rows])
            for scored in (val, fit):
                got = predict_rows(model, geometry, scored, fit)
                assert got.tobytes() == predict_batch(model, X[scored]).tobytes()
    model = train_svr(X, y, params[0], settings, geometry=geometry)
    assert predict_rows(model, geometry, rows).tobytes() == predict_batch(model, X).tobytes()
    with pytest.raises(ValueError, match="support rows"):
        predict_rows(model_from_json(model_to_json(model)), geometry, rows)


def test_contiguous_subset_is_a_view_without_an_index_grid(monkeypatch):
    """A contiguous run of rows is a view of the base and its features; no
    np.ix_ grid is built for it. Other rows take an index sub-block."""
    X = np.random.default_rng(0).normal(size=(500, 3))
    geometry = KernelGeometry(X)

    def no_grid(*args):
        raise AssertionError("np.ix_ called")

    monkeypatch.setattr(svr_mod.np, "ix_", no_grid)
    sub = geometry.subset(np.arange(100, 400))
    assert sub.base.base is geometry.base and sub.features.base is X
    assert sub.base.tobytes() == KernelGeometry(X[100:400]).base.tobytes()
    monkeypatch.undo()
    rows = np.r_[0:100, 200:400]
    sub = geometry.subset(rows)
    assert not np.shares_memory(sub.base, geometry.base)
    assert sub.base.tobytes() == KernelGeometry(X[rows]).base.tobytes()


# (c, epsilon, gamma) on noisy_sine(60, seed=3) at tolerance 1e-9 and 20
# passes (1,200 steps), with how the solve ends on all 60 rows
STOPS = [
    (5.0, 0.5, 1.0),  # stuck at step 38
    (100.0, 0.01, 0.05),  # reaches the step cap
    (0.5, 0.01, 1.0),  # converges at step 676
    (0.5, 0.1, 0.05),  # stuck at step 491
    (0.5, 0.5, 20.0),  # converges at step 49
]


@pytest.mark.parametrize("mode", ["lockstep", "handoff"])
@pytest.mark.parametrize("count", [1, 2, len(STOPS)])
@pytest.mark.parametrize("spec", [FitnessSpec.train_mse(), FitnessSpec.holdout(1 / 6),
                                  FitnessSpec.kfold(3)], ids=["all", "contiguous", "ix"])
@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
def test_batch_equals_scalar(monkeypatch, lazy, spec, count, mode):
    """A batch of triples scored by an SvrObjective is the scalar composition
    bit for bit: each fit is the model train_svr builds from its split's rows
    alone, with a dense geometry of their own, and each fitness the mean of
    its splits' validation MSEs. That holds whether the objective's fits read
    its shared geometry whole (all), through a contiguous view (a holdout) or
    through an index sub-block (the middle of 3 folds), dense or lazy; and
    whether each triple of the batch goes to the objective's own scorer, or
    is handed off to a copy of the objective, as a pool worker scores it. On
    all 60 rows the STOPS fits end converged, capped and stuck."""
    X, y = noisy_sine(60, seed=3)
    train = SupervisedSet(X, y, column_names=("x",))
    settings = SolverSettings(kkt_tolerance=1e-9, max_passes=20)
    rows = np.arange(60)
    splits = SvrObjective(train, spec, settings).fold_indices() or [(rows, rows)]
    if spec.kind == "kfold":
        assert not np.array_equal(np.diff(splits[1][0]), np.ones(39))
    points = [np.array(triple) for triple in STOPS[:count]]
    alone, expected = {}, []
    for c, eps, gamma in STOPS[:count]:
        total = 0.0
        for fit, val in splits:
            model = train_svr(X[fit], y[fit], SvrParams(c, eps, KernelSpec(gamma=gamma)), settings)
            alone[(c, eps, gamma, X[fit].tobytes())] = model
            total += mse(y[val], predict_batch(model, X[val]))
        expected.append(total / len(splits))
    if lazy:
        monkeypatch.setattr(svr_mod, "KERNEL_CACHE_LIMIT", 8)
    objective = SvrObjective(train, spec, settings)
    assert (objective.geometry.base is None) == lazy
    fitted = {}
    fit_alone = tuning.train_svr

    def recording(features, targets, params, *args, **kwargs):
        model = fit_alone(features, targets, params, *args, **kwargs)
        key = (params.c, params.epsilon, params.kernel.gamma, features.tobytes())
        assert key not in fitted
        fitted[key] = model
        return model

    monkeypatch.setattr(tuning, "train_svr", recording)
    if mode == "lockstep":
        scored = objective.evaluate_with(points,
                                         lambda triples: [objective._score(x) for x in triples])
    else:
        worker = copy.deepcopy(objective)
        scored = objective.evaluate_with(points, lambda triples: [worker(x) for x in triples])
    assert scored == expected
    assert fitted.keys() == alone.keys()
    for key, model in alone.items():
        assert models_equal(fitted[key], model)
        assert fitted[key].params == model.params
    if spec.kind == "train_mse" and count == len(STOPS):
        ends = {"converged" if m.diagnostics.max_kkt_violation <= 1e-9
                else "capped" if m.diagnostics.iterations == 1200 else "stuck"
                for m in alone.values()}
        assert ends == {"converged", "capped", "stuck"}


@pytest.mark.parametrize("seed, triples, step, index, edge", [
    (28, [(5.0, 0.1, 20.0), (0.5, 0.01, 1.0)], 61, 42, -1.0),  # lands 8.9e-16 inside -C
    (14, [(3.0, 0.0, 20.0), (0.5, 0.01, 1.0)], 82, 54, 1.0),  # lands 4.4e-16 inside C
], ids=["lower", "upper"])
def test_batch_snaps_to_the_box_as_scalar(seed, triples, step, index, edge):
    """A step that lands within the snap margin of a box edge is snapped onto
    it: the coefficient it moves equals that edge, +-C, exactly. Fitted in a
    batch on one shared geometry, as a sweep fits its grid, the triples give
    the models they give alone."""
    X, y = noisy_sine(60, seed=seed)
    c, eps, gamma = triples[0]
    kernel = KernelGeometry(X).kernel(KernelSpec(gamma=gamma))
    before, _, _, _ = svr_mod._solve_dual(kernel, y, c, eps, 1e-3, step - 1)
    after, _, steps, _ = svr_mod._solve_dual(kernel, y, c, eps, 1e-3, step)
    assert steps == step
    assert before[index] != after[index] == edge * c
    settings = SolverSettings(max_passes=20)
    params = [SvrParams(c, eps, KernelSpec(gamma=gamma)) for c, eps, gamma in triples]
    geometry = KernelGeometry(X)
    batch = [train_svr(X, y, p, settings, geometry=geometry) for p in params]
    assert all(map(models_equal, batch, [train_svr(X, y, p, settings) for p in params]))


def test_c_must_exceed_the_sv_threshold():
    """A C at or below SV_THRESHOLD bounds every |beta| by it, so no model
    keeps a support vector (and at C 1e-11 the solve ends with bias -inf):
    SvrParams refuses it, and takes the next double above."""
    for c in (1e-11, 4e-11, svr_mod.SV_THRESHOLD):
        with pytest.raises(ValueError, match="support vector"):
            SvrParams(c=c, epsilon=0.01, kernel=RBF)
    SvrParams(c=float(np.nextafter(svr_mod.SV_THRESHOLD, 1.0)), epsilon=0.01, kernel=RBF)


def test_c_is_at_most_a_quarter_of_the_largest_double():
    """The pair bounds c - b_i and b_j + c reach 2C, which overflows past half
    the largest double: at C 8.9e307 a fit keeps 2 support vectors with a
    KKT violation of 1.78e308. SvrParams refuses a C past a quarter of it,
    and at that limit the fit is the one at C 1e306, where C does not bind."""
    limit = sys.float_info.max / 4
    for c in (float(np.nextafter(limit, np.inf)), 8.9e307, 1e308):
        with pytest.raises(ValueError, match="overflow"):
            SvrParams(c=c, epsilon=0.1, kernel=RBF)
    X, y = noisy_sine(60, seed=3)
    settings = SolverSettings(max_passes=20)
    at_limit = train_svr(X, y, SvrParams(limit, 0.1, RBF), settings)
    assert models_equal(at_limit, train_svr(X, y, SvrParams(1e306, 0.1, RBF), settings))
    assert at_limit.n_sv == 31 and at_limit.bias == pytest.approx(0.0714, abs=1e-4)


def test_last_fits_finish_in_the_scalar_loop(monkeypatch):
    """Every fit of a batch, the last ones too, is one run of the solver loop,
    _solve_dual, from beta = 0 to its own end, however large the batch: an
    objective scoring 20 triples one after another makes 20 solves, each
    stopping at the step where that triple's fit alone stops."""
    X, y = noisy_sine(60, seed=3)
    settings = SolverSettings(kkt_tolerance=1e-9, max_passes=20)
    alone = [train_svr(X, y, SvrParams(c, eps, KernelSpec(gamma=gamma)), settings)
             for c, eps, gamma in STOPS]
    objective = SvrObjective(SupervisedSet(X, y, column_names=("x",)),
                             FitnessSpec.train_mse(), settings)
    solves = []
    solve = svr_mod._solve_dual

    def recording(kernel, y, c, epsilon, tol, max_steps):
        out = solve(kernel, y, c, epsilon, tol, max_steps)
        solves.append((c, epsilon, out[2]))
        return out

    monkeypatch.setattr(svr_mod, "_solve_dual", recording)
    scored = [objective._score(np.array(triple)) for triple in STOPS * 4]
    assert solves == [(c, eps, m.diagnostics.iterations)
                      for (c, eps, _), m in zip(STOPS, alone)] * 4
    assert scored == [mse(y, predict_batch(m, X)) for m in alone] * 4


# sha256 of np.exp at 1,000,001 points of [-30, 0] under numpy 2.4.6's
# AVX-512 float64 exp; the AVX2 code of the same build gives 6199f2388fda6bd3...
EXP_DIGEST = "970c0f8e2e35e044d7fab3eaec448fd9d7d5f209eefab6c434100d7336cbb2bc"


def test_pinned_digests_belong_to_the_avx512_exp():
    """Byte-identical outputs hold for one numpy build and one CPU dispatch
    of np.exp: numpy picks its float64 exp kernel by CPU at run time, and
    kernels and synthetic walks go through it. This names the dispatch that
    the pinned digests of these tests were recorded under."""
    digest = hashlib.sha256(np.exp(np.linspace(-30.0, 0.0, 1_000_001)).tobytes()).hexdigest()
    assert digest == EXP_DIGEST, (
        "np.exp is not numpy 2.4.6's AVX-512 float64 kernel here; the pinned digests in "
        "tests/test_svr.py and tests/test_cli.py were recorded under that dispatch, so they "
        "differ on this machine without any fault in the program")


# rows, (c, epsilon, gamma) triples, settings and the sha256 of every fit's
# solver output, recorded when the solver loop was last rewritten
PINNED = [
    pytest.param(60, STOPS, SolverSettings(kkt_tolerance=1e-9, max_passes=20),
                 "7f2e7e780ef5e37ed8fc8c095031c5181ae0491a316adfbfa1fa8e2057dc4ce5", id="stops"),
    # 400 rows at C near 500: every fit stops at the cap of 1,200 steps
    pytest.param(400, [(500.0, 0.01, 1.0), (480.0, 0.05, 0.2), (520.0, 0.02, 4.0)],
                 SolverSettings(max_passes=3),
                 "9e309e3daa1843bf892ec843a85e2b16fc5f1e60d575f28ca25d807985e5dfe0", id="capped-400"),
]


@pytest.mark.parametrize("rows, triples, settings, expected", PINNED)
def test_solver_bits_are_pinned(monkeypatch, rows, triples, settings, expected):
    """The solver's output, bit for bit (the sign of a zero beta too), is the
    one recorded in PINNED. The other tests compare fits with each other, so
    a change to the solver alone would pass them; this one would fail."""
    X, y = noisy_sine(rows, seed=3)
    outputs = []
    solve = svr_mod._solve_dual

    def recording(*args):
        outputs.append(solve(*args))
        return outputs[-1]

    monkeypatch.setattr(svr_mod, "_solve_dual", recording)
    for c, eps, gamma in triples:
        train_svr(X, y, SvrParams(c, eps, KernelSpec(gamma=gamma)), settings)
    h = hashlib.sha256()
    for beta, bias, steps, violation in outputs:
        h.update(beta.tobytes())
        h.update(struct.pack("<dqd", bias, steps, violation))
    assert len(outputs) == len(triples)
    assert h.hexdigest() == expected


class TestPredict:
    def test_no_support_vectors_returns_bias(self):
        model = SvrModel(
            support_inputs=np.zeros((0, 4)), beta=np.zeros(0), bias=2.5,
            params=SvrParams(1.0, 0.1, RBF),
            diagnostics=TrainingDiagnostics(0, 0.0),
        )
        assert predict(model, np.ones(4)) == 2.5

    def test_single_sv_at_itself(self):
        sv = np.array([[0.1, -0.2]])
        model = SvrModel(
            support_inputs=sv, beta=np.array([1.0]), bias=0.25,
            params=SvrParams(2.0, 0.1, RBF),
            diagnostics=TrainingDiagnostics(0, 0.0),
        )
        assert predict(model, sv[0]) == pytest.approx(1.25, abs=1e-12)

    def test_dimension_mismatch(self):
        model = SvrModel(
            support_inputs=np.zeros((0, 4)), beta=np.zeros(0), bias=0.0,
            params=SvrParams(1.0, 0.1, RBF),
            diagnostics=TrainingDiagnostics(0, 0.0),
        )
        with pytest.raises(ValueError, match="dimension"):
            predict(model, np.ones(3))

    def test_batch_matches_scalar(self):
        X, y = noisy_sine(30, seed=4)
        model = train_svr(X, y, SvrParams(1.0, 0.05, RBF))
        batch = predict_batch(model, X[:5])
        singles = [predict(model, x) for x in X[:5]]
        np.testing.assert_allclose(batch, singles, rtol=0, atol=0)


class TestMse:
    def test_identity_is_zero(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_unit_residuals(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_direct_arithmetic(self):
        assert mse([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError, match="length"):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="empty"):
            mse([], [])

    @given(arrays(np.float64, 8, elements=st.floats(-1e3, 1e3)),
           arrays(np.float64, 8, elements=st.floats(-1e3, 1e3)))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_symmetric(self, a, p):
        assert mse(a, p) >= 0.0
        assert mse(a, p) == mse(p, a)


class TestModelJson:
    def test_round_trip_bit_exact(self):
        X, y = noisy_sine(40, seed=6)
        model = train_svr(X, y, SvrParams(2.0, 0.05, KernelSpec("rbf", gamma=0.7)))
        text = model_to_json(model)
        again = model_from_json(text)
        assert models_equal(model, again)
        assert model_to_json(again) == text

    def test_earlier_format_with_degree_and_shift_loads(self):
        X, y = noisy_sine(40, seed=6)
        model = train_svr(X, y, SvrParams(2.0, 0.05, KernelSpec("rbf", gamma=0.7)))
        doc = json.loads(model_to_json(model))
        doc["kernel"].update(degree=3, shift=0)
        again = model_from_json(json.dumps(doc))
        assert models_equal(model, again)
        np.testing.assert_array_equal(predict_batch(again, X), predict_batch(model, X))
        assert model_to_json(again) == model_to_json(model)

    def test_n_sv_must_count_the_coefficients(self):
        """n_sv is the length of beta; a file whose n_sv says otherwise is
        refused."""
        X, y = noisy_sine(40, seed=6)
        model = train_svr(X, y, SvrParams(2.0, 0.05, KernelSpec("rbf", gamma=0.7)))
        doc = json.loads(model_to_json(model))
        assert doc["n_sv"] == model.n_sv == len(doc["beta"]) == model.beta.shape[0] > 0
        for wrong in (doc["n_sv"] - 1, doc["n_sv"] + 1, 0, 99999):
            with pytest.raises(ValueError, match="n_sv"):
                model_from_json(json.dumps({**doc, "n_sv": wrong}))

    def test_n_features_must_be_the_width_of_the_support_inputs(self):
        """A file whose n_features is not the width of its support_inputs is
        refused, with both widths named."""
        X = np.random.default_rng(6).uniform(-1.0, 1.0, (30, 5))
        model = train_svr(X, np.sin(3.0 * X[:, 0]), SvrParams(2.0, 0.05, KernelSpec("rbf", gamma=0.7)))
        doc = json.loads(model_to_json(model))
        assert doc["n_features"] == model.n_features == 5 and model.n_sv > 0
        for wrong in (4, 6, 0):
            with pytest.raises(ValueError, match=f"n_features {wrong} .* 5 columns"):
                model_from_json(json.dumps({**doc, "n_features": wrong}))

    def test_round_trip_empty_model(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        model = train_svr(X, np.full(5, 1.5), SvrParams(1.0, 0.5, RBF))
        again = model_from_json(model_to_json(model))
        assert again.n_sv == 0
        assert again.n_features == 3
        assert predict(again, np.zeros(3)) == model.bias


def test_svr_is_blas_free_and_tuning_uses_its_public_names():
    """svr computes with no BLAS call, so outputs do not depend on the BLAS
    library or its thread count; tuning reaches svr only through public names."""
    src = Path(svr_mod.__file__).parent
    blas = {"dot", "matmul", "inner", "einsum", "vdot"}
    for node in ast.walk(ast.parse((src / "svr.py").read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.MatMult), f"svr.py:{node.lineno} uses @"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            assert name not in blas, f"svr.py:{node.lineno} calls {name}"
    imported = [alias.name for node in ast.walk(ast.parse((src / "tuning.py").read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module in ("svr", "svrtune.svr")
                for alias in node.names]
    assert imported and not [name for name in imported if name.startswith("_")], imported


def test_one_fit_path():
    """train_svr is the one way into the solver: no other function of svr
    calls _solve_dual."""
    tree = ast.parse((Path(svr_mod.__file__).parent / "svr.py").read_text(encoding="utf-8"))
    calls = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            calls[fn.name] = {node.func.id for node in ast.walk(fn)
                              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert [name for name, called in calls.items() if "_solve_dual" in called] == ["train_svr"]
