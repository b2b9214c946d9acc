import ast
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import svrtune.svr as svr_mod
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
    train_svr,
    train_svr_batch,
)
from svrtune.synth import noisy_sine

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

    def test_lazy_kernel_path_consistent(self, monkeypatch):
        X, y = noisy_sine(40, seed=9)
        params = SvrParams(c=2.0, epsilon=0.05, kernel=RBF)
        dense = train_svr(X, y, params, SolverSettings(max_passes=500))
        monkeypatch.setattr(svr_mod, "KERNEL_CACHE_LIMIT", 8)
        lazy = train_svr(X, y, params, SolverSettings(max_passes=500))
        assert models_equal(lazy, dense)
        np.testing.assert_array_equal(predict_batch(lazy, X), predict_batch(dense, X))


def scalar_fits(monkeypatch, X, y, params, settings, geometry=None):
    """train_svr at each of params, checked to run the scalar loop alone from
    beta = 0: the reference the lockstep loop must equal."""
    starts = []
    solve_alone = svr_mod._solve_dual

    def recording(kernel, y, c, epsilon, tol, max_steps, start=None):
        starts.append(start[4])
        return solve_alone(kernel, y, c, epsilon, tol, max_steps, start)

    with monkeypatch.context() as patch:
        patch.setattr(svr_mod, "_solve_dual", recording)
        models = [train_svr(X, y, p, settings, geometry=geometry) for p in params]
    assert starts == [0] * len(params)
    return models


# (c, epsilon, gamma) on noisy_sine(60, seed=3) at tolerance 1e-9 and 20
# passes (1,200 steps), with how the solve ends on all 60 rows
STOPS = [
    (5.0, 0.5, 1.0),  # stuck at step 38
    (100.0, 0.01, 0.05),  # reaches the step cap
    (0.5, 0.01, 1.0),  # converges at step 676
    (0.5, 0.1, 0.05),  # stuck at step 491
    (0.5, 0.5, 20.0),  # converges at step 49
]


@pytest.mark.parametrize("lockstep_min", [1, 3], ids=["lockstep", "handoff"])
@pytest.mark.parametrize("count", [1, 2, len(STOPS)])
@pytest.mark.parametrize("rows", [None, np.arange(5, 55), np.r_[0:20, 30:60]],
                         ids=["all", "contiguous", "ix"])
@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
def test_batch_equals_scalar(monkeypatch, lazy, rows, count, lockstep_min):
    """Lockstep fits are train_svr's models bit for bit, whichever step each
    member stops at, however the kernel rows are reached, and whether the
    lockstep loop runs to the end or hands its last fits to the scalar loop."""
    if lazy:
        monkeypatch.setattr(svr_mod, "KERNEL_CACHE_LIMIT", 8)
    X, y = noisy_sine(60, seed=3)
    geometry = KernelGeometry(X)
    if rows is not None:
        X, y, geometry = X[rows], y[rows], geometry.subset(rows)
    assert (geometry.base is None) == lazy
    settings = SolverSettings(kkt_tolerance=1e-9, max_passes=20)
    params = [SvrParams(c, eps, KernelSpec(gamma=gamma)) for c, eps, gamma in STOPS[:count]]
    scalar = scalar_fits(monkeypatch, X, y, params, settings, geometry)
    monkeypatch.setattr(svr_mod, "LOCKSTEP_MIN", lockstep_min)
    batch = train_svr_batch(X, y, params, settings, geometry=geometry)
    assert len(batch) == count
    for a, b in zip(batch, scalar):
        assert models_equal(a, b)
        assert a.params == b.params
    if rows is None and count == len(STOPS):
        ends = {"converged" if m.diagnostics.max_kkt_violation <= 1e-9
                else "capped" if m.diagnostics.iterations == 1200 else "stuck" for m in scalar}
        assert ends == {"converged", "capped", "stuck"}


@pytest.mark.parametrize("seed, triples", [
    (28, [(5.0, 0.1, 20.0), (0.5, 0.01, 1.0)]),  # a step lands 8.9e-16 below -C
    (14, [(3.0, 0.0, 20.0), (0.5, 0.01, 1.0)]),  # a step lands 4.4e-16 below C
], ids=["lower", "upper"])
def test_batch_snaps_to_the_box_as_scalar(monkeypatch, seed, triples):
    """Steps that land within the snap margin of a box edge are snapped onto
    it; the lockstep loop must snap exactly as the scalar loop does."""
    X, y = noisy_sine(60, seed=seed)
    settings = SolverSettings(max_passes=20)
    params = [SvrParams(c, eps, KernelSpec(gamma=gamma)) for c, eps, gamma in triples]
    scalar = scalar_fits(monkeypatch, X, y, params, settings)
    monkeypatch.setattr(svr_mod, "LOCKSTEP_MIN", 1)
    assert all(map(models_equal, train_svr_batch(X, y, params, settings), scalar))


def test_c_must_exceed_the_sv_threshold():
    """A C at or below SV_THRESHOLD bounds every |beta| by it, so no model
    keeps a support vector (and at C 1e-11 the solve ends with bias -inf):
    SvrParams refuses it, and takes the next double above."""
    for c in (1e-11, 4e-11, svr_mod.SV_THRESHOLD):
        with pytest.raises(ValueError, match="support vector"):
            SvrParams(c=c, epsilon=0.01, kernel=RBF)
    SvrParams(c=float(np.nextafter(svr_mod.SV_THRESHOLD, 1.0)), epsilon=0.01, kernel=RBF)


def test_last_fits_finish_in_the_scalar_loop(monkeypatch):
    """Once fewer than LOCKSTEP_MIN fits are unfinished, each goes on alone
    in the scalar loop from where it stands; a batch of fewer is solved
    alone from the start."""
    X, y = noisy_sine(60, seed=3)
    settings = SolverSettings(kkt_tolerance=1e-9, max_passes=20)
    params = [SvrParams(c, eps, KernelSpec(gamma=gamma)) for c, eps, gamma in STOPS]
    scalar = [train_svr(X, y, p, settings) for p in params]
    starts = []
    solve_alone = svr_mod._solve_dual

    def recording(kernel, y, c, epsilon, tol, max_steps, start=None):
        starts.append((c, 0 if start is None else start[4]))
        return solve_alone(kernel, y, c, epsilon, tol, max_steps, start)

    monkeypatch.setattr(svr_mod, "_solve_dual", recording)
    monkeypatch.setattr(svr_mod, "LOCKSTEP_MIN", 3)
    assert train_svr_batch(X, y, [], settings) == []
    assert all(map(models_equal, train_svr_batch(X, y, params[:2], settings), scalar))
    assert starts == [(5.0, 0), (100.0, 0)]
    starts.clear()
    assert all(map(models_equal, train_svr_batch(X, y, params, settings), scalar))
    # the third fit to stop gets stuck in step 492; the capped and the
    # converging one go on alone from there
    assert starts == [(100.0, 492), (0.5, 492)]


# rows, (c, epsilon, gamma) triples, settings and the sha256 of every fit's
# solver output, recorded when the scalar loop was last rewritten
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
    one recorded in PINNED, whether a fit runs the scalar loop from
    beta = 0, the lockstep loop to its end, or hands off from one to the
    other. The other tests compare the two loops with each other, so a
    change to both alike would pass them; this one would fail."""
    X, y = noisy_sine(rows, seed=3)
    params = [SvrParams(c, eps, KernelSpec(gamma=gamma)) for c, eps, gamma in triples]
    solve_batch = svr_mod._solve_dual_batch

    def digest(fit) -> str:
        """sha256 of every solver output of the fits that fit() makes."""
        outputs = []

        def recording(*args):
            outputs.append(solve_batch(*args))
            return outputs[-1]

        monkeypatch.setattr(svr_mod, "_solve_dual_batch", recording)
        fit()
        h = hashlib.sha256()
        for beta, bias, steps, violation in outputs:
            for k in range(bias.shape[0]):
                h.update(beta[k].tobytes())
                h.update(struct.pack("<dqd", bias[k], steps[k], violation[k]))
        return h.hexdigest()

    assert digest(lambda: [train_svr(X, y, p, settings) for p in params]) == expected
    for lockstep_min in (1, 3):
        monkeypatch.setattr(svr_mod, "LOCKSTEP_MIN", lockstep_min)
        assert digest(lambda: train_svr_batch(X, y, params, settings)) == expected, lockstep_min


class TestPredict:
    def test_no_support_vectors_returns_bias(self):
        model = SvrModel(
            support_inputs=np.zeros((0, 4)), beta=np.zeros(0), bias=2.5,
            params=SvrParams(1.0, 0.1, RBF), n_sv=0,
            diagnostics=TrainingDiagnostics(0, 0.0),
        )
        assert predict(model, np.ones(4)) == 2.5

    def test_single_sv_at_itself(self):
        sv = np.array([[0.1, -0.2]])
        model = SvrModel(
            support_inputs=sv, beta=np.array([1.0]), bias=0.25,
            params=SvrParams(2.0, 0.1, RBF), n_sv=1,
            diagnostics=TrainingDiagnostics(0, 0.0),
        )
        assert predict(model, sv[0]) == pytest.approx(1.25, abs=1e-12)

    def test_dimension_mismatch(self):
        model = SvrModel(
            support_inputs=np.zeros((0, 4)), beta=np.zeros(0), bias=0.0,
            params=SvrParams(1.0, 0.1, RBF), n_sv=0,
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
    """train_svr_batch is the one way into the solver: train_svr makes no
    solver call of its own, and only _solve_dual_batch hands off to _solve_dual."""
    tree = ast.parse((Path(svr_mod.__file__).parent / "svr.py").read_text(encoding="utf-8"))
    calls = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            calls[fn.name] = {node.func.id for node in ast.walk(fn)
                              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert [name for name, called in calls.items() if "_solve_dual" in called] == ["_solve_dual_batch"]
    assert calls["train_svr"] == {"train_svr_batch"}
