from collections import Counter

import numpy as np
import pytest

import svrtune.svr as svr_mod
import svrtune.tuning as tuning
from svrtune.dataset import SplitSpec, SupervisedSet, apply_normalizer, fit_normalizer, invert_normalizer, split
from svrtune.optim import DeConfig, PsoConfig
from svrtune.svr import (
    DEFAULT_PARAMS,
    KernelSpec,
    SolverSettings,
    SvrParams,
    mse,
    predict_batch,
    train_svr,
)
from svrtune.tuning import (
    PRESET_BOXES,
    FitnessSpec,
    ParamBox,
    SweepRow,
    SweepSpec,
    compare_report,
    evaluate_triple,
    heuristic_c,
    heuristic_gamma,
    make_fitness,
    report_to_json,
    select_range_by_sv_fraction,
    sweep,
    sweep_rows_to_csv,
    tune,
)

SETTINGS = SolverSettings(max_passes=300)


def wave_set(n=60, seed=0, scale=1.0):
    """Small smooth regression problem shaped like the OHLCV task."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 4.0 * np.pi, n)
    base = np.sin(t) + 0.05 * rng.standard_normal(n)
    feats = np.column_stack([
        base + 0.01 * rng.standard_normal(n),
        base + 0.02,
        base - 0.02,
        0.9 * base,
        scale * (1.0 + 0.1 * rng.standard_normal(n)),
    ])
    targets = np.roll(base, -1)
    return SupervisedSet(feats[:-1], targets[:-1])


def wave_split(n=80, seed=0):
    sset = wave_set(n, seed)
    return split(sset, SplitSpec(int(0.75 * len(sset)), len(sset) - int(0.75 * len(sset))))


class TestParamBox:
    def test_presets_match_published_ranges(self):
        assert PRESET_BOXES["apple-normalized"] == ParamBox((1.0, 550.0), (0.033, 0.052), (0.01, 0.11))
        assert PRESET_BOXES["apple-raw"] == ParamBox((1.0, 300.0), (0.033, 0.052), (0.01, 0.1))
        assert PRESET_BOXES["honeywell-normalized"] == ParamBox((1.0, 440.0), (0.08, 0.15), (0.02, 0.08))
        assert PRESET_BOXES["honeywell-raw"] == ParamBox((1.0, 60.0), (0.05, 0.07), (0.01, 0.1))

    def test_validation(self):
        with pytest.raises(ValueError):
            ParamBox((0.0, 10.0), (0.01, 0.1), (0.1, 1.0))
        with pytest.raises(ValueError):
            ParamBox((1.0, 10.0), (0.1, 0.01), (0.1, 1.0))
        with pytest.raises(ValueError, match="support vector"):
            ParamBox((svr_mod.SV_THRESHOLD, 10.0), (0.01, 0.1), (0.1, 1.0))
        with pytest.raises(ValueError, match="overflow"):  # the high corner is checked too
            ParamBox((1.0, 1e308), (0.01, 0.1), (0.1, 1.0))
        ParamBox((1.0, 10.0), (0.0, 0.1), (0.1, 1.0))  # epsilon lo may be 0

    def test_search_space_names(self):
        space = PRESET_BOXES["apple-normalized"].to_search_space()
        assert space.names == ("c", "epsilon", "gamma")


class TestHeuristics:
    def test_c_symmetric_targets(self):
        targets = np.array([-1.0, 1.0])  # mean 0, sample std sqrt(2)
        assert heuristic_c(targets) == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-12)

    def test_c_direct_arithmetic(self):
        targets = np.array([10.0 - np.sqrt(2.0), 10.0 + np.sqrt(2.0)])  # mean 10, std 2
        assert heuristic_c(targets) == pytest.approx(16.0, rel=1e-12)

    def test_c_needs_two_targets(self):
        with pytest.raises(ValueError):
            heuristic_c([1.0])

    def test_gamma_fixed_value(self):
        assert heuristic_gamma() == 0.0625

    def test_gamma_implied_sigma(self):
        sigma = np.sqrt(heuristic_gamma() / 2.0)
        assert sigma == pytest.approx(0.17677669529663687, rel=1e-12)


class TestSweep:
    @pytest.mark.parametrize("grid", [(0.05,), tuple(np.linspace(0.01, 0.3, 8))],
                             ids=["1-point", "8-point"])
    def test_single_point_equals_direct_composition(self, grid):
        """Each row is a per-point train_svr plus mse, bit for bit."""
        train, test = wave_split()
        spec = SweepSpec(varying="epsilon", grid=grid, c=2.0, gamma=0.5)
        rows = sweep(train, test, spec, SETTINGS, seed=0)
        assert [row.value for row in rows] == list(grid)
        for row, epsilon in zip(rows, grid):
            params = SvrParams(2.0, epsilon, KernelSpec("rbf", gamma=0.5))
            model = train_svr(train.features, train.targets, params, SETTINGS)
            assert row.train_mse == mse(train.targets, predict_batch(model, train.features))
            assert row.test_mse == mse(test.targets, predict_batch(model, test.features))
            assert row.n_sv == model.n_sv

    def test_grid_value_the_params_reject_names_it(self):
        with pytest.raises(ValueError, match="grid value 0.0"):
            SweepSpec("c", (0.0, 1.0), epsilon=0.05, gamma=0.5)

    def test_duplicate_grid_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec(varying="epsilon", grid=(0.05, 0.05), c=1.0, gamma=0.5)

    def test_missing_fixed_value_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            SweepSpec(varying="epsilon", grid=(0.05,), c=1.0)

    def test_varying_value_must_be_none(self):
        with pytest.raises(ValueError):
            SweepSpec(varying="epsilon", grid=(0.05,), c=1.0, epsilon=0.1, gamma=0.5)

    def test_epsilon_sweep_sv_counts_non_increasing(self):
        train, test = wave_split(seed=2)
        grid = tuple(np.linspace(0.01, 0.30, 12))
        spec = SweepSpec(varying="epsilon", grid=grid, c=5.0, gamma=0.5)
        rows = sweep(train, test, spec, SETTINGS, seed=0)
        counts = [r.n_sv for r in rows]
        assert all(c2 <= c1 + 1 for c1, c2 in zip(counts, counts[1:]))

    def test_rows_in_grid_order(self):
        train, test = wave_split(seed=3)
        grid = (0.5, 1.0, 2.0)
        spec = SweepSpec(varying="c", grid=grid, epsilon=0.05, gamma=0.5)
        rows = sweep(train, test, spec, SETTINGS)
        assert tuple(r.value for r in rows) == grid

    def test_csv_shape(self):
        rows = [SweepRow(0.1, 0.5, 0.6, 10), SweepRow(0.2, 0.4, 0.7, 8)]
        text = sweep_rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "value,train_mse,test_mse,n_sv"
        assert len(lines) == 3


class TestSelectRange:
    ROWS = [
        SweepRow(0.01, 0.1, 0.1, 350),
        SweepRow(0.02, 0.1, 0.1, 290),
        SweepRow(0.03, 0.1, 0.1, 240),
        SweepRow(0.04, 0.1, 0.1, 180),
    ]

    def test_sv_window(self):
        assert select_range_by_sv_fraction(self.ROWS, 500, 0.4, 0.6) == (0.02, 0.03)

    def test_no_qualifying_rows(self):
        with pytest.raises(ValueError, match="SV fraction"):
            select_range_by_sv_fraction(self.ROWS, 500, 0.9, 1.0)

    def test_accept_everything(self):
        assert select_range_by_sv_fraction(self.ROWS, 500, 0.0, 1.0) == (0.01, 0.04)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            select_range_by_sv_fraction(self.ROWS, 500, 0.6, 0.4)
        with pytest.raises(ValueError):
            select_range_by_sv_fraction([], 500, 0.4, 0.6)


class TestMakeFitness:
    def test_constant_targets_objective_is_zero(self):
        feats = np.random.default_rng(0).normal(size=(20, 5))
        sset = SupervisedSet(feats, np.full(20, 7.0))
        objective = make_fitness(sset, FitnessSpec.train_mse(), settings=SETTINGS)
        assert objective(np.array([2.0, 0.5, 0.5])) == 0.0

    def test_train_mse_matches_composition_at_default_triple(self):
        train, _ = wave_split(seed=4)
        model = train_svr(train.features, train.targets, DEFAULT_PARAMS, SETTINGS)
        objective = make_fitness(train, FitnessSpec.train_mse(), settings=SETTINGS)
        assert objective(np.array([1.0, 0.1, 0.2])) == mse(
            train.targets, predict_batch(model, train.features))
        # holdout and k-fold fit on sub-blocks of the shared kernel geometry;
        # each fold must equal a plain fit on its rows (middle k-fold blocks
        # are not contiguous)
        for spec in (FitnessSpec.holdout(0.25), FitnessSpec.kfold(4)):
            objective = make_fitness(train, spec, settings=SETTINGS)
            total = 0.0
            for fit, val in objective.fold_indices():
                model = train_svr(train.features[fit], train.targets[fit], DEFAULT_PARAMS, SETTINGS)
                total += mse(train.targets[val], predict_batch(model, train.features[val]))
            assert objective(np.array([1.0, 0.1, 0.2])) == total / len(objective.fold_indices())
        # evaluate_with gives its scorer's values back in point order, each
        # equal to its point scored by a fresh objective (so no memo is
        # shared), and later calls read them from the memo
        points = np.array([[1.0, 0.1, 0.2], [40.0, 0.01, 3.0], [300.0, 0.2, 0.5]])
        settings = SolverSettings(max_passes=3)
        for spec in (FitnessSpec.train_mse(), FitnessSpec.holdout(0.25), FitnessSpec.kfold(4)):
            objective = make_fitness(train, spec, settings=settings)
            scorer = make_fitness(train, spec, settings=settings)
            fresh = [make_fitness(train, spec, settings=settings)(x) for x in points]
            assert objective.evaluate_with(points, lambda xs: [scorer(x) for x in xs]) == fresh
            assert [objective(x) for x in points] == fresh

    @pytest.mark.parametrize("spec", [FitnessSpec.train_mse(), FitnessSpec.holdout(0.25),
                                      FitnessSpec.kfold(4)],
                             ids=["train-mse", "holdout", "kfold"])
    def test_memo_fits_each_triple_once(self, monkeypatch, spec):
        train, _ = wave_split(seed=4)
        settings = SolverSettings(max_passes=3)
        fitted = []

        def counting(features, targets, params, *args, **kwargs):
            fitted.append(np.array([params.c, params.epsilon, params.kernel.gamma]).tobytes())
            return train_svr(features, targets, params, *args, **kwargs)

        monkeypatch.setattr(tuning, "train_svr", counting)
        objective = make_fitness(train, spec, settings=settings)
        # a duplicate inside the first batch; the second repeats a triple the
        # first scored and holds epsilon 0.0 beside -0.0, which are two keys
        batches = [[[1.0, 0.1, 0.2], [40.0, 0.01, 3.0], [1.0, 0.1, 0.2], [300.0, 0.2, 0.5]],
                   [[40.0, 0.01, 3.0], [5.0, 0.0, 0.7], [5.0, -0.0, 0.7], [5.0, 0.0, 0.7]]]
        values = [[objective(np.array(x)) for x in batch] for batch in batches]
        monkeypatch.undo()
        for batch, got in zip(batches, values):
            assert got == [make_fitness(train, spec, settings=settings)(np.array(x))
                           for x in batch]
        keys = [np.array(x).tobytes() for batch in batches for x in batch]
        splits = len(objective.fold_indices() or [None])
        assert len(set(keys)) == 5
        assert Counter(fitted) == {key: splits for key in keys}

    def test_scores_read_the_kernel_geometry(self, monkeypatch):
        """The objective scores the rows its geometry holds (validation rows,
        or the training rows for train-mse), and the sweep and
        evaluate_triple their training rows, without predict_batch; only
        their test rows go through it. Every fit is given its geometry. The
        composition tests above pin the values."""
        train, test = wave_split(seed=4)
        predicted = []

        def recording(model, features):
            predicted.append(len(features))
            return predict_batch(model, features)

        def fit_on_geometry(features, targets, params, settings=None, *, geometry=None):
            assert geometry is not None
            return train_svr(features, targets, params, settings, geometry=geometry)

        monkeypatch.setattr(tuning, "predict_batch", recording)
        monkeypatch.setattr(tuning, "train_svr", fit_on_geometry)
        for spec in (FitnessSpec.train_mse(), FitnessSpec.holdout(0.25), FitnessSpec.kfold(4)):
            objective = make_fitness(train, spec, settings=SETTINGS)
            for x in ([1.0, 0.1, 0.2], [40.0, 0.01, 3.0]):
                objective(x)
        assert predicted == []
        spec = SweepSpec(varying="epsilon", grid=(0.01, 0.05, 0.1), c=2.0, gamma=0.5)
        sweep(train, test, spec, SETTINGS)
        assert predicted == [len(test)] * 3
        evaluate_triple(train, test, 2.0, 0.05, 0.5, settings=SETTINGS)
        assert predicted == [len(test)] * 4

    @pytest.mark.parametrize("spec", [FitnessSpec.train_mse(), FitnessSpec.holdout(0.25),
                                      FitnessSpec.kfold(4)],
                             ids=["train-mse", "holdout", "kfold"])
    def test_a_call_reads_only_its_splits_and_geometry(self, spec):
        """The splits' rows and targets are decided when the objective is
        built: with its features and targets gone, it scores every point as
        a fresh objective does."""
        train, _ = wave_split(seed=4)
        settings = SolverSettings(max_passes=3)
        objective = make_fitness(train, spec, settings=settings)
        objective.features = objective.targets = None
        for x in ([1.0, 0.1, 0.2], [40.0, 0.01, 3.0], [300.0, 0.2, 0.5]):
            assert objective(np.array(x)) == make_fitness(train, spec, settings=settings)(np.array(x))

    def test_kfold_blocks_are_contiguous(self):
        feats = np.random.default_rng(1).normal(size=(500, 5))
        sset = SupervisedSet(feats, np.random.default_rng(2).normal(size=500))
        objective = make_fitness(sset, FitnessSpec.kfold(5), settings=SETTINGS)
        folds = objective.fold_indices()
        assert len(folds) == 5
        for f, (fit, val) in enumerate(folds):
            np.testing.assert_array_equal(val, np.arange(f * 100, (f + 1) * 100))
            assert len(fit) == 400

    def test_holdout_uses_tail(self):
        sset = wave_set(41, seed=5)
        objective = make_fitness(sset, FitnessSpec.holdout(0.25), settings=SETTINGS)
        (fit, val), = objective.fold_indices()
        assert val[0] == len(sset) - len(val)
        assert len(val) == round(0.25 * len(sset))

    def test_purity(self):
        train, _ = wave_split(seed=6)
        objective = make_fitness(train, FitnessSpec.train_mse(), settings=SETTINGS)
        x = np.array([3.0, 0.02, 0.7])
        assert objective(x) == make_fitness(train, FitnessSpec.train_mse(), settings=SETTINGS)(x)

    def test_rbf_is_the_only_kernel_kind(self):
        sset = wave_set(41, seed=5)
        objective = make_fitness(sset, FitnessSpec.train_mse(), "rbf", SETTINGS, seed=3)
        assert objective.kernel_kind == "rbf"
        with pytest.raises(ValueError):
            make_fitness(sset, FitnessSpec.train_mse(), "linear", SETTINGS)

    def test_splits_of_each_kind(self):
        """splits(n) gives every split as (fit rows, validation rows): every
        row in both roles for train-mse, the tail held out for holdout, k
        contiguous validation runs for kfold, each fitted on the rest."""
        rows = list(range(10))
        (fit, val), = FitnessSpec.train_mse().splits(10)
        assert fit.tolist() == val.tolist() == rows
        (fit, val), = FitnessSpec.holdout(0.2).splits(10)
        assert (fit.tolist(), val.tolist()) == (rows[:8], [8, 9])
        folds = FitnessSpec.kfold(3).splits(10)
        assert [val.tolist() for _, val in folds] == [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9]]
        for fit, val in folds:
            assert fit.tolist() == [r for r in rows if r not in val]
        for spec in (FitnessSpec.train_mse(), FitnessSpec.holdout(0.2), FitnessSpec.kfold(3)):
            with pytest.raises(ValueError, match="train set is empty"):
                spec.splits(0)
        with pytest.raises(ValueError, match="leaves no training rows"):
            FitnessSpec.holdout(0.99).splits(10)
        with pytest.raises(ValueError, match="more folds than rows"):
            FitnessSpec.kfold(11).splits(10)
        sset = wave_set(41, seed=5)
        (fit, val), = make_fitness(sset, FitnessSpec.train_mse(), settings=SETTINGS).fold_indices()
        assert fit.tolist() == val.tolist() == list(range(len(sset)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FitnessSpec.holdout(1.5)
        with pytest.raises(ValueError):
            FitnessSpec.kfold(1)
        with pytest.raises(ValueError):
            FitnessSpec(kind="test_mse")


class TestTune:
    def test_collapsed_box_equals_direct_evaluation(self):
        train, test = wave_split(seed=7)
        point = (2.0, 0.05, 0.5)
        eps = 1e-9
        box = ParamBox((point[0], point[0] + eps),
                       (point[1], point[1] + eps),
                       (point[2], point[2] + eps))
        config = DeConfig(pop_size=4, g_max=2, seed=0)
        report, model = tune(train, test, box, config, settings=SETTINGS)
        assert box.contains(report.c, report.epsilon, report.gamma)
        direct, _ = evaluate_triple(train, test, report.c, report.epsilon, report.gamma,
                                    settings=SETTINGS, seed=0)
        assert report.train_mse == direct.train_mse
        assert report.test_mse == direct.test_mse
        assert report.n_sv == direct.n_sv
        # and the matching single-point sweep agrees too
        spec = SweepSpec(varying="c", grid=(report.c,),
                         epsilon=report.epsilon, gamma=report.gamma)
        row = sweep(train, test, spec, SETTINGS, seed=0)[0]
        assert (row.train_mse, row.test_mse, row.n_sv) == (
            report.train_mse, report.test_mse, report.n_sv)

    def test_test_set_never_influences_search(self):
        train, test = wave_split(seed=8)
        rng = np.random.default_rng(0)
        shuffled = SupervisedSet(test.features,
                                 rng.permutation(test.targets),
                                 test.column_names, test.target_name)
        box = ParamBox((0.5, 8.0), (0.01, 0.2), (0.1, 2.0))
        config = DeConfig(pop_size=5, g_max=4, seed=3)
        r1, _ = tune(train, test, box, config, settings=SETTINGS)
        r2, _ = tune(train, shuffled, box, config, settings=SETTINGS)
        assert (r1.c, r1.epsilon, r1.gamma) == (r2.c, r2.epsilon, r2.gamma)
        assert r1.train_mse == r2.train_mse
        assert r1.test_mse != r2.test_mse

    def test_de_and_pso_beat_default_on_random_walk(self):
        from svrtune.dataset import build_supervised
        from svrtune.synth import synthetic_ohlcv

        sset = build_supervised(synthetic_ohlcv(rows=171, seed=0, drift=0.0))
        nmap = fit_normalizer(sset, -1.0, 1.0, fit_rows=range(120))
        train, test = split(apply_normalizer(nmap, sset), SplitSpec(120, 50))
        default, _ = evaluate_triple(train, test, 1.0, 0.1, 0.2, settings=SETTINGS)
        box = ParamBox((1.0, 50.0), (0.01, 0.3), (0.4, 4.0))
        fitness = FitnessSpec.holdout(0.2)
        de_report, _ = tune(train, test, box,
                            DeConfig(pop_size=8, g_max=10, cr=0.7, f=0.9,
                                     strategy="local_to_best_1_bin", seed=0),
                            fitness=fitness, settings=SETTINGS)
        pso_report, _ = tune(train, test, box,
                             PsoConfig(swarm=8, iters=10, seed=0),
                             fitness=fitness, settings=SETTINGS)
        assert de_report.test_mse <= default.test_mse
        assert pso_report.test_mse <= default.test_mse
        assert de_report.method == "de_svm"
        assert pso_report.method == "pso_svm"

    def test_report_json_is_stable_and_omits_wall_time(self):
        train, test = wave_split(seed=10)
        box = ParamBox((0.5, 4.0), (0.01, 0.1), (0.2, 1.0))
        config = DeConfig(pop_size=4, g_max=3, seed=1)
        r1, _ = tune(train, test, box, config, settings=SETTINGS)
        r2, _ = tune(train, test, box, config, settings=SETTINGS)
        assert r1.wall_time != r2.wall_time or True  # wall time may differ
        assert report_to_json(r1) == report_to_json(r2)
        assert '"wall_time"' not in report_to_json(r1)
        assert '"optimizer_history"' in report_to_json(r1)


class TestCompareReport:
    def _reports(self):
        train, test = wave_split(seed=11)
        base, base_model = evaluate_triple(train, test, 1.0, 0.1, 0.2, settings=SETTINGS)
        other, other_model = evaluate_triple(train, test, 4.0, 0.02, 0.5,
                                             settings=SETTINGS, method="de_svm")
        return train, test, (base, other), (base_model, other_model)

    def test_single_report(self):
        _, test, (base, _), (model, _) = self._reports()
        table = compare_report([base])
        assert len(table.rows) == 1
        assert table.rows[0]["method"] == "svm_default"
        assert table.rows[0]["test_mse"] == base.test_mse

    def test_method_ordering(self):
        _, test, (base, de_rep), _ = self._reports()
        table = compare_report([de_rep, base])
        assert [r["method"] for r in table.rows] == ["svm_default", "de_svm"]

    def test_mismatched_datasets_rejected(self):
        train, test = wave_split(seed=12)
        other_train, other_test = wave_split(seed=13)
        a, _ = evaluate_triple(train, test, 1.0, 0.1, 0.2, settings=SETTINGS)
        b, _ = evaluate_triple(other_train, other_test, 1.0, 0.1, 0.2, settings=SETTINGS)
        with pytest.raises(ValueError, match="different datasets"):
            compare_report([a, b])

    def test_denormalized_predictions(self):
        sset = wave_set(80, seed=14)
        shifted = SupervisedSet(sset.features, 100.0 + 20.0 * sset.targets)
        nmap = fit_normalizer(shifted, -1.0, 1.0, fit_rows=range(60))
        normed = apply_normalizer(nmap, shifted)
        train, test = split(normed, SplitSpec(60, 15))
        report, model = evaluate_triple(train, test, 2.0, 0.05, 0.5, settings=SETTINGS)
        table = compare_report([report], normalizer=nmap, test=test, models=[model])
        expected = invert_normalizer(nmap, test.target_name,
                                     predict_batch(model, test.features))
        np.testing.assert_array_equal(table.predictions[:, 1], expected)
        np.testing.assert_array_equal(
            table.predictions[:, 0],
            invert_normalizer(nmap, test.target_name, test.targets))
        assert table.prediction_columns == ("actual", "svm_default")
        assert "svm_default" in table.render()
        assert table.predictions_csv().startswith("actual,svm_default")
