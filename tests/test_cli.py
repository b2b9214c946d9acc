import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svrtune
import svrtune.cli as cli
import svrtune.tuning as tuning
from svrtune.cli import main
from svrtune.dataset import (
    normalizer_from_json,
    invert_normalizer,
    parse_csv,
    series_to_csv,
    supervised_from_csv,
)
from svrtune.optim import DeConfig, PsoConfig
from svrtune.svr import DEFAULT_PARAMS, SolverSettings, model_from_json
from svrtune.synth import synthetic_ohlcv


@pytest.fixture()
def data_csv(tmp_path):
    series = synthetic_ohlcv(rows=171, seed=0, drift=0.0004)
    path = tmp_path / "prices.csv"
    path.write_text(series_to_csv(series), encoding="utf-8")
    return path


def shared(data, out, train_n=120, test_n=50):
    """--data and --out, with --train-n and --test-n unless given as None."""
    argv = ["--data", str(data), "--out", str(out)]
    for flag, value in (("--train-n", train_n), ("--test-n", test_n)):
        if value is not None:
            argv += [flag, str(value)]
    return argv


TUNE = ["tune", "--method", "de", "--c-range", "0.5:8", "--epsilon-range", "0.02:0.1",
        "--gamma-range", "0.3:1.5", "--np", "5", "--gmax", "2", "--threads", "1"]
TUNE_WITHOUT_METHOD = [TUNE[0], *TUNE[3:]]


class TestIngest:
    def test_writes_supervised_set(self, data_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["ingest", *shared(data_csv, out, test_n=None)]) == 0
        sset, has_target = supervised_from_csv((out / "supervised.csv").read_text())
        assert has_target and len(sset) == 170
        assert "170" in capsys.readouterr().out

    def test_normalize_writes_invertible_map(self, data_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["ingest", *shared(data_csv, out, test_n=None), "--normalize"]) == 0
        nmap = normalizer_from_json((out / "normalizer.json").read_text())
        sset, _ = supervised_from_csv((out / "supervised.csv").read_text())
        # normalized targets invert to original price units
        raw = parse_csv(data_csv.read_text())
        original_targets = raw.column("close")[1:]
        back = invert_normalizer(nmap, "next_close", sset.targets)
        np.testing.assert_allclose(back, original_targets, rtol=1e-12)

    def test_train_n_is_read_only_under_fit_range_train(self, data_csv, tmp_path):
        outputs = {}
        for train_n in ("120", "5000"):
            out = tmp_path / train_n
            assert main(["ingest", *shared(data_csv, out, train_n=train_n, test_n=None),
                         "--normalize", "--fit-range", "full"]) == 0
            outputs[train_n] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert outputs["5000"] == outputs["120"]
        assert main(["ingest", *shared(data_csv, tmp_path / "o", train_n="5000", test_n=None),
                     "--normalize", "--fit-range", "train"]) == 3

    def test_malformed_csv_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,open,high,low,close,adj close,volume\n2020-01-02,1,2,0.5,1,1,oops\n")
        assert main(["ingest", "--data", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "row 2" in capsys.readouterr().err

    def test_missing_data_flag_exits_2(self, tmp_path):
        assert main(["ingest", "--out", str(tmp_path / "o")]) == 2


class TestSweep:
    def test_epsilon_sweep_with_heuristic_fixed_values(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", *shared(data_csv, out), "--normalize",
                     "--vary", "epsilon", "--grid", "0.01:0.30:50"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "value,train_mse,test_mse,n_sv"
        assert len(lines) == 51

    def test_c_sweep_wide_grid(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", *shared(data_csv, out), "--normalize",
                     "--vary", "c", "--grid", "0.1:6000:3",
                     "--fix", "epsilon=0.039", "--fix", "gamma=0.0625"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_single_point_grid(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", *shared(data_csv, out),
                     "--vary", "gamma", "--grid", "0.5:1.0:1",
                     "--fix", "c=2", "--fix", "epsilon=0.05"])
        assert code == 0
        assert len((out / "sweep.csv").read_text().strip().splitlines()) == 2

    def test_bad_grid_exits_2(self, data_csv, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["sweep", *shared(data_csv, tmp_path / "o"),
                  "--vary", "epsilon", "--grid", "0.3:0.1:5"])
        assert err.value.code == 2


class TestTune:
    def test_de_tune_writes_report_model_history(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["tune", *shared(data_csv, out), "--normalize",
                     "--method", "de", "--c-range", "0.5:8", "--epsilon-range", "0.02:0.1",
                     "--gamma-range", "0.3:1.5", "--np", "5", "--gmax", "3",
                     "--threads", "1"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "de_svm"
        assert 0.5 <= report["optimized"]["c"] <= 8.0
        assert 0.02 <= report["optimized"]["epsilon"] <= 0.1
        assert 0.3 <= report["optimized"]["gamma"] <= 1.5
        assert "wall_time" not in report
        model = model_from_json((out / "model.json").read_text())
        assert model.n_features == 5
        history = (out / "history.csv").read_text().strip().splitlines()
        assert history[0] == "generation,best_f,mean_f"
        assert len(history) == 1 + 4

    def test_rerun_is_byte_identical(self, data_csv, tmp_path):
        args = ["tune", *shared(data_csv, tmp_path / "run"), "--normalize",
                "--method", "pso", "--c-range", "0.5:8", "--epsilon-range", "0.02:0.1",
                "--gamma-range", "0.3:1.5", "--swarm", "5", "--iters", "3",
                "--seed", "7", "--threads", "1"]
        assert main(args) == 0
        first = {name: (tmp_path / "run" / name).read_bytes()
                 for name in ("report.json", "model.json", "history.csv")}
        assert main(args) == 0
        for name, blob in first.items():
            assert (tmp_path / "run" / name).read_bytes() == blob

    def test_thread_count_does_not_change_outputs(self, data_csv, tmp_path):
        base = ["tune", "--data", str(data_csv), "--normalize",
                "--train-n", "120", "--test-n", "50",
                "--method", "de", "--c-range", "0.5:8", "--epsilon-range", "0.02:0.1",
                "--gamma-range", "0.3:1.5", "--np", "5", "--gmax", "3", "--seed", "3"]
        assert main([*base, "--out", str(tmp_path / "a"), "--threads", "1"]) == 0
        assert main([*base, "--out", str(tmp_path / "b"), "--threads", "2"]) == 0
        for name in ("report.json", "model.json", "history.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_repeated_points_keep_pinned_outputs(self, data_csv, tmp_path, monkeypatch):
        # the box clip piles the swarm onto corners: 72 points, 46 triples.
        # The digests were recorded before SvrObjective kept a memo of its
        # values; a repeated point must score as a fresh fit would
        base = ["tune", *shared(data_csv, tmp_path / "run"), "--normalize", "--method", "pso",
                "--c-range", "0.5:8", "--epsilon-range", "0.02:0.1", "--gamma-range", "0.3:1.5",
                "--swarm", "8", "--iters", "8", "--max-passes", "3"]
        scored = []
        call = tuning.SvrObjective.__call__

        def recording(objective, x):
            scored.append(np.asarray(x, dtype=np.float64).tobytes())
            return call(objective, x)

        monkeypatch.setattr(tuning.SvrObjective, "__call__", recording)
        digests = {"report.json": "6bca1461a66b0e1a98beb848fce777953355def58c8d3527bff8b1d4fcf34acb",
                   "history.csv": "a06d266acc8edebc625dad13df916e04301a0928cca180836fea5d2ee291c977"}
        for threads in ("1", "2"):
            assert main([*base, "--threads", threads]) == 0
            for name, digest in digests.items():
                assert hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() == digest
        # only the serial run scores in this process
        assert (len(scored), len(set(scored))) == (72, 46)

    def test_blas_thread_count_does_not_change_outputs(self, tmp_path):
        # PSO on the 701-row walk with the train-mse fitness and a binding
        # step budget: truncated solves amplify last-bit kernel differences
        # into a different search path, so any BLAS-dependent arithmetic shows
        data = tmp_path / "walk.csv"
        data.write_text(series_to_csv(synthetic_ohlcv(rows=701, seed=0, drift=0.0)), encoding="utf-8")
        src = str(Path(svrtune.__file__).resolve().parents[1])
        runs = []
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"blas{blas_threads}"
            cmd = [sys.executable, "-m", "svrtune.cli", "tune", *shared(data, out, 500, 200),
                   "--normalize", "--method", "pso", "--swarm", "15", "--iters", "10",
                   "--c-range", "1:550", "--epsilon-range", "0.01:0.3", "--gamma-range", "0.2:4",
                   "--max-passes", "3", "--seed", "0", "--threads", "1"]
            runs.append((out, subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                               stderr=subprocess.PIPE)))
        for _, proc in runs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
        (a, _), (b, _) = runs
        for name in ("report.json", "model.json", "history.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_failed_serialization_leaves_previous_run(self, data_csv, tmp_path, monkeypatch):
        out = tmp_path / "run"
        args = ["tune", *shared(data_csv, out), "--normalize", *TUNE[1:]]
        assert main(args) == 0
        before = {name: (out / name).read_bytes()
                  for name in ("report.json", "model.json", "history.csv")}

        def fail(model):
            raise RuntimeError("cannot serialize the model")

        monkeypatch.setattr(cli, "model_to_json", fail)
        assert main([*args, "--seed", "1"]) == 4
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_preset_and_ranges_conflict_exits_2(self, data_csv, tmp_path):
        code = main(["tune", *shared(data_csv, tmp_path / "o"), "--method", "de",
                     "--preset", "apple-normalized", "--c-range", "1:5",
                     "--epsilon-range", "0.01:0.1", "--gamma-range", "0.1:1"])
        assert code == 2

    def test_missing_box_exits_2(self, data_csv, tmp_path):
        assert main(["tune", *shared(data_csv, tmp_path / "o"), "--method", "de"]) == 2

    def test_preset_box_accepted(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["tune", *shared(data_csv, out), "--normalize",
                     "--method", "de", "--preset", "honeywell-raw",
                     "--np", "4", "--gmax", "2", "--threads", "1"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 1.0 <= report["optimized"]["c"] <= 60.0

    def test_collapsed_box_equals_direct_evaluation(self, data_csv, tmp_path):
        from svrtune.cli import _prepare, build_parser
        from svrtune.svr import SolverSettings
        from svrtune.tuning import evaluate_triple

        out = tmp_path / "run"
        eps = 1e-9
        code = main(["tune", *shared(data_csv, out), "--normalize",
                     "--method", "de", "--np", "4", "--gmax", "2", "--threads", "1",
                     "--c-range", f"2:{2 + eps}",
                     "--epsilon-range", f"0.05:{0.05 + eps}",
                     "--gamma-range", f"0.5:{0.5 + eps}"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        triple = report["optimized"]
        assert triple["c"] == pytest.approx(2.0, abs=2e-9)
        args = build_parser().parse_args(
            ["train", *shared(data_csv, out), "--normalize"])
        train, test, _ = _prepare(args)
        direct, _ = evaluate_triple(train, test, triple["c"], triple["epsilon"],
                                    triple["gamma"], settings=SolverSettings())
        assert report["train_mse"] == direct.train_mse
        assert report["test_mse"] == direct.test_mse
        assert report["n_sv"] == direct.n_sv


class TestTrain:
    def test_default_parameters(self, data_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", *shared(data_csv, out), "--normalize"]) == 0
        printed = capsys.readouterr().out
        assert "train_mse=" in printed and "test_mse=" in printed and "n_sv=" in printed
        model = model_from_json((out / "model.json").read_text())
        assert model.params.c == 1.0
        assert model.params.epsilon == 0.1
        assert model.params.kernel.gamma == 0.2

    def test_published_exploration_point(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["train", *shared(data_csv, out), "--normalize",
                     "--c", "500", "--epsilon", "0.039", "--gamma", "0.0625"])
        assert code == 0
        model = model_from_json((out / "model.json").read_text())
        assert model.params.c == 500.0

    def test_unwritable_artifact_exits_2_and_leaves_no_temp_file(self, data_csv, tmp_path):
        out = tmp_path / "run"
        (out / "model.json").mkdir(parents=True)
        assert main(["train", *shared(data_csv, out)]) == 2
        assert [path.name for path in out.iterdir()] == ["model.json"]

    def test_invalid_c_exits_2(self, data_csv, tmp_path):
        out = tmp_path / "o"
        assert main(["train", *shared(data_csv, out), "--c", "0"]) == 2
        assert not out.exists() or not any(out.iterdir())


class TestPredict:
    def test_round_trip_with_normalizer(self, data_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["ingest", *shared(data_csv, out, test_n=None), "--normalize"]) == 0
        assert main(["train", *shared(data_csv, out), "--normalize"]) == 0
        code = main(["predict", "--model", str(out / "model.json"),
                     "--data", str(out / "supervised.csv"),
                     "--normalizer", str(out / "normalizer.json"),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "actual,predicted"
        assert len(lines) == 171  # header + 170 rows
        # actual column in price units after denormalization
        first_actual = float(lines[1].split(",")[0])
        raw = parse_csv(data_csv.read_text())
        assert first_actual == pytest.approx(raw.column("close")[1], rel=1e-12)

    def test_header_only_data_exits_3(self, data_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["train", *shared(data_csv, out), "--normalize"]) == 0
        stub = tmp_path / "narrow.csv"
        stub.write_text("open,high,low,adj_close,volume,next_close\n")
        # header-only feature file is a data error
        assert main(["predict", "--model", str(out / "model.json"),
                     "--data", str(stub), "--out", str(out)]) == 3

    def test_dimension_mismatch_exits_3(self, data_csv, tmp_path, capsys):
        """A model with 4 features against data with 5 is a data error."""
        out = tmp_path / "run"
        assert main(["ingest", *shared(data_csv, out, test_n=None)]) == 0
        assert main(["train", *shared(data_csv, out)]) == 0
        doc = json.loads((out / "model.json").read_text())
        doc.update(support_inputs=[row[:4] for row in doc["support_inputs"]], n_features=4)
        (tmp_path / "narrow.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["predict", "--model", str(tmp_path / "narrow.json"),
                     "--data", str(out / "supervised.csv"), "--out", str(out)]) == 3
        assert "dimension mismatch: model has d=4, data d=5" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_missing_model_exits_3(self, data_csv, tmp_path):
        assert main(["predict", "--model", str(tmp_path / "nope.json"),
                     "--data", str(data_csv), "--out", str(tmp_path)]) == 3

    def test_missing_or_malformed_normalizer_exits_3(self, data_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["ingest", *shared(data_csv, out, test_n=None), "--normalize"]) == 0
        assert main(["train", *shared(data_csv, out), "--normalize"]) == 0
        (tmp_path / "bad.json").write_text("{}")
        for name, message in (("nope.json", "normalizer file not found"),
                              ("bad.json", "malformed normalizer file")):
            code = main(["predict", "--model", str(out / "model.json"),
                         "--data", str(out / "supervised.csv"),
                         "--normalizer", str(tmp_path / name), "--out", str(out)])
            assert code == 3
            assert message in capsys.readouterr().err

    def test_malformed_model_exits_3(self, data_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["ingest", *shared(data_csv, out, test_n=None)]) == 0
        assert main(["train", *shared(data_csv, out)]) == 0
        doc = json.loads((out / "model.json").read_text())
        polynomial = json.dumps({**doc, "kernel": {**doc["kernel"], "kind": "polynomial"}})
        tiny_c = json.dumps({**doc, "c": 1e-11})
        wrong_n_sv = json.dumps({**doc, "n_sv": 99999})
        wrong_n_features = json.dumps({**doc, "n_features": 4})
        del doc["bias"]
        for text in ('{"kernel": 1}', json.dumps(doc), "{not json", polynomial, tiny_c, wrong_n_sv,
                     wrong_n_features):
            (tmp_path / "bad.json").write_text(text)
            assert main(["predict", "--model", str(tmp_path / "bad.json"),
                         "--data", str(out / "supervised.csv"), "--out", str(out)]) == 3
            assert "malformed model file" in capsys.readouterr().err


    def test_non_finite_numbers_in_model_or_normalizer_exit_3(self, data_csv, tmp_path, capsys):
        """A NaN, an infinity or an integer too large for a double, none of
        which the program writes, makes a model or normalizer file
        malformed, before any prediction is made."""
        out = tmp_path / "run"
        assert main(["ingest", *shared(data_csv, out, test_n=None), "--normalize"]) == 0
        assert main(["train", *shared(data_csv, out), "--normalize"]) == 0
        # a marker value in the field, replaced in the text by the bad number
        model = json.loads((out / "model.json").read_text())
        model["bias"] = 12345.25
        normalizer = json.loads((out / "normalizer.json").read_text())
        column, = (c for c in normalizer["columns"] if c["name"] == "next_close")
        column["x_min"] = 12345.25
        files = {"model": json.dumps(model), "normalizer": json.dumps(normalizer)}
        for what, value in (("model", "NaN"), ("model", "Infinity"), ("model", "1e999"),
                            ("model", "1" + "0" * 400), ("normalizer", "NaN"),
                            ("normalizer", "-Infinity"), ("normalizer", "-1" + "0" * 400)):
            paths = {"model": out / "model.json", "normalizer": out / "normalizer.json"}
            paths[what] = tmp_path / "bad.json"
            paths[what].write_text(files[what].replace("12345.25", value))
            assert main(["predict", "--model", str(paths["model"]),
                         "--data", str(out / "supervised.csv"),
                         "--normalizer", str(paths["normalizer"]),
                         "--out", str(tmp_path / "pred")]) == 3
            assert f"malformed {what} file" in capsys.readouterr().err
            assert not (tmp_path / "pred" / "predictions.csv").exists()


def test_csv_artifacts_keep_pinned_bytes(data_csv, tmp_path):
    """ingest's supervised.csv, sweep.csv and predict's predictions.csv, with
    and without a target column, keep the bytes recorded before one writer
    (jsonio.csv_text) built every CSV artifact."""
    out = tmp_path / "run"
    assert main(["ingest", *shared(data_csv, out, test_n=None), "--normalize"]) == 0
    assert main(["sweep", *shared(data_csv, out), "--normalize",
                 "--vary", "epsilon", "--grid", "0.01:0.3:4", "--max-passes", "3"]) == 0
    assert main(["train", *shared(data_csv, out), "--normalize", "--max-passes", "3"]) == 0
    features = tmp_path / "features.csv"
    features.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                for line in (out / "supervised.csv").read_text().splitlines()))
    for name, data in (("target", out / "supervised.csv"), ("no-target", features)):
        assert main(["predict", "--data", str(data), "--model", str(out / "model.json"),
                     "--normalizer", str(out / "normalizer.json"),
                     "--out", str(tmp_path / name)]) == 0
    digests = {
        out / "supervised.csv": "477cb2b93974033b039376e14387eb1e4ebd7b5aaa57006d0aeb517855c1d32f",
        out / "normalizer.json": "f06c841fa470409de62e2373514230f2c5835b611f06d3b213a8d6bb42c6b2a7",
        out / "sweep.csv": "45b1ef4780ee0251292f4e53fd6af4238133d9d9eb4cf3901bf74924ae5f8cf5",
        tmp_path / "target" / "predictions.csv":
            "0ae0113509fd8272ef98769cbfecc0b924f55f30527f317a147900707e094bb9",
        tmp_path / "no-target" / "predictions.csv":
            "9a99ce957bfb95b790a8c7e43a641a174dbc25b84f4615eb87599feba66ab8d0",
    }
    for path, digest in digests.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path


@pytest.mark.parametrize("command", ["ingest", "train", "predict", "predict-model"])
def test_data_or_model_path_that_is_a_directory_exits_3(data_csv, tmp_path, capsys, command):
    """A --data or --model path that exists but cannot be read as a file is a
    data error, reported without a traceback."""
    out = tmp_path / "run"
    assert main(["train", *shared(data_csv, out)]) == 0
    capsys.readouterr()
    folder = tmp_path / "folder"
    folder.mkdir()
    model = out / "model.json"
    if command == "predict-model":
        command, model, data = "predict", folder, data_csv
    else:
        data = folder
    if command == "predict":
        argv = [command, *shared(data, tmp_path / "o", None, None), "--model", str(model)]
    else:
        argv = [command, *shared(data, tmp_path / "o", test_n=None if command == "ingest" else 50)]
    assert main(argv) == 3
    assert "data error: cannot read" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, data_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "data": str(data_csv), "train_n": 120, "test_n": 50,
            "normalize": True, "c": 2.0,
        }))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        model = model_from_json((out / "model.json").read_text())
        assert model.params.c == 2.0
        # explicit flag wins over the config value
        assert main(["train", "--config", str(cfg), "--out", str(out), "--c", "3"]) == 0
        model = model_from_json((out / "model.json").read_text())
        assert model.params.c == 3.0

    def test_config_supplies_sweep_vary_and_grid(self, data_csv, tmp_path):
        """A run configured by the file alone writes the bytes of its flag form."""
        sweep = ["sweep", "--vary", "epsilon", "--grid", "0.01:0.2:3"]
        cases = [
            (sweep, {"vary": "epsilon", "grid": "0.01:0.2:3"}, ["sweep.csv"]),
            ([*sweep, "--fix", "c=2.0"], {"vary": "epsilon", "grid": "0.01:0.2:3",
                                          "fix": ["c=2.0"]}, ["sweep.csv"]),
            (TUNE, {"method": "de", "c_range": "0.5:8", "epsilon_range": "0.02:0.1",
                    "gamma_range": "0.3:1.5", "np_size": 5, "gmax": 2, "threads": 1},
             ["report.json", "model.json", "history.csv"]),
        ]
        for i, (argv, config, names) in enumerate(cases):
            flags, out, cfg = tmp_path / f"flags{i}", tmp_path / f"file{i}", tmp_path / f"{i}.json"
            assert main([*argv, *shared(data_csv, flags)]) == 0
            cfg.write_text(json.dumps(config))
            assert main([argv[0], *shared(data_csv, out), "--config", str(cfg)]) == 0
            for name in names:
                assert (out / name).read_bytes() == (flags / name).read_bytes(), (argv, name)

    def test_config_supplies_tune_method(self, data_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"method": "pso", "swarm": 5, "iters": 1}))
        out = tmp_path / "run"
        assert main([*TUNE_WITHOUT_METHOD, *shared(data_csv, out), "--config", str(cfg)]) == 0
        assert json.loads((out / "report.json").read_text())["method"] == "pso_svm"

    def test_missing_config_file_exits_2(self, data_csv, tmp_path):
        assert main(["train", *shared(data_csv, tmp_path / "o"),
                     "--config", str(tmp_path / "none.json")]) == 2


def test_import_leaves_the_pool_and_hash_modules_unloaded():
    """Start-up loads only what every command uses: the process pool's
    modules load when a pool is built, hashlib when a report is written."""
    src = str(Path(svrtune.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, svrtune.cli; "
             "print(*sorted({'multiprocessing', 'concurrent.futures', 'hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cli_defaults_are_the_librarys(data_csv, tmp_path):
    """With no optional flag, each command resolves to the library's defaults,
    and --help shows them."""
    parser = cli.build_parser()

    def resolve(*argv):
        args = parser.parse_args([*argv, "--data", str(data_csv), "--out", str(tmp_path)])
        cli._check(args)
        *options, settings = args.options(args)
        assert settings == SolverSettings()
        return options

    for method, expected in (("de", DeConfig(seed=0)), ("pso", PsoConfig(seed=0))):
        _, config, _ = resolve("tune", "--method", method, "--preset", "apple-normalized")
        assert config == expected
    assert resolve("train") == [DEFAULT_PARAMS]
    resolve("sweep", "--vary", "epsilon", "--grid", "0.01:0.2:3")
    assert f"(default: {DeConfig().pop_size})" in parser.commands["tune"].format_help()


@pytest.mark.parametrize("argv, config", [
    ([*TUNE, "--fitness", "holdout:abc"], {}),
    ([*TUNE, "--fitness", "kfold:1"], {}),
    ([*TUNE, "--c-range", "5:1"], {}),
    ([*TUNE, "--np", "2"], {}),
    ([*TUNE, "--method", "pso", "--vmax-fraction", "2"], {}),
    ([*TUNE, "--kkt-tolerance", "0"], {}),
    ([*TUNE, "--max-passes", "0"], {}),
    (["sweep", "--vary", "epsilon", "--grid", "0.01:0.2:3", "--fix", "c=-1"], {}),
    (["train"], {"c": "abc"}),
    (["train"], {"train_n": "x"}),
    (["train"], "{bad"),
    (["train", "--out", "{file}/x"], {}),
    (["ingest"], {"normalize": "false"}),
    ([*TUNE, "--c-range", "1e-11:4e-11"], {}),
    (["sweep", "--grid", "0.01:0.2:3"], {}),
    (["sweep", "--vary", "epsilon"], {}),
    (TUNE_WITHOUT_METHOD, {}),
    (["sweep", "--grid", "0.01:0.2:3"], {"vary": "delta"}),
    (["sweep", "--vary", "epsilon"], {"grid": [0.01, 0.2, 3]}),
    (TUNE_WITHOUT_METHOD, {"method": "ga"}),
    ([*TUNE, "--threads", "0"], {}),
    (TUNE[:-2], {"threads": 0}),
    ([*TUNE, "--fitness", "bogus"], {}),
    (["tune", "--method", "de", "--preset", "honeywell-raw", "--gmax", "1", "--threads", "1"],
     {"np_size": 4.7}),
    (TUNE[:-2], {"threads": 1.5}),
    (["tune", "--method", "de", "--epsilon-range", "0.02:0.1", "--gamma-range", "0.3:1.5",
      "--np", "5", "--gmax", "1", "--threads", "1"], {"c_range": [0.5, 8]}),
    (["train", "--c", "1e-300"], {}),
    (["train", "--c", "1e-9"], {}),
    (["sweep", "--vary", "epsilon", "--grid", "0.01:0.2:3", "--fix", "c=inf"], {}),
    (["sweep", "--vary", "c", "--grid", "0.5:8:3", "--fix", "epsilon=inf"], {}),
    (["sweep", "--vary", "epsilon", "--grid", "0.01:inf:3"], {}),
    (["sweep", "--vary", "c", "--grid", "1e-300:1:3"], {}),
    (["train", "--c", "1e308"], {}),
    ([*TUNE, "--c-range", "1:1e308"], {}),
    (["sweep", "--vary", "c", "--grid", "1:1e308:3"], {}),
    ([*TUNE, "--fitness", "kfold:121"], {}),
    ([*TUNE, "--fitness", "holdout:0.999"], {}),
    ([*TUNE, "--method", "pso", "--w", "nan"], {}),
    ([*TUNE, "--method", "pso", "--w", "inf"], {}),
    ([*TUNE, "--method", "pso", "--c1", "nan"], {}),
    ([*TUNE, "--method", "pso", "--c2", "inf"], {}),
    ([*TUNE, "--f", "inf"], {}),
    (["sweep", "--train-n", "1", "--vary", "epsilon", "--grid", "0.01:0.2:3"], {}),
], ids=["holdout-abc", "kfold-1", "c-range-5-1", "np-2", "vmax-fraction-2", "kkt-tolerance-0",
        "max-passes-0", "fix-c-negative", "config-c-abc", "config-train-n-x", "config-bad-json",
        "out-under-a-file", "config-normalize-string", "c-range-below-sv-threshold",
        "sweep-without-vary", "sweep-without-grid", "tune-without-method", "config-vary-delta",
        "config-grid-list", "config-method-ga", "threads-0", "config-threads-0",
        "fitness-unknown", "config-np-size-4.7", "config-threads-1.5", "config-c-range-list",
        "train-c-1e-300", "train-c-1e-9", "fix-c-inf", "fix-epsilon-inf", "grid-hi-inf",
        "grid-c-1e-300", "train-c-1e308", "c-range-to-1e308", "grid-c-to-1e308",
        "kfold-121-of-120", "holdout-0.999", "pso-w-nan", "pso-w-inf", "pso-c1-nan",
        "pso-c2-inf", "de-f-inf", "sweep-default-c-train-n-1"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rejected_values_exit_2(data_csv, tmp_path, capsys, argv, config):
    """A flag or config-file value that does not convert or is out of range
    is a usage error, reported before any model is fitted and without a
    numpy warning."""
    (tmp_path / "file").write_text("")
    path = tmp_path / "run.json"
    path.write_text(config if isinstance(config, str)
                    else json.dumps({"train_n": 120, "test_n": 50, **config}))
    argv = [arg.replace("{file}", str(tmp_path / "file")) for arg in argv]
    try:
        code = main([argv[0], "--data", str(data_csv), "--out", str(tmp_path / "o"),
                     "--config", str(path), *argv[1:]])
    except SystemExit as exc:  # rejected by the argument parser
        code = exc.code
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


REFUSED = {
    "ingest": ["--test-n", "--seed", "--threads", "--kkt-tolerance", "--max-passes"],
    "sweep": ["--threads"],
    "train": ["--seed", "--threads"],
    "predict": ["--normalize", "--x-low", "--x-up", "--train-n", "--test-n", "--fit-range",
                "--seed", "--threads", "--kkt-tolerance", "--max-passes"],
}
VALID = {"--test-n": ["50"], "--seed": ["5"], "--threads": ["1"], "--kkt-tolerance": ["0.001"],
         "--max-passes": ["3"], "--normalize": [], "--x-low": ["-1"], "--x-up": ["1"],
         "--train-n": ["120"], "--fit-range": ["train"]}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A walk, its supervised set and a model trained on it."""
    root = tmp_path_factory.mktemp("trained")
    data = root / "prices.csv"
    data.write_text(series_to_csv(synthetic_ohlcv(rows=171, seed=0, drift=0.0004)),
                    encoding="utf-8")
    assert main(["ingest", "--data", str(data), "--out", str(root)]) == 0
    assert main(["train", *shared(data, root)]) == 0
    return root


@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command, flags in REFUSED.items() for flag in flags),
    ("sweep", "--seed"),
])
def test_each_command_refuses_the_flags_it_does_not_read(trained, tmp_path, capsys, command, flag):
    """A flag that a command would not read is refused (exit 2, nothing written).
    sweep keeps --seed, which draws nothing: the sweep is the same without it."""
    data = str(trained / "prices.csv")
    split = ["--data", data, "--train-n", "120", "--test-n", "50"]
    base = {
        "ingest": ["ingest", "--data", data],
        "sweep": ["sweep", *split, "--vary", "epsilon", "--grid", "0.01:0.2:3"],
        "train": ["train", *split],
        "predict": ["predict", "--data", str(trained / "supervised.csv"),
                    "--model", str(trained / "model.json")],
    }[command]
    out = tmp_path / "o"
    argv = [*base, "--out", str(out), flag, *VALID[flag]]
    if flag in REFUSED[command]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert main(argv) == 0
        assert main([*base, "--out", str(tmp_path / "plain")]) == 0
        assert (out / "sweep.csv").read_bytes() == (tmp_path / "plain" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("fitness, extra, code", [
    ("kfold:2", [], 0), ("bogus", [], 2), ("holdout:abc", [], 2),
    ("kfold:2", ["--np", "2"], 2), ("kfold:2", ["--train-n", "5000"], 3),
    ("kfold:2", ["--data", "{tmp}/none.csv"], 3), ("kfold:2", ["--test-n", "0"], 2),
    ("kfold:2", ["--rows", "0"], 2), ("kfold:2", ["--train-n", "0"], 2),
    ("kfold:2", ["--train-n", "-5"], 2), ("kfold:2", ["--threads", "0"], 2),
    ("kfold:2", ["--threads", "-3"], 2), ("kfold:100", [], 2),
    ("kfold:2", ["--synthetic-seed", "-1"], 2),
], ids=["kfold:2-0", "bogus-2", "holdout:abc-2", "np-2", "train-n-5000", "data-missing",
        "test-n-0", "rows-0", "train-n-0", "train-n-negative", "threads-0", "threads-negative",
        "kfold:100-of-80", "synthetic-seed-negative"])
def test_comparison_script_parses_fitness_as_the_cli_does(tmp_path, fitness, extra, code):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_comparison.py"
    src = str(Path(svrtune.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, str(script), "--rows", "120", "--train-n", "80", "--test-n", "30",
         "--np", "4", "--gmax", "1", "--swarm", "2", "--iters", "1", "--threads", "1",
         "--fitness", fitness, "--out", str(out),
         *(arg.replace("{tmp}", str(tmp_path)) for arg in extra)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (out / "de_report.json").exists() == (code == 0)


def test_make_synthetic_writes_the_desk_walk(tmp_path):
    """make_synthetic.py --rows 701 --seed 0, the walk of the desk tune, is
    synthetic_ohlcv(rows=701, seed=0): the script takes its defaults from the
    library."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic.py"
    src = str(Path(svrtune.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "walk.csv"
    proc = subprocess.run([sys.executable, str(script), "--rows", "701", "--seed", "0",
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    library = series_to_csv(synthetic_ohlcv(rows=701, seed=0)).encode("utf-8")
    written = hashlib.sha256(out.read_bytes()).hexdigest()
    assert written == hashlib.sha256(library).hexdigest()
    assert written == "c897c80ad644286a7e85bec813ca8396a206e36235802760c0d47da5cde4bb34"


@pytest.mark.parametrize("flag, value", [("--rows", "0"), ("--seed", "-3")])
def test_make_synthetic_refuses_bad_values_with_exit_2(tmp_path, flag, value):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic.py"
    src = str(Path(svrtune.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "walk.csv"
    proc = subprocess.run([sys.executable, str(script), flag, value, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1
    assert not out.exists()


def test_failed_comparison_leaves_the_previous_run_whole(tmp_path):
    """run_comparison.py writes nothing until every file is serialized, so a
    run that fails keeps an earlier run's files in the same --out, data.csv too."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_comparison.py"
    src = str(Path(svrtune.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "cmp"
    argv = [sys.executable, str(script), "--rows", "120", "--train-n", "80", "--test-n", "30",
            "--np", "4", "--gmax", "1", "--swarm", "2", "--iters", "1", "--threads", "1",
            "--out", str(out)]
    first = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert first.returncode == 0, first.stderr
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    # recorded before one writer (jsonio.csv_text) built every CSV artifact
    for name, digest in (
            ("data.csv", "a38fb8a8469fdcfb155d0267336af8652f7cffce556fe59f192e980fa3f42651"),
            ("predictions.csv", "f28f1873db0f19185e45859095c28ecfa1c9a15144c5eee7df46bd52cdfe7344")):
        assert hashlib.sha256(before[name]).hexdigest() == digest, name
    failed = subprocess.run([*argv, "--synthetic-seed", "1", "--train-n", "5000"], env=env,
                            capture_output=True, text=True, timeout=300)
    assert failed.returncode == 3, failed.stderr
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


class TestSplitValidation:
    def test_oversized_split_exits_3(self, data_csv, tmp_path):
        assert main(["train", "--data", str(data_csv), "--out", str(tmp_path / "o"),
                     "--train-n", "500", "--test-n", "200"]) == 3

    def test_zero_test_rows_rejected_for_evaluation(self, data_csv, tmp_path):
        assert main(["train", "--data", str(data_csv), "--out", str(tmp_path / "o"),
                     "--train-n", "170", "--test-n", "0"]) == 2
