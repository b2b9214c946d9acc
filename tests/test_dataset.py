import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svrtune.dataset import (
    DataError,
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
from svrtune.synth import synthetic_ohlcv

CSV_3ROWS = """date,open,high,low,close,adj close,volume
2020-01-02,10,11,9,10.5,10.4,1000
2020-01-03,10.5,12,10,11.5,11.4,1100
2020-01-06,11.5,12.5,11,12,11.9,900
"""


def make_set(features, targets):
    return SupervisedSet(np.asarray(features, float), np.asarray(targets, float))


class TestParseCsv:
    def test_three_rows(self):
        series = parse_csv(CSV_3ROWS)
        assert len(series) == 3
        days = [b.day for b in series.rows]
        assert days == sorted(days)
        assert series.rows[0].open == 10.0
        assert series.rows[2].volume == 900.0

    def test_newest_first_canonicalized(self):
        lines = CSV_3ROWS.strip().splitlines()
        reversed_csv = "\n".join([lines[0]] + lines[1:][::-1])
        assert parse_csv(reversed_csv) == parse_csv(CSV_3ROWS)

    def test_bad_volume_names_row_and_column(self):
        bad = CSV_3ROWS.replace("2020-01-03,10.5,12,10,11.5,11.4,1100",
                                "2020-01-03,10.5,12,10,11.5,11.4,abc")
        with pytest.raises(DataError, match=r"row 3.*volume"):
            parse_csv(bad)

    def test_missing_column(self):
        with pytest.raises(DataError, match="volume"):
            parse_csv("date,open,high,low,close,adj close\n2020-01-02,1,2,0.5,1,1\n")

    def test_duplicate_date(self):
        dup = CSV_3ROWS + "2020-01-03,1,2,0.5,1,1,5\n"
        with pytest.raises(DataError, match=r"duplicate date"):
            parse_csv(dup)

    def test_empty_body(self):
        with pytest.raises(DataError, match="no data rows"):
            parse_csv("date,open,high,low,close,adj close,volume\n")

    def test_non_iso_date_rejected(self):
        bad = CSV_3ROWS.replace("2020-01-02", "01/02/2020")
        with pytest.raises(DataError, match=r"row 2.*date"):
            parse_csv(bad)

    def test_envelope_violation_rejected(self):
        bad = CSV_3ROWS.replace("2020-01-02,10,11,9,10.5,10.4,1000",
                                "2020-01-02,10,10.2,9,10.5,10.4,1000")
        with pytest.raises(DataError, match="high"):
            parse_csv(bad)

    def test_header_aliases_and_extra_columns(self):
        text = ("Ticker,Date,OPEN,High,Low,Close,Adj_Close,Volume\n"
                "X,2020-01-02,10,11,9,10.5,10.4,1000\n"
                "X,2020-01-03,10.5,12,10,11.5,11.4,1100\n")
        assert len(parse_csv(text)) == 2


class TestBuildSupervised:
    def test_minimal_two_rows(self):
        series = parse_csv(CSV_3ROWS)
        sset = build_supervised(series)
        assert len(sset) == 2
        np.testing.assert_allclose(sset.features[0], [10, 11, 9, 10.4, 1000])
        assert sset.targets[0] == 11.5  # next day's close
        assert sset.targets[1] == 12.0

    def test_701_rows_give_700_supervised(self):
        series = synthetic_ohlcv(rows=701, seed=0)
        assert len(build_supervised(series)) == 700

    def test_constant_series(self):
        rows = "\n".join(
            f"2020-01-{d:02d},7,7,7,7,7,100" for d in range(1, 11)
        )
        sset = build_supervised(parse_csv("date,open,high,low,close,adj close,volume\n" + rows))
        assert np.all(sset.features == sset.features[0])
        assert np.all(sset.targets == 7.0)

    def test_single_row_rejected(self):
        series = parse_csv("date,open,high,low,close,adj close,volume\n2020-01-02,10,11,9,10.5,10.4,1000\n")
        with pytest.raises(DataError):
            build_supervised(series)


class TestNormalizer:
    def test_min_max_extraction(self):
        sset = make_set([[10, 1, 1, 1, 1], [20, 2, 2, 2, 2]], [5, 6])
        nmap = fit_normalizer(sset, -1.0, 1.0)
        stats = nmap.stats_for("open")
        assert (stats.x_min, stats.x_max) == (10.0, 20.0)
        assert not stats.degenerate

    def test_degenerate_column_flagged(self):
        sset = make_set([[5, 1, 1, 1, 1], [5, 2, 2, 2, 2], [5, 3, 3, 3, 3]], [1, 2, 3])
        nmap = fit_normalizer(sset, -1.0, 1.0)
        assert nmap.stats_for("open").degenerate

    def test_fit_rows_restricts_range(self):
        feats = np.ones((700, 5))
        feats[:, 0] = np.arange(700.0)
        sset = make_set(feats, np.arange(700.0))
        nmap = fit_normalizer(sset, -1.0, 1.0, fit_rows=range(500))
        assert nmap.stats_for("open").x_max == 499.0

    def test_empty_fit_range_rejected(self):
        sset = make_set([[1, 1, 1, 1, 1]], [1])
        with pytest.raises(DataError):
            fit_normalizer(sset, -1.0, 1.0, fit_rows=[])

    def test_bounds_rejected_by_the_map(self):
        sset = make_set([[1, 1, 1, 1, 1]], [1])
        with pytest.raises(DataError, match="x_up must exceed x_low"):
            fit_normalizer(sset, 1.0, 1.0)

    def test_midpoint_maps_to_center(self):
        sset = make_set([[10, 0, 0, 0, 0], [20, 1, 1, 1, 1]], [0, 1])
        nmap = fit_normalizer(sset, -1.0, 1.0)
        out = apply_normalizer(nmap, make_set([[15, 0, 0, 0, 0]], [0.5]))
        assert out.features[0, 0] == 0.0
        assert out.targets[0] == 0.0

    def test_endpoints_map_exactly(self):
        sset = make_set([[10, 0, 3, 0, 5], [20, 1, 9, 2, 8]], [0, 1])
        nmap = fit_normalizer(sset, -1.0, 1.0)
        out = apply_normalizer(nmap, sset)
        assert out.features[0, 0] == -1.0
        assert out.features[1, 0] == 1.0
        assert out.targets[0] == -1.0 and out.targets[1] == 1.0

    def test_out_of_range_extrapolates(self):
        sset = make_set([[10, 0, 0, 0, 0], [20, 1, 1, 1, 1]], [0, 1])
        nmap = fit_normalizer(sset, -1.0, 1.0)
        out = apply_normalizer(nmap, make_set([[25, 0, 0, 0, 0]], [0]))
        assert out.features[0, 0] == 2.0  # no clamping

    def test_degenerate_maps_to_center(self):
        sset = make_set([[5, 0, 0, 0, 0], [5, 1, 1, 1, 1]], [0, 1])
        nmap = fit_normalizer(sset, -1.0, 1.0)
        out = apply_normalizer(nmap, sset)
        assert np.all(out.features[:, 0] == 0.0)

    def test_column_mismatch_rejected(self):
        sset = make_set([[10, 0, 0, 0, 0], [20, 1, 1, 1, 1]], [0, 1])
        nmap = fit_normalizer(sset, -1.0, 1.0)
        other = SupervisedSet(sset.features, sset.targets,
                              column_names=("a", "b", "c", "d", "e"))
        with pytest.raises(DataError):
            apply_normalizer(nmap, other)

    def test_invert_examples(self):
        sset = make_set([[10, 0, 0, 0, 0], [20, 1, 1, 1, 1]], [0, 1])
        nmap = fit_normalizer(sset, -1.0, 1.0)
        assert invert_normalizer(nmap, "open", 0.0) == 15.0
        assert invert_normalizer(nmap, "open", -1.0) == 10.0

    def test_invert_degenerate_rejected(self):
        sset = make_set([[5, 0, 0, 0, 0], [5, 1, 1, 1, 1]], [0, 1])
        nmap = fit_normalizer(sset, -1.0, 1.0)
        with pytest.raises(DataError):
            invert_normalizer(nmap, "open", 0.0)

    def test_round_trip_1000_values(self):
        rng = np.random.default_rng(3)
        feats = rng.uniform(-1e4, 1e4, size=(1000, 5))
        targs = rng.uniform(1.0, 500.0, size=1000)
        sset = make_set(feats, targs)
        nmap = fit_normalizer(sset, -1.0, 1.0)
        out = apply_normalizer(nmap, sset)
        for k, name in enumerate(sset.column_names):
            back = invert_normalizer(nmap, name, out.features[:, k])
            assert np.all(np.abs(back - feats[:, k]) <= 1e-9 * np.maximum(1.0, np.abs(feats[:, k])))
        back = invert_normalizer(nmap, sset.target_name, out.targets)
        assert np.all(np.abs(back - targs) <= 1e-9 * np.maximum(1.0, np.abs(targs)))

    @given(
        lo=st.floats(-1e6, 1e6), width=st.floats(1e-3, 1e6),
        x=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, lo, width, x):
        vals = np.array([lo, lo + width, lo + x * width])
        feats = np.column_stack([vals] + [np.zeros(3)] * 4)
        sset = make_set(feats, vals)
        nmap = fit_normalizer(sset, -1.0, 1.0)
        normed = apply_normalizer(nmap, sset)
        back = invert_normalizer(nmap, "open", normed.features[:, 0])
        assert np.all(np.abs(back - vals) <= 1e-9 * np.maximum(1.0, np.abs(vals)))

    def test_apply_is_order_preserving(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(size=64)
        feats = np.column_stack([vals] + [rng.normal(size=64)] * 4)
        sset = make_set(feats, rng.normal(size=64))
        nmap = fit_normalizer(sset, -1.0, 1.0)
        out = apply_normalizer(nmap, sset)
        assert np.array_equal(np.argsort(out.features[:, 0]), np.argsort(vals))

    def test_range_invariant_over_fit_rows(self):
        rng = np.random.default_rng(12)
        sset = make_set(rng.normal(size=(50, 5)), rng.normal(size=50))
        nmap = fit_normalizer(sset, -1.0, 1.0)
        out = apply_normalizer(nmap, sset)
        assert out.features.min() >= -1.0 and out.features.max() <= 1.0
        assert out.features.min() == -1.0 and out.features.max() == 1.0

    def test_json_round_trip(self):
        sset = make_set([[10, 0, 3, 0, 5], [20, 1, 9, 2, 8]], [0, 1])
        nmap = fit_normalizer(sset, -1.0, 1.0)
        again = normalizer_from_json(normalizer_to_json(nmap))
        assert again == nmap
        assert normalizer_to_json(again) == normalizer_to_json(nmap)


class TestSplit:
    def test_500_200(self):
        series = synthetic_ohlcv(rows=701, seed=1)
        sset = build_supervised(series)
        train, test = split(sset, SplitSpec(500, 200))
        assert (len(train), len(test)) == (500, 200)

    def test_zero_test_allowed_in_library(self):
        sset = make_set(np.ones((10, 5)), np.ones(10))
        train, test = split(sset, SplitSpec(10, 0))
        assert len(train) == 10 and len(test) == 0

    def test_oversized_split_rejected(self):
        sset = make_set(np.ones((10, 5)), np.ones(10))
        with pytest.raises(DataError):
            split(sset, SplitSpec(8, 3))

    def test_concatenation_reproduces_input(self):
        rng = np.random.default_rng(5)
        sset = make_set(rng.normal(size=(30, 5)), rng.normal(size=30))
        train, test = split(sset, SplitSpec(20, 7))
        recon = np.vstack([train.features, test.features])
        assert np.array_equal(recon, sset.features[:27])
        assert np.array_equal(np.concatenate([train.targets, test.targets]), sset.targets[:27])

    def test_split_is_deterministic(self):
        rng = np.random.default_rng(6)
        sset = make_set(rng.normal(size=(30, 5)), rng.normal(size=30))
        a = split(sset, SplitSpec(20, 10))
        b = split(sset, SplitSpec(20, 10))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].targets, b[1].targets)


class TestSupervisedCsv:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        sset = make_set(rng.normal(size=(12, 5)), rng.normal(size=12))
        again, has_target = supervised_from_csv(supervised_to_csv(sset))
        assert has_target
        assert np.array_equal(again.features, sset.features)
        assert np.array_equal(again.targets, sset.targets)

    def test_missing_target_column(self):
        text = "open,high,low,adj_close,volume\n1,2,0.5,1,100\n"
        sset, has_target = supervised_from_csv(text)
        assert not has_target
        assert len(sset) == 1
