import math
import struct
from datetime import date

import numpy as np
import pytest

from svrtune import jsonio

# subnormal minimum, smallest normal, a non-terminating binary fraction, a
# 17-digit repr, integral values past 2**53, the largest finite double, -0.0
# (its sign) and 4.0, an integral value that must still read back as a float
DOUBLES = [5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 2.0**53 + 2, 1e16,
           1.7976931348623157e308, -0.0, 4.0]


def bits(x):
    return struct.pack("<d", x)


@pytest.mark.parametrize("x", DOUBLES, ids=repr)
def test_round_trip_is_bit_exact_and_stays_float(x):
    assert bits(float(jsonio.fmt_float(x))) == bits(x)
    for back in (jsonio.loads(jsonio.dumps(x)), jsonio.loads(jsonio.dumps({"x": [x]}))["x"][0]):
        assert type(back) is float
        assert bits(back) == bits(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_are_refused(x):
    with pytest.raises(ValueError):
        jsonio.fmt_float(x)
    with pytest.raises(ValueError):
        jsonio.dumps({"x": [1.0, x]})


@pytest.mark.parametrize("text", ["NaN", "[1.0, Infinity]", '{"x": -Infinity}', "1e999", "[-1e400]"])
def test_non_finite_numbers_are_refused_when_read(text):
    with pytest.raises(ValueError, match="non-finite number"):
        jsonio.loads(text)


def test_layout_keeps_key_order_and_ends_in_one_newline():
    doc = {"z": 1, "a": [0.5, True, None], "m": {"y": "s", "b": []}, "e": {}}
    text = jsonio.dumps(doc)
    assert list(jsonio.loads(text)) == ["z", "a", "m", "e"]
    assert list(jsonio.loads(text)["m"]) == ["y", "b"]
    assert text == ('{\n  "z": 1,\n  "a": [\n    0.5,\n    true,\n    null\n  ],\n'
                    '  "m": {\n    "y": "s",\n    "b": []\n  },\n  "e": {}\n}\n')


@pytest.mark.parametrize("x", DOUBLES, ids=repr)
def test_csv_cells_round_trip_bit_exact(x):
    for cell in (x, np.float64(x)):
        text = jsonio.csv_text(("x", "y"), [(cell, cell)])
        header, line = text.splitlines()
        assert header == "x,y"
        for field in line.split(","):
            assert bits(float(field)) == bits(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_csv_refuses_non_finite_cells(x):
    for cell in (x, np.float64(x)):
        with pytest.raises(ValueError):
            jsonio.csv_text(("a", "b"), [(1.0, 2.0), (0.5, cell)])


def test_csv_writes_ints_and_dates_through_str():
    text = jsonio.csv_text(["date", "n", "k", "v"],
                           [(date(2015, 1, 2), 3, np.int64(-7), 4.0), (date(2016, 2, 29), 0, 1, 0.1)])
    assert text == "date,n,k,v\n2015-01-02,3,-7,4.0\n2016-02-29,0,1,0.1\n"


def test_csv_header_only_table_is_one_line():
    assert jsonio.csv_text(("actual", "predicted"), []) == "actual,predicted\n"
    assert jsonio.csv_text(("predicted",), iter(())) == "predicted\n"
