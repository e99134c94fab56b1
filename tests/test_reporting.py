"""Deterministic serialization."""

import json
import math

import numpy as np
import pytest

from sobolevlab.reporting import float_repr, render_json, write_csv, write_json


def test_float_repr_fixed_width():
    assert float_repr(1.0) == "1.000000000000e+00"
    assert float_repr(-0.03125) == "-3.125000000000e-02"
    assert float_repr(float("nan")) == "null"
    assert float_repr(float("inf")) == "null"


def test_render_json_scalars_and_containers():
    assert render_json(None) == "null"
    assert render_json(True) == "true"
    assert render_json(np.bool_(False)) == "false"
    assert render_json(7) == "7"
    assert render_json(np.int64(7)) == "7"
    assert render_json(0.5) == "5.000000000000e-01"
    assert render_json("a\"b") == '"a\\"b"'
    assert render_json([]) == "[]"
    assert render_json({}) == "{}"
    assert render_json([1, 2.0]) == "[1, 2.000000000000e+00]"
    assert render_json(np.array([0.25, 0.5])) == "[2.500000000000e-01, 5.000000000000e-01]"


def test_render_json_preserves_key_order_and_is_valid_json():
    obj = {"zeta": 1, "alpha": [1.0, {"x": 2}], "mid": {"b": 1, "a": 2}}
    text = render_json(obj)
    assert text.index('"zeta"') < text.index('"alpha"') < text.index('"mid"')
    parsed = json.loads(text)
    assert parsed["alpha"][1] == {"x": 2}
    assert list(parsed["mid"]) == ["b", "a"]


def test_render_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        render_json(object())
    with pytest.raises(TypeError):
        render_json(1.0 + 2.0j)


def test_write_json_trailing_newline_and_stability(tmp_path):
    path = tmp_path / "r.json"
    write_json(str(path), {"v": [1.0, None, True]})
    data = path.read_text(encoding="utf-8")
    assert data.endswith("\n")
    write_json(str(path), {"v": [1.0, None, True]})
    assert path.read_text(encoding="utf-8") == data


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("n", "value", "note"), [(1, 0.5, "ok"), (2, math.nan, "")])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["n,value,note", "1,5.000000000000e-01,ok", "2,nan,"]


def test_section_csv_format(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(str(path), ("col_0", "col_1"), np.array([[1.0, 2.0 - 3.0j]], dtype=complex))
    txt = path.read_text(encoding="utf-8")
    lines = txt.splitlines()
    assert lines[0] == "col_0,col_1"
    assert lines[1] == "1.000000000000e+00+0.000000000000e+00i,2.000000000000e+00-3.000000000000e+00i"
    assert txt.endswith("\n")
