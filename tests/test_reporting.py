"""Deterministic serialization."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

import oracles
from sobolevlab import cli, reporting
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


# ---------------------------------------------------------------------------
# The exact-type table against the per-value rules of oracles.render_json
# and oracles.csv_text, byte for byte
# ---------------------------------------------------------------------------

class Labels(dict):
    pass


class Count(int):
    pass


FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.5e-310, 1.7976931348623157e308, -1 / 3, 1e100]
SCALARS = [
    None, True, False, 0, -7, 10**30, Count(5), "", "a\"b\\cé\n", np.str_("np"),
    np.float64(0.1), np.float64(math.nan), np.float32(0.1), np.float32(-math.inf), np.int64(-3), np.uint8(200),
    np.bool_(True), np.bool_(False), *FLOATS,
]
JSON_CORPUS = SCALARS + [
    [], (), {}, Labels(), [[]], [{}], [[], {}], list(FLOATS), tuple(FLOATS), [1.0, math.nan, 2.0], [math.inf],
    [-math.inf, 0.0, -0.0], [1e308, 1e308], [1.0, np.float64(2.0)], [1, 2.0, "x", None, True, np.bool_(False)],
    [[1.0, 2.0], [3.0]], [[1.0], 2.0], ([1, 2], (3.0, math.nan)), [(), [], np.zeros(0)],
    {"b": 1, "a": [1.5, {"x": -0.0}], 3: None, (1, 2): [[]]}, Labels(z=1.0, a=Labels(k=[np.int64(2)])),
    {"floats": FLOATS, "nested": [{"k": [1.0, 2.0]}, {"k": []}], "matrix": np.arange(6.0).reshape(2, 3)},
    np.array([0.5, math.nan, math.inf]), np.array([[1, 2], [3, 4]]), np.array([True, False]), np.float32([1.5, 2.5]),
]


@pytest.mark.parametrize("obj", JSON_CORPUS, ids=lambda obj: type(obj).__name__)
def test_render_json_matches_the_per_value_oracle(obj):
    for indent in (0, 2):
        assert render_json(obj, indent) == oracles.render_json(obj, indent)
    assert render_json({"k": obj}) == oracles.render_json({"k": obj})
    assert render_json([obj, obj]) == oracles.render_json([obj, obj])


@pytest.mark.parametrize(
    "obj",
    [object(), 1.0 + 2.0j, np.complex128(1.0), np.array(1.0), np.array([1j]), {1, 2}, b"x", [object()], {"k": 1j}],
    ids=lambda obj: type(obj).__name__,
)
def test_render_json_rejects_what_the_oracle_rejects(obj):
    with pytest.raises(TypeError):
        oracles.render_json(obj)
    with pytest.raises(TypeError):
        render_json(obj)


def _matrix():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a[0, 1], a[1, 0], a[2, 2] = complex(math.nan, -0.0), complex(math.inf, math.nan), complex(-0.0, 5e-324)
    a.flags.writeable = False
    return a


CSV_CORPUS = {
    "scalars": [(1, 0.5, "ok"), (2, math.nan, ""), (True, np.bool_(True), False, np.bool_(False))],
    "floats": [tuple(FLOATS), tuple(np.float64(x) for x in FLOATS), (np.float32(0.1), np.float32(math.nan))],
    "ints": [(np.int64(-3), np.uint8(7), 10**30, Count(4)), (None, "s", (1, 2), np.str_("t"))],
    "complex": [(0, 1j, complex(math.nan, -0.0), np.complex128(-0.0 - 2j)), (1, np.complex64(1 + 1j), 0j, 2.0)],
    "opoly": [[k, *np.arange(k + 1) * (1 - 1j), *[0j] * (3 - k)] for k in range(4)],
    "empty": [(), []],
    "matrix": _matrix(),
    "leading-block": _matrix()[:3, :3],
    "transposed": _matrix().T,
    "float-array": np.array([[1.5, math.nan], [-0.0, math.inf]]),
    "bool-array": np.array([[True, False]]),
    "complex64-array": np.array([[1 + 2j, math.nan]], dtype=np.complex64),
}


@pytest.mark.parametrize("name", list(CSV_CORPUS))
def test_write_csv_matches_the_per_value_oracle(tmp_path, name):
    rows = CSV_CORPUS[name]
    header = [f"c{j}" for j in range(max(len(r) for r in rows))]
    write_csv(str(tmp_path / "t.csv"), header, rows)
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == oracles.csv_text(header, rows)


def test_a_bool_and_a_numpy_bool_in_one_row(tmp_path):
    write_csv(str(tmp_path / "t.csv"), ("a", "b"), [(True, np.bool_(True))])
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "a,b\n1,True\n"


@pytest.mark.parametrize("nmax", [32, 64])
def test_every_builtin_report_body_matches_the_oracle(tmp_path, monkeypatch, nmax):
    bodies = []
    real_json, real_csv = reporting.write_json, reporting.write_csv
    monkeypatch.setattr(reporting, "write_json", lambda path, obj: bodies.append((path, obj)) or real_json(path, obj))
    monkeypatch.setattr(reporting, "write_csv", lambda path, header, rows: bodies.append(
        (path, (header, rows))) or real_csv(path, header, rows))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--builtin", "all", "--seed", "0", "--nmax", str(nmax), "--out", str(tmp_path)])
    assert len(bodies) == 19
    for path, body in bodies:
        text = oracles.csv_text(*body) if path.endswith(".csv") else oracles.render_json(body) + "\n"
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == text, path
