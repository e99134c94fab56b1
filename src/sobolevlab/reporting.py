"""Deterministic JSON and CSV rendering for reports.

Identical inputs must produce byte-identical files, so floats are always
formatted as %.12e (complex CSV cells as %.12e%+.12ei), dict key order
is preserved exactly as built, and nothing environment-dependent
(timestamps, paths, hostnames) is ever embedded.  NaN and infinities are
null in JSON and nan, inf or -inf in CSV.  JSON values render through one
table keyed by exact type (None, bool, int, float, str, dict, list);
another type is first mapped onto it by ``_PLAIN`` (numpy scalars to
bool, int or float, dict subclasses to dict, tuples and arrays to lists)
or raises TypeError.  A list of finite floats renders with one ``%`` over
a joined %.12e format, a CSV row with one ``%`` over a format built from
its cells' types (``_CELL_FORMATS``: a bool prints 1, a numpy bool True),
and a complex matrix row by row from its float view.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

__all__ = ["float_repr", "render_json", "write_csv", "write_json"]

FLOAT_FORMAT = "%.12e"
COMPLEX_FORMAT = "%.12e%+.12ei"
#: (types, table type) in the order tried for a value outside the table
_PLAIN = (((bool, np.bool_), bool), ((int, np.integer), int), ((float, np.floating), float),
          (str, str), (dict, dict), ((list, tuple, np.ndarray), list))
#: (types, format) of CSV cells in the order tried; other cells print with %s
_CELL_FORMATS = ((complex, COMPLEX_FORMAT), ((float, np.floating), FLOAT_FORMAT), ((int, np.integer), "%d"))
_string = json.encoder.encode_basestring_ascii  # json.dumps of a str


def float_repr(x: float) -> str:
    x = float(x)
    return FLOAT_FORMAT % x if math.isfinite(x) else "null"


def _dict(obj: dict, indent: int) -> str:
    if not obj:
        return "{}"
    pad = "  " * indent
    items = [f"{pad}  {_string(str(k))}: {_JSON.get(type(v), render_json)(v, indent + 1)}" for k, v in obj.items()]
    return "{\n" + ",\n".join(items) + f"\n{pad}}}"


def _list(seq: list, indent: int) -> str:
    if not seq:
        return "[]"
    kinds = set(map(type, seq))
    if kinds == {float} and math.isfinite(sum(seq)):  # an overflowing sum takes the item path
        return "[" + ", ".join([FLOAT_FORMAT] * len(seq)) % tuple(seq) + "]"
    rendered = [_JSON.get(type(v), render_json)(v, indent + 1) for v in seq]
    if all(issubclass(k, (dict, list, tuple, np.ndarray)) for k in kinds):  # one item per line
        pad = "  " * indent
        return "[\n" + ",\n".join(f"{pad}  {r}" for r in rendered) + f"\n{pad}]"
    return "[" + ", ".join(rendered) + "]"


_JSON = {type(None): lambda obj, indent: "null", bool: lambda obj, indent: "true" if obj else "false",
         int: lambda obj, indent: str(obj), float: lambda obj, indent: float_repr(obj),
         str: lambda obj, indent: _string(obj), dict: _dict, list: _list}


def render_json(obj, indent: int = 0) -> str:
    """Render to JSON text with fixed float formatting and key order."""
    render = _JSON.get(type(obj))
    if render is None:
        kind = next((kind for types, kind in _PLAIN if isinstance(obj, types)), None)
        if kind is None:
            raise TypeError(f"cannot render {type(obj).__name__} deterministically")
        obj, render = kind(obj), _JSON[kind]
    return render(obj, indent)


def write_json(path: str, obj) -> None:
    """Write ``render_json(obj)`` and a newline to ``path``; the directory
    must exist (the command that writes the reports makes it once)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(obj))
        fh.write("\n")


@functools.lru_cache(maxsize=256)
def _row_format(kinds: tuple) -> tuple[str, bool]:
    # the format of a row with cells of these types, and whether a complex cell takes two arguments
    cells = [next((f for types, f in _CELL_FORMATS if issubclass(k, types)), "%s") for k in kinds]
    return ",".join(cells), COMPLEX_FORMAT in cells


def _csv_line(row) -> str:
    fmt, split = _row_format(tuple(map(type, row)))
    if split:
        row = [x for v in row for x in ((v.real, v.imag) if isinstance(v, complex) else (v,))]
    return fmt % tuple(row)


def write_csv(path: str, header, rows) -> None:
    """Write the header line and one line per row to ``path``, whose
    directory must exist."""
    if isinstance(rows, np.ndarray) and rows.dtype == complex:
        fmt = ",".join([COMPLEX_FORMAT] * rows.shape[1])
        lines = [fmt % tuple(r) for r in np.ascontiguousarray(rows).view(float).tolist()]
    else:
        lines = [_csv_line(row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([",".join(header), *lines]))
        fh.write("\n")
