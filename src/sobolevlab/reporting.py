"""Deterministic JSON and CSV rendering for reports.

Identical inputs must produce byte-identical files, so floats are always
formatted as %.12e (complex CSV cells as %.12e%+.12ei), dict key order
is preserved exactly as built, and nothing environment-dependent
(timestamps, paths, hostnames) is ever embedded.  NaN and infinities
have no JSON spelling and are rendered as null.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

__all__ = ["float_repr", "render_json", "write_csv", "write_json"]

FLOAT_FORMAT = "%.12e"
COMPLEX_FORMAT = "%.12e%+.12ei"


def float_repr(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return "null"
    return FLOAT_FORMAT % x


def render_json(obj, indent: int = 0) -> str:
    """Render to JSON text with fixed float formatting and key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float_repr(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        rendered = [render_json(v, indent + 1) for v in seq]
        if all(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            return "[\n" + ",\n".join(inner + r for r in rendered) + f"\n{pad}]"
        return "[" + ", ".join(rendered) + "]"
    raise TypeError(f"cannot render {type(obj).__name__} deterministically")


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(obj))
        fh.write("\n")


def _cell(v) -> str:
    if isinstance(v, complex):  # numpy's complex128 included
        return COMPLEX_FORMAT % (v.real, v.imag)
    if isinstance(v, (float, np.floating)):
        x = float(v)
        return "nan" if math.isnan(x) else FLOAT_FORMAT % x
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path: str, header, rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
