"""Reference helpers shared by the tests; the package does not use them."""

import json
import math

import numpy as np
import pytest

from sobolevlab import measures
from sobolevlab.polynomials import as_coeffs


def recenter(v, a: complex) -> np.ndarray:
    """Taylor coefficients of p about a: p(z) = sum_k b[k] (z - a)**k.

    Classic repeated synthetic division by (z - a); O(d^2) and stable
    for the desk-scale degrees used here.
    """
    c = as_coeffs(v)
    n = len(c)
    if n == 0:
        return c
    b = c.copy()
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            b[k] += a * b[k + 1]
    return b


def counting_eigvalsh(monkeypatch, fails=lambda a: False):
    """Wrap np.linalg.eigvalsh: the returned list collects the size of
    every solve, and a matrix for which ``fails(a)`` holds does not
    converge."""
    sizes, real = [], np.linalg.eigvalsh

    def eigvalsh(a):
        sizes.append(a.shape[0])
        if fails(a):
            raise np.linalg.LinAlgError("no convergence")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return sizes


def circle_product(m, n: int) -> np.ndarray:
    """P T P^* of a weighted circle as two loops of outer products over the
    full n x n factors, every term in index order, zeros included: the
    reference that the banded triangular sweep must equal bit for bit."""
    p = measures.circle_expansion(m.center, m.radius, n)
    w = dict(m.fourier)
    band = np.array([w.get(d, 0.0 + 0.0j) for d in range(1 - n, n)], dtype=complex)
    k = np.arange(n)
    t = band[k[None, :] - k[:, None] + n - 1]
    x = np.zeros((n, n), dtype=complex)
    for j in range(n):
        x += np.outer(p[:, j], t[:, j].conj())
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        out += np.outer(x[:, j], p[:, j].conj())
    return out


def summed_product(m, n: int) -> np.ndarray:
    """The product of a measure with every sum, nested ones included,
    taken over its terms' raw products (``measures._product`` of each
    circle and atomic term), never over their mirrored sections: its
    mirror is the reference a sum's section must equal bit for bit."""
    if isinstance(m, measures.MeasureSum):
        return sum(s * summed_product(comp, n) for s, comp in m.terms)
    return measures._product(m, n)


def assert_read_only(block, reread):
    """``block`` is not writeable, a write to it raises ValueError, and
    ``reread()`` still returns its bytes."""
    before = block.tobytes()
    assert not block.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        block[...] = np.nan
    assert reread().tobytes() == before


def render_json(obj, indent: int = 0) -> str:
    """The report renderer's rules, one value at a time through an
    isinstance chain: the reference ``reporting.render_json`` must match
    byte for byte."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return "null" if math.isnan(x) or math.isinf(x) else "%.12e" % x
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


def csv_cell(v) -> str:
    """One CSV cell by the report writer's rules, one value at a time."""
    if isinstance(v, complex):  # numpy's complex128 included
        return "%.12e%+.12ei" % (v.real, v.imag)
    if isinstance(v, (float, np.floating)):
        x = float(v)
        return "nan" if math.isnan(x) else "%.12e" % x
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def csv_text(header, rows) -> str:
    """The text ``reporting.write_csv(path, header, rows)`` must write."""
    lines = [",".join(header)] + [",".join(csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"
