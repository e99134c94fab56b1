"""Polynomial coefficient vectors in the monomial basis.

A polynomial is a 1-D complex array ``v`` where ``v[k]`` multiplies
``z**k``.  The zero polynomial is the empty array.
All helpers trim exact trailing zeros, so the trailing entry of a
nonzero coefficient vector is always nonzero.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_coeffs",
    "differentiate",
    "evaluate",
    "random_coeffs",
    "vandermonde",
]


def as_coeffs(v) -> np.ndarray:
    """Coerce to a trimmed 1-D complex coefficient vector."""
    c = np.atleast_1d(np.asarray(v, dtype=complex))
    if c.ndim != 1:
        raise ValueError("coefficient vector must be one-dimensional")
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=complex)
    return c[: nz[-1] + 1].copy()


def differentiate(v) -> np.ndarray:
    """Coefficients of the formal derivative: (k+1) * v[k+1]."""
    c = as_coeffs(v)
    if len(c) <= 1:
        return np.zeros(0, dtype=complex)
    return c[1:] * np.arange(1, len(c))


def vandermonde(points, n: int) -> np.ndarray:
    """V[i, k] = points[k]**i for i < n, by repeated multiplication.

    The rows nest: V for n is bitwise the leading n rows of V for any
    larger size.  Over two rows alone numpy's cumprod squares a complex
    point 1 ulp away from the square it gives over longer axes, so n = 3
    takes the powers up to the cube and drops it: the cube's overflow is
    not warned about, the square's is.  A single point takes its powers
    from one 1-D cumprod, bitwise the column the 2-D one gives."""
    pts = np.atleast_1d(np.asarray(points))
    if n == 3:
        with np.errstate(over="ignore", invalid="ignore"):
            v = vandermonde(pts, 4)[:3]
        if not np.isfinite(v[2]).all():
            bad = pts[~np.isfinite(v[2])]
            bad * bad  # the square's own warnings, under the caller's errstate
        return v
    if pts.size == 1:
        v = np.ones(n, dtype=pts.dtype)
        v[1:] = np.cumprod(np.full(n - 1, pts[0]))
        return v[:, None]
    v = np.ones((n, pts.size), dtype=pts.dtype)
    if n > 1:
        v[1:] = np.cumprod(np.broadcast_to(pts, (n - 1, pts.size)), axis=0)
    return v


def evaluate(v, z):
    """Evaluate p at z (scalar or array) by Horner's scheme, in the
    operation order of numpy.polynomial.polynomial.polyval, so the values
    are bitwise polyval's without importing numpy.polynomial."""
    c = as_coeffs(v)
    if isinstance(z, (tuple, list)):
        z = np.asarray(z)
    if len(c) == 0:
        return np.zeros_like(np.asarray(z, dtype=complex))
    y = c[-1] + z * 0
    for k in range(len(c) - 2, -1, -1):
        y = c[k] + y * z
    return y


def random_coeffs(rng: np.random.Generator, deg: int) -> np.ndarray:
    """Random complex coefficients with exact degree ``deg``."""
    if deg < 0:
        return np.zeros(0, dtype=complex)
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    while c[-1] == 0:  # pragma: no cover - probability zero
        c[-1] = rng.standard_normal() + 1j * rng.standard_normal()
    return c
