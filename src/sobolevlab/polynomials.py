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
    "recenter",
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
    """V[i, k] = points[k]**i for i < n, by repeated multiplication."""
    pts = np.atleast_1d(np.asarray(points))
    v = np.ones((n, pts.size), dtype=pts.dtype)
    if n > 1:
        v[1:] = np.cumprod(np.broadcast_to(pts, (n - 1, pts.size)), axis=0)
    return v


def evaluate(v, z):
    """Evaluate p at z (scalar or array) by Horner's scheme."""
    c = as_coeffs(v)
    if len(c) == 0:
        return np.zeros_like(np.asarray(z, dtype=complex))
    return np.polynomial.polynomial.polyval(z, c)


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


def random_coeffs(rng: np.random.Generator, deg: int) -> np.ndarray:
    """Random complex coefficients with exact degree ``deg``."""
    if deg < 0:
        return np.zeros(0, dtype=complex)
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    while c[-1] == 0:  # pragma: no cover - probability zero
        c[-1] = rng.standard_normal() + 1j * rng.standard_normal()
    return c
