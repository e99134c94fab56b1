"""Infinite Hermitian moment matrices represented by section builders.

A matrix is a builder n -> (n x n leading section) plus a label.
Sections are materialized on demand through ``section``, which keeps
only the largest section built so far and slices smaller ones from it.
Every built section is mirrored (strict lower triangle = conjugated
upper one, real diagonal), so sections are exactly Hermitian even if the
builder is only approximately so, and checked for finiteness, so values
that overflowed never reach a factorization, which ``factor`` alone
performs, keeping the factor of the last size asked for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import measures, numkernel
from .polynomials import as_coeffs

__all__ = [
    "MomentMatrix",
    "derivative_conjugate",
    "factor",
    "inner_product",
    "is_toeplitz",
    "norm_sq",
    "of_measure",
    "section",
    "toeplitz_rule",
    "zero_matrix",
]

#: absolute entry tolerance for the constant-diagonal (Toeplitz) test
TOEPLITZ_TOL = 1e-13


@dataclass(eq=False)
class MomentMatrix:
    """Section builder for an infinite Hermitian matrix.

    ``build(n)`` returns the leading n x n section; the builder of a
    measure's matrix is ``measures.moment_section``.
    """

    build: Callable[[int], np.ndarray]
    label: str = ""
    _largest: np.ndarray | None = field(default=None, init=False, repr=False)
    _factor: tuple | None = field(default=None, init=False, repr=False)


def section(m: MomentMatrix, n: int) -> np.ndarray:
    """Dense n x n leading section, exactly Hermitian by mirroring.

    Only the largest section built so far is kept; a request beyond it
    builds the new size and replaces it.  A section with non-finite
    entries raises numkernel.Overflow.
    """
    if n < 1:
        raise ValueError("section size must be at least 1")
    if m._largest is None or m._largest.shape[0] < n:
        with np.errstate(over="ignore", invalid="ignore"):  # reported by require_finite
            built = numkernel.mirror_upper(m.build(n))
        m._largest = numkernel.require_finite(built, m.label)
    return m._largest[:n, :n].copy()


def factor(m: MomentMatrix, n: int) -> tuple:
    """(L, None) with L = numkernel.cholesky(section(m, n), m.label), or,
    when pivot k < n fails, (the factor of the leading k x k block, the
    NotPositiveDefinite(k)).  L is read-only and kept on the matrix for
    the last n asked; another n is factored afresh, because a block of a
    factor is not bitwise the factor of the block."""
    if m._factor is None or m._factor[0] != n:
        try:
            lower, failure = numkernel.cholesky(section(m, n), m.label), None
        except numkernel.NotPositiveDefinite as exc:
            lower, failure = exc.lower, exc
        lower.flags.writeable = False
        m._factor = (n, lower, failure)
    return m._factor[1:]


def of_measure(mu: measures.Measure) -> MomentMatrix:
    """Moment matrix of a measure; the label records the measure JSON."""
    return MomentMatrix(
        build=lambda n: measures.moment_section(mu, n),
        label=json.dumps(measures.to_json(mu), separators=(",", ":")),
    )


def zero_matrix() -> MomentMatrix:
    return MomentMatrix(build=lambda n: np.zeros((n, n), dtype=complex), label="zero")


def toeplitz_rule(coeffs, label: str = "toeplitz") -> MomentMatrix:
    """Hermitian Toeplitz matrix from diagonal values: entry (i, j) = c[j - i].

    Missing negative frequencies fall back to the conjugate of the
    positive one, so {0: c0, 1: c1, ...} suffices.
    """
    c = {int(k): complex(v) for k, v in dict(coeffs).items()}

    def build(n: int) -> np.ndarray:
        band = np.array([c.get(d, np.conj(c.get(-d, 0.0 + 0.0j))) for d in range(1 - n, n)])
        k = np.arange(n)
        return band[k[None, :] - k[:, None] + n - 1]

    return MomentMatrix(build=build, label=label)


def derivative_conjugate(m1: MomentMatrix) -> MomentMatrix:
    """Matrix of the form A * M1 * A^* for the formal-derivative map A.

    Row and column 0 vanish and entry (i, j) equals i * j * M1[i-1, j-1],
    so quadratic forms against it compute the M1-norm of the derivative:
    v B v^* == ||p'||^2_{M1}.
    """

    def build(n: int) -> np.ndarray:
        out = np.zeros((n, n), dtype=complex)
        if n > 1:
            k = np.arange(1, n, dtype=float)
            out[1:, 1:] = np.outer(k, k) * section(m1, n - 1)
        return out

    return MomentMatrix(build=build, label=f"dconj({m1.label})")


def is_toeplitz(m: MomentMatrix, n: int) -> bool:
    """True when the n x n section is constant along diagonals."""
    if n < 2:
        raise ValueError("Toeplitz test needs a section of size at least 2")
    a = section(m, n)
    return bool(np.all(np.abs(a[:-1, :-1] - a[1:, 1:]) <= TOEPLITZ_TOL))


def inner_product(a: np.ndarray, v, w) -> complex:
    """<p, q> against a Hermitian section: v A w^* in the row convention."""
    vc = as_coeffs(v)
    wc = as_coeffs(w)
    n = a.shape[0]
    if len(vc) > n or len(wc) > n:
        raise ValueError("coefficient vector longer than section")
    vp = np.zeros(n, dtype=complex)
    wp = np.zeros(n, dtype=complex)
    vp[: len(vc)] = vc
    wp[: len(wc)] = wc
    return complex(vp @ a @ np.conj(wp))


def norm_sq(a: np.ndarray, v) -> float:
    """Quadratic form v A v^*; real for Hermitian sections."""
    return inner_product(a, v, v).real
