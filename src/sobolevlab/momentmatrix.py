"""Infinite Hermitian moment matrices represented by section builders.

A matrix is a builder n -> (n x n leading section) plus a label and a
hint about strict positive definiteness of its finite sections.
Sections are materialized on demand through ``section``, which keeps
only the largest section built so far and slices smaller ones from it.
Every built section is mirrored (strict lower triangle = conjugated
upper one, real diagonal), so sections are exactly Hermitian even if the
builder is only approximately so.
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
    "delete_first",
    "derivative_conjugate",
    "inner_product",
    "is_toeplitz",
    "norm_sq",
    "of_measure",
    "section",
    "section_csv",
    "toeplitz_rule",
    "zero_matrix",
]

#: absolute entry tolerance for the constant-diagonal (Toeplitz) test
TOEPLITZ_TOL = 1e-13


@dataclass(eq=False)
class MomentMatrix:
    """Section builder for an infinite Hermitian matrix.

    ``build(n)`` returns the leading n x n section; the builder of a
    measure's matrix is ``measures.moment_section``.  ``hpd_hint``
    records whether every finite section is expected to be strictly
    positive definite (true for matrices of measures with infinite
    support); consumers use it only to pick test corpora, never to skip
    numerical gates.
    """

    build: Callable[[int], np.ndarray]
    label: str = ""
    hpd_hint: bool = False
    _largest: np.ndarray | None = field(default=None, init=False, repr=False)


def section(m: MomentMatrix, n: int) -> np.ndarray:
    """Dense n x n leading section, exactly Hermitian by mirroring.

    Only the largest section built so far is kept; a request beyond it
    builds the new size and replaces it.
    """
    if n < 1:
        raise ValueError("section size must be at least 1")
    if m._largest is None or m._largest.shape[0] < n:
        m._largest = numkernel.mirror_upper(m.build(n))
    return m._largest[:n, :n].copy()


def of_measure(mu: measures.Measure) -> MomentMatrix:
    """Moment matrix of a measure; the label records the measure JSON."""
    return MomentMatrix(
        build=lambda n: measures.moment_section(mu, n),
        label=json.dumps(measures.to_json(mu), separators=(",", ":")),
        hpd_hint=measures.has_infinite_support(mu),
    )


def zero_matrix() -> MomentMatrix:
    return MomentMatrix(build=lambda n: np.zeros((n, n), dtype=complex), label="zero", hpd_hint=False)


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

    return MomentMatrix(build=build, label=label, hpd_hint=False)


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

    return MomentMatrix(build=build, label=f"dconj({m1.label})", hpd_hint=False)


def delete_first(m: MomentMatrix) -> MomentMatrix:
    """Remove row and column 0: entry (i, j) -> M[i+1, j+1]."""
    return MomentMatrix(
        build=lambda n: section(m, n + 1)[1:, 1:],
        label=f"delete_first({m.label})",
        hpd_hint=m.hpd_hint,
    )


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


def section_csv(a: np.ndarray) -> str:
    """Row-major CSV dump with 're+imi' cells and a column-index header."""
    n, mcols = a.shape
    lines = [",".join(f"col_{j}" for j in range(mcols))]
    for i in range(n):
        lines.append(",".join(_complex_cell(a[i, j]) for j in range(mcols)))
    return "\n".join(lines) + "\n"


def _complex_cell(z: complex) -> str:
    return "%.12e%+.12ei" % (z.real, z.imag)
