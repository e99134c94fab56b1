"""Sobolev inner products from pairs of moment matrices.

A pencil {M0, M1} of Hermitian moment matrices (M0 positive definite on
sections, M1 positive semidefinite) induces the inner product

    <p, q> = p M0 q^*  +  p' M1 q'^*

whose Gram matrix in the monomial basis is section(M0, n) + D, with
D[i, j] = i j M1[i-1, j-1] read off section(M1, n - 1) and zero in row
and column 0; the pencil keeps it as one more MomentMatrix.  This module
materializes Gram sections, orthonormalizes the monomials of any moment
matrix (a pencil's through its Gram), finds zeros of the orthonormal
polynomials, and measures the finite-section norm of multiply-by-z.
Everything reads the inverse W = L^{-1} of the pencil's one Gram factor
(``momentmatrix.factor``): the orthonormal polynomials are the rows of
W, and sequences over n = 1..n_max read every smaller size off the
leading blocks of the n_max inverse.
"""

from __future__ import annotations

import math

import numpy as np

from . import measures, momentmatrix, numkernel
from .momentmatrix import MomentMatrix

__all__ = [
    "NormSequence",
    "SobolevPencil",
    "gram_section",
    "mult_op_norm",
    "norm_sequence",
    "orthonormal_polys",
    "pencil_of_measures",
    "plateau",
    "sobolev_zeros",
]

#: relative growth over the last doubling of n below which a monotone
#: sequence is called settled
PLATEAU_RTOL = 0.01
#: quantities norm_sequence knows how to tabulate
SEQUENCE_QUANTITIES = ("mult_op", "cond4")


class SobolevPencil:
    """Pair of moment matrices defining a Sobolev inner product; ``gram``
    is the matrix of the monomials' Sobolev Gram sections."""

    def __init__(self, m0: MomentMatrix, m1: MomentMatrix, label: str = ""):
        self.m0, self.m1 = m0, m1
        self.label = label or f"{{m0={m0.label}, m1={m1.label}}}"
        # the builder closes over m0 and m1, not self: a pencil and its Gram matrix form no cycle

        def build(n: int) -> np.ndarray:
            """section(M0, n) + D: row and column 0 of D vanish and
            D[i, j] = i j M1[i-1, j-1], so v D v^* == ||p'||^2_{M1}."""
            g0 = momentmatrix.section(m0, n)
            d = np.zeros((n, n), dtype=complex)
            if n > 1:
                k = np.arange(1, n, dtype=float)
                d[1:, 1:] = np.outer(k, k) * momentmatrix.section(m1, n - 1)
            return g0 + d

        self.gram = MomentMatrix(build=build, label=self.label)

    @property
    def subject(self) -> dict:
        """{"m0": ..., "m1": ...}: the subjects of the two matrices."""
        return {"m0": self.m0.subject, "m1": self.m1.subject}


def pencil_of_measures(mu0: measures.Measure, mu1: measures.Measure | None, label: str = "") -> SobolevPencil:
    """Pencil of the moment matrices of two measures (None: M1 = 0)."""
    m1 = momentmatrix.zero_matrix() if mu1 is None else momentmatrix.of_measure(mu1)
    return SobolevPencil(momentmatrix.of_measure(mu0), m1, label=label)


def gram_section(p: SobolevPencil, n: int) -> np.ndarray:
    """n x n Gram matrix of the monomials 1, z, ..., z^{n-1} (read-only)."""
    return momentmatrix.section(p.gram, n)


def orthonormal_polys(m: MomentMatrix, n: int) -> tuple:
    """First n orthonormal polynomials of the matrix ``m`` (a pencil's
    are those of ``pencil.gram``); entry k holds the degree-k coefficients.

    The read-only rows of the inverse factor W = L^{-1} of the section
    (``momentmatrix.factor``; see numkernel.inverse_lower).
    """
    fac = momentmatrix.factor(m, n).checked()
    return tuple(fac.inverse[k, : k + 1] for k in range(n))


def sobolev_zeros(p: SobolevPencil, deg: int) -> np.ndarray:
    """Zeros of the degree-``deg`` orthonormal polynomial."""
    if deg < 1:
        raise ValueError("zeros need degree at least 1")
    return numkernel.companion_roots(orthonormal_polys(p.gram, deg + 1)[deg])


def mult_op_norm(p: SobolevPencil, n: int) -> float:
    """Norm of multiplication by z, restricted to degree < n.

    sup ||z q|| / ||q|| over the span of 1..z^{n-1}: the square root of
    the top generalized eigenvalue of (S G_{n+1} S^*, G_n) where S shifts
    coefficients up by one, i.e. the trailing n x n block of G_{n+1}
    against G_n, by one solve at size n (``numkernel.gen_eig_top``,
    bitwise norm_sequence's last value).  Nondecreasing in n.
    """
    if n < 1:
        raise ValueError("operator norm needs n >= 1")
    q = gram_section(p, n + 1)[1:, 1:]
    fac = momentmatrix.factor(p.gram, n).checked()
    return math.sqrt(max(numkernel.gen_eig_top(q, fac.inverse, p.label), 0.0))


class NormSequence:
    """Per-n scalars with in-line failure records (value NaN, message set)."""

    def __init__(self, label: str, quantity: str, n_list: tuple[int, ...], values: tuple[float, ...],
                 errors: tuple[str | None, ...]):
        self.label, self.quantity = label, quantity
        self.n_list, self.values, self.errors = n_list, values, errors

    def ok(self) -> bool:
        return all(e is None for e in self.errors)


def norm_sequence(p: SobolevPencil, n_max: int, quantity: str) -> NormSequence:
    """Tabulate a finite-section scalar for n = 1..n_max.

    quantity 'mult_op': multiplication-operator norm.
    quantity 'cond4':   top eigenvalue of (section(M1, n), G_n), the best
                        constant in ||q||^2_{M1} <= C ||q||^2 at size n.
    A breakdown of G at pivot k gives every n > k NaN and its text; a
    failed eigensolve raises numkernel.ConvergenceFailure, a W Q W^* past
    the double range numkernel.Overflow.
    """
    if quantity not in SEQUENCE_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity == "mult_op":
        q = gram_section(p, n_max + 1)[1:, 1:]
    else:
        q = momentmatrix.section(p.m1, n_max)
    fac = momentmatrix.factor(p.gram, n_max)
    tops = numkernel.nested_gen_eig(q, fac.inverse, p.label)
    values = [math.sqrt(max(top, 0.0)) for top in tops] if quantity == "mult_op" else tops
    broken = n_max - len(tops)
    return NormSequence(
        label=p.label,
        quantity=quantity,
        n_list=tuple(range(1, n_max + 1)),
        values=(*values, *[math.nan] * broken),
        errors=(*[None] * len(tops), *[str(fac.failure)] * broken),
    )


def plateau(n_list, values) -> bool:
    """Settled-sequence test: relative change over the last doubling of n
    (from n_max // 2 to n_max) is at most PLATEAU_RTOL.

    NaN entries anywhere in the compared pair fail the test.  A sequence
    that is identically zero over the last doubling counts as settled.
    """
    ns = list(n_list)
    vals = [float(x) for x in values]
    if len(ns) != len(vals) or not ns:
        raise ValueError("n_list and values must align and be nonempty")
    n_end = ns[-1]
    target = n_end // 2
    if target < ns[0]:
        return False
    i_half = max(i for i, n in enumerate(ns) if n <= target)
    v_half, v_end = vals[i_half], vals[-1]
    if math.isnan(v_half) or math.isnan(v_end):
        return False
    scale = max(abs(v_end), abs(v_half))
    if scale == 0.0:
        return True
    return abs(v_end - v_half) <= PLATEAU_RTOL * scale
