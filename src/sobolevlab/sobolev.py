"""Sobolev inner products from pairs of moment matrices.

A pencil {M0, M1} of Hermitian moment matrices (M0 positive definite on
sections, M1 positive semidefinite) induces the inner product

    <p, q> = p M0 q^*  +  p' M1 q'^*

whose Gram matrix in the monomial basis is section(M0, n) plus the
derivative conjugation of M1; the pencil keeps it as one more
MomentMatrix.  This module materializes Gram sections, orthonormalizes
the monomials against them, finds zeros of the orthonormal polynomials,
and measures the finite-section norm of the multiply-by-z operator.
Sequences over n = 1..n_max factor the largest Gram section once and
read every smaller size off its leading blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import measures, momentmatrix, numkernel
from .momentmatrix import MomentMatrix
from .polynomials import as_coeffs

__all__ = [
    "NormSequence",
    "SobolevOPs",
    "SobolevPencil",
    "gram_section",
    "mult_op_norm",
    "norm_sequence",
    "orthonormal_polys",
    "pencil_of_measures",
    "plateau",
    "sobolev_norm",
    "sobolev_zeros",
]

#: relative growth over the last doubling of n below which a monotone
#: sequence is called settled
PLATEAU_RTOL = 0.01
#: quantities norm_sequence knows how to tabulate
SEQUENCE_QUANTITIES = ("mult_op", "cond4")


@dataclass(eq=False)
class SobolevPencil:
    """Pair of moment matrices defining a Sobolev inner product."""

    m0: MomentMatrix
    m1: MomentMatrix
    label: str = ""
    gram: MomentMatrix = field(init=False, repr=False)

    def __post_init__(self):
        if not self.label:
            self.label = f"{{m0={self.m0.label}, m1={self.m1.label}}}"
        m1d = momentmatrix.derivative_conjugate(self.m1)
        self.gram = MomentMatrix(
            build=lambda n: momentmatrix.section(self.m0, n) + momentmatrix.section(m1d, n),
            label=self.label,
        )


def pencil_of_measures(mu0: measures.Measure, mu1: measures.Measure | None, label: str = "") -> SobolevPencil:
    """Pencil of the moment matrices of two measures (None: M1 = 0)."""
    m1 = momentmatrix.zero_matrix() if mu1 is None else momentmatrix.of_measure(mu1)
    return SobolevPencil(momentmatrix.of_measure(mu0), m1, label=label)


def gram_section(p: SobolevPencil, n: int) -> np.ndarray:
    """n x n Gram matrix of the monomials 1, z, ..., z^{n-1}."""
    return momentmatrix.section(p.gram, n)


def sobolev_norm(p: SobolevPencil, v) -> float:
    """Norm sqrt(v G v^*) of the polynomial with coefficients v."""
    c = as_coeffs(v)
    if len(c) == 0:
        return 0.0
    g = gram_section(p, len(c))
    return math.sqrt(max(momentmatrix.norm_sq(g, c), 0.0))


@dataclass(frozen=True)
class SobolevOPs:
    """Orthonormal polynomials by degree: coeffs[k] has length k + 1."""

    coeffs: tuple[np.ndarray, ...]
    n: int


def orthonormal_polys(p: SobolevPencil, n: int) -> SobolevOPs:
    """First n orthonormal polynomials (degrees 0..n-1).

    Rows of the inverse Cholesky factor W = L^{-1} of the Gram section:
    degree-k coefficients with a positive real leading coefficient
    1/L[k, k].  W solves W L = I row by row (L^T W^T = I, flipped into
    lower-triangular form), so each polynomial's coefficients come from
    their own back substitution, which is backward stable for that
    polynomial; the columns of L W = I each mix every degree.
    """
    g = gram_section(p, n)
    lower = numkernel.cholesky(g, p.label)
    inv = numkernel.solve_lower(lower[::-1, ::-1].T, np.eye(n, dtype=complex))[::-1, ::-1].T
    coeffs = tuple(inv[k, : k + 1].copy() for k in range(n))
    return SobolevOPs(coeffs=coeffs, n=n)


def sobolev_zeros(p: SobolevPencil, deg: int) -> np.ndarray:
    """Zeros of the degree-``deg`` orthonormal polynomial."""
    if deg < 1:
        raise ValueError("zeros need degree at least 1")
    ops = orthonormal_polys(p, deg + 1)
    return numkernel.companion_roots(ops.coeffs[deg])


def mult_op_norm(p: SobolevPencil, n: int) -> float:
    """Norm of multiplication by z, restricted to degree < n.

    sup ||z q|| / ||q|| over the span of 1..z^{n-1}: the square root of
    the top generalized eigenvalue of (S G_{n+1} S^*, G_n) where S shifts
    coefficients up by one, i.e. the trailing n x n block of G_{n+1}
    against G_n.  Nondecreasing in n.
    """
    if n < 1:
        raise ValueError("operator norm needs n >= 1")
    g_big = gram_section(p, n + 1)
    q = g_big[1:, 1:]
    g = gram_section(p, n)
    lam = numkernel.gen_eig_definite(q, g, p.label)
    return math.sqrt(max(float(lam[-1]), 0.0))


@dataclass(frozen=True)
class NormSequence:
    """Per-n scalars with in-line failure records (value NaN, message set)."""

    label: str
    quantity: str
    n_list: tuple[int, ...]
    values: tuple[float, ...]
    errors: tuple[str | None, ...]

    def ok(self) -> bool:
        return all(e is None for e in self.errors)


def norm_sequence(p: SobolevPencil, n_max: int, quantity: str) -> NormSequence:
    """Tabulate a finite-section scalar for n = 1..n_max.

    quantity 'mult_op': multiplication-operator norm.
    quantity 'cond4':   top eigenvalue of (section(M1, n), G_n), the best
                        constant in ||q||^2_{M1} <= C ||q||^2 at size n.
    Failures (singular sections) are recorded per n instead of raising.
    """
    if quantity not in SEQUENCE_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity == "mult_op":
        q = gram_section(p, n_max + 1)[1:, 1:]
    else:
        q = momentmatrix.section(p.m1, n_max)
    values, errors = [], []
    for lam in numkernel.nested_gen_eig(q, gram_section(p, n_max), p.label):
        if isinstance(lam, Exception):
            values.append(math.nan)
            errors.append(str(lam))
            continue
        top = float(lam[-1])
        values.append(math.sqrt(max(top, 0.0)) if quantity == "mult_op" else top)
        errors.append(None)
    return NormSequence(
        label=p.label,
        quantity=quantity,
        n_list=tuple(range(1, n_max + 1)),
        values=tuple(values),
        errors=tuple(errors),
    )


def plateau(n_list, values, rel_tol: float = PLATEAU_RTOL) -> bool:
    """Settled-sequence test: relative change over the last doubling of n
    (from n_max // 2 to n_max) is at most ``rel_tol``.

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
    return abs(v_end - v_half) <= rel_tol * scale
