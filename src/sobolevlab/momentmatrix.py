"""Infinite Hermitian moment matrices represented by section builders.

A matrix is a builder n -> (n x n leading section) plus a label for
messages and a subject, the JSON that says what the matrix is: the
measure's ``measures.to_json`` or the Toeplitz rule's coefficients.
Sections are materialized on demand through ``section``, which keeps
only the largest section built so far, read-only, and returns blocks of
it.  A builder's writeable output is mirrored (strict lower triangle =
conjugated upper one, real diagonal), so sections are exactly Hermitian
even if the builder is only approximately so; a read-only one is a block
its owner keeps mirrored (a measure's section), taken as it is.  Every
section is checked for finiteness, so values that overflowed never reach
a factorization, which ``factor`` alone performs, keeping the factor L
of the last size asked for and, once a caller reads it, its inverse
W = L^{-1}: every reduction, orthonormal basis and minimizer reads W
with matrix products, point evaluations read L alone.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import measures, numkernel

__all__ = [
    "Factor",
    "MomentMatrix",
    "factor",
    "is_toeplitz",
    "norm_sq",
    "of_measure",
    "section",
    "toeplitz_rule",
    "zero_matrix",
]

#: absolute entry tolerance for the constant-diagonal (Toeplitz) test
TOEPLITZ_TOL = 1e-13
_COMPACT = json.JSONEncoder(separators=(",", ":"))  # one compact encoder for every label


@dataclass(eq=False)
class MomentMatrix:
    """Section builder for an infinite Hermitian matrix.

    ``build(n)`` returns the leading n x n section; the builder of a
    measure's matrix is ``measures.moment_section``.  ``subject`` is
    the JSON that reports name the matrix by (None where no builder
    gives one, as for the zero matrix).
    """

    build: Callable[[int], np.ndarray]
    label: str = ""
    subject: dict | None = None
    _largest: np.ndarray | None = field(default=None, init=False, repr=False)
    _factor: Factor | None = field(default=None, init=False, repr=False)


@dataclass(eq=False)
class Factor:
    """Read-only Cholesky factor ``lower`` of the leading block of the
    n x n section of the matrix labelled ``label`` that factored: all of
    it, or the k x k block before the failing pivot k < n.
    ``inverse`` = numkernel.inverse_lower(lower) is built on first read."""

    lower: np.ndarray
    n: int
    label: str

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        inverse = numkernel.inverse_lower(self.lower)
        inverse.flags.writeable = False
        return inverse

    @property
    def failure(self) -> numkernel.NotPositiveDefinite | None:
        """NotPositiveDefinite(k) when pivot k < n failed, else None."""
        k = self.lower.shape[0]
        return numkernel.NotPositiveDefinite(k, self.label, self.lower) if k < self.n else None

    def checked(self) -> Factor:
        """The factor, or its ``failure`` raised."""
        if self.failure is not None:
            raise self.failure
        return self


def section(m: MomentMatrix, n: int) -> np.ndarray:
    """Dense n x n leading section, exactly Hermitian by mirroring.

    A read-only block of the largest section built so far, which the
    matrix keeps; a request beyond it builds the new size and replaces
    it.  A writeable build is mirrored, a read-only one (the block a
    measure keeps mirrored) taken as it is; a section with non-finite
    entries raises numkernel.Overflow.
    """
    if n < 1:
        raise ValueError("section size must be at least 1")
    if m._largest is None or m._largest.shape[0] < n:
        with np.errstate(over="ignore", invalid="ignore"):  # reported by require_finite
            built = m.build(n)
            if built.flags.writeable:
                built = numkernel.mirror_upper(built)
                built.flags.writeable = False
        m._largest = numkernel.require_finite(built, m.label)
    return m._largest[:n, :n]


def factor(m: MomentMatrix, n: int) -> Factor:
    """Factor of numkernel.cholesky(section(m, n), m.label): L itself,
    or, when pivot k < n fails, the factor of the leading k x k block.
    It is kept on the matrix for the last n asked, its inverse too once
    read; another n is factored afresh, because a block of a factor is
    not bitwise the factor of the block."""
    if m._factor is None or m._factor.n != n:
        try:
            lower = numkernel.cholesky(section(m, n), m.label)
        except numkernel.NotPositiveDefinite as exc:
            lower = exc.lower
        lower.flags.writeable = False
        m._factor = Factor(lower, n, m.label)
    return m._factor


def of_measure(mu: measures.Measure) -> MomentMatrix:
    """Moment matrix of a measure; its subject is the measure JSON, its
    label that JSON in compact text."""
    subject = measures.to_json(mu)
    return MomentMatrix(build=lambda n: measures.moment_section(mu, n), label=_COMPACT.encode(subject), subject=subject)


def zero_matrix() -> MomentMatrix:
    return MomentMatrix(build=lambda n: np.zeros((n, n), dtype=complex), label="zero")


def toeplitz_rule(coeffs, label: str = "toeplitz") -> MomentMatrix:
    """Hermitian Toeplitz matrix from diagonal values: entry (i, j) = c[j - i].

    Missing negative frequencies fall back to the conjugate of the
    positive one, so {0: c0, 1: c1, ...} suffices.  The subject lists
    the coefficients as [k, re, im] rows in the order given.
    """
    c = {int(k): complex(v) for k, v in dict(coeffs).items()}
    subject = {"kind": "toeplitz", "name": label, "coefficients": [[k, v.real, v.imag] for k, v in c.items()]}

    def build(n: int) -> np.ndarray:
        band = np.array([c[d] if d in c else np.conj(c.get(-d, 0j)) for d in range(1 - n, n)])
        k = np.arange(n)
        return band[k[None, :] - k[:, None] + n - 1]

    return MomentMatrix(build=build, label=label, subject=subject)


def is_toeplitz(m: MomentMatrix, n: int) -> bool:
    """True when the n x n section is constant along diagonals."""
    if n < 2:
        raise ValueError("Toeplitz test needs a section of size at least 2")
    a = section(m, n)
    return bool(np.all(np.abs(a[:-1, :-1] - a[1:, 1:]) <= TOEPLITZ_TOL))


def norm_sq(a: np.ndarray, v) -> float:
    """Quadratic form v A v^* in the row convention, the coefficient
    vector padded with zeros to the section's size; real for Hermitian
    sections."""
    v = np.atleast_1d(v)
    if len(v) > a.shape[0]:
        raise ValueError("coefficient vector longer than section")
    vp = np.zeros(a.shape[0], dtype=complex)
    vp[: len(v)] = v
    return complex(vp @ a @ np.conj(vp)).real
