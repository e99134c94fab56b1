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
    _factor: tuple | None = field(default=None, init=False, repr=False)


@dataclass(eq=False)
class Factor:
    """Read-only Cholesky factor ``lower`` of one section, with the
    NotPositiveDefinite ``failure`` when only a leading block factored;
    ``inverse`` = numkernel.inverse_lower(lower) is built on first read."""

    lower: np.ndarray
    failure: numkernel.NotPositiveDefinite | None

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        inverse = numkernel.inverse_lower(self.lower)
        inverse.flags.writeable = False
        return inverse

    def checked(self) -> Factor:
        """The factor, or a fresh copy of ``failure`` raised: raised, the kept
        one would hold the caller's frames, and the pencil, in its traceback."""
        if self.failure is not None:
            raise numkernel.NotPositiveDefinite(self.failure.index, self.failure.label, self.failure.lower)
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
    """Factor with L = numkernel.cholesky(section(m, n), m.label), or,
    when pivot k < n fails, the factor of the leading k x k block and the
    NotPositiveDefinite(k).  It is kept on the matrix for the last n
    asked, its inverse too once read; another n is factored afresh,
    because a block of a factor is not bitwise the factor of the block."""
    if m._factor is None or m._factor[0] != n:
        try:
            lower, failure = numkernel.cholesky(section(m, n), m.label), None
        except numkernel.NotPositiveDefinite as exc:
            # without its traceback, whose frames hold the section and the matrix
            lower, failure = exc.lower, exc.with_traceback(None)
        lower.flags.writeable = False
        m._factor = (n, Factor(lower, failure))
    return m._factor[1]


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
