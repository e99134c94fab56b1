"""Dense Hermitian numerics with structured failures.

Thin kernel shared by everything downstream: the exact Hermitian mirror
of a section, a pivot-gated Cholesky factorization, Hermitian
eigendecomposition, the definite generalized eigenproblem (for one size
or for every leading size from one factorization), and polynomial roots
via the companion matrix.  The heavy lifting is delegated to LAPACK
through numpy/scipy; what this module adds is the error contract
(NotPositiveDefinite with the failing pivot index, ConvergenceFailure
with the offending label, Overflow for values beyond the double range)
and the exact reductions used by the callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .polynomials import as_coeffs

__all__ = [
    "ConvergenceFailure",
    "HermEig",
    "NotPositiveDefinite",
    "Overflow",
    "cholesky",
    "companion_roots",
    "gen_eig_definite",
    "herm_eig",
    "mirror_upper",
    "nested_gen_eig",
    "require_finite",
]

#: a Schur pivot at or below this fraction of the original diagonal entry
#: marks the section as numerically singular
PIVOT_RTOL = 1e-14
#: companion-root residual budget: |p(root)| <= this * max|coeff| * (1+|root|)^deg
ROOT_RESIDUAL_TOL = 1e-8


class NotPositiveDefinite(Exception):
    """Cholesky pivot failure; ``index`` is the first bad pivot."""

    def __init__(self, index: int, label: str = ""):
        self.index = index
        self.label = label
        where = f" of {label}" if label else ""
        super().__init__(f"pivot {index}{where} is not positive")


class ConvergenceFailure(Exception):
    """An iterative LAPACK driver failed to converge."""

    def __init__(self, label: str = ""):
        self.label = label
        super().__init__(f"eigensolver failed to converge on {label or 'input'}")


class Overflow(Exception):
    """A section or vector has non-finite entries: its inputs are finite,
    but the values built from them overflowed the double range."""

    def __init__(self, label: str, n: int):
        super().__init__(f"values of {label or 'input'} at size {n} overflowed the double range")


def require_finite(a: np.ndarray, label: str = "") -> np.ndarray:
    """``a`` itself, or Overflow when any entry is NaN or infinite."""
    if not np.all(np.isfinite(a)):
        raise Overflow(label, a.shape[0])
    return a


@dataclass(frozen=True)
class HermEig:
    """Ascending eigenvalues and matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _square(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def mirror_upper(a) -> np.ndarray:
    """Exactly Hermitian copy of a square matrix: the upper triangle is
    kept, the strict lower triangle becomes its conjugate mirror, and the
    diagonal its real part."""
    out = _square(a).copy()
    lower = np.tril_indices(out.shape[0], -1)
    out[lower] = np.conj(out.T[lower])
    out[np.diag_indices(out.shape[0])] = out.diagonal().real
    return out


def cholesky(g, label: str = "") -> np.ndarray:
    """Lower-triangular L with G = L L^* and positive real diagonal.

    Raises NotPositiveDefinite(k) as soon as the k-th Schur pivot drops
    to PIVOT_RTOL times the k-th original diagonal entry (or below),
    which covers indefinite, singular, and numerically singular input.
    The relative test is per column so that graded but well-posed Gram
    sections (diagonals spanning many orders of magnitude) pass.
    """
    a = _square(g)
    n = a.shape[0]
    diag = a.diagonal().real
    lower = np.zeros((n, n), dtype=complex)
    for k in range(n):
        pivot = a[k, k].real - np.real(lower[k, :k] @ np.conj(lower[k, :k]))
        if pivot <= PIVOT_RTOL * max(diag[k], 0.0):
            raise NotPositiveDefinite(k, label)
        lkk = np.sqrt(pivot)
        lower[k, k] = lkk
        if k + 1 < n:
            lower[k + 1 :, k] = (
                a[k + 1 :, k] - lower[k + 1 :, :k] @ np.conj(lower[k, :k])
            ) / lkk
    return lower


def herm_eig(m, label: str = "") -> HermEig:
    """Full eigendecomposition of a Hermitian matrix, ascending order."""
    a = _square(m)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(label) from exc
    return HermEig(eigenvalues=vals, eigenvectors=vecs)


def _reduce(q: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """L^{-1} Q L^{-*}, symmetrized."""
    y = scipy.linalg.solve_triangular(lower, q, lower=True)
    b = scipy.linalg.solve_triangular(lower, y.conj().T, lower=True).conj().T
    return 0.5 * (b + b.conj().T)


def _eigvalsh(b: np.ndarray, label: str) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(label) from exc


def gen_eig_definite(q, g, label: str = "") -> np.ndarray:
    """Ascending eigenvalues of the pencil (Q, G) with G Hermitian
    positive definite: reduce to L^{-1} Q L^{-*} via the Cholesky factor
    of G and diagonalize.  Propagates NotPositiveDefinite from G.
    """
    qm = _square(q)
    return _eigvalsh(_reduce(qm, cholesky(g, label)), label)


def nested_gen_eig(q, g, label: str = "") -> list:
    """gen_eig_definite(Q[:n, :n], G[:n, :n]) for n = 1..len(G), or the
    exception it raises, from one factorization: the Cholesky factor of a
    leading section is the leading block of the factor of G, so the
    reduced matrix at size n is the leading block of L^{-1} Q L^{-*}.  A
    pivot failure at index k is shared by every n > k."""
    qm, gm = _square(q), _square(g)
    ok, failure = gm.shape[0], None
    try:
        lower = cholesky(gm, label)
    except NotPositiveDefinite as exc:
        ok, failure = exc.index, exc
        lower = cholesky(gm[:ok, :ok], label) if ok else None
    b = _reduce(qm[:ok, :ok], lower) if ok else None

    def at(n: int):
        try:
            return _eigvalsh(b[:n, :n], label)
        except ConvergenceFailure as exc:
            return exc

    return [at(n) for n in range(1, ok + 1)] + [failure] * (gm.shape[0] - ok)


def companion_roots(v) -> np.ndarray:
    """All roots (with multiplicity) of a degree >= 1 polynomial.

    Eigenvalues of the companion matrix of the monic rescaling, returned
    sorted by (real, imag) for reproducible output.
    """
    c = as_coeffs(v)
    deg = len(c) - 1
    if deg < 1:
        raise ValueError("root finding needs degree at least 1")
    monic = c / c[-1]
    comp = np.zeros((deg, deg), dtype=complex)
    if deg > 1:
        comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -monic[:-1]
    try:
        roots = np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - tiny inputs
        raise ConvergenceFailure("companion matrix") from exc
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]
