"""Dense Hermitian numerics with structured failures.

Thin kernel shared by everything downstream: the exact Hermitian mirror
of a section, a pivot-gated Cholesky factorization, Hermitian
eigendecomposition, lower-triangular solves by forward substitution, the
definite generalized eigenproblem (for one size, or for every leading
size, read off a given factor), and polynomial roots via the companion
matrix.  Eigensolves are delegated to LAPACK through numpy; what this
module adds is the error contract (NotPositiveDefinite with the failing
pivot index and the factor before it, ConvergenceFailure with the
offending label, Overflow for values beyond the double range) and the
exact reductions used by the callers.  Moment-matrix sections are
factored once per matrix and size by ``momentmatrix.factor``.
"""

from __future__ import annotations

import functools

import numpy as np

from .polynomials import as_coeffs

__all__ = [
    "ConvergenceFailure",
    "NotPositiveDefinite",
    "Overflow",
    "cholesky",
    "companion_roots",
    "gen_eig_definite",
    "gen_eig_factored",
    "herm_eig",
    "mirror_upper",
    "nested_gen_eig",
    "require_finite",
    "solve_lower",
]

#: a Schur pivot at or below this fraction of the original diagonal entry
#: marks the section as numerically singular
PIVOT_RTOL = 1e-14
#: companion-root residual budget: |p(root)| <= this * max|coeff| * (1+|root|)^deg
ROOT_RESIDUAL_TOL = 1e-8


class NotPositiveDefinite(Exception):
    """Cholesky pivot failure; ``index`` is the first bad pivot, and
    ``lower`` (set by ``cholesky``) the factor of the block before it."""

    def __init__(self, index: int, label: str = "", lower: np.ndarray | None = None):
        self.index = index
        self.label = label
        self.lower = lower
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


def _square(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


@functools.lru_cache(maxsize=128)
def _mirror_indices(n: int) -> tuple:
    """Strict-lower-triangle and diagonal index arrays of size n, read-only
    and shared by every mirrored section of that size."""
    lower, diag = np.tril_indices(n, -1), np.diag_indices(n)
    for a in (*lower, *diag):
        a.flags.writeable = False
    return lower, diag


def mirror_upper(a) -> np.ndarray:
    """Exactly Hermitian copy of a square matrix: the upper triangle is
    kept, the strict lower triangle becomes its conjugate mirror, and the
    diagonal its real part."""
    out = _square(a).copy()
    lower, diag = _mirror_indices(out.shape[0])
    out[lower] = np.conj(out.T[lower])
    out[diag] = out.diagonal().real
    return out


def cholesky(g, label: str = "") -> np.ndarray:
    """Lower-triangular L with G = L L^* and positive real diagonal.

    Raises NotPositiveDefinite(k) as soon as the k-th Schur pivot drops
    to PIVOT_RTOL times the k-th original diagonal entry (or below),
    which covers indefinite, singular, and numerically singular input;
    the exception carries the k x k factor computed so far as ``lower``.
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
            raise NotPositiveDefinite(k, label, lower[:k, :k].copy())
        lkk = np.sqrt(pivot)
        lower[k, k] = lkk
        if k + 1 < n:
            lower[k + 1 :, k] = (
                a[k + 1 :, k] - lower[k + 1 :, :k] @ np.conj(lower[k, :k])
            ) / lkk
    return lower


def herm_eig(m, label: str = "") -> tuple:
    """numpy's (ascending eigenvalues, eigenvector columns) of a Hermitian matrix."""
    try:
        return np.linalg.eigh(_square(m))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(label) from exc


def solve_lower(lower, b) -> np.ndarray:
    """x with L x = b for a lower-triangular L, where b is a vector or a
    matrix of right-hand side columns: forward substitution over rows,
    x[k] = (b[k] - L[k, :k] x[:k]) / L[k, k].  Only the lower triangle of
    L is read.  Overflow when either input has a non-finite entry."""
    lower, b = np.asarray(lower), np.asarray(b)
    n = lower.shape[0] if lower.ndim == 2 else -1
    if lower.shape != (n, n) or b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError("expected a square factor and a matching right-hand side")
    require_finite(lower, "triangular factor")
    require_finite(b, "right-hand side")
    x = np.zeros(b.shape, dtype=np.result_type(lower, b, float))
    for k in range(n):
        x[k] = (b[k] - lower[k, :k] @ x[:k]) / lower[k, k]
    return x


def _reduce(q: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """L^{-1} Q L^{-*}, symmetrized."""
    y = solve_lower(lower, q)
    b = solve_lower(lower, y.conj().T).conj().T
    return 0.5 * (b + b.conj().T)


def _eigvalsh(b: np.ndarray, label: str) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(label) from exc


def gen_eig_definite(q, g, label: str = "") -> np.ndarray:
    """Ascending eigenvalues of the pencil (Q, G) with G Hermitian
    positive definite: gen_eig_factored with the Cholesky factor of G.
    Propagates NotPositiveDefinite from G.
    """
    qm = _square(q)
    return gen_eig_factored(qm, cholesky(g, label), label)


def gen_eig_factored(q, lower, label: str = "") -> np.ndarray:
    """Ascending eigenvalues of the pencil (Q, L L^*) from the Cholesky
    factor L: reduce to L^{-1} Q L^{-*} and diagonalize."""
    return _eigvalsh(_reduce(_square(q), lower), label)


def nested_gen_eig(q, lower, failure: NotPositiveDefinite | None, label: str = "") -> list:
    """gen_eig_definite(Q[:n, :n], G[:n, :n]) for n = 1..len(Q), or the
    exception it raises, read off a given factorization of G: ``lower``
    and ``failure`` as ``momentmatrix.factor`` returns them (the factor
    of G and None, or the factor of the block before the failing pivot k
    and the failure).  The reduced matrix at size n is the leading block
    of L^{-1} Q L^{-*}; every n > k gets ``failure``."""
    qm = _square(q)
    ok = lower.shape[0]
    b = _reduce(qm[:ok, :ok], lower) if ok else None

    def at(n: int):
        try:
            return _eigvalsh(b[:n, :n], label)
        except ConvergenceFailure as exc:
            return exc

    return [at(n) for n in range(1, ok + 1)] + [failure] * (qm.shape[0] - ok)


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
