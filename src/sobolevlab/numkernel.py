"""Dense Hermitian numerics with structured failures.

Thin kernel shared by everything downstream: the exact Hermitian mirror
of a section, a pivot-gated Cholesky factorization and the inverse of its
factor, Hermitian eigensolves (with or without vectors), lower-triangular
solves by forward substitution, the top eigenvalue of the definite
generalized eigenproblem at every leading size, read off one inverse
factor (solved at both ends and wherever Cauchy interlacing does not
pin it, so a pinned size cannot report a ConvergenceFailure), and
polynomial roots via the companion matrix.  A rotation-invariant pencil
gives a diagonal reduced matrix, whose inner sizes read the running
maximum of its diagonal instead of a solve: bitwise LAPACK's top while
every entry is finite, nonzero and inside the window where zheevd does
not rescale (about 1e-146 to 1e146), and used only when the solved top
at full size equals the largest entry.  Eigensolves are delegated to
LAPACK through numpy; what this module adds is the error contract
(NotPositiveDefinite with the failing pivot index and the factor before
it, ConvergenceFailure with the offending label, Overflow for values
beyond the double range) and the exact reductions used by the callers.
Moment-matrix sections are factored once per matrix and size by
``momentmatrix.factor``, and a factor is inverted when first read.
With no nonzero entry below the diagonal (a rotation-invariant measure's
section), factoring and solving read the diagonal in one step instead of
the row loops, bitwise their result, signs of zeros included.
The mirror, the finiteness check and ``herm_eig`` also take a stack of
same-size matrices, shape (k, n, n), each matrix bitwise as alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .polynomials import as_coeffs

__all__ = [
    "ConvergenceFailure",
    "NotPositiveDefinite",
    "Overflow",
    "cholesky",
    "companion_roots",
    "eigvalsh",
    "gen_eig_top",
    "herm_eig",
    "inverse_lower",
    "mirror_upper",
    "nested_gen_eig",
    "require_finite",
    "solve_lower",
]

#: a Schur pivot at or below this fraction of the original diagonal entry
#: marks the section as numerically singular
PIVOT_RTOL = 1e-14
_EPS = float(np.finfo(float).eps)
#: zheevd rescales a matrix whose largest entry lies outside [sqrt(tiny / eps),
#: its reciprocal] = [2^-485, 2^485], about 1e-146 to 1e146; unscaled, the
#: eigenvalues of a real diagonal matrix are its entries bit for bit
_UNSCALED_LO = math.sqrt(float(np.finfo(float).tiny) / _EPS)
_UNSCALED_HI = 1 / _UNSCALED_LO


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


def require_finite(a: np.ndarray, label="") -> np.ndarray:
    """``a`` itself, or Overflow at size ``a.shape[-1]`` when any entry is
    NaN or infinite; a stack (k, n, n) takes an iterable of k labels, read
    only on failure, and the Overflow names the first non-finite matrix."""
    if not np.all(np.isfinite(a)):
        labels = [label] if isinstance(label, str) else list(label)
        bad = int(np.argmin(np.isfinite(a).reshape(len(labels), -1).all(axis=1)))
        raise Overflow(labels[bad], a.shape[-1])
    return a


def _square(a, stack: bool = False) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2]:
        raise ValueError("expected a square matrix" + (" or a stack (k, n, n) of them" if stack else ""))
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
    """Exactly Hermitian copy of a square matrix, or of each matrix in a
    stack (k, n, n): the upper triangle is kept, the strict lower triangle
    becomes its conjugate mirror, and the diagonal its real part."""
    out = _square(a, stack=True).copy()
    (rows, cols), (diag, _) = _mirror_indices(out.shape[-1])
    out[..., rows, cols] = np.conj(out[..., cols, rows])
    out.imag[..., diag, diag] = 0.0
    return out


def cholesky(g, label: str = "") -> np.ndarray:
    """Lower-triangular L with G = L L^* and positive real diagonal.

    Raises NotPositiveDefinite(k) as soon as the k-th Schur pivot drops
    to PIVOT_RTOL times the k-th original diagonal entry (or below),
    which covers indefinite, singular, and numerically singular input;
    the exception carries the k x k factor computed so far as ``lower``.
    The relative test is per column so that graded but well-posed Gram
    sections (diagonals spanning many orders of magnitude) pass, and a NaN
    pivot fails.  With no nonzero entry below the diagonal, every Schur
    update is +0, so L is built from the diagonal at once, bitwise the row
    loop, signs of zeros included; any other G runs the loop.
    """
    a = _square(g)
    n = a.shape[0]
    diag = a.diagonal().real
    limits = PIVOT_RTOL * np.maximum(diag, 0.0)  # NaN for a NaN entry: no pivot exceeds it
    lower = np.zeros((n, n), dtype=complex)
    (rows, cols), (index, _) = _mirror_indices(n)
    below = a[rows, cols]
    if not np.count_nonzero(below):
        failed = np.flatnonzero(~(diag > limits))
        if len(failed):  # the factor before it is that of the leading block
            raise NotPositiveDefinite(int(failed[0]), label, cholesky(a[: failed[0], : failed[0]]))
        root = np.sqrt(diag)
        lower[index, index] = root
        lower[rows, cols] = below / root[cols]
        return lower
    for k in range(n):
        row = np.conj(lower[k, :k])
        pivot = diag[k] - np.real(lower[k, :k] @ row)
        if not pivot > limits[k]:  # a NaN pivot fails
            raise NotPositiveDefinite(k, label, lower[:k, :k].copy())
        lower[k, k] = lkk = np.sqrt(pivot)
        if k + 1 < n:
            lower[k + 1 :, k] = (a[k + 1 :, k] - lower[k + 1 :, :k] @ row) / lkk
    return lower


def herm_eig(m, label: str = "") -> tuple:
    """numpy's (ascending eigenvalues, eigenvector columns) of a Hermitian
    matrix, or of each matrix in a stack (k, n, n) by one numpy call."""
    try:
        return np.linalg.eigh(_square(m, stack=True))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(label) from exc


def solve_lower(lower, b) -> np.ndarray:
    """x with L x = b for a lower-triangular L, where b is a vector or a
    matrix of right-hand side columns: forward substitution over rows,
    x[k] = (b[k] - L[k, :k] x[:k]) / L[k, k].  Only the lower triangle of
    L is read.  Overflow when either input has a non-finite entry.  With
    no nonzero entry below L's diagonal, x = b / diag(L) in one step,
    bitwise the substitution while every quotient is finite (past an
    infinite one, the substitution's 0 * inf makes NaN, so it runs)."""
    lower, b = np.asarray(lower), np.asarray(b)
    n = lower.shape[0] if lower.ndim == 2 else -1
    if lower.shape != (n, n) or b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError("expected a square factor and a matching right-hand side")
    require_finite(lower, "triangular factor")
    require_finite(b.T, "right-hand side")  # transposed: the size is n, not the column count
    x = np.zeros(b.shape, dtype=np.result_type(lower, b, float))
    (rows, cols), _ = _mirror_indices(n)
    if not np.count_nonzero(lower[rows, cols]):
        with np.errstate(all="ignore"):  # a non-finite quotient warns in the substitution
            x.T[...] = b.T / lower.diagonal()
        if np.isfinite(x).all():
            return x
    for k in range(n):
        x[k] = (b[k] - lower[k, :k] @ x[:k]) / lower[k, k]
    return x


def inverse_lower(lower) -> np.ndarray:
    """W = L^{-1} of a lower-triangular factor L: row k of W holds the
    degree-k coefficients of the k-th orthonormal polynomial, with the
    positive real leading coefficient 1/L[k, k].

    W solves W L = I row by row (L^T W^T = I, flipped into
    lower-triangular form), so each row comes from its own back
    substitution, which is backward stable for that row; the columns of
    L W = I each mix every degree.
    """
    return solve_lower(lower[::-1, ::-1].T, np.eye(lower.shape[0], dtype=complex))[::-1, ::-1].T


def _reduce(q: np.ndarray, inverse: np.ndarray, label: str) -> np.ndarray:
    """W Q W^*, symmetrized; Overflow when an entry leaves the double range."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported by require_finite
        b = inverse @ q @ inverse.conj().T
        return require_finite(0.5 * b + 0.5 * b.conj().T, label)  # halved first: a sum above 9e307 overflows


def eigvalsh(b, label: str = "") -> np.ndarray:
    """numpy's ascending eigenvalues of a Hermitian matrix, or of each
    matrix in a stack (k, n, n), without eigenvectors; ConvergenceFailure
    when LAPACK does not converge."""
    try:
        return np.linalg.eigvalsh(b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(label) from exc


def gen_eig_top(q, inverse, label: str = "") -> float:
    """The top eigenvalue of the pencil (Q, G) alone, read off G's inverse
    factor W of Q's size: one solve of W Q W^*, bitwise the last entry of
    ``nested_gen_eig`` over the same Q and W; ConvergenceFailure when
    LAPACK does not converge, Overflow when W Q W^* does."""
    return float(eigvalsh(_reduce(_square(q), inverse, label), label)[-1])


def _diagonal_maxima(b: np.ndarray, top: float) -> np.ndarray | None:
    """The running maximum of B's real diagonal, which is the top at every
    size bit for bit when B is diagonal and its entries lie in zheevd's
    unscaled window; None unless B has no nonzero entry off its diagonal,
    every diagonal entry is finite, nonzero and inside the window, and the
    solved top at full size ``top`` equals the largest entry."""
    d = b.diagonal().real
    mag = np.abs(d)
    if not (mag.min() >= _UNSCALED_LO and mag.max() <= _UNSCALED_HI):  # NaN fails both
        return None
    if np.count_nonzero(b) != len(d):  # every diagonal entry is nonzero, so one is off it
        return None
    maxima = np.maximum.accumulate(d)
    return maxima if maxima[-1] == top else None


def _pinned(x, y) -> bool:
    """Whether two solved tops agree to 4 eps relative, so that interlacing
    pins every size between them to the upper one."""
    return isinstance(x, float) and isinstance(y, float) and abs(y - x) <= 4 * _EPS * max(abs(x), abs(y))


def nested_gen_eig(q, inverse, failure: NotPositiveDefinite | None, label: str = "") -> list:
    """The top eigenvalue of the pencil (Q[:n, :n], G[:n, :n]) for
    n = 1..len(Q), read off G's inverse factor W and ``failure`` as
    ``momentmatrix.factor`` returns them: the reduced matrix B_n at size n
    is the leading block of W Q W^*, as W is lower triangular, up to the
    size k of W; every n > k gets ``failure``.

    The top of B_n is nondecreasing in n (Cauchy interlacing), so sizes are
    solved by bisection on [1, k]: when the tops at the two ends of a range
    agree to 4 eps relative, every size between gets the upper end's value;
    otherwise the range is split at its midpoint.  A failed solve is its
    size's ConvergenceFailure and splits each range it ends; a size filled
    by interlacing is not solved, so it cannot report one.

    Sizes 1 and k are always solved by LAPACK.  When both succeed without
    pinning the sizes between, and B_k is diagonal (a rotation-invariant
    pencil), every other size the bisection asks for reads the running
    maximum of B's diagonal instead: that is LAPACK's top bit for bit
    provided every diagonal entry is finite, nonzero and inside zheevd's
    unscaled window (about 1e-146 to 1e146), and the size-k top equals the
    largest entry; otherwise every size is solved or filled by the
    bisection alone.
    """
    qm = _square(q)
    k = inverse.shape[0]
    b = _reduce(qm[:k, :k], inverse, label) if k else None
    tops = [None] * k  # tops[n - 1]: the top at size n, or its ConvergenceFailure
    maxima = None

    def top(n: int):
        if tops[n - 1] is None:
            try:
                tops[n - 1] = float(eigvalsh(b[:n, :n], label)[-1] if maxima is None else maxima[n - 1])
            except ConvergenceFailure as exc:
                tops[n - 1] = exc
        return tops[n - 1]

    if k > 2:
        x, y = top(1), top(k)
        if isinstance(x, float) and isinstance(y, float) and not _pinned(x, y):
            maxima = _diagonal_maxima(b, y)
    ranges = [(1, k)] if k else []  # a stack, lower half on top
    while ranges:
        lo, hi = ranges.pop()
        x, y = top(lo), top(hi)
        if _pinned(x, y):
            tops[lo : hi - 1] = [y] * (hi - lo - 1)
        elif hi - lo > 1:
            ranges += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
    return tops + [failure] * (qm.shape[0] - k)


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
