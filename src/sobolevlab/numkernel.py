"""Dense Hermitian numerics with structured failures.

Thin kernel shared by everything downstream: the exact Hermitian mirror
of a section, a pivot-gated Cholesky factorization and the inverse of its
factor, Hermitian eigensolves (with or without vectors), lower-triangular
solves by forward substitution, the top eigenvalue of the definite
generalized eigenproblem at every leading size, read off one inverse
factor (solved at both ends and wherever Cauchy interlacing does not
pin it), and on request the bottom eigenvalue from the same solve of
each size, and polynomial roots via the companion matrix.  A
rotation-invariant pencil gives a diagonal reduced matrix, which is its
own spectrum: every size reads the running maximum and minimum of its
diagonal, with no solve.
Eigensolves are delegated to LAPACK through numpy; what this module adds
is the error contract (NotPositiveDefinite with the failing pivot index
and the factor before it, ConvergenceFailure with the offending label,
Overflow for values beyond the double range) and the exact reductions
used by the callers.
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


def _diagonal_ends(b: np.ndarray):
    """The running minimum and maximum of B's real diagonal, which are the
    bottom and top of every leading block when B has no nonzero entry
    below its diagonal (a Hermitian B is then diagonal); None otherwise."""
    (rows, cols), _ = _mirror_indices(b.shape[0])
    if np.count_nonzero(b[rows, cols]):
        return None
    d = b.diagonal().real
    return np.minimum.accumulate(d), np.maximum.accumulate(d)


def gen_eig_top(q, inverse, label: str = "") -> float:
    """The top eigenvalue of the pencil (Q, G) alone, read off G's inverse
    factor W of Q's size: the largest diagonal entry of a diagonal W Q W^*,
    or else one solve of it, bitwise the last entry of ``nested_gen_eig``
    over the same Q and W; ConvergenceFailure when LAPACK does not
    converge, Overflow when W Q W^* does."""
    b = _reduce(_square(q), inverse, label)
    diagonal = _diagonal_ends(b)
    return float(diagonal[1][-1]) if diagonal is not None else float(eigvalsh(b, label)[-1])


def _pinned(x: float, y: float) -> bool:
    """Whether two solved tops (or two solved bottoms) agree to 4 eps
    relative, so that interlacing pins every size between them to the
    upper one's."""
    return abs(y - x) <= 4 * _EPS * max(abs(x), abs(y))


def nested_gen_eig(q, inverse, label: str = "", both_ends: bool = False):
    """The top eigenvalue of the pencil (Q[:n, :n], G[:n, :n]) for
    n = 1..k, read off the k x k inverse factor W of G's leading block
    (``momentmatrix.factor``'s, so k is short of len(Q) when G broke down):
    the reduced matrix B_n at size n is the leading block of W Q W^*, as W
    is lower triangular.  With ``both_ends``, the pair (bottoms, tops) of
    lists, where the bottom eigenvalue at each size comes from the same
    solve as the top.

    When B = W Q W^* has no nonzero entry below its diagonal (a
    rotation-invariant pencil), each size's bottom and top are the running
    minimum and maximum of its diagonal, with no solve.  Otherwise the top
    of B_n is nondecreasing in n and the bottom nonincreasing (Cauchy
    interlacing), so sizes are solved by bisection on [1, k]: when the tops
    at the two ends of a range agree to 4 eps relative (and, with
    ``both_ends``, the bottoms too), every size between gets the upper
    end's values; otherwise the range is split at its midpoint.  A failed
    solve raises ConvergenceFailure, a W Q W^* past the double range
    Overflow.
    """
    k = inverse.shape[0]
    b = _reduce(_square(q)[:k, :k], inverse, label)
    diagonal = _diagonal_ends(b)
    # record[n - 1]: (bottom, top) at size n
    record = [None] * k if diagonal is None else list(zip(*(d.tolist() for d in diagonal)))
    ends = slice(0 if both_ends else 1, 2)  # the ends whose agreement pins a range

    def solve(n: int):
        if record[n - 1] is None:
            w = eigvalsh(b[:n, :n], label)
            record[n - 1] = (float(w[0]), float(w[-1]))
        return record[n - 1]

    ranges = [(1, k)] if diagonal is None else []  # a stack, lower half on top
    while ranges:
        lo, hi = ranges.pop()
        x, y = solve(lo), solve(hi)
        if all(map(_pinned, x[ends], y[ends])):
            record[lo : hi - 1] = [y] * (hi - lo - 1)
        elif hi - lo > 1:
            ranges += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
    bottoms, tops = ([r[i] for r in record] for i in (0, 1))
    return (bottoms, tops) if both_ends else tops


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
