"""Measures on the plane and their moment sections.

Three kinds are supported: trigonometric-polynomial-weighted circle
measures (normalized Lebesgue measure on a circle is the one with unit
weight, built by ``CircleLebesgue``), finitely atomic measures, and
positive linear combinations of the above.  The central operation is the
leading n x n section of the moment matrix

    c[i, j] = integral of  z**i * conj(z)**j  d(mu),

built as a matrix product: P T P^* for circles (row i of P expands
(center + radius e^{i theta})**i, T is the Toeplitz matrix of the weight's
Fourier coefficients), V diag(mass) V^* for atoms (V the Vandermonde
matrix), and the scaled sum for sums.  P T P^* is evaluated as a banded
triangular sweep: P is lower triangular and T has only the 2d + 1
diagonals of a degree-d weight, so the sweep adds just the terms that can
be nonzero, in the order the full product would (about the origin P =
diag(r^k), one term per entry: O(n(2d + 1)) in all).  The terms it skips
are exact zeros and every accumulator starts at +0, so each section is
bitwise the full product's; ``_times_adjoint`` (the full product) serves
atoms only.  Every kind nests: the product of size n is bitwise the leading
block of every larger one (P, the Vandermonde rows and the sweep's
accumulators nest, and what a larger size adds to a leading entry is
exact zeros).  So each measure keeps one n x n section, the mirror of
the largest product built for it (exactly Hermitian: the lower triangle
mirrors the upper one), read-only and outside its fields (``==``,
``hash``, ``repr`` and the JSON ignore it); sections, single moments,
sum terms and every moment matrix of the measure read blocks of it, and
only a larger size rebuilds it.  ``circle_sections`` sweeps circles of
one weight as one (k, n, n) stack that no measure keeps.  Sections are
cross-checkable against trapezoid quadrature on a uniform angular grid;
``exact_grid`` picks the smallest grid on which that rule is exact for a
section.  The grid rows exp(i k theta) are tabulated once per grid size
and frequency, read-only, and shared by weight validation,
``weight_values`` and the quadrature; a canonical weight's extremes on
the validation grid are evaluated once and shared by every circle that
carries it.  Numbers entering a measure pass one validation layer
(``parse_real``, ``parse_pair``, ``parse_fourier``), shared with the
scenario parser.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import numkernel
from .polynomials import vandermonde

__all__ = [
    "Atomic",
    "CircleLebesgue",
    "Measure",
    "MeasureFormatError",
    "MeasureSum",
    "WeightedCircle",
    "circle_expansion",
    "circle_sections",
    "exact_grid",
    "from_json",
    "moment",
    "moment_quadrature",
    "moment_section",
    "parse_fourier",
    "parse_pair",
    "parse_real",
    "to_json",
    "weight_grid_extremes",
    "weight_values",
]

#: fixed grid used for weight-positivity validation
WEIGHT_GRID_POINTS = 4096
#: largest |frequency| of a weight: at least 4 grid points per period, so
#: the positivity check cannot alias
MAX_WEIGHT_FREQUENCY = WEIGHT_GRID_POINTS // 4
#: tolerance for the Hermitian pairing w(-k) == conj(w(k)) of weight input
WEIGHT_PAIR_TOL = 1e-12
#: a trigonometric weight may dip this far below zero on the check grid
WEIGHT_POSITIVITY_TOL = 1e-12
#: circle quadrature refuses coarser grids than this
MIN_CIRCLE_GRID = 256
#: Fourier coefficients of the weight w = 1 (normalized arc length)
UNIT_WEIGHT = ((0, 1.0 + 0.0j),)


class MeasureFormatError(ValueError):
    """Malformed measure description (constructor argument or JSON)."""


def parse_real(x, what: str, error=MeasureFormatError) -> float:
    """``x`` as a finite float; ``error`` for NaN, infinities and anything
    but a real number (booleans and numeric strings included)."""
    try:  # the exact-type test first spares most numbers the slower ABC check
        v = float(x) if type(x) in (float, int) or isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise error(f"{what} must be a finite number, got {x!r}")
    return v


def parse_pair(pair, what: str, error=MeasureFormatError) -> complex:
    """An [re, im] pair of finite numbers as a complex number."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise error(f"{what} must be an [re, im] pair, got {pair!r}")
    return complex(parse_real(pair[0], what, error), parse_real(pair[1], what, error))


def _finite_complex(z, what: str) -> complex:
    z = complex(z)
    return complex(parse_real(z.real, what), parse_real(z.imag, what))


def _rows(items, width: int, shape: str) -> list:
    """``items`` as a list of length-``width`` lists or tuples."""
    if not isinstance(items, (list, tuple)):
        raise MeasureFormatError(f"expected a list of {shape} entries, got {items!r}")
    for item in items:
        if not isinstance(item, (list, tuple)) or len(item) != width:
            raise MeasureFormatError(f"expected {shape} entry, got {item!r}")
    return list(items)


def parse_fourier(items) -> tuple[tuple[int, complex], ...]:
    """Weight (frequency, coefficient) pairs from ``[[k, re, im], ...]``,
    in input order; WeightedCircle adds up those of a repeated frequency."""
    pairs = []
    for item in _rows(items, 3, "[k, re, im]"):
        k = parse_real(item[0], "weight frequency")
        if k != int(k):
            raise MeasureFormatError(f"weight frequency must be an integer, got {item[0]!r}")
        pairs.append((int(k), parse_pair(item[1:], "weight coefficient")))
    return tuple(pairs)


@dataclass(frozen=True)
class WeightedCircle:
    """Circle measure w(theta) dtheta/(2 pi) with a trig-polynomial weight.

    ``fourier`` pairs the integer frequency k with the coefficient of
    exp(i k theta); those of a repeated k add up.  The weight must be
    real valued (coefficients come in Hermitian pairs) and nonnegative on
    the circle; both are validated at construction, and the stored
    coefficients are canonicalized so the Hermitian pairing holds exactly.
    """

    center: complex
    radius: float
    fourier: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_complex(self.center, "circle center"))
        object.__setattr__(self, "radius", parse_real(self.radius, "circle radius"))
        if not self.radius > 0:
            raise MeasureFormatError("circle radius must be positive")
        object.__setattr__(self, "fourier", _canonical_weight(self.fourier))


def CircleLebesgue(center, radius) -> WeightedCircle:
    """Normalized arc-length measure on the circle |z - center| = radius:
    the weighted circle with w = 1."""
    return WeightedCircle(center, radius, UNIT_WEIGHT)


@dataclass(frozen=True)
class Atomic:
    """Finitely many point masses: sum of mass_k * delta(z_k)."""

    atoms: tuple[tuple[complex, float], ...]

    def __post_init__(self):
        atoms = tuple(
            (_finite_complex(z, "atom"), parse_real(w, "atom mass")) for z, w in self.atoms
        )
        if not atoms:
            raise MeasureFormatError("atomic measure needs at least one atom")
        if any(w <= 0 for _, w in atoms):
            raise MeasureFormatError("atom masses must be positive")
        object.__setattr__(self, "atoms", atoms)


@dataclass(frozen=True)
class MeasureSum:
    """Positive linear combination of measures."""

    terms: tuple[tuple[float, "Measure"], ...]

    def __post_init__(self):
        terms = tuple((parse_real(s, "sum scale"), m) for s, m in self.terms)
        if not terms:
            raise MeasureFormatError("sum measure needs at least one term")
        if any(s <= 0 for s, _ in terms):
            raise MeasureFormatError("sum scales must be positive")
        for _, m in terms:
            if not isinstance(m, (WeightedCircle, Atomic, MeasureSum)):
                raise MeasureFormatError("sum terms must be measures")
        object.__setattr__(self, "terms", terms)


Measure = Union[WeightedCircle, Atomic, MeasureSum]


def _canonical_weight(fourier) -> tuple[tuple[int, complex], ...]:
    """Validate and canonicalize trig-weight coefficients.

    ``fourier`` is a sequence of (k, coefficient) pairs; the coefficients
    of a repeated frequency add up.  Requires |k| <= MAX_WEIGHT_FREQUENCY,
    finite sums, Hermitian input pairs (w(-k) == conj(w(k)) within
    WEIGHT_PAIR_TOL), positive mean, and nonnegativity of the weight on a
    WEIGHT_GRID_POINTS grid (a constant weight is positive once its mean
    is, and skips the grid).  Returns coefficients for all frequencies
    -d..d with the pairing enforced exactly.
    """
    raw: dict[int, complex] = {}
    for k, c in fourier:
        raw[int(k)] = raw.get(int(k), 0.0 + 0.0j) + complex(c)
    for k, c in raw.items():
        if abs(k) > MAX_WEIGHT_FREQUENCY:
            raise MeasureFormatError(f"weight frequency {k} exceeds {MAX_WEIGHT_FREQUENCY} in modulus")
        raw[k] = _finite_complex(c, "weight coefficient")
    if not raw:
        raise MeasureFormatError("weight needs at least the mean coefficient")
    scale = max(abs(c) for c in raw.values())
    if scale == 0:
        raise MeasureFormatError("weight is identically zero")
    canon: dict[int, complex] = {}
    for k in sorted({abs(k) for k in raw}):
        plus = raw.get(k, 0.0 + 0.0j)
        minus = raw.get(-k, 0.0 + 0.0j)
        if abs(minus - np.conj(plus)) > WEIGHT_PAIR_TOL * scale:
            raise MeasureFormatError(
                "weight coefficients are not Hermitian: w(-%d) != conj(w(%d))" % (k, k)
            )
        val = complex(0.5 * (plus + np.conj(minus)))  # a Python complex: to_json gives reports plain floats
        if k == 0:
            val = complex(val.real, 0.0)
            if not val.real > 0:
                raise MeasureFormatError("weight mean must be positive")
            canon[0] = val
        else:
            canon[k] = val
            canon[-k] = val.conjugate()
    if len(canon) > 1:  # a constant with a positive mean is positive everywhere
        wmin, _ = weight_grid_extremes(tuple(sorted(canon.items())))
        if wmin < -WEIGHT_POSITIVITY_TOL * max(1.0, canon[0].real):
            raise MeasureFormatError(
                "weight is negative on the circle (grid minimum %.3e)" % wmin
            )
    return tuple(sorted(canon.items()))


@functools.lru_cache(maxsize=64)
def _phases(points: int, k: int) -> np.ndarray:
    """The row exp(i k theta) on the grid theta_j = 2 pi j / points, as a
    read-only array shared by every weight evaluation and circle
    quadrature on that grid."""
    row = np.exp(1j * k * (2.0 * np.pi * np.arange(points) / points))
    row.flags.writeable = False
    return row


@functools.lru_cache(maxsize=64)
def weight_grid_extremes(fourier) -> tuple[float, float]:
    """(min, max) of a canonical trig weight (``WeightedCircle.fourier``)
    on the WEIGHT_GRID_POINTS-angle grid, evaluated once per weight.
    Weights that compare equal but differ in the sign of a zero share an
    entry safely: each grid sum starts at the positive mean, so a signed
    zero term never changes it."""
    vals = weight_values(fourier, WEIGHT_GRID_POINTS)
    return float(vals.min()), float(vals.max())


def weight_values(fourier, points: int) -> np.ndarray:
    """Evaluate a canonical trig weight on the uniform grid of ``points``
    angles 2 pi j / points; exactly real by pairing."""
    out = np.zeros(points)
    for k, c in dict(fourier).items():
        if k == 0:
            out += complex(c).real
        elif k > 0:
            out += 2.0 * (complex(c) * _phases(points, k)).real
    return out


def exact_grid(m: Measure, n: int) -> int:
    """Smallest power of two N >= MIN_CIRCLE_GRID with N >= n + d, d the
    largest weight frequency |k| in ``m`` (0 for atoms).  The entries of
    the n x n block integrate trigonometric polynomials of degree at most
    n - 1 + d, so the trapezoid rule on N points is exact for all of them
    exactly when N > n - 1 + d."""
    grid = MIN_CIRCLE_GRID
    while grid < n + _weight_degree(m):
        grid *= 2
    return grid


def _weight_degree(m: Measure) -> int:
    if isinstance(m, WeightedCircle):
        return max(abs(k) for k, _ in m.fourier)
    if isinstance(m, Atomic):
        return 0
    if isinstance(m, MeasureSum):
        return max(_weight_degree(comp) for _, comp in m.terms)
    raise TypeError(f"not a measure: {m!r}")


@functools.lru_cache(maxsize=256)
def _binomials(n: int, stack: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lower triangle (i, k) of size n in each of ``stack`` circles s:
    flat indices s n^2 + i n + k of its entries, the flat indices
    (i - k) stack + s and k stack + s into the (n, stack) power tables,
    and the floats C(i, k), as read-only arrays shared by every circle
    section of that size and stack."""
    i, k = np.tril_indices(n)
    binom = np.array([float(math.comb(ii, kk)) for ii, kk in zip(i.tolist(), k.tolist())])
    s = np.arange(stack)[:, None]
    out = ((s * n * n + i * n + k).ravel(), ((i - k) * stack + s).ravel(), (k * stack + s).ravel(), np.tile(binom, stack))
    for a in out:
        a.flags.writeable = False
    return out


def circle_expansion(center, radius, n: int) -> np.ndarray:
    """P[i, k] = C(i, k) center**(i-k) radius**k: row i expands
    (center + radius e^{i theta})**i in powers of e^{i theta}, so a row of
    coefficients v (degree < n) times P holds the coefficients of
    p(center + radius w) in powers of w.  Centers and radii of shape (k,)
    give the k circles' P as a stack (k, n, n), each bitwise as alone."""
    centers, radii = np.asarray(center, dtype=complex), np.asarray(radius, dtype=float)
    flat, shift, k, binom = _binomials(n, centers.size)
    p = np.zeros(centers.shape + (n, n), dtype=complex)
    p.reshape(-1)[flat] = binom * vandermonde(centers, n).reshape(-1)[shift] * vandermonde(radii, n).reshape(-1)[k]
    return p


def _times_adjoint(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u @ v^*, summed over k in index order: the atoms' V diag(mass) V^*.
    The terms a larger section adds to entry (i, j) are exact zeros, so its
    leading block is bitwise the smaller section (a BLAS product's
    summation order varies with size)."""
    out = np.zeros((u.shape[0], v.shape[0]), dtype=complex)
    cols, rows = u.T[:, :, None], v.T.conj()[:, None, :]
    for k in range(u.shape[1]):
        out += cols[k] * rows[k]  # np.outer's product, without its per-call overhead
    return out


def _sweep(center, radius, fourier, n: int) -> np.ndarray:
    """P T P^* of circles with the canonical weight ``fourier``: (n, n) for
    a scalar center and radius, a stack (k, n, n) for arrays of shape (k,),
    each product bitwise as alone.  It adds the terms of X = P T, then of
    X P^*, that can be nonzero, in _times_adjoint's order: P is lower
    triangular and T[j, k] = w(k - j) lives on 2d + 1 diagonals, so X adds
    them in ascending order and column k of X vanishes above row k - d.
    When every center is 0, P = diag(r^k) (the radius powers, bitwise
    circle_expansion's diagonal) and entry (i, j) of X P^* has the one
    term X[i, j] r^j: O(n(2d + 1)) nonzeros, no binomials, no sweep.
    A skipped term is an exact zero, and an accumulator that starts at +0
    never becomes -0, so adding it would change no bit (nor would the sign
    of a zero in a weight that compares equal).  Past the double range a
    skipped 0 * inf is no NaN, but the diagonal keeps every inf of P: a
    product overflows at the same size."""
    centered = not np.count_nonzero(center)
    if centered:
        powers = vandermonde(np.asarray(radius, dtype=float), n).T.reshape(np.shape(radius) + (n,))
        p = np.zeros(powers.shape + (n,), dtype=complex)
        p[..., range(n), range(n)] = powers
    else:
        p = circle_expansion(center, radius, n)
    x = np.zeros(p.shape, dtype=complex)
    for o, c in fourier:  # X[:, j] += P[:, j + o] conj(w(o))
        if abs(o) < n:
            x[..., max(0, -o) : n - max(0, o)] += p[..., max(0, o) : n + min(0, o)] * np.conj(c)
    s = np.zeros(p.shape, dtype=complex)
    if centered:
        s += x * powers[..., None, :]
        return s
    d = max(abs(k) for k, _ in fourier)
    rows = p.conj()
    for k in range(n):
        s[..., max(0, k - d) :, k:] += x[..., max(0, k - d) :, k, None] * rows[..., None, k:, k]
    return s


def _product(m: Measure, n: int) -> np.ndarray:
    # the section as a matrix product, Hermitian up to roundoff and bitwise
    # the leading block of every larger one; read through moment_section
    if isinstance(m, WeightedCircle):
        return _sweep(m.center, m.radius, m.fourier, n)
    if isinstance(m, Atomic):
        v = vandermonde([z for z, _ in m.atoms], n)
        return _times_adjoint(v * np.array([w for _, w in m.atoms]), v)
    if isinstance(m, MeasureSum):
        # a term's section differs from its product only where this mirror
        # overwrites, so a finite sum's section is bitwise the mirrored sum
        # of its terms' products
        return sum(s * moment_section(comp, n) for s, comp in m.terms)
    raise TypeError(f"not a measure: {m!r}")


def moment_section(m: Measure, n: int) -> np.ndarray:
    """Leading n x n section [c[i, j]] of the moment matrix: a read-only
    block of the one section ``m`` keeps (see the module docstring),
    bitwise the section built at size n."""
    if n < 1:
        raise ValueError("section size must be at least 1")
    kept = getattr(m, "_section", None)
    if kept is None or kept.shape[0] < n:
        kept = numkernel.mirror_upper(_product(m, n))
        kept.flags.writeable = False
        object.__setattr__(m, "_section", kept)  # not a field: ==, hash and repr ignore it
    return kept[:n, :n]


def circle_sections(centers, radii, fourier, n: int) -> np.ndarray:
    """The mirrored sections of the circles (centers[s], radii[s]) with one
    canonical weight, as a stack (k, n, n) from one sweep (P = diag(r^k)
    when every center is 0), each bitwise its circle's moment_section; no
    measure keeps them."""
    return numkernel.mirror_upper(_sweep(centers, radii, fourier, n))


def moment(m: Measure, i: int, j: int) -> complex:
    """Moment c[i, j], one entry of the section the measure keeps (built
    to size max(i, j) + 1 only when no larger one exists yet)."""
    if i < 0 or j < 0:
        raise ValueError("moment orders must be nonnegative")
    return complex(moment_section(m, max(i, j) + 1)[i, j])


def moment_quadrature(m: Measure, i, j, grid_points: int = WEIGHT_GRID_POINTS):
    """Independent moment evaluation: trapezoid rule on a uniform angular
    grid for circles (exact summation for Atomic).  ``i`` and ``j`` are
    orders (the result is a complex number) or ranges of orders (the
    result is the block [c[i, j]] as an array, from one grid evaluation).

    The integrand is a trigonometric polynomial, so the periodic trapezoid
    rule is exact up to roundoff once the grid resolves degree i + j + the
    weight degree; grids coarser than MIN_CIRCLE_GRID are rejected.
    """
    rows, cols = ([int(k) for k in np.atleast_1d(x)] for x in (i, j))
    if min(rows + cols, default=0) < 0:
        raise ValueError("moment orders must be nonnegative")
    block = _quadrature(m, rows, cols, grid_points)
    return complex(block[0, 0]) if np.ndim(i) == np.ndim(j) == 0 else block


def _quadrature(m: Measure, rows: list, cols: list, grid_points: int) -> np.ndarray:
    if isinstance(m, WeightedCircle):
        if grid_points < MIN_CIRCLE_GRID:
            raise ValueError(
                f"grid_points={grid_points} too coarse for circle quadrature "
                f"(minimum {MIN_CIRCLE_GRID})"
            )
        z = m.center + m.radius * _phases(grid_points, 1)
        w = weight_values(m.fourier, grid_points)
        # one power per order: numpy squares separately, so a broadcast
        # z ** arange(n) differs in the last bit at order 2
        zbar = np.array([np.conj(z) ** k for k in cols])
        return np.array([(z**k * zbar * w).mean(axis=1) for k in rows])
    if isinstance(m, Atomic):
        return np.array(
            [[sum(w * z**a * z.conjugate() ** b for z, w in m.atoms) for b in cols] for a in rows],
            dtype=complex,
        )
    if isinstance(m, MeasureSum):
        return sum(s * _quadrature(comp, rows, cols, grid_points) for s, comp in m.terms)
    raise TypeError(f"not a measure: {m!r}")


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def to_json(m: Measure) -> dict:
    """Plain-dict description; see from_json for the schema."""
    if isinstance(m, WeightedCircle):
        circle = {"center": [m.center.real, m.center.imag], "radius": m.radius}
        if m.fourier == UNIT_WEIGHT:
            return {"kind": "circle", **circle}
        return {"kind": "weighted_circle", **circle, "fourier": [[k, c.real, c.imag] for k, c in m.fourier]}
    if isinstance(m, Atomic):
        return {"kind": "atomic", "atoms": [[z.real, z.imag, w] for z, w in m.atoms]}
    if isinstance(m, MeasureSum):
        return {"kind": "sum", "terms": [[s, to_json(comp)] for s, comp in m.terms]}
    raise TypeError(f"not a measure: {m!r}")


def _require_keys(obj: dict, required: tuple[str, ...]):
    missing = [k for k in required if k not in obj]
    extra = [k for k in obj if k not in required]
    if missing:
        raise MeasureFormatError(f"measure object missing keys {missing}")
    if extra:
        raise MeasureFormatError(f"measure object has unknown keys {extra}")


def from_json(obj) -> Measure:
    """Parse a measure description.

    Schema (unknown keys are rejected)::

        {"kind": "circle", "center": [re, im], "radius": r}
        {"kind": "weighted_circle", "center": [re, im], "radius": r,
         "fourier": [[k, re, im], ...]}
        {"kind": "atomic", "atoms": [[re, im, mass], ...]}
        {"kind": "sum", "terms": [[scale, <measure>], ...]}
    """
    if not isinstance(obj, dict):
        raise MeasureFormatError(f"measure must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "circle":
        _require_keys(obj, ("kind", "center", "radius"))
        return CircleLebesgue(parse_pair(obj["center"], "circle center"), obj["radius"])
    if kind == "weighted_circle":
        _require_keys(obj, ("kind", "center", "radius", "fourier"))
        return WeightedCircle(
            parse_pair(obj["center"], "circle center"), obj["radius"], parse_fourier(obj["fourier"])
        )
    if kind == "atomic":
        _require_keys(obj, ("kind", "atoms"))
        return Atomic(
            tuple((parse_pair(item[:2], "atom"), item[2]) for item in _rows(obj["atoms"], 3, "[re, im, mass]"))
        )
    if kind == "sum":
        _require_keys(obj, ("kind", "terms"))
        return MeasureSum(
            tuple((s, from_json(m)) for s, m in _rows(obj["terms"], 2, "[scale, measure]"))
        )
    raise MeasureFormatError(f"unknown measure kind {kind!r}")
