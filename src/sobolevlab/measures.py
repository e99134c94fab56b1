"""Measures on the plane and their moment sections.

Four kinds are supported: normalized Lebesgue measure on a circle,
trigonometric-polynomial-weighted circle measure, finitely atomic
measures, and positive linear combinations of the above.  The central
operation is the leading n x n section of the moment matrix

    c[i, j] = integral of  z**i * conj(z)**j  d(mu),

built as a matrix product: P T P^* for circles (row i of P expands
(center + radius e^{i theta})**i, T is the Toeplitz matrix of the weight's
Fourier coefficients or the identity), V diag(mass) V^* for atoms (V the
Vandermonde matrix), and the scaled sum for sums.  Sections are exactly
Hermitian (the lower triangle mirrors the upper one) and cross-checkable
against trapezoid quadrature on a uniform angular grid.  Numbers entering
a measure pass one validation layer (``parse_real``, ``parse_pair``,
``parse_fourier``), shared with the scenario parser.
"""

from __future__ import annotations

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
    "from_json",
    "has_infinite_support",
    "moment",
    "moment_quadrature",
    "moment_section",
    "parse_fourier",
    "parse_pair",
    "parse_real",
    "support_hull_radius",
    "to_json",
    "weight_values",
]

#: fixed grid used for weight-positivity validation
WEIGHT_GRID_POINTS = 4096
#: tolerance for the Hermitian pairing w(-k) == conj(w(k)) of weight input
WEIGHT_PAIR_TOL = 1e-12
#: a trigonometric weight may dip this far below zero on the check grid
WEIGHT_POSITIVITY_TOL = 1e-12
#: circle-type quadrature refuses coarser grids than this
MIN_CIRCLE_GRID = 256


class MeasureFormatError(ValueError):
    """Malformed measure description (constructor argument or JSON)."""


def parse_real(x, what: str, error=MeasureFormatError) -> float:
    """``x`` as a finite float; ``error`` for NaN, infinities and anything
    but a real number (booleans and numeric strings included)."""
    try:
        v = float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
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
    """Weight coefficients from ``[[k, re, im], ...]``; coefficients of a
    repeated frequency add up."""
    fourier: dict[int, complex] = {}
    for item in _rows(items, 3, "[k, re, im]"):
        k = parse_real(item[0], "weight frequency")
        if k != int(k):
            raise MeasureFormatError(f"weight frequency must be an integer, got {item[0]!r}")
        k = int(k)
        fourier[k] = fourier.get(k, 0.0 + 0.0j) + parse_pair(item[1:], "weight coefficient")
    return tuple(fourier.items())


@dataclass(frozen=True)
class CircleLebesgue:
    """Normalized arc-length measure on the circle |z - center| = radius."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_complex(self.center, "circle center"))
        object.__setattr__(self, "radius", parse_real(self.radius, "circle radius"))
        if not self.radius > 0:
            raise MeasureFormatError("circle radius must be positive")


@dataclass(frozen=True)
class WeightedCircle:
    """Circle measure w(theta) dtheta/(2 pi) with a trig-polynomial weight.

    ``fourier`` maps the integer frequency k to the coefficient of
    exp(i k theta).  The weight must be real valued (coefficients come in
    Hermitian pairs) and nonnegative on the circle; both are validated at
    construction, and the stored coefficients are canonicalized so the
    Hermitian pairing holds exactly.
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

    def coefficient(self, k: int) -> complex:
        for kk, c in self.fourier:
            if kk == k:
                return c
        return 0.0 + 0.0j


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
            if not isinstance(m, (CircleLebesgue, WeightedCircle, Atomic, MeasureSum)):
                raise MeasureFormatError("sum terms must be measures")
        object.__setattr__(self, "terms", terms)


Measure = Union[CircleLebesgue, WeightedCircle, Atomic, MeasureSum]


def _canonical_weight(fourier) -> tuple[tuple[int, complex], ...]:
    """Validate and canonicalize trig-weight coefficients.

    Requires Hermitian input pairs (w(-k) == conj(w(k)) within
    WEIGHT_PAIR_TOL), positive mean, and nonnegativity of the weight on a
    WEIGHT_GRID_POINTS grid.  Returns coefficients for all frequencies
    -d..d with the pairing enforced exactly.
    """
    raw: dict[int, complex] = {}
    for k, c in dict(fourier).items():
        raw[int(k)] = raw.get(int(k), 0.0 + 0.0j) + _finite_complex(c, "weight coefficient")
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
        val = 0.5 * (plus + np.conj(minus))
        if k == 0:
            val = complex(val.real, 0.0)
            if not val.real > 0:
                raise MeasureFormatError("weight mean must be positive")
            canon[0] = val
        else:
            canon[k] = val
            canon[-k] = np.conj(val)
    theta = 2.0 * np.pi * np.arange(WEIGHT_GRID_POINTS) / WEIGHT_GRID_POINTS
    wmin = weight_values(tuple(sorted(canon.items())), theta).min()
    if wmin < -WEIGHT_POSITIVITY_TOL * max(1.0, canon[0].real):
        raise MeasureFormatError(
            "weight is negative on the circle (grid minimum %.3e)" % wmin
        )
    return tuple(sorted(canon.items()))


def weight_values(fourier, theta) -> np.ndarray:
    """Evaluate a canonical trig weight on angles; exactly real by pairing."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for k, c in dict(fourier).items():
        if k == 0:
            out += complex(c).real
        elif k > 0:
            out += 2.0 * (complex(c) * np.exp(1j * k * theta)).real
    return out


def _circle_expansion(center: complex, radius: float, n: int) -> np.ndarray:
    """P[i, k] = C(i, k) center**(i-k) radius**k: row i expands
    (center + radius e^{i theta})**i in powers of e^{i theta}."""
    a_pow = vandermonde(complex(center), n)[:, 0]
    r_pow = vandermonde(float(radius), n)[:, 0]
    i, k = np.tril_indices(n)
    binom = np.array([float(math.comb(ii, kk)) for ii, kk in zip(i, k)])
    p = np.zeros((n, n), dtype=complex)
    p[i, k] = binom * a_pow[i - k] * r_pow[k]
    return p


def _times_adjoint(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u @ v^*, summed over k in index order.  The terms a larger section
    adds to entry (i, j) are exact zeros, so its leading block is bitwise
    the smaller section (a BLAS product's summation order varies with size)."""
    out = np.zeros((u.shape[0], v.shape[0]), dtype=complex)
    for k in range(u.shape[1]):
        out += np.outer(u[:, k], v[:, k].conj())
    return out


def _product(m: Measure, n: int) -> np.ndarray:
    # the section as a matrix product, Hermitian up to roundoff
    if isinstance(m, (CircleLebesgue, WeightedCircle)):
        p = _circle_expansion(m.center, m.radius, n)
        if isinstance(m, CircleLebesgue):
            return _times_adjoint(p, p)
        w = dict(m.fourier)
        band = np.array([w.get(d, 0.0 + 0.0j) for d in range(1 - n, n)], dtype=complex)
        k = np.arange(n)
        t = band[k[None, :] - k[:, None] + n - 1]  # T = T^*: w(-d) == conj(w(d)) exactly
        return _times_adjoint(_times_adjoint(p, t), p)
    if isinstance(m, Atomic):
        v = vandermonde([z for z, _ in m.atoms], n)
        return _times_adjoint(v * np.array([w for _, w in m.atoms]), v)
    if isinstance(m, MeasureSum):
        return sum(s * _product(comp, n) for s, comp in m.terms)
    raise TypeError(f"not a measure: {m!r}")


def moment_section(m: Measure, n: int) -> np.ndarray:
    """Leading n x n section [c[i, j]] of the moment matrix (see the
    module docstring); exactly Hermitian."""
    if n < 1:
        raise ValueError("section size must be at least 1")
    return numkernel.mirror_upper(_product(m, n))


def moment(m: Measure, i: int, j: int) -> complex:
    """Moment c[i, j], read off the smallest section holding it."""
    if i < 0 or j < 0:
        raise ValueError("moment orders must be nonnegative")
    return complex(moment_section(m, max(i, j) + 1)[i, j])


def moment_quadrature(m: Measure, i: int, j: int, grid_points: int = WEIGHT_GRID_POINTS) -> complex:
    """Independent moment evaluation: trapezoid rule on a uniform angular
    grid for circle kinds (exact summation for Atomic).

    The integrand is a trigonometric polynomial, so the periodic trapezoid
    rule is exact up to roundoff once the grid resolves degree i + j + the
    weight degree; grids coarser than MIN_CIRCLE_GRID are rejected.
    """
    if i < 0 or j < 0:
        raise ValueError("moment orders must be nonnegative")
    if isinstance(m, (CircleLebesgue, WeightedCircle)):
        if grid_points < MIN_CIRCLE_GRID:
            raise ValueError(
                f"grid_points={grid_points} too coarse for circle quadrature "
                f"(minimum {MIN_CIRCLE_GRID})"
            )
        theta = 2.0 * np.pi * np.arange(grid_points) / grid_points
        z = m.center + m.radius * np.exp(1j * theta)
        vals = z**i * np.conj(z) ** j
        if isinstance(m, WeightedCircle):
            vals = vals * weight_values(m.fourier, theta)
        return complex(vals.mean())
    if isinstance(m, Atomic):
        return complex(sum(w * z**i * z.conjugate() ** j for z, w in m.atoms))
    if isinstance(m, MeasureSum):
        return complex(
            sum(s * moment_quadrature(comp, i, j, grid_points) for s, comp in m.terms)
        )
    raise TypeError(f"not a measure: {m!r}")


def support_hull_radius(m: Measure) -> float:
    """Radius of the smallest origin-centered disk containing the support."""
    if isinstance(m, (CircleLebesgue, WeightedCircle)):
        return abs(m.center) + m.radius
    if isinstance(m, Atomic):
        return max(abs(z) for z, _ in m.atoms)
    if isinstance(m, MeasureSum):
        return max(support_hull_radius(comp) for _, comp in m.terms)
    raise TypeError(f"not a measure: {m!r}")


def has_infinite_support(m: Measure) -> bool:
    if isinstance(m, (CircleLebesgue, WeightedCircle)):
        return True
    if isinstance(m, Atomic):
        return False
    if isinstance(m, MeasureSum):
        return any(has_infinite_support(comp) for _, comp in m.terms)
    raise TypeError(f"not a measure: {m!r}")


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def to_json(m: Measure) -> dict:
    """Plain-dict description; see from_json for the schema."""
    if isinstance(m, CircleLebesgue):
        return {
            "kind": "circle",
            "center": [m.center.real, m.center.imag],
            "radius": m.radius,
        }
    if isinstance(m, WeightedCircle):
        return {
            "kind": "weighted_circle",
            "center": [m.center.real, m.center.imag],
            "radius": m.radius,
            "fourier": [[k, c.real, c.imag] for k, c in m.fourier],
        }
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
