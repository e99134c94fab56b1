"""Measure moments: closed forms vs quadrature, schema validation."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sobolevlab import measures, numkernel, sobolev
from sobolevlab.measures import (
    Atomic,
    CircleLebesgue,
    MeasureFormatError,
    MeasureSum,
    WeightedCircle,
    from_json,
    moment,
    moment_quadrature,
    moment_section,
    to_json,
)

from oracles import assert_read_only, circle_product, summed_product

UNIT = CircleLebesgue(0.0, 1.0)
HALF = CircleLebesgue(0.0, 0.5)
SHIFTED = CircleLebesgue(1.0 + 1.0j, 2.0)
COS_QUARTER = WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.25), (-1, 0.25)))
COS08_OFFCENTER = WeightedCircle(0.3 - 0.2j, 1.5, ((0, 1.0), (1, 0.2 + 0.1j), (-1, 0.2 - 0.1j)))
ATOMS = Atomic(((2.0 + 0.0j, 1.0), (-0.5 + 0.5j, 0.25)))
MIXED = MeasureSum(((1.0, HALF), (2.0, ATOMS)))

CORPUS = [UNIT, HALF, SHIFTED, COS_QUARTER, COS08_OFFCENTER, ATOMS, MIXED]
#: per CORPUS entry, whether its 16 x 16 section is strictly positive
#: definite in floating point: the infinite supports inside the closed
#: unit disk, where lambda_min stays visible above eps * ||A||
STRICTLY_POSITIVE = [True, True, False, True, False, False, False]


def test_unit_circle_moments_are_kronecker_delta():
    for i in range(16):
        for j in range(16):
            expected = 1.0 if i == j else 0.0
            assert moment(UNIT, i, j) == expected


def test_frozen_closed_form_values():
    # radius-1/2 circle: c[k, k] = (1/4)**k
    assert moment(HALF, 2, 2) == 0.0625
    assert moment(HALF, 3, 3) == 0.5**6
    assert moment(HALF, 1, 2) == 0.0
    # center 1+i, radius 2: c[1, 1] = |a|^2 + r^2 = 6
    assert moment(SHIFTED, 1, 1) == 6.0
    # weighted unit circle: c[i, j] = w_hat(j - i)
    assert moment(COS_QUARTER, 0, 1) == 0.25
    assert moment(COS_QUARTER, 1, 0) == 0.25
    assert moment(COS_QUARTER, 0, 2) == 0.0
    assert moment(COS_QUARTER, 4, 4) == 1.0
    # atoms: plain sums of mass * z^i * conj(z)^j
    assert moment(Atomic(((2.0, 1.0),)), 1, 1) == 4.0
    assert moment(Atomic(((2.0, 1.0),)), 0, 1) == 2.0


def test_moment_rejects_negative_orders():
    with pytest.raises(ValueError):
        moment(UNIT, -1, 0)
    with pytest.raises(ValueError):
        moment_quadrature(UNIT, 0, -2)


@pytest.mark.parametrize("m", CORPUS)
def test_hermitian_symmetry_is_exact(m):
    for i in range(9):
        for j in range(9):
            assert moment(m, i, j) == np.conj(moment(m, j, i))


@pytest.mark.parametrize("m", CORPUS)
def test_closed_form_matches_quadrature(m):
    for i in range(13):
        for j in range(13):
            c = moment(m, i, j)
            q = moment_quadrature(m, i, j, 4096)
            assert abs(c - q) <= 1e-10 * (1.0 + abs(c))


@settings(max_examples=60, deadline=None)
@seed(20260814)
@given(
    re=st.floats(-1.5, 1.5),
    im=st.floats(-1.5, 1.5),
    r=st.floats(0.1, 2.5),
    i=st.integers(0, 10),
    j=st.integers(0, 10),
)
def test_circle_moments_property(re, im, r, i, j):
    m = CircleLebesgue(complex(re, im), r)
    c = moment(m, i, j)
    assert c == np.conj(moment(m, j, i))
    q = moment_quadrature(m, i, j, 2048)
    assert abs(c - q) <= 1e-9 * (1.0 + abs(c))


def test_sum_linearity_machine_precision():
    m = MeasureSum(((0.5, HALF), (1.5, COS_QUARTER)))
    for i in range(8):
        for j in range(8):
            lhs = moment(m, i, j)
            rhs = 0.5 * moment(HALF, i, j) + 1.5 * moment(COS_QUARTER, i, j)
            assert abs(lhs - rhs) <= 1e-14 * (1.0 + abs(rhs))


@pytest.mark.parametrize(
    "m, strict", zip(CORPUS, STRICTLY_POSITIVE), ids=[f"m{i}" for i in range(len(CORPUS))]
)
def test_sections_are_positive_semidefinite(m, strict):
    n = 16
    a = np.array([[moment(m, i, j) for j in range(n)] for i in range(n)])
    vals = np.linalg.eigvalsh(a)
    assert vals[0] >= -1e-12 * max(vals[-1], 1.0)
    if strict:
        assert vals[0] > 0.0


def _entry_quadrature(m, i, j):
    """The trapezoid rule one entry at a time: reference for the block form."""
    if isinstance(m, WeightedCircle):
        theta = 2.0 * np.pi * np.arange(4096) / 4096
        z = m.center + m.radius * np.exp(1j * theta)
        return complex((z**i * np.conj(z) ** j * measures.weight_values(m.fourier, 4096)).mean())
    if isinstance(m, Atomic):
        return complex(sum(w * z**i * z.conjugate() ** j for z, w in m.atoms))
    return complex(sum(s * _entry_quadrature(comp, i, j) for s, comp in m.terms))


@pytest.mark.parametrize("m", [SHIFTED, COS08_OFFCENTER, ATOMS, MIXED])
def test_block_quadrature_is_bitwise_the_entry_one(m):
    n = 16
    block = moment_quadrature(m, range(n), range(n))
    assert block.shape == (n, n)
    npt.assert_array_equal(block, [[_entry_quadrature(m, i, j) for j in range(n)] for i in range(n)])
    assert moment_quadrature(m, 2, 3) == block[2, 3]
    assert isinstance(moment_quadrature(m, 2, 3), complex)


def test_arc_length_is_the_unit_weight_circle():
    c = CircleLebesgue(0.5 - 0.25j, 2.0)
    assert c == WeightedCircle(0.5 - 0.25j, 2.0, [(0, 1)])
    assert to_json(c)["kind"] == "circle"
    # an explicit unit weight is the same measure, so it gets the same label
    obj = {"kind": "weighted_circle", "center": [0.5, -0.25], "radius": 2.0, "fourier": [[0, 1, 0]]}
    assert to_json(from_json(obj)) == {"kind": "circle", "center": [0.5, -0.25], "radius": 2.0}


def test_quadrature_grid_floor_for_circles():
    with pytest.raises(ValueError, match="too coarse"):
        moment_quadrature(UNIT, 0, 0, 255)
    with pytest.raises(ValueError, match="too coarse"):
        moment_quadrature(MeasureSum(((1.0, UNIT),)), 0, 0, 128)
    # atomic summation is exact; no grid involved
    assert moment_quadrature(ATOMS, 1, 1, 1) == moment(ATOMS, 1, 1)


def test_weight_values_real_and_match_fourier():
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    vals = measures.weight_values(COS_QUARTER.fourier, 64)
    npt.assert_allclose(vals, 1.0 + 0.5 * np.cos(theta), atol=1e-14)


@pytest.mark.parametrize("points", [256, 4096])
def test_weight_values_are_bitwise_the_explicit_sum_on_shared_rows(points):
    fourier = WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.2 + 0.1j), (-1, 0.2 - 0.1j), (3, 0.05j), (-3, -0.05j))).fourier
    theta = 2.0 * np.pi * np.arange(points) / points
    ref = np.zeros(points)
    for k, c in fourier:
        if k == 0:
            ref += c.real
        elif k > 0:
            ref += 2.0 * (c * np.exp(1j * k * theta)).real
    npt.assert_array_equal(measures.weight_values(fourier, points), ref)
    row = measures._phases(points, 3)
    assert row is measures._phases(points, 3)
    npt.assert_array_equal(row, np.exp(1j * 3 * theta))
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 0.0


def _weighted(k: int) -> WeightedCircle:
    return WeightedCircle(0.05 + 0.05j, 0.95, ((0, 1.0), (k, 0.3), (-k, 0.3)))


def test_exact_grid_is_the_smallest_exact_power_of_two():
    assert measures.exact_grid(ATOMS, 64) == 256
    assert measures.exact_grid(UNIT, 64) == 256
    assert measures.exact_grid(_weighted(2), 10) == 256
    assert measures.exact_grid(_weighted(192), 64) == 256  # n + d = 256
    assert measures.exact_grid(_weighted(193), 64) == 512
    assert measures.exact_grid(MeasureSum(((1.0, ATOMS), (2.0, _weighted(1000)))), 64) == 2048


def test_exact_grid_is_tight_at_the_largest_frequency():
    # |k| = 1000 at n = 64: the integrands reach frequency 1063, so 2048
    # points are exact and 1024 alias
    mu, n = _weighted(1000), 64
    a = moment_section(mu, n)
    grid = measures.exact_grid(mu, n)
    assert grid == 2048
    assert np.abs(a - moment_quadrature(mu, range(n), range(n), grid)).max() <= 1e-10
    assert np.abs(a - moment_quadrature(mu, range(n), range(n), grid // 2)).max() > 1e-2


def test_constructor_validation():
    with pytest.raises(MeasureFormatError):
        CircleLebesgue(0.0, 0.0)
    with pytest.raises(MeasureFormatError):
        CircleLebesgue(0.0, -1.0)
    with pytest.raises(MeasureFormatError):
        Atomic(())
    with pytest.raises(MeasureFormatError):
        Atomic(((1.0, -2.0),))
    with pytest.raises(MeasureFormatError):
        MeasureSum(())
    with pytest.raises(MeasureFormatError):
        MeasureSum(((0.0, UNIT),))


def test_weight_validation():
    # Hermitian pairing violated
    with pytest.raises(MeasureFormatError, match="Hermitian"):
        WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.25), (-1, 0.35)))
    # strictly negative somewhere on the circle: 1 + 1.2 cos
    with pytest.raises(MeasureFormatError, match="negative"):
        WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.6), (-1, 0.6)))
    # nonpositive mean
    with pytest.raises(MeasureFormatError, match="mean"):
        WeightedCircle(0.0, 1.0, ((0, -1.0),))
    # touching zero is fine: 1 + cos(theta) vanishes at pi
    w = WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.5), (-1, 0.5)))
    assert dict(w.fourier)[-1] == np.conj(dict(w.fourier)[1])


def test_repeated_frequencies_add_up_in_the_constructor_as_in_json():
    def as_json(pairs):
        return {"kind": "weighted_circle", "center": [0.0, 0.0], "radius": 1.0,
                "fourier": [[k, c, 0.0] for k, c in pairs]}

    hermitian = ((0, 1.0), (1, 0.2), (1, 0.2), (-1, 0.4))  # w(1) = w(-1) = 0.4
    assert measures.parse_fourier(as_json(hermitian)["fourier"]) == tuple((k, complex(c)) for k, c in hermitian)
    expected = ((-1, 0.4 + 0j), (0, 1.0 + 0j), (1, 0.4 + 0j))
    assert WeightedCircle(0.0, 1.0, hermitian).fourier == from_json(as_json(hermitian)).fourier == expected
    lopsided = ((0, 1.0), (1, 0.4), (1, 0.1), (-1, 0.1))  # w(1) = 0.5, w(-1) = 0.1
    with pytest.raises(MeasureFormatError, match="not Hermitian"):
        WeightedCircle(0.0, 1.0, lopsided)
    with pytest.raises(MeasureFormatError, match="not Hermitian"):
        from_json(as_json(lopsided))


def test_constant_weight_skips_the_positivity_grid(monkeypatch):
    def no_grid(*_):
        raise AssertionError("a constant weight needs no positivity grid")

    measures.weight_grid_extremes.cache_clear()  # the last weight below must reach the grid
    monkeypatch.setattr(measures, "weight_values", no_grid)
    assert CircleLebesgue(0.0, 1.0).fourier == measures.UNIT_WEIGHT
    assert WeightedCircle(0.0, 1.0, ((0, 2.5 + 1e-14j),)).fourier == ((0, 2.5 + 0j),)
    with pytest.raises(MeasureFormatError, match="mean"):
        WeightedCircle(0.0, 1.0, ((0, -1.0),))
    with pytest.raises(AssertionError, match="no positivity grid"):
        WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.0), (-1, 0.0)))


def test_circle_expansion_binomials_are_exact_and_shared():
    for n in (1, 5, 33):
        p = measures.circle_expansion(0.5 - 0.25j, 2.0, n)
        ref = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for k in range(i + 1):
                ref[i, k] = float(math.comb(i, k)) * (0.5 - 0.25j) ** (i - k) * 2.0**k
        npt.assert_allclose(p, ref, rtol=1e-14, atol=0)
        assert measures._binomials(n) is measures._binomials(n)
        assert not any(a.flags.writeable for a in measures._binomials(n))


def test_times_adjoint_is_bitwise_the_outer_product_loop():
    rng = np.random.default_rng(11)
    for case in range(600):
        n, m, k = (int(x) for x in rng.integers(1, 66, size=3))
        u, v = (rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k)) for rows in (n, m))
        if case % 3 == 0:  # exact and signed zeros in both factors
            for a in (u, v):
                a.real[rng.uniform(size=a.shape) < 0.3] = 0.0
                a.imag[rng.uniform(size=a.shape) < 0.3] = -0.0
        ref = np.zeros((n, m), dtype=complex)
        for j in range(k):
            ref += np.outer(u[:, j], v[:, j].conj())
        assert measures._times_adjoint(u, v).tobytes() == ref.tobytes()


def _random_circles(count: int, seed: int) -> list:
    """Circles with centers that have signed-zero parts, radii in [0.25, 4]
    and positive weights of degree 1-3 (some inner frequencies zero)."""
    rng = np.random.default_rng(seed)
    circles = []
    for case in range(count):
        re, im = rng.uniform(-2.0, 2.0, size=2)
        center = complex(-0.0 if case % 3 == 0 else re, -0.0 if case % 4 == 1 else im)
        degree = 1 + case % 3
        fourier = [(0, 1.0)]
        for k in range(1, degree + 1):
            if k == degree or rng.uniform() < 0.7:
                c = 0.45 / degree * rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())
                fourier += [(k, c), (-k, c.conjugate())]
        circles.append(WeightedCircle(center, rng.uniform(0.25, 4.0), tuple(fourier)))
    return circles


@pytest.mark.parametrize(
    "m", [m for m in CORPUS if isinstance(m, WeightedCircle)] + _random_circles(12, 13)
)
def test_circle_sections_are_bitwise_the_full_outer_product_loops(m):
    # the banded triangular sweep skips only exact zeros of P T P^*, and it
    # keeps the nesting of P: a product is the leading block of every
    # larger one, so the section the measure slices from its kept size-65
    # product is bitwise the reference built at its own size
    largest, p = measures._product(m, 65), measures.circle_expansion(m.center, m.radius, 65)
    moment_section(m, 65)
    for n in range(1, 66):
        ref = circle_product(m, n)
        built = measures._product(m, n)
        assert built.tobytes() == ref.tobytes()
        assert built.tobytes() == largest[:n, :n].tobytes()
        assert measures.circle_expansion(m.center, m.radius, n).tobytes() == p[:n, :n].tobytes()
        assert moment_section(m, n).tobytes() == numkernel.mirror_upper(ref).tobytes()


def _random_atomics(count: int, seed: int) -> list:
    """Atomic measures of 1-70 atoms in [-2, 2]^2, some on the axes with
    signed-zero parts, masses in [0.1, 2]."""
    rng = np.random.default_rng(seed)
    out = []
    for case in range(count):
        size = int(rng.integers(1, 71))
        z = rng.uniform(-2.0, 2.0, size=size) + 1j * rng.uniform(-2.0, 2.0, size=size)
        if case % 2:
            z.imag[::3] = -0.0
        out.append(Atomic(tuple(zip(z, rng.uniform(0.1, 2.0, size=size)))))
    return out


@pytest.mark.parametrize("m", [ATOMS, MIXED] + _random_atomics(8, 17))
def test_atomic_sections_nest_at_every_size(m):
    # V diag(mass) V^* sums exact zeros beyond a leading block, and the
    # Vandermonde rows nest (n = 3 included): every product is the leading
    # block of the size-65 one
    largest = measures._product(m, 65)
    for n in range(1, 66):
        built = measures._product(m, n)
        assert built.tobytes() == largest[:n, :n].tobytes()
        assert moment_section(m, n).tobytes() == numkernel.mirror_upper(built).tobytes()


def test_each_measure_keeps_one_read_only_product(monkeypatch):
    builds = []
    product = measures._product
    monkeypatch.setattr(measures, "_product", lambda m, n: builds.append((m, n)) or product(m, n))
    half, atoms = CircleLebesgue(0.0, 0.5), Atomic(((0.5, 1.0), (-0.5j, 2.0)))
    mixed = MeasureSum(((1.0, half), (2.0, atoms)))
    fresh = [to_json(m) for m in (half, atoms, mixed)], [repr(m) for m in (half, atoms, mixed)]
    first = moment_section(mixed, 8)
    assert builds == [(mixed, 8), (half, 8), (atoms, 8)]
    # smaller sizes, single moments and the terms on their own are slices
    section = moment_section(mixed, 5)
    assert moment(mixed, 2, 4) == section[2, 4] and moment(half, 7, 7) == moment_section(half, 8)[7, 7]
    assert len(builds) == 3
    moment_section(atoms, 9)  # a larger size rebuilds the measure's product
    assert builds[3:] == [(atoms, 9)]
    assert not moment_section(atoms, 9).flags.writeable
    # a returned section is a read-only block of the kept one
    assert_read_only(section, lambda: moment_section(mixed, 5))
    assert moment_section(mixed, 5).tobytes() == first[:5, :5].tobytes()
    # the kept section is not a field
    assert mixed == MeasureSum(((1.0, CircleLebesgue(0.0, 0.5)), (2.0, Atomic(((0.5, 1.0), (-0.5j, 2.0))))))
    assert hash(half) == hash(CircleLebesgue(0.0, 0.5))
    assert ([to_json(m) for m in (half, atoms, mixed)], [repr(m) for m in (half, atoms, mixed)]) == fresh


def _random_sums(count: int, seed: int, top: float) -> list:
    """Sums of 1-3 scaled terms: circles, weighted circles, atoms and
    nested sums of those, with signed-zero parts in centers and atoms;
    centers, radii and atoms have moduli from 0.3 to 10**top."""
    rng = np.random.default_rng(seed)

    def size() -> float:
        return float(10.0 ** rng.uniform(-0.5, top))

    def point() -> complex:
        z = size() * np.exp(2j * np.pi * rng.uniform())
        return complex(-0.0 if rng.uniform() < 0.3 else z.real, -0.0 if rng.uniform() < 0.3 else z.imag)

    def term(nested: bool):
        kind = int(rng.integers(0, 4 if nested else 3))
        if kind == 0:
            return CircleLebesgue(point(), size())
        if kind == 1:
            c = 0.45 * rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())
            return WeightedCircle(point(), size(), ((0, 1.0), (1, c), (-1, c.conjugate())))
        if kind == 2:
            return Atomic(tuple((point(), rng.uniform(0.1, 2.0)) for _ in range(int(rng.integers(1, 8)))))
        return summed(False)

    def summed(nested: bool):
        return MeasureSum(tuple((rng.uniform(0.1, 3.0), term(nested)) for _ in range(int(rng.integers(1, 4)))))

    return [summed(True) for _ in range(count)]


@pytest.mark.parametrize("m", _random_sums(24, 29, 0.3))
def test_sum_sections_are_bitwise_the_mirrored_sum_of_term_products(m):
    # a sum adds its terms' mirrored sections, which differ from their
    # products only where the sum's own mirror overwrites
    for n in range(1, 66):
        ref = numkernel.mirror_upper(summed_product(m, n))
        assert moment_section(m, n).tobytes() == ref.tobytes()


def test_overflowing_sum_sections_are_non_finite_where_the_term_products_sum_is():
    non_finite = 0
    for m in _random_sums(300, 31, 160.0):
        for n in range(1, 10):
            with np.errstate(all="ignore"):
                ref = numkernel.mirror_upper(summed_product(m, n))
                got = moment_section(m, n)
            finite = bool(np.all(np.isfinite(got)))
            assert finite == bool(np.all(np.isfinite(ref)))
            assert not finite or got.tobytes() == ref.tobytes()
            non_finite += not finite
    assert non_finite > 1000  # most of the 2,700 sections overflow


def test_weight_frequency_cap_prevents_grid_aliasing():
    # 1 + 1.2 cos(4096 theta) is -0.2 at theta = pi/4096, between the points
    # of the 4096-point positivity grid, where it reads 2.2 everywhere
    aliased = ((0, 1.0), (4096, 0.6), (-4096, 0.6))
    with pytest.raises(MeasureFormatError, match="frequency 4096"):
        WeightedCircle(0.0, 1.0, aliased)
    with pytest.raises(MeasureFormatError, match="frequency"):
        from_json({"kind": "weighted_circle", "center": [0.0, 0.0], "radius": 1.0,
                   "fourier": [[k, c, 0.0] for k, c in aliased]})
    assert measures.MAX_WEIGHT_FREQUENCY == 1024
    WeightedCircle(0.0, 1.0, ((0, 1.0), (1024, 0.5), (-1024, 0.5)))
    with pytest.raises(MeasureFormatError, match="frequency"):
        WeightedCircle(0.0, 1.0, ((0, 1.0), (1025, 0.5), (-1025, 0.5)))


@pytest.mark.parametrize("m", CORPUS)
def test_json_round_trip(m):
    assert from_json(to_json(m)) == m


def test_json_rejects_unknown_and_missing_keys():
    with pytest.raises(MeasureFormatError, match="unknown keys"):
        from_json({"kind": "circle", "center": [0, 0], "radius": 1.0, "color": "red"})
    with pytest.raises(MeasureFormatError, match="missing keys"):
        from_json({"kind": "circle", "center": [0, 0]})
    with pytest.raises(MeasureFormatError, match="unknown measure kind"):
        from_json({"kind": "triangle"})
    with pytest.raises(MeasureFormatError):
        from_json({"kind": "atomic", "atoms": [[0.0, 0.0]]})
    with pytest.raises(MeasureFormatError):
        from_json([1, 2, 3])


def test_nested_sum_parses():
    obj = {
        "kind": "sum",
        "terms": [
            [1.0, {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0}],
            [2.0, {"kind": "sum", "terms": [[0.5, {"kind": "atomic", "atoms": [[1.0, 0.0, 1.0]]}]]}],
        ],
    }
    m = from_json(obj)
    # moment(0,0) = total mass = 1 + 2 * 0.5 * 1
    assert moment(m, 0, 0) == 2.0



def _worst_scaled_error(a, oracle, seed):
    """Largest |a[i, j] - oracle(i, j)| / max(1, sqrt|oracle(i, i) oracle(j, j)|)
    over a seeded sample of entries that includes the four corners (the
    scale the benchmark's section oracle uses)."""
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    picks = {(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)}
    while len(picks) < 24:
        picks.add(tuple(int(x) for x in rng.integers(0, n, size=2)))
    worst = 0.0
    for i, j in sorted(picks):
        scale = max(1.0, abs(oracle(i, i) * oracle(j, j)) ** 0.5)
        worst = max(worst, abs(a[i, j] - oracle(i, j)) / scale)
    return worst


@pytest.mark.parametrize("m", CORPUS)
def test_full_size_section_matches_quadrature(m):
    a = measures.moment_section(m, 64)
    assert a.shape == (64, 64)
    assert _worst_scaled_error(a, lambda i, j: moment_quadrature(m, i, j), 64) <= 1e-10


def test_full_size_gram_matches_quadrature():
    mu0, mu1 = CircleLebesgue(0.3 + 0.4j, 0.7), COS_QUARTER

    def oracle(i, j):
        v = moment_quadrature(mu0, i, j)
        if i >= 1 and j >= 1:
            v += i * j * moment_quadrature(mu1, i - 1, j - 1)
        return v

    g = sobolev.gram_section(sobolev.pencil_of_measures(mu0, mu1), 64)
    assert _worst_scaled_error(g, oracle, 65) <= 1e-10

@pytest.mark.parametrize("m", CORPUS)
def test_moment_reads_off_the_section(m):
    a = measures.moment_section(m, 9)
    npt.assert_array_equal(a, a.conj().T)
    assert np.all(a.diagonal().imag == 0.0)
    for i, j in [(0, 0), (2, 7), (7, 2), (8, 8)]:
        assert moment(m, i, j) == a[i, j]


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "circle", "center": ["a", 0], "radius": 1.0},
        {"kind": "circle", "center": [float("nan"), 0.0], "radius": 1.0},
        {"kind": "circle", "center": [0.0, 0.0], "radius": float("inf")},
        {"kind": "circle", "center": [0.0, True], "radius": 1.0},
        {"kind": "circle", "center": [0.0, 0.0], "radius": "1.0"},
        {"kind": "weighted_circle", "center": [0.0, 0.0], "radius": 1.0, "fourier": 5},
        {"kind": "weighted_circle", "center": [0.0, 0.0], "radius": 1.0, "fourier": [[0.5, 1.0, 0.0]]},
        {"kind": "weighted_circle", "center": [0.0, 0.0], "radius": 1.0,
         "fourier": [[0, float("nan"), 0.0]]},
        {"kind": "atomic", "atoms": [[0.0, 0.0, float("inf")]]},
        {"kind": "atomic", "atoms": 3},
        {"kind": "sum", "terms": [[float("-inf"), {"kind": "atomic", "atoms": [[0.0, 0.0, 1.0]]}]]},
        {"kind": "sum", "terms": "x"},
    ],
)
def test_json_rejects_malformed_numbers(obj):
    with pytest.raises(MeasureFormatError):
        from_json(obj)
