"""Moment-matrix sections, derivative conjugation, Toeplitz detection."""

import numpy as np
import numpy.testing as npt
import pytest

from sobolevlab import momentmatrix as mm
from sobolevlab.measures import Atomic, CircleLebesgue, WeightedCircle, moment
from sobolevlab.numkernel import Overflow
from sobolevlab.polynomials import differentiate, random_coeffs

UNIT = CircleLebesgue(0.0, 1.0)
HALF = CircleLebesgue(0.0, 0.5)
SHIFTED = CircleLebesgue(1.0 + 1.0j, 2.0)
W04 = WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.4), (-1, 0.4)))


def test_identity_section():
    npt.assert_array_equal(mm.section(mm.of_measure(UNIT), 3), np.eye(3, dtype=complex))


def test_half_radius_section_is_graded_diagonal():
    got = mm.section(mm.of_measure(HALF), 4)
    npt.assert_array_equal(got, np.diag([1.0, 0.25, 0.0625, 0.25**3]).astype(complex))


def test_atomic_section_rank_one():
    got = mm.section(mm.of_measure(Atomic(((2.0, 1.0),))), 2)
    npt.assert_array_equal(got, np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex))


def test_section_is_exactly_hermitian_and_cached_copy():
    m = mm.of_measure(SHIFTED)
    a = mm.section(m, 8)
    npt.assert_array_equal(a, a.conj().T)
    assert np.all(a.diagonal().imag == 0.0)
    a[0, 0] = 99.0  # mutating the returned array must not poison the cache
    assert mm.section(m, 8)[0, 0] == 1.0
    # leading-submatrix consistency across sizes
    npt.assert_array_equal(mm.section(m, 8)[:5, :5], mm.section(m, 5))
    with pytest.raises(ValueError):
        mm.section(m, 0)


def test_zero_matrix():
    npt.assert_array_equal(mm.section(mm.zero_matrix(), 4), np.zeros((4, 4)))


def test_of_measure_label_is_measure_json():
    assert mm.of_measure(UNIT).label == '{"kind":"circle","center":[0.0,0.0],"radius":1.0}'


def test_toeplitz_rule_sections_and_negative_fallback():
    t = mm.toeplitz_rule({0: 2.0, 1: 0.5 + 0.25j})
    a = mm.section(t, 3)
    expected = np.array(
        [
            [2.0, 0.5 + 0.25j, 0.0],
            [0.5 - 0.25j, 2.0, 0.5 + 0.25j],
            [0.0, 0.5 - 0.25j, 2.0],
        ]
    )
    npt.assert_array_equal(a, expected)
    # explicit negative frequency wins over the conjugate fallback
    t2 = mm.section(mm.toeplitz_rule({1: 1.0j, -1: -1.0j}), 2)
    assert t2[0, 1] == 1.0j and t2[1, 0] == -1.0j


def test_derivative_conjugate_identity_measure():
    b = mm.derivative_conjugate(mm.of_measure(UNIT))
    npt.assert_array_equal(mm.section(b, 4), np.diag([0.0, 1.0, 4.0, 9.0]).astype(complex))
    assert b.label.startswith("dconj(")


@pytest.mark.parametrize("mu", [UNIT, HALF, SHIFTED, W04])
def test_derivative_conjugate_computes_derivative_norm(mu):
    m1 = mm.of_measure(mu)
    b = mm.section(mm.derivative_conjugate(m1), 9)
    a1 = mm.section(m1, 9)
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = random_coeffs(rng, int(rng.integers(0, 9)))
        lhs = mm.norm_sq(b, v)
        rhs = mm.norm_sq(a1, differentiate(v))
        assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))


def test_delete_first_shifts_indices():
    d = mm.delete_first(mm.of_measure(HALF))
    npt.assert_array_equal(mm.section(d, 3), np.diag([0.25, 0.0625, 0.25**3]).astype(complex))
    assert mm.section(mm.delete_first(mm.of_measure(UNIT)), 5)[0, 0] == 1.0


def test_is_toeplitz():
    assert mm.is_toeplitz(mm.of_measure(UNIT), 8)
    assert mm.is_toeplitz(mm.of_measure(W04), 8)
    assert not mm.is_toeplitz(mm.of_measure(HALF), 8)
    assert not mm.is_toeplitz(mm.of_measure(SHIFTED), 6)
    with pytest.raises(ValueError):
        mm.is_toeplitz(mm.of_measure(UNIT), 1)


def test_inner_product_row_convention_and_padding():
    a = mm.section(mm.of_measure(W04), 4)
    v = np.array([1.0, 2.0j])
    w = np.array([0.5, 0.0, 1.0 - 1.0j])
    manual = 0.0 + 0.0j
    for i in range(2):
        for j in range(3):
            manual += v[i] * a[i, j] * np.conj(w[j])
    got = mm.inner_product(a, v, w)
    assert abs(got - manual) <= 1e-14 * (1 + abs(manual))
    # <p, q> = conj(<q, p>)
    assert abs(mm.inner_product(a, w, v) - np.conj(got)) <= 1e-14
    with pytest.raises(ValueError):
        mm.inner_product(a, np.ones(5), v)


def test_norm_sq_real_and_consistent_with_moments():
    # ||1 + z||^2 against the 0.4-cosine weight: c00 + c01 + c10 + c11 = 2.8
    a = mm.section(mm.of_measure(W04), 2)
    val = mm.norm_sq(a, [1.0, 1.0])
    assert isinstance(val, float)
    assert abs(val - 2.8) <= 1e-14
    assert mm.norm_sq(a, []) == 0.0


def test_norm_sq_matches_quadrature_of_abs_square():
    mu = SHIFTED
    a = mm.section(mm.of_measure(mu), 6)
    rng = np.random.default_rng(11)
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    z = mu.center + mu.radius * np.exp(1j * theta)
    for _ in range(10):
        v = random_coeffs(rng, 5)
        vals = np.polynomial.polynomial.polyval(z, v)
        quad = float(np.mean(np.abs(vals) ** 2))
        assert abs(mm.norm_sq(a, v) - quad) <= 1e-9 * (1 + quad)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warning
def test_overflowing_section_is_a_numeric_error():
    m = mm.of_measure(CircleLebesgue(0.0, 1e100))
    mm.section(m, 2)  # entry (2, 2) = r^4 = 1e400 first appears at size 3
    with pytest.raises(Overflow, match=r'"radius":1e\+100\} at size 3 overflowed'):
        mm.section(m, 3)
    assert m._largest.shape == (2, 2)  # the overflowed section is not kept


def test_moment_matrix_entries_match_measure_moments():
    a = mm.section(mm.of_measure(SHIFTED), 5)
    for i in range(5):
        for j in range(5):
            assert a[i, j] == moment(SHIFTED, i, j)


@pytest.mark.parametrize("mu", [UNIT, SHIFTED, W04, Atomic(((2.0, 1.0), (0.5j, 0.5)))])
def test_grow_only_cache_does_not_change_sections(mu):
    direct = mm.section(mm.of_measure(mu), 40)
    m = mm.of_measure(mu)
    mm.section(m, 12)
    big = mm.section(m, 64)
    assert m._largest.shape == (64, 64)  # one array: the largest section built
    npt.assert_array_equal(mm.section(m, 40), direct)
    npt.assert_array_equal(big[:40, :40], direct)
