"""Coefficient-vector helpers."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sobolevlab.polynomials import (
    as_coeffs,
    differentiate,
    evaluate,
    random_coeffs,
    vandermonde,
)

from oracles import recenter


def test_as_coeffs_trims_trailing_zeros_only():
    npt.assert_array_equal(as_coeffs([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 1.0]))
    npt.assert_array_equal(as_coeffs([0.0, 0.0]), np.zeros(0, dtype=complex))
    c = as_coeffs([1e-300, 0.0, 1e-300])
    assert len(c) == 3  # tiny is not zero
    with pytest.raises(ValueError):
        as_coeffs([[1.0, 2.0]])


def test_differentiate_monomials():
    # d/dz z^4 = 4 z^3
    npt.assert_array_equal(differentiate([0, 0, 0, 0, 1]), np.array([0, 0, 0, 4.0]))
    npt.assert_array_equal(differentiate([7.0]), np.zeros(0))
    npt.assert_array_equal(differentiate([]), np.zeros(0))
    npt.assert_array_equal(differentiate([1, 2, 3]), np.array([2.0, 6.0]))


def test_evaluate_against_direct_powers():
    v = np.array([1.0, -2.0, 0.5j])
    for z in [0.0, 1.0, 0.5 - 0.25j]:
        direct = v[0] + v[1] * z + v[2] * z * z
        assert abs(evaluate(v, z) - direct) <= 1e-14 * (1 + abs(direct))
    assert evaluate([], 3.0) == 0.0


def test_evaluate_is_bitwise_polyval():
    rng = np.random.default_rng(5)
    for case in range(3000):
        deg = int(rng.integers(0, 25))
        v = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        z = [
            complex(rng.standard_normal(), rng.standard_normal()),
            float(rng.standard_normal()),
            2.0 * (rng.standard_normal(7) + 1j * rng.standard_normal(7)),
            [complex(x) for x in rng.standard_normal(3)],
        ][case % 4]
        got, ref = evaluate(v, z), np.polynomial.polynomial.polyval(z, as_coeffs(v))
        assert type(got) is type(ref)
        assert np.asarray(got).dtype == np.asarray(ref).dtype
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def test_recenter_frozen_example():
    # p(z) = z^2 about a=1: (z-1)^2 + 2(z-1) + 1
    npt.assert_allclose(recenter([0, 0, 1], 1.0), np.array([1.0, 2.0, 1.0]))
    # constant term is p(a)
    v = np.array([2.0, -1.0, 3.0j])
    a = 0.7 - 0.2j
    assert abs(recenter(v, a)[0] - evaluate(v, a)) <= 1e-13


@settings(max_examples=80, deadline=None)
@seed(20260814)
@given(
    coeffs=hnp.arrays(
        np.complex128,
        st.integers(1, 12),
        elements=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    ),
    re=st.floats(-1.5, 1.5),
    im=st.floats(-1.5, 1.5),
)
def test_recenter_round_trip_and_evaluation(coeffs, re, im):
    a = complex(re, im)
    b = recenter(coeffs, a)
    # shifting back must recover the original (degrees may differ by trimming)
    back = recenter(b, -a)
    c = as_coeffs(coeffs)
    npt.assert_allclose(back[: len(c)], c, atol=1e-9 * (1 + np.abs(c).max(initial=0.0)))
    # evaluation identity p(z) = sum b_k (z - a)^k at a test point
    z = 0.4 + 0.3j
    shifted_val = evaluate(b, z - a)
    assert abs(shifted_val - evaluate(coeffs, z)) <= 1e-9 * (1 + abs(shifted_val))


def test_random_coeffs_exact_degree_and_determinism():
    rng = np.random.default_rng(5)
    v = random_coeffs(rng, 7)
    assert len(v) == 8 and v[-1] != 0
    assert len(random_coeffs(rng, -1)) == 0
    w1 = random_coeffs(np.random.default_rng(42), 5)
    w2 = random_coeffs(np.random.default_rng(42), 5)
    npt.assert_array_equal(w1, w2)


def test_vandermonde_rows_nest_at_every_size():
    # numpy's cumprod squares a complex point differently over two rows
    # alone; n = 3 must still be the leading rows of every larger size
    rng = np.random.default_rng(3)
    points = rng.uniform(-2.0, 2.0, size=2000) + 1j * rng.uniform(-2.0, 2.0, size=2000)
    largest = vandermonde(points, 65)
    for n in range(1, 66):
        assert vandermonde(points, n).tobytes() == largest[:n].tobytes()


def test_vandermonde_warns_of_no_power_it_does_not_return():
    # p**2 = 1e240 is finite, p**3 overflows: n = 3 computes it and drops it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vandermonde(1e120 + 0j, 2)[:, 0].tolist() == [1.0, 1e120]
        assert vandermonde(1e120 + 0j, 3)[:, 0].tolist() == [1.0, 1e120, 1e240]
        assert vandermonde([1e120, -2.0], 3).tolist() == [[1.0, 1.0], [1e120, -2.0], [1e240, 4.0]]


@pytest.mark.parametrize("points", [1e200 + 0j, [1e200 + 0j, -2.0 + 0j], 1e200, [1e200, -2.0]])
def test_vandermonde_warns_of_an_overflowing_square_at_n_3(points):
    # the square is returned, so its overflow is warned about as at n = 4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v = vandermonde(points, 3)
    assert [str(w.message) for w in caught] == ["overflow encountered in multiply"]
    assert np.isinf(v[2, 0].real) and v[1, 0] == 1e200


def test_vandermonde_of_one_point_is_its_column_of_many():
    # a single point takes the 1-D cumprod path
    rng = np.random.default_rng(5)
    complex_points = rng.uniform(-2.0, 2.0, size=200) + 1j * rng.uniform(-2.0, 2.0, size=200)
    complex_points.imag[::4] = -0.0
    for points in (complex_points, rng.uniform(0.25, 4.0, size=100)):
        for n in range(1, 66):
            many = vandermonde(points, n)
            for j, p in enumerate(points):
                one = vandermonde(p, n)
                assert one.shape == (n, 1) and one.dtype == points.dtype
                assert one[:, 0].tobytes() == many[:, j].tobytes()
