"""Pivot-gated Cholesky, eigensolvers, companion roots."""

import numpy as np
import numpy.testing as npt
import pytest

from sobolevlab.numkernel import (
    NotPositiveDefinite,
    Overflow,
    cholesky,
    companion_roots,
    gen_eig_definite,
    herm_eig,
    mirror_upper,
    solve_lower,
)
from sobolevlab import numkernel
from sobolevlab.polynomials import evaluate


@pytest.mark.parametrize("n", [1, 2, 7, 65])
def test_mirror_upper_is_the_conjugate_mirror_on_shared_indices(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    before = a.copy()
    out = mirror_upper(a)
    npt.assert_array_equal(a, before)
    for i in range(n):
        assert out[i, i] == a[i, i].real
        for j in range(i + 1, n):
            assert out[i, j] == a[i, j] and out[j, i] == np.conj(a[i, j])
    lower, diag = numkernel._mirror_indices(n)
    assert numkernel._mirror_indices(n)[0] is lower
    with pytest.raises(ValueError, match="read-only"):
        lower[0][...] = 0


def test_cholesky_frozen_2x2():
    lower = cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
    expected = np.array([[np.sqrt(2.0), 0.0], [1.0 / np.sqrt(2.0), np.sqrt(1.5)]])
    npt.assert_allclose(lower, expected, rtol=1e-15)


def test_cholesky_identity_and_diagonal():
    npt.assert_array_equal(cholesky(np.eye(4)), np.eye(4))
    npt.assert_array_equal(cholesky(np.diag([1.0, 4.0, 9.0])), np.diag([1.0, 2.0, 3.0]))


def test_cholesky_reconstruction_random_hpd():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 12, 30):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = b @ b.conj().T + n * np.eye(n)
        lower = cholesky(g)
        assert np.all(np.tril(lower) == lower)
        assert np.all(lower.diagonal().real > 0) and np.all(lower.diagonal().imag == 0)
        npt.assert_allclose(lower @ lower.conj().T, g, atol=1e-11 * np.linalg.norm(g))


def test_cholesky_failure_reports_first_bad_pivot():
    with pytest.raises(NotPositiveDefinite) as info:
        cholesky(np.array([[1.0, 3.0], [3.0, 9.0]]), label="rank-one")
    assert info.value.index == 1
    assert "rank-one" in str(info.value)
    with pytest.raises(NotPositiveDefinite) as info:
        cholesky(np.array([[-1.0]]))
    assert info.value.index == 0
    with pytest.raises(NotPositiveDefinite) as info:
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    assert info.value.index == 1


def test_cholesky_accepts_graded_diagonals():
    # dynamic range ~1e18 across the diagonal but every column is fine
    g = np.diag(4.0 ** np.arange(0.0, 31.0))
    lower = cholesky(g)
    npt.assert_allclose(lower, np.diag(2.0 ** np.arange(0.0, 31.0)), rtol=1e-15)
    g2 = np.diag(4.0 ** np.arange(30.0, -1.0, -1.0))
    assert cholesky(g2)[-1, -1] == 1.0


def test_cholesky_rejects_nonsquare():
    with pytest.raises(ValueError):
        cholesky(np.ones((2, 3)))


@pytest.mark.parametrize("n", [1, 8, 65])
def test_solve_lower_matches_the_scipy_reference(n):
    import scipy.linalg  # the triangular solver the package used before, kept as the reference

    rng = np.random.default_rng(n)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lower = cholesky(b @ b.conj().T + n * np.eye(n))  # condition number below 10
    for rhs in (rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.standard_normal((n, 3)) + 0j):
        got = solve_lower(lower, rhs)
        ref = scipy.linalg.solve_triangular(lower, rhs, lower=True)
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_lower_rejects_non_finite_inputs(bad):
    lower, rhs = np.eye(3, dtype=complex), np.ones((3, 2), dtype=complex)
    lower[2, 1] = bad
    with pytest.raises(Overflow, match="triangular factor"):
        solve_lower(lower, rhs)
    rhs[1, 0] = bad
    with pytest.raises(Overflow, match="right-hand side"):
        solve_lower(np.eye(3), rhs)
    with pytest.raises(ValueError):
        solve_lower(np.eye(3), np.ones(2))


def test_herm_eig_ascending_and_reconstructs():
    vals, _ = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    npt.assert_allclose(vals, [-1.0, 1.0], atol=1e-15)
    a = np.array([[2.0, 1.0j], [-1.0j, 3.0]])
    vals, vecs = herm_eig(a)
    assert vals[0] <= vals[1]
    rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
    npt.assert_allclose(rebuilt, a, atol=1e-12)


def test_gen_eig_definite_frozen_diagonal():
    vals = gen_eig_definite(np.diag([1.0, 1.0]), np.diag([1.0, 4.0]))
    npt.assert_allclose(vals, [0.25, 1.0], rtol=1e-14)
    # pencil (G, G) is all ones
    rng = np.random.default_rng(8)
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    g = b @ b.conj().T + 5 * np.eye(5)
    npt.assert_allclose(gen_eig_definite(g, g), np.ones(5), rtol=1e-12)


def test_gen_eig_definite_rayleigh_bounds():
    rng = np.random.default_rng(21)
    n = 7
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = b @ b.conj().T + n * np.eye(n)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = c @ c.conj().T
    vals = gen_eig_definite(q, g)
    assert np.all(np.diff(vals) >= -1e-12)
    for _ in range(40):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ratio = np.vdot(v, q @ v).real / np.vdot(v, g @ v).real
        assert vals[0] - 1e-10 <= ratio <= vals[-1] + 1e-10


def test_gen_eig_definite_propagates_pivot_failure():
    with pytest.raises(NotPositiveDefinite):
        gen_eig_definite(np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_companion_roots_frozen():
    # z^2 - (1+i) z + i = (z - 1)(z - i)
    roots = companion_roots([1.0j, -(1.0 + 1.0j), 1.0])
    npt.assert_allclose(roots, [1.0j, 1.0], atol=1e-12)  # sorted by (re, im)
    npt.assert_allclose(companion_roots([0.0, 0.0, 0.0, 2.0]), np.zeros(3), atol=1e-12)
    npt.assert_allclose(companion_roots([-4.0, 0.0, 1.0]), [-2.0, 2.0], atol=1e-12)


def test_companion_roots_rejects_constants():
    with pytest.raises(ValueError):
        companion_roots([3.0])
    with pytest.raises(ValueError):
        companion_roots([])


def test_companion_roots_residuals_random():
    rng = np.random.default_rng(13)
    for deg in (1, 2, 5, 12, 20):
        v = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        roots = companion_roots(v)
        assert len(roots) == deg
        scale = np.abs(v).max()
        for z in roots:
            assert abs(evaluate(v, z)) <= 1e-8 * scale * (1.0 + abs(z)) ** deg


def test_companion_roots_ordering_is_deterministic():
    v = np.array([6.0, -11.0, 6.0, -1.0])  # roots 1, 2, 3
    npt.assert_allclose(companion_roots(v), [1.0, 2.0, 3.0], atol=1e-10)
    a = companion_roots([1.0, 0.0, 0.0, 0.0, 1.0])  # quartic roots of -1
    b = companion_roots([1.0, 0.0, 0.0, 0.0, 1.0])
    npt.assert_array_equal(a, b)
