"""Pivot-gated Cholesky, eigensolvers, companion roots."""

import numpy as np
import numpy.testing as npt
import pytest

from sobolevlab.numkernel import (
    ConvergenceFailure,
    NotPositiveDefinite,
    Overflow,
    cholesky,
    companion_roots,
    gen_eig_factored,
    herm_eig,
    inverse_lower,
    mirror_upper,
    nested_gen_eig,
    solve_lower,
)
from sobolevlab import numkernel
from sobolevlab.polynomials import evaluate

from oracles import counting_eigvalsh


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


def test_stacked_mirror_and_eigensolve_are_bitwise_each_matrix_alone():
    rng = np.random.default_rng(5)
    for n in (1, 2, 8, 33):
        a = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        mirrored = mirror_upper(a)
        lams, vecs = herm_eig(mirrored)
        assert lams.shape == (6, n) and vecs.shape == (6, n, n)
        for k in range(6):
            assert mirrored[k].tobytes() == mirror_upper(a[k]).tobytes()
            lam, vec = herm_eig(mirrored[k])
            assert lams[k].tobytes() == lam.tobytes() and vecs[k].tobytes() == vec.tobytes()
    for bad in (np.zeros((2, 3, 4)), np.zeros((2, 2, 3, 3)), np.zeros(3)):
        with pytest.raises(ValueError):
            mirror_upper(bad)
    with pytest.raises(ValueError):
        cholesky(np.eye(3)[None])  # a factorization takes one matrix


def test_require_finite_names_the_first_non_finite_matrix_of_a_stack():
    a = np.zeros((3, 5, 5), dtype=complex)
    assert numkernel.require_finite(a, ["a", "b", "c"]) is a
    a[2, 4, 0], a[1, 0, 3] = np.inf, np.nan
    # the size is the matrices' n = shape[-1], not the stack's k = shape[0]
    with pytest.raises(Overflow, match=r"^values of b at size 5 overflowed"):
        numkernel.require_finite(a, ["a", "b", "c"])
    with pytest.raises(Overflow, match=r"^values of c at size 5 overflowed"):
        numkernel.require_finite(a[[0, 2]], ("a", "c"))
    with pytest.raises(Overflow, match=r"^values of one at size 5 overflowed"):
        numkernel.require_finite(a[1], "one")


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


def _gen_eig(q, g, label=""):
    """Eigenvalues of the pencil (Q, G) over a fresh factor of G and its inverse."""
    return gen_eig_factored(q, inverse_lower(cholesky(g, label)), label)


def test_gen_eig_factored_frozen_diagonal():
    vals = _gen_eig(np.diag([1.0, 1.0]), np.diag([1.0, 4.0]))
    npt.assert_allclose(vals, [0.25, 1.0], rtol=1e-14)
    # pencil (G, G) is all ones
    rng = np.random.default_rng(8)
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    g = b @ b.conj().T + 5 * np.eye(5)
    npt.assert_allclose(_gen_eig(g, g), np.ones(5), rtol=1e-12)


def test_gen_eig_factored_rayleigh_bounds():
    rng = np.random.default_rng(21)
    n = 7
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = b @ b.conj().T + n * np.eye(n)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = c @ c.conj().T
    vals = _gen_eig(q, g)
    assert np.all(np.diff(vals) >= -1e-12)
    for _ in range(40):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ratio = np.vdot(v, q @ v).real / np.vdot(v, g @ v).real
        assert vals[0] - 1e-10 <= ratio <= vals[-1] + 1e-10


def test_gen_eig_factored_over_a_fresh_factor_propagates_pivot_failure():
    with pytest.raises(NotPositiveDefinite):
        _gen_eig(np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]))


EPS = np.finfo(float).eps


def _nested_hermitian(seed, k, lead):
    """Exactly Hermitian k x k matrix X X^* with ``lead`` added to its
    first diagonal entry: a large ``lead`` makes the top eigenvalue of the
    leading blocks plateau from size 1 on."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    b = mirror_upper(x @ x.conj().T)
    b[0, 0] += lead
    return b


def _tops(q, failing=()):
    """nested_gen_eig over the identity factor, and the sizes it solved;
    sizes in ``failing`` do not converge."""
    with pytest.MonkeyPatch.context() as mp:
        solved = counting_eigvalsh(mp, lambda a: a.shape[0] in failing)
        tops = nested_gen_eig(q, np.eye(q.shape[0], dtype=complex), None, "B")
    return tops, solved


@pytest.mark.parametrize("lead", [0.0, 1e3, 1e9, 1e12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nested_gen_eig_matches_a_solve_per_size(seed, lead):
    k = 40
    q = _nested_hermitian(seed, k, lead)
    tops, solved = _tops(q)
    assert len(tops) == k and len(set(solved)) == len(solved)
    for n, top in enumerate(tops, start=1):
        ref = np.linalg.eigvalsh(q[:n, :n])[-1]
        assert abs(top - ref) <= 8 * EPS * abs(ref)
    if lead >= 1e9:  # the plateau pins whole ranges: few sizes are solved
        assert len(solved) <= k // 2
    assert {1, k} <= set(solved)


def test_nested_gen_eig_fills_a_flat_sequence_from_its_two_ends():
    q = np.diag([5.0, 1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 0.5, 3.0]).astype(complex)
    tops, solved = _tops(q)
    assert tops == [5.0] * 9
    assert sorted(solved) == [1, 9]
    # ends 2 ulps apart pin the size between them to the upper end's value
    tops, solved = _tops(np.diag([1.0, 1.0 + EPS, 1.0 + 2 * EPS]).astype(complex))
    assert tops == [1.0, 1.0 + 2 * EPS, 1.0 + 2 * EPS]
    assert sorted(solved) == [1, 3]


def test_nested_gen_eig_keeps_a_failed_size_and_its_neighbours():
    # a failure at a solved end splits its range: the failed size holds its
    # ConvergenceFailure and every other size keeps its value
    q = np.diag([5.0, 1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 0.5, 3.0]).astype(complex)
    tops, solved = _tops(q, failing=(9,))
    assert isinstance(tops[8], ConvergenceFailure) and str(tops[8]) == "eigensolver failed to converge on B"
    assert tops[:8] == [5.0] * 8
    assert 8 in solved
    # on a sequence that never settles every size is solved
    q = _nested_hermitian(3, 12, 0.0)
    clean, _ = _tops(q)
    tops, solved = _tops(q, failing=(5,))
    assert isinstance(tops[4], ConvergenceFailure)
    assert tops[:4] + tops[5:] == clean[:4] + clean[5:]
    assert sorted(solved) == list(range(1, 13))


def test_nested_gen_eig_does_not_solve_an_interlaced_size():
    # size 5 lies inside the pinned range [1, 9]: its solve is never asked for
    q = np.diag([5.0, 1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 0.5, 3.0]).astype(complex)
    tops, solved = _tops(q, failing=(5,))
    assert tops == [5.0] * 9 and 5 not in solved


def test_nested_gen_eig_gives_failure_beyond_the_factor():
    failure = NotPositiveDefinite(3, "G")
    q = _nested_hermitian(4, 5, 0.0)
    tops = nested_gen_eig(q, np.eye(3, dtype=complex), failure, "G")
    assert tops[3:] == [failure, failure]
    for n in (1, 2, 3):
        assert abs(tops[n - 1] - np.linalg.eigvalsh(q[:n, :n])[-1]) <= 8 * EPS * tops[n - 1]
    assert nested_gen_eig(q, np.zeros((0, 0), dtype=complex), failure) == [failure] * 5


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
