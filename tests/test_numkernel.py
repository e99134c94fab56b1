"""Pivot-gated Cholesky, eigensolvers, companion roots."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from sobolevlab.numkernel import (
    ConvergenceFailure,
    NotPositiveDefinite,
    Overflow,
    cholesky,
    companion_roots,
    herm_eig,
    mirror_upper,
    nested_gen_eig,
    solve_lower,
)
from sobolevlab import numkernel
from sobolevlab.polynomials import evaluate

from oracles import cholesky_rows, counting_eigvalsh, reduced_eigvals, substitute_rows


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


def _zeros(rng, shape) -> np.ndarray:
    """Complex zeros whose real and imaginary parts have random signs."""
    z = np.zeros(shape, dtype=complex)
    z.real, z.imag = rng.choice([0.0, -0.0], shape), rng.choice([0.0, -0.0], shape)
    return z


def _with_zeros_below(rng, a) -> np.ndarray:
    """A copy of ``a`` with random signed zeros strictly below its diagonal."""
    out = np.array(a, dtype=complex)
    below = np.tril_indices(out.shape[0], -1)
    out[below] = _zeros(rng, len(below[0]))
    return out


def _factor_outcome(factorize, a):
    """The factor's bytes, or the failure's index, label and ``lower`` bytes."""
    try:
        return factorize(a, "D").tobytes()
    except NotPositiveDefinite as exc:
        return exc.index, exc.label, exc.lower.shape, exc.lower.tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_cholesky_of_a_diagonal_section_is_the_row_loops_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    d = 10.0 ** rng.uniform(-300.0, 300.0, 40)
    mirrored = mirror_upper(np.diag(d))
    lower = cholesky(mirrored)
    assert lower.tobytes() == cholesky_rows(mirrored).tobytes()
    # the mirror leaves 0 - 0j below the diagonal, and so does the loop's a[i, k] / l_k
    below = np.tril_indices(40, -1)
    assert not np.signbit(lower[below].real).any() and np.signbit(lower[below].imag).all()
    for a in (np.diag(d), np.diag(d).astype(complex) + 1j * np.diag(d), _with_zeros_below(rng, np.diag(d))):
        assert cholesky(a).tobytes() == cholesky_rows(a).tobytes()


@pytest.mark.parametrize("seed", range(30))
def test_cholesky_of_a_diagonal_fails_where_the_row_loop_does(seed):
    # magnitudes 1e-300..1e300 with a few zeros, negative zeros, negative
    # and NaN entries: the same failure index and leading factor, or the
    # same factor, bit for bit
    rng = np.random.default_rng(seed)
    d = 10.0 ** rng.uniform(-300.0, 300.0, 24)
    d[rng.choice(24, 3, replace=False)] = rng.choice([0.0, -0.0, -1.0, -1e-300, np.nan, 5e-324], 3)
    for a in (mirror_upper(np.diag(d)), _with_zeros_below(rng, np.diag(d))):
        assert _factor_outcome(cholesky, a) == _factor_outcome(cholesky_rows, a)


@pytest.mark.parametrize("below", [0.0, 0.5], ids=["diagonal", "row-loop"])
def test_cholesky_fails_at_a_nan_pivot_with_the_factor_before_it(below):
    a = np.diag([4.0, np.nan, 1.0, -1.0]).astype(complex)
    a[3, 0] = below
    with pytest.raises(NotPositiveDefinite) as info:
        cholesky(a)
    assert info.value.index == 1
    assert info.value.lower.tobytes() == np.array([[2.0 + 0j]]).tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_solve_lower_by_a_diagonal_factor_is_the_substitutions_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n = 30
    factor = cholesky(mirror_upper(np.diag(10.0 ** rng.uniform(-150.0, 150.0, n))))
    vector = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    matrix = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    vector[::3], matrix[::3] = _zeros(rng, len(vector[::3])), _zeros(rng, matrix[::3].shape)
    for lower in (factor, _with_zeros_below(rng, factor), factor.diagonal().real * np.eye(n)):
        for b in (vector, matrix, vector.real, np.eye(n)):
            got = solve_lower(lower, b)
            assert got.dtype == substitute_rows(lower, b).dtype and got.flags.c_contiguous
            assert got.tobytes() == substitute_rows(lower, b).tobytes()
    flipped = substitute_rows(factor[::-1, ::-1].T, np.eye(n))  # inverse_lower's solve, by rows
    assert numkernel.inverse_lower(factor).tobytes() == flipped[::-1, ::-1].T.tobytes()


def test_solve_lower_past_an_infinite_quotient_makes_the_substitutions_nan_rows():
    lower = np.diag([1.0, 1e-300, 1.0, 2.0]).astype(complex)
    for b in (np.array([1.0, 1e10, 3.0, -0.0]), np.array([[1.0, 0.0], [1e10, 1.0], [3.0, 0.0], [4.0, -0.0]])):
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = solve_lower(lower, b), substitute_rows(lower, b)
        assert got.tobytes() == ref.tobytes()
        assert np.isinf(got[1]).any() and np.isnan(got[2:]).any()


def test_reduced_matrix_near_the_double_range_stays_finite():
    # halving before the sum: W Q W^* with an entry of 1e308 is symmetrized
    # without overflow, so no size sees an infinite entry
    q = np.diag(np.arange(1.0, 10.0)).astype(complex)
    q[6, 6] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tops = nested_gen_eig(q, np.eye(9, dtype=complex), "B")
    assert tops == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1e308, 1e308, 1e308]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [numkernel.gen_eig_top, nested_gen_eig])
def test_reduced_matrix_past_the_double_range_is_an_overflow(solve):
    # W Q W^* = diag(1e400), without a numpy warning
    with pytest.raises(Overflow, match="values of B at size 3 overflowed the double range"):
        solve(np.eye(3, dtype=complex), np.diag([1.0, 1e200, 1.0]).astype(complex), "B")


def test_herm_eig_ascending_and_reconstructs():
    vals, _ = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    npt.assert_allclose(vals, [-1.0, 1.0], atol=1e-15)
    a = np.array([[2.0, 1.0j], [-1.0j, 3.0]])
    vals, vecs = herm_eig(a)
    assert vals[0] <= vals[1]
    rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
    npt.assert_allclose(rebuilt, a, atol=1e-12)


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


def _tops(q, failing=(), both_ends=False):
    """nested_gen_eig over the identity factor, and the sizes it solved;
    sizes in ``failing`` do not converge.  With ``both_ends``, the result
    is the pair (bottoms, tops)."""
    with pytest.MonkeyPatch.context() as mp:
        solved = counting_eigvalsh(mp, lambda a: a.shape[0] in failing)
        tops = nested_gen_eig(q, np.eye(q.shape[0], dtype=complex), "B", both_ends=both_ends)
    return tops, solved


def _flat():
    """A sequence of tops that is 5 at every size, with one pair of entries
    off the diagonal so that the sizes go through the bisection."""
    q = np.diag([5.0, 1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 0.5, 3.0]).astype(complex)
    q[7, 8] = q[8, 7] = 0.25
    return q


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
    tops, solved = _tops(_flat())
    assert tops == [5.0] * 9
    assert sorted(solved) == [1, 9]
    # ends 2 ulps apart pin the size between them to the upper end's value
    q = np.diag([1.0, 1.0 + EPS, 1.0 + 2 * EPS]).astype(complex)
    q[1, 2] = q[2, 1] = 1e-300
    tops, solved = _tops(q)
    assert tops == [1.0, 1.0 + 2 * EPS, 1.0 + 2 * EPS]
    assert sorted(solved) == [1, 3]


def _raised(q, failing, both_ends=False):
    """The ConvergenceFailure that nested_gen_eig over the identity factor
    raises when the sizes in ``failing`` do not converge, and the sizes it
    solved up to it."""
    with pytest.MonkeyPatch.context() as mp:
        solved = counting_eigvalsh(mp, lambda a: a.shape[0] in failing)
        with pytest.raises(ConvergenceFailure) as info:
            nested_gen_eig(q, np.eye(q.shape[0], dtype=complex), "B", both_ends=both_ends)
    return info.value, solved


@pytest.mark.parametrize("both_ends", [False, True])
def test_nested_gen_eig_raises_a_failed_solve(both_ends):
    # a failed solve stops the sequence: it raises under the label, and no
    # size is solved after it
    failure, solved = _raised(_flat(), (9,), both_ends)
    assert str(failure) == "eigensolver failed to converge on B"
    assert solved[-1] == 9
    # on a sequence that never settles, the failed size is reached once, last
    q = _nested_hermitian(3, 12, 0.0)
    _, solved = _raised(q, (5,), both_ends)
    assert solved[-1] == 5 and solved.count(5) == 1


def test_nested_gen_eig_does_not_solve_an_interlaced_size():
    # size 5 lies inside the pinned range [1, 9]: its solve is never asked for
    tops, solved = _tops(_flat(), failing=(5,))
    assert tops == [5.0] * 9 and 5 not in solved


@pytest.mark.parametrize("both_ends", [False, True])
def test_nested_gen_eig_covers_the_sizes_of_its_factor(both_ends):
    # a 3 x 3 factor of a broken-down G gives the sizes 1..3 of a 5 x 5 Q
    # and nothing past them; an empty factor gives no size
    q = _nested_hermitian(4, 5, 0.0)
    got = nested_gen_eig(q, np.eye(3, dtype=complex), "G", both_ends=both_ends)
    bottoms, tops = got if both_ends else (None, got)
    assert len(tops) == 3 and all(type(top) is float for top in tops)
    for n in (1, 2, 3):
        ref = np.linalg.eigvalsh(q[:n, :n])
        assert abs(tops[n - 1] - ref[-1]) <= 8 * EPS * abs(ref[-1])
        if both_ends:
            assert abs(bottoms[n - 1] - ref[0]) <= 8 * EPS * abs(ref[-1])
    assert nested_gen_eig(q, np.zeros((0, 0), dtype=complex), both_ends=both_ends) == (([], []) if both_ends else [])


@pytest.mark.parametrize("lead", [0.0, 1e3, 1e9, 1e12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nested_gen_eig_reads_both_ends_off_one_solve_per_size(seed, lead):
    # each solved size gives LAPACK's bottom and top bit for bit, a filled
    # size the upper end's pair, within 4 eps of its own; no size is solved twice
    k = 40
    q = _nested_hermitian(seed, k, lead)
    (bottoms, tops), solved = _tops(q, both_ends=True)
    assert len(bottoms) == len(tops) == k and len(set(solved)) == len(solved)
    for n, bottom, top in zip(range(1, k + 1), bottoms, tops):
        ref = np.linalg.eigvalsh(q[:n, :n])
        if n in solved:
            assert (bottom, top) == (ref[0], ref[-1])
        assert abs(bottom - ref[0]) <= 8 * EPS * abs(ref[-1]) and abs(top - ref[-1]) <= 8 * EPS * abs(ref[-1])
    assert all(later <= earlier for earlier, later in zip(bottoms, bottoms[1:]))
    # the tops alone pin more ranges, so they solve a subset of the sizes
    assert set(_tops(q)[1]) <= set(solved)


def _random_diagonal(seed, k, lo, hi):
    """k x k diagonal matrix with entries of random sign and magnitudes
    10**u, u uniform on [lo, hi]."""
    rng = np.random.default_rng(seed)
    return np.diag(rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(lo, hi, k)).astype(complex)


def _bits(values):
    return [v.hex() if isinstance(v, float) else repr(v) for v in values]


def _read_off_the_diagonal(q):
    """(bottoms, tops) of nested_gen_eig over the identity factor, the
    tops without ``both_ends`` and gen_eig_top, each bitwise as the others
    give it; no size is solved."""
    (bottoms, tops), solved = _tops(q, both_ends=True)
    alone, solved_alone = _tops(q)
    with pytest.MonkeyPatch.context() as mp:
        solved_top = counting_eigvalsh(mp)
        top = numkernel.gen_eig_top(q, np.eye(q.shape[0], dtype=complex), "B")
    assert solved == solved_alone == solved_top == []
    assert _bits(alone) == _bits(tops) and top.hex() == tops[-1].hex()
    return bottoms, tops


@pytest.mark.parametrize("seed", range(25))
def test_nested_gen_eig_reads_a_diagonal_in_the_window_off_its_diagonal(seed):
    # magnitudes 1e-145..1e145, where zheevd does not rescale: every size's
    # bottom and top are a per-size LAPACK solve's, bit for bit
    k = 48
    q = _random_diagonal(seed, k, -145.0, 145.0)
    bottoms, tops = _read_off_the_diagonal(q)
    solves = [np.linalg.eigvalsh(q[:n, :n]) for n in range(1, k + 1)]
    assert _bits(bottoms) == _bits([float(w[0]) for w in solves])
    assert _bits(tops) == _bits([float(w[-1]) for w in solves])


def _any_diagonal():
    """Diagonal matrices with entries outside zheevd's unscaled window
    (about 1e-146 to 1e146), zeros, or an end that moves at every size."""
    rng = np.random.default_rng(5)
    signs = lambda k: rng.choice([-1.0, 1.0], k)
    cases = {f"1e-300..1e300 seed {seed}": _random_diagonal(seed, 40, -300.0, 300.0) for seed in range(10)}
    for name, lo, hi in (("below 1e-146", -300.0, -146.5), ("above 1e146", 146.5, 300.0)):
        d = np.concatenate([signs(12) * 10.0 ** rng.uniform(lo, hi, 12), signs(28) * 10.0 ** rng.uniform(-5, 5, 28)])
        cases[f"leading block {name}"] = np.diag(d).astype(complex)
    cases["signed zeros"] = np.diag(signs(16) * 0.0).astype(complex)
    d = signs(16) * 10.0 ** rng.uniform(-5, 5, 16)
    d[rng.choice(16, 5, replace=False)] = [0.0, -0.0, 0.0, -0.0, 0.0]
    cases["zeros among entries"] = np.diag(d).astype(complex)
    cases["an end moves at each size"] = np.diag(1e200 * np.array([(-1.0) ** n * (n + 1) for n in range(16)]) + 0j)
    cases["ends within 4 eps"] = np.diag([1.0, 1.0 + EPS, 1.0 + 2 * EPS]).astype(complex)
    return cases


@pytest.mark.parametrize("name", sorted(_any_diagonal()))
def test_nested_gen_eig_reads_any_diagonal_off_its_diagonal(monkeypatch, name):
    # at any magnitude, zeros and signed zeros included, each size's bottom
    # and top are the running minimum and maximum of the diagonal, bit for
    # bit; B is Q as it is (the product by the identity factor would turn
    # -0 into +0)
    monkeypatch.setattr(numkernel, "_reduce", lambda q, inverse, label: q)
    q = _any_diagonal()[name]
    bottoms, tops = _read_off_the_diagonal(q)
    d = q.diagonal().real
    assert _bits(bottoms) == _bits(np.minimum.accumulate(d).tolist())
    assert _bits(tops) == _bits(np.maximum.accumulate(d).tolist())


@pytest.mark.parametrize("below", [-0.0, 1e-300, 2.0, 8.0])
@pytest.mark.parametrize("name", ["cholesky", "solve_lower", "nested_gen_eig", "gen_eig_top"])
def test_only_a_nonzero_entry_below_the_diagonal_runs_the_general_path(monkeypatch, name, below):
    # diag(4, 9, 16) with one entry below its diagonal: each result is
    # bitwise the row loop's, the substitution's or the per-size solves',
    # failures included; a signed zero keeps the diagonal reading, and any
    # nonzero entry, however small, solves
    a = np.diag([4.0, 9.0, 16.0]).astype(complex)
    a[2, 0] = below
    eye = np.eye(3, dtype=complex)
    run, general = {  # each called as (a, label), as _factor_outcome calls them
        "cholesky": (cholesky, cholesky_rows),
        "solve_lower": (lambda a, _: solve_lower(a, np.ones(3)), lambda a, _: substitute_rows(a, np.ones(3))),
        "nested_gen_eig": (
            lambda a, label: np.array(nested_gen_eig(a, eye, label)),
            lambda a, _: np.array([reduced_eigvals(a[:n, :n], eye[:n, :n])[-1] for n in (1, 2, 3)]),
        ),
        "gen_eig_top": (lambda a, label: np.array(numkernel.gen_eig_top(a, eye, label)),
                        lambda a, _: reduced_eigvals(a, eye)[-1]),
    }[name]
    solved = counting_eigvalsh(monkeypatch)
    got = _factor_outcome(run, a)
    if name in ("nested_gen_eig", "gen_eig_top"):
        assert bool(solved) == (below != 0)
    monkeypatch.undo()
    assert got == _factor_outcome(general, a)
    if below >= 2.0:  # the entry moves the result: the diagonal alone gives another
        assert got != _factor_outcome(run, np.diag(a.diagonal()))
    if name == "cholesky" and below == 8.0:  # the Schur pivot 16 - 16 fails, though the entry 16 would pass
        assert got[0] == 2


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
