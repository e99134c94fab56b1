"""Moment-matrix sections, derivative conjugation, Toeplitz detection."""

import numpy as np
import numpy.testing as npt
import pytest

from sobolevlab import cli, criteria, measures, numkernel, sobolev
from sobolevlab import momentmatrix as mm
from sobolevlab.measures import Atomic, CircleLebesgue, MeasureSum, WeightedCircle, moment
from sobolevlab.numkernel import NotPositiveDefinite, Overflow
from sobolevlab.sobolev import SobolevPencil, gram_section, pencil_of_measures
from sobolevlab.polynomials import differentiate, random_coeffs

from oracles import assert_read_only, cholesky_rows, circle_product, counting_eigvalsh, substitute_rows

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


def test_section_is_exactly_hermitian_and_cached_read_only():
    m = mm.of_measure(SHIFTED)
    a = mm.section(m, 8)
    npt.assert_array_equal(a, a.conj().T)
    assert np.all(a.diagonal().imag == 0.0)
    assert_read_only(a, lambda: mm.section(m, 8))  # a caller cannot poison the cache
    assert mm.section(m, 8)[0, 0] == 1.0
    # leading-submatrix consistency across sizes
    npt.assert_array_equal(mm.section(m, 8)[:5, :5], mm.section(m, 5))
    with pytest.raises(ValueError):
        mm.section(m, 0)


def test_matrices_of_one_measure_slice_its_one_product(monkeypatch):
    builds = []
    product = measures._product
    monkeypatch.setattr(measures, "_product", lambda mu, n: builds.append(n) or product(mu, n))
    mu = CircleLebesgue(0.3 - 0.1j, 1.5)
    first, second = mm.of_measure(mu), mm.of_measure(mu)
    a = mm.section(first, 12)
    expected = a.copy()
    assert_read_only(a, lambda: mm.section(first, 12))  # each returned section is a read-only block
    b = mm.section(second, 7)
    assert b.tobytes() == expected[:7, :7].tobytes()
    assert_read_only(b, lambda: mm.section(second, 7))
    assert mm.section(second, 7).tobytes() == expected[:7, :7].tobytes()
    assert measures.moment_section(mu, 12).tobytes() == expected.tobytes()
    assert builds == [12]


def test_a_measure_section_is_the_measures_kept_array_not_a_copy():
    mu = CircleLebesgue(0.2 + 0.7j, 1.25)
    block = mm.section(mm.of_measure(mu), 9)
    assert block.base is measures.moment_section(mu, 9).base  # no copy, no second mirror
    # a writeable builder output is mirrored, a read-only one taken as it is
    upper = np.triu(np.arange(1.0, 10.0).reshape(3, 3) * (1 + 1j))
    npt.assert_array_equal(mm.section(mm.MomentMatrix(build=lambda n: upper[:n, :n].copy()), 3),
                           numkernel.mirror_upper(upper))
    kept = upper.copy()
    kept.flags.writeable = False
    assert mm.section(mm.MomentMatrix(build=lambda n: kept[:n, :n]), 3).base is kept


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


def test_toeplitz_rule_band_reads_each_diagonal_or_its_conjugate_mirror():
    # the raw build, before mirroring: c[d] where given, else conj(c[-d]),
    # else conj(0j) = 0 - 0j
    c = {0: 2.0, 1: 0.5 + 0.25j, 2: -0.0, -3: 1.0 - 1.0j}
    band = mm.toeplitz_rule(c).build(5)[0]
    expected = [2.0, 0.5 + 0.25j, complex(-0.0, 0.0), 1.0 + 1.0j, complex(0.0, -0.0)]
    assert band.tobytes() == np.array(expected).tobytes()
    assert mm.toeplitz_rule(c).build(5)[4, 1].tobytes() == np.array(1.0 - 1.0j).tobytes()


def test_derivative_conjugate_identity_measure():
    # with M0 = 0 the pencil's Gram is the derivative term D alone
    b = gram_section(SobolevPencil(mm.zero_matrix(), mm.of_measure(UNIT)), 4)
    npt.assert_array_equal(b, np.diag([0.0, 1.0, 4.0, 9.0]).astype(complex))


@pytest.mark.parametrize("mu", [UNIT, HALF, SHIFTED, W04])
def test_derivative_conjugate_computes_derivative_norm(mu):
    m1 = mm.of_measure(mu)
    b = gram_section(SobolevPencil(mm.zero_matrix(), m1), 9)
    a1 = mm.section(m1, 9)
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = random_coeffs(rng, int(rng.integers(0, 9)))
        lhs = mm.norm_sq(b, v)
        rhs = mm.norm_sq(a1, differentiate(v))
        assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))


def test_is_toeplitz():
    assert mm.is_toeplitz(mm.of_measure(UNIT), 8)
    assert mm.is_toeplitz(mm.of_measure(W04), 8)
    assert not mm.is_toeplitz(mm.of_measure(HALF), 8)
    assert not mm.is_toeplitz(mm.of_measure(SHIFTED), 6)
    with pytest.raises(ValueError):
        mm.is_toeplitz(mm.of_measure(UNIT), 1)


def test_norm_sq_row_convention_and_padding():
    a = mm.section(mm.of_measure(W04), 4)
    v = np.array([1.0, 0.0, 2.0j])
    manual = 0.0 + 0.0j
    for i in range(3):
        for j in range(3):
            manual += v[i] * a[i, j] * np.conj(v[j])
    got = mm.norm_sq(a, v)
    assert abs(got - manual) <= 1e-14 * (1 + abs(manual))
    with pytest.raises(ValueError):
        mm.norm_sq(a, np.ones(5))


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warning
@pytest.mark.parametrize(
    "mu, size",
    [
        (CircleLebesgue(0.0, 1e200), 2),  # c[1, 1] = r^2
        (CircleLebesgue(1e150, 1.0), 3),  # c[2, 2] holds center^4
        (WeightedCircle(0.0, 1e100, ((0, 1.0), (1, 0.25), (-1, 0.25))), 3),
        (MeasureSum(((1.0, UNIT), (2.0, CircleLebesgue(0.0, 1e100)))), 3),
    ],
    ids=["radius", "center", "weighted", "sum"],
)
def test_overflow_is_raised_at_the_first_non_finite_size(mu, size):
    # skipping the exact-zero terms of P T P^* drops no inf or NaN of P
    m = mm.of_measure(mu)
    mm.section(m, size - 1)
    with pytest.raises(Overflow) as info:
        mm.section(m, size)
    assert str(info.value) == f"values of {m.label} at size {size} overflowed the double range"
    assert m._largest.shape == (size - 1, size - 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warning
@pytest.mark.parametrize(
    "bad, size",
    [(CircleLebesgue(0.0, 1e200), 2), (CircleLebesgue(1e150, 1.0), 3), (CircleLebesgue(0.0, 1e100), 3)],
    ids=["radius", "center", "radius-at-3"],
)
def test_an_overflowing_circle_of_a_stack_is_named_at_its_size(bad, size):
    # four circles in one sweep; the last overflows at every size from 2 on
    circles = [CircleLebesgue(0.5, 1.0), bad, CircleLebesgue(-0.5j, 2.0), CircleLebesgue(0.0, 1e300)]
    labels = [mm.of_measure(c).label for c in circles]
    centers, radii = [c.center for c in circles], [c.radius for c in circles]
    assert np.isfinite(measures.circle_sections(centers[:3], radii[:3], measures.UNIT_WEIGHT, size - 1)).all()
    stack = measures.circle_sections(centers, radii, measures.UNIT_WEIGHT, size)
    assert stack.shape == (4, size, size)
    with pytest.raises(Overflow) as stacked:  # the labels, as a generator, are read on failure
        numkernel.require_finite(stack, iter(labels))
    with pytest.raises(Overflow) as alone:  # the circle's own matrix, built alone
        mm.section(mm.of_measure(CircleLebesgue(bad.center, bad.radius)), size)
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value) == f"values of {labels[1]} at size {size} overflowed the double range"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radius", [1e2, 1e4, 1e6, 1e77, 1e154, 1e308])
def test_centered_circles_overflow_where_the_outer_product_loops_do(radius):
    # P = diag(r^k) about the origin: a section overflows at the sizes
    # where the reference's block is non-finite, every finite one is
    # bitwise the reference's mirror, and no numpy warning escapes
    weights = [measures.UNIT_WEIGHT, W04.fourier, ((0, 1.0), (1, 0.1j), (-1, -0.1j), (2, 0.3), (-2, 0.3))]
    for case, fourier in enumerate(weights):
        center = (0j, complex(-0.0, 0.0), complex(0.0, -0.0))[case]
        mu = WeightedCircle(center, radius, fourier)
        m = mm.of_measure(mu)
        for n in range(1, 66):
            with np.errstate(all="ignore"):
                ref = circle_product(mu, n)
            if np.isfinite(ref).all():
                assert mm.section(m, n).tobytes() == numkernel.mirror_upper(ref).tobytes()
            else:
                with pytest.raises(Overflow):
                    mm.section(m, n)


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


# ---------------------------------------------------------------------------
# One Cholesky factor per matrix and size
# ---------------------------------------------------------------------------

EXAMPLE5_ATOMS = Atomic(((0.3 + 0.0j, 1.0), (-0.2 + 0.4j, 1.0)))
#: fresh matrices: the example-6 and example-5 pencil Grams (example 6 fails
#: the pivot gate at 56 of 64) and the moment matrix of circle(0.3+0.4i, 0.7)
FACTOR_MATRICES = {
    "example6": lambda: pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0)).gram,
    "example5": lambda: pencil_of_measures(UNIT, EXAMPLE5_ATOMS).gram,
    "circle": lambda: mm.of_measure(CircleLebesgue(0.3 + 0.4j, 0.7)),
}


def _reference_factor(fresh, n):
    """(factor or failing prefix, failure message or None) of a matrix
    that has built nothing but its own n x n section."""
    try:
        return numkernel.cholesky(mm.section(fresh, n), fresh.label), None
    except NotPositiveDefinite as exc:
        return exc.lower, str(exc)


@pytest.mark.parametrize("name", FACTOR_MATRICES)
@pytest.mark.parametrize("order", [(64, 8, 33), (8, 64)])
def test_factor_is_the_factor_of_its_own_section(name, order):
    # a block of a larger factor is not bitwise the factor of the block,
    # so the result must not depend on which sizes were asked for before
    m = FACTOR_MATRICES[name]()
    for n in order:
        fac = mm.factor(m, n)
        lower, inverse, failure = fac.lower, fac.inverse, fac.failure
        ref, message = _reference_factor(FACTOR_MATRICES[name](), n)
        npt.assert_array_equal(lower, ref)
        npt.assert_array_equal(inverse, numkernel.inverse_lower(ref))
        assert (None if failure is None else str(failure)) == message
        assert not lower.flags.writeable and not inverse.flags.writeable


@pytest.mark.parametrize("name", FACTOR_MATRICES)
@pytest.mark.parametrize("n", [8, 33, 64])
def test_kept_inverse_solves_w_l_equal_identity_row_by_row(name, n):
    # each row of W is its own back substitution, so W L = I holds
    # componentwise to roundoff of |W| |L|, also on the failing prefixes
    # (example 6 at 64, the circle at 33 and 64), where the residual
    # itself reaches 1e-8
    fac = mm.factor(FACTOR_MATRICES[name](), n)
    lower, inverse = fac.lower, fac.inverse
    k = lower.shape[0]
    assert inverse.shape == (k, k)
    assert np.all(np.abs(inverse @ lower - np.eye(k)) <= 1e-14 * (np.abs(inverse) @ np.abs(lower)))
    npt.assert_array_equal(np.triu(inverse, 1), 0)


def test_failing_factor_returns_the_prefix_before_the_pivot():
    m = mm.of_measure(Atomic(((0.5, 1.0), (-0.2 + 0.4j, 2.0), (0.6j, 0.5))))  # rank 3
    fac = mm.factor(m, 8)
    lower, inverse, failure = fac.lower, fac.inverse, fac.failure
    assert isinstance(failure, NotPositiveDefinite)
    k = failure.index
    assert k == 3
    assert str(failure) == f"pivot 3 of {m.label} is not positive"
    assert lower.shape == inverse.shape == (k, k)
    assert failure.lower is lower
    assert np.max(np.abs(lower @ lower.conj().T - mm.section(m, k))) <= 1e-13
    with pytest.raises(NotPositiveDefinite, match="pivot 3 of"):
        criteria.gamma_sequence(m, 0.1, 8)


@pytest.fixture
def cholesky_calls(monkeypatch):
    calls = []
    plain = numkernel.cholesky

    def counted(g, label=""):
        calls.append(len(g))
        return plain(g, label)

    monkeypatch.setattr(numkernel, "cholesky", counted)
    return calls


def test_bpe_decisions_on_one_matrix_factor_once(cholesky_calls):
    m = mm.of_measure(UNIT)
    points = [r * np.exp(2j * np.pi * k / 7) for r in (0.0, 0.3, 0.6, 0.9, 1.1, 1.2, 1.3) for k in range(7)]
    verdicts = [criteria.bpe_decide(m, a, 64).verdict for a in points]
    assert len(verdicts) == 49
    assert verdicts.count("holds") == 28 and verdicts.count("fails") == 21
    assert cholesky_calls == [64]


def test_bpe_disk_map_reads_the_kept_factor_without_lu_solves(monkeypatch, tmp_path):
    # the disk map's 49 points are one solve on the kept factor
    calls = []
    plain = np.linalg.solve

    def counted(a, b):
        calls.append(np.shape(a))
        return plain(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    assert cli.main(["--builtin", "bpe-disk-map", "--nmax", "64", "--out", str(tmp_path)]) == 0
    assert calls == []


def _counted(monkeypatch, name, arg=0):
    """The shapes of argument ``arg`` in the calls of numkernel.<name>."""
    calls = []
    plain = getattr(numkernel, name)
    monkeypatch.setattr(numkernel, name, lambda *args: calls.append(np.shape(args[arg])) or plain(*args))
    return calls


def test_bpe_disk_map_solves_once_and_never_inverts(monkeypatch, tmp_path):
    # the 49 points are the columns of one right-hand side; no W is read
    solves = _counted(monkeypatch, "solve_lower", arg=1)
    factors, inverses = _counted(monkeypatch, "cholesky"), _counted(monkeypatch, "inverse_lower")
    assert cli.main(["--builtin", "bpe-disk-map", "--nmax", "64", "--out", str(tmp_path)]) == 0
    assert solves == [(64, 49)]
    assert factors == [(64, 64)]
    assert inverses == []


def test_reading_the_inverse_builds_it_once_per_factor(monkeypatch):
    inverses = _counted(monkeypatch, "inverse_lower")
    m = mm.of_measure(HALF)
    fac = mm.factor(m, 8)
    assert inverses == []
    assert fac.inverse is mm.factor(m, 8).inverse
    assert inverses == [(8, 8)] and not fac.inverse.flags.writeable
    assert mm.factor(m, 6).inverse.shape == (6, 6)
    assert inverses == [(8, 8), (6, 6)]


def test_zero_bound_scan_factors_once(cholesky_calls):
    scan = cli._zero_bound_scan(pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0)), range(1, 21))
    assert scan.n_list == list(range(1, 21))
    assert cholesky_calls == [21]


def test_zero_bound_scan_reads_a_monomial_without_an_eigensolve(monkeypatch):
    # the unit circle's pencil is rotation invariant: every orthonormal
    # polynomial is c z^d, whose zeros are 0, as LAPACK finds them too
    pen = pencil_of_measures(UNIT, HALF)
    ops = sobolev.orthonormal_polys(pen.gram, 41)
    solved = [float(np.max(np.abs(numkernel.companion_roots(ops[d])))) for d in range(1, 41)]
    roots = _counted(monkeypatch, "companion_roots")
    assert cli._zero_bound_scan(pen, range(1, 41)).values == solved == [0.0] * 40
    assert roots == []
    # off the diagonal from degree 2 on: row 0 of the Gram is that of the unit circle's
    cli._zero_bound_scan(pencil_of_measures(UNIT, SHIFTED), range(1, 6))
    assert roots == [(d + 1,) for d in range(2, 6)]


def test_builtin_suite_at_nmax_64_runs_the_row_loops_only_off_the_diagonal(monkeypatch, tmp_path):
    # arc length on a circle about 0 has a diagonal section: of the 8
    # factorizations and 8 solves, 4 each (examples 4 and 7, bpe-disk-map)
    # read the diagonal, bitwise the row loops; the three zero-bound scans
    # make 30 companion eigensolves, one per degree whose polynomial is not
    # c z^d (all 20 of example 7's are, and degree 1 of examples 5 and 6);
    # of the 135 eigvalsh calls, 9 decide PSD criteria: lemma3-shifted's stack of 20,
    # prop7's of 52, and one matrix each for lemma3-unitcircle, prop6's 4 cases and the two
    # dominance checks
    loops = {"cholesky": [], "solve_lower": []}
    for name, oracle in (("cholesky", cholesky_rows), ("solve_lower", substitute_rows)):

        def run_both(a, *rest, plain=getattr(numkernel, name), oracle=oracle, calls=loops[name]):
            calls.append(bool(np.tril(a, -1).any()))
            out = plain(a, *rest)
            assert out.tobytes() == oracle(a, *rest).tobytes()
            return out

        monkeypatch.setattr(numkernel, name, run_both)
    roots = _counted(monkeypatch, "companion_roots")
    solves = counting_eigvalsh(monkeypatch)
    assert cli.main(["--builtin", "all", "--nmax", "64", "--out", str(tmp_path)]) == 0
    assert len(loops["cholesky"]) == len(loops["solve_lower"]) == 8
    assert sum(loops["cholesky"]) == sum(loops["solve_lower"]) == 4
    assert len(roots) == 30 and len(solves) == 135
