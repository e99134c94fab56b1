"""Gram sections, orthonormal polynomials, operator norms, plateaus."""

import gc
import math
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from sobolevlab import momentmatrix as mm
from sobolevlab.measures import (
    Atomic,
    CircleLebesgue,
    MeasureSum,
    WeightedCircle,
    moment_section,
)
from sobolevlab.momentmatrix import norm_sq, section
from sobolevlab.numkernel import ConvergenceFailure, NotPositiveDefinite
from sobolevlab.polynomials import differentiate, evaluate, random_coeffs
from sobolevlab.sobolev import (
    NormSequence,
    SobolevPencil,
    gram_section,
    mult_op_norm,
    norm_sequence,
    orthonormal_polys,
    pencil_of_measures,
    plateau,
    sobolev_zeros,
)

from oracles import assert_read_only, counting_eigvalsh, pencil_eigvals, reduced_eigvals

UNIT = CircleLebesgue(0.0, 1.0)
HALF = CircleLebesgue(0.0, 0.5)
SHIFTED = CircleLebesgue(1.0 + 1.0j, 2.0)
W04 = WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.4), (-1, 0.4)))
HALF_PLUS_UNIT = MeasureSum(((1.0, HALF), (1.0, UNIT)))

P_UNIT_UNIT = pencil_of_measures(UNIT, UNIT)
P_UNIT_ONLY = pencil_of_measures(UNIT, None)
P_HALF_UNIT = pencil_of_measures(HALF, UNIT)

CORPUS = [
    P_UNIT_UNIT,
    P_UNIT_ONLY,
    P_HALF_UNIT,
    pencil_of_measures(W04, HALF),
    pencil_of_measures(SHIFTED, SHIFTED),
    pencil_of_measures(HALF_PLUS_UNIT, UNIT),
]


def test_gram_frozen_diagonals():
    # unit circle against itself: G = I + diag(0, 1, 4, 9) = diag(1, 2, 5, 10)
    npt.assert_array_equal(gram_section(P_UNIT_UNIT, 4), np.diag([1.0, 2.0, 5.0, 10.0]).astype(complex))
    # zero derivative part: plain moment section
    npt.assert_array_equal(gram_section(P_UNIT_ONLY, 4), np.eye(4, dtype=complex))
    # half-radius base with unit derivative part: 4^-k + k^2
    expected = np.diag([0.25**k + k * k for k in range(5)]).astype(complex)
    npt.assert_array_equal(gram_section(P_HALF_UNIT, 5), expected)


def test_gram_returns_read_only_block():
    g = gram_section(P_UNIT_UNIT, 3)
    assert_read_only(g, lambda: gram_section(P_UNIT_UNIT, 3))
    assert gram_section(P_UNIT_UNIT, 3)[0, 0] == 1.0


@pytest.mark.parametrize("p", CORPUS)
def test_gram_form_equals_norm_plus_derivative_norm(p):
    n = 9
    g = gram_section(p, n)
    a0 = section(p.m0, n)
    a1 = section(p.m1, n)
    rng = np.random.default_rng(17)
    for _ in range(40):
        v = random_coeffs(rng, int(rng.integers(0, n)))
        lhs = norm_sq(g, v)
        rhs = norm_sq(a0, v) + norm_sq(a1, differentiate(v))
        assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))


def test_pencil_labels():
    assert P_UNIT_ONLY.m1.label == "zero"
    assert P_UNIT_UNIT.label.startswith("{m0=")
    assert pencil_of_measures(UNIT, None, label="custom").label == "custom"


def test_orthonormal_polys_frozen_diagonal_case():
    ops = orthonormal_polys(P_UNIT_UNIT.gram, 3)
    assert len(ops) == 3
    npt.assert_allclose(ops[0], [1.0], rtol=1e-15)
    npt.assert_allclose(ops[1], [0.0, 1.0 / math.sqrt(2.0)], rtol=1e-15)
    npt.assert_allclose(ops[2], [0.0, 0.0, 1.0 / math.sqrt(5.0)], rtol=1e-15)
    # zero derivative part on the unit circle: monomials are orthonormal already
    ops0 = orthonormal_polys(P_UNIT_ONLY.gram, 4)
    for k, c in enumerate(ops0):
        npt.assert_array_equal(c, np.eye(4, dtype=complex)[k, : k + 1])


@pytest.mark.parametrize("p", CORPUS)
def test_orthonormal_polys_are_orthonormal(p):
    n = 10
    g = gram_section(p, n)
    ops = orthonormal_polys(p.gram, n)
    padded = np.zeros((n, n), dtype=complex)
    for k, c in enumerate(ops):
        assert len(c) == k + 1
        assert c[-1].real > 0 and c[-1].imag == 0
        padded[k, : k + 1] = c
    gram_of_ops = padded @ g @ padded.conj().T
    npt.assert_allclose(gram_of_ops, np.eye(n), atol=1e-9)


@pytest.mark.parametrize("p", CORPUS)
def test_orthonormal_polys_are_the_rows_of_the_kept_inverse(p):
    n = 10
    ops = orthonormal_polys(p.gram, n)
    fac = mm.factor(p.gram, n)
    inverse, failure = fac.inverse, fac.failure
    assert failure is None
    for k, c in enumerate(ops):
        npt.assert_array_equal(c, inverse[k, : k + 1])
        # a read-only view of the row, not a copy
        assert not c.flags.writeable and np.shares_memory(c, inverse)


def test_orthonormal_polys_propagates_singular_section():
    p = pencil_of_measures(Atomic(((3.0, 1.0),)), None)
    with pytest.raises(NotPositiveDefinite) as info:
        orthonormal_polys(p.gram, 2)
    assert info.value.index == 1


def test_sobolev_zeros_diagonal_pencils_vanish_at_origin():
    for deg in (1, 3, 6):
        npt.assert_allclose(sobolev_zeros(P_UNIT_UNIT, deg), np.zeros(deg), atol=1e-12)
    with pytest.raises(ValueError):
        sobolev_zeros(P_UNIT_UNIT, 0)


def _example6_exact_gram(n):
    """The exact n x n Gram matrix of the example-6 pencil {circle(0, 1),
    circle(0.5, 2)} in mpmath, at the caller's working precision."""
    import mpmath

    a, r = mpmath.mpf(0.5), mpmath.mpf(2)

    def m1(i, j):  # moments of the circle |z - a| = r
        return mpmath.fsum(
            mpmath.binomial(i, k) * mpmath.binomial(j, k) * a ** (i + j - 2 * k) * r ** (2 * k)
            for k in range(min(i, j) + 1)
        )

    g = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            g[i, j] = int(i == j) + (i * j * m1(i - 1, j - 1) if i and j else 0)
    return g


def test_example6_zeros_match_a_60_digit_oracle():
    """Largest zero modulus of the example-6 pencil against mpmath at 60
    digits: the exact Gram matrix, its Cholesky factor and inverse, and a
    companion eigensolve."""
    import mpmath

    p = pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0))
    n = 21
    with mpmath.workdps(60):
        inv = mpmath.inverse(mpmath.cholesky(_example6_exact_gram(n)))
        for deg in range(10, n):
            comp = mpmath.matrix(deg, deg)
            for k in range(deg):
                if k:
                    comp[k, k - 1] = 1
                comp[k, deg - 1] = -inv[deg, k] / inv[deg, deg]
            exact = float(max(abs(z) for z in mpmath.eig(comp, left=False, right=False)))
            got = float(np.abs(sobolev_zeros(p, deg)).max())
            assert abs(got - exact) <= 1e-9 * exact, deg


def test_example6_mult_op_matches_a_60_digit_reduction():
    """The example-6 mult_op sequence for n <= 16, and the spectrum of
    W Q W^* read off the kept inverse factor at each n, against the same
    reduction of the exact Gram matrix in mpmath at 60 digits."""
    import mpmath

    p = pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0))
    n_max = 16
    seq = norm_sequence(p, n_max, "mult_op")
    q = gram_section(p, n_max + 1)[1:, 1:]
    with mpmath.workdps(60):
        g = _example6_exact_gram(n_max + 1)
        for n in range(1, n_max + 1):
            w = mpmath.inverse(mpmath.cholesky(g[0:n, 0:n]))
            exact = np.sort([float(x) for x in mpmath.eigh(w * g[1 : n + 1, 1 : n + 1] * w.H, eigvals_only=True)])
            inverse = mm.factor(p.gram, n).inverse
            got = reduced_eigvals(q[:n, :n], inverse)
            top = exact[-1]
            assert abs(seq.values[n - 1] - math.sqrt(top)) <= 1e-13 * math.sqrt(top), n
            assert abs(got[-1] - top) <= 1e-13 * top, n
            assert np.max(np.abs(got - exact)) <= 1e-12 * top, n


def test_mult_op_norm_frozen_values():
    # shift is an isometry of the Hardy-space norm
    for n in (1, 2, 8, 32):
        assert abs(mult_op_norm(P_UNIT_ONLY, n) - 1.0) <= 1e-10
    # radius-1/2 circle scales each monomial by 1/2
    p_half = pencil_of_measures(HALF, None)
    for n in (1, 2, 8, 24):
        assert abs(mult_op_norm(p_half, n) - 0.5) <= 1e-10
    with pytest.raises(ValueError):
        mult_op_norm(P_UNIT_ONLY, 0)


def test_mult_op_norm_diagonal_ratio_oracles():
    # diagonal Grams: the norm is the square root of the largest ratio of
    # consecutive diagonal entries G[k+1,k+1] / G[k,k] with k < n.
    # (half, unit): G = diag(4^-k + k^2) -> ratios 1.25, 3.25, 2.22ses...
    assert abs(mult_op_norm(P_HALF_UNIT, 1) - math.sqrt(1.25)) <= 1e-12
    for n in (2, 3, 16):
        assert abs(mult_op_norm(P_HALF_UNIT, n) - math.sqrt(3.25)) <= 1e-12
    # (half + unit, unit): G = diag(4^-k + 1 + k^2) -> 2.25/2, then 5.0625/2.25
    p = pencil_of_measures(HALF_PLUS_UNIT, UNIT)
    assert abs(mult_op_norm(p, 1) - math.sqrt(1.125)) <= 1e-12
    for n in (2, 3, 16):
        assert abs(mult_op_norm(p, n) - 1.5) <= 1e-12


@pytest.mark.parametrize("p", CORPUS)
def test_mult_op_norm_nondecreasing(p):
    vals = [mult_op_norm(p, n) for n in range(1, 13)]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_a_dropped_pencil_is_freed_without_the_cycle_collector():
    # the Gram builder keeps the two matrices, not the pencil, so a pencil
    # whose sections, factor and inverse were built goes with its last name
    p = pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0))
    mult_op_norm(p, 12)
    sobolev_zeros(p, 11)
    assert p.gram._factor is not None and p.gram._largest is not None
    refs = [weakref.ref(p), weakref.ref(p.gram)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del p
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_a_pencil_whose_gram_factor_failed_is_freed_without_the_cycle_collector():
    # the factor keeps its NotPositiveDefinite without the traceback, whose
    # frames hold the section and the matrix being factored
    p = pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0))
    assert not norm_sequence(p, 57, "mult_op").ok()
    failure = p.gram._factor[1].failure
    assert isinstance(failure, NotPositiveDefinite) and failure.__traceback__ is None
    assert str(failure) == f"pivot 56 of {p.label} is not positive" and failure.lower.shape == (56, 56)
    del failure
    refs = [weakref.ref(p), weakref.ref(p.gram), weakref.ref(p.gram._factor[1].failure)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del p
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_a_pencil_whose_raised_gram_failure_was_caught_is_freed_without_the_cycle_collector():
    # what is raised is a fresh NotPositiveDefinite: raising the kept one
    # would give it a traceback whose frames hold the pencil
    p = pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0))
    try:
        mult_op_norm(p, 57)
    except NotPositiveDefinite as exc:
        kept = p.gram._factor[1].failure
        assert exc is not kept and kept.__traceback__ is None
        assert str(exc) == str(kept) == f"pivot 56 of {p.label} is not positive" and exc.lower is kept.lower
    else:
        raise AssertionError("the example-6 Gram section factors at size 57")
    del kept
    refs = [weakref.ref(p), weakref.ref(p.gram), weakref.ref(p.gram._factor[1].failure)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del p
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_mult_op_norm_bounded_by_quotient_oracle(subtests=None):
    # direct Rayleigh check: random q of degree < n
    p = pencil_of_measures(W04, HALF)
    n = 8
    bound = mult_op_norm(p, n)
    g = gram_section(p, n + 1)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        v = random_coeffs(rng, int(rng.integers(0, n)))
        num = math.sqrt(norm_sq(g, np.concatenate(([0.0], v))))
        den = math.sqrt(norm_sq(g, v))
        worst = max(worst, num / den)
        assert num <= bound * den * (1.0 + 1e-10)
    assert worst >= 0.5 * bound  # the sup is actually approached


def test_norm_sequence_mult_op():
    seq = norm_sequence(P_UNIT_ONLY, 6, "mult_op")
    assert isinstance(seq, NormSequence)
    assert seq.quantity == "mult_op"
    assert seq.n_list == (1, 2, 3, 4, 5, 6)
    npt.assert_allclose(seq.values, np.ones(6), atol=1e-12)
    assert seq.ok()


def test_norm_sequence_cond4_identity_pencil():
    # (M(m), M(m)): eigenvalues of (section, gram) at n: max k^2/(1+k^2) < 1
    seq = norm_sequence(P_UNIT_UNIT, 5, "cond4")
    assert seq.ok()
    expected = [1.0 / (1.0 + 0.0)] + [1.0] * 0  # n=1: section/gram = 1/1
    assert abs(seq.values[0] - 1.0) <= 1e-14
    # at n=5 best constant is max over k<=4 of 1/(4^0...) for unit/unit:
    # M1 = M0 here, so lambda_max of (M0, M0 + B) = max 1/(1+k^2) ... = 1 at k=0
    assert abs(seq.values[-1] - 1.0) <= 1e-12


def test_norm_sequence_unknown_quantity():
    with pytest.raises(ValueError):
        norm_sequence(P_UNIT_ONLY, 4, "frobenius")


def test_norm_sequence_records_failures_inline():
    p = pencil_of_measures(Atomic(((0.5, 1.0), (-0.5, 1.0))), None)
    seq = norm_sequence(p, 5, "mult_op")
    assert not seq.ok()
    assert seq.errors[0] is None and seq.errors[1] is None  # ranks 1, 2 fine
    assert seq.errors[2] is not None and "pivot" in seq.errors[2]
    assert math.isnan(seq.values[2]) and math.isnan(seq.values[4])


def test_plateau_rules():
    ns = tuple(range(1, 17))
    assert plateau(ns, [3.0] * 16)
    assert plateau(ns, np.linspace(1.0, 1.005, 16))
    assert not plateau(ns, [float(n) for n in ns])
    assert plateau(ns, [0.0] * 16)
    vals = [1.0] * 16
    vals[7] = float("nan")  # n_max // 2 = 8 -> index 7
    assert not plateau(ns, vals)
    assert not plateau((3, 4, 5), [1.0, 1.0, 1.0])  # n//2 = 2 precedes the data
    assert plateau((2, 4), [1.0, 1.0])
    with pytest.raises(ValueError):
        plateau((1, 2), [1.0])
    with pytest.raises(ValueError):
        plateau((), [])


def test_plateau_uses_requested_tolerance():
    # PLATEAU_RTOL = 0.01 of the larger value: from 1.0 the boundary is 1 + 1/99 = 1.010101...
    ns = (4, 8)
    assert plateau(ns, [1.0, 1.0101])
    assert not plateau(ns, [1.0, 1.0102])


# ---------------------------------------------------------------------------
# nested sequences against separately built sections
# ---------------------------------------------------------------------------

def _fresh_gram(mu0, mu1, n):
    # a new pencil per call, so nothing is sliced from a larger section
    return gram_section(pencil_of_measures(mu0, mu1), n)


NESTED_PENCILS = [
    (UNIT, CircleLebesgue(0.5, 2.0)),
    (W04, HALF),
    (CircleLebesgue(0.3 + 0.4j, 0.7), UNIT),
    (UNIT, Atomic(((0.3 + 0.0j, 1.0), (-0.2 + 0.4j, 1.0)))),
]


@pytest.mark.parametrize("mu0, mu1", NESTED_PENCILS)
@pytest.mark.parametrize("quantity", ["mult_op", "cond4"])
def test_norm_sequence_matches_per_size_reference(mu0, mu1, quantity):
    n_max = 20
    seq = norm_sequence(pencil_of_measures(mu0, mu1), n_max, quantity)
    assert seq.ok()
    for n in range(1, n_max + 1):
        if quantity == "mult_op":
            q = _fresh_gram(mu0, mu1, n + 1)[1:, 1:]
        else:
            q = moment_section(mu1, n)
        top = float(pencil_eigvals(q, _fresh_gram(mu0, mu1, n))[-1])
        ref = math.sqrt(top) if quantity == "mult_op" else top
        assert abs(seq.values[n - 1] - ref) <= 1e-12 * abs(ref)


def test_norm_sequence_shares_the_breakdown_pivot():
    # example 6 at n_max 64: the Gram section fails the pivot gate at index 56
    mu1 = CircleLebesgue(0.5, 2.0)
    p = pencil_of_measures(UNIT, mu1)
    seq = norm_sequence(p, 64, "mult_op")
    assert all(e is None for e in seq.errors[:56])
    assert all(not math.isnan(v) for v in seq.values[:56])
    message = f"pivot 56 of {p.label} is not positive"
    assert list(seq.errors[56:]) == [message] * 8
    assert all(math.isnan(v) for v in seq.values[56:])
    for n in (57, 64):  # the per-size factorization fails at the same pivot
        with pytest.raises(NotPositiveDefinite) as info:
            pencil_eigvals(_fresh_gram(UNIT, mu1, n + 1)[1:, 1:], _fresh_gram(UNIT, mu1, n), p.label)
        assert str(info.value) == message
    # mult_op_norm is the sequence's last entry, bit for bit, for example 5
    # (atoms) and example 6, and reports the same breakdown at n = 57
    atoms = Atomic(((0.3 + 0.0j, 1.0), (-0.2 + 0.4j, 1.0)))
    for mu in (atoms, mu1):
        for n in (8, 21, 56):
            top = mult_op_norm(pencil_of_measures(UNIT, mu), n)
            assert top == norm_sequence(pencil_of_measures(UNIT, mu), n, "mult_op").values[-1]
    assert norm_sequence(pencil_of_measures(UNIT, mu1), 57, "mult_op").errors[-1] == message
    with pytest.raises(NotPositiveDefinite) as info:
        mult_op_norm(pencil_of_measures(UNIT, mu1), 57)
    assert str(info.value) == message


def test_example6_mult_op_solves_few_sizes(monkeypatch):
    # interlacing pins most of the 56 good sizes of example 6 at n_max 64
    sizes = counting_eigvalsh(monkeypatch)
    seq = norm_sequence(pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0)), 64, "mult_op")
    assert seq.errors.count(None) == 56
    assert len(sizes) <= 20 and max(sizes) == 56


def test_mult_op_norm_makes_one_eigensolve(monkeypatch):
    # the top at size n alone: one solve, bitwise the sequence's last value,
    # and a failed solve is raised under the pencil's label
    p = pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0))
    value = norm_sequence(p, 40, "mult_op").values[-1]
    sizes = counting_eigvalsh(monkeypatch)
    assert mult_op_norm(p, 40) == value
    assert sizes == [40]
    monkeypatch.undo()
    counting_eigvalsh(monkeypatch, lambda a: True)
    with pytest.raises(ConvergenceFailure) as info:
        mult_op_norm(p, 40)
    assert str(info.value) == f"eigensolver failed to converge on {p.label}"


@pytest.mark.parametrize("quantity", ["mult_op", "cond4"])
def test_example4_sequences_read_their_diagonal(monkeypatch, quantity):
    # concentric circles: every reduced matrix is diagonal, so at most the
    # two ends of the n_max 64 sequence are solved
    sizes = counting_eigvalsh(monkeypatch)
    seq = norm_sequence(P_HALF_UNIT, 64, quantity)
    assert seq.ok() and len(sizes) <= 2


def test_norm_sequence_eigensolve_failure_lands_at_its_size(monkeypatch):
    p = pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0))
    clean = norm_sequence(p, 64, "mult_op")
    solved = counting_eigvalsh(monkeypatch)
    norm_sequence(p, 64, "mult_op")
    n = sorted(solved)[len(solved) // 2]  # a solved size inside the sequence
    monkeypatch.undo()
    counting_eigvalsh(monkeypatch, lambda a: a.shape[0] == n)
    seq = norm_sequence(p, 64, "mult_op")
    assert seq.errors[n - 1] == f"eigensolver failed to converge on {p.label}"
    assert math.isnan(seq.values[n - 1])
    assert seq.errors[:n - 1] + seq.errors[n:56] == (None,) * 55
    for k in (*range(n - 1), *range(n, 56)):
        assert abs(seq.values[k] - clean.values[k]) <= 8 * np.finfo(float).eps * clean.values[k]
    assert seq.errors[56:] == clean.errors[56:]
