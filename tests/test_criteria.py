"""Decision procedures: point evaluation, PSD criteria, plateau bounds."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from sobolevlab import criteria
from sobolevlab import momentmatrix as mm
from sobolevlab.criteria import (
    CenterNotBoundedEvaluation,
    CriterionReport,
    bpe_decide,
    bpe_weighted_circles_report,
    comparability_bounds,
    dominance_check,
    eigen_limit_report,
    gamma_index,
    gamma_via_kernel,
    sobolev_domination_bound,
    toeplitz_rigidities,
    toeplitz_rigidity,
    wirtinger_psd_check,
)
from sobolevlab.measures import Atomic, CircleLebesgue, MeasureSum, WeightedCircle, weight_grid_extremes
from sobolevlab.momentmatrix import norm_sq, section
from sobolevlab.numkernel import ConvergenceFailure
from sobolevlab.polynomials import differentiate, evaluate
from sobolevlab.sobolev import gram_section, norm_sequence, pencil_of_measures

from oracles import counting_eigvalsh, pencil_eigvals

UNIT = CircleLebesgue(0.0, 1.0)
HALF = CircleLebesgue(0.0, 0.5)
HALF_PLUS_UNIT = MeasureSum(((1.0, HALF), (1.0, UNIT)))
W04 = WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.4), (-1, 0.4)))
M_UNIT = mm.of_measure(UNIT)
M_HALF = mm.of_measure(HALF)


# ---------------------------------------------------------------------------
# point-evaluation index
# ---------------------------------------------------------------------------

def closed_form_gamma_unit(a: complex, n: int) -> float:
    # geometric sum: 1 / sum_{k<n} |a|^{2k}
    t = abs(a) ** 2
    if t == 1.0:
        return 1.0 / n
    return (1.0 - t) / (1.0 - t**n)


def test_gamma_unit_circle_closed_form():
    for a in (0.0, 0.5, 0.9, -0.3 + 0.4j, 1.0, 1.1):
        for n in (2, 5, 16, 32):
            want = closed_form_gamma_unit(a, n)
            got = gamma_index(M_UNIT, a, n)
            assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("c, r, n_max", [(0.0, 1.0, 64), (0.0, 2.0, 64), (0.5, 2.0, 16)])
def test_gamma_table_matches_the_closed_form_on_circles(c, r, n_max):
    # arc length on |z - c| = r: gamma_n(a) = 1 / sum_{k<n} |(a - c) / r|^(2k),
    # at every size up to where the section's factor keeps 1e-12
    m = mm.of_measure(CircleLebesgue(c, r))
    points = [c + r * s * np.exp(1j * t) for s in (0.0, 0.5, 0.9, 1.0, 1.1, 1.5) for t in (0.4, 2.5, 4.0)]
    table = criteria.gamma_table(m, points, n_max)
    assert table.shape == (n_max, len(points))
    for a, column in zip(points, table.T):
        t = abs((a - c) / r) ** 2
        want = 1.0 / np.array([math.fsum(t**k for k in range(n)) for n in range(1, n_max + 1)])
        npt.assert_allclose(column, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("measure", [UNIT, CircleLebesgue(0.0, 2.0), CircleLebesgue(0.5, 2.0), W04])
def test_gamma_table_columns_are_one_point_sequences(measure):
    # bitwise on the unit circle, whose factor is exactly I; elsewhere a
    # many-column solve may round its last bits apart from a one-column one
    n_max = 16
    m = mm.of_measure(measure)
    points = [0.0, 0.3 - 0.2j, 0.9j, -1.0, 1.2 + 0.5j]
    table = criteria.gamma_table(m, points, n_max)
    for a, column in zip(points, table.T):
        seq = criteria.gamma_sequence(m, a, n_max)
        if measure == UNIT:
            npt.assert_array_equal(column, seq)
        else:
            npt.assert_allclose(column, seq, rtol=1e-14, atol=0)


def test_gamma_two_routes_agree():
    for m in (M_UNIT, M_HALF, mm.of_measure(W04)):
        for a in (0.0, 0.3, 0.6j, -0.5 + 0.5j, 0.9):
            for n in (2, 8, 24):
                g1 = gamma_index(m, a, n)
                g2 = gamma_via_kernel(m, a, n)
                assert abs(g1 - g2) <= 1e-9 * g1


def test_gamma_positive_and_nonincreasing_in_n():
    for a in (0.4, 0.95, 1.05):
        vals = [gamma_index(M_HALF, a, n) for n in range(1, 20)]
        assert all(v > 0 for v in vals)
        assert all(b <= a_ * (1 + 1e-12) for a_, b in zip(vals, vals[1:]))


def test_gamma_minimizer_witness_attains_gamma():
    a = 0.7 - 0.2j
    n = 12
    w = criteria._gamma_minimizer(M_HALF, a, n)
    assert abs(evaluate(w, a) - 1.0) <= 1e-10
    assert abs(norm_sq(section(M_HALF, n), w) - gamma_index(M_HALF, a, n)) <= 1e-12


def test_bpe_holds_inside_disk():
    rep = bpe_decide(M_UNIT, 0.9, 32)
    assert rep.verdict == "holds"
    assert abs(rep.details["gamma_end"] - 1.902243e-01) <= 1e-6
    assert rep.details["decay_over_last_doubling"] <= criteria.BPE_HOLD_RATIO
    assert rep.witness is None
    assert rep.constant == pytest.approx(1.0 / rep.details["gamma_end"])
    assert rep.n_list == list(range(2, 33))
    assert rep.parameters["gamma_floor"] == criteria.BPE_GAMMA_FLOOR


def test_bpe_fails_outside_disk_with_witness():
    rep = bpe_decide(M_UNIT, 1.1, 32)
    assert rep.verdict == "fails"
    assert rep.details["decay_over_last_doubling"] >= criteria.BPE_DECAY_RATIO
    # witness: p(a) = 1 with norm^2 == gamma_end, i.e. the evaluation
    # functional needs an ever-larger constant
    w = rep.witness
    assert abs(evaluate(w, 1.1) - 1.0) <= 1e-9
    assert norm_sq(section(M_UNIT, 32), w) == pytest.approx(rep.details["gamma_end"], rel=1e-9)


def test_bpe_witness_attains_gamma_where_its_norm_overflows():
    # ||W e||^2 leaves the double range at a = 1e8, n = 21, though W e does not
    rep = bpe_decide(M_UNIT, 1e8, 21)
    assert rep.verdict == "fails"
    assert np.count_nonzero(rep.witness) == 21
    assert abs(evaluate(rep.witness, 1e8) - 1.0) <= 1e-12


def test_bpe_boundary_point_is_inconclusive():
    # gamma_n = 1/n exactly: too slow for "fails", too alive for "holds"
    rep = bpe_decide(M_UNIT, 1.0, 32)
    assert rep.verdict == "inconclusive"
    assert rep.details["decay_over_last_doubling"] == pytest.approx(2.0, rel=1e-12)
    assert rep.witness is None


def test_bpe_gamma_floor_cuts_off():
    rep = bpe_decide(M_UNIT, 1.2, 32)
    assert rep.verdict == "fails"
    assert rep.details["gamma_end"] <= 1e-4


def test_bpe_needs_window():
    with pytest.raises(ValueError):
        bpe_decide(M_UNIT, 0.5, 3)


# ---------------------------------------------------------------------------
# PSD criteria
# ---------------------------------------------------------------------------

def test_wirtinger_identity_weight_holds_with_constant_one():
    rep = wirtinger_psd_check(M_UNIT, 1.0, 16)
    assert rep.verdict == "holds"
    assert rep.values[0] >= -1e-12
    assert rep.witness is None


def test_wirtinger_sharp_constant_on_unit_circle():
    # constant c < 1 is beaten by p(z) = z: ||z||^2 = 1 > c * ||1||^2
    rep = wirtinger_psd_check(M_UNIT, 0.9, 4)
    assert rep.verdict == "fails"
    assert rep.values[0] == pytest.approx(-0.1, abs=1e-12)
    w = rep.witness
    assert w[0] == 0.0
    g = section(M_UNIT, len(w))
    lhs = norm_sq(g, w)
    rhs = 0.9 * norm_sq(g, differentiate(w))
    assert lhs - rhs >= 0.1 - 1e-12


def test_wirtinger_cosine_weight_fails_frozen_eigenvalue():
    rep = wirtinger_psd_check(mm.of_measure(W04), 1.0, 3)
    assert rep.verdict == "fails"
    assert rep.values[0] == pytest.approx(-0.0623486272416134, abs=1e-13)
    # re-check the witness against measure norms, not matrix algebra
    w = rep.witness
    assert w[0] == 0.0
    g = section(mm.of_measure(W04), len(w))
    violation = norm_sq(g, w) - 1.0 * norm_sq(g, differentiate(w))
    assert violation > criteria.WITNESS_MARGIN
    assert violation == pytest.approx(-rep.values[0], rel=1e-9)


def test_wirtinger_radius_squared_constant_for_centered_circles():
    # ||p||^2 <= r^2 ||p'||^2 on |z| = r when p(0) = 0
    assert wirtinger_psd_check(M_HALF, 0.25, 16).verdict == "holds"
    big = mm.of_measure(CircleLebesgue(0.0, 2.0))
    assert wirtinger_psd_check(big, 4.0, 16).verdict == "holds"
    # just below the sharp constant, p(z) = z violates by 0.1; the graded
    # section (entries up to 4^15) must not drown that out
    rep = wirtinger_psd_check(big, 3.9, 16)
    assert rep.verdict == "fails"
    assert rep.values[0] == pytest.approx(-0.1, abs=1e-3)


@pytest.mark.parametrize("r, n", [(1.0, 8), (1.0, 16), (1.0, 20), (2.0, 8)])
def test_wirtinger_closed_form_constant_is_bounded_and_attained_by_z(r, n):
    # the certificate of the Wirtinger built-ins: the PSD check holds just
    # above c = r^2 and fails just below it with the witness z, whose ratio
    # ||z||^2 / ||1||^2 is c
    m, c = mm.of_measure(CircleLebesgue(0.0, r)), r * r
    assert wirtinger_psd_check(m, c * (1.0 + 1e-9), n).verdict == "holds"
    rep = wirtinger_psd_check(m, c * (1.0 - 1e-6), n)
    assert rep.verdict == "fails"
    assert rep.witness.tobytes() == np.eye(n + 1, dtype=complex)[1].tobytes()
    z = np.array([0.0, 1.0])
    ratio = norm_sq(section(m, n + 1), z) / norm_sq(section(m, n), differentiate(z))
    assert abs(ratio - c) <= 1e-12 * c


def test_wirtinger_tolerance_hides_a_constant_that_the_witness_rules_out():
    # the holds-tolerance scales with the largest eigenvalue: on |z| = 2 at
    # n = 12, c = 4 (1 - 1e-6) still reads "holds", while z's ratio 4 shows
    # that no constant below 4 holds
    m, c = mm.of_measure(CircleLebesgue(0.0, 2.0)), 4.0 * (1.0 - 1e-6)
    rep = wirtinger_psd_check(m, c, 12)
    assert rep.verdict == "holds"
    assert -rep.details["tolerance"] <= rep.values[0] < 0.0
    z = np.array([0.0, 1.0])
    assert norm_sq(section(m, 13), z) / norm_sq(section(m, 12), differentiate(z)) > c


def test_wirtinger_shifted_circle_needs_larger_constant():
    # centering matters: on |z - a| = r the monomial z has norm^2
    # |a|^2 + r^2, so c = r^2 fails once a != 0 (via p(z) = z)
    a = 0.7 - 0.3j
    m = mm.of_measure(CircleLebesgue(a, 2.0))
    rep = wirtinger_psd_check(m, 4.0, 12)
    assert rep.verdict == "fails"
    assert rep.values[0] <= -abs(a) ** 2 * 0.9
    g = section(m, len(rep.witness))
    w = rep.witness
    assert norm_sq(g, w) - 4.0 * norm_sq(g, differentiate(w)) > criteria.WITNESS_MARGIN
    # the critical constant at this section size is the top eigenvalue of
    # (M', N M N); straddling it flips the verdict
    n = 8
    full = section(m, n)
    deleted = section(m, n + 1)[1:, 1:]
    scale = np.arange(1, n + 1, dtype=float)
    c_star = float(
        pencil_eigvals(deleted, scale[:, None] * full * scale[None, :])[-1]
    )
    assert c_star > 4.0
    assert wirtinger_psd_check(m, c_star * (1.0 + 1e-6), n).verdict == "holds"
    assert wirtinger_psd_check(m, c_star * (1.0 - 1e-3), n).verdict == "fails"


def test_wirtinger_graded_diagonal_fails_exactly():
    # moments diag(5^k): entry j of the criterion matrix is 5^(j-1) (j^2 - 5),
    # minimized at j = 2 with value -5
    m = mm.of_measure(CircleLebesgue(0.0, math.sqrt(5.0)))
    rep = wirtinger_psd_check(m, 1.0, 8)
    assert rep.verdict == "fails"
    assert rep.values[0] == pytest.approx(-5.0, rel=1e-12)
    npt.assert_allclose(np.abs(rep.witness), np.eye(9)[2], atol=1e-8)


def test_wirtinger_validation():
    with pytest.raises(ValueError):
        wirtinger_psd_check(M_UNIT, 1.0, 1)
    with pytest.raises(ValueError):
        wirtinger_psd_check(M_UNIT, 1.0, 65)
    with pytest.raises(ValueError):
        wirtinger_psd_check(M_UNIT, 0.0, 8)
    with pytest.raises(ValueError):
        wirtinger_psd_check(M_UNIT, -2.0, 8)


def test_rigidity_identity_multiple_holds():
    rep = toeplitz_rigidity(mm.toeplitz_rule({0: 3.0}, label="3I"), 8)
    assert rep.verdict == "holds"
    assert rep.details["is_identity_multiple"]
    assert rep.details["diagonal_value"] == 3.0
    assert rep.details["offdiag_max"] == 0.0


def test_rigidity_nontrivial_toeplitz_fails():
    rep = toeplitz_rigidity(mm.of_measure(W04), 8)
    assert rep.verdict == "fails"
    assert not rep.details["is_identity_multiple"]
    assert rep.details["offdiag_max"] == pytest.approx(0.4)
    assert rep.witness is not None and rep.witness[0] == 0.0


def test_rigidity_verdict_equals_offdiagonal_test_on_random_toeplitz():
    rng = np.random.default_rng(99)
    for trial in range(20):
        c = {0: complex(rng.uniform(0.5, 2.0))}
        if trial % 2:
            for k in range(1, 4):
                rad = 0.05 * math.sqrt(rng.uniform())
                ang = rng.uniform(0.0, 2.0 * math.pi)
                c[k] = rad * complex(math.cos(ang), math.sin(ang))
        rep = toeplitz_rigidity(mm.toeplitz_rule(c), 8)
        assert (rep.verdict == "holds") == rep.details["is_identity_multiple"]


def _rigidity_cases() -> list:
    """Fresh matrices: 3 I, the weight 1 + 0.8 cos (which fails) and 30
    random Hermitian Toeplitz rules, half of them diagonal."""
    rng = np.random.default_rng(17)
    cases = [mm.toeplitz_rule({0: 3.0}, label="3I"),
             mm.of_measure(WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.4), (-1, 0.4))))]
    for trial in range(30):
        c = {0: complex(rng.uniform(0.5, 2.0))}
        for k in range(1, 4 if trial % 2 else 1):
            c[k] = 0.05 * math.sqrt(rng.uniform()) * complex(math.cos(k + trial), math.sin(k + trial))
        cases.append(mm.toeplitz_rule(c, label=f"case-{trial}"))
    return cases


def test_stacked_rigidities_are_the_reports_of_one_at_a_time_calls():
    together = toeplitz_rigidities(_rigidity_cases(), 8)
    assert together[1].verdict == "fails" and together[0].verdict == "holds"
    for t, rep in zip(_rigidity_cases(), together):
        alone = toeplitz_rigidity(t, 8)
        # JSON floats are exact: verdict, lambda_min, tolerance and witness bits
        assert json.dumps(rep.to_dict()) == json.dumps(alone.to_dict())
        assert type(rep.details["tolerance"]) is type(alone.details["tolerance"])
        # lambda_min of W = N M_8 N - M^(1,1) as one eigvalsh of its own
        big = section(t, 9)
        scale = np.arange(1, 9, dtype=float)
        w = 1.0 * (scale[:, None] * big[:8, :8] * scale[None, :]) - big[1:, 1:]
        assert rep.values == [float(np.linalg.eigvalsh(w)[0])]
        assert (rep.verdict == "holds") == rep.details["is_identity_multiple"]


def test_psd_reports_take_witnesses_from_the_failing_matrices_alone(monkeypatch):
    # one eigenvalue-only solve of the stack decides; the witnesses of the
    # failing matrices are bitwise those of one eigh of the whole stack
    ms = [M_UNIT, mm.of_measure(W04), mm.of_measure(CircleLebesgue(0.0, 2.0)), mm.of_measure(CircleLebesgue(0.0, 0.5))]
    scale = np.arange(1, 9, dtype=float)
    cs = [1.0, 1.0, 3.9, 0.25]
    ws = np.stack([c * (scale[:, None] * section(m, 8) * scale) - section(m, 9)[1:, 1:] for m, c in zip(ms, cs)])
    lams, vecs = np.linalg.eigvalsh(ws), np.linalg.eigh(ws)[1]
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    reports = criteria._psd_reports("w", [{}] * 4, ws, [f"case {k}" for k in range(4)], cs)
    assert [r.verdict for r in reports] == ["holds", "fails", "fails", "holds"]
    assert shapes == [(2, 8, 8)]
    assert [r.constant for r in reports] == cs
    for k, rep in enumerate(reports):
        assert rep.values == [float(lams[k, 0])]
        if rep.verdict == "fails":
            assert rep.witness.tobytes() == criteria._canonical_vector(np.conj(vecs[k, :, 0])).tobytes()
        else:
            assert rep.witness is None


def _violation(rep, m0, m1, a=0j):
    """||p - p(a)||^2 - c ||p'||^2 of a Wirtinger-type witness p in the
    matrix m1, or ||p||^2_{M1} - c ||p||^2_{M0} of a dominance witness,
    each norm recomputed on the sections."""
    p = rep.witness.copy()
    if m0 is None:
        p[0] -= evaluate(p, a)
        return norm_sq(section(m1, len(p)), p) - rep.constant * norm_sq(section(m1, len(p) - 1), differentiate(p))
    return norm_sq(section(m1, len(p)), p) - rep.constant * norm_sq(section(m0, len(p)), p)


def test_every_failing_psd_report_carries_a_witness_beyond_the_margin():
    a, r = 0.4 - 0.3j, 0.8
    shifted = mm.of_measure(CircleLebesgue(a, r))
    secs = section(shifted, 13)[None]
    cases = [
        (wirtinger_psd_check(mm.of_measure(W04), 1.0, 3), None, mm.of_measure(W04), 0j),
        (wirtinger_psd_check(M_UNIT, 0.9, 12), None, M_UNIT, 0j),
        (dominance_check(M_HALF, M_UNIT, 1e6, 16), M_HALF, M_UNIT, 0j),
        (dominance_check(M_UNIT, mm.of_measure(W04), 1.0, 8), M_UNIT, mm.of_measure(W04), 0j),
        (toeplitz_rigidity(mm.of_measure(W04), 8), None, mm.of_measure(W04), 0j),
        # half the sharp constant r^2 on |z - a| = r
        (criteria._shifted_wirtinger([{}], ["shifted"], secs, np.array([a]), r * r / 2)[0][0], None, shifted, a),
    ]
    for rep, m0, m1, center in cases:
        assert rep.verdict == "fails"
        if m0 is None:  # the witness is lifted to a row that vanishes at the shift point
            assert abs(complex(evaluate(rep.witness, center))) <= 1e-12
        assert _violation(rep, m0, m1, center) > criteria.WITNESS_MARGIN
        assert _violation(rep, m0, m1, center) == pytest.approx(-rep.values[0], rel=1e-9)


def test_circle_wirtinger_checks_validation():
    for centers, radii, n in (([0j], [1.0], 1), ([0j], [1.0], 65), ([0j], [0.0], 8), ([complex("nan")], [1.0], 8)):
        with pytest.raises(ValueError):
            criteria.circle_wirtinger_checks(centers, radii, n)


def test_rigidity_requires_toeplitz():
    with pytest.raises(ValueError):
        toeplitz_rigidity(M_HALF, 8)


def test_dominance_graded_gap_fails_with_high_degree_witness():
    rep = dominance_check(M_HALF, M_UNIT, 1e6, 16)
    assert rep.verdict == "fails"
    # lambda_min = 1e6 / 4^15 - 1 on the diagonal
    assert rep.values[0] == pytest.approx(1e6 / 4.0**15 - 1.0, rel=1e-12)
    w = rep.witness
    assert int(np.argmax(np.abs(w))) == 15
    # witness violation re-checked through measure norms
    lhs = norm_sq(section(M_UNIT, 16), w)
    rhs = 1e6 * norm_sq(section(M_HALF, 16), w)
    assert lhs - rhs == pytest.approx(-rep.values[0], rel=1e-9)


def test_dominance_reverse_direction_holds():
    rep = dominance_check(M_UNIT, M_HALF, 1.0, 16)
    assert rep.verdict == "holds"
    assert rep.witness is None


def test_dominance_validation():
    with pytest.raises(ValueError):
        dominance_check(M_UNIT, M_HALF, 0.0, 4)
    with pytest.raises(ValueError):
        dominance_check(M_UNIT, M_HALF, 1.0, 0)


def test_dominance_holds_implies_settled_sobolev_constant():
    # if M1 <= C M0 entrywise as forms, the Sobolev domination constant
    # (best C with ||q||_{M1}^2 <= C ||q||_{Sobolev}^2) cannot exceed C
    assert dominance_check(M_UNIT, M_HALF, 1.0, 24).verdict == "holds"
    pen = pencil_of_measures(UNIT, HALF)
    seq = norm_sequence(pen, 24, "cond4")
    assert seq.ok()
    assert max(seq.values) <= 1.0 + 1e-10


# ---------------------------------------------------------------------------
# plateau-based bounds
# ---------------------------------------------------------------------------

def test_sobolev_domination_zero_derivative_part():
    rep = sobolev_domination_bound(pencil_of_measures(UNIT, None), 16)
    assert rep.verdict == "holds"
    assert rep.constant == 0.0
    assert rep.n_list[0] == 2 and rep.n_list[-1] == 16


def test_sobolev_domination_frozen_constants():
    rep = sobolev_domination_bound(pencil_of_measures(HALF, UNIT), 32)
    assert rep.verdict == "holds"
    assert rep.constant == pytest.approx(1.0, rel=1e-12)
    atoms = Atomic(((0.3 + 0.0j, 1.0), (-0.2 + 0.4j, 1.0)))
    rep5 = sobolev_domination_bound(pencil_of_measures(UNIT, atoms), 32)
    assert rep5.verdict == "holds"
    assert rep5.constant == pytest.approx(2.0429426345571247, rel=1e-9)
    with pytest.raises(ValueError):
        sobolev_domination_bound(pencil_of_measures(UNIT, None), 1)


def test_sobolev_domination_radius_two_settles_at_two():
    # ratio 4^k / (1 + k^2 4^(k-1)) peaks at k = 1 with value exactly 2
    rep = sobolev_domination_bound(pencil_of_measures(UNIT, CircleLebesgue(0.0, 2.0)), 16)
    assert rep.verdict == "holds"
    assert rep.constant == pytest.approx(2.0, rel=1e-12)


def test_sobolev_domination_inconclusive_paths():
    # window too short for the plateau rule to compare n_max//2 vs n_max
    rep = sobolev_domination_bound(pencil_of_measures(UNIT, UNIT), 3)
    assert rep.verdict == "inconclusive"
    # singular base sections: per-n failures are carried, never raised
    atoms = Atomic(((0.5 + 0.0j, 1.0),))
    rep = sobolev_domination_bound(pencil_of_measures(atoms, None), 8)
    assert rep.verdict == "inconclusive"
    assert rep.details["errors"]


def test_comparability_identical_pencils():
    pen = pencil_of_measures(W04, HALF)
    rep = comparability_bounds(pen, pen, 16)
    assert rep.verdict == "holds"
    assert rep.constant == pytest.approx(1.0, rel=1e-12)
    assert rep.details["lower_constant"] == pytest.approx(1.0, rel=1e-12)


def test_comparability_frozen_two_sided_constants():
    pen_p = pencil_of_measures(HALF, UNIT)
    pen_q = pencil_of_measures(HALF_PLUS_UNIT, UNIT)
    rep = comparability_bounds(pen_p, pen_q, 32)
    assert rep.verdict == "holds"
    # diagonal ratio (4^-k + 1 + k^2) / (4^-k + k^2): max 2 at k = 0,
    # min at the top retained power k = 31
    assert rep.constant == pytest.approx(2.0, rel=1e-12)
    expected_lower = (4.0**-31 + 962.0) / (4.0**-31 + 961.0)
    assert rep.details["lower_constant"] == pytest.approx(expected_lower, rel=1e-12)
    assert all(v >= 1.0 for v in rep.details["lower_values"])
    assert len(rep.details["lower_values"]) == len(rep.n_list)


def test_comparability_unit_pencils_frozen():
    # ratio of diag(1 + k^2) to the identity: top value 1 + (n-1)^2, bottom 1
    rep = comparability_bounds(pencil_of_measures(UNIT, None), pencil_of_measures(UNIT, UNIT), 4)
    npt.assert_allclose(rep.values, [2.0, 5.0, 10.0], rtol=1e-12)
    npt.assert_allclose(rep.details["lower_values"], [1.0, 1.0, 1.0], rtol=1e-12)


def _fresh_gram(mu0, mu1, n):
    # a new pencil per call, so nothing is sliced from a larger section
    return gram_section(pencil_of_measures(mu0, mu1), n)


#: pencils (mu0, mu1) whose reduced matrix against (UNIT, UNIT) is not diagonal
NON_DIAGONAL_PAIRS = [
    (UNIT, CircleLebesgue(0.5, 2.0)),
    (W04, HALF),
    (CircleLebesgue(0.3 + 0.4j, 0.7), UNIT),
    (UNIT, Atomic(((0.3 + 0.0j, 1.0), (-0.2 + 0.4j, 1.0)))),
]


@pytest.mark.parametrize("mu0, mu1", NON_DIAGONAL_PAIRS)
def test_comparability_bounds_matches_per_size_reference(mu0, mu1):
    # the nested two-pencil path against one factorization per size
    rep = comparability_bounds(pencil_of_measures(mu0, mu1), pencil_of_measures(UNIT, UNIT), 20)
    assert rep.n_list == list(range(2, 21))
    for n, low, top in zip(rep.n_list, rep.details["lower_values"], rep.values):
        lam = pencil_eigvals(_fresh_gram(UNIT, UNIT, n), _fresh_gram(mu0, mu1, n))
        assert abs(top - lam[-1]) <= 1e-12 * abs(lam[-1])
        assert abs(low - lam[0]) <= 1e-12 * abs(lam[-1])


@pytest.mark.parametrize("mu0, mu1", NON_DIAGONAL_PAIRS)
def test_comparability_solves_no_size_twice(monkeypatch, mu0, mu1):
    # both ends of a size come from its one eigensolve
    sizes = counting_eigvalsh(monkeypatch)
    comparability_bounds(pencil_of_measures(mu0, mu1), pencil_of_measures(UNIT, UNIT), 20)
    assert sizes and len(set(sizes)) == len(sizes)


def test_comparability_raises_its_smallest_failing_size(monkeypatch):
    # example 6's Gram breaks down at pivot 56 at n_max 64; the one
    # eigensolve at size 10, which gives both ends, fails first and is the
    # error raised
    p = pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0))
    sizes = counting_eigvalsh(monkeypatch, lambda a: a.shape[0] == 10)
    with pytest.raises(ConvergenceFailure):
        comparability_bounds(p, pencil_of_measures(UNIT, UNIT), 64)
    assert sizes.count(10) == 1


def test_example7_comparability_solves_only_its_ends(monkeypatch):
    # example 7's reduced matrix is diagonal (concentric circles): sizes 1
    # and 64 are solved once, for both ends, and every other size is read
    # off the diagonal
    sizes = counting_eigvalsh(monkeypatch)
    rep = comparability_bounds(pencil_of_measures(HALF, UNIT), pencil_of_measures(HALF_PLUS_UNIT, UNIT), 64)
    assert rep.verdict == "holds"
    assert sizes == [1, 64]


def test_comparability_requires_window():
    with pytest.raises(ValueError):
        comparability_bounds(pencil_of_measures(UNIT, None), pencil_of_measures(UNIT, None), 1)


# ---------------------------------------------------------------------------
# weighted circles
# ---------------------------------------------------------------------------

def test_weight_grid_extremes():
    gmin, gmax = weight_grid_extremes(WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.5), (-1, 0.5))).fourier)
    assert gmin == 0.0  # 1 + cos(pi), grid contains pi
    assert gmax == 2.0
    gmin, gmax = weight_grid_extremes(WeightedCircle(0.0, 1.0, ((0, 1.0),)).fourier)
    assert (gmin, gmax) == (1.0, 1.0)


def test_eigen_limit_report_lebesgue_weight():
    rep = eigen_limit_report(((0, 1.0),), [16])
    assert (rep.values[0], rep.details["beta_values"][0]) == (1.0, 1.0)


def test_eigen_limit_report_brackets_weight_range():
    rep = eigen_limit_report(((0, 2.0), (1, 0.5), (-1, 0.5)), [32])
    lam, beta = rep.values[0], rep.details["beta_values"][0]
    assert 1.0 - 1e-10 <= lam <= beta <= 3.0 + 1e-10
    assert lam == pytest.approx(1.0045280774269154, rel=1e-9)
    assert beta == pytest.approx(2.9954719225730844, rel=1e-9)


def test_eigen_limit_report_frozen_squeeze():
    rep = eigen_limit_report(((0, 1.0), (1, 0.4), (-1, 0.4)), [4, 8, 16, 32])
    assert rep.verdict == "holds"
    assert rep.details["grid_min"] == pytest.approx(0.2, abs=1e-12)
    assert rep.details["grid_max"] == pytest.approx(1.8, abs=1e-12)
    npt.assert_allclose(
        rep.values, [0.352786, 0.248246, 0.213622, 0.203622], atol=1e-6
    )
    npt.assert_allclose(
        rep.details["beta_values"], [1.647214, 1.751754, 1.786378, 1.796378], atol=1e-6
    )
    assert rep.details["inside_sandwich"] and rep.details["gaps_shrink"]


def test_eigen_limit_report_validation():
    with pytest.raises(ValueError):
        eigen_limit_report(((0, 1.0),), [])
    with pytest.raises(ValueError):
        eigen_limit_report(((0, 1.0),), [4, 4])
    with pytest.raises(ValueError):
        eigen_limit_report(((0, 1.0),), [8, 4])


def test_weighted_circles_report_holds():
    rep = bpe_weighted_circles_report(HALF, [WeightedCircle(0.0, 1.0, ((0, 1.0),))], 32)
    assert rep.verdict == "holds"
    assert rep.constant == pytest.approx(math.sqrt(3.25), rel=1e-12)
    assert rep.details["center_gammas"] == [1.0]
    assert rep.details["gamma_min"] == 1.0
    assert rep.details["domination_verdict"] == "holds"
    assert rep.details["mult_op_settled"]


def test_weighted_circles_report_rejects_bad_center():
    with pytest.raises(CenterNotBoundedEvaluation) as info:
        bpe_weighted_circles_report(UNIT, [WeightedCircle(1.2 + 0.0j, 0.5, ((0, 1.0),))], 16)
    assert info.value.center == 1.2 + 0.0j


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

def test_report_to_dict_fixed_order_and_witness_pairs():
    rep = CriterionReport(
        subject={"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
        criterion="demo",
        n_list=[2, 3],
        values=[0.5, 0.25],
        verdict="holds",
        witness=np.array([1.0 + 2.0j, -0.5j]),
        constant=2.0,
    )
    d = rep.to_dict()
    assert list(d.keys()) == [
        "subject",
        "criterion",
        "n_list",
        "values",
        "verdict",
        "witness",
        "constant",
        "parameters",
        "details",
    ]
    assert d["witness"] == [[1.0, 2.0], [-0.0, -0.5]]
    assert d["n_list"] == [2, 3]
    assert bpe_decide(M_UNIT, 0.5, 8).to_dict()["witness"] is None


@pytest.mark.parametrize("m", [M_UNIT, M_HALF, mm.of_measure(W04), mm.of_measure(CircleLebesgue(0.2 - 0.1j, 1.2))])
def test_gamma_sequence_matches_linear_solve(m):
    n_max = 24
    for a in (0.0, 0.5 - 0.3j, 0.9j):
        seq = criteria.gamma_sequence(m, a, n_max)
        assert len(seq) == n_max
        for n in range(1, n_max + 1):
            # a fresh matrix per size, so the section is built at size n
            g = section(mm.MomentMatrix(build=m.build), n)
            e = a ** np.arange(n)
            ref = 1.0 / float(np.real(np.vdot(e, np.linalg.solve(g, e))))
            assert abs(seq[n - 1] - ref) <= 1e-12 * ref
        assert gamma_index(m, a, n_max) == seq[-1]
