"""Acceptance gate: ten end-to-end checks with stated tolerances.

Each test prints exactly one PASS/FAIL line (past pytest's capture) so a
plain ``pytest -v`` run shows the per-criterion outcome inline.
"""

import math

import numpy as np
import pytest

from sobolevlab import criteria, measures, momentmatrix, sobolev
from sobolevlab.cli import list_builtins, run_builtin
from sobolevlab.measures import Atomic, CircleLebesgue, MeasureSum, WeightedCircle
from sobolevlab.polynomials import differentiate, evaluate, random_coeffs

from oracles import recenter

UNIT = CircleLebesgue(0.0, 1.0)
HALF = CircleLebesgue(0.0, 0.5)
HALF_PLUS_UNIT = MeasureSum(((1.0, HALF), (1.0, UNIT)))
W_COS08 = ((0, 1.0 + 0j), (1, 0.4 + 0j), (-1, 0.4 + 0j))

SEED = 20260814


def _announce(capsys, k, ok, message):
    with capsys.disabled():
        print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} — {message}")


def test_acceptance_01_identity_moments(capsys):
    """Unit-circle moments are exactly the identity; quadrature agrees to 1e-10."""
    n = 32
    a = momentmatrix.section(momentmatrix.of_measure(UNIT), n)
    identity_dev = float(np.max(np.abs(a - np.eye(n))))
    quad_dev = 0.0
    for i in range(n):
        for j in range(n):
            q = measures.moment_quadrature(UNIT, i, j, 4096)
            quad_dev = max(quad_dev, abs(a[i, j] - q))
    ok = identity_dev == 0.0 and quad_dev <= 1e-10
    _announce(
        capsys, 1, ok,
        f"identity moments i,j<{n}: exact deviation {identity_dev:.1e} (tol 0), "
        f"quadrature deviation {quad_dev:.2e} (tol 1e-10)",
    )
    assert identity_dev == 0.0
    assert quad_dev <= 1e-10


def test_acceptance_02_shifted_circle_inequality(capsys):
    """||p - p(a)||^2 <= r^2 ||p'||^2 on 500 seeded polynomials over 20
    shifted circles (r in (0, 2]), with the recentered closed form checked
    against quadrature."""
    rng = np.random.default_rng(SEED)
    worst_excess = -math.inf
    worst_identity = 0.0
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    for _ in range(20):
        rad = math.sqrt(rng.uniform(0.0, 1.0))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        a = rad * complex(math.cos(ang), math.sin(ang))
        r = 2.0 * rng.uniform(0.05, 1.0)
        sec = momentmatrix.section(momentmatrix.of_measure(CircleLebesgue(a, r)), 20)
        for sample in range(25):
            deg = int(rng.integers(1, 21))
            v = random_coeffs(rng, deg)
            b = recenter(v, a)
            r2k = r ** (2 * np.arange(len(b)))
            lhs = float(np.sum(np.abs(b[1:]) ** 2 * r2k[1:]))
            rhs = momentmatrix.norm_sq(sec[:deg, :deg], differentiate(v))
            scale = max(lhs, r * r * rhs, 1e-300)
            worst_excess = max(worst_excess, (lhs - r * r * rhs) / scale)
            if sample < 5:
                z = a + r * np.exp(1j * theta)
                quad = float(np.mean(np.abs(evaluate(v, z) - complex(evaluate(v, a))) ** 2))
                worst_identity = max(worst_identity, abs(lhs - quad) / (1.0 + abs(quad)))
    ok = worst_excess <= 1e-9 and worst_identity <= 1e-10
    _announce(
        capsys, 2, ok,
        f"shifted-circle derivative bound on 500 polynomials: worst relative excess "
        f"{worst_excess:.2e} (tol 1e-9), closed-form vs quadrature {worst_identity:.2e} (tol 1e-10)",
    )
    assert worst_excess <= 1e-9
    assert worst_identity <= 1e-10


def test_acceptance_03_gamma_two_methods(capsys):
    """Cholesky and reproducing-kernel routes to the point-evaluation index
    agree to 1e-9 relative on a 25-point grid; the unit-circle closed form
    holds to 1e-10 relative."""
    points = [
        rad * complex(math.cos(2.0 * math.pi * t / 5.0), math.sin(2.0 * math.pi * t / 5.0))
        for rad in (0.1, 0.3, 0.5, 0.7, 0.9)
        for t in range(5)
    ]
    worst_gap = 0.0
    worst_closed = 0.0
    for m, is_unit in ((momentmatrix.of_measure(UNIT), True), (momentmatrix.of_measure(HALF), False)):
        for a in points:
            for n in (2, 8, 16, 24):
                g1 = criteria.gamma_index(m, a, n)
                g2 = criteria.gamma_via_kernel(m, a, n)
                worst_gap = max(worst_gap, abs(g1 - g2) / g1)
                if is_unit:
                    t = abs(a) ** 2
                    closed = (1.0 - t) / (1.0 - t**n)
                    worst_closed = max(worst_closed, abs(g1 - closed) / closed)
    ok = worst_gap <= 1e-9 and worst_closed <= 1e-10
    _announce(
        capsys, 3, ok,
        f"point-evaluation index, two methods on 25 points x two measures x n<=24: "
        f"relative gap {worst_gap:.2e} (tol 1e-9), closed form {worst_closed:.2e} (tol 1e-10)",
    )
    assert worst_gap <= 1e-9
    assert worst_closed <= 1e-10


def test_acceptance_04_bpe_disk_boundary(capsys):
    """Bounded point evaluation on the unit-circle matrix: holds for
    |a| <= 0.9, fails for |a| >= 1.1 (n_max = 32), with gamma_32 <= 1e-4
    at |a| = 1.2."""
    m = momentmatrix.of_measure(UNIT)
    angles = [2.0 * math.pi * k / 8.0 for k in range(8)]
    bad = []
    gamma_12_max = 0.0
    for rad in (0.3, 0.6, 0.9, 1.1, 1.2, 1.3):
        for ang in angles:
            a = rad * complex(math.cos(ang), math.sin(ang))
            rep = criteria.bpe_decide(m, a, 32)
            expected = "holds" if rad <= 0.9 else "fails"
            if rep.verdict != expected:
                bad.append((a, rep.verdict))
            if rad == 1.2:
                gamma_12_max = max(gamma_12_max, rep.details["gamma_end"])
    ok = not bad and gamma_12_max <= 1e-4
    _announce(
        capsys, 4, ok,
        f"bpe verdicts on 48 disk points at n_max=32: {len(bad)} mismatches "
        f"(tol 0), max gamma_32 at |a|=1.2 is {gamma_12_max:.2e} (tol 1e-4)",
    )
    assert not bad
    assert gamma_12_max <= 1e-4


def test_acceptance_05_wirtinger_and_rigidity(capsys):
    """The 0.8-cosine weight violates the constant-1 derivative bound at
    n = 3 with a re-checkable witness; on 50 seeded Toeplitz matrices the
    rigidity verdict coincides with the direct off-diagonal test."""
    m = momentmatrix.of_measure(WeightedCircle(0.0, 1.0, W_COS08))
    rep = criteria.wirtinger_psd_check(m, 1.0, 3)
    w = rep.witness
    g = momentmatrix.section(m, len(w))
    violation = momentmatrix.norm_sq(g, w) - momentmatrix.norm_sq(g, differentiate(w))
    witness_ok = rep.verdict == "fails" and violation > 1e-10

    rng = np.random.default_rng(SEED + 5)
    mismatches = 0
    for trial in range(50):
        c = {0: complex(rng.uniform(0.5, 2.0))}
        if rng.uniform() < 0.5:
            for k in range(1, 4):
                rad = 0.05 * math.sqrt(rng.uniform())
                ang = rng.uniform(0.0, 2.0 * math.pi)
                c[k] = rad * complex(math.cos(ang), math.sin(ang))
        t = momentmatrix.toeplitz_rule(c, label=f"accept-rigidity-{trial}")
        rrep = criteria.toeplitz_rigidity(t, 8)
        if (rrep.verdict == "holds") != rrep.details["is_identity_multiple"]:
            mismatches += 1
    ok = witness_ok and mismatches == 0
    _announce(
        capsys, 5, ok,
        f"wirtinger witness violation {violation:.4e} (needs > 1e-10) and "
        f"rigidity-vs-offdiagonal mismatches {mismatches}/50 (tol 0)",
    )
    assert witness_ok
    assert mismatches == 0


def test_acceptance_06_dominance_and_comparability(capsys):
    """No uniform constant ties the radius-1 norm to the radius-1/2 norm
    (witness a monomial of degree >= 10 at C = 1e6), while the two Sobolev
    norms built on them are comparable with settled two-sided constants."""
    dom = criteria.dominance_check(
        momentmatrix.of_measure(HALF), momentmatrix.of_measure(UNIT), 1e6, 16
    )
    top = None if dom.witness is None else int(np.argmax(np.abs(dom.witness)))
    dom_ok = dom.verdict == "fails" and top is not None and top >= 10

    pen_p = sobolev.pencil_of_measures(HALF, UNIT)
    pen_q = sobolev.pencil_of_measures(HALF_PLUS_UNIT, UNIT)
    comp = criteria.comparability_bounds(pen_p, pen_q, 32)
    uppers = dict(zip(comp.n_list, comp.values))
    upper_drift = abs(uppers[32] - uppers[16]) / uppers[16]
    comp_ok = (
        comp.verdict == "holds"
        and min(comp.details["lower_values"]) >= 1.0
        and upper_drift <= 0.01
    )

    ratio_dev = 0.0
    for k in range(1, 21):
        got = measures.moment(HALF_PLUS_UNIT, k, k).real / measures.moment(HALF, k, k).real
        expected = 1.0 + 4.0**k
        ratio_dev = max(ratio_dev, abs(got - expected) / expected)
    ok = dom_ok and comp_ok and ratio_dev <= 1e-8
    _announce(
        capsys, 6, ok,
        f"dominance fails with witness power {top} (needs >= 10); comparability "
        f"lower >= 1, upper drift 16->32 {upper_drift:.2e} (tol 1e-2); "
        f"monomial ratio vs 1+4^k deviation {ratio_dev:.2e} (tol 1e-8)",
    )
    assert dom_ok
    assert comp_ok
    assert ratio_dev <= 1e-8


def test_acceptance_07_shift_operator_norms(capsys):
    """Multiplication by z is an exact isometry for the unit circle and a
    1/2-contraction for the half-radius circle, to 1e-10 at every section."""
    dev_unit = max(
        abs(sobolev.mult_op_norm(sobolev.pencil_of_measures(UNIT, None), n) - 1.0)
        for n in range(1, 33)
    )
    dev_half = max(
        abs(sobolev.mult_op_norm(sobolev.pencil_of_measures(HALF, None), n) - 0.5)
        for n in range(1, 25)
    )
    ok = dev_unit <= 1e-10 and dev_half <= 1e-10
    _announce(
        capsys, 7, ok,
        f"shift-operator norms: |.-1| <= {dev_unit:.2e} for radius 1 (n<=32), "
        f"|.-1/2| <= {dev_half:.2e} for radius 1/2 (n<=24); tol 1e-10",
    )
    assert dev_unit <= 1e-10
    assert dev_half <= 1e-10


def test_acceptance_08_zero_confinement(capsys):
    """Zeros of the orthonormal polynomials stay inside the disk of radius
    ||multiplication by z|| (slack 1e-6) for degrees <= 20, and the norm
    sequence itself settles by n = 32."""
    pens = [
        sobolev.pencil_of_measures(UNIT, CircleLebesgue(0.5, 2.0), label="circles"),
        sobolev.pencil_of_measures(HALF, UNIT, label="half-unit"),
        sobolev.pencil_of_measures(UNIT, Atomic(((0.3 + 0.0j, 1.0), (-0.2 + 0.4j, 1.0))), label="discrete"),
    ]
    worst = -math.inf
    plateaus = []
    for pen in pens:
        for deg in range(1, 21):
            zeros = sobolev.sobolev_zeros(pen, deg)
            bound = sobolev.mult_op_norm(pen, deg + 1)
            worst = max(worst, float(np.max(np.abs(zeros))) - bound)
        seq = sobolev.norm_sequence(pen, 32, "mult_op")
        plateaus.append(seq.ok() and sobolev.plateau(seq.n_list, seq.values))
    ok = worst <= 1e-6 and all(plateaus)
    _announce(
        capsys, 8, ok,
        f"zero confinement over 3 pencils, degrees <= 20: worst excess over the "
        f"operator-norm bound {worst:.3e} (tol 1e-6); norm sequences settled: "
        f"{sum(plateaus)}/3",
    )
    assert worst <= 1e-6
    assert all(plateaus)


def test_acceptance_09_eigenvalue_sandwich(capsys):
    """Extreme eigenvalues of the 0.8-cosine weighted sections stay inside
    the weight range [0.2, 1.8] (slack 1e-10) and squeeze toward it
    monotonically over n = 8, 16, 32."""
    rep = criteria.eigen_limit_report(W_COS08, [8, 16, 32])
    lam32 = rep.values[-1]
    beta32 = rep.details["beta_values"][-1]
    inside = lam32 >= 0.2 - 1e-10 and beta32 <= 1.8 + 1e-10
    ok = rep.verdict == "holds" and inside
    _announce(
        capsys, 9, ok,
        f"eigenvalue sandwich at n=32: lambda_min {lam32:.6f} >= 0.2 - 1e-10, "
        f"lambda_max {beta32:.6f} <= 1.8 + 1e-10, gaps shrink over n=8,16,32: "
        f"{rep.details['gaps_shrink']}",
    )
    assert rep.verdict == "holds"
    assert inside


def test_acceptance_10_deterministic_suite(capsys, tmp_path):
    """The full builtin suite reports 'holds' everywhere and twice-run
    output files are byte-identical at seed 0."""
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    verdicts = {}
    for d in dirs:
        for name in list_builtins():
            verdicts[name] = run_builtin(name, str(d), seed=0)["verdict"]
    files1 = sorted(p.name for p in dirs[0].iterdir())
    files2 = sorted(p.name for p in dirs[1].iterdir())
    same_names = files1 == files2 and len(files1) > 0
    diff = [
        name
        for name in files1
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes()
    ]
    all_hold = all(v == "holds" for v in verdicts.values())
    ok = all_hold and same_names and not diff
    _announce(
        capsys, 10, ok,
        f"builtin suite: {sum(v == 'holds' for v in verdicts.values())}/11 hold; "
        f"{len(files1)} output files byte-identical across two seed-0 runs "
        f"({len(diff)} differing)",
    )
    assert all_hold, verdicts
    assert same_names
    assert not diff, diff
