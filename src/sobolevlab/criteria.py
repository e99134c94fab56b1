"""Boundedness criteria on finite sections, with auditable reports.

Every decision procedure returns a CriterionReport, the one verdict
record behind every report: the subject it tested as JSON (a measure's
``measures.to_json``, a pencil's {"m0": ..., "m1": ...}, a Toeplitz
rule's coefficients), the numbers it looked at, the thresholds it
applied, and -- whenever the verdict is "fails" -- a coefficient-vector
witness that violates the defining inequality by a re-checkable margin.
Verdicts are three-valued:

* "holds":        the finite-section evidence satisfies the criterion,
* "fails":        a concrete witness violates it,
* "inconclusive": the sections are too small or too marginal to say.

Nothing here certifies asymptotics; the reports describe what happens on
sections up to the requested size, under documented tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import measures, momentmatrix, numkernel, sobolev
from .momentmatrix import MomentMatrix
from .polynomials import evaluate, vandermonde

__all__ = [
    "CenterNotBoundedEvaluation",
    "CriterionReport",
    "bpe_columns",
    "bpe_decide",
    "bpe_weighted_circles_report",
    "circle_wirtinger_checks",
    "comparability_bounds",
    "dominance_check",
    "eigen_limit_report",
    "gamma_index",
    "gamma_sequence",
    "gamma_table",
    "gamma_via_kernel",
    "sobolev_domination_bound",
    "toeplitz_rigidities",
    "toeplitz_rigidity",
    "wirtinger_psd_check",
]

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"

#: point-evaluation index below this is treated as vanished
BPE_GAMMA_FLOOR = 1e-8
#: gamma shrinking by this factor over the last doubling of n reads as decay
BPE_DECAY_RATIO = 10.0
#: gamma shrinking by at most this factor over the last doubling reads as settled
BPE_HOLD_RATIO = 1.10
#: lambda_min of a criterion matrix may dip this many multiples of the
#: eigensolver's backward-error scale (n * eps * ||W||_2) below zero and
#: still count as PSD
PSD_FLOOR_FACTOR = 4.0
#: a "fails" verdict requires a witness violation larger than this
WITNESS_MARGIN = 1e-10
#: off-diagonal decay threshold for the constant-multiple-of-identity test
RIGIDITY_OFFDIAG_RTOL = 1e-12
#: slack for eigenvalue-vs-weight-range sandwich checks
EIGEN_SANDWICH_SLACK = 1e-10
#: largest section size a check or a scenario may ask for
MAX_SECTION = 64


class CenterNotBoundedEvaluation(Exception):
    """A requested circle center is not a bounded evaluation point."""

    def __init__(self, center: complex):
        self.center = center
        super().__init__(f"center {center} fails the bounded-evaluation test")


@dataclass
class CriterionReport:
    """One verdict record; ``to_dict`` gives its fields in this order."""

    subject: dict | None
    criterion: str
    n_list: list
    values: list
    verdict: str
    witness: np.ndarray | None = None
    constant: float | None = None
    parameters: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready dict with a fixed field order."""
        witness = None
        if self.witness is not None:
            witness = [[z.real, z.imag] for z in np.asarray(self.witness).tolist()]
        return {
            "subject": self.subject,
            "criterion": self.criterion,
            "n_list": [int(n) for n in self.n_list],
            "values": [float(v) for v in self.values],
            "verdict": self.verdict,
            "witness": witness,
            "constant": None if self.constant is None else float(self.constant),
            "parameters": dict(self.parameters),
            "details": dict(self.details),
        }


def _canonical_vector(u: np.ndarray) -> np.ndarray:
    """Unit 2-norm with the largest-modulus entry made real positive."""
    v = np.asarray(u, dtype=complex).copy()
    nrm = np.linalg.norm(v)
    if nrm > 0:
        v /= nrm
    i = int(np.argmax(np.abs(v)))
    if abs(v[i]) > 0:
        v *= np.conj(v[i]) / abs(v[i])
    return v


# ---------------------------------------------------------------------------
# Point-evaluation index
# ---------------------------------------------------------------------------

def gamma_table(m: MomentMatrix, points, n_max: int) -> np.ndarray:
    """gamma_index at points[j] for n = 1..n_max in column j, from one
    solve Y = L^{-1} E on the matrix's factor L at n_max, E the points'
    vandermonde: e_j^H G_n^{-1} e_j sums |Y_kj|^2 over k < n, as the
    factor of the n section is a block of L.  The column of a point whose
    evaluation vector overflows is NaN, no other: row 0 is 1/|1/L_00|^2."""
    fac = momentmatrix.factor(m, n_max).checked()
    with np.errstate(over="ignore", invalid="ignore"):  # the NaN columns below
        e = vandermonde(np.asarray(points, dtype=complex), n_max)
    finite = np.isfinite(e).all(axis=0)
    table = np.full(e.shape, math.nan)
    with np.errstate(over="ignore"):  # a sum past the double range: gamma 0
        table[:, finite] = 1.0 / np.cumsum(np.abs(numkernel.solve_lower(fac.lower, e[:, finite])) ** 2, axis=0)
    return table


def _gamma_columns(m: MomentMatrix, points, n_max: int):
    """The columns of gamma_table as lists, in input order; on reaching a
    point whose evaluation vector overflowed, numkernel.Overflow naming it."""
    for a, column in zip(points, gamma_table(m, points, n_max).T.tolist()):
        if math.isnan(column[0]):
            raise numkernel.Overflow(f"evaluation vector at {complex(a)} for {m.label}", n_max)
        yield column


def gamma_sequence(m: MomentMatrix, a: complex, n_max: int) -> list[float]:
    """The index of gamma_index for every n = 1..n_max: the column of a
    one-point gamma_table."""
    return next(_gamma_columns(m, [a], n_max))


def gamma_index(m: MomentMatrix, a: complex, n: int) -> float:
    """Smallest norm^2 among degree < n polynomials with p(a) = 1.

    Finite-section formula 1 / (e^H G^{-1} e) with e = (1, a, ..., a^{n-1}),
    evaluated through the Cholesky factor of the section.  Positive, and
    nonincreasing in n.
    """
    return gamma_sequence(m, a, n)[-1]


def gamma_via_kernel(m: MomentMatrix, a: complex, n: int) -> float:
    """Same quantity through the reproducing kernel: 1 / sum |P_k(a)|^2
    over the orthonormal polynomials of M, each evaluated by Horner.
    It reads the matrix's one factor at n, as gamma_sequence does; the
    cross-check of gamma_index is Horner on the orthonormal basis against
    a triangular solve of the evaluation vector.
    """
    total = 0.0
    for coeffs in sobolev.orthonormal_polys(m, n):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed Horner step: Overflow below
            value = abs(complex(evaluate(coeffs, a)))
        if not math.isfinite(value * value):  # where value ** 2 raises OverflowError
            raise numkernel.Overflow(f"kernel terms |P_k|^2 at {complex(a)} for {m.label}", n)
        total += value ** 2
    return 1.0 / total


def _gamma_minimizer(m: MomentMatrix, a: complex, n: int) -> np.ndarray:
    """Coefficient row attaining gamma: p(a) = 1 with minimal norm^2,
    conj(x) / s with x = G^{-1} e = W^* (W e) and s = e^H x = ||W e||^2,
    read off the inverse of a factor and an e that gamma_table accepted;
    y = W e is scaled by a power of two first, exactly, so s = t^2 ||y/t||^2."""
    inverse = momentmatrix.factor(m, n).inverse
    y = inverse @ vandermonde(complex(a), n)[:, 0]
    t = 2.0 ** (math.frexp(float(np.max(np.abs(y))))[1] - 1)
    y = y / t
    return np.conj(inverse.conj().T @ y) / (float(np.vdot(y, y).real) * t)


def bpe_columns(m: MomentMatrix, points, n_max: int):
    """(gamma column, verdict, decay) of every point in input order, by
    the rule of bpe_decide."""
    if n_max < 4:
        raise ValueError("bpe decision needs n_max >= 4")
    for gammas in _gamma_columns(m, points, n_max):
        g_end, g_half = gammas[-1], gammas[n_max // 2 - 1]
        decay = math.inf if g_end == 0 else g_half / g_end
        fails = g_end < BPE_GAMMA_FLOOR or decay >= BPE_DECAY_RATIO
        holds = not fails and decay <= BPE_HOLD_RATIO
        yield gammas, VERDICT_FAILS if fails else VERDICT_HOLDS if holds else VERDICT_INCONCLUSIVE, decay


def bpe_decide(m: MomentMatrix, a: complex, n_max: int) -> CriterionReport:
    """Decide bounded point evaluation at ``a`` from the gamma trend.

    gamma_n is computed for n = 2..n_max.  With r = gamma at n_max//2
    divided by gamma at n_max (the decay over the last doubling):

    * fails  if gamma at n_max < BPE_GAMMA_FLOOR or r >= BPE_DECAY_RATIO,
    * holds  if gamma at n_max >= BPE_GAMMA_FLOOR and r <= BPE_HOLD_RATIO,
    * inconclusive otherwise.

    The reported constant is 1 / gamma at n_max; on "fails" the witness
    is the minimizing polynomial at n_max (p(a) = 1, norm^2 = gamma).
    """
    gammas, verdict, decay = next(bpe_columns(m, [a], n_max))
    return CriterionReport(
        subject=m.subject,
        criterion="bpe",
        n_list=list(range(2, n_max + 1)),
        values=gammas[1:],
        verdict=verdict,
        witness=_gamma_minimizer(m, a, n_max) if verdict == VERDICT_FAILS else None,
        constant=math.inf if gammas[-1] == 0 else 1.0 / gammas[-1],
        parameters={
            "gamma_floor": BPE_GAMMA_FLOOR,
            "decay_ratio": BPE_DECAY_RATIO,
            "hold_ratio": BPE_HOLD_RATIO,
        },
        details={
            "point": [complex(a).real, complex(a).imag],
            "gamma_end": gammas[-1],
            "gamma_half": gammas[n_max // 2 - 1],
            "decay_over_last_doubling": decay,
        },
    )


# ---------------------------------------------------------------------------
# Wirtinger-type inequalities and dominance
# ---------------------------------------------------------------------------

def _psd_reports(criterion: str, subjects: list, ws: np.ndarray, names: list, c) -> list:
    """Three-valued PSD decisions for the stack (k, n, n) of criterion
    matrices ``ws``, named by ``names``, as the k reports of ``criterion``
    on the k ``subjects`` with constant ``c`` (one for all, or one per
    matrix), from one eigenvalue-only solve of the stack.

    The value is lambda_min; on "fails" the witness is the canonicalized
    coefficient row hitting it, from one eigh of the failing matrices
    alone (bitwise that of a solve of the whole stack).  The holds-tolerance
    scales with the eigensolver's backward error (n * eps * spectral norm),
    so graded sections with huge entries do not mask violations well above
    the roundoff floor.  numkernel.Overflow names the first non-finite matrix."""
    ws, joined = numkernel.require_finite(ws, names), "; ".join(names)
    lams = numkernel.eigvalsh(ws, joined)
    tols = PSD_FLOOR_FACTOR * ws.shape[-1] * np.finfo(float).eps * np.abs(lams).max(axis=-1, initial=0.0)
    fails = -lams[:, 0] > np.maximum(WITNESS_MARGIN, tols)
    vecs = iter(numkernel.herm_eig(ws[fails], joined)[1][:, :, 0] if fails.any() else ())
    rows = zip(lams[:, 0].tolist(), tols.tolist(), np.full(len(subjects), c, dtype=float).tolist(), fails.tolist())
    return [CriterionReport(
        subject=subject,
        criterion=criterion,
        n_list=[ws.shape[-1]],
        values=[lam_min],
        verdict=VERDICT_FAILS if fail else VERDICT_HOLDS if lam_min >= -tol else VERDICT_INCONCLUSIVE,
        witness=_canonical_vector(np.conj(next(vecs))) if fail else None,
        constant=constant,
        parameters={"psd_floor_factor": PSD_FLOOR_FACTOR, "witness_margin": WITNESS_MARGIN},
        details={"tolerance": tol},
    ) for subject, (lam_min, tol, constant, fail) in zip(subjects, rows)]


def _shifted_wirtinger(subjects: list, names: list, secs: np.ndarray, centers: np.ndarray, c) -> tuple:
    """The "wirtinger_psd" _psd_reports of c N M_n N - E_a M E_a^*, the
    criterion of ||p - p(a)||^2 <= c ||p'||^2 for degree <= n (N = diag(1..n),
    row k - 1 of E_a the coefficients of z^k - a^k), for the stack (k, n + 1,
    n + 1) of sections M with one shift point a and constant c each, and each
    matrix's ratio for p = z - a.  E_a M E_a^* is read as the block M^(1,1)
    when every a is 0; a witness u is lifted to the row u E_a (+0 at a = 0)."""
    n = secs.shape[-1] - 1
    powers = vandermonde(centers, n + 1)[1:].T  # row s: a^1, ..., a^n of matrix s
    shifted = secs[:, 1:, 1:]
    if centers.any():
        e = np.zeros((len(centers), n, n + 1), dtype=complex)
        e[:, :, 0] = -powers
        e[:, :, 1:] = np.eye(n)
        shifted = e @ secs @ e.conj().swapaxes(1, 2)
    scale = np.arange(1, n + 1, dtype=float)
    derivative = scale[:, None] * secs[:, :n, :n] * scale[None, :]
    with np.errstate(over="ignore", invalid="ignore"):  # _psd_reports rejects non-finite entries
        ws = np.asarray(c, dtype=float)[..., None, None] * derivative - shifted
    reports = _psd_reports("wirtinger_psd", subjects, ws, names, c)
    for rep, row in zip(reports, powers):
        if rep.witness is not None:
            rep.witness = np.concatenate(([0j - rep.witness @ row], rep.witness))
    return reports, shifted[:, 0, 0].real / derivative[:, 0, 0].real


def _wirtinger_checks(ms: list, c: float, n: int) -> list:
    """wirtinger_psd_check of every matrix in ``ms``, by one eigensolve."""
    if not (2 <= n <= MAX_SECTION and c > 0):
        raise ValueError(f"wirtinger check needs 2 <= n <= {MAX_SECTION} and a positive constant")
    secs = np.stack([momentmatrix.section(m, n + 1) for m in ms])
    names = [f"{c} * N M N - M^(1,1) for M = {m.label}" for m in ms]
    return _shifted_wirtinger([m.subject for m in ms], names, secs, np.zeros(len(ms), dtype=complex), c)[0]


def circle_wirtinger_checks(centers, radii, n: int) -> tuple:
    """The reports of ||p - p(a)||^2 <= r^2 ||p'||^2 for degree <= n on the
    circles |z - a| = r with arc length, and each circle's ratio of z - a
    (r^2 up to roundoff: no smaller constant holds), from one circle_sections
    sweep and one eigensolve; a matrix label is built only for an Overflow.
    Each report's subject is its circle's measure JSON."""
    centers, radii = np.asarray(centers, dtype=complex), np.asarray(radii, dtype=float)
    if not (2 <= n <= MAX_SECTION and (radii > 0).all()):
        raise ValueError(f"circle wirtinger checks need 2 <= n <= {MAX_SECTION} and positive radii")
    pairs = list(zip(centers.tolist(), radii.tolist()))
    with np.errstate(over="ignore", invalid="ignore"):  # reported by require_finite
        secs = measures.circle_sections(centers, radii, measures.UNIT_WEIGHT, n + 1)
    numkernel.require_finite(secs, (momentmatrix.of_measure(measures.CircleLebesgue(a, r)).label for a, r in pairs))
    subjects = [measures.to_json(measures.CircleLebesgue(a, r)) for a, r in pairs]
    return _shifted_wirtinger(subjects, [f"r^2 N M N - E M E^* for circle({a}, {r})" for a, r in pairs],
                              secs, centers, radii * radii)


def wirtinger_psd_check(m: MomentMatrix, c: float, n: int) -> CriterionReport:
    """Does ||p||^2_M <= c * ||p'||^2_M hold for all p with p(0) = 0 of
    degree <= n?

    Writing p = sum_{k>=1} v_k z^k and u_j = v_{j+1}, the two sides are
    u M^(1,1) u^* and u N M N u^* with N = diag(1..n), so the inequality
    is positive semidefiniteness of  W = c * N M_n N - (M^(1,1))_n.
    On "fails" the witness is the lifted eigenvector (a zero constant
    coefficient is prepended), violating the inequality by |lambda_min|.
    """
    return _wirtinger_checks([m], c, n)[0]


def toeplitz_rigidities(ts: list, n: int) -> list:
    """Wirtinger checks with constant 1 on Toeplitz matrices, one report
    per matrix; each section is built once, at n + 1, and one stacked
    eigensolve decides them all.

    For Toeplitz sections the inequality with c = 1 holds iff the matrix
    is a nonnegative multiple of the identity, so each report also carries
    the direct off-diagonal test the verdict must agree with.
    """
    for t in ts:
        momentmatrix.section(t, n + 1)  # the Toeplitz test and the check read its blocks
        if not momentmatrix.is_toeplitz(t, n):
            raise ValueError("matrix section is not Toeplitz")
    reports = _wirtinger_checks(ts, 1.0, n)
    for t, rep in zip(ts, reports):
        row0 = momentmatrix.section(t, n)[0]
        diag0 = float(row0[0].real)
        offdiag = max(map(abs, row0[1:].tolist()))
        offdiag_zero = offdiag <= RIGIDITY_OFFDIAG_RTOL * max(abs(diag0), 1e-300)
        rep.criterion = "toeplitz_rigidity"
        rep.parameters["offdiag_rtol"] = RIGIDITY_OFFDIAG_RTOL
        rep.details.update(diagonal_value=diag0, offdiag_max=offdiag, is_identity_multiple=bool(offdiag_zero))
    return reports


def toeplitz_rigidity(t: MomentMatrix, n: int) -> CriterionReport:
    """The report of toeplitz_rigidities for one Toeplitz matrix."""
    return toeplitz_rigidities([t], n)[0]


def dominance_check(m0: MomentMatrix, m1: MomentMatrix, c: float, n: int) -> CriterionReport:
    """Does ||p||^2_{M1} <= c * ||p||^2_{M0} hold up to degree < n?

    Positive semidefiniteness of c * M0_n - M1_n, with the same
    three-valued verdict and witness contract as the Wirtinger check.
    """
    if not (c > 0 and n >= 1):
        raise ValueError("dominance check needs a positive constant and n >= 1")
    with np.errstate(over="ignore", invalid="ignore"):  # _psd_reports rejects non-finite entries
        w = c * momentmatrix.section(m0, n) - momentmatrix.section(m1, n)
    subject = {"m0": m0.subject, "m1": m1.subject}
    return _psd_reports("dominance", [subject], w[None], [f"{c} * {m0.label} - {m1.label}"], c)[0]


# ---------------------------------------------------------------------------
# Plateau-based bounds (never "fails": finite sections cannot refute)
# ---------------------------------------------------------------------------

def sobolev_domination_bound(p: sobolev.SobolevPencil, n_max: int) -> CriterionReport:
    """Best finite-section constant in ||q||^2_{M1} <= C ||q||^2_{Sobolev}.

    Tabulates the top generalized eigenvalue of (section(M1, n), G_n) for
    n = 2..n_max; verdict "holds" when the (nondecreasing) sequence has
    settled per the plateau rule, otherwise "inconclusive".
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    seq = sobolev.norm_sequence(p, n_max, "cond4")
    ns = list(seq.n_list[1:])
    vals = list(seq.values[1:])
    errs = [e for e in seq.errors[1:] if e is not None]
    if errs:
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_HOLDS if sobolev.plateau(ns, vals) else VERDICT_INCONCLUSIVE
    return CriterionReport(
        subject=p.subject,
        criterion="sobolev_domination",
        n_list=ns,
        values=vals,
        verdict=verdict,
        constant=None if math.isnan(vals[-1]) else vals[-1],
        parameters={"plateau_rtol": sobolev.PLATEAU_RTOL},
        details={"errors": errs},
    )


def comparability_bounds(
    p: sobolev.SobolevPencil, q: sobolev.SobolevPencil, n_max: int
) -> CriterionReport:
    """Two-sided constants c, C with c ||.||_P^2 <= ||.||_Q^2 <= C ||.||_P^2
    on degree < n, for n = 2..n_max.

    Both sequences are the extreme eigenvalues of the pencil (Q, G_P) at
    each size, read by one ``numkernel.nested_gen_eig`` call with
    ``both_ends``, so each solved size gives both ends.  Verdict "holds"
    when both sequences have settled and the lower one stays positive;
    otherwise "inconclusive".  The reported constant is the upper one; the
    lower sequence and constant ride along in the details.  A size that
    fails (a ConvergenceFailure, or the NotPositiveDefinite breakdown of
    G_P) is raised, the smallest first, so ``compare`` exits 3 where
    ``cond4`` and ``multop`` record the failure per size.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    ns = list(range(2, n_max + 1))
    gram_q = sobolev.gram_section(q, n_max)
    fac = momentmatrix.factor(p.gram, n_max)
    lows, highs = numkernel.nested_gen_eig(gram_q, fac.inverse, fac.failure, p.label, both_ends=True)
    lows, highs = lows[1:], highs[1:]
    for failure in (top for top in highs if isinstance(top, Exception)):  # one failure per size, at both ends
        raise failure  # the smallest failing size's
    settled = sobolev.plateau(ns, highs) and sobolev.plateau(ns, lows) and lows[-1] > 0.0
    return CriterionReport(
        subject={"pencil": p.subject, "other": q.subject},
        criterion="comparability",
        n_list=ns,
        values=highs,
        verdict=VERDICT_HOLDS if settled else VERDICT_INCONCLUSIVE,
        constant=highs[-1],
        parameters={"plateau_rtol": sobolev.PLATEAU_RTOL},
        details={"lower_values": lows, "lower_constant": lows[-1]},
    )


# ---------------------------------------------------------------------------
# Weighted circles: eigenvalue limits and the assembled boundedness report
# ---------------------------------------------------------------------------

def eigen_limit_report(fourier, n_list) -> CriterionReport:
    """Sandwich check for extreme Toeplitz eigenvalues along ``n_list``.

    At each listed n, the smallest and largest eigenvalues of the n
    section of the unit weighted-circle moment matrix bracket the
    weight's range and squeeze toward its essential extrema as n grows.
    Holds when, at every listed n, they stay inside
    [grid_min - slack, grid_max + slack] and their distances to the grid
    extrema shrink monotonically.
    """
    ns = [int(n) for n in n_list]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing and nonempty")
    wc = measures.WeightedCircle(0.0, 1.0, fourier)  # validated and canonicalized once
    gmin, gmax = measures.weight_grid_extremes(wc.fourier)  # shared with the validation grid
    m = momentmatrix.of_measure(wc)
    momentmatrix.section(m, ns[-1])  # build once; every listed n is a leading block
    lams, betas = [], []
    for n in ns:
        eigenvalues = numkernel.eigvalsh(momentmatrix.section(m, n), m.label)
        lams.append(float(eigenvalues[0]))
        betas.append(float(eigenvalues[-1]))
    inside = all(
        lam >= gmin - EIGEN_SANDWICH_SLACK and beta <= gmax + EIGEN_SANDWICH_SLACK
        for lam, beta in zip(lams, betas)
    )
    gaps_low = [lam - gmin for lam in lams]
    gaps_high = [gmax - beta for beta in betas]
    shrinking = all(
        b <= a + EIGEN_SANDWICH_SLACK for a, b in zip(gaps_low, gaps_low[1:])
    ) and all(b <= a + EIGEN_SANDWICH_SLACK for a, b in zip(gaps_high, gaps_high[1:]))
    return CriterionReport(
        subject=m.subject,
        criterion="eigen_limits",
        n_list=ns,
        values=lams,
        verdict=VERDICT_HOLDS if inside and shrinking else VERDICT_INCONCLUSIVE,
        constant=None,
        parameters={"slack": EIGEN_SANDWICH_SLACK},
        details={
            "beta_values": betas,
            "grid_min": gmin,
            "grid_max": gmax,
            "inside_sandwich": bool(inside),
            "gaps_shrink": bool(shrinking),
        },
    )


def bpe_weighted_circles_report(
    mu0: measures.Measure, circles, n_max: int
) -> CriterionReport:
    """Boundedness report for the pencil {M(mu0), M(sum of ``circles``)},
    ``circles`` being WeightedCircle measures.

    Every circle center must be a bounded evaluation point of mu0 (the
    geometric hypothesis); otherwise CenterNotBoundedEvaluation is raised
    immediately.  The report then tabulates the multiplication-operator
    norm and the M1-domination constant; verdict "holds" when both have
    settled.
    """
    mu1 = measures.MeasureSum(tuple((1.0, circle) for circle in circles))
    pen = sobolev.pencil_of_measures(mu0, mu1)  # the centers are tested on its M(mu0)
    centers = [circle.center for circle in circles]
    gammas = []
    for center, (column, verdict, _) in zip(centers, bpe_columns(pen.m0, centers, n_max)):
        if verdict != VERDICT_HOLDS:
            raise CenterNotBoundedEvaluation(center)
        gammas.append(column[-1])
    mseq = sobolev.norm_sequence(pen, n_max, "mult_op")  # size n_max + 1 first; then blocks
    dom = sobolev_domination_bound(pen, n_max)
    mult_settled = mseq.ok() and sobolev.plateau(mseq.n_list, mseq.values)
    verdict = (
        VERDICT_HOLDS
        if dom.verdict == VERDICT_HOLDS and mult_settled
        else VERDICT_INCONCLUSIVE
    )
    return CriterionReport(
        subject=pen.subject,
        criterion="bpe_weighted_circles",
        n_list=list(mseq.n_list),
        values=[float(v) for v in mseq.values],
        verdict=verdict,
        constant=float(mseq.values[-1]),
        parameters={"plateau_rtol": sobolev.PLATEAU_RTOL},
        details={
            "centers": [[z.real, z.imag] for z in centers],
            "center_gammas": gammas,
            "gamma_min": min(gammas),
            "domination_values": list(dom.values),
            "domination_verdict": dom.verdict,
            "mult_op_settled": bool(mult_settled),
        },
    )
