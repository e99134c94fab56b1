"""Command-line runner: scenarios in, deterministic reports out.

A scenario is either a JSON file (--spec) naming one command and its
inputs, or one of the named built-in experiments (--builtin).  Reports
are written under --out as JSON (plus CSV side files for sequences,
zero scatters, and matrix dumps) with fixed float formatting, so the
same invocation always produces byte-identical files.

Each command's runner takes its parsed inputs and parameters as keyword
arguments, under the names the scenario file gives them, and returns one
``criteria.CriterionReport``.  Every report file has the same top level:
``scenario``, ``command``, ``records`` (the records' ``to_dict``: a
command writes one, a built-in one per sub-verdict its combined verdict
reads) and ``verdict``; identity-moments also keeps ``label``, the
compact JSON of its measure, after ``command``.

Exit codes: 0 when every verdict was computed (verdicts of "fails" are
results, not errors), 2 for malformed scenarios or measures (a --spec
file nested too deeply to process included), options out of range, or a
--spec or --out path that cannot be used, 3 for numeric failures
(singular sections, convergence breakdowns, rejected geometric
hypotheses).

BLAS runs one thread unless the environment sets OPENBLAS_NUM_THREADS or
MKL_NUM_THREADS: this module sets both to 1 before it imports numpy, as
the program's matrices are at most MAX_SECTION wide, too small to gain
from threads, and a threaded BLAS on a busy host made whole runs several
times slower.  The setting takes effect only where this module is the
first to import numpy, as in the ``sobolevlab`` command.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import re
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads BLAS
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from . import criteria, measures, momentmatrix, numkernel, reporting, sobolev
from .criteria import MAX_SECTION
from .polynomials import differentiate

__all__ = ["Scenario", "ScenarioFormatError", "list_builtins", "main", "parse_scenario", "run"]

DEFAULT_NMAX = 32
DEFAULT_SEED = 0
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class ScenarioFormatError(ValueError):
    """Malformed scenario description."""


# ---------------------------------------------------------------------------
# Scenario model
# ---------------------------------------------------------------------------

class Scenario:
    """A parsed scenario: its inputs and parameters are keyed by the names
    under which the command's runner takes them."""

    def __init__(self, name: str, command: str, inputs: dict, parameters: dict):
        self.name, self.command = name, command
        self.inputs, self.parameters = inputs, parameters


def _parse_pencil(obj) -> tuple:
    if not isinstance(obj, dict):
        raise ScenarioFormatError("pencil must be an object with keys m0, m1")
    extra = [k for k in obj if k not in ("m0", "m1")]
    if extra or "m0" not in obj or "m1" not in obj:
        raise ScenarioFormatError("pencil must have exactly the keys m0, m1")
    mu0 = measures.from_json(obj["m0"])
    mu1 = None if obj["m1"] is None else measures.from_json(obj["m1"])
    return (mu0, mu1)


def _parse_circles(items) -> tuple:
    if not isinstance(items, (list, tuple)) or not items:
        raise ScenarioFormatError("circles must be a nonempty list")
    out = []
    for item in items:
        if not isinstance(item, (list, tuple)) or len(item) != 4:
            raise ScenarioFormatError(f"expected [re, im, radius, fourier] circle entry, got {item!r}")
        center = measures.parse_pair(item[:2], "circle center")
        out.append(measures.WeightedCircle(center, item[2], measures.parse_fourier(item[3])))
    return tuple(out)


def _parse_weight(items) -> measures.WeightedCircle:
    """The unit circle carrying the weight: validated and canonicalized here."""
    return measures.WeightedCircle(0.0, 1.0, measures.parse_fourier(items))


_INPUT_PARSERS = {
    "measure": measures.from_json,
    "pencil": _parse_pencil,
    "pencil_b": _parse_pencil,
    "weight": _parse_weight,
    "circles": _parse_circles,
}


def _size(lo: int, hi: int):
    """Parser of an integer parameter in [lo, hi]."""

    def parse(v, key: str) -> int:
        if type(v) is not int:  # bool is a subclass of int
            raise ScenarioFormatError(f"parameter {key!r} must be an integer")
        if not lo <= v <= hi:
            raise ScenarioFormatError(f"parameter {key!r} must lie in [{lo}, {hi}]")
        return v

    return parse


def _n_list(ns, key: str) -> list:
    if (
        not isinstance(ns, (list, tuple))
        or not ns
        or not all(type(n) is int and 1 <= n <= MAX_SECTION for n in ns)
        or any(b <= a for a, b in zip(ns, ns[1:]))
    ):
        raise ScenarioFormatError(f"{key} must be a strictly increasing list of sizes <= {MAX_SECTION}")
    return list(ns)


def _point(v, key: str) -> complex:
    return measures.parse_pair(v, f"parameter {key!r}", ScenarioFormatError)


def _positive(v, key: str) -> float:
    c = measures.parse_real(v, f"parameter {key!r}", ScenarioFormatError)
    if not c > 0:
        raise ScenarioFormatError(f"parameter {key!r} must be a positive number")
    return c


# ---------------------------------------------------------------------------
# Command runners: runner(path prefix, **inputs, **parameters) -> CriterionReport
# ---------------------------------------------------------------------------

ZERO_BOUND_SLACK = 1e-6

#: CSV columns of the criteria that tabulate a sequence, after the n column
_REPORT_COLUMNS = {
    "sobolev_domination": (("value",), lambda rep: (rep.values,)),
    "comparability": (("lower", "upper"), lambda rep: (rep.details["lower_values"], rep.values)),
    "eigen_limits": (("lambda_min", "lambda_max"), lambda rep: (rep.values, rep.details["beta_values"])),
}


def _write_report_csv(rep: criteria.CriterionReport, path: str) -> None:
    header, columns = _REPORT_COLUMNS[rep.criterion]
    reporting.write_csv(path, ("n", *header), list(zip(rep.n_list, *columns(rep))))


def _write_matrix(path: str, a: np.ndarray) -> None:
    reporting.write_csv(path, [f"col_{j}" for j in range(a.shape[1])], a)


def _section_check(mu: measures.Measure, n: int, path: str) -> tuple:
    """(n x n section, its "moment_quadrature" record): the largest
    |section - quadrature| entry on the smallest grid where the quadrature
    is exact (``measures.exact_grid``), "holds" within 1e-10; the section
    is written to ``path``."""
    m = momentmatrix.of_measure(mu)
    a = momentmatrix.section(m, n)
    grid = measures.exact_grid(mu, n)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite oracle: NaN deviation, "inconclusive"
        dev = float(np.abs(a - measures.moment_quadrature(mu, range(n), range(n), grid)).max())
    _write_matrix(path, a)
    return a, criteria.CriterionReport(
        m.subject, "moment_quadrature", [n], [dev], "holds" if dev <= 1e-10 else "inconclusive",
        parameters={"tolerance": 1e-10},
        details={"grid_points": grid, "toeplitz": bool(n >= 2 and momentmatrix.is_toeplitz(m, n))},
    )


def _mult_op(pen: sobolev.SobolevPencil, n_max: int, path: str | None = None) -> criteria.CriterionReport:
    """The mult_op sequence's record, "holds" once it has settled; with
    ``path``, the sequence is also written there as CSV."""
    seq = sobolev.norm_sequence(pen, n_max, "mult_op")
    errors = ["" if e is None else e for e in seq.errors]
    if path is not None:
        reporting.write_csv(path, ("n", "value", "error"), list(zip(seq.n_list, seq.values, errors)))
    settled = seq.ok() and sobolev.plateau(seq.n_list, seq.values)
    return criteria.CriterionReport(pen.subject, "mult_op", list(seq.n_list), list(seq.values),
                                    "holds" if settled else "inconclusive",
                                    parameters={"plateau_rtol": sobolev.PLATEAU_RTOL}, details={"errors": errors})


def _run_gram(prefix, pencil, n) -> criteria.CriterionReport:
    pen = sobolev.pencil_of_measures(*pencil)
    g = sobolev.gram_section(pen, n)
    _write_matrix(f"{prefix}_gram.csv", g)
    return criteria.CriterionReport(pen.subject, "gram_section", [n], [], "holds",
                                    details={"diagonal": g.diagonal().real.tolist()})


def _run_opoly(prefix, pencil, n) -> criteria.CriterionReport:
    pen = sobolev.pencil_of_measures(*pencil)
    ops = sobolev.orthonormal_polys(pen.gram, n)
    w = momentmatrix.factor(pen.gram, n).inverse  # its rows are ops
    resid = float(np.max(np.abs(w @ sobolev.gram_section(pen, n) @ w.conj().T - np.eye(n))))
    rows = [[k, *c, *[0j] * (n - len(c))] for k, c in enumerate(ops)]
    reporting.write_csv(f"{prefix}_opoly.csv", ["degree"] + [f"c{j}" for j in range(n)], rows)
    return criteria.CriterionReport(pen.subject, "orthonormality", [n], [resid],
                                    "holds" if resid <= 1e-9 else "inconclusive", parameters={"tolerance": 1e-9})


def _run_zeros(prefix, pencil, degree) -> criteria.CriterionReport:
    pen = sobolev.pencil_of_measures(*pencil)
    bound = sobolev.mult_op_norm(pen, degree + 1)  # larger section first; the zeros read a block
    zeros = sobolev.sobolev_zeros(pen, degree)
    max_mod = float(np.max(np.abs(zeros)))
    reporting.write_csv(f"{prefix}_zeros.csv", ("re", "im", "modulus"), [(z.real, z.imag, abs(z)) for z in zeros])
    return criteria.CriterionReport(
        pen.subject, "zero_bound", [degree], [max_mod], "holds" if max_mod <= bound + ZERO_BOUND_SLACK else "fails",
        parameters={"slack": ZERO_BOUND_SLACK},
        details={"mult_op_bound": [float(bound)], "zeros": [[z.real, z.imag] for z in zeros.tolist()]},
    )


def _run_gamma(prefix, measure, n_max, a) -> criteria.CriterionReport:
    m = momentmatrix.of_measure(measure)
    ns = list(range(2, n_max + 1))
    vals = criteria.gamma_sequence(m, a, n_max)[1:]
    kernel = criteria.gamma_via_kernel(m, a, n_max)
    agreement = abs(vals[-1] - kernel) / max(abs(kernel), 1e-300)
    reporting.write_csv(f"{prefix}_gamma.csv", ("n", "gamma"), list(zip(ns, vals)))
    return criteria.CriterionReport(
        m.subject, "gamma_kernel_agreement", ns, vals, "holds" if agreement <= 1e-9 else "inconclusive",
        parameters={"tolerance": 1e-9},
        details={"point": [a.real, a.imag], "kernel_value": kernel, "two_method_relative_gap": agreement},
    )


# name -> (inputs, {parameter: parser}, runner); parameters are checked in order
_COMMANDS = {
    "moments": (("measure",), {"n": _size(1, MAX_SECTION)},
                lambda prefix, measure, n: _section_check(measure, n, f"{prefix}_section.csv")[1]),
    "gram": (("pencil",), {"n": _size(1, MAX_SECTION)}, _run_gram),
    "opoly": (("pencil",), {"n": _size(1, MAX_SECTION)}, _run_opoly),
    "zeros": (("pencil",), {"degree": _size(1, MAX_SECTION - 1)}, _run_zeros),
    "multop": (("pencil",), {"n_max": _size(2, MAX_SECTION)},
               lambda prefix, pencil, n_max: _mult_op(sobolev.pencil_of_measures(*pencil), n_max, f"{prefix}_multop.csv")),
    "gamma": (("measure",), {"n_max": _size(2, MAX_SECTION), "a": _point}, _run_gamma),
    "bpe": (("measure",), {"n_max": _size(4, MAX_SECTION), "a": _point},
            lambda prefix, measure, n_max, a: criteria.bpe_decide(momentmatrix.of_measure(measure), a, n_max)),
    "wirtinger": (("measure",), {"n": _size(2, MAX_SECTION), "constant": _positive},
                  lambda prefix, measure, n, constant: criteria.wirtinger_psd_check(
                      momentmatrix.of_measure(measure), constant, n)),
    "dominance": (("pencil",), {"n": _size(1, MAX_SECTION), "constant": _positive},
                  lambda prefix, pencil, n, constant: criteria.dominance_check(
                      *map(momentmatrix.of_measure, pencil), constant, n)),
    "cond4": (("pencil",), {"n_max": _size(2, MAX_SECTION)},
              lambda prefix, pencil, n_max: criteria.sobolev_domination_bound(
                  sobolev.pencil_of_measures(*pencil), n_max)),
    "compare": (("pencil", "pencil_b"), {"n_max": _size(2, MAX_SECTION)},
                lambda prefix, pencil, pencil_b, n_max: criteria.comparability_bounds(
                    sobolev.pencil_of_measures(*pencil), sobolev.pencil_of_measures(*pencil_b), n_max)),
    "eigenlimits": (("weight",), {"n_list": _n_list},
                    lambda prefix, weight, n_list: criteria.eigen_limit_report(weight.fourier, n_list)),
    "prop12": (("measure", "circles"), {"n_max": _size(4, MAX_SECTION)},
               lambda prefix, measure, circles, n_max: criteria.bpe_weighted_circles_report(
                   measure, circles, n_max)),
}


def parse_scenario(obj) -> Scenario:
    """Validate a scenario object; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    extra = [k for k in obj if k not in ("name", "command", *_INPUT_PARSERS, "parameters")]
    if extra:
        raise ScenarioFormatError(f"scenario has unknown keys {extra}")
    name = obj.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ScenarioFormatError("scenario needs a 'name' of letters, digits, ., _, -")
    command = obj.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ScenarioFormatError(f"unknown command {command!r}")
    needs, parsers, _ = _COMMANDS[command]
    for key in needs:
        if key not in obj:
            raise ScenarioFormatError(f"command {command!r} requires {key!r}")
    for key in _INPUT_PARSERS:
        if key in obj and key not in needs:
            raise ScenarioFormatError(f"command {command!r} does not take {key!r}")
    params = obj.get("parameters", {})
    if not isinstance(params, dict):
        raise ScenarioFormatError("parameters must be an object")
    for key in params:
        if key not in parsers:
            raise ScenarioFormatError(f"command {command!r} does not take parameter {key!r}")
    for key in parsers:
        if key not in params:
            raise ScenarioFormatError(f"command {command!r} requires parameter {key!r}")

    inputs = {key: _INPUT_PARSERS[key](obj[key]) for key in needs}
    parameters = {key: parse(params[key], key) for key, parse in parsers.items()}
    if command == "dominance" and inputs["pencil"][1] is None:
        raise ScenarioFormatError("dominance needs two measures")
    return Scenario(name, command, inputs, parameters)


def run(sc: Scenario, out_dir: str) -> dict:
    """Execute a parsed scenario, write its files into ``out_dir`` (made
    if missing), return the report: its one record and that verdict."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, sc.name)
    rec = _COMMANDS[sc.command][2](prefix, **sc.inputs, **sc.parameters)
    if rec.criterion in _REPORT_COLUMNS:
        _write_report_csv(rec, f"{prefix}_{sc.command}.csv")
    report = {"scenario": sc.name, "command": sc.command, "records": [rec.to_dict()], "verdict": rec.verdict}
    reporting.write_json(os.path.join(out_dir, f"{sc.name}.json"), report)
    return report


# ---------------------------------------------------------------------------
# Built-in experiments
# ---------------------------------------------------------------------------

UNIT = measures.CircleLebesgue(0.0, 1.0)
HALF = measures.CircleLebesgue(0.0, 0.5)
W_COS08 = ((0, 1.0 + 0j), (1, 0.4 + 0j), (-1, 0.4 + 0j))  # w = 1 + 0.8 cos
HALF_PLUS_UNIT = measures.MeasureSum(((1.0, HALF), (1.0, UNIT)))
#: p = z, the extremal polynomial of the Wirtinger-type built-ins' closed-form constants
Z = np.array([0.0, 1.0], dtype=complex)
#: a witness attains a constant c when its ratio ||p||^2 / ||p'||^2 lies this
#: close to c, relative to c
WITNESS_RTOL = 1e-10


def _zero_bound_scan(pen: sobolev.SobolevPencil, degrees) -> criteria.CriterionReport:
    """The "zero_bound" record of the max zero modulus per degree 1..d
    against the operator-norm bound, all read off the pencil's one Gram
    factor at size d + 1."""
    top = max(degrees) + 1
    ops = sobolev.orthonormal_polys(pen.gram, top)
    seq = sobolev.norm_sequence(pen, top, "mult_op")
    mods = [  # c z^d, a rotation-invariant pencil's, has only the zero 0: no eigensolve
        float(np.max(np.abs(numkernel.companion_roots(ops[d])))) if ops[d][:-1].any() else 0.0 for d in degrees
    ]
    bounds = [seq.values[d] for d in degrees]
    worst_excess = max(m - b for m, b in zip(mods, bounds))
    return criteria.CriterionReport(
        pen.subject, "zero_bound", [int(d) for d in degrees], mods,
        "holds" if worst_excess <= ZERO_BOUND_SLACK else "fails",
        parameters={"slack": ZERO_BOUND_SLACK}, details={"mult_op_bound": bounds, "worst_excess": worst_excess},
    )


def _with_top_power(rep: criteria.CriterionReport) -> criteria.CriterionReport:
    """The record, its details given the top power of its witness (None
    without one): a dominance witness concentrates on high powers."""
    rep.details["witness_top_power"] = None if rep.witness is None else int(np.argmax(np.abs(rep.witness)))
    return rep


def _verdict(ok: bool) -> str:
    return "holds" if ok else "fails"


# Each built-in returns (its records, its combined verdict).

def _builtin_identity_moments(out_dir, n_max, rng) -> tuple:
    n = 32
    a, quad = _section_check(UNIT, n, os.path.join(out_dir, "identity-moments_section.csv"))
    identity_dev = float(np.max(np.abs(a - np.eye(n))))
    ident = criteria.CriterionReport(quad.subject, "identity_section", [n], [identity_dev], _verdict(identity_dev == 0.0))
    return [quad, ident], _verdict(quad.verdict == ident.verdict == "holds")


def _wirtinger_sides(m: momentmatrix.MomentMatrix, v, n: int) -> tuple:
    """||p||^2 and ||p'||^2 in ``m`` of the coefficient row ``v`` of degree
    <= n, over section(m, n + 1) and section(m, n)."""
    return (momentmatrix.norm_sq(momentmatrix.section(m, n + 1), v),
            momentmatrix.norm_sq(momentmatrix.section(m, n), differentiate(v)))


def _builtin_lemma3_unitcircle(out_dir, n_max, rng) -> tuple:
    # the PSD check bounds the constant 1; z, with ratio 1, shows no smaller one holds
    m = momentmatrix.of_measure(UNIT)
    rep = criteria.wirtinger_psd_check(m, 1.0, 20)
    lhs, rhs = _wirtinger_sides(m, Z, 20)
    rep.details.update(witness_polynomial="z", witness_ratio=lhs / rhs)
    return [rep], _verdict(rep.verdict == "holds" and abs(lhs / rhs - 1.0) <= WITNESS_RTOL)


def _builtin_lemma3_shifted(out_dir, n_max, rng) -> tuple:
    pairs = []
    for _ in range(20):
        rad = math.sqrt(rng.uniform(0.0, 1.0))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        a = rad * complex(math.cos(ang), math.sin(ang))
        r = 2.0 * rng.uniform(0.05, 1.0)
        pairs.append((a, r))
    # the PSD checks bound the constants r^2; z - a, with ratio r^2, attains them
    reports, ratios = criteria.circle_wirtinger_checks(*zip(*pairs), 20)
    for rep, ratio in zip(reports, ratios.tolist()):
        rep.details.update(witness_polynomial="z - a", witness_ratio=ratio,
                           witness_ratio_deviation=abs(ratio / rep.constant - 1.0))
    return reports, _verdict(all(
        rep.verdict == "holds" and rep.details["witness_ratio_deviation"] <= WITNESS_RTOL for rep in reports))


def _builtin_prop6_equivalence(out_dir, n_max, rng) -> tuple:
    # a "holds" case is consistent when z attains its constant, a "fails"
    # case when its witness beats the constant
    graded = momentmatrix.MomentMatrix(
        build=lambda n: np.diag([5.0**k for k in range(n)]).astype(complex),
        label="diag(5^k)",
        subject={"kind": "graded_diagonal", "ratio": 5.0},
    )
    cases = [
        (momentmatrix.of_measure(UNIT), 1.0, 16, "holds"),
        (momentmatrix.of_measure(measures.WeightedCircle(0.0, 1.0, W_COS08)), 1.0, 3, "fails"),
        (graded, 1.0, 8, "fails"),
        (momentmatrix.of_measure(measures.CircleLebesgue(0.0, 2.0)), 4.0, 12, "holds"),
    ]
    records, all_ok = [], True
    for m, c, n, expected in cases:
        rep = criteria.wirtinger_psd_check(m, c, n)
        witness = Z if rep.verdict == "holds" else rep.witness
        consistency, detail, ratio = True, 0.0, None
        if witness is not None:
            lhs, rhs = _wirtinger_sides(m, witness, n)
            detail, ratio = lhs - c * rhs, lhs / rhs
            consistency = abs(detail) <= WITNESS_RTOL * c * rhs if rep.verdict == "holds" else detail > 1e-10
        all_ok = all_ok and rep.verdict == expected and consistency
        rep.details.update(expected=expected, witness_ratio=ratio, consistency_margin=detail, consistent=bool(consistency))
        records.append(rep)
    return records, _verdict(all_ok)


def _builtin_prop7_rigidity(out_dir, n_max, rng) -> tuple:
    n = 8
    cases = [momentmatrix.toeplitz_rule({0: 3.0}, label="3*identity"),
             momentmatrix.of_measure(measures.WeightedCircle(0.0, 1.0, W_COS08))]
    for i in range(50):
        c = {0: complex(rng.uniform(0.5, 2.0))}
        if rng.random() < 0.5:
            for k in range(1, 4):
                rad = 0.05 * math.sqrt(rng.uniform(0.0, 1.0))
                ang = rng.uniform(0.0, 2.0 * math.pi)
                c[k] = rad * complex(math.cos(ang), math.sin(ang))
        cases.append(momentmatrix.toeplitz_rule(c, label=f"random-toeplitz-{i}"))
    # each verdict must agree with the direct off-diagonal test
    reports = criteria.toeplitz_rigidities(cases, n)
    return reports, _verdict(all((rep.verdict == "holds") == rep.details["is_identity_multiple"] for rep in reports))


def _builtin_example4(out_dir, n_max, rng) -> tuple:
    dom = _with_top_power(
        criteria.dominance_check(momentmatrix.of_measure(HALF), momentmatrix.of_measure(UNIT), 1e6, 16))
    pen = sobolev.pencil_of_measures(HALF, UNIT)
    mult = _mult_op(pen, n_max, os.path.join(out_dir, "example4-mr-m_multop.csv"))  # size n_max + 1 first
    bound = criteria.sobolev_domination_bound(pen, n_max)
    ok = (
        dom.verdict == "fails"  # a "fails" report carries its witness
        and dom.details["witness_top_power"] >= 10
        and bound.verdict == mult.verdict == "holds"
    )
    return [dom, bound, mult], _verdict(ok)


def _builtin_example5(out_dir, n_max, rng) -> tuple:
    atoms = measures.Atomic(((0.3 + 0.0j, 1.0), (-0.2 + 0.4j, 1.0)))
    pen = sobolev.pencil_of_measures(UNIT, atoms)
    mult = _mult_op(pen, n_max, os.path.join(out_dir, "example5-discrete_multop.csv"))  # size n_max + 1 first
    bound = criteria.sobolev_domination_bound(pen, n_max)
    zeros = _zero_bound_scan(pen, range(1, 13))
    records = [bound, mult, zeros]
    return records, _verdict(all(rep.verdict == "holds" for rep in records))


def _builtin_example6(out_dir, n_max, rng) -> tuple:
    pen = sobolev.pencil_of_measures(UNIT, measures.CircleLebesgue(0.5, 2.0))
    mult = _mult_op(pen, n_max, os.path.join(out_dir, "example6-circles_multop.csv"))
    bound = criteria.sobolev_domination_bound(pen, n_max)  # before the scan replaces the n_max factor
    zeros = _zero_bound_scan(pen, range(1, 21))
    reporting.write_csv(
        os.path.join(out_dir, "example6-circles_zeros.csv"),
        ("degree", "max_zero_modulus", "mult_op_bound"),
        list(zip(zeros.n_list, zeros.values, zeros.details["mult_op_bound"])),
    )
    records = [mult, zeros, bound]
    return records, _verdict(all(rep.verdict == "holds" for rep in records))


def _builtin_example7(out_dir, n_max, rng) -> tuple:
    pen_p = sobolev.pencil_of_measures(HALF, UNIT)
    pen_q = sobolev.pencil_of_measures(HALF_PLUS_UNIT, UNIT)
    comp = criteria.comparability_bounds(pen_p, pen_q, n_max)
    _write_report_csv(comp, os.path.join(out_dir, "example7-comparability_compare.csv"))
    contrast = _with_top_power(criteria.dominance_check(
        momentmatrix.of_measure(HALF), momentmatrix.of_measure(HALF_PLUS_UNIT), float(4**14), 16
    ))
    ratio_devs = []  # relative deviations of the diagonal moment ratios from 1 + 4^k
    for k in range(1, 21):
        num = measures.moment(HALF_PLUS_UNIT, k, k).real
        den = measures.moment(HALF, k, k).real
        expected = 1.0 + 4.0**k
        ratio_devs.append(abs(num / den - expected) / expected)
    ratio = criteria.CriterionReport(
        contrast.subject, "monomial_ratio", list(range(1, 21)), ratio_devs, _verdict(max(ratio_devs) <= 1e-8),
        parameters={"rtol": 1e-8},
    )
    mult = _mult_op(pen_p, n_max)
    zeros = _zero_bound_scan(pen_p, range(1, 21))
    ok = (
        comp.verdict == "holds"
        and comp.details["lower_constant"] >= 1.0
        and contrast.verdict == "fails"
        and contrast.details["witness_top_power"] >= 10
        and ratio.verdict == mult.verdict == zeros.verdict == "holds"
    )
    return [comp, contrast, ratio, mult, zeros], _verdict(ok)


def _builtin_bpe_disk_map(out_dir, n_max, rng) -> tuple:
    m = momentmatrix.of_measure(UNIT)
    points = [0j]
    for radius in (0.3, 0.6, 0.9, 1.1, 1.2, 1.3):
        for k in range(8):
            ang = 2.0 * math.pi * k / 8.0
            points.append(radius * complex(math.cos(ang), math.sin(ang)))
    rows = [(a.real, a.imag, abs(a), gammas[-1], verdict)
            for a, (gammas, verdict, _) in zip(points, criteria.bpe_columns(m, points, n_max))]
    consistent = all(v == "holds" for _, _, r, _, v in rows if r <= 0.9) and all(
        v == "fails" for _, _, r, _, v in rows if r >= 1.1)
    reporting.write_csv(
        os.path.join(out_dir, "bpe-disk-map_map.csv"),
        ("re", "im", "modulus", "gamma_end", "verdict"),
        rows,
    )
    # one summary record: the per-point rows are the CSV's
    return [criteria.CriterionReport(m.subject, "bpe_geometry", [n_max], [], _verdict(consistent),
                                     details={"points": len(points)})], _verdict(consistent)


def _builtin_eigenlimits(out_dir, n_max, rng) -> tuple:
    rep = criteria.eigen_limit_report(W_COS08, [4, 8, 16, 32])
    _write_report_csv(rep, os.path.join(out_dir, "eigenlimits-weighted_limits.csv"))
    return [rep], rep.verdict


_BUILTINS = {
    "identity-moments": _builtin_identity_moments,
    "lemma3-unitcircle": _builtin_lemma3_unitcircle,
    "lemma3-shifted": _builtin_lemma3_shifted,
    "prop6-equivalence": _builtin_prop6_equivalence,
    "prop7-rigidity": _builtin_prop7_rigidity,
    "example4-mr-m": _builtin_example4,
    "example5-discrete": _builtin_example5,
    "example6-circles": _builtin_example6,
    "example7-comparability": _builtin_example7,
    "bpe-disk-map": _builtin_bpe_disk_map,
    "eigenlimits-weighted": _builtin_eigenlimits,
}


def list_builtins() -> list[str]:
    """Stable-order names of the built-in experiments."""
    return list(_BUILTINS)


def run_builtin(name: str, out_dir: str, n_max: int = DEFAULT_NMAX, seed: int = DEFAULT_SEED) -> dict:
    if name not in _BUILTINS:
        raise ScenarioFormatError(f"unknown builtin {name!r}")
    os.makedirs(out_dir, exist_ok=True)
    # a str seed goes through SHA-512: one stream per (seed, built-in), whatever
    # the hash seed or the order the built-ins run in
    rng = random.Random(f"{seed}:{name}")
    records, verdict = _BUILTINS[name](out_dir, n_max, rng)
    report = {"scenario": name, "command": "builtin"}
    if name == "identity-moments":  # the benchmark reads the measure back from this compact JSON
        report["label"] = json.dumps(records[0].subject, separators=(",", ":"))
    report.update(records=[rep.to_dict() for rep in records], verdict=verdict)
    reporting.write_json(os.path.join(out_dir, f"{name}.json"), report)
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sobolevlab",
        description="Finite-section experiments with Sobolev moment-matrix pencils.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", metavar="FILE", help="run a scenario JSON file")
    group.add_argument("--builtin", metavar="NAME", help="run a builtin experiment, or 'all'")
    group.add_argument("--list-builtins", action="store_true", help="print builtin names and exit")
    parser.add_argument("--out", default="reports", help="output directory (default: reports)")
    parser.add_argument("--nmax", type=int, default=DEFAULT_NMAX, help="builtin section cap (default: 32)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="nonnegative seed for randomized experiments (default: 0)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.list_builtins:
        for name in list_builtins():
            print(name)
        return 0

    if not 4 <= args.nmax <= MAX_SECTION:  # bpe-disk-map applies the bpe rule at nmax
        print(f"--nmax must lie in [4, {MAX_SECTION}]", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be a nonnegative integer", file=sys.stderr)
        return 2

    try:
        if args.builtin:
            names = list_builtins() if args.builtin == "all" else [args.builtin]
            for name in names:
                report = run_builtin(name, args.out, n_max=args.nmax, seed=args.seed)
                print(f"{name}: {report['verdict']}")
            return 0
        with open(args.spec, "r", encoding="utf-8") as fh:
            scenario = parse_scenario(json.load(fh))
        report = run(scenario, args.out)
        print(f"{scenario.name}: {report['verdict']}")
        return 0
    except (
        ScenarioFormatError,
        measures.MeasureFormatError,
        json.JSONDecodeError,
        UnicodeDecodeError,
        OSError,  # --spec cannot be read, --out cannot be made or written
        RecursionError,  # --spec nests deeper than the interpreter's stack
    ) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (
        numkernel.NotPositiveDefinite,
        numkernel.ConvergenceFailure,
        numkernel.Overflow,
        criteria.CenterNotBoundedEvaluation,
    ) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
