"""Command-line runner: scenarios in, deterministic reports out.

A scenario is either a JSON file (--spec) naming one command and its
inputs, or one of the named built-in experiments (--builtin).  Reports
are written under --out as JSON (plus CSV side files for sequences,
zero scatters, and matrix dumps) with fixed float formatting, so the
same invocation always produces byte-identical files.

Each command's runner takes its parsed inputs and parameters as keyword
arguments, under the names the scenario file gives them.

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
from dataclasses import dataclass

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

@dataclass
class Scenario:
    """A parsed scenario: its inputs and parameters are keyed by the names
    under which the command's runner takes them."""

    name: str
    command: str
    inputs: dict
    parameters: dict


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
# Command runners: runner(path prefix, **inputs, **parameters) -> report body or CriterionReport
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


def _section_check(mu: measures.Measure, n: int, path: str):
    """(matrix, n x n section, largest |section - quadrature| entry, grid
    size) on the smallest grid where the quadrature is exact
    (``measures.exact_grid``); the section is written to ``path``."""
    m = momentmatrix.of_measure(mu)
    a = momentmatrix.section(m, n)
    grid = measures.exact_grid(mu, n)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite oracle: NaN deviation, "inconclusive"
        dev = float(np.abs(a - measures.moment_quadrature(mu, range(n), range(n), grid)).max())
    _write_matrix(path, a)
    return m, a, dev, grid


def _mult_op(pen: sobolev.SobolevPencil, n_max: int, path: str | None = None) -> dict:
    """Report fields of the mult_op sequence; with ``path``, the sequence
    is also written there as CSV."""
    seq = sobolev.norm_sequence(pen, n_max, "mult_op")
    errors = ["" if e is None else e for e in seq.errors]
    if path is not None:
        reporting.write_csv(path, ("n", "value", "error"), list(zip(seq.n_list, seq.values, errors)))
    return {
        "pencil_label": seq.label,
        "quantity": seq.quantity,
        "n_list": list(seq.n_list),
        "values": list(seq.values),
        "errors": errors,
        "plateau": bool(seq.ok() and sobolev.plateau(seq.n_list, seq.values)),
    }


def _run_moments(prefix, measure, n) -> dict:
    m, _, dev, grid = _section_check(measure, n, f"{prefix}_section.csv")
    return {
        "label": m.label,
        "n": n,
        "grid_points": grid,
        "max_quadrature_deviation": dev,
        "toeplitz": bool(n >= 2 and momentmatrix.is_toeplitz(m, n)),
        "verdict": "holds" if dev <= 1e-10 else "inconclusive",
    }


def _run_gram(prefix, pencil, n) -> dict:
    pen = sobolev.pencil_of_measures(*pencil)
    g = sobolev.gram_section(pen, n)
    _write_matrix(f"{prefix}_gram.csv", g)
    return {
        "pencil_label": pen.label,
        "n": n,
        "diagonal": [float(x) for x in g.diagonal().real],
        "verdict": "holds",
    }


def _run_opoly(prefix, pencil, n) -> dict:
    pen = sobolev.pencil_of_measures(*pencil)
    ops = sobolev.orthonormal_polys(pen.gram, n)
    w = momentmatrix.factor(pen.gram, n).inverse  # its rows are ops
    resid = float(np.max(np.abs(w @ sobolev.gram_section(pen, n) @ w.conj().T - np.eye(n))))
    rows = [[k, *c, *[0j] * (n - len(c))] for k, c in enumerate(ops)]
    reporting.write_csv(f"{prefix}_opoly.csv", ["degree"] + [f"c{j}" for j in range(n)], rows)
    return {
        "pencil_label": pen.label,
        "n": n,
        "orthonormality_residual": resid,
        "verdict": "holds" if resid <= 1e-9 else "inconclusive",
    }


def _run_zeros(prefix, pencil, degree) -> dict:
    pen = sobolev.pencil_of_measures(*pencil)
    bound = sobolev.mult_op_norm(pen, degree + 1)  # larger section first; the zeros read a block
    zeros = sobolev.sobolev_zeros(pen, degree)
    max_mod = float(np.max(np.abs(zeros)))
    reporting.write_csv(f"{prefix}_zeros.csv", ("re", "im", "modulus"), [(z.real, z.imag, abs(z)) for z in zeros])
    return {
        "pencil_label": pen.label,
        "degree": degree,
        "zeros": [[z.real, z.imag] for z in zeros.tolist()],
        "max_zero_modulus": max_mod,
        "mult_op_norm": float(bound),
        "verdict": "holds" if max_mod <= bound + ZERO_BOUND_SLACK else "fails",
    }


def _run_multop(prefix, pencil, n_max) -> dict:
    body = _mult_op(sobolev.pencil_of_measures(*pencil), n_max, f"{prefix}_multop.csv")
    return dict(body, verdict="holds" if body["plateau"] else "inconclusive")


def _run_gamma(prefix, measure, n_max, a) -> dict:
    m = momentmatrix.of_measure(measure)
    ns = list(range(2, n_max + 1))
    vals = criteria.gamma_sequence(m, a, n_max)[1:]
    kernel = criteria.gamma_via_kernel(m, a, n_max)
    agreement = abs(vals[-1] - kernel) / max(abs(kernel), 1e-300)
    reporting.write_csv(f"{prefix}_gamma.csv", ("n", "gamma"), list(zip(ns, vals)))
    return {
        "label": m.label,
        "point": [a.real, a.imag],
        "n_list": ns,
        "values": vals,
        "kernel_value": kernel,
        "two_method_relative_gap": agreement,
        "verdict": "holds" if agreement <= 1e-9 else "inconclusive",
    }


def _run_dominance(prefix, pencil, n, constant) -> criteria.CriterionReport:
    mu0, mu1 = pencil
    if mu1 is None:
        raise ScenarioFormatError("dominance needs two measures")
    return criteria.dominance_check(momentmatrix.of_measure(mu0), momentmatrix.of_measure(mu1), constant, n)


# name -> (inputs, {parameter: parser}, runner); parameters are checked in order
_COMMANDS = {
    "moments": (("measure",), {"n": _size(1, MAX_SECTION)}, _run_moments),
    "gram": (("pencil",), {"n": _size(1, MAX_SECTION)}, _run_gram),
    "opoly": (("pencil",), {"n": _size(1, MAX_SECTION)}, _run_opoly),
    "zeros": (("pencil",), {"degree": _size(1, MAX_SECTION - 1)}, _run_zeros),
    "multop": (("pencil",), {"n_max": _size(2, MAX_SECTION)}, _run_multop),
    "gamma": (("measure",), {"n_max": _size(2, MAX_SECTION), "a": _point}, _run_gamma),
    "bpe": (("measure",), {"n_max": _size(4, MAX_SECTION), "a": _point},
            lambda prefix, measure, n_max, a: criteria.bpe_decide(momentmatrix.of_measure(measure), a, n_max)),
    "wirtinger": (("measure",), {"n": _size(2, MAX_SECTION), "constant": _positive},
                  lambda prefix, measure, n, constant: criteria.wirtinger_psd_check(
                      momentmatrix.of_measure(measure), constant, n)),
    "dominance": (("pencil",), {"n": _size(1, MAX_SECTION), "constant": _positive}, _run_dominance),
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
    return Scenario(name, command, inputs, {key: parse(params[key], key) for key, parse in parsers.items()})


def run(sc: Scenario, out_dir: str) -> dict:
    """Execute a parsed scenario, write its files into ``out_dir`` (made
    if missing), return the report."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, sc.name)
    body = _COMMANDS[sc.command][2](prefix, **sc.inputs, **sc.parameters)
    if isinstance(body, criteria.CriterionReport):
        if body.criterion in _REPORT_COLUMNS:
            _write_report_csv(body, f"{prefix}_{sc.command}.csv")
        body = {"report": body.to_dict(), "verdict": body.verdict}
    report = {"scenario": sc.name, "command": sc.command, **body}
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


def _zero_bound_scan(pen: sobolev.SobolevPencil, degrees) -> dict:
    """Max zero modulus per degree 1..d against the operator-norm bound,
    all read off the pencil's one Gram factor at size d + 1."""
    top = max(degrees) + 1
    ops = sobolev.orthonormal_polys(pen.gram, top)
    seq = sobolev.norm_sequence(pen, top, "mult_op")
    if not seq.ok():  # the factor passed, so an eigensolver failed
        raise numkernel.ConvergenceFailure(pen.label)
    mods = [  # c z^d, a rotation-invariant pencil's, has only the zero 0: no eigensolve
        float(np.max(np.abs(numkernel.companion_roots(ops[d])))) if ops[d][:-1].any() else 0.0 for d in degrees
    ]
    bounds = [seq.values[d] for d in degrees]
    worst_excess = max(m - b for m, b in zip(mods, bounds))
    return {
        "degrees": [int(d) for d in degrees],
        "max_zero_modulus": mods,
        "mult_op_bound": bounds,
        "worst_excess": worst_excess,
        "bounded": bool(worst_excess <= ZERO_BOUND_SLACK),
    }


def _builtin_identity_moments(out_dir, n_max, rng) -> dict:
    n = 32
    path = os.path.join(out_dir, "identity-moments_section.csv")
    m, a, quad_dev, grid = _section_check(UNIT, n, path)
    identity_dev = float(np.max(np.abs(a - np.eye(n))))
    verdict = "holds" if identity_dev == 0.0 and quad_dev <= 1e-10 else "fails"
    return {
        "label": m.label,
        "n": n,
        "max_identity_deviation": identity_dev,
        "max_quadrature_deviation": quad_dev,
        "quadrature_grid": grid,
        "verdict": verdict,
    }


def _wirtinger_sides(m: momentmatrix.MomentMatrix, v, n: int) -> tuple:
    """||p||^2 and ||p'||^2 in ``m`` of the coefficient row ``v`` of degree
    <= n, over section(m, n + 1) and section(m, n)."""
    return (momentmatrix.norm_sq(momentmatrix.section(m, n + 1), v),
            momentmatrix.norm_sq(momentmatrix.section(m, n), differentiate(v)))


def _builtin_lemma3_unitcircle(out_dir, n_max, rng) -> dict:
    # the PSD check bounds the constant 1; z, with ratio 1, shows no smaller one holds
    m = momentmatrix.of_measure(UNIT)
    rep = criteria.wirtinger_psd_check(m, 1.0, 20)
    lhs, rhs = _wirtinger_sides(m, Z, 20)
    ratio = lhs / rhs
    return {
        "label": m.label,
        "max_degree": 20,
        "wirtinger": rep.to_dict(),
        "witness": "z",
        "witness_ratio": ratio,
        "verdict": "holds" if rep.verdict == "holds" and abs(ratio - 1.0) <= WITNESS_RTOL else "fails",
    }


def _builtin_lemma3_shifted(out_dir, n_max, rng) -> dict:
    pairs = []
    for _ in range(20):
        rad = math.sqrt(rng.uniform(0.0, 1.0))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        a = rad * complex(math.cos(ang), math.sin(ang))
        r = 2.0 * rng.uniform(0.05, 1.0)
        pairs.append((a, r))
    # the PSD checks bound the constants r^2; z - a, with ratio r^2, attains them
    reports, ratios = criteria.circle_wirtinger_checks(*zip(*pairs), 20)
    worst = max(abs(ratio / rep.constant - 1.0) for ratio, rep in zip(ratios.tolist(), reports))
    ok = all(rep.verdict == "holds" for rep in reports) and worst <= WITNESS_RTOL
    return {
        "pairs": [[a.real, a.imag, r] for a, r in pairs],
        "max_degree": 20,
        "lambda_min": [rep.values[0] for rep in reports],
        "tolerance": [rep.details["tolerance"] for rep in reports],
        "witness": "z - a",
        "worst_witness_ratio_deviation": worst,
        "verdict": "holds" if ok else "fails",
    }


def _builtin_prop6_equivalence(out_dir, n_max, rng) -> dict:
    # a "holds" case is consistent when z attains its constant, a "fails"
    # case when its witness beats the constant
    graded = momentmatrix.MomentMatrix(
        build=lambda n: np.diag([5.0**k for k in range(n)]).astype(complex),
        label="diag(5^k)",
    )
    cases = [
        ("lebesgue-unit", momentmatrix.of_measure(UNIT), 1.0, 16, "holds"),
        ("weighted-cos-0.4", momentmatrix.of_measure(measures.WeightedCircle(0.0, 1.0, W_COS08)), 1.0, 3, "fails"),
        ("graded-diagonal", graded, 1.0, 8, "fails"),
        ("shifted-circle-r2", momentmatrix.of_measure(measures.CircleLebesgue(0.0, 2.0)), 4.0, 12, "holds"),
    ]
    case_rows = []
    all_ok = True
    for tag, m, c, n, expected in cases:
        rep = criteria.wirtinger_psd_check(m, c, n)
        ok = rep.verdict == expected
        witness = Z if rep.verdict == "holds" else rep.witness
        consistency, detail, ratio = True, 0.0, None
        if witness is not None:
            lhs, rhs = _wirtinger_sides(m, witness, n)
            detail, ratio = lhs - c * rhs, lhs / rhs
            consistency = abs(detail) <= WITNESS_RTOL * c * rhs if rep.verdict == "holds" else detail > 1e-10
        all_ok = all_ok and ok and consistency
        case_rows.append(
            {
                "case": tag,
                "constant": float(c),
                "n": n,
                "verdict": rep.verdict,
                "expected": expected,
                "lambda_min": rep.values[0],
                "witness_ratio": ratio,
                "consistency_margin": detail,
                "consistent": bool(consistency),
            }
        )
    return {
        "cases": case_rows,
        "verdict": "holds" if all_ok else "fails",
    }


def _builtin_prop7_rigidity(out_dir, n_max, rng) -> dict:
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
    rows = []
    for t, rep in zip(cases, criteria.toeplitz_rigidities(cases, n)):
        direct = bool(rep.details["is_identity_multiple"])
        rows.append(
            {
                "label": t.label,
                "verdict": rep.verdict,
                "offdiag_max": rep.details["offdiag_max"],
                "is_identity_multiple": direct,
                "agrees": (rep.verdict == "holds") == direct,
            }
        )
    mismatches = sum(not row["agrees"] for row in rows)
    return {
        "n": n,
        "cases": rows,
        "mismatches": mismatches,
        "verdict": "holds" if mismatches == 0 else "fails",
    }


def _builtin_example4(out_dir, n_max, rng) -> dict:
    dom = criteria.dominance_check(momentmatrix.of_measure(HALF), momentmatrix.of_measure(UNIT), 1e6, 16)
    witness_top = None if dom.witness is None else int(np.argmax(np.abs(dom.witness)))
    pen = sobolev.pencil_of_measures(HALF, UNIT, label="{m0=circle(0;1/2), m1=circle(0;1)}")
    mult = _mult_op(pen, n_max, os.path.join(out_dir, "example4-mr-m_multop.csv"))  # size n_max + 1 first
    bound = criteria.sobolev_domination_bound(pen, n_max)
    ok = (
        dom.verdict == "fails"  # a "fails" report carries its witness
        and witness_top >= 10
        and bound.verdict == "holds"
        and mult["plateau"]
    )
    return {
        "dominance": dom.to_dict(),
        "dominance_witness_top_power": witness_top,
        "domination": bound.to_dict(),
        "mult_op": mult,
        "verdict": "holds" if ok else "fails",
    }


def _builtin_example5(out_dir, n_max, rng) -> dict:
    atoms = measures.Atomic(((0.3 + 0.0j, 1.0), (-0.2 + 0.4j, 1.0)))
    pen = sobolev.pencil_of_measures(UNIT, atoms)
    mult = _mult_op(pen, n_max, os.path.join(out_dir, "example5-discrete_multop.csv"))  # size n_max + 1 first
    bound = criteria.sobolev_domination_bound(pen, n_max)
    zeros = _zero_bound_scan(pen, range(1, 13))
    ok = bound.verdict == "holds" and mult["plateau"] and zeros["bounded"]
    return {
        "domination": bound.to_dict(),
        "mult_op": mult,
        "zero_bound_scan": zeros,
        "verdict": "holds" if ok else "fails",
    }


def _builtin_example6(out_dir, n_max, rng) -> dict:
    pen = sobolev.pencil_of_measures(UNIT, measures.CircleLebesgue(0.5, 2.0))
    mult = _mult_op(pen, n_max, os.path.join(out_dir, "example6-circles_multop.csv"))
    bound = criteria.sobolev_domination_bound(pen, n_max)  # before the scan replaces the n_max factor
    zeros = _zero_bound_scan(pen, range(1, 21))
    reporting.write_csv(
        os.path.join(out_dir, "example6-circles_zeros.csv"),
        ("degree", "max_zero_modulus", "mult_op_bound"),
        list(zip(zeros["degrees"], zeros["max_zero_modulus"], zeros["mult_op_bound"])),
    )
    ok = mult["plateau"] and zeros["bounded"] and bound.verdict == "holds"
    return {
        "mult_op": mult,
        "zero_bound_scan": zeros,
        "domination": bound.to_dict(),
        "verdict": "holds" if ok else "fails",
    }


def _builtin_example7(out_dir, n_max, rng) -> dict:
    pen_p = sobolev.pencil_of_measures(HALF, UNIT, label="{m0=circle(0;1/2), m1=circle(0;1)}")
    pen_q = sobolev.pencil_of_measures(HALF_PLUS_UNIT, UNIT, label="{m0=circle(0;1/2)+circle(0;1), m1=circle(0;1)}")
    comp = criteria.comparability_bounds(pen_p, pen_q, n_max)
    _write_report_csv(comp, os.path.join(out_dir, "example7-comparability_compare.csv"))
    contrast = criteria.dominance_check(
        momentmatrix.of_measure(HALF), momentmatrix.of_measure(HALF_PLUS_UNIT), float(4**14), 16
    )
    contrast_top = None if contrast.witness is None else int(np.argmax(np.abs(contrast.witness)))
    ratio_dev = 0.0
    for k in range(1, 21):
        num = measures.moment(HALF_PLUS_UNIT, k, k).real
        den = measures.moment(HALF, k, k).real
        expected = 1.0 + 4.0**k
        ratio_dev = max(ratio_dev, abs(num / den - expected) / expected)
    mult = _mult_op(pen_p, n_max)
    zeros = _zero_bound_scan(pen_p, range(1, 21))
    ok = (
        comp.verdict == "holds"
        and comp.details["lower_constant"] >= 1.0
        and contrast.verdict == "fails"
        and contrast_top >= 10
        and ratio_dev <= 1e-8
        and mult["plateau"]
        and zeros["bounded"]
    )
    return {
        "comparability": comp.to_dict(),
        "component_dominance": contrast.to_dict(),
        "component_dominance_witness_top_power": contrast_top,
        "monomial_ratio_max_relative_deviation": ratio_dev,
        "mult_op": mult,
        "zero_bound_scan": zeros,
        "verdict": "holds" if ok else "fails",
    }


def _builtin_bpe_disk_map(out_dir, n_max, rng) -> dict:
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
    return {
        "label": m.label,
        "n_max": n_max,
        "points": len(points),
        "disk_agrees_with_geometry": bool(consistent),
        "verdict": "holds" if consistent else "fails",
    }


def _builtin_eigenlimits(out_dir, n_max, rng) -> dict:
    rep = criteria.eigen_limit_report(W_COS08, [4, 8, 16, 32])
    _write_report_csv(rep, os.path.join(out_dir, "eigenlimits-weighted_limits.csv"))
    return {
        "report": rep.to_dict(),
        "verdict": rep.verdict,
    }


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
    report = {"scenario": name, "command": "builtin", **_BUILTINS[name](out_dir, n_max, rng)}
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
