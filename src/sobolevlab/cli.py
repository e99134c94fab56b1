"""Command-line runner: scenarios in, deterministic reports out.

A scenario is either a JSON file (--spec) naming one command and its
inputs, or one of the named built-in experiments (--builtin).  Reports
are written under --out as JSON (plus CSV side files for sequences,
zero scatters, and matrix dumps) with fixed float formatting, so the
same invocation always produces byte-identical files.

Exit codes: 0 when every verdict was computed (verdicts of "fails" are
results, not errors), 2 for malformed scenarios or measures, options out
of range, or a --spec or --out path that cannot be used, 3 for
numeric failures (singular sections, convergence breakdowns, rejected
geometric hypotheses).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import criteria, measures, momentmatrix, numkernel, reporting, sobolev
from .polynomials import differentiate, evaluate, random_coeffs

__all__ = ["Scenario", "ScenarioFormatError", "list_builtins", "main", "parse_scenario", "run"]

DEFAULT_NMAX = 32
DEFAULT_SEED = 0
MAX_SECTION = 64
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class ScenarioFormatError(ValueError):
    """Malformed scenario description."""


# ---------------------------------------------------------------------------
# Scenario model
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    name: str
    command: str
    measure: measures.Measure | None = None
    pencil: tuple | None = None
    pencil_b: tuple | None = None
    weight: measures.WeightedCircle | None = None
    circles: tuple | None = None
    parameters: dict = field(default_factory=dict)


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
            raise ScenarioFormatError(
                f"expected [re, im, radius, fourier] circle entry, got {item!r}"
            )
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
# Command runners: runner(scenario, path prefix, **parameters) -> report body or CriterionReport
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


def _pencil(sc: Scenario) -> sobolev.SobolevPencil:
    return sobolev.pencil_of_measures(*sc.pencil)


def _matrix(sc: Scenario) -> momentmatrix.MomentMatrix:
    return momentmatrix.of_measure(sc.measure)


def _run_moments(sc, prefix, n) -> dict:
    m, _, dev, grid = _section_check(sc.measure, n, f"{prefix}_section.csv")
    return {
        "label": m.label,
        "n": n,
        "grid_points": grid,
        "max_quadrature_deviation": dev,
        "toeplitz": bool(n >= 2 and momentmatrix.is_toeplitz(m, n)),
        "verdict": "holds" if dev <= 1e-10 else "inconclusive",
    }


def _run_gram(sc, prefix, n) -> dict:
    pen = _pencil(sc)
    g = sobolev.gram_section(pen, n)
    _write_matrix(f"{prefix}_gram.csv", g)
    return {
        "pencil_label": pen.label,
        "n": n,
        "diagonal": [float(x) for x in g.diagonal().real],
        "verdict": "holds",
    }


def _run_opoly(sc, prefix, n) -> dict:
    pen = _pencil(sc)
    ops = sobolev.orthonormal_polys(pen.gram, n)
    _, w, _ = momentmatrix.factor(pen.gram, n)  # the rows of w are ops
    resid = float(np.max(np.abs(w @ sobolev.gram_section(pen, n) @ w.conj().T - np.eye(n))))
    rows = [[k, *c, *[0j] * (n - len(c))] for k, c in enumerate(ops)]
    reporting.write_csv(f"{prefix}_opoly.csv", ["degree"] + [f"c{j}" for j in range(n)], rows)
    return {
        "pencil_label": pen.label,
        "n": n,
        "orthonormality_residual": resid,
        "verdict": "holds" if resid <= 1e-9 else "inconclusive",
    }


def _run_zeros(sc, prefix, degree) -> dict:
    pen = _pencil(sc)
    bound = sobolev.mult_op_norm(pen, degree + 1)  # larger section first; the zeros read a block
    zeros = sobolev.sobolev_zeros(pen, degree)
    max_mod = float(np.max(np.abs(zeros)))
    reporting.write_csv(f"{prefix}_zeros.csv", ("re", "im", "modulus"), [(z.real, z.imag, abs(z)) for z in zeros])
    return {
        "pencil_label": pen.label,
        "degree": degree,
        "zeros": [[z.real, z.imag] for z in zeros],
        "max_zero_modulus": max_mod,
        "mult_op_norm": float(bound),
        "verdict": "holds" if max_mod <= bound + ZERO_BOUND_SLACK else "fails",
    }


def _run_multop(sc, prefix, n_max) -> dict:
    body = _mult_op(_pencil(sc), n_max, f"{prefix}_multop.csv")
    return dict(body, verdict="holds" if body["plateau"] else "inconclusive")


def _run_gamma(sc, prefix, n_max, a) -> dict:
    m = _matrix(sc)
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


def _run_dominance(sc, prefix, n, constant) -> criteria.CriterionReport:
    mu0, mu1 = sc.pencil
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
            lambda sc, prefix, n_max, a: criteria.bpe_decide(_matrix(sc), a, n_max)),
    "wirtinger": (("measure",), {"n": _size(2, MAX_SECTION), "constant": _positive},
                  lambda sc, prefix, n, constant: criteria.wirtinger_psd_check(_matrix(sc), constant, n)),
    "dominance": (("pencil",), {"n": _size(1, MAX_SECTION), "constant": _positive}, _run_dominance),
    "cond4": (("pencil",), {"n_max": _size(2, MAX_SECTION)},
              lambda sc, prefix, n_max: criteria.sobolev_domination_bound(_pencil(sc), n_max)),
    "compare": (("pencil", "pencil_b"), {"n_max": _size(2, MAX_SECTION)},
                lambda sc, prefix, n_max: criteria.comparability_bounds(
                    _pencil(sc), sobolev.pencil_of_measures(*sc.pencil_b), n_max)),
    "eigenlimits": (("weight",), {"n_list": _n_list},
                    lambda sc, prefix, n_list: criteria.eigen_limit_report(sc.weight.fourier, n_list)),
    "prop12": (("measure", "circles"), {"n_max": _size(2, MAX_SECTION)},
               lambda sc, prefix, n_max: criteria.bpe_weighted_circles_report(sc.measure, sc.circles, n_max)),
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

    sc = Scenario(name=name, command=command)
    for key in needs:
        setattr(sc, key, _INPUT_PARSERS[key](obj[key]))
    sc.parameters = {key: parse(params[key], key) for key, parse in parsers.items()}
    return sc


def run(sc: Scenario, out_dir: str) -> dict:
    """Execute a parsed scenario, write its files, return the report."""
    prefix = os.path.join(out_dir, sc.name)
    body = _COMMANDS[sc.command][2](sc, prefix, **sc.parameters)
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


def _zero_bound_scan(pen: sobolev.SobolevPencil, degrees) -> dict:
    """Max zero modulus per degree 1..d against the operator-norm bound,
    all read off the pencil's one Gram factor at size d + 1."""
    top = max(degrees) + 1
    ops = sobolev.orthonormal_polys(pen.gram, top)
    seq = sobolev.norm_sequence(pen, top, "mult_op")
    if not seq.ok():  # the factor passed, so an eigensolver failed
        raise numkernel.ConvergenceFailure(pen.label)
    mods = [float(np.max(np.abs(numkernel.companion_roots(ops[d])))) for d in degrees]
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


def _random_rows(rng, count: int, max_degree: int) -> np.ndarray:
    """``count`` random polynomials as the rows of a zero-padded
    count x (max_degree + 1) matrix.  Each is drawn in turn as
    deg = rng.integers(1, max_degree + 1), then random_coeffs(rng, deg),
    so the rows are bitwise those of a per-sample draw loop."""
    rows = np.zeros((count, max_degree + 1), dtype=complex)
    for row in rows:
        deg = int(rng.integers(1, max_degree + 1))
        row[: deg + 1] = random_coeffs(rng, deg)
    return rows


def _derivative_rows(rows: np.ndarray) -> np.ndarray:
    """Coefficient rows of the derivatives: column k is (k + 1) rows[:, k + 1]."""
    return rows[:, 1:] * np.arange(1, rows.shape[1])


def _forms(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The quadratic forms v A v^* of every row v, momentmatrix.norm_sq
    for a whole batch (A Hermitian and as wide as the rows)."""
    return np.sum((rows @ a) * rows.conj(), axis=1).real


def _builtin_lemma3_unitcircle(out_dir, n_max, rng) -> dict:
    m = momentmatrix.of_measure(UNIT)
    big = momentmatrix.section(m, 21)
    v = _random_rows(rng, 500, 20)
    centered = v.copy()
    centered[:, 0] = 0.0
    lhs = _forms(big, centered)
    rhs = _forms(big[:20, :20], _derivative_rows(v))
    worst = float(np.max(lhs - rhs))
    return {
        "label": m.label,
        "samples": 500,
        "max_degree": 20,
        "worst_inequality_excess": worst,
        "verdict": "holds" if worst <= 1e-9 else "fails",
    }


def _builtin_lemma3_shifted(out_dir, n_max, rng) -> dict:
    worst_rel_excess = -math.inf
    worst_identity_dev = 0.0
    pairs = []
    for _ in range(20):
        rad = math.sqrt(rng.uniform(0.0, 1.0))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        a = rad * complex(math.cos(ang), math.sin(ang))
        r = 2.0 * rng.uniform(0.05, 1.0)
        pairs.append((a, r))
    samples = _random_rows(rng, 20 * 25, 20).reshape(20, 25, 21)
    circle = np.exp(1j * (2.0 * np.pi * np.arange(4096) / 4096))  # e^{i theta}, shared by every pair
    for (a, r), v in zip(pairs, samples):
        sec = momentmatrix.section(momentmatrix.of_measure(measures.CircleLebesgue(a, r)), 20)
        # column k of v P is b_k r^k, b the Taylor coefficients about a
        taylor = v @ measures.circle_expansion(a, r, 21)
        lhs = np.sum(np.abs(taylor[:, 1:]) ** 2, axis=1)
        rhs = r * r * _forms(sec, _derivative_rows(v))
        scale = np.maximum(np.maximum(lhs, rhs), 1e-300)
        worst_rel_excess = max(worst_rel_excess, float(np.max((lhs - rhs) / scale)))
        z = a + r * circle
        q = np.abs(evaluate(v[0], z) - complex(evaluate(v[0], a))) ** 2
        quad = float(q.mean())
        worst_identity_dev = max(worst_identity_dev, abs(float(lhs[0]) - quad) / (1.0 + abs(quad)))
    ok = worst_rel_excess <= 1e-9 and worst_identity_dev <= 1e-10
    return {
        "pairs": [[a.real, a.imag, r] for a, r in pairs],
        "samples_per_pair": 25,
        "worst_relative_excess": worst_rel_excess,
        "worst_identity_deviation": worst_identity_dev,
        "verdict": "holds" if ok else "fails",
    }


def _builtin_prop6_equivalence(out_dir, n_max, rng) -> dict:
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
        consistency = True
        detail = 0.0
        big = momentmatrix.section(m, n + 1)
        small = momentmatrix.section(m, n)
        if rep.verdict == "holds":
            v = _random_rows(rng, 500, n)
            v[:, 0] = 0.0
            lhs = _forms(big, v)
            rhs = c * _forms(small, _derivative_rows(v))
            excess = lhs - rhs
            detail = max(detail, float(np.max(excess)))
            consistency = not np.any(excess > 1e-10 * np.maximum(np.maximum(lhs, rhs), 1.0))
        elif rep.witness is not None:
            lhs = momentmatrix.norm_sq(big, rep.witness)
            rhs = c * momentmatrix.norm_sq(small, differentiate(rep.witness))
            detail = lhs - rhs
            consistency = detail > 1e-10
        all_ok = all_ok and ok and consistency
        case_rows.append(
            {
                "case": tag,
                "constant": float(c),
                "n": n,
                "verdict": rep.verdict,
                "expected": expected,
                "lambda_min": rep.values[0],
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
    mismatches = 0
    rows = []
    cases = [momentmatrix.toeplitz_rule({0: 3.0}, label="3*identity"),
             momentmatrix.of_measure(measures.WeightedCircle(0.0, 1.0, W_COS08))]
    for _ in range(50):
        c = {0: complex(rng.uniform(0.5, 2.0))}
        if rng.uniform() < 0.5:
            for k in range(1, 4):
                rad = 0.05 * math.sqrt(rng.uniform(0.0, 1.0))
                ang = rng.uniform(0.0, 2.0 * math.pi)
                c[k] = rad * complex(math.cos(ang), math.sin(ang))
        cases.append(momentmatrix.toeplitz_rule(c, label=f"random-toeplitz-{len(rows)}"))
    for t in cases:
        rep = criteria.toeplitz_rigidity(t, n)
        direct = bool(rep.details["is_identity_multiple"])
        agrees = (rep.verdict == "holds") == direct
        mismatches += 0 if agrees else 1
        rows.append(
            {
                "label": t.label,
                "verdict": rep.verdict,
                "offdiag_max": rep.details["offdiag_max"],
                "is_identity_multiple": direct,
                "agrees": bool(agrees),
            }
        )
    return {
        "n": n,
        "cases": rows,
        "mismatches": mismatches,
        "verdict": "holds" if mismatches == 0 else "fails",
    }


def _builtin_example4(out_dir, n_max, rng) -> dict:
    dom = criteria.dominance_check(
        momentmatrix.of_measure(HALF), momentmatrix.of_measure(UNIT), 1e6, 16
    )
    witness_top = (
        None if dom.witness is None else int(np.argmax(np.abs(dom.witness)))
    )
    pen = sobolev.pencil_of_measures(HALF, UNIT, label="{m0=circle(0;1/2), m1=circle(0;1)}")
    mult = _mult_op(pen, n_max, os.path.join(out_dir, "example4-mr-m_multop.csv"))  # size n_max + 1 first
    bound = criteria.sobolev_domination_bound(pen, n_max)
    ok = (
        dom.verdict == "fails"
        and witness_top is not None
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
    contrast_top = (
        None if contrast.witness is None else int(np.argmax(np.abs(contrast.witness)))
    )
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
        and contrast_top is not None
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
    rows = []
    consistent = True
    for a in points:
        rep = criteria.bpe_decide(m, a, n_max)
        g_end = rep.details["gamma_end"]
        rows.append((a.real, a.imag, abs(a), g_end, rep.verdict))
        if abs(a) <= 0.9 and rep.verdict != "holds":
            consistent = False
        if abs(a) >= 1.1 and rep.verdict != "fails":
            consistent = False
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
    ns = [4, 8, 16, 32]
    rep = criteria.eigen_limit_report(W_COS08, ns)
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
    index = list_builtins().index(name)
    rng = np.random.default_rng([seed, index])
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

    if not 2 <= args.nmax <= MAX_SECTION:
        print(f"--nmax must lie in [2, {MAX_SECTION}]", file=sys.stderr)
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
            payload = json.load(fh)
        scenario = parse_scenario(payload)
        os.makedirs(args.out, exist_ok=True)
        report = run(scenario, args.out)
        print(f"{scenario.name}: {report['verdict']}")
        return 0
    except (
        ScenarioFormatError,
        measures.MeasureFormatError,
        json.JSONDecodeError,
        UnicodeDecodeError,
        FileNotFoundError,
        IsADirectoryError,  # --spec names a directory
        FileExistsError,  # --out names a file
        NotADirectoryError,  # --out lies below a file
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
