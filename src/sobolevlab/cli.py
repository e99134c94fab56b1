"""Command-line runner: scenarios in, deterministic reports out.

A scenario is either a JSON file (--spec) naming one command and its
inputs, or one of the named built-in experiments (--builtin).  Reports
are written under --out as JSON (plus CSV side files for sequences,
zero scatters, and matrix dumps) with fixed float formatting, so the
same invocation always produces byte-identical files.

Exit codes: 0 when every verdict was computed (verdicts of "fails" are
results, not errors), 2 for malformed scenarios or measures, 3 for
numeric failures (singular sections, convergence breakdowns, rejected
geometric hypotheses).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import criteria, measures, momentmatrix, numkernel, reporting, sobolev
from .polynomials import differentiate, evaluate, random_coeffs, recenter

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

_COMMANDS = {
    "moments": (("measure",), {"n": True, "grid_points": False}),
    "gram": (("pencil",), {"n": True}),
    "opoly": (("pencil",), {"n": True}),
    "zeros": (("pencil",), {"degree": True}),
    "multop": (("pencil",), {"n_max": True}),
    "gamma": (("measure",), {"a": True, "n_max": True}),
    "bpe": (("measure",), {"a": True, "n_max": True}),
    "wirtinger": (("measure",), {"constant": True, "n": True}),
    "dominance": (("pencil",), {"constant": True, "n": True}),
    "cond4": (("pencil",), {"n_max": True}),
    "compare": (("pencil", "pencil_b"), {"n_max": True}),
    "eigenlimits": (("weight",), {"n_list": True}),
    "prop12": (("measure", "circles"), {"n_max": True}),
}


@dataclass
class Scenario:
    name: str
    command: str
    measure: measures.Measure | None = None
    pencil: tuple | None = None
    pencil_b: tuple | None = None
    weight: tuple | None = None
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
        radius = measures.parse_real(item[2], "circle radius")
        out.append((center, radius, measures.parse_fourier(item[3])))
    return tuple(out)


_INPUT_PARSERS = {
    "measure": measures.from_json,
    "pencil": _parse_pencil,
    "pencil_b": _parse_pencil,
    "weight": measures.parse_fourier,
    "circles": _parse_circles,
}


def _int_in(params, key, lo, hi) -> int:
    v = params[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ScenarioFormatError(f"parameter {key!r} must be an integer")
    if not lo <= v <= hi:
        raise ScenarioFormatError(f"parameter {key!r} must lie in [{lo}, {hi}]")
    return v


def parse_scenario(obj) -> Scenario:
    """Validate a scenario object; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    allowed_top = {"name", "command", "measure", "pencil", "pencil_b", "weight", "circles", "parameters"}
    extra = [k for k in obj if k not in allowed_top]
    if extra:
        raise ScenarioFormatError(f"scenario has unknown keys {extra}")
    name = obj.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ScenarioFormatError("scenario needs a 'name' of letters, digits, ., _, -")
    command = obj.get("command")
    if command not in _COMMANDS:
        raise ScenarioFormatError(f"unknown command {command!r}")
    needs, param_spec = _COMMANDS[command]
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
        if key not in param_spec:
            raise ScenarioFormatError(f"command {command!r} does not take parameter {key!r}")
    for key, required in param_spec.items():
        if required and key not in params:
            raise ScenarioFormatError(f"command {command!r} requires parameter {key!r}")

    sc = Scenario(name=name, command=command, parameters=dict(params))
    for key in needs:
        setattr(sc, key, _INPUT_PARSERS[key](obj[key]))

    # numeric bounds
    if "n" in param_spec:
        lo = 2 if command == "wirtinger" else 1
        sc.parameters["n"] = _int_in(params, "n", lo, MAX_SECTION)
    if "n_max" in param_spec:
        lo = 4 if command == "bpe" else 2
        sc.parameters["n_max"] = _int_in(params, "n_max", lo, MAX_SECTION)
    if "degree" in param_spec:
        sc.parameters["degree"] = _int_in(params, "degree", 1, MAX_SECTION - 1)
    if "grid_points" in params:
        sc.parameters["grid_points"] = _int_in(params, "grid_points", measures.MIN_CIRCLE_GRID, 1 << 20)
    if "n_list" in param_spec:
        ns = params["n_list"]
        if (
            not isinstance(ns, (list, tuple))
            or not ns
            or not all(isinstance(n, int) and 1 <= n <= MAX_SECTION for n in ns)
            or any(b <= a for a, b in zip(ns, ns[1:]))
        ):
            raise ScenarioFormatError("n_list must be a strictly increasing list of sizes <= 64")
        sc.parameters["n_list"] = [int(n) for n in ns]
    if "a" in param_spec:
        sc.parameters["a"] = measures.parse_pair(params["a"], "parameter 'a'", ScenarioFormatError)
    if "constant" in param_spec:
        c = params["constant"]
        if not isinstance(c, (int, float)) or isinstance(c, bool) or not c > 0:
            raise ScenarioFormatError("parameter 'constant' must be a positive number")
        sc.parameters["constant"] = float(c)
    return sc


# ---------------------------------------------------------------------------
# Command runners
# ---------------------------------------------------------------------------

def _mult_op(pen: sobolev.SobolevPencil, n_max: int, out_dir=None, name="") -> dict:
    """Report fields of the mult_op sequence; with ``out_dir``, the
    sequence is also written to <name>_multop.csv."""
    seq = sobolev.norm_sequence(pen, n_max, "mult_op")
    if out_dir is not None:
        rows = [(n, v, "" if e is None else e) for n, v, e in zip(seq.n_list, seq.values, seq.errors)]
        reporting.write_csv(os.path.join(out_dir, f"{name}_multop.csv"), ("n", "value", "error"), rows)
    return {
        "pencil_label": seq.label,
        "quantity": seq.quantity,
        "n_list": list(seq.n_list),
        "values": list(seq.values),
        "errors": ["" if e is None else e for e in seq.errors],
        "plateau": bool(seq.ok() and sobolev.plateau(seq.n_list, seq.values)),
    }


def _quadrature_deviation(mu: measures.Measure, a: np.ndarray, grid: int) -> float:
    """Largest |a[i, j] - moment_quadrature(mu, i, j)| over the section."""
    n = a.shape[0]
    return max(abs(a[i, j] - measures.moment_quadrature(mu, i, j, grid)) for i in range(n) for j in range(n))


def _write_matrix(path: str, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(momentmatrix.section_csv(a))


def run(sc: Scenario, out_dir: str, seed: int = DEFAULT_SEED) -> dict:
    """Execute a parsed scenario, write its files, return the report."""
    cmd = sc.command
    p = sc.parameters
    pen = None if sc.pencil is None else sobolev.pencil_of_measures(*sc.pencil)

    def side_file(tag: str) -> str:
        return os.path.join(out_dir, f"{sc.name}_{tag}.csv")

    rep = None
    if cmd == "moments":
        m = momentmatrix.of_measure(sc.measure)
        n = p["n"]
        grid = p.get("grid_points", measures.WEIGHT_GRID_POINTS)
        a = momentmatrix.section(m, n)
        dev = _quadrature_deviation(sc.measure, a, grid)
        _write_matrix(side_file("section"), a)
        body = {
            "label": m.label,
            "n": n,
            "grid_points": grid,
            "max_quadrature_deviation": dev,
            "toeplitz": bool(n >= 2 and momentmatrix.is_toeplitz(m, n)),
            "verdict": "holds" if dev <= 1e-10 else "inconclusive",
        }
    elif cmd == "gram":
        n = p["n"]
        g = sobolev.gram_section(pen, n)
        _write_matrix(side_file("gram"), g)
        body = {
            "pencil_label": pen.label,
            "n": n,
            "diagonal": [float(x) for x in g.diagonal().real],
            "verdict": "holds",
        }
    elif cmd == "opoly":
        n = p["n"]
        ops = sobolev.orthonormal_polys(pen, n)
        g = sobolev.gram_section(pen, n)
        resid = 0.0
        for j, cj in enumerate(ops.coeffs):
            for k, ck in enumerate(ops.coeffs):
                ip = momentmatrix.inner_product(g, cj, ck)
                resid = max(resid, abs(ip - (1.0 if j == k else 0.0)))
        rows = []
        for k, c in enumerate(ops.coeffs):
            padded = list(c) + [0j] * (n - len(c))
            rows.append([k] + [f"{z.real:.12e}{z.imag:+.12e}i" for z in padded])
        reporting.write_csv(side_file("opoly"), ["degree"] + [f"c{j}" for j in range(n)], rows)
        body = {
            "pencil_label": pen.label,
            "n": n,
            "orthonormality_residual": resid,
            "verdict": "holds" if resid <= 1e-9 else "inconclusive",
        }
    elif cmd == "zeros":
        deg = p["degree"]
        zeros = sobolev.sobolev_zeros(pen, deg)
        bound = sobolev.mult_op_norm(pen, deg + 1)
        max_mod = float(np.max(np.abs(zeros)))
        reporting.write_csv(side_file("zeros"), ("re", "im", "modulus"), [(z.real, z.imag, abs(z)) for z in zeros])
        body = {
            "pencil_label": pen.label,
            "degree": deg,
            "zeros": [[z.real, z.imag] for z in zeros],
            "max_zero_modulus": max_mod,
            "mult_op_norm": float(bound),
            "verdict": "holds" if max_mod <= bound + 1e-6 else "fails",
        }
    elif cmd == "multop":
        body = _mult_op(pen, p["n_max"], out_dir, sc.name)
        body["verdict"] = "holds" if body["plateau"] else "inconclusive"
    elif cmd == "gamma":
        m = momentmatrix.of_measure(sc.measure)
        a = p["a"]
        n_max = p["n_max"]
        ns = list(range(2, n_max + 1))
        vals = criteria.gamma_sequence(m, a, n_max)[1:]
        kernel = criteria.gamma_via_kernel(m, a, n_max)
        agreement = abs(vals[-1] - kernel) / max(abs(kernel), 1e-300)
        reporting.write_csv(side_file("gamma"), ("n", "gamma"), list(zip(ns, vals)))
        body = {
            "label": m.label,
            "point": [a.real, a.imag],
            "n_list": ns,
            "values": vals,
            "kernel_value": kernel,
            "two_method_relative_gap": agreement,
            "verdict": "holds" if agreement <= 1e-9 else "inconclusive",
        }
    elif cmd == "bpe":
        rep = criteria.bpe_decide(momentmatrix.of_measure(sc.measure), p["a"], p["n_max"])
    elif cmd == "wirtinger":
        rep = criteria.wirtinger_psd_check(momentmatrix.of_measure(sc.measure), p["constant"], p["n"])
    elif cmd == "dominance":
        mu0, mu1 = sc.pencil
        if mu1 is None:
            raise ScenarioFormatError("dominance needs two measures")
        rep = criteria.dominance_check(
            momentmatrix.of_measure(mu0), momentmatrix.of_measure(mu1), p["constant"], p["n"]
        )
    elif cmd == "cond4":
        rep = criteria.sobolev_domination_bound(pen, p["n_max"])
        reporting.write_csv(side_file("cond4"), ("n", "value"), list(zip(rep.n_list, rep.values)))
    elif cmd == "compare":
        rep = criteria.comparability_bounds(pen, sobolev.pencil_of_measures(*sc.pencil_b), p["n_max"])
        reporting.write_csv(
            side_file("compare"),
            ("n", "lower", "upper"),
            list(zip(rep.n_list, rep.details["lower_values"], rep.values)),
        )
    elif cmd == "eigenlimits":
        rep = criteria.eigen_limit_report(sc.weight, p["n_list"])
        reporting.write_csv(
            side_file("eigenlimits"),
            ("n", "lambda_min", "lambda_max"),
            list(zip(rep.n_list, rep.values, rep.details["beta_values"])),
        )
    elif cmd == "prop12":
        rep = criteria.bpe_weighted_circles_report(sc.measure, sc.circles, p["n_max"])
    else:  # pragma: no cover - parse_scenario guards this
        raise ScenarioFormatError(f"unknown command {cmd!r}")
    if rep is not None:
        body = {"report": rep.to_dict(), "verdict": rep.verdict}

    report = {"scenario": sc.name, "command": cmd, **body}
    reporting.write_json(os.path.join(out_dir, f"{sc.name}.json"), report)
    return report


# ---------------------------------------------------------------------------
# Built-in experiments
# ---------------------------------------------------------------------------

UNIT = measures.CircleLebesgue(0.0, 1.0)
HALF = measures.CircleLebesgue(0.0, 0.5)
W_COS08 = ((0, 1.0 + 0j), (1, 0.4 + 0j), (-1, 0.4 + 0j))  # w = 1 + 0.8 cos
HALF_PLUS_UNIT = measures.MeasureSum(((1.0, HALF), (1.0, UNIT)))

ZERO_BOUND_SLACK = 1e-6


def _zero_bound_scan(pen: sobolev.SobolevPencil, degrees) -> dict:
    """Max zero modulus per degree against the operator-norm bound."""
    rows = []
    worst_excess = -math.inf
    for deg in degrees:
        zeros = sobolev.sobolev_zeros(pen, deg)
        bound = sobolev.mult_op_norm(pen, deg + 1)
        max_mod = float(np.max(np.abs(zeros)))
        worst_excess = max(worst_excess, max_mod - bound)
        rows.append((deg, max_mod, bound))
    return {
        "degrees": [int(d) for d, _, _ in rows],
        "max_zero_modulus": [m for _, m, _ in rows],
        "mult_op_bound": [b for _, _, b in rows],
        "worst_excess": worst_excess,
        "bounded": bool(worst_excess <= ZERO_BOUND_SLACK),
    }


def _builtin_identity_moments(out_dir, n_max, rng) -> dict:
    m = momentmatrix.of_measure(UNIT)
    n = 32
    a = momentmatrix.section(m, n)
    identity_dev = float(np.max(np.abs(a - np.eye(n))))
    quad_dev = _quadrature_deviation(UNIT, a, 4096)
    _write_matrix(os.path.join(out_dir, "identity-moments_section.csv"), a)
    verdict = "holds" if identity_dev == 0.0 and quad_dev <= 1e-10 else "fails"
    return {
        "label": m.label,
        "n": n,
        "max_identity_deviation": identity_dev,
        "max_quadrature_deviation": quad_dev,
        "quadrature_grid": 4096,
        "verdict": verdict,
    }


def _builtin_lemma3_unitcircle(out_dir, n_max, rng) -> dict:
    m = momentmatrix.of_measure(UNIT)
    big = momentmatrix.section(m, 21)
    worst = -math.inf
    for _ in range(500):
        deg = int(rng.integers(1, 21))
        v = random_coeffs(rng, deg)
        centered = v.copy()
        centered[0] = 0.0
        lhs = momentmatrix.norm_sq(big, centered)
        rhs = momentmatrix.norm_sq(big[:deg, :deg], differentiate(v))
        worst = max(worst, lhs - rhs)
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
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    for a, r in pairs:
        mar = momentmatrix.of_measure(measures.CircleLebesgue(a, r))
        sec = momentmatrix.section(mar, 20)
        for sample in range(25):
            deg = int(rng.integers(1, 21))
            v = random_coeffs(rng, deg)
            b = recenter(v, a)
            r2k = r ** (2 * np.arange(len(b)))
            lhs = float(np.sum(np.abs(b[1:]) ** 2 * r2k[1:]))
            rhs = momentmatrix.norm_sq(sec[:deg, :deg], differentiate(v))
            scale = max(lhs, r * r * rhs, 1e-300)
            worst_rel_excess = max(worst_rel_excess, (lhs - r * r * rhs) / scale)
            if sample == 0:
                z = a + r * np.exp(1j * theta)
                q = np.abs(evaluate(v, z) - complex(evaluate(v, a))) ** 2
                quad = float(q.mean())
                worst_identity_dev = max(
                    worst_identity_dev, abs(lhs - quad) / (1.0 + abs(quad))
                )
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
            for _ in range(500):
                deg = int(rng.integers(1, n + 1))
                v = random_coeffs(rng, deg)
                v = np.concatenate(([0j], v[1:])) if len(v) > 1 else np.array([0j, 1.0 + 0j])
                v[0] = 0.0
                lhs = momentmatrix.norm_sq(big, v)
                rhs = c * momentmatrix.norm_sq(small, differentiate(v))
                excess = lhs - rhs
                detail = max(detail, excess)
                if excess > 1e-10 * max(lhs, rhs, 1.0):
                    consistency = False
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
    bound = criteria.sobolev_domination_bound(pen, n_max)
    mult = _mult_op(pen, n_max, out_dir, "example4-mr-m")
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
    bound = criteria.sobolev_domination_bound(pen, n_max)
    mult = _mult_op(pen, n_max, out_dir, "example5-discrete")
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
    mult = _mult_op(pen, n_max, out_dir, "example6-circles")
    zeros = _zero_bound_scan(pen, range(1, 21))
    reporting.write_csv(
        os.path.join(out_dir, "example6-circles_zeros.csv"),
        ("degree", "max_zero_modulus", "mult_op_bound"),
        list(zip(zeros["degrees"], zeros["max_zero_modulus"], zeros["mult_op_bound"])),
    )
    bound = criteria.sobolev_domination_bound(pen, n_max)
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
    reporting.write_csv(
        os.path.join(out_dir, "example7-comparability_compare.csv"),
        ("n", "lower", "upper"),
        list(zip(comp.n_list, comp.details["lower_values"], comp.values)),
    )
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
    reporting.write_csv(
        os.path.join(out_dir, "eigenlimits-weighted_limits.csv"),
        ("n", "lambda_min", "lambda_max"),
        list(zip(rep.n_list, rep.values, rep.details["beta_values"])),
    )
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

def main(argv=None) -> int:
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
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized experiments (default: 0)")
    args = parser.parse_args(argv)

    if args.list_builtins:
        for name in list_builtins():
            print(name)
        return 0

    if not 2 <= args.nmax <= MAX_SECTION:
        print(f"--nmax must lie in [2, {MAX_SECTION}]", file=sys.stderr)
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
        report = run(scenario, args.out, seed=args.seed)
        print(f"{scenario.name}: {report['verdict']}")
        return 0
    except (ScenarioFormatError, measures.MeasureFormatError, json.JSONDecodeError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (
        numkernel.NotPositiveDefinite,
        numkernel.ConvergenceFailure,
        criteria.CenterNotBoundedEvaluation,
    ) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
