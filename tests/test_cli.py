"""Scenario parsing, command dispatch, exit codes, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import sobolevlab
from sobolevlab import cli, criteria, measures, momentmatrix, numkernel, sobolev
from sobolevlab.cli import (
    Scenario,
    ScenarioFormatError,
    list_builtins,
    main,
    parse_scenario,
    run,
    run_builtin,
)
from sobolevlab.measures import MeasureFormatError
from sobolevlab.numkernel import ConvergenceFailure
from sobolevlab.polynomials import differentiate, evaluate

from oracles import recenter

UNIT_JSON = {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0}
HALF_JSON = {"kind": "circle", "center": [0.0, 0.0], "radius": 0.5}
ATOM_JSON = {"kind": "atomic", "atoms": [[3.0, 0.0, 1.0]]}


def gamma_scenario(name="my-gamma"):
    return {
        "name": name,
        "command": "gamma",
        "measure": UNIT_JSON,
        "parameters": {"a": [0.5, 0.25], "n_max": 16},
    }


def write_spec(tmp_path, obj, fname="scenario.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_scenario_happy_path():
    sc = parse_scenario(gamma_scenario())
    assert isinstance(sc, Scenario)
    assert sc.command == "gamma"
    assert sc.parameters["a"] == 0.5 + 0.25j
    assert sc.parameters["n_max"] == 16


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.update(color="red"),
        lambda o: o.update(name="has spaces"),
        lambda o: o.update(name=""),
        lambda o: o.pop("name"),
        lambda o: o.update(command="frobnicate"),
        lambda o: o.pop("measure"),
        lambda o: o.update(pencil={"m0": UNIT_JSON, "m1": None}),
        lambda o: o["parameters"].pop("n_max"),
        lambda o: o["parameters"].update(n=4),
        lambda o: o["parameters"].update(n_max=65),
        lambda o: o["parameters"].update(n_max=3.5),
        lambda o: o["parameters"].update(n_max=True),
        lambda o: o["parameters"].update(a=[1.0]),
        lambda o: o["parameters"].update(a=0.5),
    ],
)
def test_parse_scenario_rejections(mutate):
    obj = gamma_scenario()
    mutate(obj)
    with pytest.raises(ScenarioFormatError):
        parse_scenario(obj)


def test_parse_scenario_command_bounds():
    with pytest.raises(ScenarioFormatError, match="n_max"):
        parse_scenario(
            {"name": "b", "command": "bpe", "measure": UNIT_JSON,
             "parameters": {"a": [0.0, 0.0], "n_max": 3}}
        )
    with pytest.raises(ScenarioFormatError):
        parse_scenario(
            {"name": "w", "command": "wirtinger", "measure": UNIT_JSON,
             "parameters": {"constant": 1.0, "n": 1}}
        )
    with pytest.raises(ScenarioFormatError, match="constant"):
        parse_scenario(
            {"name": "w", "command": "wirtinger", "measure": UNIT_JSON,
             "parameters": {"constant": -1.0, "n": 4}}
        )
    with pytest.raises(ScenarioFormatError, match="n_list"):
        parse_scenario(
            {"name": "e", "command": "eigenlimits", "weight": [[0, 1.0, 0.0]],
             "parameters": {"n_list": [8, 8]}}
        )


def test_parse_scenario_pencil_shape():
    ok = {"name": "g", "command": "gram",
          "pencil": {"m0": UNIT_JSON, "m1": None}, "parameters": {"n": 4}}
    sc = parse_scenario(ok)
    assert sc.inputs["pencil"][1] is None
    for bad_pencil in ({"m0": UNIT_JSON}, {"m0": UNIT_JSON, "m1": None, "m2": None}, [UNIT_JSON, None]):
        bad = dict(ok, pencil=bad_pencil)
        with pytest.raises(ScenarioFormatError):
            parse_scenario(bad)


def test_parse_scenario_circles():
    sc = parse_scenario(
        {"name": "p", "command": "prop12", "measure": HALF_JSON,
         "circles": [[0.0, 0.0, 1.0, [[0, 1.0, 0.0]]]],
         "parameters": {"n_max": 8}}
    )
    circle = sc.inputs["circles"][0]
    assert circle.center == 0.0 + 0.0j and circle.radius == 1.0
    with pytest.raises(ScenarioFormatError):
        parse_scenario(
            {"name": "p", "command": "prop12", "measure": HALF_JSON,
             "circles": [], "parameters": {"n_max": 8}}
        )


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------

def test_run_gamma_writes_fixed_format_report(tmp_path):
    sc = parse_scenario(gamma_scenario())
    report = run(sc, str(tmp_path))
    assert report["verdict"] == "holds"
    assert report["records"][0]["details"]["two_method_relative_gap"] <= 1e-9
    text = (tmp_path / "my-gamma.json").read_text(encoding="utf-8")
    # every float is rendered with 12-digit scientific notation
    assert re.search(r'"kernel_value": -?\d\.\d{12}e[+-]\d{2,3}', text)
    csv_text = (tmp_path / "my-gamma_gamma.csv").read_text(encoding="utf-8")
    assert csv_text.splitlines()[0] == "n,gamma"
    assert len(csv_text.splitlines()) == 1 + 15  # n = 2..16


def test_run_moments_weighted_circle(tmp_path):
    sc = parse_scenario(
        {"name": "mom", "command": "moments",
         "measure": {"kind": "weighted_circle", "center": [0.0, 0.0], "radius": 1.0,
                     "fourier": [[0, 1.0, 0.0], [1, 0.4, 0.0], [-1, 0.4, 0.0]]},
         "parameters": {"n": 6}}
    )
    report = run(sc, str(tmp_path))
    assert report["verdict"] == "holds"
    [record] = report["records"]
    assert record["details"]["toeplitz"] is True
    assert record["values"][0] <= 1e-10
    assert record["details"]["grid_points"] == 256  # n + weight degree = 7: the smallest grid is exact
    header = (tmp_path / "mom_section.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(f"col_{j}" for j in range(6))


def test_run_zeros_reports_bound(tmp_path):
    sc = parse_scenario(
        {"name": "z", "command": "zeros",
         "pencil": {"m0": UNIT_JSON, "m1": UNIT_JSON}, "parameters": {"degree": 5}}
    )
    report = run(sc, str(tmp_path))
    assert report["verdict"] == "holds"
    [record] = report["records"]
    assert record["values"][0] <= record["details"]["mult_op_bound"][0] + 1e-6
    assert len(record["details"]["zeros"]) == 5


def test_zero_bound_failure_is_a_numeric_error(tmp_path, monkeypatch):
    # a failed eigensolve of the bound raises instead of reporting NaN
    def no_convergence(a):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    sc = parse_scenario(
        {"name": "z", "command": "zeros",
         "pencil": {"m0": UNIT_JSON, "m1": UNIT_JSON}, "parameters": {"degree": 5}}
    )
    message = r"eigensolver failed to converge on \{m0="
    with pytest.raises(ConvergenceFailure, match=message):
        run(sc, str(tmp_path))
    with pytest.raises(ConvergenceFailure, match=message):
        cli._zero_bound_scan(sobolev.pencil_of_measures(*sc.inputs["pencil"]), range(1, 6))


def test_run_compare_identical_pencils(tmp_path):
    pencil = {"m0": HALF_JSON, "m1": UNIT_JSON}
    sc = parse_scenario(
        {"name": "cmp", "command": "compare", "pencil": pencil,
         "pencil_b": pencil, "parameters": {"n_max": 8}}
    )
    report = run(sc, str(tmp_path))
    assert report["verdict"] == "holds"
    assert report["records"][0]["constant"] == pytest.approx(1.0)
    lines = (tmp_path / "cmp_compare.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,lower,upper"


def test_run_multop_atomic_records_failures(tmp_path):
    sc = parse_scenario(
        {"name": "at", "command": "multop",
         "pencil": {"m0": ATOM_JSON, "m1": None}, "parameters": {"n_max": 6}}
    )
    report = run(sc, str(tmp_path))
    assert report["verdict"] == "inconclusive"
    assert any(e for e in report["records"][0]["details"]["errors"])


def test_run_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    sc = parse_scenario(gamma_scenario())
    run(sc, str(d1))
    run(sc, str(d2))
    assert (d1 / "my-gamma.json").read_bytes() == (d2 / "my-gamma.json").read_bytes()
    assert (d1 / "my-gamma_gamma.csv").read_bytes() == (d2 / "my-gamma_gamma.csv").read_bytes()


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def test_list_builtins_stable_order():
    names = list_builtins()
    assert names == [
        "identity-moments",
        "lemma3-unitcircle",
        "lemma3-shifted",
        "prop6-equivalence",
        "prop7-rigidity",
        "example4-mr-m",
        "example5-discrete",
        "example6-circles",
        "example7-comparability",
        "bpe-disk-map",
        "eigenlimits-weighted",
    ]


def test_run_builtin_unknown_name():
    with pytest.raises(ScenarioFormatError):
        run_builtin("no-such-thing", "/tmp/unused")


def test_run_builtin_identity_moments(tmp_path):
    report = run_builtin("identity-moments", str(tmp_path))
    assert report["verdict"] == "holds"
    assert report["records"][1]["criterion"] == "identity_section" and report["records"][1]["values"] == [0.0]
    assert (tmp_path / "identity-moments.json").exists()


def test_run_builtin_seeded_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    r1 = run_builtin("lemma3-unitcircle", str(d1), seed=0)
    r2 = run_builtin("lemma3-unitcircle", str(d2), seed=0)
    assert r1 == r2
    assert (d1 / "lemma3-unitcircle.json").read_bytes() == (d2 / "lemma3-unitcircle.json").read_bytes()


def test_shifted_circle_taylor_rows_match_recenter():
    rng = np.random.default_rng(6)  # degrees 1..20, zeros above each
    degrees = rng.integers(1, 21, 100)
    rows = (rng.standard_normal((100, 21)) + 1j * rng.standard_normal((100, 21))) * (np.arange(21) <= degrees[:, None])
    for a, r in [(0.0, 1.0), (0.5 - 0.3j, 0.2), (-0.7 + 0.1j, 1.9)]:
        taylor = rows @ measures.circle_expansion(a, r, 21)
        for v, t in zip(rows, taylor):
            b = recenter(v, a)
            ref = b * r ** np.arange(len(b))
            assert np.max(np.abs(t[: len(b)] - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert not np.any(t[len(b):])


WIRTINGER_BUILTINS = ["lemma3-unitcircle", "lemma3-shifted", "prop6-equivalence", "prop7-rigidity"]


def test_sampled_builtins_depend_on_the_seed_alone(tmp_path):
    # fresh interpreters under two hash seeds, the second running the
    # built-ins in reverse order, write the same bytes; another seed moves
    # those of lemma3-shifted and prop7-rigidity, which draw their circles
    # and Toeplitz symbols, while the other two draw nothing
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sobolevlab.__file__)))
    code = (
        "import sys; from sobolevlab import cli\n"
        "for name in sys.argv[2:]:\n"
        "    cli.run_builtin(name, sys.argv[1], n_max=8, seed=0)\n"
    )
    for hashseed, names in (("1", WIRTINGER_BUILTINS), ("2", WIRTINGER_BUILTINS[::-1])):
        subprocess.run([sys.executable, "-c", code, str(tmp_path / f"hash{hashseed}"), *names],
                       env=dict(env, PYTHONHASHSEED=hashseed), check=True)
    for name in WIRTINGER_BUILTINS:
        run_builtin(name, str(tmp_path / "seed1"), n_max=8, seed=1)
        report = (tmp_path / "hash1" / f"{name}.json").read_bytes()
        assert (tmp_path / "hash2" / f"{name}.json").read_bytes() == report
        moved = (tmp_path / "seed1" / f"{name}.json").read_bytes() != report
        assert moved == (name in ("lemma3-shifted", "prop7-rigidity"))


@pytest.mark.parametrize("name", WIRTINGER_BUILTINS)
def test_sampled_builtins_hold_at_seeds_0_to_9(tmp_path, name):
    for s in range(10):
        assert run_builtin(name, str(tmp_path), n_max=8, seed=s)["verdict"] == "holds"


def test_prop7_labels_its_random_cases_in_draw_order(tmp_path):
    subjects = [rec["subject"] for rec in run_builtin("prop7-rigidity", str(tmp_path))["records"]]
    cos08 = measures.to_json(measures.WeightedCircle(0.0, 1.0, cli.W_COS08))
    names = ["3*identity"] + [f"random-toeplitz-{i}" for i in range(50)]
    assert subjects[1] == cos08
    assert [s["name"] for s in subjects[:1] + subjects[2:]] == names
    # the coefficients, as the seed's stream draws them: c0, then c1..c3 for about half the cases
    rng = random.Random(f"{cli.DEFAULT_SEED}:prop7-rigidity")
    for subject in subjects[2:]:
        drawn = [[0, rng.uniform(0.5, 2.0), 0.0]]
        if rng.random() < 0.5:
            for k in range(1, 4):
                rad, ang = 0.05 * math.sqrt(rng.uniform(0.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
                z = rad * complex(math.cos(ang), math.sin(ang))
                drawn.append([k, z.real, z.imag])
        assert subject == {"kind": "toeplitz", "name": subject["name"], "coefficients": drawn}
    assert subjects[0]["coefficients"] == [[0, 3.0, 0.0]]


def test_prop7_decides_its_52_cases_with_one_eigensolve(tmp_path, monkeypatch):
    # eigenvalues of all 52, then eigenvectors of the failing cases alone
    shapes, builds = [], []
    eigh, eigvalsh, rule = np.linalg.eigh, np.linalg.eigvalsh, momentmatrix.toeplitz_rule
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(("eigh", a.shape)) or eigh(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(("eigvalsh", a.shape)) or eigvalsh(a))

    def counted_rule(*args, **kwargs):
        m = rule(*args, **kwargs)
        build = m.build
        m.build = lambda n: builds.append(n) or build(n)
        return m

    monkeypatch.setattr(momentmatrix, "toeplitz_rule", counted_rule)
    report = run_builtin("prop7-rigidity", str(tmp_path))
    assert report["verdict"] == "holds"
    failing = sum(rec["verdict"] == "fails" for rec in report["records"])
    assert 0 < failing < 52
    assert shapes == [("eigvalsh", (52, 8, 8)), ("eigh", (failing, 8, 8))]
    assert builds == [9] * 51  # each Toeplitz section once, at n + 1


def test_lemma3_shifted_builds_its_20_sections_with_one_sweep(tmp_path, monkeypatch):
    # one circle_sections call, no measure's own product, and no label
    # unless a section overflowed
    built, labelled = [], []
    sections, product, of_measure = measures.circle_sections, measures._product, momentmatrix.of_measure
    monkeypatch.setattr(measures, "circle_sections",
                        lambda c, r, w, n: built.append((len(c), len(r), w, n)) or sections(c, r, w, n))
    monkeypatch.setattr(measures, "_product", lambda m, n: built.append((m, n)) or product(m, n))
    monkeypatch.setattr(momentmatrix, "of_measure", lambda mu: labelled.append(mu) or of_measure(mu))
    assert run_builtin("lemma3-shifted", str(tmp_path))["verdict"] == "holds"
    assert built == [(20, 20, measures.UNIT_WEIGHT, 21)]
    assert labelled == []


def test_lemma3_shifted_decides_its_20_circles_with_one_eigensolve(tmp_path, monkeypatch):
    # eigenvalues alone: no circle fails, so no eigenvector is computed
    shapes = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(("eigh", a.shape)) or eigh(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(("eigvalsh", a.shape)) or eigvalsh(a))
    report = run_builtin("lemma3-shifted", str(tmp_path))
    assert shapes == [("eigvalsh", (20, 20, 20))]
    assert len(report["records"]) == 20 and all(len(rec["values"]) == 1 for rec in report["records"])


@pytest.mark.parametrize("name", ["lemma3-unitcircle", "prop6-equivalence"])
def test_wirtinger_certificates_draw_no_random_polynomial(tmp_path, monkeypatch, name):
    drawn = []
    randbytes = random.Random.randbytes
    monkeypatch.setattr(random.Random, "randbytes", lambda self, k: drawn.append(k) or randbytes(self, k))
    assert run_builtin(name, str(tmp_path))["verdict"] == "holds"
    assert drawn == []


def test_lemma3_unitcircle_and_prop6_report_ratios_of_z_equal_to_their_constants(tmp_path):
    [record] = run_builtin("lemma3-unitcircle", str(tmp_path))["records"]
    assert record["verdict"] == "holds" and record["details"]["witness_polynomial"] == "z"
    assert abs(record["details"]["witness_ratio"] - 1.0) <= 1e-12
    for case in run_builtin("prop6-equivalence", str(tmp_path))["records"]:
        if case["verdict"] == "holds":  # |z| = 1 with c = 1 and |z| = 2 with c = 4
            assert abs(case["details"]["witness_ratio"] - case["constant"]) <= 1e-12 * case["constant"]
        else:  # the failure's witness beats its constant
            assert case["details"]["witness_ratio"] > case["constant"]


@pytest.mark.parametrize("r", [0.3, 1.0, 1.9])
def test_shifted_criterion_about_the_origin_is_the_wirtinger_check_matrix(monkeypatch, r):
    # E M E^* at a = 0 is the deleted block M^(1,1), bit for bit
    captured = []
    psd_reports = criteria._psd_reports
    monkeypatch.setattr(criteria, "_psd_reports", lambda *args: captured.append(args[2]) or psd_reports(*args))
    m = momentmatrix.of_measure(measures.CircleLebesgue(0.0, r))
    rep = criteria.wirtinger_psd_check(m, r * r, 20)
    reports, ratios = criteria.circle_wirtinger_checks([0j], [r], 20)
    big, scale = momentmatrix.section(m, 21), np.arange(1, 21, dtype=float)
    sliced = r * r * (scale[:, None] * big[:20, :20] * scale[None, :]) - big[1:, 1:]
    assert captured[0].tobytes() == captured[1].tobytes() == sliced.tobytes()
    assert rep.verdict == reports[0].verdict == "holds" and abs(ratios[0] - r * r) <= 1e-12 * r * r


def test_shifted_criterion_forms_match_quadrature_and_z_minus_a_attains_r_squared(monkeypatch):
    # u W u^* is r^2 ||p'||^2 - ||p - p(a)||^2 for p = sum_k u_{k-1} z^k, each
    # norm by the trapezoid rule on 64 points, exact for degree <= 20 (|k| < 64)
    captured = []
    psd_reports = criteria._psd_reports
    monkeypatch.setattr(criteria, "_psd_reports", lambda *args: captured.append(args[2]) or psd_reports(*args))
    pairs = [(0.5 - 0.3j, 0.2), (-0.7 + 0.1j, 1.9), (0.05j, 1.0), (-0.9, 0.4)]
    centers, radii = (np.array(x) for x in zip(*pairs))
    reports, ratios = criteria.circle_wirtinger_checks(centers, radii, 20)
    assert [rep.verdict for rep in reports] == ["holds"] * 4
    rng = np.random.default_rng(27)
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    for (a, r), w in zip(pairs, captured[0]):
        for _ in range(5):
            u = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            p = np.concatenate(([0.0], u))
            z = a + r * circle
            lhs = np.mean(np.abs(evaluate(p, z) - complex(evaluate(p, a))) ** 2)
            rhs = np.mean(np.abs(evaluate(differentiate(p), z)) ** 2)
            form = complex(u @ w @ u.conj()).real
            assert abs(form - (r * r * rhs - lhs)) <= 1e-12 * (r * r * rhs + lhs)
    np.testing.assert_allclose(ratios, radii * radii, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# entry point, exit codes
# ---------------------------------------------------------------------------

def test_main_spec_success(tmp_path, capsys):
    spec = write_spec(tmp_path, gamma_scenario())
    assert main(["--spec", spec, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.strip() == "my-gamma: holds"


def test_main_list_builtins(capsys):
    assert main(["--list-builtins"]) == 0
    assert capsys.readouterr().out.split() == list_builtins()


def test_main_scenario_errors_exit_2(tmp_path, capsys):
    bad = gamma_scenario()
    bad["extra"] = 1
    assert main(["--spec", write_spec(tmp_path, bad), "--out", str(tmp_path)]) == 2
    assert "scenario error" in capsys.readouterr().err

    bad_measure = gamma_scenario()
    bad_measure["measure"] = {"kind": "triangle"}
    assert main(["--spec", write_spec(tmp_path, bad_measure), "--out", str(tmp_path)]) == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{", encoding="utf-8")
    assert main(["--spec", str(not_json), "--out", str(tmp_path)]) == 2
    assert main(["--spec", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2
    assert main(["--builtin", "nope", "--out", str(tmp_path)]) == 2
    assert main(["--builtin", "all", "--nmax", "100", "--out", str(tmp_path)]) == 2


def test_main_unusable_seed_and_paths_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path, gamma_scenario())
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for argv in (
        ["--builtin", "identity-moments", "--seed", "-1", "--out", str(tmp_path / "out")],
        ["--spec", spec, "--seed", "-1", "--out", str(tmp_path / "out")],
        ["--spec", str(tmp_path), "--out", str(tmp_path / "out")],  # a directory
        ["--spec", spec, "--out", str(taken)],  # an existing file
        ["--builtin", "identity-moments", "--out", str(taken)],
        ["--spec", spec, "--out", str(taken / "below")],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1


def test_main_numeric_errors_exit_3(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"name": "sing", "command": "opoly",
         "pencil": {"m0": ATOM_JSON, "m1": None}, "parameters": {"n": 3}},
    )
    assert main(["--spec", spec, "--out", str(tmp_path / "out")]) == 3
    assert "numeric error" in capsys.readouterr().err

    spec2 = write_spec(
        tmp_path,
        {"name": "geo", "command": "prop12", "measure": UNIT_JSON,
         "circles": [[1.2, 0.0, 0.5, [[0, 1.0, 0.0]]]],
         "parameters": {"n_max": 16}},
        fname="geo.json",
    )
    assert main(["--spec", spec2, "--out", str(tmp_path / "out2")]) == 3


def test_prop12_circle_is_validated_at_parse_time(tmp_path, capsys):
    # the center fails the bounded-evaluation test (exit 3 if it were
    # reached), but the negative radius is a malformed input
    spec = write_spec(
        tmp_path,
        {"name": "neg", "command": "prop12", "measure": UNIT_JSON,
         "circles": [[1.2, 0.0, -0.5, [[0, 1.0, 0.0]]]], "parameters": {"n_max": 16}},
    )
    assert main(["--spec", spec, "--out", str(tmp_path / "out")]) == 2
    assert "circle radius must be positive" in capsys.readouterr().err


def test_prop12_tests_its_centers_with_one_solve(tmp_path, monkeypatch):
    # W = L^{-1} of a factor is one more solve, with identity columns
    shapes = []
    solve_lower = numkernel.solve_lower
    monkeypatch.setattr(numkernel, "solve_lower", lambda lower, b: shapes.append(np.shape(b)) or solve_lower(lower, b))
    circles = [[0.1, 0.0, 0.3, [[0, 1.0, 0.0]]], [0.0, 0.2, 0.3, [[0, 1.0, 0.0]]], [-0.3, 0.0, 0.3, [[0, 1.0, 0.0]]]]
    report = run(parse_scenario(dict(BASE_SCENARIOS["prop12"], circles=circles, parameters={"n_max": 8})), str(tmp_path))
    assert report["verdict"] == "holds" and len(report["records"][0]["details"]["center_gammas"]) == 3
    assert [s for s in shapes if s != (s[0], s[0])] == [(8, 3)]


UNBOUNDED_CENTER = [1.2, 0.0, 0.5, [[0, 1.0, 0.0]]]
OVERFLOWING_CENTER = [1e200, 0.0, 1.0, [[0, 1.0, 0.0]]]


@pytest.mark.parametrize(
    "circles, message",
    [
        ([UNBOUNDED_CENTER, OVERFLOWING_CENTER], "center (1.2+0j) fails the bounded-evaluation test"),
        ([OVERFLOWING_CENTER, UNBOUNDED_CENTER], "values of evaluation vector at (1e+200+0j) for "
         '{"kind":"circle","center":[0.0,0.0],"radius":1.0} at size 8 overflowed the double range'),
    ],
    ids=["unbounded-first", "overflowing-first"],
)
def test_prop12_first_bad_center_decides_the_error(tmp_path, capsys, circles, message):
    spec = write_spec(tmp_path, dict(BASE_SCENARIOS["prop12"], circles=circles, parameters={"n_max": 8}))
    assert main(["--spec", spec, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.strip() == f"numeric error: {message}"


def test_prop12_below_n_max_4_is_a_scenario_error(tmp_path, capsys):
    # the centers take the bpe rule, which needs n_max >= 4
    spec = write_spec(tmp_path, dict(BASE_SCENARIOS["prop12"], measure=UNIT_JSON,
                                     circles=[[0, 0, 0.5, [[0, 1, 0]]]], parameters={"n_max": 3}))
    assert main(["--spec", spec, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "scenario error: parameter 'n_max' must lie in [4, 64]\n"


def test_gamma_with_overflowing_kernel_terms_exits_3(tmp_path, capsys):
    # 1e8 ** 20 is finite, |P_20(1e8)|^2 is not
    spec = write_spec(tmp_path, dict(gamma_scenario(), parameters={"a": [1e8, 0], "n_max": 21}))
    assert main(["--spec", spec, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "numeric error: values of kernel terms |P_k|^2 at (100000000+0j) for "
        '{"kind":"circle","center":[0.0,0.0],"radius":1.0} at size 21 overflowed the double range\n'
    )


TINY_ATOMS = {"kind": "atomic", "atoms": [[0.5, 0.0, 1e-300], [-0.5, 0.2, 1e-300]]}
HUGE_ATOMS = {"kind": "atomic", "atoms": [[0.5, 0.0, 1e100], [-0.5, 0.2, 1e100]]}


@pytest.mark.parametrize(
    "scenario, code, err",
    [
        # W = L^{-1} of the tiny atoms' section is about 1e150, so W Q W^* of the huge ones overflows
        ({"command": "compare", "pencil": {"m0": TINY_ATOMS, "m1": None},
          "pencil_b": {"m0": HUGE_ATOMS, "m1": None}, "parameters": {"n_max": 2}}, 3,
         'numeric error: values of {m0={"kind":"atomic","atoms":[[0.5,0.0,1e-300],[-0.5,0.2,1e-300]]}, m1=zero} '
         "at size 2 overflowed the double range\n"),
        ({"command": "cond4", "pencil": {"m0": TINY_ATOMS, "m1": HUGE_ATOMS}, "parameters": {"n_max": 2}}, 3,
         'numeric error: values of {m0={"kind":"atomic","atoms":[[0.5,0.0,1e-300],[-0.5,0.2,1e-300]]}, '
         'm1={"kind":"atomic","atoms":[[0.5,0.0,1e+100],[-0.5,0.2,1e+100]]}} at size 2 overflowed the double range\n'),
        # c M0 overflows
        ({"command": "dominance", "pencil": {"m0": {"kind": "atomic", "atoms": [[0.5, 0.0, 1e300], [-0.5, 0.2, 1.0]]},
                                             "m1": UNIT_JSON}, "parameters": {"constant": 1e10, "n": 2}}, 3,
         'numeric error: values of 10000000000.0 * {"kind":"atomic","atoms":[[0.5,0.0,1e+300],[-0.5,0.2,1.0]]} - '
         '{"kind":"circle","center":[0.0,0.0],"radius":1.0} at size 2 overflowed the double range\n'),
        # Horner overflows at a = 1e308 + 3i
        ({"command": "gamma", "measure": {"kind": "weighted_circle", "center": [3.0, 1e-308], "radius": 0.5,
                                          "fourier": [[0, 1.0, 0.0], [1, 1e-300, 0.0], [-1, 1e-300, 0.0]]},
          "parameters": {"a": [1e308, 3.0], "n_max": 2}}, 3,
         "numeric error: values of kernel terms |P_k|^2 at (1e+308+3j) for "
         '{"kind":"weighted_circle","center":[3.0,1e-308],"radius":0.5,"fourier":[[-1,1e-300,-0.0],[0,1.0,0.0],'
         '[1,1e-300,0.0]]} at size 2 overflowed the double range\n'),
        # the section is finite, the quadrature oracle is not: a null deviation
        ({"command": "moments", "measure": {"kind": "weighted_circle", "center": [7.0, 1e154], "radius": 5e-324,
                                            "fourier": [[0, 1.0, 0.0]]}, "parameters": {"n": 2}}, 0, ""),
    ],
    ids=["compare", "cond4", "dominance", "gamma", "moments"],
)
@pytest.mark.filterwarnings("error")
def test_overflowing_values_exit_as_before_or_3_without_a_warning(tmp_path, capsys, scenario, code, err):
    spec = write_spec(tmp_path, dict(scenario, name="big"))
    assert main(["--spec", spec, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == err
    if code == 0:
        report = json.loads((tmp_path / "out" / "big.json").read_text())
        assert report["records"][0]["values"] == [None] and report["verdict"] == "inconclusive"


@pytest.mark.parametrize("nmax", ["2", "3"])
def test_nmax_below_4_runs_nothing(tmp_path, capsys, nmax):
    # bpe-disk-map applies the bpe rule at nmax; --spec takes the same check
    for argv in (["--builtin", "all"], ["--builtin", "bpe-disk-map"], ["--spec", write_spec(tmp_path, gamma_scenario())]):
        assert main(argv + ["--nmax", nmax, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", "--nmax must lie in [4, 64]\n")
    assert not (tmp_path / "out").exists()


def test_main_fails_verdict_still_exits_0(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"name": "outside", "command": "bpe", "measure": UNIT_JSON,
         "parameters": {"a": [1.2, 0.0], "n_max": 16}},
    )
    assert main(["--spec", spec, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.strip() == "outside: fails"


@pytest.mark.parametrize(
    "measure",
    [
        {"kind": "circle", "center": ["a", 0], "radius": 1.0},
        {"kind": "weighted_circle", "center": [0.0, 0.0], "radius": 1.0, "fourier": 5},
        {"kind": "circle", "center": [float("nan"), 0.0], "radius": 1.0},
        {"kind": "atomic", "atoms": [[0.1 * k, 0.0, float("inf") if k == 0 else 1.0] for k in range(12)]},
    ],
    ids=["string-center", "scalar-fourier", "nan-center", "inf-mass"],
)
def test_main_malformed_numbers_exit_2(tmp_path, capsys, measure):
    spec = write_spec(
        tmp_path, {"name": "bad", "command": "moments", "measure": measure, "parameters": {"n": 4}}
    )
    assert main(["--spec", spec, "--out", str(tmp_path / "out")]) == 2
    assert "scenario error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "bad.json").exists()


def test_eigenlimits_weight_is_validated_at_parse_time():
    base = dict(BASE_SCENARIOS["eigenlimits"])
    with pytest.raises(MeasureFormatError, match="not Hermitian"):
        parse_scenario(dict(base, weight=[[0, 1.0, 0.0], [1, 0.4, 0.0], [-1, 0.3, 0.0]]))
    with pytest.raises(MeasureFormatError, match="negative on the circle"):
        parse_scenario(dict(base, weight=[[0, 1.0, 0.0], [1, 0.8, 0.0], [-1, 0.8, 0.0]]))
    sc = parse_scenario(base)
    assert sc.inputs["weight"] == measures.WeightedCircle(0.0, 1.0, ((0, 1.0), (1, 0.4), (-1, 0.4)))


def test_circles_and_point_share_the_number_check():
    base = {"name": "p", "command": "prop12", "measure": HALF_JSON, "parameters": {"n_max": 8}}
    for circle in ([0.0, float("nan"), 1.0, [[0, 1.0, 0.0]]], [0.0, 0.0, 1.0, 7]):
        with pytest.raises(MeasureFormatError):
            parse_scenario(dict(base, circles=[circle]))
    bad_point = gamma_scenario()
    bad_point["parameters"]["a"] = [float("inf"), 0.0]
    with pytest.raises(ScenarioFormatError, match="parameter 'a'"):
        parse_scenario(bad_point)


# ---------------------------------------------------------------------------
# exit-code contract for any input
# ---------------------------------------------------------------------------

ATOMIC_JSON = {"kind": "atomic", "atoms": [[0.5, 0.0, 1.0], [-0.5, 0.5, 2.0], [0.0, -0.7, 1.0], [0.2, 0.2, 1.0]]}
WEIGHTED_JSON = {"kind": "weighted_circle", "center": [0.1, 0.0], "radius": 1.0,
                 "fourier": [[0, 1.0, 0.0], [1, 0.3, 0.1], [-1, 0.3, -0.1]]}
SUM_JSON = {"kind": "sum", "terms": [[1.0, HALF_JSON], [0.5, ATOMIC_JSON]]}
BASE_SCENARIOS = {
    "moments": {"name": "m", "command": "moments", "measure": WEIGHTED_JSON, "parameters": {"n": 4}},
    "atomic": {"name": "at", "command": "moments", "measure": ATOMIC_JSON, "parameters": {"n": 4}},
    "gram": {"name": "g", "command": "gram", "pencil": {"m0": UNIT_JSON, "m1": HALF_JSON}, "parameters": {"n": 4}},
    "opoly": {"name": "o", "command": "opoly", "pencil": {"m0": WEIGHTED_JSON, "m1": UNIT_JSON},
              "parameters": {"n": 4}},
    "multop": {"name": "mo", "command": "multop", "pencil": {"m0": UNIT_JSON, "m1": ATOMIC_JSON},
               "parameters": {"n_max": 5}},
    "cond4": {"name": "c4", "command": "cond4", "pencil": {"m0": UNIT_JSON, "m1": HALF_JSON},
              "parameters": {"n_max": 5}},
    "zeros": {"name": "z", "command": "zeros", "pencil": {"m0": SUM_JSON, "m1": None}, "parameters": {"degree": 3}},
    "gamma": {"name": "ga", "command": "gamma", "measure": UNIT_JSON, "parameters": {"a": [0.5, 0.25], "n_max": 6}},
    "bpe": {"name": "b", "command": "bpe", "measure": UNIT_JSON, "parameters": {"a": [0.5, 0.0], "n_max": 6}},
    "wirtinger": {"name": "w", "command": "wirtinger", "measure": UNIT_JSON,
                  "parameters": {"constant": 1.0, "n": 4}},
    "dominance": {"name": "d", "command": "dominance", "pencil": {"m0": UNIT_JSON, "m1": HALF_JSON},
                  "parameters": {"constant": 2.0, "n": 4}},
    "compare": {"name": "c", "command": "compare", "pencil": {"m0": HALF_JSON, "m1": UNIT_JSON},
                "pencil_b": {"m0": UNIT_JSON, "m1": None}, "parameters": {"n_max": 5}},
    "eigenlimits": {"name": "e", "command": "eigenlimits", "weight": [[0, 1.0, 0.0], [1, 0.4, 0.0], [-1, 0.4, 0.0]],
                    "parameters": {"n_list": [2, 4]}},
    "prop12": {"name": "p", "command": "prop12", "measure": UNIT_JSON,
               "circles": [[0.1, 0.0, 0.3, [[0, 1.0, 0.0]]]], "parameters": {"n_max": 6}},
}
# (base scenario, path of keys and indices to the replaced field)
FIELDS = [
    ("gamma", ("name",)), ("gamma", ("command",)), ("gamma", ("measure",)), ("gamma", ("parameters",)),
    ("gamma", ("parameters", "a")), ("gamma", ("parameters", "a", 0)), ("gamma", ("parameters", "n_max")),
    ("bpe", ("parameters", "a")), ("bpe", ("parameters", "a", 1)),
    ("moments", ("measure", "center")), ("moments", ("measure", "center", 0)), ("moments", ("measure", "radius")),
    ("moments", ("measure", "fourier")), ("moments", ("measure", "fourier", 1)),
    ("moments", ("measure", "fourier", 1, 0)), ("moments", ("measure", "fourier", 1, 1)),
    ("moments", ("parameters", "n")),
    ("atomic", ("measure", "atoms")), ("atomic", ("measure", "atoms", 0)), ("atomic", ("measure", "atoms", 0, 0)),
    ("atomic", ("measure", "atoms", 1, 2)),
    ("gram", ("pencil",)), ("gram", ("pencil", "m1")), ("gram", ("pencil", "m0", "radius")),
    ("zeros", ("pencil", "m0", "terms", 0, 0)), ("zeros", ("pencil", "m0", "terms", 1)),
    ("zeros", ("parameters", "degree")), ("opoly", ("pencil", "m0", "fourier", 2)), ("opoly", ("parameters", "n")),
    ("multop", ("pencil", "m1", "atoms")), ("multop", ("parameters", "n_max")), ("cond4", ("pencil", "m1", "center")),
    ("wirtinger", ("parameters", "constant")), ("wirtinger", ("parameters", "n")),
    ("dominance", ("parameters", "constant")), ("dominance", ("pencil", "m1")),
    ("compare", ("pencil_b",)), ("compare", ("pencil_b", "m0")), ("compare", ("parameters", "n_max")),
    ("eigenlimits", ("weight",)), ("eigenlimits", ("weight", 1, 0)), ("eigenlimits", ("parameters", "n_list")),
    ("eigenlimits", ("parameters", "n_list", 0)),
    ("prop12", ("circles",)), ("prop12", ("circles", 0)), ("prop12", ("circles", 0, 0)),
    ("prop12", ("circles", 0, 2)), ("prop12", ("circles", 0, 3)),
]
HUGE = [10**400, -(10**400), 2**63, 1e308, -1e308, 1e200, 5e-324]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(HUGE)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _replaced(field, value):
    base, path = field
    obj = copy.deepcopy(BASE_SCENARIOS[base])
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def _main_on_text(text: str):
    with tempfile.TemporaryDirectory() as d:
        spec = os.path.join(d, "scenario.json")
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--spec", spec, "--out", os.path.join(d, "out")])
        return code, err.getvalue()


@pytest.mark.parametrize("base", sorted(BASE_SCENARIOS))
def test_base_scenarios_succeed(base):
    assert _main_on_text(json.dumps(BASE_SCENARIOS[base])) == (0, "")


def _numpy_values(obj, path="report") -> list:
    """Paths of the numpy scalars and arrays inside a report body."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _numpy_values(v, f"{path}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in _numpy_values(v, f"{path}[{i}]")]
    return []


@pytest.mark.parametrize("base", ["zeros", "dominance", "wirtinger", "opoly"])
def test_report_bodies_hold_plain_python_values(tmp_path, base):
    # the zero pairs, PSD tolerances and a weighted circle's subject reach
    # the renderer as Python floats
    report = run(parse_scenario(BASE_SCENARIOS[base]), str(tmp_path))
    assert _numpy_values(report) == []


RECORD_KEYS = ["subject", "criterion", "n_list", "values", "verdict", "witness", "constant", "parameters", "details"]


def _matrix_of(subject) -> momentmatrix.MomentMatrix:
    """The matrix a measure or Toeplitz subject names, rebuilt from it."""
    if subject["kind"] == "toeplitz":
        return momentmatrix.toeplitz_rule({k: complex(re, im) for k, re, im in subject["coefficients"]},
                                          label=subject["name"])
    return momentmatrix.of_measure(measures.from_json(subject))


def _check_subject(subject, written, record) -> None:
    """A measure subject, as written, goes through from_json and to_json
    unchanged; a Toeplitz one rebuilds the section its record tested (the
    record's diagonal value and largest off-diagonal entry, exactly), and
    so does its written text, to its 13 digits; pencils and pairs are
    checked member by member."""
    if subject is None:
        return
    if "kind" not in subject:
        assert list(subject) in (["m0", "m1"], ["pencil", "other"])
        for key in subject:
            _check_subject(subject[key], written[key], record)
        return
    if subject["kind"] == "graded_diagonal":
        assert written == subject == {"kind": "graded_diagonal", "ratio": 5.0}
    elif subject["kind"] == "toeplitz":
        n = record["n_list"][0]
        row0 = momentmatrix.section(_matrix_of(subject), n)[0]
        assert row0[0].real == record["details"]["diagonal_value"]
        assert max(map(abs, row0[1:].tolist())) == record["details"]["offdiag_max"]
        np.testing.assert_allclose(momentmatrix.section(_matrix_of(written), n)[0], row0, rtol=1e-12, atol=1e-13)
    else:
        assert measures.to_json(measures.from_json(written)) == written
        assert measures.to_json(measures.from_json(subject)) == subject


def test_every_report_is_one_record_list_with_rebuildable_subjects(tmp_path):
    # --builtin all at nmax 32 and one scenario per command: one top level,
    # every record's keys in the fixed order, every subject rebuilt
    reports = {name: run_builtin(name, str(tmp_path), n_max=32) for name in cli.list_builtins()}
    for base in sorted(BASE_SCENARIOS):
        sc = parse_scenario(BASE_SCENARIOS[base])
        reports[sc.name] = run(sc, str(tmp_path))
    commands = set()
    for name, report in reports.items():
        text = (tmp_path / f"{name}.json").read_text(encoding="utf-8")
        top = [key for key, _ in json.loads(text, object_pairs_hook=list)]
        assert top == ["scenario", "command", *(["label"] if name == "identity-moments" else []), "records", "verdict"]
        written = json.loads(text)
        assert written["verdict"] == report["verdict"]
        commands.add(written["command"])
        assert len(written["records"]) == len(report["records"]) >= 1
        for pairs in dict(json.loads(text, object_pairs_hook=list))["records"]:
            assert [key for key, _ in pairs] == RECORD_KEYS
        for record, written_record in zip(report["records"], written["records"]):
            _check_subject(record["subject"], written_record["subject"], record)
    assert commands == {"builtin", *cli._COMMANDS}


def test_prop7_fails_records_carry_witnesses_that_recheck(tmp_path):
    # each "fails" record's witness, read back from the file, violates the
    # Wirtinger inequality with c = 1 on the section rebuilt from its subject
    run_builtin("prop7-rigidity", str(tmp_path))
    records = json.loads((tmp_path / "prop7-rigidity.json").read_text(encoding="utf-8"))["records"]
    failing = [rec for rec in records if rec["verdict"] == "fails"]
    assert len(failing) == 34
    for rec in failing:
        m, n, c = _matrix_of(rec["subject"]), rec["n_list"][0], rec["constant"]
        v = np.array([complex(re, im) for re, im in rec["witness"]])
        assert c == 1.0 and len(v) == n + 1 and v[0] == 0  # the lifted witness: p(0) = 0
        form = c * momentmatrix.norm_sq(momentmatrix.section(m, n), differentiate(v)) - momentmatrix.norm_sq(
            momentmatrix.section(m, n + 1), v)
        assert form < -criteria.WITNESS_MARGIN


@pytest.mark.parametrize(
    "field, value, code, message",
    [
        (("gram", ("command",)), ["gram"], 2, "unknown command"),
        (("wirtinger", ("parameters", "constant")), 10**400, 2, "parameter 'constant'"),
        (("gram", ("pencil", "m0", "radius")), 1e308, 3, "at size 4 overflowed"),
        (("moments", ("measure", "center")), [1e200, 0], 3, "at size 4 overflowed"),
        (("atomic", ("measure", "atoms", 0, 0)), 1e308, 3, "at size 4 overflowed"),
        (("bpe", ("parameters", "a")), [1e200, 0], 3, "evaluation vector at (1e+200+0j)"),
        (("wirtinger", ("parameters", "constant")), 1e308, 3,
         'values of 1e+308 * N M N - M^(1,1) for M = {"kind":"circle","center":[0.0,0.0],"radius":1.0} at size 4 overflowed'),
        (("moments", ("measure", "fourier")), [[0, 1.0, 0.0], [4096, 0.6, 0.0], [-4096, 0.6, 0.0]], 2,
         "frequency 4096"),
        (("moments", ("parameters", "grid_points")), 4096, 2, "does not take parameter 'grid_points'"),
        (("gamma", ("parameters",)), {"a": [1e10, 0.0], "n_max": 64}, 3, "evaluation vector at (10000000000+0j)"),
        # section(M1, 3) peaks at 1e308, the derivative term of the Gram at 9e308
        (("gram", ("pencil", "m1", "radius")), 1e77, 3,
         'values of {m0={"kind":"circle","center":[0.0,0.0],"radius":1.0}, '
         'm1={"kind":"circle","center":[0.0,0.0],"radius":1e+77}} at size 4 overflowed'),
    ],
    ids=["list-command", "huge-int-constant", "huge-radius", "huge-center", "huge-atom", "huge-point",
         "huge-constant", "aliased-weight", "grid-points", "huge-power", "huge-derivative-term"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the error line is all that stderr shows
def test_main_escape_inputs_exit_2_or_3(field, value, code, message):
    got, err = _main_on_text(json.dumps(_replaced(field, value)))
    assert got == code
    assert message in err
    assert err.count("\n") == 1
    if code == 3:
        assert "overflowed the double range" in err


def test_main_deeply_nested_file_exits_2(monkeypatch):
    code, err = _main_on_text("[" * 100_000)
    assert code == 2
    assert err.startswith("scenario error: maximum recursion depth exceeded") and err.count("\n") == 1

    # sums nested just below the parser's limit load, then exhaust the stack when the label is encoded
    def deep_label(mu):
        raise RecursionError("maximum recursion depth exceeded while encoding a JSON object")

    monkeypatch.setattr(momentmatrix, "of_measure", deep_label)
    assert _main_on_text(json.dumps(BASE_SCENARIOS["gamma"])) == (
        2, "scenario error: maximum recursion depth exceeded while encoding a JSON object\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/mem is Linux only")
def test_main_unreadable_spec_exits_2(tmp_path, capsys):
    # opening succeeds, reading at offset 0 fails with EIO
    assert main(["--spec", "/proc/self/mem", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("scenario error: [Errno 5]")
    assert captured.err.count("\n") == 1


def test_main_non_utf8_file_exits_2(tmp_path, capsys):
    spec = tmp_path / "latin1.json"
    spec.write_bytes(json.dumps(gamma_scenario(name="caf\u00e9")).encode("utf-8").replace(b"\\u00e9", b"\xe9"))
    assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@seed(20261017)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
@example(field=("gram", ("command",)), value=["gram"])
@example(field=("wirtinger", ("parameters", "constant")), value=10**400)
@example(field=("gram", ("pencil", "m0", "radius")), value=1e308)
@example(field=("moments", ("measure", "center")), value=[1e200, 0])
@example(field=("atomic", ("measure", "atoms", 0, 0)), value=1e308)
@example(field=("bpe", ("parameters", "a")), value=[1e200, 0])
@example(field=("wirtinger", ("parameters", "constant")), value=1e308)
@example(field=("moments", ("measure", "fourier", 1, 0)), value=4096)
def test_any_json_value_in_any_field_exits_0_2_or_3(field, value):
    code, _ = _main_on_text(json.dumps(_replaced(field, value)))
    assert code in (0, 2, 3)


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sobolevlab.__file__)))
    code = "import sys, sobolevlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("given, seen", [(None, "1 1\n"), ("2", "2 1\n")])
def test_cli_loads_numpy_with_one_blas_thread_unless_the_user_sets_one(given, seen):
    # the child prints the two thread variables as numpy starts to load
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(sobolevlab.__file__))
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = (
        "import os, sys\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('MKL_NUM_THREADS'))\n"
        "            sys.meta_path.remove(self)\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import sobolevlab.cli\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == seen


def test_builtin_runs_load_no_numpy_random(tmp_path):
    # the built-ins draw from the standard library's generator: importing
    # numpy.random would cost more than most built-ins take
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sobolevlab.__file__)))
    code = (
        "import contextlib, io, sys; from sobolevlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['--builtin', 'all', '--nmax', '8', '--out', sys.argv[1]]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_runs_load_no_numpy_polynomial(tmp_path):
    spec = write_spec(tmp_path, BASE_SCENARIOS["gamma"])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sobolevlab.__file__)))
    code = (
        "import contextlib, io, sys; from sobolevlab import cli\n"
        "for argv in (['--builtin', 'all', '--nmax', '8'], ['--spec', sys.argv[1]]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv + ['--out', sys.argv[2]]) == 0\n"
        "    print('numpy.polynomial' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, spec, str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\nFalse\n"


# ---------------------------------------------------------------------------
# per-scenario work: each section and factor built once, no state between calls
# ---------------------------------------------------------------------------

ZEROS_WITH_M1 = dict(BASE_SCENARIOS["zeros"], pencil={"m0": UNIT_JSON, "m1": HALF_JSON})


@pytest.mark.parametrize(
    "scenario, builds",
    [
        (BASE_SCENARIOS["zeros"], 3),  # the sum and its two terms
        (ZEROS_WITH_M1, 2),
        (BASE_SCENARIOS["wirtinger"], 1),
        (BASE_SCENARIOS["eigenlimits"], 1),
        (BASE_SCENARIOS["prop12"], 4),  # mu0 at n_max and n_max + 1, the sum of circles and its circle at n_max
    ],
    ids=["zeros", "zeros-with-m1", "wirtinger", "eigenlimits", "prop12"],
)
def test_each_measure_section_is_built_once(tmp_path, monkeypatch, scenario, builds):
    # a sum reads its terms through moment_section, so count the products
    built = []
    product = measures._product
    monkeypatch.setattr(measures, "_product", lambda m, n: built.append((m, n)) or product(m, n))
    run(parse_scenario(scenario), str(tmp_path))
    assert len(built) == builds
    assert len(set(built)) == len(built)


@pytest.mark.parametrize(
    "name, measure, built",
    [("example4-mr-m", cli.HALF, [16, 33]), ("example5-discrete", cli.UNIT, [33])],
    ids=["example4", "example5"],
)
def test_builtin_pencil_m0_is_built_once(tmp_path, monkeypatch, name, measure, built):
    # the mult_op sequence asks for size n_max + 1 first; the domination
    # bound reads its n_max block (example 4's 16 is the dominance check)
    sizes = []
    moment_section = measures.moment_section
    monkeypatch.setattr(measures, "moment_section", lambda m, n: sizes.append((m, n)) or moment_section(m, n))
    run_builtin(name, str(tmp_path), n_max=32)
    assert [n for m, n in sizes if m == measure] == built


def _fresh_suite_calls(tmp_path, module: str, name: str) -> int:
    """Calls of ``module.name`` in a fresh process running --builtin all
    at nmax 64, where no module-level measure keeps a section yet."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sobolevlab.__file__)))
    code = (
        f"import contextlib, io, sys; from sobolevlab import cli, {module} as mod\n"
        f"calls, real = [], mod.{name}\n"
        f"mod.{name} = lambda *args: calls.append(1) or real(*args)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['--builtin', 'all', '--nmax', '64', '--out', sys.argv[1]])\n"
        "print(len(calls))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    return int(out.stdout)


def test_builtin_suite_builds_each_measure_product_once_per_size_increase(tmp_path):
    # every role of a measure (pencil, sum term, single moment) slices the
    # section it keeps, and lemma3-shifted's 20 circles are one
    # circle_sections stack, which no measure keeps: 12 builds at nmax 64,
    # against 32 with one build per circle and 129 with one per role
    assert _fresh_suite_calls(tmp_path, "measures", "_product") <= 12


def test_builtin_suite_mirrors_each_kept_section_once(tmp_path):
    # a measure mirrors its product once per build (a stack of circles
    # once), a moment matrix takes a measure's mirrored block as it is and
    # mirrors any other builder's section once per build: 71 mirrors at
    # nmax 64, against 95 with measure sections mirrored again and 187 with
    # lemma3-shifted's circles mirrored one at a time and prop7's Toeplitz
    # sections built twice
    assert _fresh_suite_calls(tmp_path, "numkernel", "mirror_upper") <= 71


def test_example7_moments_are_slices_of_its_sections(tmp_path, monkeypatch):
    # the 40 diagonal moments come after the size-65 sections of both measures
    builds, added = [], []
    product, moment = measures._product, measures.moment
    monkeypatch.setattr(measures, "_product", lambda m, n: builds.append(n) or product(m, n))

    def counted_moment(m, i, j):
        before = len(builds)
        value = moment(m, i, j)
        added.append(len(builds) - before)
        return value

    monkeypatch.setattr(measures, "moment", counted_moment)
    run_builtin("example7-comparability", str(tmp_path), n_max=64)
    assert added == [0] * 40


def test_gamma_factors_its_matrix_once(tmp_path, monkeypatch):
    # gamma_sequence and the reproducing-kernel cross-check read one factor
    sizes = []
    cholesky = numkernel.cholesky
    monkeypatch.setattr(numkernel, "cholesky", lambda g, label="": sizes.append(len(g)) or cholesky(g, label))
    run(parse_scenario(BASE_SCENARIOS["gamma"]), str(tmp_path))
    assert sizes == [6]


def test_eigenlimits_canonicalizes_its_weight_twice(tmp_path, monkeypatch):
    # once when the scenario is parsed, once in the report
    calls = []
    canonical = measures._canonical_weight
    monkeypatch.setattr(measures, "_canonical_weight", lambda f: calls.append(f) or canonical(f))
    run(parse_scenario(BASE_SCENARIOS["eigenlimits"]), str(tmp_path))
    assert len(calls) == 2


def test_eigenlimits_evaluates_its_weight_grid_once(tmp_path, monkeypatch):
    # parse-time validation, the report's re-validation and its grid
    # extremes share one evaluation of the canonical weight
    measures.weight_grid_extremes.cache_clear()
    grids = []
    weight_values = measures.weight_values
    monkeypatch.setattr(measures, "weight_values", lambda f, points: grids.append(points) or weight_values(f, points))
    spec = write_spec(tmp_path, BASE_SCENARIOS["eigenlimits"])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--spec", spec, "--out", str(tmp_path / "out")]) == 0
    assert grids == [measures.WEIGHT_GRID_POINTS]


def test_example6_factors_each_size_once(tmp_path, monkeypatch):
    sizes = []
    cholesky = numkernel.cholesky
    monkeypatch.setattr(numkernel, "cholesky", lambda g, label="": sizes.append(len(g)) or cholesky(g, label))
    report = run_builtin("example6-circles", str(tmp_path), n_max=32)
    assert sizes == [32, 21]
    assert [rec["criterion"] for rec in report["records"]] == ["mult_op", "zero_bound", "sobolev_domination"]


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_main_calls_in_one_process_match_a_fresh_process(tmp_path):
    weight = [[0, 1.0, 0.0], [200, 0.2, 0.1], [-200, 0.2, -0.1]]
    spec_a = write_spec(tmp_path, BASE_SCENARIOS["moments"], "a.json")
    spec_b = write_spec(
        tmp_path,
        {"name": "mb", "command": "moments", "parameters": {"n": 60},
         "measure": {"kind": "weighted_circle", "center": [0.0, 0.1], "radius": 0.9, "fourier": weight}},
        "b.json",
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sobolevlab.__file__)))
    subprocess.run([sys.executable, "-m", "sobolevlab.cli", "--spec", spec_a, "--out", str(tmp_path / "fresh")],
                   env=env, capture_output=True, check=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["--spec", spec_a, "--out", str(tmp_path / "first")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["--spec", spec_a, "--builtin", "all"])
        assert exc.value.code == 2
        assert main(["--spec", spec_b, "--out", str(tmp_path / "b")]) == 0
        assert main(["--spec", spec_a, "--out", str(tmp_path / "again")]) == 0
    assert json.loads((tmp_path / "b" / "mb.json").read_text())["records"][0]["details"]["grid_points"] == 512
    fresh = _files(tmp_path / "fresh")
    assert fresh and _files(tmp_path / "first") == fresh == _files(tmp_path / "again")
