"""Seeded generator of scenario files for the ``spec-mix`` workload.

Every file is one scenario for ``sobolevlab --spec``.  Each file carries an
intended exit class, chosen here and never read by the program:

* 0 for well-posed scenarios covering all 13 commands and every measure kind
  (sums included), pencils with and without M1, sections of size n <= 10;
* 2 for malformed scenarios.  Most are rejected today; the classes marked
  ``KNOWN_DEFECTS`` are the malformed inputs that still end in a traceback
  (exit 1) or in exit 0, and they are kept in the mix so that the failure
  stays visible in ``ops_failed_frac``;
* 3 for well-formed scenarios that must end in a numeric error: an atomic
  measure with fewer atoms than the section size, and a prop12 circle
  whose center lies outside mu0's disk of bounded evaluation.

The number of files in each class is fixed, so only the parameters change
with the seed.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import random

#: files per pass; at least 1000 so that ten samples lie beyond p99
N_FILES = 1000

#: well-posed files per command (sum 830)
VALID_COUNTS = {
    "moments": 80,
    "gram": 80,
    "opoly": 80,
    "zeros": 70,
    "multop": 70,
    "gamma": 70,
    "bpe": 60,
    "wirtinger": 60,
    "dominance": 60,
    "cond4": 60,
    "compare": 50,
    "eigenlimits": 50,
    "prop12": 40,
}
#: numeric failures, exit 3 (sum 30)
NUMERIC_COUNTS = {"few-atoms": 20, "prop12-outside": 10}
#: malformed files that are rejected with exit 2 today (sum 100)
REJECTED_COUNTS = {
    "unknown-key": 10,
    "unknown-command": 10,
    "missing-parameter": 10,
    "n-out-of-range": 10,
    "unknown-kind": 10,
    "negative-radius": 10,
    "non-hermitian-weight": 10,
    "negative-mass": 10,
    "n-list-not-increasing": 10,
    "truncated-json": 10,
}
#: malformed files the program does not reject (sum 40); see the module doc
KNOWN_DEFECTS = {
    "string-center": 10,
    "scalar-fourier": 10,
    "nan-center": 10,
    "inf-mass": 10,
}
#: commands whose own report checks its numbers; a valid file must say "holds"
SELF_CHECKING = ("moments", "opoly", "gamma", "zeros")

MAX_N = 10
KINDS = ("circle", "weighted", "atomic", "sum-atomic", "sum-weighted")


def _r(x: float) -> float:
    return round(x, 4)


def _point(rng: random.Random, r_max: float) -> list:
    rad = r_max * math.sqrt(rng.random())
    ang = 2.0 * math.pi * rng.random()
    return [_r(rad * math.cos(ang)), _r(rad * math.sin(ang))]


def _weight(rng: random.Random) -> list:
    """Trig weight 1 + 2 Re(c1 e^{it}) + 2 Re(c2 e^{2it}); |c1| + |c2| < 0.45."""
    c1 = _point(rng, 0.3)
    c2 = _point(rng, 0.15)
    return [[0, 1.0, 0.0], [1, c1[0], c1[1]], [-1, c1[0], -c1[1]], [2, c2[0], c2[1]], [-2, c2[0], -c2[1]]]


def _circle(rng: random.Random) -> dict:
    return {"kind": "circle", "center": _point(rng, 0.3), "radius": _r(rng.uniform(0.7, 1.0))}


def _weighted(rng: random.Random) -> dict:
    return {
        "kind": "weighted_circle",
        "center": _point(rng, 0.3),
        "radius": _r(rng.uniform(0.7, 1.0)),
        "fourier": _weight(rng),
    }


def _atomic(rng: random.Random, count: int) -> dict:
    """Atoms spread on an annulus: distinct, well separated, positive mass."""
    atoms = []
    for k in range(count):
        ang = 2.0 * math.pi * (k + 0.3 * rng.random()) / count
        rad = rng.uniform(0.6, 1.0)
        atoms.append([_r(rad * math.cos(ang)), _r(rad * math.sin(ang)), _r(rng.uniform(0.5, 1.5))])
    return {"kind": "atomic", "atoms": atoms}


def _measure(rng: random.Random, n: int, slot: int, infinite: bool = False) -> dict:
    """A measure whose n x n section is comfortably positive definite; the
    kind cycles with ``slot``."""
    kinds = ("circle", "weighted", "sum-atomic", "sum-weighted") if infinite else KINDS
    kind = kinds[slot % len(kinds)]
    if kind == "circle":
        return _circle(rng)
    if kind == "weighted":
        return _weighted(rng)
    if kind == "atomic":
        return _atomic(rng, n + 3)
    second = _atomic(rng, 1 + slot % 3) if kind == "sum-atomic" else _weighted(rng)
    return {"kind": "sum", "terms": [[_r(rng.uniform(0.5, 1.5)), _circle(rng)], [_r(rng.uniform(0.2, 1.0)), second]]}


def _pencil(rng: random.Random, n: int, slot: int, with_m1: bool | None = None) -> dict:
    """Pencil whose m1 is present in three slots out of five."""
    if with_m1 is None:
        with_m1 = slot % 5 < 3
    return {"m0": _measure(rng, n, slot), "m1": _measure(rng, n, slot // 5) if with_m1 else None}


def _valid(rng: random.Random, name: str, command: str, slot: int) -> dict:
    """The ``slot``-th well-posed file of ``command``.  Section size and
    measure kinds cycle with the slot, so every seed asks for the same mix
    of sizes and kinds and only the continuous parameters vary."""
    n = 2 + slot % (MAX_N - 1)
    sc: dict = {"name": name, "command": command}
    if command in ("moments", "wirtinger"):
        sc["measure"] = _measure(rng, n, slot)
        sc["parameters"] = {"n": n}
        if command == "wirtinger":
            sc["parameters"]["constant"] = _r(rng.uniform(0.5, 4.0))
    elif command in ("gram", "opoly"):
        sc["pencil"] = _pencil(rng, n, slot)
        sc["parameters"] = {"n": n}
    elif command == "zeros":
        sc["pencil"] = _pencil(rng, n + 1, slot)
        sc["parameters"] = {"degree": n - 1}
    elif command in ("multop", "cond4"):
        sc["pencil"] = _pencil(rng, n + 1, slot)
        sc["parameters"] = {"n_max": n}
    elif command == "compare":
        sc["pencil"] = _pencil(rng, n, slot)
        sc["pencil_b"] = _pencil(rng, n, slot + 1)
        sc["parameters"] = {"n_max": n}
    elif command == "dominance":
        sc["pencil"] = _pencil(rng, n, slot, with_m1=True)
        sc["parameters"] = {"constant": _r(rng.uniform(0.5, 20.0)), "n": n}
    elif command in ("gamma", "bpe"):
        n = max(n, 4)
        sc["measure"] = _measure(rng, n, slot, infinite=True)
        sc["parameters"] = {"a": _point(rng, 0.4), "n_max": n}
    elif command == "eigenlimits":
        sizes = sorted(rng.sample(range(1, MAX_N + 1), 1 + slot % 4))
        sc["weight"] = _weight(rng)
        sc["parameters"] = {"n_list": sizes}
    elif command == "prop12":
        n = max(n, 4)
        sc["measure"] = {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0}
        sc["circles"] = [
            _point(rng, 0.5) + [_r(rng.uniform(0.1, 0.5)), _weight(rng)] for _ in range(1 + slot % 2)
        ]
        sc["parameters"] = {"n_max": n}
    else:  # pragma: no cover - VALID_COUNTS lists the commands
        raise ValueError(command)
    return sc


def _numeric(rng: random.Random, name: str, kind: str, slot: int) -> dict:
    n = 4 + slot % (MAX_N - 3)
    if kind == "few-atoms":
        command = ("opoly", "gamma", "zeros")[slot % 3]
        measure = _atomic(rng, 1 + slot % (n - 2))
        if command == "gamma":
            return {"name": name, "command": command, "measure": measure,
                    "parameters": {"a": _point(rng, 0.4), "n_max": n}}
        key, value = ("n", n) if command == "opoly" else ("degree", n - 1)
        return {"name": name, "command": command, "pencil": {"m0": measure, "m1": None}, "parameters": {key: value}}
    # prop12-outside: the circle center lies well outside the unit disk
    ang = 2.0 * math.pi * rng.random()
    rad = rng.uniform(1.4, 2.0)
    return {
        "name": name,
        "command": "prop12",
        "measure": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
        "circles": [[_r(rad * math.cos(ang)), _r(rad * math.sin(ang)), 0.2, _weight(rng)]],
        "parameters": {"n_max": n},
    }


def _malformed(rng: random.Random, name: str, kind: str, slot: int) -> dict | str:
    """A malformed scenario object, or raw text for the JSON-syntax class."""
    sc = _valid(rng, name, ("moments", "gamma", "gram", "opoly")[slot % 4], slot)
    target = sc["measure"] if "measure" in sc else sc["pencil"]["m0"]
    if kind == "unknown-key":
        sc[rng.choice(("comment", "Measure", "params"))] = 1
    elif kind == "unknown-command":
        sc["command"] = rng.choice(("moment", "zeroes", "multiply", ""))
    elif kind == "missing-parameter":
        sc["parameters"].pop(rng.choice(sorted(sc["parameters"])))
    elif kind == "n-out-of-range":
        key = "n_max" if "n_max" in sc["parameters"] else "n"
        sc["parameters"][key] = rng.choice((0, -3, 65, 1000))
    elif kind == "unknown-kind":
        target["kind"] = rng.choice(("disk", "Circle", "arc"))
    elif kind == "negative-radius":
        sc = _valid(rng, name, "moments", slot)
        sc["measure"] = {"kind": "circle", "center": _point(rng, 0.3), "radius": _r(-rng.uniform(0.1, 1.0))}
    elif kind == "non-hermitian-weight":
        sc = _valid(rng, name, "moments", slot)
        w = _weight(rng)
        w[2][2] = -w[2][2] + 0.25
        sc["measure"] = {"kind": "weighted_circle", "center": [0.0, 0.0], "radius": 1.0, "fourier": w}
    elif kind == "negative-mass":
        sc = _valid(rng, name, "moments", slot)
        atoms = _atomic(rng, sc["parameters"]["n"] + 3)
        atoms["atoms"][0][2] = _r(-rng.uniform(0.1, 1.0))
        sc["measure"] = atoms
    elif kind == "n-list-not-increasing":
        sc = _valid(rng, name, "eigenlimits", slot)
        sizes = sorted(rng.sample(range(1, MAX_N + 1), 3))
        sc["parameters"]["n_list"] = [sizes[2], sizes[0], sizes[1]]
    elif kind == "truncated-json":
        text = json.dumps(sc)
        return text[: rng.randint(1, len(text) - 1)]
    elif kind == "string-center":
        sc = _valid(rng, name, "moments", slot)
        sc["measure"] = {"kind": "circle", "center": ["a", 0], "radius": 1.0}
    elif kind == "scalar-fourier":
        sc = _valid(rng, name, "moments", slot)
        sc["measure"] = {"kind": "weighted_circle", "center": [0.0, 0.0], "radius": 1.0, "fourier": 5}
    elif kind == "nan-center":
        target.clear()
        target.update({"kind": "circle", "center": [math.nan, 0.0], "radius": 1.0})
    elif kind == "inf-mass":
        sc = _valid(rng, name, ("moments", "gram")[slot % 2], slot)
        atoms = _atomic(rng, MAX_N + 3)
        atoms["atoms"][0][2] = math.inf
        if sc["command"] == "moments":
            sc["measure"] = atoms
        else:
            sc["pencil"] = {"m0": atoms, "m1": None}
    else:  # pragma: no cover - the count tables list the kinds
        raise ValueError(kind)
    return sc


def plan() -> list[tuple[str, str, int, int]]:
    """(class, command-or-kind, slot, intended exit code) for every file,
    in a fixed order; the seed then shuffles it."""
    rows = [("valid", c, j, 0) for c, k in VALID_COUNTS.items() for j in range(k)]
    rows += [("numeric", c, j, 3) for c, k in NUMERIC_COUNTS.items() for j in range(k)]
    rows += [("rejected", c, j, 2) for c, k in REJECTED_COUNTS.items() for j in range(k)]
    rows += [("defect", c, j, 2) for c, k in KNOWN_DEFECTS.items() for j in range(k)]
    if len(rows) != N_FILES:
        raise ValueError(f"class counts sum to {len(rows)}, not {N_FILES}")
    return rows


def generate(seed: int, out_dir: str) -> list[dict]:
    """Write the scenario files for ``seed`` into ``out_dir``; return their
    manifest: file path, intended exit code, class, command and the input
    that the oracle spot check needs."""
    rng = random.Random(seed)
    rows = plan()
    rng.shuffle(rows)
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for idx, (cls, what, slot, expected) in enumerate(rows):
        name = f"s{idx:04d}-{what}"
        if cls == "valid":
            obj = _valid(rng, name, what, slot)
        elif cls == "numeric":
            obj = _numeric(rng, name, what, slot)
        else:
            obj = _malformed(rng, name, what, slot)
        text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        manifest.append({
            "path": path,
            "name": name,
            "class": cls,
            "kind": what,
            "expected_exit": expected,
            "command": obj.get("command") if isinstance(obj, dict) else None,
            "scenario": obj if cls == "valid" else None,
        })
    return manifest
