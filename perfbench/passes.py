"""The operations of one pass, their outcome checks and the oracle check.

Latency is sampled per command invocation, which is what a user of the
command line waits for; outcomes are checked per verdict:

* builtin workloads run ``main(["--builtin", "all", ...])`` once per pass:
  one latency sample, and eleven outcomes, one per built-in experiment.
  Each experiment's own time, from the previous ``name: verdict`` line on
  standard output to its own, is kept for the printed detail;
* ``spec-mix`` runs ``main(["--spec", FILE, "--out", DIR])`` per file: one
  latency sample and one outcome per file.

An outcome fails when it differs from what the paper or the input
contract says: a built-in verdict other than "holds", a scenario exit code
other than the intended one (an uncaught exception counts as exit 1), or
a self-checking command that does not report "holds".
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import time
from collections import Counter

from scenarios import SELF_CHECKING

BUILTIN_NMAX = {"builtins-n64": 64, "builtins-n32": 32}
#: relative tolerance of the quadrature spot check
ORACLE_RTOL = 1e-10
ORACLE_FILES = 12
ORACLE_ENTRIES = 8

_CELL = re.compile(r"^([+-]?[0-9.]+e[+-]\d+)([+-][0-9.]+e[+-]\d+)i$")


class _StampedLines(io.TextIOBase):
    """Text sink that records the clock when each line is completed."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        text = self._partial + s
        if "\n" in text:
            t = time.perf_counter()
            *done, self._partial = text.split("\n")
            self.lines.extend((t, line) for line in done)
        else:
            self._partial = text
        return len(s)


def _call_main(cli, argv, stdout) -> tuple[int, float, float, str]:
    """Run ``cli.main(argv)``; return (exit code, start, end, exception name)."""
    crash = ""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the command line would exit 1 with a traceback
            code, crash = 1, type(exc).__name__
        t1 = time.perf_counter()
    return code, t0, t1, crash


def _builtin_ops(cli, nmax: int, seed: int, out_dir: str, speed) -> dict:
    names = cli.list_builtins()
    sink = _StampedLines()
    argv = ["--builtin", "all", "--nmax", str(nmax), "--seed", str(seed), "--out", out_dir]
    code, t0, t1, crash = _call_main(cli, argv, sink)
    builtin_ms, verdicts, prev = {}, {}, t0
    for t, line in sink.lines:
        name, _, verdict = line.partition(": ")
        builtin_ms[name] = speed.reference_seconds(prev, t)[1] * 1e3
        prev = t
        verdicts[name] = verdict
    raw, norm = speed.reference_seconds(t0, t1)
    failures = Counter()
    for name in names:
        verdict = verdicts.get(name)
        if verdict != "holds":
            failures[f"{name}: {verdict or f'no verdict (exit {code} {crash})'.strip()}"] += 1
    missing = sum(1 for name in verdicts if not os.path.exists(os.path.join(out_dir, f"{name}.json")))
    return {
        "wall_s": norm,
        "wall_raw_s": raw,
        "op_ms": [norm * 1e3],
        "op_raw_ms": [raw * 1e3],
        "scale": speed.scale(t0, t1),
        "builtin_ms": builtin_ms,
        "attempted": len(names),
        "failures": failures,
        "exit_codes": Counter([code]),
        "reports_missing": missing,
    }


def _spec_ops(cli, manifest: list, out_dir: str, speed) -> dict:
    calls = []
    for entry in manifest:
        sink = io.StringIO()
        calls.append((*_call_main(cli, ["--spec", entry["path"], "--out", out_dir], sink), sink))
    # outcomes are checked after the loop, so that checking adds no time
    # between operations
    spans, failures, codes, missing = [], Counter(), Counter(), 0
    for entry, (code, t0, t1, crash, sink) in zip(manifest, calls):
        spans.append((t0, t1))
        codes[code] += 1
        if code != entry["expected_exit"]:
            failures[f"{entry['kind']}: exit {code} {crash}".strip()] += 1
        elif code == 0 and entry["command"] in SELF_CHECKING and not sink.getvalue().rstrip().endswith(": holds"):
            failures[f"{entry['command']}: not holds"] += 1
        if code == 0 and not os.path.exists(os.path.join(out_dir, f"{entry['name']}.json")):
            missing += 1
    ops = [speed.reference_seconds(t0, t1) for t0, t1 in spans]
    first, last = spans[0][0], spans[-1][1]
    raw, norm = speed.reference_seconds(first, last)
    return {
        "wall_s": norm,
        "wall_raw_s": raw,
        "op_ms": [n * 1e3 for _, n in ops],
        "op_raw_ms": [r * 1e3 for r, _ in ops],
        "scale": speed.scale(first, last),
        "attempted": len(manifest),
        "failures": failures,
        "exit_codes": codes,
        "reports_missing": missing,
    }


# ---------------------------------------------------------------------------
# Oracle: sections and Gram matrices the program wrote, against quadrature
# ---------------------------------------------------------------------------

def read_matrix_csv(path: str) -> list[list[complex]]:
    """Parse a section CSV ('re+imi' cells under a col_j header)."""
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    out = []
    for row in rows:
        cells = []
        for cell in row.split(","):
            m = _CELL.match(cell)
            if m is None:
                raise ValueError(f"bad cell {cell!r} in {path}")
            cells.append(complex(float(m.group(1)), float(m.group(2))))
        out.append(cells)
    return out


def _gram_oracle(measures, m0, m1):
    def entry(i, j):
        v = measures.moment_quadrature(m0, i, j)
        if m1 is not None and i >= 1 and j >= 1:
            v += i * j * measures.moment_quadrature(m1, i - 1, j - 1)
        return v
    return entry


def _check_matrix(path: str, entry, rng: random.Random) -> tuple[int, int, float]:
    """(entries checked, entries off, worst scaled error) on a sample."""
    a = read_matrix_csv(path)
    n = len(a)
    picks = {(n - 1, n - 1), (0, n - 1)}
    while len(picks) < min(ORACLE_ENTRIES, n * n):
        picks.add((rng.randrange(n), rng.randrange(n)))
    bad, worst = 0, 0.0
    for i, j in sorted(picks):
        scale = max(1.0, abs(entry(i, i) * entry(j, j)) ** 0.5)
        err = abs(a[i][j] - entry(i, j)) / scale
        worst = max(worst, err)
        bad += err > ORACLE_RTOL
    return len(picks), bad, worst


def oracle_check(seed: int, out_dir: str, manifest) -> dict:
    """Spot-check written sections and Gram matrices against
    ``measures.moment_quadrature``, an independent evaluation of the
    moments."""
    from sobolevlab import measures

    rng = random.Random(seed)
    jobs = []
    if manifest is None:
        with open(os.path.join(out_dir, "identity-moments.json"), encoding="utf-8") as fh:
            mu = measures.from_json(json.loads(json.load(fh)["label"]))
        jobs.append((os.path.join(out_dir, "identity-moments_section.csv"), _gram_oracle(measures, mu, None)))
    else:
        written = [
            e for e in manifest
            if e["class"] == "valid" and e["command"] in ("moments", "gram")
        ]
        for e in rng.sample(written, min(ORACLE_FILES, len(written))):
            sc = e["scenario"]
            if e["command"] == "moments":
                m0, m1, suffix = measures.from_json(sc["measure"]), None, "section"
            else:
                pen = sc["pencil"]
                m0 = measures.from_json(pen["m0"])
                m1 = None if pen["m1"] is None else measures.from_json(pen["m1"])
                suffix = "gram"
            jobs.append((os.path.join(out_dir, f"{e['name']}_{suffix}.csv"), _gram_oracle(measures, m0, m1)))
    checked = bad = 0
    worst = 0.0
    for path, entry in jobs:
        c, b, w = _check_matrix(path, entry, rng)
        checked, bad, worst = checked + c, bad + b, max(worst, w)
    return {"files": len(jobs), "entries": checked, "bad": bad, "worst_scaled_error": worst}


def report_digest(out_dir: str) -> str:
    """SHA-256 over every report file name and its bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    """Versions and thread settings the pass ran with."""
    import platform

    import numpy
    import scipy

    def blas_version(mod) -> str:
        try:
            return str(mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown"))
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", ""),
    }


def run_pass(cli, workload: str, seed: int, out_dir: str, manifest, trace: bool, spans_path, speed) -> dict:
    """Run the workload's operations once and check them; times are in
    reference seconds (see hostspeed.py)."""
    tracer = None
    if trace:
        import sobolevlab
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(sobolevlab)
    try:
        if workload in BUILTIN_NMAX:
            res = _builtin_ops(cli, BUILTIN_NMAX[workload], seed, out_dir, speed)
        else:
            res = _spec_ops(cli, manifest, out_dir, speed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["oracle"] = oracle_check(seed, out_dir, manifest)
    res["digest"] = report_digest(out_dir)
    res["environment"] = environment()
    if tracer is not None:
        # the pass-wide scale puts span times in reference seconds as well
        res["totals"] = {k: (c, d * res["scale"], s * res["scale"]) for k, (c, d, s) in tracer.totals().items()}
        res["counts"] = dict(tracer.counts)
        if spans_path:
            tracer.write_spans(spans_path)
    res["failures"] = dict(res["failures"])
    res["exit_codes"] = {str(k): v for k, v in res["exit_codes"].items()}
    return res
