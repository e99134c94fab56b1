"""sobolevlab benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spec-mix --seed 0 --seconds 20 --trace 0

Each pass of a workload runs in a fresh interpreter (``child.py``) with
``PYTHONPATH=src`` and BLAS pinned to one thread; its reports go to a
temporary directory under ``.perfbench/`` that is removed afterwards.
Passes repeat while the next one should end within ``--seconds`` (at
least one pass runs), and medians are reported.  Times are in reference
seconds: wall time scaled by the host speed sampled inside each pass
(``hostspeed.py``); raw wall-clock medians are printed beside them.  With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are printed; with ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics are printed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import scenarios  # noqa: E402
from tracer import SPANNED  # noqa: E402

WORKLOADS = ("builtins-n64", "builtins-n32", "spec-mix")
#: fresh interpreters whose start-up is timed for setup_s: at least this
#: many, some before the passes and the rest after them, so that the
#: samples do not all fall into one period of the host's speed
SETUP_SAMPLES = 6
SETUP_BEFORE = 3
#: a run must end within 180 s; children get what is left of this
RUN_BUDGET_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (not a wrong program outcome)."""


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def _src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


class Runner:
    """Starts the passes of one run and keeps its deadline."""

    def __init__(self, root: str, workload: str, seed: int, work: str, manifest: str | None):
        self.root, self.workload, self.seed, self.work, self.manifest = root, workload, seed, work, manifest
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **PINNED_ENV)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.setups: list[float] = []
        self.setups_raw: list[float] = []
        self.count = 0

    def child(self, setup_only: bool = False, trace: bool = False, spans: str | None = None) -> dict | None:
        """Start one child; time it up to READY; return its result."""
        self.count += 1
        pass_dir = os.path.join(self.work, f"pass-{self.count}")
        result = os.path.join(pass_dir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--work", pass_dir, "--result", result]
        if self.manifest:
            cmd += ["--manifest", self.manifest]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        if spans:
            cmd += ["--spans", spans]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"pass {self.count} did not finish within the run budget")
        if ready.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"pass {self.count} exited {proc.returncode}: {err.strip()[-2000:]}")
        with open(result, encoding="utf-8") as fh:
            res = json.load(fh)
        shutil.rmtree(pass_dir, ignore_errors=True)
        self.setups_raw.append(setup)
        self.setups.append((setup - res["setup_busy_s"]) * res["setup_scale"])
        return None if setup_only else res

    def setups_until(self, count: int) -> None:
        while len(self.setups) < count:
            self.child(setup_only=True)


def _outcomes(passes: list) -> tuple[int, int, dict]:
    attempted = sum(p["attempted"] for p in passes)
    failures: dict[str, int] = {}
    for p in passes:
        for k, v in p["failures"].items():
            failures[k] = failures.get(k, 0) + v
    return attempted, sum(failures.values()), failures


def _checks(passes: list) -> list[str]:
    """Reasons the outputs are not correct; empty when they are."""
    problems = []
    for i, p in enumerate(passes, 1):
        o = p["oracle"]
        if o["files"] == 0 or o["bad"]:
            problems.append(f"pass {i}: {o['bad']} of {o['entries']} oracle entries off "
                            f"(worst scaled error {o['worst_scaled_error']:.3e})")
        if p["reports_missing"]:
            problems.append(f"pass {i}: {p['reports_missing']} reports missing")
    if len({p["digest"] for p in passes}) > 1:
        problems.append("reports differ between passes of the same inputs")
    return problems


def end_to_end(runner: Runner, passes: list) -> dict:
    op_ms = sorted(x for p in passes for x in p["op_ms"])
    attempted, failed, _ = _outcomes(passes)
    return {
        "setup_s": statistics.median(runner.setups),
        "setup_raw_s": statistics.median(runner.setups_raw),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
        "op_p50_raw_ms": statistics.median(x for p in passes for x in p["op_raw_ms"]),
        "op_p50_ms": _percentile(op_ms, 0.50),
        "op_p99_ms": _percentile(op_ms, 0.99),
        "ops_ok_frac": 1.0 - failed / attempted,
        "ops_failed_frac": failed / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain: list, traced: list, src_lines: int) -> dict:
    """Per-layer metrics: medians over the traced passes, counts exact."""
    def med(fn):
        return statistics.median(fn(p) for p in traced)

    # every wrapped function, called or not, so that a function a change
    # stops calling reads 0 instead of going missing
    spanned = {f"{m}.{a}" for m, a in SPANNED if (m, a) != ("cli", "run_builtin")}
    names = sorted(spanned | {n for p in traced for n in p["totals"]})
    out: dict[str, float] = {}
    for name in names:
        def col(p, i, name=name):
            return p["totals"].get(name, (0, 0.0, 0.0))[i]
        if name.startswith("cli.builtin."):
            out[f"{name}.wall_s"] = med(lambda p: col(p, 1))
        else:
            out[f"{name}.calls"] = med(lambda p: col(p, 0))
            out[f"{name}.self_s"] = med(lambda p: col(p, 2))
    counts = traced[0]["counts"]
    calls = {n: out.get(f"{n}.calls", 0) for n in ("momentmatrix.section", "numkernel.cholesky")}
    out["momentmatrix.section.nested_share"] = counts.get("momentmatrix.section.nested", 0) / max(1, calls["momentmatrix.section"])
    out["numkernel.cholesky.work_n3"] = counts.get("numkernel.cholesky.work_n3", 0)
    out["numkernel.cholesky.fail_share"] = counts.get("numkernel.cholesky.failed", 0) / max(1, calls["numkernel.cholesky"])
    out["sobolev.norm_sequence.nan_share"] = (
        counts.get("sobolev.norm_sequence.nan", 0) / max(1, counts.get("sobolev.norm_sequence.values", 0))
    )
    for verdict in ("holds", "fails", "inconclusive"):
        out[f"criteria.verdict.{verdict}"] = counts.get(f"criteria.verdict.{verdict}", 0)
    out["reporting.bytes"] = counts.get("reporting.bytes", 0)
    for code in ("0", "1", "2", "3"):
        out[f"cli.exit.{code}"] = traced[0]["exit_codes"].get(code, 0)
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain) - 1.0
    )
    out["src.lines"] = src_lines
    return out


def _select(spec: list, computed: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in computed]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in spec}


def _print_report(args, env: dict, passes: list, e2e: dict, layers: dict | None, problems: list, src_lines: int) -> None:
    """Human-readable metrics; ``passes`` are the untraced passes."""
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    attempted, failed, failures = _outcomes(passes)
    n_ops = len([x for p in passes for x in p["op_ms"]])
    beyond = n_ops - math.ceil(0.99 * n_ops)
    print(f"passes={len(passes)} outcomes checked={attempted} ({attempted // len(passes)} per pass)")
    print("times in reference seconds (hostspeed.py); raw wall-clock medians in brackets")
    print(f"  setup_s          {e2e['setup_s']:.4f} s    [{e2e['setup_raw_s']:.4f}] median of {e2e['setup_n']} fresh interpreters")
    print(f"  wall_s           {e2e['wall_s']:.4f} s    [{e2e['wall_raw_s']:.4f}] median of {len(passes)} passes")
    print(f"  op_p50_ms        {e2e['op_p50_ms']:.4f} ms   [{e2e['op_p50_raw_ms']:.4f}] n={n_ops} command invocations")
    print(f"  op_p99_ms        {e2e['op_p99_ms']:.4f} ms   n={n_ops}, {beyond} samples beyond")
    print(f"  ops_failed_frac  {e2e['ops_failed_frac']:.6f}      {failed} of {attempted} outcomes")
    print(f"  ops_ok_frac      {e2e['ops_ok_frac']:.6f}      {attempted - failed} of {attempted} outcomes")
    print(f"  peak_rss_mb      {e2e['peak_rss_mb']:.2f} MB   median of {len(passes)} passes")
    for k, v in sorted(failures.items()):
        print(f"  failed: {k} x{v}")
    if "builtin_ms" in passes[0]:
        print("  per built-in, first pass: " + ", ".join(f"{k} {v:.1f} ms" for k, v in passes[0]["builtin_ms"].items()))
    o = passes[0]["oracle"]
    print(f"oracle: {o['files']} files, {o['entries']} entries per pass against measures.moment_quadrature, "
          f"worst scaled error {o['worst_scaled_error']:.3e}")
    print(f"src.lines {src_lines}")
    for p in problems:
        print(f"INCORRECT: {p}")
    if layers is not None:
        print("per-layer (traced passes, self time excludes child spans):")
        for k in sorted(layers):
            print(f"  {k:48s} {layers[k]:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sobolevlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sobolevlab", "cli.py")):
        print("perfbench: no src/sobolevlab in the current directory; run from a checkout's root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        manifest = None
        if args.workload == "spec-mix":
            entries = scenarios.generate(args.seed, os.path.join(work, "inputs"))
            manifest = os.path.join(work, "manifest.json")
            with open(manifest, "w", encoding="utf-8") as fh:
                json.dump(entries, fh)
        runner = Runner(root, args.workload, args.seed, work, manifest)
        runner.setups_until(SETUP_BEFORE)
        plain, traced = [], []
        spans = os.path.join(base, f"{args.workload}-spans.csv")
        start = time.monotonic()
        while True:
            t = time.monotonic()
            plain.append(runner.child())
            if args.trace:
                traced.append(runner.child(trace=True, spans=spans))
            # start another pass only if it should end within --seconds
            if time.monotonic() + (time.monotonic() - t) - start > args.seconds:
                break
        runner.setups_until(SETUP_SAMPLES)
        passes = plain + traced
        src_lines = _src_lines(root)
        e2e = end_to_end(runner, plain)
        e2e["setup_n"] = len(runner.setups)
        layers = per_layer(plain, traced, src_lines) if args.trace else None
        problems = _checks(passes)
        metrics = _select(spec["per_layer"] if args.trace else spec["end_to_end"], layers if args.trace else e2e)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = dict(passes[0]["environment"], seed=args.seed)
    _print_report(args, env, plain, e2e, layers, problems, src_lines)
    attempted, failed, _ = _outcomes(plain)
    summary = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(base, f"{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(summary, environment=env, end_to_end=e2e, per_layer=layers), fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
