"""Tests of the benchmark itself: inputs, tracer arithmetic, determinism.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import shutil
import subprocess
import sys
import time
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import passes  # noqa: E402
import scenarios  # noqa: E402
from tracer import Tracer  # noqa: E402


def _tree(path):
    return {name: open(os.path.join(path, name), "rb").read() for name in sorted(os.listdir(path))}


def test_same_seed_gives_byte_identical_scenarios(tmp_path):
    scenarios.generate(7, str(tmp_path / "a"))
    scenarios.generate(7, str(tmp_path / "b"))
    scenarios.generate(8, str(tmp_path / "c"))
    a, b, c = (_tree(str(tmp_path / d)) for d in "abc")
    assert len(a) == scenarios.N_FILES
    assert a == b
    assert a != c


def test_class_counts_do_not_depend_on_seed(tmp_path):
    for seed in (0, 1):
        manifest = scenarios.generate(seed, str(tmp_path / str(seed)))
        exits = [e["expected_exit"] for e in manifest]
        assert exits.count(0) == sum(scenarios.VALID_COUNTS.values())
        assert exits.count(3) == sum(scenarios.NUMERIC_COUNTS.values())
        assert sum(1 for e in manifest if e["class"] == "defect") == sum(scenarios.KNOWN_DEFECTS.values())
        assert {e["command"] for e in manifest if e["class"] == "valid"} == set(scenarios.VALID_COUNTS)


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    fake = types.ModuleType("pkg.fake")

    def outer():
        fake.inner()
        fake.inner()

    def inner():
        pass

    fake.outer, fake.inner = outer, inner
    tracer.patch(fake, "outer")
    tracer.patch(fake, "inner")
    fake.outer()
    tracer.uninstall()
    assert fake.outer is outer and fake.inner is inner
    totals = tracer.totals()
    assert totals["fake.outer"] == (1, 10.0, 5.0)
    assert totals["fake.inner"] == (2, 5.0, 5.0)
    assert list(tracer.parent) == [-1, 0, 0]


def test_failed_call_still_closes_its_span():
    ticks = iter([0.0, 2.0])
    tracer = Tracer(clock=lambda: next(ticks))
    fake = types.ModuleType("pkg.fake")

    def boom():
        raise ValueError("x")

    fake.boom = boom
    tracer.patch(fake, "boom")
    with pytest.raises(ValueError):
        fake.boom()
    assert tracer.totals()["fake.boom"] == (1, 2.0, 2.0)
    assert tracer._stack == []


def test_reference_seconds_scale_by_sampled_speed():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_KERNEL_S
    # kernel samples at t = 1..9 s: twice as slow as the reference, then at it
    for t, d in [(1, 2 * ref), (2, 2 * ref), (3, 2 * ref), (7, ref), (8, ref), (9, ref)]:
        speed.starts.append(float(t))
        speed.durations.append(d)
        speed._busy_prefix.append(speed._busy_prefix[-1] + d)
    raw, norm = speed.reference_seconds(0.5, 3.5)
    assert raw == pytest.approx(3.0 - 6 * ref)
    # the window holds the three slow samples plus the fast ones beside it
    assert norm == pytest.approx(raw * (3 * 0.5 + 3 * 1.0) / 6)
    # after the last sample, the window is the last SIDE_SAMPLES samples
    assert speed.scale(100.0, 101.0) == pytest.approx((2 * 0.5 + 3 * 1.0) / 5)


def test_sampler_runs_the_kernel_from_the_timer():
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        speed.stop()
    assert len(speed.durations) >= 2
    assert speed.starts == sorted(speed.starts)


def _run_reports(out_dir, argvs, traced):
    import sobolevlab
    from sobolevlab import cli

    tracer = Tracer()
    if traced:
        tracer.install(sobolevlab)
    try:
        codes = [passes._call_main(cli, argv + ["--out", out_dir], open(os.devnull, "w"))[0] for argv in argvs]
    finally:
        tracer.uninstall()
    return codes, _tree(out_dir), tracer


def test_traced_run_leaves_reports_byte_identical(tmp_path):
    manifest = scenarios.generate(3, str(tmp_path / "inputs"))
    picked = {}
    for e in manifest:  # one file of every command and of every bad class
        picked.setdefault(e["kind"], e)
    argvs = [["--spec", e["path"]] for e in picked.values()]
    argvs.append(["--builtin", "all", "--nmax", "8", "--seed", "3"])
    codes_a, plain, _ = _run_reports(str(tmp_path / "plain"), argvs, traced=False)
    codes_b, traced, tracer = _run_reports(str(tmp_path / "traced"), argvs, traced=True)
    assert codes_a == codes_b
    assert plain == traced
    assert len(plain) > len(picked)
    assert tracer.totals()["measures.moment"][0] > 0


def test_oracle_reads_written_sections(tmp_path):
    from sobolevlab import cli

    out = str(tmp_path)
    passes._call_main(cli, ["--builtin", "identity-moments", "--out", out], open(os.devnull, "w"))
    res = passes.oracle_check(0, out, None)
    assert res["files"] == 1 and res["entries"] == passes.ORACLE_ENTRIES and res["bad"] == 0


def test_run_fails_without_a_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spec-mix", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
