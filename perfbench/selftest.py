"""Self-tests of the benchmark itself (not of semind).

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks that equal seeds give byte-identical inputs, that BENCHMARK.json lists
the per-layer metrics a traced run reports, that the reference covers
every command of every variant, that a corrupted reference is caught, that a
directory without the program makes the benchmark fail without a result, and
that two traced runs of one seed report identical counts (for the named
workloads, all by default; about a minute each).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import run
import workloads


def test_inputs_repeat():
    for name in workloads.WORKLOADS:
        for seed in (0, 5, 21):
            assert workloads.build(name, seed) == workloads.build(name, seed), (name, seed)
        # seeds with the same variant give the same inputs
        assert workloads.build(name, 3) == workloads.build(name, 3 + workloads.VARIANTS)
    for name in ("exact_search", "climb", "count"):
        a, b = workloads.build(name, 0), workloads.build(name, 1)
        assert (a.inputs, a.commands) != (b.inputs, b.commands), name


def test_benchmark_json_lists_layer_metrics():
    listed = json.loads((harness.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"]) for m in listed] == [
        (name, run.unit_of(name)) for name in run.metric_names()]


def test_reference_complete():
    reference = harness.load_reference()
    for name in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            wl = workloads.build(name, variant)
            for cmd in wl.commands:
                key = harness.command_key(cmd, wl)
                assert key in reference, (name, variant, cmd.argv)
                assert reference[key]["exit"] == 0, (name, variant, cmd.argv)


def test_corrupted_reference_caught(tmp: Path):
    reference = harness.load_reference()
    wl = workloads.build("analysis", 0)
    cmd = next(c for c in wl.commands if c.writes)
    cwd = harness.prepare_dir(tmp / "corrupt", wl)
    proc = harness.run_semind(cmd, cwd, harness.child_env(), 120)
    key = harness.command_key(cmd, wl)
    obs = harness.observe(cmd, proc.exit, proc.stdout, cwd)
    assert harness.matches(reference, key, obs)
    file = cmd.writes[0]
    for field, bad in (("exit", 1), ("stdout", "0" * 64), ("files", {file: "0" * 64})):
        corrupted = {key: {**reference[key], field: bad}}
        assert not harness.matches(corrupted, key, obs), field
    assert not harness.matches({}, key, obs)
    (cwd / file).write_text("changed\n")
    assert not harness.matches(reference, key, harness.observe(cmd, proc.exit, proc.stdout, cwd))


def test_fails_without_program(tmp: Path):
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(harness.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, timeout=170)
    assert proc.returncode != 0
    assert b'"metrics"' not in proc.stdout


def test_counts_repeat(tmp: Path, names):
    reference = harness.load_reference()
    env = harness.child_env()
    for name in names:
        wl = workloads.build(name, 7)
        results = []
        for i in range(2):
            d = tmp / f"trace-{name}-{i}"
            d.mkdir()
            res = run.run_traced(wl, reference, d, env, time.perf_counter() + 600)
            assert res["failed"] == 0, name
            results.append(res["metrics"])
        counts = {m: v for m, (v, unit) in results[0].items() if unit == "count"}
        again = {m: v for m, (v, unit) in results[1].items() if unit == "count"}
        assert counts == again, (name, counts, again)
        m = results[0]
        layers = sum(m[f"{layer}.self_s"][0] for layer in run.tracer.LAYERS)
        total = layers + m["trace.unattributed_s"][0]
        assert abs(total - m["trace.wall_s"][0]) < 1e-6 * m["trace.wall_s"][0], name
        print(f"{name}: {json.dumps(counts)}")


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    harness.WORK_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=harness.WORK_ROOT))
    try:
        test_inputs_repeat()
        test_benchmark_json_lists_layer_metrics()
        test_reference_complete()
        test_corrupted_reference_caught(tmp)
        test_fails_without_program(tmp)
        print("inputs, reference and output check: ok")
        test_counts_repeat(tmp, names)
        print("counts repeat: ok")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
