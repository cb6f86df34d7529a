"""Smoke tests of the benchmark at its tiny size: the printed metric names
match BENCHMARK.json, the output digests match the reference at any seed, the
traced per-layer self times and the benchmark's own time add up to the traced
wall time, the benchmark fails when the program's sources are missing, and
the host-speed scaling takes the readings nearest to each time.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("betti_sweep", "verify_all", "cli_requests")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    """Run the benchmark found under `cwd` on the sources under `cwd`, at a
    seed past the ten input contents, whose reference digest is seed 7's."""
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "1237", "--seconds", "1", "--size", "tiny",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_metric_names_and_digests(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    assert "digest checked against the reference" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_wall_time(workload):
    spans_path = os.path.join(HERE, "work", f"test-spans-{workload}-{os.getpid()}.bin")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload", workload, "--seed", "0",
             "--size", "tiny", "--trace", "1", "--spans", spans_path],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        layers = last_json(proc.stdout)["layers"]
        spans = tracer.load_spans(spans_path)
    finally:
        if os.path.exists(spans_path):
            os.remove(spans_path)

    wall = layers["trace.wall_s"]
    accounted = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS) + layers["trace.bench_s"]
    assert accounted == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert 0 <= layers["trace.bench_s"] < wall

    # the accounting holds because spans nest: every child lies inside its parent
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    assert len(start) == layers["trace.spans"] > 0
    for i, p in enumerate(parent):
        assert start[i] <= end[i]
        if p >= 0:
            assert start[p] <= start[i] and end[i] <= end[p]
    covered = sum(end[i] - start[i] for i, p in enumerate(parent) if p < 0)
    assert covered <= wall + 1e-9


def test_fails_without_the_program():
    bare = os.path.join(HERE, "work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("--workload", "betti_sweep", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_speed_scales_by_the_nearest_readings():
    host = speed.HostSpeed()
    assert len(host.seconds) == speed.NEAREST and all(t > 0 for t in host.seconds)
    # readings at t = 0..9 s; the host runs at half the reference speed up to
    # t = 4 and at the reference speed from t = 5 on
    host.times = [float(t) for t in range(10)]
    host.seconds = [2 * speed.REFERENCE_S] * 5 + [speed.REFERENCE_S] * 5
    assert host.factor_at(-1.0) == host.factor_at(1.2) == 0.5
    assert host.factor_at(8.5) == host.factor_at(20.0) == 1.0
    assert host.normalize([0.5, 9.0], [0.2, 0.3]) == [0.1, 0.3]
