"""The flipchain benchmark: runs the workloads and reports every metric.

    python3 perfbench/run.py --workload betti_sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Runs passes of the named workload (or of all three, round-robin) for about
`--seconds` seconds per workload, and at least PASSES untraced passes, each
pass in a fresh interpreter.  Checks every pass's outputs, prints every metric
with its unit and writes a result record under perfbench/results/.  The last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  With `--trace 1`, each round is an untraced pass followed by a
traced one, and the metrics are the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
#: The flipchain sources measured are those under the working directory, so
#: that this benchmark can be run on another checkout.
SRC = os.path.join(os.getcwd(), "src")
WORKLOADS = ("betti_sweep", "verify_all", "cli_requests")

#: What one unit of throughput and one latency sample are, per workload.
UNITS = {
    "betti_sweep": ("polys_per_s", "chamber polynomials whose two routes agree", "build_betti_report(d, g) cell"),
    "verify_all": ("models_per_s", "requested suite models", "rank-2 suite model"),
    "cli_requests": ("requests_per_s", "requests that exited 0", "request"),
}
#: A run ends within 180 seconds even if a pass hangs.
RUN_LIMIT_S = 170.0
#: The end-to-end metrics come from the first PASSES untraced passes of a run,
#: however many more fit in `--seconds`, so that every run of every commit
#: takes its medians over the same number of passes.
PASSES = 8


def load_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(workload: str, seed: int, size: str, trace: int, deadline: float) -> dict:
    """One pass in a child interpreter; raises RuntimeError if it fails."""
    env = {k: v for k, v in os.environ.items() if k != "FLIPCHAIN_THREADS"}
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(trace)]
    if trace:
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        cmd += ["--spans", os.path.join(HERE, "results", f"spans-{workload}-seed{seed}.bin")]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - t0
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_outputs(workload: str, size: str, passes: list[dict], reference: dict) -> list[str]:
    """Mark failed every operation of a pass whose digest differs from the
    reference digest of the pass's inputs."""
    table = reference[size][workload]
    expected = table.get("*") or table[str(passes[0]["input_seed"])]
    notes = []
    for p in passes:
        if p["digest"] != expected:
            p["failed"] = p["attempted"]
            notes.append(f"digest {p['digest'][:16]} differs from the reference digest {expected[:16]}")
    notes.insert(0, f"digest {'checked against the reference' if not notes else 'MISMATCH'}: {expected[:16]}")
    return notes


def end_to_end(passes: list[dict]) -> tuple[dict, list[str]]:
    """Every segment of a pass, at the reference host speed, at its median
    over the first PASSES passes.

    The host's speed drifts by tens of percent within seconds.  A segment's
    fastest of n passes depends on whether a fast moment happened to fall on
    it, and moved several times as much from run to run as its median.
    Set-up time and peak RSS are medians over the same passes.
    """
    passes = passes[:PASSES]
    n = len(passes)
    if len({(len(p["segments_ms"]), str(p["op_ranges"])) for p in passes}) != 1:
        raise RuntimeError("passes of one seed disagree on their segments")
    typical = [statistics.median(col) for col in zip(*(p["segments_ms"] for p in passes))]
    ops = [sum(typical[a:b]) for a, b in passes[0]["op_ranges"]]
    wall = sum(typical) / 1000.0
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s", n),
        "wall_s": (wall, "s", n),
        "throughput_per_s": (passes[0]["units"] / wall, "1/s", n),
        "op_p50_ms": (percentile(ops, 50), "ms", len(ops)),
        "op_p99_ms": (percentile(ops, 99), "ms", len(ops)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB", n),
    }, [f"wall_s takes each of {len(typical)} segments at its median over {n} passes,"
        f" at the reference host speed (perfbench/speed.py)",
        f"raw, at this host's speed: median pass {statistics.median(p['wall_s'] for p in passes):.6g} s,"
        f" median set-up {statistics.median(p['raw_setup_s'] for p in passes):.6g} s;"
        f" speed kernel median {statistics.median(p['kernel_ms'] for p in passes):.6g} ms"
        f" against the reference {speed.REFERENCE_S * 1000:.6g} ms,"
        f" from {sum(p['speed_probes'] for p in passes)} probes"]


def per_layer(plain: list[dict], traced: list[dict], spec: dict) -> dict:
    """The per-layer metrics of the traced pass with the median wall time, so
    that its layers' self times and the benchmark's own time add up to its
    wall time.  Counts are the same in every pass."""
    mid = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            value = mid["wall_s"] - statistics.median(p["wall_s"] for p in plain)
        else:
            value = mid["layers"][name]
        out[name] = (value, m["unit"], len(traced))
    return out


def run_record(args) -> dict:
    commit = None
    if os.path.isdir(".git"):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": src_lines,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"), help="tiny is for the smoke tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "flipchain", "__init__.py")):
        print(f"error: no flipchain sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so that no pass pays for it
    if not compileall.compile_dir(SRC, quiet=1) or not compileall.compile_dir(HERE, quiet=1, maxlevels=0):
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2
    spec = load_spec()
    reference = load_reference()
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    # Round-robin over the workloads, one round (an untraced pass, then a
    # traced one with --trace 1) at a time.  Each workload has its own clock:
    # it takes rounds while the next one is expected to fit in `--seconds`,
    # and, untraced, until it has PASSES passes.
    start = time.monotonic()
    deadline = start + max(RUN_LIMIT_S, args.seconds * len(names) + 60)
    plain = {w: [] for w in names}
    traced = {w: [] for w in names}
    spent = {w: 0.0 for w in names}

    def wants_round(w: str) -> bool:
        n = len(plain[w])
        if n == 0 or (not args.trace and n < PASSES):
            return True
        return spent[w] * (n + 1) / n <= args.seconds

    try:
        active = list(names)
        while active:
            for w in list(active):
                if not wants_round(w):
                    active.remove(w)
                    continue
                t0 = time.monotonic()
                plain[w].append(run_pass(w, args.seed, args.size, 0, deadline))
                if args.trace:
                    traced[w].append(run_pass(w, args.seed, args.size, 1, deadline))
                spent[w] += time.monotonic() - t0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = run_record(args)
    record["workloads"] = {}
    metrics, attempted, failed, correct = {}, 0, 0, True
    for w in names:
        passes = plain[w] + traced[w]
        notes = check_outputs(w, args.size, passes, reference)
        w_attempted = sum(p["attempted"] for p in passes)
        w_failed = sum(p["failed"] for p in passes)
        errors = [e for p in passes for e in p["errors"]]
        correct = correct and w_failed == 0
        attempted += w_attempted
        failed += w_failed
        if args.trace:
            values = per_layer(plain[w], traced[w], spec)
        else:
            try:
                values, how = end_to_end(plain[w])
            except RuntimeError as exc:
                print(f"error: {w}: {exc}", file=sys.stderr)
                return 1
            notes = how + notes
        unit_name, unit_what, sample_what = UNITS[w]
        print(f"{w}: {len(plain[w])} untraced and {len(traced[w])} traced passes, seed {args.seed}")
        for name, (value, unit, samples) in values.items():
            print(f"  {name:40s} {value:14.6g} {unit:6s} ({samples} samples)")
            metrics[name if len(names) == 1 else f"{w}.{name}"] = {"value": value, "unit": unit}
        if not args.trace:
            print(f"  throughput_per_s is {unit_name}: {unit_what} per second of a pass;"
                  f" a latency sample is one {sample_what}")
        print(f"  failed_frac {w_failed / w_attempted:.6g} ({w_failed} of {w_attempted} operations)")
        for note in notes + errors[:10]:
            print(f"  {note}")
        record["workloads"][w] = {
            "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in values.items()},
            "attempted": w_attempted,
            "failed": w_failed,
            "checks": notes,
            "errors": errors,
            "passes": [{k: v for k, v in p.items() if k not in ("segments_ms", "raw_segments_ms", "op_ranges")}
                       | {"segments": len(p["raw_segments_ms"])} for p in passes],
        }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"run record: {path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
