"""One pass of one workload, in a fresh interpreter so that every library
cache starts cold and peak RSS belongs to this pass alone.

    python3 perfbench/one_pass.py --workload betti_sweep --seed 0 [--size tiny] [--trace 1 --spans FILE]

Prints one JSON object: set-up time, the timed segments, the output digest,
failures, peak RSS and, when traced, the per-layer metrics.  An untraced pass
also reports its set-up time and segments at the reference host speed
(speed.py); a traced pass reports only raw times.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))  # the sources measured

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402  (imports flipchain)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans", help="file for the traced pass's spans")
    args = ap.parse_args()

    work_root = os.path.join(HERE, "work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=work_root)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size], workdir)
        setup_end = time.perf_counter()
        setup_s = setup_end - T0
        workload.write_inputs()

        caches = tracer.discover_caches()
        tr = stats = host = None
        if args.trace:
            tr = tracer.Tracer()
            stats = workloads.CacheStats(caches)
            tr.install()
        else:
            host = speed.HostSpeed()
        try:
            p = workload.run(caches, stats, host)
        finally:
            if tr:
                tr.uninstall()
        workload.finish(p)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": args.seed % workloads.INPUT_SEEDS,
        "size": args.size,
        "trace": args.trace,
        "raw_setup_s": setup_s,
        "wall_s": sum(p.segments_s),
        "raw_segments_ms": [t * 1000.0 for t in p.segments_s],
        "op_ranges": p.op_ranges,
        "units": p.units,
        "attempted": p.attempted,
        "failed": p.failed,
        "errors": p.errors,
        "digest": p.digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if host:
        result["setup_s"] = setup_s * host.factor_at(setup_end)
        result["segments_ms"] = [t * 1000.0 for t in host.normalize(p.segment_starts, p.segments_s)]
        result["speed_probes"] = len(host.seconds)
        result["kernel_ms"] = statistics.median(host.seconds) * 1000.0
    if tr:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        layers = tr.summarize(names, sum(p.segments_s))

        def hit_ratio(name):
            hits, misses = p.cache_hits.get(name, 0), p.cache_misses.get(name, 0)
            return hits / (hits + misses) if hits + misses else 0.0

        layers["betti.flip_difference.hit_ratio"] = hit_ratio("betti.flip_difference")
        layers["betti.sym_product.hit_ratio"] = hit_ratio("betti.sym_product_poincare")
        layers["betti.cache_entries"] = p.cache_entries
        layers["cli.exit_nonzero"] = p.exit_nonzero
        result["layers"] = layers
        if args.spans:
            tr.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
