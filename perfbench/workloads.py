"""The three workloads: inputs made from the seed, and one timed pass.

The seed's residue modulo INPUT_SEEDS picks the contents of verify_all and
cli_requests, so that every seed's outputs have a reference digest in
reference.json; the whole seed picks the order of cli_requests, and the
digest does not depend on that order.

Every workload is a closed loop with one client in one thread: the next
operation starts when the previous one has returned.  A pass is timed as a
list of segments that is the same for every pass of a seed: one per operation
in betti_sweep and cli_requests, and the intervals between clock reads at
fixed points of the one verify-all command.  A pass's wall time is the sum of
its segments, so the benchmark's own bookkeeping between operations (hashing
outputs, clearing caches, reading the host's speed) is not charged to the
program.  An untraced pass reads the host's speed between segments with a
speed.HostSpeed; a traced pass does not, so that no probe lands inside a span.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from time import perf_counter

from flipchain import betti, cli, stability

import tracer

FORMATS = ("text", "json", "csv", "latex")
FORMAT_FLAGS = {"text": [], "json": ["--json"], "csv": ["--csv"], "latex": ["--latex"]}
GENERA = (2, 3, 4, 5)
#: The number of distinct input contents; reference.json has a digest for each.
INPUT_SEEDS = 10

#: Workload sizes.  "full" is what the benchmark measures; "tiny" is for the
#: smoke tests.  Each full pass takes a few seconds, so a run holds several.
SIZES = {
    "full": {
        "betti_d_min": -32,
        "verify_models": 1500,
        "req_betti_d_min": -20,
        "req_chambers_d_min": -60,
        "req_chambers_copies": 8,
        "req_models": 280,
    },
    "tiny": {
        "betti_d_min": -6,
        "verify_models": 30,
        "req_betti_d_min": -4,
        "req_chambers_d_min": -6,
        "req_chambers_copies": 2,
        "req_models": 8,
    },
}


class Pass:
    """Counters of one pass.  Operation k, a latency sample, is made of the
    segments `op_ranges[k][0]` up to `op_ranges[k][1]`."""

    def __init__(self):
        self.segment_starts: list[float] = []
        self.segments_s: list[float] = []
        self.op_ranges: list[tuple[int, int]] = []
        self.attempted = 0
        self.units = 0
        self.failed = 0
        self.exit_nonzero = 0
        self.errors: list[str] = []
        self.digest = ""
        self.cache_hits: dict[str, int] = {}
        self.cache_misses: dict[str, int] = {}
        self.cache_entries = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def add_segments(self, t0: float, stamps: list, t1: float) -> tuple[int, int]:
        """The segments from t0 through the stamps to t1; returns their range.
        A stamp (end, resume, name) ends one segment and starts the next,
        leaving out the time in between."""
        starts = [t0] + [resume for _, resume, _ in stamps]
        ends = [end for end, _, _ in stamps] + [t1]
        first = len(self.segments_s)
        self.segment_starts.extend(starts)
        self.segments_s.extend(b - a for a, b in zip(starts, ends))
        return first, len(self.segments_s)


class Probes:
    """A clock read at every call of the given (module, attribute) pairs,
    which the library looks up at call time.  A probe costs one clock read
    and one list append per call; it splits an operation into segments that
    are the same in every pass of a seed.  When the host's speed is read
    there, a second clock read leaves that reading out of the segments."""

    def __init__(self, host, *targets):
        self.host = host
        self.targets = targets
        self.stamps: list[tuple[float, float, str]] = []

    def __enter__(self) -> "Probes":
        self.originals = [getattr(mod, attr) for mod, attr in self.targets]
        for (mod, attr), fn in zip(self.targets, self.originals):
            setattr(mod, attr, self._stamped(fn, attr))
        return self

    def __exit__(self, *exc_info) -> None:
        for (mod, attr), fn in zip(self.targets, self.originals):
            setattr(mod, attr, fn)

    def _stamped(self, fn, attr: str):
        stamps, host = self.stamps, self.host

        def stamped(*args, **kwargs):
            end = perf_counter()
            resume = perf_counter() if host and host.maybe() else end
            stamps.append((end, resume, attr))
            return fn(*args, **kwargs)

        return stamped


class CacheStats:
    """Hit and miss deltas of every library cache over the timed operations.

    Taken only on traced passes; `cache_clear` resets a cache's statistics,
    so deltas are read right after each operation, before the next clear.
    """

    def __init__(self, caches):
        self.caches = caches
        self.before = None

    def start(self):
        self.before = [c.cache_info() for c in self.caches]

    def stop(self, p: Pass):
        entries = 0
        for c, b in zip(self.caches, self.before):
            info = c.cache_info()
            name = tracer.qualified_name(c)
            p.cache_hits[name] = p.cache_hits.get(name, 0) + info.hits - b.hits
            p.cache_misses[name] = p.cache_misses.get(name, 0) + info.misses - b.misses
            entries += info.currsize
        p.cache_entries = max(p.cache_entries, entries)


def _clear(caches) -> None:
    for c in caches:
        c.cache_clear()


# ---------------------------------------------------------------------------
# betti_sweep: the library sweep, every chamber polynomial by both routes
# ---------------------------------------------------------------------------


class BettiSweep:
    """`build_betti_report(d, g)` for g in 2..5 and d from -1 down to the
    size's depth.  Caches start cold and are shared across cells, as in one
    process using the library.  The inputs do not depend on the seed.  A cell
    is one operation and one segment."""

    def __init__(self, seed: int, size: dict, workdir: str):
        self.cells = [(d, g) for g in GENERA for d in range(-1, size["betti_d_min"] - 1, -1)]

    def write_inputs(self) -> None:
        """No input files."""

    def run(self, caches, stats, host) -> Pass:
        p = Pass()
        p.attempted = len(self.cells)
        self.reports = []
        _clear(caches)
        for d, g in self.cells:
            if host:
                host.maybe()
            if stats:
                stats.start()
            t0 = perf_counter()
            try:
                report = betti.build_betti_report(d, g)
            except Exception as exc:  # a failed cell is counted, the sweep goes on
                report = None
                p.fail(f"betti report (d={d}, g={g}) raised {exc!r}")
            p.op_ranges.append(p.add_segments(t0, [], perf_counter()))
            if report is None:
                continue
            if stats:
                stats.stop(p)
            self.reports.append(report)
            p.units += sum(ch.agree for ch in report.chambers)
            if not report.ok:
                p.fail(f"betti report (d={d}, g={g}) is not ok")
        return p

    def finish(self, p: Pass) -> None:
        h = hashlib.sha256()
        for r in self.reports:
            h.update(json.dumps(betti.report_to_json_obj(r), sort_keys=True).encode())
        p.digest = h.hexdigest()


# ---------------------------------------------------------------------------
# verify_all: the user's validation command
# ---------------------------------------------------------------------------


class VerifyAll:
    """`cli.run` of `verify-all` with the default grid, the seed modulo
    INPUT_SEEDS and a fixed model count: one operation per pass.  Probes at
    each grid cell's Betti report and at each model draw of the stability
    suite split the pass into segments; a rank-2 model's segment runs from its
    draw to the next probe, and these are the latency samples."""

    PROBES = ((betti, "build_betti_report"), (stability, "random_rank2_model"), (stability, "random_chain_model"))

    def __init__(self, seed: int, size: dict, workdir: str):
        self.models = size["verify_models"]
        self.argv = ["verify-all", "--seed", str(seed % INPUT_SEEDS), "--models", str(self.models)]

    def write_inputs(self) -> None:
        """No input files."""

    def run(self, caches, stats, host) -> Pass:
        p = Pass()
        p.attempted = 1
        p.units = self.models
        _clear(caches)
        out = io.StringIO()
        with Probes(host, *self.PROBES) as probes:
            if stats:
                stats.start()
            t0 = perf_counter()
            try:
                status = cli.run(cli.parse_args(self.argv), out=out)
            except Exception as exc:
                status = None
                p.fail(f"verify-all raised {exc!r}")
            t1 = perf_counter()
        if stats:
            stats.stop(p)
        p.add_segments(t0, probes.stamps, t1)
        p.op_ranges = [(k + 1, k + 2) for k, (_, _, attr) in enumerate(probes.stamps) if attr == "random_rank2_model"]
        self.status, self.stdout = status, out.getvalue()
        if status is not None and status != 0:
            p.exit_nonzero += 1
            p.fail(f"verify-all exited with {status}")
        return p

    def finish(self, p: Pass) -> None:
        p.digest = hashlib.sha256(f"{self.status}\n{self.stdout}".encode()).hexdigest()


# ---------------------------------------------------------------------------
# cli_requests: a seeded stream of single CLI commands
# ---------------------------------------------------------------------------


def _sub(rng: random.Random, sid: str, rank: int, degree: int, fr: bool) -> dict:
    return {"id": sid, "rank": rank, "degree": degree, "fr": fr, "phi_invariant": rng.random() < 0.5, "parents": []}


def _rank2_model(rng: random.Random) -> dict:
    """A rank-2 model with up to four rank-1 subobjects, an occasional split
    and an occasional containment, in the JSON wire format."""
    d = rng.randint(-9, -1)
    subs = []
    used = {True: set(), False: set()}
    split = None
    if rng.random() < 0.15:
        kappa = rng.randint(d, 0)
        subs.append(_sub(rng, "K", 1, kappa, False))
        subs.append(_sub(rng, "C", 1, d - kappa, True))
        used[False].add(kappa)
        used[True].add(d - kappa)
        split = {"kmax_id": "K", "other_id": "C"}
    for k in range(rng.randint(0, 4)):
        fr = rng.random() < 0.5
        pool = [x for x in (range(d - 2, 3) if fr else range(d, 1)) if x not in used[fr]]
        if not pool:
            continue
        deg = rng.choice(pool)
        used[fr].add(deg)
        subs.append(_sub(rng, f"F{k}", 1, deg, fr))
    if len(subs) >= 2 and rng.random() < 0.3:
        child, parent = sorted(rng.sample(subs, 2), key=lambda s: s["degree"])
        if not (child["fr"] and not parent["fr"]):  # kernel membership is monotone
            child["parents"] = [parent["id"]]
    return _model_obj(rng, rank=2, degree=d, subs=subs, split=split, delta_iso=rng.random() < 0.7)


def _chain_model(rng: random.Random) -> dict:
    """A rank-3 or rank-4 model holding a containment chain whose lowest
    members sit in the framing kernel, plus an occasional loose subobject."""
    r = rng.choice([3, 4])
    d = rng.randint(-12, -1)
    ranks = sorted(rng.sample(range(1, r), rng.randint(1, r - 1)))
    cut = rng.randint(0, len(ranks))
    subs = []
    deg = rng.randint(d, 2)
    for idx, rk in enumerate(ranks):
        deg = rng.randint(deg, deg + 4) if idx else deg
        subs.append(_sub(rng, f"C{idx}", rk, deg, idx >= cut))
        if idx:
            subs[idx - 1]["parents"] = [f"C{idx}"]
    if rng.random() < 0.4:
        fr = rng.random() < 0.5
        subs.append(_sub(rng, "X", rng.randint(1, r - 1), rng.randint(d - 4 if fr else d, 2), fr))
    return _model_obj(rng, rank=r, degree=d, subs=subs, split=None, delta_iso=False)


def _model_obj(rng, rank, degree, subs, split, delta_iso) -> dict:
    obj = {
        "genus": rng.randint(2, 3),
        "frame_degree": 0,
        "type": {"rank": rank, "degree": degree, "framing_nonzero": True, "delta_iso": delta_iso},
        "subs": subs,
    }
    if split is not None:
        obj["split"] = split
    return obj


def request_stream(seed: int, size: dict, model_dir: str) -> tuple[list[list[str]], dict[str, dict]]:
    """The request mix, with fixed quotas so that every seed gives the same
    cost profile and the tail percentiles do not swing with the draw:

    * `betti` for every (d, g) with d down to the size's depth and g in 2..5,
      twice each in two different formats; one of the two is restricted to a
      random `--chamber`.
    * `chambers` for every d down to -60, a few times each, each format
      equally often, with a random genus.
    * `stability-check` on model files in model_dir, half rank 2 and half
      chains, each in two different formats.

    The seed modulo INPUT_SEEDS picks the formats, genera, chamber indices
    and models; the whole seed picks the order.  Returns the requests and the
    model files' contents by path; nothing is written here.
    """
    rng = random.Random(seed % INPUT_SEEDS)
    reqs = []
    for d in range(-1, size["req_betti_d_min"] - 1, -1):
        lo, hi = (-d) // 2, -d - 1  # the chamber indices of degree d
        for g in GENERA:
            restricted = rng.randrange(2)
            for k, fmt in enumerate(rng.sample(FORMATS, 2)):
                extra = ["--chamber", str(rng.randint(lo, hi))] if k == restricted else []
                reqs.append(["betti", "--d", str(d), "--g", str(g)] + extra + FORMAT_FLAGS[fmt])
    copies = size["req_chambers_copies"]
    for d in range(-1, size["req_chambers_d_min"] - 1, -1):
        fmts = list(FORMATS) * (copies // len(FORMATS)) + rng.sample(FORMATS, copies % len(FORMATS))
        for fmt in fmts:
            reqs.append(["chambers", "--d", str(d), "--g", str(rng.choice(GENERA))] + FORMAT_FLAGS[fmt])
    models = {}
    for k in range(size["req_models"]):
        path = os.path.join(model_dir, f"model{k}.json")
        models[path] = _rank2_model(rng) if k % 2 == 0 else _chain_model(rng)
        for fmt in rng.sample(FORMATS, 2):
            reqs.append(["stability-check", "--model", path] + FORMAT_FLAGS[fmt])
    random.Random(seed).shuffle(reqs)
    return reqs, models


class CliRequests:
    """Each request runs in-process as `cli.run(cli.parse_args(argv))` with
    stdout captured, after every library cache is cleared, as a fresh CLI
    process would see it.  The digest hashes the requests' digests in sorted
    order, so it does not depend on the order of the stream."""

    def __init__(self, seed: int, size: dict, workdir: str):
        self.requests, self.models = request_stream(seed, size, workdir)

    def write_inputs(self) -> None:
        """Writes the model files.  This is not set-up time: on the reference
        host, creating a few hundred small files took from 15 to 200 ms,
        depending on the moment, and none of it is flipchain's work."""
        for path, obj in self.models.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)

    def run(self, caches, stats, host) -> Pass:
        p = Pass()
        p.attempted = len(self.requests)
        digests = []
        for argv in self.requests:
            _clear(caches)
            if host:
                host.maybe()
            out = io.StringIO()
            if stats:
                stats.start()
            t0 = perf_counter()
            try:
                status = cli.run(cli.parse_args(argv), out=out)
            except Exception as exc:  # counted as a failed request
                status = None
                p.fail(f"{' '.join(argv)} raised {exc!r}")
            p.op_ranges.append(p.add_segments(t0, [], perf_counter()))
            if stats:
                stats.stop(p)
            digests.append(hashlib.sha256(f"{status}\n{out.getvalue()}".encode()).digest())
            if status == 0:
                p.units += 1
            elif status is not None:
                p.exit_nonzero += 1
                p.fail(f"{' '.join(argv)} exited with {status}: {out.getvalue()[:200]}")
        p.digest = hashlib.sha256(b"".join(sorted(digests))).hexdigest()
        return p

    def finish(self, p: Pass) -> None:
        """Each output was hashed right after its request."""


WORKLOADS = {"betti_sweep": BettiSweep, "verify_all": VerifyAll, "cli_requests": CliRequests}
