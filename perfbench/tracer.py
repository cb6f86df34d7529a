"""Timing spans around calls into flipchain, installed from outside it.

`Tracer.install` replaces the library's functions, in every module that
holds a reference to them, and a few hot class methods with wrappers that
record a span (name, start, end, parent) in flat arrays.  `uninstall` puts the
originals back.  A span's self time is its duration minus the durations of its
direct children; the self times of all spans plus the time no span covers add
up to the traced wall time.
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("exactpoly", "chambers", "betti", "stability", "cli")

#: Private functions traced besides every public function of the layers.
PRIVATE = ("stability._max_destabilizer", "cli._verify_cell")

#: Class methods traced.  `__rmul__` is the same function as `__mul__`.
METHODS = {
    "exactpoly.LaurentPoly": ("__mul__", "__rmul__", "__pow__"),
    "exactpoly.TruncatedBiSeries": ("__mul__", "__rmul__"),
}

#: Metric group of each traced function; the rest count only towards their
#: layer's self time.
GROUPS = {
    "exactpoly.LaurentPoly.__mul__": "exactpoly.laurent_mul",
    "exactpoly.TruncatedBiSeries.__mul__": "exactpoly.series_mul",
    "exactpoly.lp_div_exact": "exactpoly.div_exact",
    "exactpoly.LaurentPoly.__pow__": "exactpoly.pow",
    "betti.fm_poincare_closed": "betti.closed",
    "betti.fm_poincare_recursive": "betti.recursive",
    "betti.flip_difference": "betti.flip_difference",
    "betti.sym_product_poincare": "betti.sym_product",
    "betti.terminal_poincare": "betti.aux",
    "betti.u2d_poincare": "betti.aux",
    "betti.u2d_from_bundle": "betti.aux",
    "betti.mcon_poincare": "betti.aux",
    "betti.blowup_delta": "betti.aux",
    "betti.blowup_consistency": "betti.aux",
    "betti.build_betti_report": "betti.report",
    "chambers.build_chambers": "chambers.build",
    "chambers.flip_locus": "chambers.flip_locus",
    "stability.is_fm_semistable": "stability.slope_checks",
    "stability.is_fm_stable": "stability.slope_checks",
    "stability.is_pair_semistable": "stability.slope_checks",
    "stability.is_pair_stable": "stability.slope_checks",
    "stability.reduced_framed_slope": "stability.slope",
    "stability._max_destabilizer": "stability.destabilizer",
    "stability.hn_filtration": "stability.hn",
    "stability.verify_rank2_equivalences": "stability.equivalences",
    "stability.is_oriented_semistable": "stability.oriented",
    "stability.is_oriented_stable": "stability.oriented",
    "stability.oriented_split_case": "stability.oriented",
    "stability.sigma_upper_bound": "stability.bounds",
    "stability.sigma_max": "stability.bounds",
    "stability.final_chamber_stable": "stability.bounds",
    "stability.rank2_threshold_holds": "stability.bounds",
    "stability.close_constraints": "stability.close_constraints",
    "stability.random_rank2_model": "stability.model_gen",
    "stability.random_chain_model": "stability.model_gen",
    "cli.parse_args": "cli.parse_args",
    "cli._verify_cell": "cli.verify_cell",
}

#: Span of the benchmark's own work done inside a traced call: counting the
#: operands' terms before a series product.
COUNT_SPAN = "bench.term_products"

def qualified_name(obj) -> str:
    """`<module>.<qualname>` without the package prefix, e.g. `betti.flip_difference`."""
    return f"{obj.__module__.removeprefix('flipchain.')}.{obj.__qualname__}"


def flipchain_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items()) if name == "flipchain" or name.startswith("flipchain.")]


def _is_library_function(obj) -> bool:
    """A plain function or an `lru_cache` wrapper defined in flipchain."""
    return (
        isinstance(obj, types.FunctionType) or callable(getattr(obj, "cache_clear", None))
    ) and getattr(obj, "__module__", "").startswith("flipchain.")


def discover_caches() -> list:
    """Every module-level flipchain callable with `cache_clear`, found by
    looking, so that a cache added later is cleared too."""
    found = {}
    for mod in flipchain_modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and _is_library_function(obj):
                found[id(obj)] = obj
    return sorted(found.values(), key=qualified_name)


def _term_products(a, b) -> int:
    """Coefficient products the convolution of two truncated series performs:
    the sum over k of |terms(a_i)| * |terms(b_(k-i))| for i <= k <= order."""
    n = a.order
    la = [len(a.coeff_x(k).sorted_items()) for k in range(n + 1)]
    running, prefix = 0, []
    for k in range(n + 1):
        running += len(b.coeff_x(k).sorted_items())
        prefix.append(running)
    return sum(la[i] * prefix[n - i] for i in range(n + 1))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            i = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {m.__name__.removeprefix("flipchain."): m for m in flipchain_modules()}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            for attr, obj in list(vars(modules[layer]).items()):
                name = f"{layer}.{attr}"
                if _is_library_function(obj) and qualified_name(obj) == name:
                    if not attr.startswith("_") or name in PRIVATE:
                        wrappers[id(obj)] = self._special(name, self.wrap(obj, name))
        # every module-level reference, aliases such as betti.lp_div_exact included
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for owner, attrs in METHODS.items():
            layer, cls_name = owner.split(".")
            cls = getattr(modules[layer], cls_name)
            done: dict[int, object] = {}
            for attr in attrs:
                fn = vars(cls)[attr]
                if id(fn) not in done:
                    name = f"{owner}.{fn.__name__}"
                    done[id(fn)] = self._special(name, self.wrap(fn, name))
                self._patch(cls, attr, done[id(fn)])

    def _special(self, name: str, traced):
        """Wrappers that also read their operands or result."""
        if name == "exactpoly.TruncatedBiSeries.__mul__":
            count = self.wrap(_term_products, COUNT_SPAN)
            series_type = sys.modules["flipchain.exactpoly"].TruncatedBiSeries

            def counted(a, b):
                if isinstance(b, series_type) and b.order == a.order:
                    self.counters["exactpoly.series_mul.term_products"] += count(a, b)
                return traced(a, b)

            return counted
        if name == "stability.run_stability_suite":

            def captured(*args, **kwargs):
                res = traced(*args, **kwargs)
                self.counters["stability.suite.checks"] += res.checks
                self.counters["stability.suite.ambiguous_skips"] += res.ambiguous_skips
                return res

            return captured
        return traced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summarizing --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summarize(self, names: list[str], wall_s: float) -> dict:
        """This pass's value of every `<group>.calls` and `<group>.self_s`
        among `names`, where a group is a layer or a GROUPS value, and of the
        counters; cache statistics are the caller's."""
        own = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        covered = 0.0
        retry_id = self._ids.get("stability.random_chain_model")
        retries = 0
        for i, nid in enumerate(self.kind):
            name = self.names[nid]
            group = GROUPS.get(name, name.split(".")[0] + ".other")
            calls[group] += 1
            self_s[group] += own[i]
            self_s[name.split(".")[0]] += own[i]
            p = self.parent[i]
            if p < 0:
                covered += self.end[i] - self.start[i]
            elif nid == retry_id and self.kind[p] == retry_id:
                retries += 1
        m: dict[str, float] = {}
        for name in names:
            group, _, stat = name.rpartition(".")
            if stat == "calls":
                m[name] = calls[group]
            elif stat == "self_s":
                m[name] = self_s[group]  # a layer's total or one group's
        m["exactpoly.series_mul.term_products"] = self.counters["exactpoly.series_mul.term_products"]
        checks = self.counters["stability.suite.checks"]
        skips = self.counters["stability.suite.ambiguous_skips"]
        m["stability.suite.checks"] = checks
        m["stability.suite.ambiguous_skips"] = skips
        m["stability.suite.useful_ratio"] = checks / (checks + skips) if checks + skips else 0.0
        m["stability.model_gen.retries"] = retries
        m["trace.wall_s"] = wall_s
        m["trace.bench_s"] = (wall_s - covered) + self_s["bench"]
        m["trace.spans"] = len(self.kind)
        return m

    def write(self, path: str) -> None:
        """A JSON header line with the span names and count, then the kind,
        parent, start and end arrays in native byte order."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.kind)}).encode() + b"\n")
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path: str) -> dict:
    """Read a file written by `Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        out = {"names": header["names"]}
        for key, code in (("kind", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
            arr = array(code)
            arr.fromfile(fh, n)
            out[key] = arr
    return out
