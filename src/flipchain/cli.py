"""Command-line entry point tying chambers, Betti reports and stability
checks into reproducible text, JSON, CSV or LaTeX reports.

Exit codes: 0 on success, 1 when a consistency check fails (the message
names the failing invariant and its indices) or a printed stability-check
equivalence entry is not ok, 2 on invalid input, 141
(128 + SIGPIPE) when the reader of stdout closes it early, as `| head -1`
does; nothing is written to stderr then.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import betti, chambers, stability
from .chambers import InvalidInput, _checked, _json_text, _require_equal, _require_genus
from .exactpoly import ConsistencyFailure

#: Failure lines verify-all prints before it only counts the rest.
MAX_PRINTED_FAILURES = 50


class RunConfig(NamedTuple):
    command: str
    d: Optional[int] = None
    g: Optional[int] = None
    format: str = "text"
    chamber: Optional[int] = None
    model_path: Optional[str] = None
    seed: int = 0
    grid: Tuple[int, int] = (5, -15)
    models: int = 10000


class _Flag(NamedTuple):
    """One subcommand flag: nargs ints (one when nargs is None), or a path
    when type is str."""

    flag: str
    dest: str
    nargs: Optional[int] = None
    metavar: Optional[Tuple[str, ...]] = None
    help: Optional[str] = None
    required: bool = False
    type: type = int


#: Each subcommand, in help order: its help line, whether it takes one of
#: the format flags (--json, --csv, --latex), and its other flags.  Omitted
#: flags take their RunConfig defaults.
_SUBCOMMANDS = {
    "chambers": ("walls, chambers and flip loci", True, (
        _Flag("--d", "d", help="degree (negative)", required=True),
        _Flag("--g", "g", help="genus (at least 2)", required=True),
    )),
    "betti": ("per-chamber Poincare polynomials with dual routes", True, (
        _Flag("--d", "d", required=True),
        _Flag("--g", "g", required=True),
        _Flag("--chamber", "chamber", help="restrict to one chamber index"),
    )),
    "stability-check": ("verdicts for a model file at every chamber", True, (
        _Flag("--model", "model_path", help="path to a model JSON file", required=True, type=str),
    )),
    "verify-all": ("run the full consistency grid and property suite", False, (
        _Flag("--grid", "grid", nargs=2, metavar=("G_MAX", "D_MIN")),
        _Flag("--seed", "seed"),
        _Flag("--models", "models", help="randomized models in the suite"),
    )),
}
_FORMATS = ("json", "csv", "latex")
#: The values the direct reader takes: an int is ASCII digits with an
#: optional minus, and a path is not empty and does not start with "-".
_PLAIN_VALUE = {int: re.compile(r"-?[0-9]+"), str: re.compile(r"[^-].*", re.S)}


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Parse a command line.  A plain one is read directly; argparse reads
    every other, such as help or an error, and writes its message."""
    argv = sys.argv[1:] if argv is None else list(argv)
    config = _read_plain(argv)
    return config if config is not None else _parse_with_argparse(argv)


def _read_plain(argv: List[str]) -> Optional[RunConfig]:
    """The config of a subcommand followed by its flags, each at most once
    with values in _PLAIN_VALUE, and at most one format flag; None for any
    other line.  Argparse reads an accepted line the same way."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, formats, flags = _SUBCOMMANDS[argv[0]]
    by_flag = {f.flag: f for f in flags}
    values = {}
    i = 1
    while i < len(argv):
        token = argv[i]
        if formats and token.startswith("--") and token[2:] in _FORMATS:
            if "format" in values:
                return None
            values["format"] = token[2:]
            i += 1
            continue
        f = by_flag.get(token)
        if f is None or f.dest in values:
            return None
        n = f.nargs or 1
        args = argv[i + 1 : i + 1 + n]
        if len(args) < n or not all(_PLAIN_VALUE[f.type].fullmatch(a) for a in args):
            return None
        try:
            parsed = [f.type(a) for a in args]
        except ValueError:  # an int past the interpreter's digit limit; argparse words the error
            return None
        values[f.dest] = tuple(parsed) if f.nargs else parsed[0]
        i += 1 + n
    if any(f.required and f.dest not in values for f in flags):
        return None
    return RunConfig(argv[0], **values)


def _parse_with_argparse(argv: List[str]) -> RunConfig:
    """Parse with argparse, built from _SUBCOMMANDS."""
    parser = argparse.ArgumentParser(
        prog="flipchain",
        description="Exact wall-and-chamber structure, stability verdicts and "
        "Poincare polynomials for the rank-2 flip chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, formats, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line, argument_default=argparse.SUPPRESS)
        for f in flags:
            p.add_argument(f.flag, dest=f.dest, type=f.type, nargs=f.nargs, metavar=f.metavar,
                           help=f.help, required=f.required)
        if formats:
            grp = p.add_mutually_exclusive_group()
            for fmt in _FORMATS:
                grp.add_argument("--" + fmt, dest="format", action="store_const", const=fmt)
    ns = vars(parser.parse_args(argv))
    if "grid" in ns:
        ns["grid"] = tuple(ns["grid"])
    return RunConfig(**ns)


def _csv(header: Sequence[str], rows) -> str:
    """Comma-joined rows: no report field holds a comma, a quote or a line break."""
    return "\n".join(",".join(map(str, row)) for row in (header, *rows))


def _tabular(spec: str, header: Sequence[str], rows) -> str:
    lines = [rf"\begin{{tabular}}{{{spec}}}", " & ".join(header) + r" \\ \hline"]
    lines += [" & ".join(map(str, row)) + r" \\" for row in rows]
    lines.append(r"\end{tabular}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# chambers reports
# ---------------------------------------------------------------------------


def chambers_obj_to_data(obj) -> chambers.ChamberData:
    """Strict reader of an emitted chambers JSON report: the report must be
    exactly what chambers --json writes for its own integer d and g, with
    InvalidInput naming the deepest field path that differs (e.g.
    chambers[0].lower) otherwise."""
    _checked(obj, dict, "chambers report")
    d, g = (_checked(obj.get(key), int, key) for key in ("d", "g"))
    cd = chambers.build_chambers(d, g)
    _require_equal(obj, json.loads(_json_text(cd)), "", f"for d={d}, g={g}")
    return cd


def _interval(c: chambers.Chamber) -> str:
    return f"({c.lower}, {c.upper}{']' if c.closed_upper else ')'}"


def _emit_chambers(cd: chambers.ChamberData, fmt: str) -> str:
    if fmt == "json":
        return _json_text(cd)
    flip_rows = [list(f) for f in cd.flip_loci]
    if fmt == "csv":  # a flip's i is its chamber's fm_index
        flip_keys = chambers.FlipLocusData._fields
        no_flip = [""] * len(flip_keys)  # no wall above the last chamber
        rows = [list(c) + f[1:] for c, f in zip(cd.chambers, flip_rows + [no_flip])]
        return _csv(chambers.Chamber._fields + flip_keys[1:], rows)
    if fmt == "latex":
        chamber_rows = [(c.index, c.fm_index, f"${_interval(c)}$", f"${c.representative}$") for c in cd.chambers]
        flip_header = ("$i$", "rk$W^-$", "rk$W^+$", r"$\dim\mathbb{P}W^-$", r"$\dim\mathbb{P}W^+$",
                       "codim$^-$", "codim$^+$")
        return "\n".join([_tabular("rrllr", ("$j$", "$i$", "interval", "rep."), chamber_rows),
                          _tabular("rrrrrrr", flip_header, flip_rows)])
    lines = [f"d = {cd.d}, g = {cd.g}, moduli dimension = {cd.moduli_dim}"]
    lines.append("walls: " + (", ".join(str(w) for w in cd.walls) or "(none)"))
    for c in cd.chambers:
        lines.append(f"chamber {c.index} (i = {c.fm_index}): {_interval(c)}  representative {c.representative}")
    for f in cd.flip_loci:
        lines.append(
            f"flip at i = {f.i}: rank W- = {f.rank_minus}, rank W+ = {f.rank_plus}, "
            f"dim PW- = {f.dim_p_minus}, dim PW+ = {f.dim_p_plus}, "
            f"codim- = {f.codim_minus}, codim+ = {f.codim_plus}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# betti reports
# ---------------------------------------------------------------------------


def _emit_betti(report: betti.BettiReport, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report)
    degrees = range(2 * report.moduli_dim + 1)
    if fmt == "csv":
        return _csv(
            ["d", "g", "i", "degree", "agree", "palindromic", "nonneg"] + [f"b{k}" for k in degrees],
            (
                [report.d, report.g, ch.i, ch.degree, ch.agree, ch.palindromic, ch.nonneg]
                + [ch.p_recursive.coeff(k) for k in degrees]
                for ch in report.chambers
            ),
        )
    if fmt == "latex":
        return _tabular(
            "rr" + "r" * len(degrees),
            ["$i$", "deg"] + [f"$b_{{{k}}}$" for k in degrees],
            ([ch.i, ch.degree] + [ch.p_recursive.coeff(k) for k in degrees] for ch in report.chambers),
        )
    lines = [f"d = {report.d}, g = {report.g}, moduli dimension = {report.moduli_dim}"]
    for ch in report.chambers:
        lines.append(
            f"chamber i = {ch.i}: degree {ch.degree}, agree={ch.agree}, "
            f"palindromic={ch.palindromic}, nonneg={ch.nonneg}"
        )
        lines.append(f"  P_t = {ch.p_recursive}")
    lines.append(f"terminal chamber: {report.terminal}")
    lines.append(f"bundle moduli (odd degree): {report.u2d.closed}")
    if report.u2d.via_bundle is not None:
        lines.append(f"  via lowest chamber: agree={report.u2d.agree}")
    lines.append(f"constrained moduli: {report.mcon}")
    if report.blowup_check is not None:
        lines.append(f"terminal blow-up identity: {report.blowup_check}")
        if report.blowup_check is False:
            lines.append(f"  difference: {betti.blowup_delta(report.d, report.g)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# stability-check report
# ---------------------------------------------------------------------------


_VERDICT_COLUMNS = ("sigma", "kind", *stability.VERDICT_KEYS)


def _emit_stability(obj: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_text(obj)
    if fmt == "csv":
        return _csv(_VERDICT_COLUMNS, ([e[key] for key in _VERDICT_COLUMNS] for e in obj["verdicts"]))
    if fmt == "latex":
        return _tabular(
            "llcccc",
            (r"$\sigma$", "kind", "fm-ss", "fm-s", "pair-ss", "pair-s"),
            ([f"${e['sigma']}$"] + [e[key] for key in _VERDICT_COLUMNS[1:]] for e in obj["verdicts"]),
        )
    lines = [f"model: rank {obj['rank']}, d = {obj['d']}, g = {obj['g']}"]
    lines.append(f"sigma upper bound: {obj['sigma_upper_bound']}")
    lines.append(f"final chamber stable: {obj['final_chamber_stable']}")
    lines.append(f"canonical parameter: {obj['sigma_max']}")
    lines.append("oriented: module ss={module_semistable} s={module_stable}, "
                 "pair ss={pair_semistable} s={pair_stable}".format(**obj["oriented"]))
    for e in obj["verdicts"]:
        lines.append(
            f"sigma = {e['sigma']} ({e['kind']}): fm ss={e['fm_semistable']} s={e['fm_stable']}, "
            f"pair ss={e['pair_semistable']} s={e['pair_stable']}"
        )
        if "steps" in e.get("hn", {}):
            lines.append(f"  hn steps {e['hn']['steps']} graded {e['hn']['graded']} slopes {e['hn']['slopes']}")
        else:
            lines.append(f"  hn: {e['hn'].get('error')}")
        if "equivalences" in e:
            lines.append(f"  equivalences: {e['equivalences']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def _verify_cell(g: int, d: int) -> List[str]:
    try:
        report = betti.build_betti_report(d, g)
    except ConsistencyFailure as exc:
        return [f"betti report failed at (d={d}, g={g}): {exc}"]
    return list(report.failures()) + chambers.structure_failures(d, g)


def run_verify_all(g_max: int, d_min: int, seed: int, n_models: int, out) -> int:
    _require_genus(g_max, "grid")  # a grid that checks no cell is bad input
    chambers.fm_index_range(d_min, "grid")
    stability.require_suite_args(seed, n_models)
    t0 = time.monotonic()
    failures = []
    for g in range(2, g_max + 1):
        failures += [f for d in range(d_min, 0) for f in _verify_cell(g, d)]
        betti._closed_table.cache_clear()  # both hold lists of genus g alone, which no later cell reads
        betti._divided_shared_factor.cache_clear()
    print(f"grid: {(g_max - 1) * -d_min} cells checked, {len(failures)} failures", file=out)

    for d in range(-20, d_min):  # the grid checked g = 2 for d >= d_min
        failures.extend(chambers.structure_failures(d, 2))
    print("wall endpoints: d in [-20, -1] checked", file=out)

    suite = stability.run_stability_suite(seed=seed, n_models=n_models)
    print(
        f"stability suite: {suite.models} models, {suite.checks} checks, "
        f"{suite.ambiguous_skips} ambiguous ties skipped, {len(suite.failures)} failures",
        file=out,
    )
    failures.extend(suite.failures)

    for line in failures[:MAX_PRINTED_FAILURES]:
        print(f"FAIL {line}", file=out)
    if len(failures) > MAX_PRINTED_FAILURES:
        print(f"... and {len(failures) - MAX_PRINTED_FAILURES} more failures", file=out)
    print(f"verify-all: {'FAIL' if failures else 'OK'}", file=out)
    print(f"elapsed: {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object as a dict, where json.load would keep the last of two
    equal keys without a word."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # a key came twice: name the first one repeated
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def run(config: RunConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        if config.command == "chambers":
            cd = chambers.build_chambers(config.d, config.g)
            print(_emit_chambers(cd, config.format), file=out)
            return 0
        if config.command == "betti":
            report = betti.build_betti_report(config.d, config.g, only_chamber=config.chamber)
            print(_emit_betti(report, config.format), file=out)
            return 0 if report.ok else 1
        if config.command == "stability-check":
            try:
                with open(config.model_path, "r", encoding="utf-8") as fh:
                    obj = json.load(fh, object_pairs_hook=_unique_keys)
            # ValueError: not UTF-8, not JSON or a repeated key; RecursionError: nested too deep
            except (OSError, ValueError, RecursionError) as exc:
                print(f"error: {exc}", file=out)
                return 2
            report = stability.report_obj(stability.model_from_json_obj(obj))
            print(_emit_stability(report, config.format), file=out)
            return 1 if any(e.get("equivalences", {}).get("ok") is False for e in report["verdicts"]) else 0
        if config.command == "verify-all":
            g_max, d_min = config.grid
            return run_verify_all(g_max, d_min, config.seed, config.models, out)
        raise AssertionError(f"unknown command {config.command}")
    except InvalidInput as exc:
        print(f"error: invalid input: {exc}", file=out)
        return 2
    except ConsistencyFailure as exc:
        print(f"error: consistency failure: {exc}", file=out)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        status = run(parse_args(argv))
        sys.stdout.flush()  # a reader that closed stdout early (| head) makes this raise here
        return status
    except BrokenPipeError:  # exit as SIGPIPE would; devnull takes the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
