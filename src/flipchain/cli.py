"""Command-line entry point tying chambers, Betti reports and stability
checks into reproducible text, JSON, CSV or LaTeX reports.

Exit codes: 0 on success, 1 when a consistency check fails (the message
names the failing invariant and its indices), 2 on invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import betti, chambers, stability
from .chambers import _REQUIRED, InvalidInput, OutOfRange, _checked, _fields

FORMATS = ("text", "json", "csv", "latex")
#: Failure lines verify-all prints before it only counts the rest.
MAX_PRINTED_FAILURES = 50


@dataclass
class RunConfig:
    command: str
    d: Optional[int] = None
    g: Optional[int] = None
    format: str = "text"
    chamber: Optional[int] = None
    model_path: Optional[str] = None
    seed: int = 0
    grid: Tuple[int, int] = (5, -15)
    models: int = 10000


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--json", dest="format", action="store_const", const="json")
    grp.add_argument("--csv", dest="format", action="store_const", const="csv")
    grp.add_argument("--latex", dest="format", action="store_const", const="latex")
    p.set_defaults(format="text")


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="flipchain",
        description="Exact wall-and-chamber structure, stability verdicts and "
        "Poincare polynomials for the rank-2 flip chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ch = sub.add_parser("chambers", help="walls, chambers and flip loci")
    p_ch.add_argument("--d", type=int, required=True, help="degree (negative)")
    p_ch.add_argument("--g", type=int, required=True, help="genus (at least 2)")
    _add_format_flags(p_ch)

    p_be = sub.add_parser("betti", help="per-chamber Poincare polynomials with dual routes")
    p_be.add_argument("--d", type=int, required=True)
    p_be.add_argument("--g", type=int, required=True)
    p_be.add_argument("--chamber", type=int, default=None, help="restrict to one chamber index")
    _add_format_flags(p_be)

    p_st = sub.add_parser("stability-check", help="verdicts for a model file at every chamber")
    p_st.add_argument("--model", dest="model_path", required=True, help="path to a model JSON file")
    _add_format_flags(p_st)

    # omitted verify-all flags take their RunConfig defaults
    p_va = sub.add_parser(
        "verify-all", help="run the full consistency grid and property suite", argument_default=argparse.SUPPRESS
    )
    p_va.add_argument("--grid", nargs=2, type=int, metavar=("G_MAX", "D_MIN"))
    p_va.add_argument("--seed", type=int)
    p_va.add_argument("--models", type=int, help="randomized models in the suite")

    ns = vars(parser.parse_args(argv))
    if "grid" in ns:
        ns["grid"] = tuple(ns["grid"])
    return RunConfig(**ns)


def _frac(x: Fraction) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# chambers reports
# ---------------------------------------------------------------------------


def _chambers_obj(cd: chambers.ChamberData) -> dict:
    flips = []
    for i in range(cd.index_lo, cd.index_hi):
        fl = chambers.flip_locus(i, cd.d, cd.g)
        flips.append(
            {
                "i": fl.i,
                "rank_minus": fl.rank_minus,
                "rank_plus": fl.rank_plus,
                "dim_p_minus": fl.dim_p_minus,
                "dim_p_plus": fl.dim_p_plus,
                "codim_minus": fl.codim_minus,
                "codim_plus": fl.codim_plus,
            }
        )
    return {
        "d": cd.d,
        "g": cd.g,
        "moduli_dim": chambers.moduli_dim(cd.d, cd.g),
        "walls": list(cd.walls),
        "chambers": [
            {
                "index": c.index,
                "fm_index": c.fm_index,
                "lower": _frac(c.lower),
                "upper": _frac(c.upper),
                "closed_upper": c.closed_upper,
                "representative": _frac(c.representative),
            }
            for c in cd.chambers
        ],
        "flip_loci": flips,
    }


def _fraction(value, path: str) -> Fraction:
    """An exact rational written as a string, as _frac writes it."""
    text = _checked(value, str, path)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f'{path}: expected a rational such as "5/2", got {text!r}') from None


#: Each JSON object's fields: key -> (kind, default); see chambers._fields.
_CHAMBERS_FIELDS = {"d": (int, _REQUIRED), "g": (int, _REQUIRED), "moduli_dim": (int, _REQUIRED),
                    "walls": (list, _REQUIRED), "chambers": (list, _REQUIRED), "flip_loci": (list, _REQUIRED)}
_CHAMBER_FIELDS = {"index": (int, _REQUIRED), "fm_index": (int, _REQUIRED), "lower": (_fraction, _REQUIRED),
                   "upper": (_fraction, _REQUIRED), "closed_upper": (bool, _REQUIRED),
                   "representative": (_fraction, _REQUIRED)}


def chambers_obj_to_data(obj) -> chambers.ChamberData:
    """Strict reader of an emitted chambers JSON report: integers that are
    not bools, real bools and bounds as strings that Fraction parses, with
    InvalidInput naming the field path (e.g. chambers[0].lower) otherwise."""
    _checked(obj, dict, "chambers report")
    top = _fields(obj, "", _CHAMBERS_FIELDS)
    walls = tuple(_checked(w, int, f"walls[{k}]") for k, w in enumerate(top["walls"]))
    chs = tuple(chambers.Chamber(**_fields(c, f"chambers[{k}]", _CHAMBER_FIELDS)) for k, c in enumerate(top["chambers"]))
    if not chs:
        raise InvalidInput("chambers: expected at least one chamber")
    return chambers.ChamberData(
        d=top["d"], g=top["g"], walls=walls, chambers=chs, index_lo=chs[0].fm_index, index_hi=chs[-1].fm_index
    )


def _emit_chambers(cd: chambers.ChamberData, fmt: str) -> str:
    obj = _chambers_obj(cd)
    if fmt == "json":
        return json.dumps(obj, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            [
                "index", "fm_index", "lower", "upper", "closed_upper", "representative",
                "rank_minus", "rank_plus", "dim_p_minus", "dim_p_plus", "codim_minus", "codim_plus",
            ]
        )
        flips = {f["i"]: f for f in obj["flip_loci"]}
        for c in obj["chambers"]:
            f = flips.get(c["fm_index"], {})
            w.writerow(
                [
                    c["index"], c["fm_index"], c["lower"], c["upper"],
                    c["closed_upper"], c["representative"],
                    f.get("rank_minus", ""), f.get("rank_plus", ""),
                    f.get("dim_p_minus", ""), f.get("dim_p_plus", ""),
                    f.get("codim_minus", ""), f.get("codim_plus", ""),
                ]
            )
        return buf.getvalue().rstrip("\n")
    if fmt == "latex":
        lines = [r"\begin{tabular}{rrllr}"]
        lines.append(r"$j$ & $i$ & interval & rep. \\ \hline")
        for c in obj["chambers"]:
            right = "]" if c["closed_upper"] else ")"
            lines.append(
                f"{c['index']} & {c['fm_index']} & $({c['lower']}, {c['upper']}{right}$ & ${c['representative']}$ \\\\"
            )
        lines.append(r"\end{tabular}")
        lines.append(r"\begin{tabular}{rrrrrrr}")
        lines.append(r"$i$ & rk$W^-$ & rk$W^+$ & $\dim\mathbb{P}W^-$ & $\dim\mathbb{P}W^+$ & codim$^-$ & codim$^+$ \\ \hline")
        for f in obj["flip_loci"]:
            lines.append(
                f"{f['i']} & {f['rank_minus']} & {f['rank_plus']} & {f['dim_p_minus']} & "
                f"{f['dim_p_plus']} & {f['codim_minus']} & {f['codim_plus']} \\\\"
            )
        lines.append(r"\end{tabular}")
        return "\n".join(lines)
    lines = [f"d = {obj['d']}, g = {obj['g']}, moduli dimension = {obj['moduli_dim']}"]
    lines.append("walls: " + (", ".join(str(w) for w in obj["walls"]) or "(none)"))
    for c in obj["chambers"]:
        right = "]" if c["closed_upper"] else ")"
        lines.append(
            f"chamber {c['index']} (i = {c['fm_index']}): ({c['lower']}, {c['upper']}{right}"
            f"  representative {c['representative']}"
        )
    for f in obj["flip_loci"]:
        lines.append(
            f"flip at i = {f['i']}: rank W- = {f['rank_minus']}, rank W+ = {f['rank_plus']}, "
            f"dim PW- = {f['dim_p_minus']}, dim PW+ = {f['dim_p_plus']}, "
            f"codim- = {f['codim_minus']}, codim+ = {f['codim_plus']}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# betti reports
# ---------------------------------------------------------------------------


def _emit_betti(report: betti.BettiReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(betti.report_to_json_obj(report), indent=2)
    dim2 = 2 * report.moduli_dim
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            ["d", "g", "i", "degree", "agree", "palindromic", "nonneg"]
            + [f"b{k}" for k in range(dim2 + 1)]
        )
        for ch in report.chambers:
            w.writerow(
                [report.d, report.g, ch.i, ch.degree, ch.agree, ch.palindromic, ch.nonneg]
                + [ch.p_recursive.coeff(k) for k in range(dim2 + 1)]
            )
        return buf.getvalue().rstrip("\n")
    if fmt == "latex":
        cols = "rr" + "r" * (dim2 + 1)
        lines = [rf"\begin{{tabular}}{{{cols}}}"]
        header = ["$i$", "deg"] + [f"$b_{{{k}}}$" for k in range(dim2 + 1)]
        lines.append(" & ".join(header) + r" \\ \hline")
        for ch in report.chambers:
            row = [str(ch.i), str(ch.degree)] + [str(ch.p_recursive.coeff(k)) for k in range(dim2 + 1)]
            lines.append(" & ".join(row) + r" \\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines)
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


def _stability_obj(m: stability.FramedModel) -> dict:
    d = m.typ.degree
    g = m.ctx.genus
    cd = chambers.build_chambers(d, g)
    sigma_points: List[Tuple[str, Fraction]] = [("wall", Fraction(w)) for w in cd.walls]
    sigma_points += [("chamber", rep) for rep in cd.representatives]
    sigma_points.sort(key=lambda kv: kv[1])

    entries = []
    for kind, sigma in sigma_points:
        entry: dict = {
            "sigma": _frac(sigma),
            "kind": kind,
            "fm_semistable": stability.is_fm_semistable(m, sigma),
            "fm_stable": stability.is_fm_stable(m, sigma),
            "pair_semistable": stability.is_pair_semistable(m, sigma),
            "pair_stable": stability.is_pair_stable(m, sigma),
        }
        try:
            hn = stability.hn_filtration(m, sigma)
            entry["hn"] = {
                "steps": list(hn.steps),
                "graded": [list(p) for p in hn.graded],
                "slopes": [_frac(s) for s in hn.graded_slopes(sigma)],
            }
        except stability.AmbiguousModel as exc:
            entry["hn"] = {"error": str(exc)}
        if m.typ.rank == 2:
            try:
                rep = stability.verify_rank2_equivalences(m, sigma)
                entry["equivalences"] = {
                    "ok": rep.ok,
                    "mismatches": [list(x) for x in rep.mismatches],
                }
            except stability.AxiomViolated as exc:
                entry["equivalences"] = {"axiom_violated": str(exc)}
            except stability.AmbiguousModel as exc:
                entry["equivalences"] = {"ambiguous": str(exc)}
        entries.append(entry)

    obj = {
        "d": d,
        "g": g,
        "rank": m.typ.rank,
        "sigma_upper_bound": None,
        "final_chamber_stable": None,
        "sigma_max": None if (s := stability.sigma_max(m)) is None else _frac(s),
        "oriented": {
            "module_semistable": stability.is_oriented_semistable(m, pair=False),
            "module_stable": stability.is_oriented_stable(m, pair=False),
            "pair_semistable": stability.is_oriented_semistable(m, pair=True),
            "pair_stable": stability.is_oriented_stable(m, pair=True),
        },
        "verdicts": entries,
    }
    if m.typ.framing_nonzero:
        bound = stability.sigma_upper_bound(m)
        obj["sigma_upper_bound"] = None if bound is None else _frac(bound)
        obj["final_chamber_stable"] = stability.final_chamber_stable(m)
    return obj


def _emit_stability(obj: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(obj, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["sigma", "kind", "fm_semistable", "fm_stable", "pair_semistable", "pair_stable"])
        for e in obj["verdicts"]:
            w.writerow(
                [e["sigma"], e["kind"], e["fm_semistable"], e["fm_stable"], e["pair_semistable"], e["pair_stable"]]
            )
        return buf.getvalue().rstrip("\n")
    if fmt == "latex":
        lines = [r"\begin{tabular}{llcccc}"]
        lines.append(r"$\sigma$ & kind & fm-ss & fm-s & pair-ss & pair-s \\ \hline")
        for e in obj["verdicts"]:
            lines.append(
                f"${e['sigma']}$ & {e['kind']} & {e['fm_semistable']} & {e['fm_stable']} & "
                f"{e['pair_semistable']} & {e['pair_stable']} \\\\"
            )
        lines.append(r"\end{tabular}")
        return "\n".join(lines)
    lines = [f"model: rank {obj['rank']}, d = {obj['d']}, g = {obj['g']}"]
    lines.append(f"sigma upper bound: {obj['sigma_upper_bound']}")
    lines.append(f"final chamber stable: {obj['final_chamber_stable']}")
    lines.append(f"canonical parameter: {obj['sigma_max']}")
    o = obj["oriented"]
    lines.append(
        "oriented: module ss={module_semistable} s={module_stable}, "
        "pair ss={pair_semistable} s={pair_stable}".format(**o)
    )
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
    except (betti.NotDivisible, betti.NegativeExponentSurvived) as exc:
        return [f"betti report failed at (d={d}, g={g}): {exc}"]
    return list(report.failures()) + chambers.structure_failures(d, g)


def run_verify_all(g_max: int, d_min: int, seed: int, n_models: int, out) -> int:
    t0 = time.monotonic()
    cells = [(g, d) for g in range(2, g_max + 1) for d in range(d_min, 0)]
    failures = [f for g, d in cells for f in _verify_cell(g, d)]
    print(f"grid: {len(cells)} cells checked, {len(failures)} failures", file=out)

    for d in range(-20, 0):
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
            with open(config.model_path, "r", encoding="utf-8") as fh:
                model = stability.model_from_json_obj(json.load(fh))
            if model.typ.degree >= 0:
                print("error: model degree must be negative for chamber scans", file=out)
                return 2
            print(_emit_stability(_stability_obj(model), config.format), file=out)
            return 0
        if config.command == "verify-all":
            g_max, d_min = config.grid
            return run_verify_all(g_max, d_min, config.seed, config.models, out)
        raise AssertionError(f"unknown command {config.command}")
    except (InvalidInput, OutOfRange, betti.PreconditionFailed) as exc:
        print(f"error: invalid input: {exc}", file=out)
        return 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    except (betti.NegativeExponentSurvived, betti.NotDivisible) as exc:
        print(f"error: consistency failure: {exc}", file=out)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
