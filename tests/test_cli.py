"""CLI surface: formats, exit codes, JSON round trips and determinism."""

import ast
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flipchain
from flipchain import betti, chambers, cli, stability
from flipchain.chambers import InvalidInput, _json_text
from flipchain.exactpoly import ConsistencyFailure, LaurentPoly, NotDivisible
from flipchain.cli import (
    _SUBCOMMANDS,
    RunConfig,
    _parse_with_argparse,
    _read_plain,
    chambers_obj_to_data,
    main,
    parse_args,
    run,
)
from flipchain.stability import model_from_json_obj, model_to_json_obj, random_chain_model, random_rank2_model
import random
from test_check_digests import load_script


def capture(argv):
    cfg = parse_args(argv)
    out = io.StringIO()
    status = run(cfg, out=out)
    return status, out.getvalue()


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def readme_model() -> dict:
    """The model file shown in the README."""
    with open(README, encoding="utf-8") as fh:
        return json.loads(re.search(r"```json\n(.*?)```", fh.read(), re.S).group(1))


def test_parse_defaults():
    cfg = parse_args(["chambers", "--d", "-5", "--g", "2"])
    assert cfg.command == "chambers" and cfg.format == "text"
    cfg = parse_args(["betti", "--d", "-5", "--g", "2", "--json"])
    assert cfg.format == "json"
    cfg = parse_args(["verify-all", "--grid", "3", "-6", "--seed", "9", "--models", "10"])
    assert cfg.grid == (3, -6) and cfg.seed == 9 and cfg.models == 10
    # lines the direct reader hands on to argparse
    for argv, config in [
        (["chambers", "--d=-5", "--g", "2"], RunConfig("chambers", d=-5, g=2)),
        (["betti", "--d", "-5", "--g", "2", "--cham", "3"], RunConfig("betti", d=-5, g=2, chamber=3)),
        (["chambers", "--d", "-5", "--d", "-6", "--g", "2"], RunConfig("chambers", d=-6, g=2)),  # the last wins
    ]:
        assert _read_plain(argv) is None
        assert parse_args(argv) == config


def test_chambers_text_output():
    status, text = capture(["chambers", "--d", "-5", "--g", "2"])
    assert status == 0
    assert "walls: 1, 3" in text
    assert "(3, 5]" in text


def test_chambers_json_round_trip():
    status, text = capture(["chambers", "--d", "-6", "--g", "3"])
    assert status == 0
    status, text = capture(["chambers", "--d", "-6", "--g", "3", "--json"])
    assert status == 0
    obj = json.loads(text)
    cd = chambers_obj_to_data(obj)
    assert cd == chambers.build_chambers(-6, 3)


def test_chambers_invalid_input_exit_code():
    status, text = capture(["chambers", "--d", "5", "--g", "2"])
    assert status == 2
    assert "invalid input" in text


def test_betti_json_round_trip():
    status, text = capture(["betti", "--d", "-5", "--g", "2", "--json"])
    assert status == 0
    report = betti.report_from_json_obj(json.loads(text))
    assert report == betti.build_betti_report(-5, 2)
    assert report.ok


def test_betti_csv_and_latex():
    status, text = capture(["betti", "--d", "-5", "--g", "2", "--csv"])
    assert status == 0
    header = text.splitlines()[0].split(",")
    assert header[:4] == ["d", "g", "i", "degree"] and header[-1] == "b14"
    status, text = capture(["betti", "--d", "-5", "--g", "2", "--latex"])
    assert status == 0
    assert text.startswith(r"\begin{tabular}") and text.rstrip().endswith(r"\end{tabular}")


def test_betti_single_chamber_flag():
    status, text = capture(["betti", "--d", "-5", "--g", "2", "--chamber", "3", "--json"])
    assert status == 0
    obj = json.loads(text)
    assert [c["i"] for c in obj["chambers"]] == [3]


def test_betti_chamber_outside_the_window_is_invalid_input():
    status, text = capture(["betti", "--d", "-5", "--g", "2", "--chamber", "9"])
    assert status == 2
    assert text.startswith("error: invalid input: chamber: ")


@pytest.mark.parametrize("argv", [["betti", "--d", "-5", "--g", "0"], ["betti", "--d", "-5", "--g", "-1"]])
def test_betti_rejects_a_small_genus_as_invalid_input(argv):
    status, text = capture(argv)
    assert status == 2
    assert text.startswith("error: invalid input: g: genus must be at least 2")


def test_stability_check_file(tmp_path):
    rng = random.Random(21)
    m = random_rank2_model(rng)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json_obj(m)))
    status, text = capture(["stability-check", "--model", str(path), "--json"])
    assert status == 0
    obj = json.loads(text)
    assert obj["d"] == m.typ.degree
    assert len(obj["verdicts"]) >= 1
    for e in obj["verdicts"]:
        assert set(e) >= {"sigma", "kind", "fm_semistable", "fm_stable"}


def test_stability_check_missing_file():
    status, text = capture(["stability-check", "--model", "/nonexistent/x.json"])
    assert status == 2


def test_stability_check_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    status, _ = capture(["stability-check", "--model", str(path)])
    assert status == 2
    path.write_bytes(b"\xff\xfe")  # not UTF-8
    status, _ = capture(["stability-check", "--model", str(path)])
    assert status == 2
    path.write_text(json.dumps(base_model()).replace('"genus": 2', '"genus": ' + "2" * 5000))
    status, text = capture(["stability-check", "--model", str(path)])  # past the int digit limit
    assert status == 2 and text.startswith("error: Exceeds the limit"), text
    status, text = capture(["stability-check", "--model", "model\0.json"])
    assert (status, text) == (2, "error: embedded null byte\n")
    path.write_text("[" * 100000 + "]" * 100000)  # nested past the decoder's recursion limit
    status, text = capture(["stability-check", "--model", str(path)])
    assert status == 2 and text.startswith("error: maximum recursion depth exceeded"), text


def test_stability_check_reads_a_long_containment_chain(tmp_path):
    n = 1100  # past the interpreter's default recursion limit
    subs = [{"id": f"C{i}", "rank": 1, "degree": i - 2 * n, "fr": True, "parents": [f"C{i + 1}"] if i + 1 < n else []}
            for i in range(n)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"genus": 2, "type": {"rank": 2, "degree": -3, "framing_nonzero": True}, "subs": subs}))
    status, text = capture(["stability-check", "--model", str(path), "--json"])
    assert status == 0, text[:200]
    assert json.loads(text)["rank"] == 2



def test_verify_all_small_and_deterministic():
    argv = ["verify-all", "--grid", "2", "-4", "--seed", "7", "--models", "40"]
    status1, text1 = capture(argv)
    status2, text2 = capture(argv)
    assert status1 == status2 == 0
    # same config and seed produce byte-identical reports
    assert text1 == text2
    assert "0 failures" in text1
    assert text1.rstrip().endswith("verify-all: OK")


def test_main_returns_status():
    assert main(["chambers", "--d", "-3", "--g", "2"]) == 0


# betti's 18 kB report fails inside print, the short chambers report at the final flush
@pytest.mark.parametrize("argv", [["betti", "--d", "-30", "--g", "5"], ["chambers", "--d", "-3", "--g", "2"]])
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    # the read end is closed before the child starts, so its first write fails, as under `| head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(os.path.abspath(flipchain.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run([sys.executable, "-m", "flipchain.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


# -- pinned outputs -------------------------------------------------------------------

def chain_model() -> dict:
    """A seeded rank-4 chain model with d = -6."""
    return model_to_json_obj(random_chain_model(random.Random(0)))


def _sub(sid, rank, degree, fr, phi=True):
    return {"id": sid, "rank": rank, "degree": degree, "fr": fr, "phi_invariant": phi, "parents": []}


def tie_model() -> dict:
    """Two incomparable kernel subobjects tie above sigma = 1, so every
    filtration is an hn.error; the non-invariant one breaks constraint
    closure, so every equivalence entry is axiom_violated."""
    return {"genus": 2, "type": {"rank": 2, "degree": -5, "framing_nonzero": True},
            "subs": [_sub("A", 1, -2, False, phi=False), _sub("B", 1, -2, False)]}


def zero_framing_model() -> dict:
    """Zero framing: a null bound and final-chamber verdict; equivalences ok."""
    return {"genus": 3, "type": {"rank": 2, "degree": -4, "framing_nonzero": False, "delta_iso": True},
            "subs": [_sub("K", 1, -3, False)]}


def no_kernel_model() -> dict:
    """No kernel subobject: a null sigma_max and a null bound at a nonzero
    framing; a two-step filtration below the first wall, then ok."""
    return {"genus": 2, "frame_degree": -1, "type": {"rank": 2, "degree": -6, "framing_nonzero": True},
            "subs": [_sub("C", 1, -2, True), _sub("D", 1, -4, True, phi=False)]}


#: The model builders a pinned stability-check command line names, as {chain_model}.
PINNED_MODELS = (readme_model, chain_model, tie_model, zero_framing_model, no_kernel_model)
#: Command lines and their pinned stdout, read with check_digests.py's comparison: renderings of chambers
#: at d = -5 (two walls) and d = -2 (none, so blank flip columns and an empty flip table) and of betti at
#: (-5, 2), of stability-check on each builder's model, and a small verify-all.
CHECK_DIGESTS = load_script()
PINNED_TIER1 = CHECK_DIGESTS.PINNED["tier1"]


@pytest.mark.parametrize("command", PINNED_TIER1)
def test_a_pinned_command_prints_its_pinned_stdout(tmp_path, command):
    paths = {}
    for model in PINNED_MODELS:
        paths[model.__name__] = tmp_path / f"{model.__name__}.json"
        paths[model.__name__].write_text(json.dumps(model()))
    status, text = capture([token.format(**paths) for token in command.split()])
    diff = CHECK_DIGESTS.mismatch(PINNED_TIER1[command], text)
    assert status == 0 and diff is None, diff


# -- the JSON writer ---------------------------------------------------------------

#: Strings json escapes: quote, backslash, control characters, non-ASCII, an
#: astral code point and lone surrogates.
_JSON_STRINGS = ("", "k", '"', "\\", "\n\t\x00\x1f\x7f", "\xe9", "\u2603", "\U0001f600", "\ud800", "\udfff")


def _draw_str(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return "".join(rng.choice(_JSON_STRINGS) for _ in range(rng.randrange(3)))
    return "".join(chr(rng.randrange(0x110000)) for _ in range(rng.randrange(4)))


def _draw_json(rng: random.Random, depth: int = 0):
    """A JSON value, containers nested at most four deep."""
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return _draw_str(rng)
    if kind == 1:
        return rng.choice([0, -1, 7, 2**64, -(2**64) - 1, 10**40, rng.randint(-10**6, 10**6)])
    if kind == 2:
        return rng.choice([True, False, None, {}, [], ()])
    if kind == 3:
        return rng.choice([0.0, -0.0, 1.5, 1e300, float("inf"), float("-inf"), float("nan"), rng.random()])
    n = rng.randrange(1, 5)
    if kind in (4, 5):
        return {_draw_str(rng): _draw_json(rng, depth + 1) for _ in range(n)}
    items = [_draw_json(rng, depth + 1) for _ in range(n)]
    return items if kind == 6 else tuple(items)


def test_the_json_writer_writes_what_json_dumps_writes():
    rng = random.Random(20)
    for _ in range(3000):
        value = _draw_json(rng)
        assert _json_text(value) == json.dumps(value, indent=2), value


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {(1, 2): 0}}, {"a": {1, 2}}])
def test_the_json_writer_rejects_what_json_cannot_hold(value):
    with pytest.raises(TypeError):
        _json_text(value)


def _named_as_objects(value):
    """value with each named tuple in it made the dict of its fields in
    declaration order, lists and dicts walked, for json.dumps, which writes any
    tuple as an array and never passes one to its default hook."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {k: _named_as_objects(v) for k, v in zip(value._fields, value)}
    if isinstance(value, dict):
        return {k: _named_as_objects(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_named_as_objects(v) for v in value]
    return value


def _object_form(value):
    """The default hook of json.dumps for report values, the JSON writer's
    reference, written apart from it: a dataclass is its fields in declaration
    order (a named tuple among them walked by _named_as_objects), a
    LaurentPoly its terms, a frozenset a sorted list and a Fraction its
    string."""
    if is_dataclass(value):
        return {f.name: _named_as_objects(getattr(value, f.name)) for f in fields(value)}
    if type(value) is LaurentPoly:
        return {"terms": [[e, str(c)] for e, c in value.items()]}
    if type(value) is frozenset:
        return sorted(value)
    if type(value) is Fraction:
        return str(value)
    raise TypeError(f"{type(value).__name__} is not a report value")


def _oracle_text(value) -> str:
    """The JSON writer's reference text of a report value."""
    return json.dumps(_named_as_objects(value), indent=2, default=_object_form)


def test_the_json_writer_writes_a_fraction_in_a_list_as_json_dumps_does():
    assert _json_text([Fraction(1, 2)]) == _oracle_text((Fraction(1, 2),))


def _report_values():
    """Values of every report kind: chambers at d -1..-60, betti whole and
    per chamber at d -1..-20, each at g 2..5; the pinned stability-check
    models' reports and model objects with the dataclasses they are written
    from; zero, negative and wider-than-64-bit Laurent polynomials."""
    for g in range(2, 6):
        for d in range(-1, -61, -1):
            yield chambers.build_chambers(d, g)
        for d in range(-1, -21, -1):
            yield betti.build_betti_report(d, g)
            lo, hi = chambers.fm_index_range(d)
            for i in {lo, (lo + hi) // 2, hi}:
                yield betti.build_betti_report(d, g, only_chamber=i)
    for model in PINNED_MODELS:
        m = model_from_json_obj(model())
        yield from (stability.report_obj(m), model_to_json_obj(m), m.ctx, m.typ, m.subs, m.split)
    polys = (LaurentPoly(), LaurentPoly({-3: -5, 0: 1, 7: -(2**64)}), LaurentPoly({2: 3**90, 40: -(10**30)}))
    yield from polys
    yield polys
    yield betti.U2dReport(closed=polys[1], via_bundle=polys[0], agree=None)


def test_the_json_writer_writes_every_report_as_json_dumps_writes_its_object_form():
    n = 0
    for value in _report_values():
        assert _json_text(value) == _oracle_text(value), value
        n += 1
    assert n == 240 + 80 + 4 * 54 + 5 * 6 + 5  # chambers, betti reports, their chambers, models, polynomials
    assert _json_text(LaurentPoly()) == '{\n  "terms": []\n}'


#: The records written as named tuples, neither checking their inputs nor
#: holding derived state, each with its fields, its JSON keys, in order.
NAMED_TUPLE_RECORDS = {
    chambers.Chamber: ("index", "fm_index", "lower", "upper", "closed_upper", "representative"),
    chambers.FlipLocusData: ("i", "rank_minus", "rank_plus", "dim_p_minus", "dim_p_plus", "codim_minus", "codim_plus"),
    chambers.ChamberData: ("d", "g", "moduli_dim", "walls", "chambers", "flip_loci"),
    chambers.ChamberLocation: ("kind", "index", "wall"),
    betti.ChamberBetti: ("i", "p_recursive", "p_closed", "agree", "degree", "palindromic", "nonneg", "constant_term"),
    betti.U2dReport: ("closed", "via_bundle", "agree"),
    stability.HNFiltration: ("steps", "graded"),
    stability.EquivalenceReport: ("mismatches",),
    cli.RunConfig: ("command", "d", "g", "format", "chamber", "model_path", "seed", "grid", "models"),
    cli._Flag: ("flag", "dest", "nargs", "metavar", "help", "required", "type"),
}
#: The records that check their inputs, store derived state, hold a
#: cached_property or are mutated, which a named tuple's _make and _replace
#: would get round: they stay dataclasses.
DATACLASS_RECORDS = {stability.CurveContext, stability.FramedType, stability.SubobjectData,
                     stability.SplitDescriptor, stability.FramedModel, betti.BettiReport, stability.SuiteResult}


def test_report_rows_are_named_tuples_and_checked_records_dataclasses():
    classes = {value for name in ("betti", "chambers", "cli", "exactpoly", "stability")
               for value in vars(getattr(flipchain, name)).values()
               if inspect.isclass(value) and value.__module__ == f"flipchain.{name}"}
    assert {cls for cls in classes if issubclass(cls, tuple)} == set(NAMED_TUPLE_RECORDS)
    assert {cls for cls in classes if is_dataclass(cls)} == DATACLASS_RECORDS
    cd, report = chambers.build_chambers(-5, 2), betti.build_betti_report(-5, 2)
    m, sigma = model_from_json_obj(no_kernel_model()), Fraction(1, 2)
    written = [cd, cd.chambers[0], cd.flip_loci[0], chambers.chamber_of(Fraction(1), cd), report.chambers[0],
               report.u2d, stability.hn_filtration(m, sigma), stability.verify_rank2_equivalences(m, sigma),
               parse_args(["chambers", "--d", "-5", "--g", "2"])]  # a _Flag holds a type, which JSON cannot
    assert {type(value) for value in written} == set(NAMED_TUPLE_RECORDS) - {cli._Flag}
    for cls, keys in NAMED_TUPLE_RECORDS.items():
        assert cls._fields == keys
    for value in written:
        assert tuple(json.loads(_json_text(value))) == NAMED_TUPLE_RECORDS[type(value)]
    fl = cd.flip_loci[0]  # an object as a named tuple, an array as a plain tuple of the same values
    assert _json_text(fl) == json.dumps(dict(zip(fl._fields, fl)), indent=2)
    assert _json_text(tuple(fl)) == json.dumps(list(fl), indent=2)


def _json_reports():
    """(argv, report value) for chambers, betti (whole and per chamber) and
    the pinned stability models."""
    for g in range(2, 5):
        for d in range(-1, -31, -1):
            yield ["chambers", "--d", str(d), "--g", str(g)], chambers.build_chambers(d, g)
    for g in (2, 3):
        for d in range(-1, -11, -1):
            argv = ["betti", "--d", str(d), "--g", str(g)]
            report = betti.build_betti_report(d, g)
            yield argv, report
            for ch in report.chambers:
                yield argv + ["--chamber", str(ch.i)], betti.build_betti_report(d, g, only_chamber=ch.i)


def test_every_json_report_is_what_json_dumps_writes(tmp_path):
    n = 0
    for argv, value in _json_reports():
        assert capture(argv + ["--json"]) == (0, _oracle_text(value) + "\n"), argv
        n += 1
    for model in PINNED_MODELS:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model()))
        obj = stability.report_obj(model_from_json_obj(model()))
        assert capture(["stability-check", "--model", str(path), "--json"]) == (0, json.dumps(obj, indent=2) + "\n")
        n += 1
    assert n == 90 + 20 + 60 + 5  # chambers, betti reports, their chambers, models


# -- strict model-file reader ----------------------------------------------------

def base_model() -> dict:
    return {
        "genus": 2,
        "frame_degree": 0,
        "type": {"rank": 2, "degree": -5, "framing_nonzero": True, "delta_iso": True},
        "subs": [{"id": "L", "rank": 1, "degree": -3, "fr": False, "phi_invariant": True, "parents": []}],
    }


def check_model_file(tmp_path, obj):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    return capture(["stability-check", "--model", str(path)])


_DROP = object()


def _with_split(kmax_id, other_id):
    """A doctoring of base_model() that adds a framed subobject C of degree
    -1 and a split into kmax_id and other_id."""

    def doctor(obj):
        obj["subs"].append({"id": "C", "rank": 1, "degree": -1, "fr": True})
        obj["split"] = {"kmax_id": kmax_id, "other_id": other_id}
        return obj

    return doctor


def _self_split(obj):
    """A rank-4 model with zero framing whose one subobject S, of half the
    rank and half the degree, passes every summand rule on its own, split
    into S and S."""
    obj["type"].update(rank=4, degree=-6, framing_nonzero=False)
    obj["subs"] = [{"id": "S", "rank": 2, "degree": -3, "fr": False}]
    obj["split"] = {"kmax_id": "S", "other_id": "S"}
    return obj


def _doctor(path, value=_DROP):
    """A doctoring of base_model() that sets the field at path, a tuple of
    keys, to value, or drops it when no value is given."""

    def doctor(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        if value is _DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return obj

    return doctor


@pytest.mark.parametrize(
    "doctor, field",
    [
        (_doctor(("type", "degree"), -5.9), "type.degree"),  # an integer must not be a float
        (_doctor(("subs", 0, "rank"), True), "subs[0].rank"),  # ... nor a bool
        (_doctor(("genus",), "2"), "genus"),  # ... nor a string
        (_doctor(("subs", 0, "fr"), "false"), "subs[0].fr"),  # a flag must be a real bool
        (_doctor(("type", "framing_nonzero"), 1), "type.framing_nonzero"),
        (_doctor(("subs", 0, "id"), 3), "subs[0].id"),  # ids are strings
        (_doctor(("subs", 0, "parents"), "AB"), "subs[0].parents"),  # parents are a list ...
        (_doctor(("subs", 0, "parents"), [1]), "subs[0].parents[0]"),  # ... of strings
        (_doctor(("subs", 0, "parents"), ["K", "K"]), "subs[0].parents[1]"),  # ... that are distinct
        (lambda obj: [obj], "model"),  # the top level is an object
        (_doctor(("colour",), "red"), "colour"),  # unknown keys are rejected at the top ...
        (_doctor(("subs", 0, "weight"), 1), "subs[0].weight"),  # ... and inside
        (_doctor(("subs", 0, "fr")), "subs[0].fr"),  # required keys must be present
        (_doctor(("subs",), {}), "subs"),
        # the domain rules name their field too
        (_doctor(("subs", 0, "rank"), 2), "subs[0].rank"),  # rank not proper
        (_doctor(("subs", 0, "parents"), ["M"]), "subs[0].parents"),  # unknown parent
        (_doctor(("type", "degree"), 0), "type.degree"),  # chamber scans need d < 0
        (_doctor(("type", "degree"), 3), "type.degree"),
        (_doctor(("genus",), 1), "genus"),
        (_with_split("L", "C"), "split"),  # the summands do not add up to the type
        (_self_split, "split"),  # one subobject cannot be both summands
    ],
)
def test_model_reader_rejects_with_the_field_path(tmp_path, doctor, field):
    status, text = check_model_file(tmp_path, doctor(base_model()))
    assert status == 2
    assert text.startswith(f"error: invalid input: {field}: ")


def test_model_with_a_duplicate_id_is_invalid_input(tmp_path):
    obj = base_model()
    obj["subs"].append(dict(obj["subs"][0]))
    status, text = check_model_file(tmp_path, obj)
    assert status == 2
    assert text.startswith("error: invalid input: subs[1].id: duplicate subobject id 'L'")


_TYPE_ONLY = '{"genus": 2, "type": {%s, "framing_nonzero": true}, "subs": []}'


@pytest.mark.parametrize("text, key", [
    ('{"genus": 9, ' + json.dumps(base_model())[1:], "genus"),
    (json.dumps(base_model()).replace('"rank": 2,', '"rank": 3, "rank": 2,'), "rank"),
    # a key given three times: the error names the first key repeated, not the first key seen
    *((_TYPE_ONLY % inner, key) for inner, key in [
        ('"degree": -5, "rank": 2, "rank": 2, "degree": -5, "rank": 2', "rank"),
        ('"rank": 2, "degree": -5, "degree": -5, "rank": 2, "rank": 2', "degree"),
        ('"rank": 2, "rank": 2, "rank": 2, "degree": -5', "rank"),
    ]),
])
def test_model_file_with_a_duplicate_key_exits_2_naming_it(tmp_path, text, key):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert capture(["stability-check", "--model", str(path)]) == (2, f"error: duplicate key {key!r}\n")


@pytest.mark.parametrize("path, value, message", [
    # null for a required field
    (("genus",), None, "genus: expected an integer, got null"),
    (("type",), None, "type: expected an object, got null"),
    (("subs",), None, "subs: expected a list, got null"),
    (("type", "framing_nonzero"), None, "type.framing_nonzero: expected true or false, got null"),
    (("subs", 0, "id"), None, "subs[0].id: expected a string, got null"),
    (("subs", 0, "degree"), None, "subs[0].degree: expected an integer, got null"),
    # null for a defaulted field whose default is not null
    (("frame_degree",), None, "frame_degree: expected an integer, got null"),
    (("type", "delta_iso"), None, "type.delta_iso: expected true or false, got null"),
    (("subs", 0, "phi_invariant"), None, "subs[0].phi_invariant: expected true or false, got null"),
    (("subs", 0, "parents"), None, "subs[0].parents: expected a list, got null"),
    # a bool in an int field
    (("genus",), True, "genus: expected an integer, got true"),
    (("frame_degree",), False, "frame_degree: expected an integer, got false"),
    (("type", "rank"), True, "type.rank: expected an integer, got true"),
    (("type", "degree"), False, "type.degree: expected an integer, got false"),
    (("subs", 0, "rank"), True, "subs[0].rank: expected an integer, got true"),
    (("subs", 0, "degree"), True, "subs[0].degree: expected an integer, got true"),
])
def test_model_reader_rejects_null_and_bool_values_with_the_exact_message(tmp_path, path, value, message):
    assert check_model_file(tmp_path, _doctor(path, value)(base_model())) == (2, f"error: invalid input: {message}\n")


def test_model_reader_rejects_an_unknown_key_beside_the_retired_epsilon_flag(tmp_path):
    obj = base_model()
    obj["type"].update(epsilon_nonzero=True, zeta=1)
    assert check_model_file(tmp_path, obj) == (2, "error: invalid input: type.zeta: unknown field\n")


def test_stability_check_exits_1_on_a_failed_equivalence_entry(tmp_path, monkeypatch):
    verdicts = stability._verdicts

    def flipped(m, amb, slopes):
        fm_ss, fm_stable, pair_ss, pair_stable = verdicts(m, amb, slopes)
        return fm_ss, fm_stable, not pair_ss, not pair_stable

    monkeypatch.setattr(stability, "_verdicts", flipped)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(zero_framing_model()))
    status, text = capture(["stability-check", "--model", str(path), "--json"])
    obj = stability.report_obj(model_from_json_obj(zero_framing_model()))
    assert (status, text) == (1, json.dumps(obj, indent=2) + "\n")  # the report is still printed
    assert any(e["equivalences"].get("ok") is False for e in obj["verdicts"])


def test_the_report_names_type_degree_unless_the_degree_is_negative():
    obj = base_model()
    obj["type"]["degree"] = 0
    with pytest.raises(InvalidInput, match="^type.degree: degree must be negative, got 0$"):
        stability.report_obj(model_from_json_obj(obj))


def test_the_cli_reads_no_private_name_of_the_stability_engine():
    private = []
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "stability":
            private += [node.attr] if node.attr.startswith("_") else []
        elif isinstance(node, ast.ImportFrom) and node.module == "stability":
            private += [a.name for a in node.names if a.name.startswith("_")]
    assert private == []


def test_stability_check_lets_internal_errors_propagate(tmp_path, monkeypatch):
    def _filtration(m, amb, slopes):
        raise ValueError("internal bug")

    monkeypatch.setattr(stability, "_filtration", _filtration)
    with pytest.raises(ValueError, match="internal bug"):
        check_model_file(tmp_path, base_model())


def test_model_reader_ignores_the_retired_epsilon_flag(tmp_path):
    obj = base_model()
    obj["type"]["epsilon_nonzero"] = True
    assert model_from_json_obj(obj) == model_from_json_obj(base_model())
    assert check_model_file(tmp_path, obj)[0] == 0


def test_model_reader_accepts_the_readme_example(tmp_path):
    status, text = check_model_file(tmp_path, readme_model())
    assert status == 0, text


def test_model_writer_writes_the_readme_example_back():
    """Every field in declaration order, parents sorted, split only when set."""
    obj = readme_model()
    obj["subs"].append({"id": "L", "rank": 1, "degree": -4, "fr": False, "phi_invariant": False, "parents": ["K", "C"]})
    written = model_to_json_obj(model_from_json_obj(obj))
    obj["subs"][-1]["parents"] = ["C", "K"]
    assert json.dumps(written) == json.dumps(obj)
    del obj["split"]
    assert json.dumps(model_to_json_obj(model_from_json_obj(obj))) == json.dumps(obj)


# -- strict report readers ---------------------------------------------------------


def _doctors(*doctors):
    """The doctorings applied one after the other."""

    def doctor(obj):
        for each in doctors:
            obj = each(obj)
        return obj

    return doctor


FIVE = {"terms": [[0, "5"]]}
ONE_MINUS_7T3 = {"terms": [[0, "1"], [3, "-7"]]}


def betti_report_obj() -> dict:
    return json.loads(capture(["betti", "--d", "-5", "--g", "2", "--json"])[1])


def chambers_report_obj() -> dict:
    return json.loads(capture(["chambers", "--d", "-6", "--g", "3", "--json"])[1])


@pytest.mark.parametrize(
    "read, emitted, doctor, field",
    [
        # integers are not floats, bools or strings
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0, "degree"), 13.7), "chambers[0].degree"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("d",), True), "d"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("walls", 0), "1"), "walls[0]"),
        # each chamber's polynomials are the ones build_betti_report(d, g) gives
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0, "p_closed"), FIVE),
         "chambers[0].p_closed.terms[0][1]"),
        (betti.report_from_json_obj, betti_report_obj, _doctors(_doctor(("chambers", 0, "p_closed"), FIVE),
         _doctor(("chambers", 1, "p_recursive"), ONE_MINUS_7T3), _doctor(("chambers", 1, "p_closed"), ONE_MINUS_7T3)),
         "chambers[0].p_closed.terms[0][1]"),
        (betti.report_from_json_obj, betti_report_obj, _doctors(_doctor(("chambers", 1, "p_recursive"), ONE_MINUS_7T3),
         _doctor(("chambers", 1, "p_closed"), ONE_MINUS_7T3)), "chambers[1].p_recursive.terms[1][0]"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0, "palindromic"), False), "chambers[0].palindromic"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0, "nonneg"), False), "chambers[0].nonneg"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0, "constant_term"), 2), "chambers[0].constant_term"),
        (betti.report_from_json_obj, betti_report_obj, _doctors(_doctor(("chambers", 0, "p_recursive"), {"terms": []}),
         _doctor(("chambers", 0, "p_closed"), {"terms": []})), "chambers[0].p_recursive.terms"),
        # flags are real bools
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0, "agree"), "false"), "chambers[0].agree"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("chambers", 0, "closed_upper"), 0), "chambers[0].closed_upper"),
        # null only where the writer emits it
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0, "nonneg"), None), "chambers[0].nonneg"),
        # terms are [int, "decimal string"]
        (betti.report_from_json_obj, betti_report_obj, _doctor(("mcon", "terms", 0, 1), 1), "mcon.terms[0][1]"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("mcon", "terms", 0, 0), "0"), "mcon.terms[0][0]"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("terminal", "terms", 0), [0]), "terminal.terms[0]"),
        # ... written as the writer writes them: sorted, without leading zeros
        (betti.report_from_json_obj, betti_report_obj, _doctor(("mcon", "terms", 0, 1), "01"), "mcon.terms[0][1]"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("mcon", "terms"), [[2, "1"], [0, "1"]]), "mcon.terms[0][0]"),
        # chamber indices in the window, and the fields the polynomials give
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0, "i"), 99), "chambers[0].i"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0, "i"), 0), "chambers[0].i"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("moduli_dim",), 99), "moduli_dim"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("u2d", "agree"), False), "u2d.agree"),
        # bounds are strings that Fraction parses
        (chambers_obj_to_data, chambers_report_obj, _doctor(("chambers", 0, "lower"), 0.5), "chambers[0].lower"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("chambers", 0, "upper"), "1/x"), "chambers[0].upper"),
        # unknown and missing fields
        (betti.report_from_json_obj, betti_report_obj, _doctor(("u2d", "colour"), "red"), "u2d.colour"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("chambers", 0, "index")), "chambers[0].index"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("chambers",), []), "chambers"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("colour",), "red"), "colour"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("d",)), "d"),
        # integers are not 1.0 or true
        (chambers_obj_to_data, chambers_report_obj, _doctor(("g",), 3.0), "g"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("chambers", 0, "index"), 0.0), "chambers[0].index"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("moduli_dim",), 10.0), "moduli_dim"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("flip_loci", 0, "rank_plus"), True), "flip_loci[0].rank_plus"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("walls", 0), True), "walls[0]"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("d",), True), "d"),
        # every top-level field is what build_chambers(d, g) emits
        (chambers_obj_to_data, chambers_report_obj, _doctor(("d",), -9), "moduli_dim"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("walls",), [1, 3]), "walls[0]"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("flip_loci", 0, "rank_minus"), 5), "flip_loci[0].rank_minus"),
        # ... and (d, g) in the domain
        (chambers_obj_to_data, chambers_report_obj, _doctor(("d",), 5), "d"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("g",), 1), "g"),
        # a value JSON cannot hold, from a Python caller
        (chambers_obj_to_data, chambers_report_obj, _doctor(("d",), Fraction(-6)), "d"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("walls", 0), Fraction(2)), "walls[0]"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("d",), Fraction(-5)), "d"),
        (model_from_json_obj, base_model, _doctor(("genus",), Fraction(2)), "genus"),
        # unknown keys of mixed types: the first by its string is named
        (chambers_obj_to_data, chambers_report_obj, _doctors(_doctor((1,), 0), _doctor(("colour",), "red")), "1"),
        (betti.report_from_json_obj, betti_report_obj, _doctors(_doctor((1,), 0), _doctor(("colour",), "red")), "1"),
        # every Betti field is the one build_betti_report(d, g) gives for the report's chamber set
        (betti.report_from_json_obj, betti_report_obj, _doctor(("mcon",), {"terms": [[0, "7"]]}), "mcon.terms[0][1]"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("blowup_check",), None), "blowup_check"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("terminal",), {"terms": [[0, "1"]]}), "terminal.terms"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", -1)), "chambers"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers",), []), "chambers"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0)), "chambers[0].i"),
        # lists of unequal length: the first differing item, else the list
        (chambers_obj_to_data, chambers_report_obj, _doctor(("walls",), [3]), "walls[0]"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("walls",), [2]), "walls"),
    ],
)
def test_report_readers_reject_with_the_field_path(read, emitted, doctor, field):
    with pytest.raises(InvalidInput, match=f"^{re.escape(field)}: "):
        read(doctor(emitted()))


HUGE = 10**5000  # past the 4,300-digit limit of int-to-str, so neither json.dumps nor repr can write it


@pytest.mark.parametrize("call, message", [
    (lambda: chambers._checked(HUGE, str, "subs[*].id"), "subs[*].id: expected a string, got <int of 16610 bits>"),
    (lambda: stability.SubobjectData(HUGE, 1, -1, fr=True), "subs[*].id: expected a string, got <int of 16610 bits>"),
    (lambda: chambers_obj_to_data(_doctor(("walls", 0), HUGE)(chambers_report_obj())),
     "walls[0]: expected 2 for d=-6, g=3, got <int of 16610 bits>"),
], ids=["_checked", "SubobjectData", "chambers_obj_to_data"])
def test_an_int_too_long_to_write_is_named_by_its_bit_count(call, message):
    with pytest.raises(InvalidInput) as info:
        call()
    assert str(info.value) == message


#: JSON values a leaf of a report is replaced with.
_JSON_VALUES = [0, 1, -1, -3, 2, True, False, 1.0, 0.5, "1", "1/2", None, [], {}]


def _leaves(value, path=""):
    """(path, value) for each scalar or empty container of a JSON value,
    with paths written as the readers name them."""
    if isinstance(value, dict) and value:
        return [leaf for key, v in value.items() for leaf in _leaves(v, f"{path}.{key}" if path else key)]
    if isinstance(value, list) and value:
        return [leaf for k, v in enumerate(value) for leaf in _leaves(v, f"{path}[{k}]")]
    return [(path, value)]


def _set_leaf(obj, path, value):
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value


@settings(derandomize=True, deadline=None, max_examples=300)
@given(dg=st.sampled_from([(-6, 3), (-5, 2), (-1, 2), (-9, 4), (-2, 3)]), data=st.data())
def test_chambers_reader_names_the_one_leaf_that_differs(dg, data):
    obj = json.loads(capture(["chambers", "--d", str(dg[0]), "--g", str(dg[1]), "--json"])[1])
    path, old = data.draw(st.sampled_from(_leaves(obj)))
    new = data.draw(st.sampled_from(_JSON_VALUES).filter(lambda v: (type(v), v) != (type(old), old)))
    _set_leaf(obj, path, new)
    with pytest.raises(InvalidInput) as exc:
        chambers_obj_to_data(obj)
    named = str(exc.value).split(": ")[0]
    assert named in ("d", "g", "moduli_dim") if path in ("d", "g") else named == path, str(exc.value)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=st.sampled_from([["--d", "-5", "--g", "2"], ["--d", "-6", "--g", "3"], ["--d", "-1", "--g", "2"],
                             ["--d", "-5", "--g", "2", "--chamber", "3"]]), data=st.data())
def test_betti_reader_names_a_path_inside_the_leaf_that_differs(argv, data):
    obj = json.loads(capture(["betti", *argv, "--json"])[1])
    path, old = data.draw(st.sampled_from(_leaves(obj)))
    new = data.draw(st.sampled_from(_JSON_VALUES + ["01", "0", "-0"]).filter(lambda v: (type(v), v) != (type(old), old)))
    _set_leaf(obj, path, new)
    try:
        report = betti.report_from_json_obj(obj)
    except InvalidInput as exc:
        named = str(exc).split(": ")[0]
        top = re.match(r"chambers\[\d+\]|\w+", path).group()
        inside = named == top or named.startswith((f"{top}.", f"{top}["))
        assert inside or (path in ("d", "g") and re.fullmatch(r"d|g|moduli_dim|chambers\[\d+\]\.i", named)), str(exc)
    else:  # a change the reader accepts is one the writer writes back
        assert json.dumps(betti.report_to_json_obj(report)) == json.dumps(obj)
        assert report.ok in (True, False)


@pytest.mark.parametrize(
    "table, cls",
    [
        (stability._TYPE_FIELDS, stability.FramedType),
        (stability._SUB_FIELDS, stability.SubobjectData),
        (stability._SPLIT_FIELDS, stability.SplitDescriptor),
    ],
)
def test_reader_tables_name_the_written_fields_in_order(table, cls):
    assert list(table) == [f.name for f in fields(cls)]


def test_report_reader_accepts_null_where_the_writer_emits_it():
    report = betti.build_betti_report(-1, 2, only_chamber=0)
    obj = json.loads(json.dumps(betti.report_to_json_obj(report)))
    assert obj["blowup_check"] is None and obj["u2d"]["via_bundle"] is None and obj["u2d"]["agree"] is None
    assert betti.report_from_json_obj(obj) == report


# -- verify-all ---------------------------------------------------------------------


def _raising(exc):
    def build_betti_report(d, g, only_chamber=None):
        raise exc

    return build_betti_report


def test_verify_all_drops_each_genus_lists_when_the_grid_moves_on():
    assert capture(["verify-all", "--grid", "4", "-12", "--models", "0"])[0] == 0
    assert betti._closed_table.cache_info().currsize <= 1
    assert betti._divided_shared_factor.cache_info().currsize <= 1


def test_verify_all_lets_internal_errors_propagate(monkeypatch):
    monkeypatch.setattr(betti, "build_betti_report", _raising(TypeError("internal bug")))
    with pytest.raises(TypeError, match="internal bug"):
        capture(["verify-all", "--grid", "2", "-1", "--models", "0"])


def test_verify_all_counts_the_failures_it_does_not_print(monkeypatch):
    monkeypatch.setattr(betti, "build_betti_report", _raising(NotDivisible("doctored")))
    status, text = capture(["verify-all", "--grid", "5", "-15", "--models", "0"])
    lines = text.splitlines()
    assert status == 1
    assert lines[0] == "grid: 60 cells checked, 60 failures"
    assert sum(line.startswith("FAIL ") for line in lines) == 50
    assert lines[-2:] == ["... and 10 more failures", "verify-all: FAIL"]


def test_verify_all_reports_each_structure_failure_once(monkeypatch):
    doctored = ("doctored", lambda fl, d, g: (fl.i, d, g) != (3, -5, 2))
    monkeypatch.setattr(chambers, "FLIP_INVARIANTS", chambers.FLIP_INVARIANTS + (doctored,))
    status, text = capture(["verify-all", "--grid", "2", "-6", "--models", "0"])
    assert status == 1
    assert [line for line in text.splitlines() if line.startswith("FAIL ")] == [
        "FAIL doctored fails at (i=3, d=-5, g=2)"
    ]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(g_max=st.integers(-3, 4), d_min=st.integers(-6, 2), seed=st.integers(-2, 3), models=st.integers(-3, 5))
def test_verify_all_flags_exit_0_or_2_naming_the_flag(g_max, d_min, seed, models):
    flags = ["--grid", str(g_max), str(d_min), "--seed", str(seed), "--models", str(models)]
    status, text = capture(["verify-all"] + flags)
    bad = "grid" if g_max < 2 or d_min >= 0 else "models" if models < 0 else None
    assert status == (2 if bad else 0), text
    if bad:
        assert text.startswith(f"error: invalid input: {bad}: ") and INVALID_LINE.match(text), text


@pytest.mark.parametrize(
    "flags, field",
    [(["--grid", "1", "-5"], "grid"), (["--grid", "5", "3"], "grid"), (["--models", "-7"], "models")],
)
def test_verify_all_rejects_flags_that_check_nothing(flags, field):
    status, text = capture(["verify-all"] + flags)
    assert status == 2
    assert text.startswith(f"error: invalid input: {field}: ")


# -- the exit-code contract -----------------------------------------------------------

#: An exit-2 line: the field path, then the reason.
INVALID_LINE = re.compile(r"^error: invalid input: [a-z_]+(\[\d+\])?(\.[a-z_]+(\[\d+\])?)*: ")


def test_every_exception_class_is_invalid_input_or_a_consistency_failure():
    found = {}
    for info in pkgutil.iter_modules(flipchain.__path__):
        module = importlib.import_module(f"flipchain.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                found[name] = obj
    outside = {name for name, cls in found.items() if not issubclass(cls, (InvalidInput, ConsistencyFailure))}
    assert outside == set()


_WRONG = st.sampled_from(["2", 1.5, None, True, [], {}])


@st.composite
def model_objs(draw):
    """Model JSON with ranks 1-4, degrees -9..4, up to four subobjects,
    random flags, parents and split, and now and then a value of the wrong
    type or a repeated id."""

    def value(strategy):
        return draw(_WRONG) if draw(st.integers(0, 29)) == 13 else draw(strategy)

    typ = {
        "rank": value(st.sampled_from([2, 3, 4, 1])),
        "degree": value(st.integers(-9, 4)),
        "framing_nonzero": value(st.booleans()),
        "delta_iso": value(st.booleans()),
    }
    proper = max(typ["rank"], 2) - 1 if type(typ["rank"]) is int else 1  # the top proper rank, mostly drawn below
    ids = [f"S{k}" for k in range(draw(st.integers(0, 4)))]
    names = st.sampled_from(ids + ["Z"])
    subs = [
        {
            "id": value(names if draw(st.integers(0, 19)) == 7 else st.just(sid)),
            "rank": value(st.integers(1, proper) if draw(st.integers(0, 9)) != 3 else st.integers(proper + 1, 4)),
            "degree": value(st.integers(-9, 4)),
            "fr": value(st.booleans()),
            "phi_invariant": value(st.booleans()),
            "parents": value(st.just([]) | st.lists(names, max_size=2)),
        }
        for sid in ids
    ]
    obj = {"genus": value(st.sampled_from([2, 3, 2, 3, 1])), "frame_degree": value(st.integers(-2, 2)),
           "type": typ, "subs": subs}
    if draw(st.booleans()):
        obj["split"] = value(st.fixed_dictionaries({"kmax_id": names, "other_id": names}))
    return obj


@settings(derandomize=True, deadline=None, max_examples=200)
@given(obj=model_objs())
def test_model_files_exit_0_or_2_naming_the_field(tmp_path_factory, obj):
    status, text = check_model_file(tmp_path_factory.getbasetemp(), obj)
    assert status in (0, 2), text
    if status == 2:
        assert INVALID_LINE.match(text), text


@settings(derandomize=True, deadline=None, max_examples=200)
@given(command=st.sampled_from(["chambers", "betti"]), d=st.integers(-12, 3), g=st.integers(-1, 5),
       chamber=st.none() | st.integers(-2, 14))
def test_arguments_exit_0_or_2_naming_the_field(command, d, g, chamber):
    argv = [command, "--d", str(d), "--g", str(g)]
    if command == "betti" and chamber is not None:
        argv += ["--chamber", str(chamber)]
    status, text = capture(argv)
    bad = "d" if d >= 0 else "g" if g < 2 else None
    if bad is None and "--chamber" in argv and not (-d) // 2 <= chamber <= -d - 1:
        bad = "chamber"
    assert status == (2 if bad else 0), text
    if bad:
        assert text.startswith(f"error: invalid input: {bad}: ") and INVALID_LINE.match(text)


_TOP_USAGE = "usage: flipchain [-h] {chambers,betti,stability-check,verify-all} ...\n"
_CHAMBERS_USAGE = "usage: flipchain chambers [-h] --d D --g G [--json | --csv | --latex]\n"
_BETTI_USAGE = ("usage: flipchain betti [-h] --d D --g G [--chamber CHAMBER]\n"
                "                       [--json | --csv | --latex]\n")
_VERIFY_USAGE = ("usage: flipchain verify-all [-h] [--grid G_MAX D_MIN] [--seed SEED]\n"
                 "                            [--models MODELS]\n")
_FORMAT_HELP = "  --json\n  --csv\n  --latex\n"
_CHAMBERS_HELP = (_CHAMBERS_USAGE + "\n"
                  "options:\n"
                  "  -h, --help  show this help message and exit\n"
                  "  --d D       degree (negative)\n"
                  "  --g G       genus (at least 2)\n" + _FORMAT_HELP)

#: (argv, exit code, stdout, stderr) of argparse's own output at 80 columns.
PARSER_OUTPUTS = [
    ([], 2, "", _TOP_USAGE + "flipchain: error: the following arguments are required: command\n"),
    (["--help"], 0, _TOP_USAGE + "\n"
     "Exact wall-and-chamber structure, stability verdicts and Poincare polynomials\n"
     "for the rank-2 flip chain.\n"
     "\n"
     "positional arguments:\n"
     "  {chambers,betti,stability-check,verify-all}\n"
     "    chambers            walls, chambers and flip loci\n"
     "    betti               per-chamber Poincare polynomials with dual routes\n"
     "    stability-check     verdicts for a model file at every chamber\n"
     "    verify-all          run the full consistency grid and property suite\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n", ""),
    (["chambers", "--help"], 0, _CHAMBERS_HELP, ""),
    (["chambers", "--d", "-5", "--g", "2", "-h"], 0, _CHAMBERS_HELP, ""),
    (["betti", "--help"], 0, _BETTI_USAGE + "\n"
     "options:\n"
     "  -h, --help         show this help message and exit\n"
     "  --d D\n"
     "  --g G\n"
     "  --chamber CHAMBER  restrict to one chamber index\n" + _FORMAT_HELP, ""),
    (["stability-check", "--help"], 0,
     "usage: flipchain stability-check [-h] --model MODEL_PATH\n"
     "                                 [--json | --csv | --latex]\n"
     "\n"
     "options:\n"
     "  -h, --help          show this help message and exit\n"
     "  --model MODEL_PATH  path to a model JSON file\n" + _FORMAT_HELP, ""),
    (["verify-all", "--help"], 0, _VERIFY_USAGE + "\n"
     "options:\n"
     "  -h, --help          show this help message and exit\n"
     "  --grid G_MAX D_MIN\n"
     "  --seed SEED\n"
     "  --models MODELS     randomized models in the suite\n", ""),
    (["bogus"], 2, "", _TOP_USAGE + "flipchain: error: argument command: invalid choice: 'bogus' "
     "(choose from 'chambers', 'betti', 'stability-check', 'verify-all')\n"),
    (["chambers", "--d", "-5", "--g", "2", "--bogus"], 2, "", _TOP_USAGE + "flipchain: error: unrecognized arguments: --bogus\n"),
    (["chambers", "--d", "x", "--g", "2"], 2, "",
     _CHAMBERS_USAGE + "flipchain chambers: error: argument --d: invalid int value: 'x'\n"),
    (["verify-all", "--grid", "3"], 2, "", _VERIFY_USAGE + "flipchain verify-all: error: argument --grid: expected 2 arguments\n"),
    (["betti", "--d", "-5", "--g", "2", "--latex", "--json"], 2, "",
     _BETTI_USAGE + "flipchain betti: error: argument --json: not allowed with argument --latex\n"),
    # int("-5_0") is -50, but argparse reads -5_0 as an option string
    (["chambers", "--d", "-5_0", "--g", "2"], 2, "",
     _CHAMBERS_USAGE + "flipchain chambers: error: argument --d: expected one argument\n"),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", PARSER_OUTPUTS,
                         ids=[" ".join(argv) or "no arguments" for argv, *_ in PARSER_OUTPUTS])
def test_parser_help_and_errors_are_pinned(monkeypatch, capsys, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        parse_args(argv)
    assert exit_info.value.code == code
    assert capsys.readouterr() == (stdout, stderr)


#: Values for the drawn lines: five plain ints, then a path and values that
#: the reader declines, some of which int() or argparse would still read.
_VALUE_TOKENS = ["-5", "0", "-0", "00", "7", "+5", " 5", "-5_0", "\u0665", "", "-", "-x", "-1e3", "-.5",
                 "model.json", "9" * 5000]
_FLAG_TOKENS = sorted({f.flag for _, _, flags in _SUBCOMMANDS.values() for f in flags}) + [
    "--json", "--csv", "--latex", "-h", "--cham", "--d=-5", "--"]
_TOKENS = list(_SUBCOMMANDS) + _FLAG_TOKENS + _VALUE_TOKENS


def _draw_line(rng):
    """A plain line of a random subcommand, its values drawn from the first
    five value tokens, then up to two tokens inserted, replaced or deleted."""
    command = rng.choice(list(_SUBCOMMANDS))
    _, formats, flags = _SUBCOMMANDS[command]
    items = [[f.flag] + rng.choices(_VALUE_TOKENS[:5], k=f.nargs or 1) for f in flags
             if f.required or rng.random() < 0.5]
    if formats and rng.random() < 0.5:
        items.append([rng.choice(["--json", "--csv", "--latex"])])
    rng.shuffle(items)
    argv = [command] + [token for item in items for token in item]
    for _ in range(rng.randrange(3)):
        k = rng.randrange(len(argv) + 1)
        op = rng.randrange(3)
        if op == 0:
            argv.insert(k, rng.choice(_TOKENS))
        elif k < len(argv) and op == 1:
            argv[k] = rng.choice(_TOKENS)
        elif k < len(argv):
            del argv[k]
    return argv


def test_the_direct_reader_agrees_with_argparse_on_every_line_it_accepts():
    rng = random.Random(19)
    accepted = []
    for _ in range(10000):
        argv = _draw_line(rng)
        config = _read_plain(argv)
        if config is None:
            continue
        accepted.append(config.command)
        try:
            assert config == _parse_with_argparse(argv), argv
        except SystemExit:
            pytest.fail(f"argparse rejects {argv}, which the direct reader read as {config}")
    assert len(accepted) > 2000 and set(accepted) == set(_SUBCOMMANDS)


def _readme_command_lines():
    """Every command line the README's CLI section shows, each [optional
    part] taken or not, its metavars given values."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## CLI\n")[1].split("\n## ")[0]
    values = {"I": "3", "N": "7", "G_MAX": "3", "D_MIN": "-6"}
    for usage in re.findall(r"flipchain ([a-z-]+[^`\n]*)", section):
        usage = usage.split(" | ")[0]  # a shell pipe
        lines = [[]]
        for part in re.findall(r"\[[^]]*\]|\S+", usage):
            choices = [[]] + [alt.split() for alt in part[1:-1].split("|")] if part[0] == "[" else [[part]]
            lines = [line + c for line in lines for c in choices]
        yield from ([values.get(token, token) for token in line] for line in lines)


def test_the_direct_reader_accepts_the_readme_command_lines():
    lines = list(_readme_command_lines())
    assert len(lines) == 25
    for argv in lines:
        assert _read_plain(argv) == _parse_with_argparse(argv), argv


def _readme_code_names():
    """(owner, name) for each backticked module.name in the README of the
    five modules, with or without the flipchain. prefix, and each Class.attr
    of a class flipchain exports; call arguments after either are allowed."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    modules = ("betti", "chambers", "cli", "exactpoly", "stability")
    for module, name in re.findall(rf"`(?:flipchain\.)?({'|'.join(modules)})\.(\w+)(?:\([^`]*\))?`", text):
        yield importlib.import_module(f"flipchain.{module}"), name
    classes = {name: value for name, value in vars(flipchain).items() if isinstance(value, type)}
    for cls, name in re.findall(r"`([A-Z]\w*)\.(\w+)(?:\([^`]*\))?`", text):
        if cls in classes:
            yield classes[cls], name


def test_the_readme_names_only_code_that_exists():
    names = set(_readme_code_names())
    assert len(names) == 17
    assert sorted(f"{owner.__name__}.{name}" for owner, name in names if not hasattr(owner, name)) == []


PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def test_the_direct_reader_accepts_every_benchmark_command_line(monkeypatch):
    """argparse runs only for help and errors, so every command line the
    benchmark times, read from perfbench/workloads.py, is a plain one."""
    monkeypatch.syspath_prepend(PERFBENCH)  # workloads imports its sibling tracer
    workloads = importlib.import_module("workloads")
    for size in ("full", "tiny"):
        for seed in range(10):
            requests, _ = workloads.request_stream(seed, workloads.SIZES[size], "models")
            argvs = [*requests, workloads.VerifyAll(seed, workloads.SIZES[size], "models").argv]
            assert {argv[0] for argv in argvs} == {"betti", "chambers", "stability-check", "verify-all"}
            assert [argv for argv in argvs if _read_plain(argv) is None] == []
