"""CLI surface: formats, exit codes, JSON round trips and determinism."""

import io
import json
import os
import re

import pytest

from flipchain import betti, chambers, stability
from flipchain.chambers import InvalidInput
from flipchain.exactpoly import NotDivisible
from flipchain.cli import (
    RunConfig,
    chambers_obj_to_data,
    main,
    parse_args,
    run,
)
from flipchain.stability import model_from_json_obj, model_to_json_obj, random_rank2_model
import random


def capture(argv):
    cfg = parse_args(argv)
    out = io.StringIO()
    status = run(cfg, out=out)
    return status, out.getvalue()


def test_parse_defaults():
    cfg = parse_args(["chambers", "--d", "-5", "--g", "2"])
    assert cfg.command == "chambers" and cfg.format == "text"
    cfg = parse_args(["betti", "--d", "-5", "--g", "2", "--json"])
    assert cfg.format == "json"
    cfg = parse_args(["verify-all", "--grid", "3", "-6", "--seed", "9", "--models", "10"])
    assert cfg.grid == (3, -6) and cfg.seed == 9 and cfg.models == 10


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


@pytest.mark.parametrize("argv", [["betti", "--d", "-5", "--g", "0"], ["betti", "--d", "-5", "--g", "-1"]])
def test_betti_rejects_a_small_genus_as_invalid_input(argv):
    status, text = capture(argv)
    assert status == 2
    assert text.startswith("error: invalid input: genus must be at least 2")


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


# -- strict model-file reader ----------------------------------------------------

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


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
        (lambda obj: [obj], "model"),  # the top level is an object
        (_doctor(("colour",), "red"), "colour"),  # unknown keys are rejected at the top ...
        (_doctor(("subs", 0, "weight"), 1), "subs[0].weight"),  # ... and inside
        (_doctor(("subs", 0, "fr")), "subs[0].fr"),  # required keys must be present
        (_doctor(("subs",), {}), "subs"),
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
    assert text.startswith("error: invalid input: duplicate subobject id 'L'")


def test_stability_check_lets_internal_errors_propagate(tmp_path, monkeypatch):
    def hn_filtration(m, sigma):
        raise ValueError("internal bug")

    monkeypatch.setattr(stability, "hn_filtration", hn_filtration)
    with pytest.raises(ValueError, match="internal bug"):
        check_model_file(tmp_path, base_model())


def test_model_reader_ignores_the_retired_epsilon_flag(tmp_path):
    obj = base_model()
    obj["type"]["epsilon_nonzero"] = True
    assert model_from_json_obj(obj) == model_from_json_obj(base_model())
    assert check_model_file(tmp_path, obj)[0] == 0


def test_model_reader_accepts_the_readme_example(tmp_path):
    with open(README, encoding="utf-8") as fh:
        example = re.search(r"```json\n(.*?)```", fh.read(), re.S).group(1)
    status, text = check_model_file(tmp_path, json.loads(example))
    assert status == 0, text


# -- strict report readers ---------------------------------------------------------


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
        # flags are real bools
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0, "agree"), "false"), "chambers[0].agree"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("chambers", 0, "closed_upper"), 0), "chambers[0].closed_upper"),
        # null only where the writer emits it
        (betti.report_from_json_obj, betti_report_obj, _doctor(("chambers", 0, "nonneg"), None), "chambers[0].nonneg"),
        # terms are [int, "decimal string"]
        (betti.report_from_json_obj, betti_report_obj, _doctor(("mcon", "terms", 0, 1), 1), "mcon.terms[0][1]"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("mcon", "terms", 0, 0), "0"), "mcon.terms[0][0]"),
        (betti.report_from_json_obj, betti_report_obj, _doctor(("terminal", "terms", 0), [0]), "terminal.terms[0]"),
        # bounds are strings that Fraction parses
        (chambers_obj_to_data, chambers_report_obj, _doctor(("chambers", 0, "lower"), 0.5), "chambers[0].lower"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("chambers", 0, "upper"), "1/x"), "chambers[0].upper"),
        # unknown and missing fields
        (betti.report_from_json_obj, betti_report_obj, _doctor(("u2d", "colour"), "red"), "u2d.colour"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("chambers", 0, "index")), "chambers[0].index"),
        (chambers_obj_to_data, chambers_report_obj, _doctor(("chambers",), []), "chambers"),
    ],
)
def test_report_readers_reject_with_the_field_path(read, emitted, doctor, field):
    with pytest.raises(InvalidInput, match=f"^{re.escape(field)}: "):
        read(doctor(emitted()))


def test_report_reader_accepts_null_where_the_writer_emits_it():
    report = betti.build_betti_report(-1, 2, only_chamber=0)
    obj = json.loads(json.dumps(betti.report_to_json_obj(report)))
    assert obj["blowup_check"] is None and obj["u2d"]["via_bundle"] is None and obj["u2d"]["agree"] is None
    assert betti.report_from_json_obj(obj) == report


# -- verify-all ---------------------------------------------------------------------


def test_verify_all_golden_output():
    status, text = capture(["verify-all", "--grid", "3", "-6", "--seed", "7", "--models", "200"])
    assert status == 0
    assert text == (
        "grid: 12 cells checked, 0 failures\n"
        "wall endpoints: d in [-20, -1] checked\n"
        "stability suite: 600 models, 12092 checks, 135 ambiguous ties skipped, 0 failures\n"
        "verify-all: OK\n"
    )


def _raising(exc):
    def build_betti_report(d, g, only_chamber=None):
        raise exc

    return build_betti_report


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
