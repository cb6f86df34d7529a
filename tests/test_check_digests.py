"""scripts/check_digests.py reports a pass that hangs or prints nothing as
failed and exits 1, with the passes themselves replaced by stand-ins."""

import hashlib
import importlib.util
import json
import os
import subprocess

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "check_digests.py")


def load_script():
    spec = importlib.util.spec_from_file_location("check_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timed_out(cmd, **kwargs):
    raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])


@pytest.mark.parametrize(
    "run, status",
    [
        (timed_out, "PASS TIMED OUT"),
        (lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, 0, stdout="", stderr=""), "PASS FAILED (no output)"),
        (lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, 3, stdout="", stderr=""), "PASS FAILED (exit 3)"),
        (lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, 0, stdout='{"digest": "0"}\n', stderr=""),
         "DIGEST MISMATCH"),
    ],
)
def test_a_pass_that_does_not_yield_the_digest_fails_the_check(monkeypatch, capsys, run, status):
    script = load_script()
    monkeypatch.setattr(script, "PASSES", (("betti_sweep", [0]),))
    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.main() == 1
    assert capsys.readouterr().out == f"betti_sweep 0 {status}\n"


def test_each_pass_has_a_timeout(monkeypatch, capsys):
    script = load_script()
    with open(os.path.join(script.ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
        digest = json.load(fh)["full"]["betti_sweep"]["*"]
    seen = []

    def run(cmd, **kwargs):
        seen.append(kwargs["timeout"])
        return subprocess.CompletedProcess(cmd, 0, stdout=f'{{"digest": "{digest}"}}\n', stderr="")

    monkeypatch.setattr(script, "PASSES", (("betti_sweep", [0]),))
    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.main() == 0
    assert capsys.readouterr().out == "betti_sweep 0 ok\n"
    assert seen == [script.TIMEOUT_S]


@pytest.mark.parametrize(
    "stdout, status", [(b"grid\n", "ok"), (b"other\n", "DIGEST MISMATCH"), (b"", "PASS FAILED (no output)")]
)
def test_the_grid_line_checks_the_sha256_of_the_whole_stdout(monkeypatch, capsys, stdout, status):
    script = load_script()
    (args, [digest]), = script.PASSES[-1:]
    seen = []

    def run(cmd, **kwargs):
        seen.append((cmd[1:], kwargs["timeout"]))
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr=b"")

    monkeypatch.setattr(script, "PASSES", ((args, [hashlib.sha256(b"grid\n").hexdigest()]),))
    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.main() == (status != "ok")
    assert capsys.readouterr().out == f"verify-all --grid 8 -100 --models 0 {status}\n"
    assert seen == [(["-m", "flipchain.cli", "verify-all", "--grid", "8", "-100", "--models", "0"], script.TIMEOUT_S)]
    assert digest == "22494b8d69f13048b1cac39a8656f0d8bad40ba4a936f92ad2c103437bcdaddf"
