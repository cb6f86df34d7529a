"""scripts/check_digests.py reports a pass that hangs or prints nothing as
failed and exits 1, with the passes themselves replaced by stand-ins."""

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
