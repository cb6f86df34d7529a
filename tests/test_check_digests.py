"""scripts/check_digests.py reports a pass that hangs or prints nothing as
failed and exits 1, with the passes themselves replaced by stand-ins."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess

import pytest

from flipchain.cli import _read_plain

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


#: The CLI command lines the script pins; each one's sha256 is written in the script alone.
CLI_COMMANDS = [w for w, _ in load_script().PASSES[3:]]


def test_the_cli_passes_follow_the_benchmark_passes():
    script = load_script()
    assert [w for w, _ in script.PASSES[:3]] == ["betti_sweep", "verify_all", "cli_requests"]
    assert len(set(CLI_COMMANDS)) == len(CLI_COMMANDS)
    for command, digests in script.PASSES[3:]:
        assert _read_plain(command.split()) is not None, command  # no argparse: no help or error text
        assert len(digests) == 1 and re.fullmatch(r"[0-9a-f]{64}", digests[0]), command


@pytest.mark.parametrize("command", CLI_COMMANDS)
@pytest.mark.parametrize(
    "stdout, status", [(b"out\n", "ok"), (b"other\n", "DIGEST MISMATCH"), (b"", "PASS FAILED (no output)")]
)
def test_a_cli_pass_checks_the_sha256_of_its_whole_stdout(monkeypatch, capsys, command, stdout, status):
    script = load_script()
    seen = []

    def run(cmd, **kwargs):
        seen.append((cmd[1:], kwargs["timeout"]))
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr=b"")

    monkeypatch.setattr(script, "PASSES", ((command, [hashlib.sha256(b"out\n").hexdigest()]),))
    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.main() == (status != "ok")
    assert capsys.readouterr().out == f"{command} {status}\n"
    assert seen == [(["-m", "flipchain.cli", *command.split()], script.TIMEOUT_S)]
