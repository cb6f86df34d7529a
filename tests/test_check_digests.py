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


#: The CLI command lines the script pins, each with the sha256 of its whole stdout.
CLI_PASSES = {
    "verify-all": "43e924cbb2ab0aa2d221d44b2ed6d58de50027eee30309382e3371f67e51f8a1",
    "verify-all --seed 1": "79d5a7e187cf34df16b16d7a04ed1c027d449f523cdeb4cd8ee17982f21479fc",
    "verify-all --grid 8 -100 --models 0": "22494b8d69f13048b1cac39a8656f0d8bad40ba4a936f92ad2c103437bcdaddf",
    "betti --d -100 --g 2 --json": "a74b57efe9ca1826e2f31b56e078cb206b2e256ad3c755aa2e4d2a06c3fa58f0",
    "betti --d -100 --g 8 --json": "3e77f1660ad6621302fc944686d8989fb58be6d7b099bb1549baa19703c9a5e7",
    "chambers --d -100 --g 8 --json": "5a0ee1a39b90514ddbce2c2681d0e77da2bf2b3452223153db1dc5789c853525",
    "betti --d -40 --g 6 --chamber 25 --json": "a10d9c8852c329b34f764abf79975826692446500de5ec3d1bc8095f612d119f",
}


def test_the_cli_passes_follow_the_benchmark_passes():
    script = load_script()
    assert [w for w, _ in script.PASSES[:3]] == ["betti_sweep", "verify_all", "cli_requests"]
    assert {w: digest for w, (digest,) in script.PASSES[3:]} == CLI_PASSES


@pytest.mark.parametrize("command", sorted(CLI_PASSES))
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
