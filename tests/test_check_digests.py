"""scripts/check_digests.py reports a pass that hangs or prints nothing as
failed and exits 1, and shows how an output differs from its pin, with the
passes themselves replaced by stand-ins."""

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


with open(os.path.join(os.path.dirname(SCRIPT), os.pardir, "perfbench", "reference.json"), encoding="utf-8") as fh:
    #: The reference digest of every betti_sweep pass.
    SWEEP_DIGEST = json.load(fh)["full"]["betti_sweep"]["*"]


def timed_out(cmd, **kwargs):
    raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])


@pytest.mark.parametrize(
    "run, status",
    [
        (timed_out, "PASS TIMED OUT"),
        (lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, 0, stdout="", stderr=""), "PASS FAILED (no output)"),
        (lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, 3, stdout="", stderr=""), "PASS FAILED (exit 3)"),
        (lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, 0, stdout='{"digest": "0"}\n', stderr=""),
         f"DIGEST MISMATCH\npinned {SWEEP_DIGEST}\nstdout 0"),
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
    seen = []

    def run(cmd, **kwargs):
        seen.append(kwargs["timeout"])
        return subprocess.CompletedProcess(cmd, 0, stdout=f'{{"digest": "{SWEEP_DIGEST}"}}\n', stderr="")

    monkeypatch.setattr(script, "PASSES", (("betti_sweep", [0]),))
    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.main() == 0
    assert capsys.readouterr().out == "betti_sweep 0 ok\n"
    assert seen == [script.TIMEOUT_S]


#: The CLI command lines the script pins, each with its stdout in the registry's script section alone.
CLI_COMMANDS = list(load_script().PINNED["script"])


def test_the_cli_passes_follow_the_benchmark_passes():
    script = load_script()
    assert [w for w, _ in script.PASSES[:3]] == ["betti_sweep", "verify_all", "cli_requests"]
    assert [w for w, _ in script.PASSES[3:]] == CLI_COMMANDS


@pytest.mark.parametrize("section", ["tier1", "script"])
def test_each_pin_is_its_stdout_lines_or_their_sha256(section):
    for command, want in load_script().PINNED[section].items():
        assert _read_plain(command.split()) is not None, command  # no argparse: no help or error text
        if isinstance(want, list):
            assert want and all(type(line) is str and "\n" not in line for line in want), command
        else:
            assert re.fullmatch(r"sha256:[0-9a-f]{64}", want), command


OUT_DIGEST, OTHER_DIGEST = ("sha256:" + hashlib.sha256(stdout).hexdigest() for stdout in (b"out\n", b"other\n"))


@pytest.mark.parametrize("command", CLI_COMMANDS)
@pytest.mark.parametrize(
    "stdout, status",
    [(b"out\n", "ok"),
     (b"other\n", f"DIGEST MISMATCH\npinned {OUT_DIGEST}\nstdout {OTHER_DIGEST}"),
     (b"", "PASS FAILED (no output)")],
)
def test_a_cli_pass_checks_the_sha256_of_its_whole_stdout(monkeypatch, capsys, command, stdout, status):
    script = load_script()
    seen = []

    def run(cmd, **kwargs):
        seen.append((cmd[1:], kwargs["timeout"]))
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr=b"")

    monkeypatch.setattr(script, "PASSES", ((command, [OUT_DIGEST]),))
    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.main() == (status != "ok")
    assert capsys.readouterr().out == f"{command} {status}\n"
    assert seen == [(["-m", "flipchain.cli", *command.split()], script.TIMEOUT_S)]


def test_a_text_pin_that_differs_by_one_line_prints_its_unified_diff(monkeypatch, capsys):
    script = load_script()
    pinned = script.PINNED["script"]["verify-all"]
    k = next(k for k, line in enumerate(pinned) if " checks, " in line)  # the stability suite's line
    changed = pinned[:k] + [pinned[k].replace(" checks, ", "1 checks, ")] + pinned[k + 1:]

    def run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout="".join(line + "\n" for line in changed).encode(),
                                           stderr=b"")

    monkeypatch.setattr(script, "PASSES", (("verify-all", [pinned]),))
    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["verify-all DIGEST MISMATCH", "--- pinned", "+++ stdout"]
    assert [line for line in lines[3:] if line[:1] in "-+"] == ["-" + pinned[k], "+" + changed[k]]
