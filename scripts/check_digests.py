"""Check that every output is as it was: run the 21 untimed benchmark passes
(betti_sweep at seed 0, verify_all and cli_requests at seeds 0..9) one at a
time and compare each output digest with perfbench/reference.json, then run
the CLI command lines of the `script` section of tests/pinned.json and
compare each one's whole stdout with its pinned lines or sha256.  Those reach
past the passes, which stop at d = -32: the slowest, `verify-all --grid 16
-300 --models 0`, takes 30-45 s on a 2-core host.

    python3 scripts/check_digests.py

Prints one line per pass, and after a differing CLI stdout a unified diff
of its pinned lines or both sha256s; exits 1 if any output differs or any
pass fails: exits nonzero, prints nothing, or runs past TIMEOUT_S.
"""

import difflib
import hashlib
import json
import os
import subprocess
import sys
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "tests", "pinned.json"), encoding="utf-8") as fh:
    #: {"tier1" or "script": {command line: its stdout's lines, or "sha256:<hex>" of it}}
    PINNED = json.load(fh)
#: (workload, seeds) for a benchmark pass, or (CLI command line, [its pinned stdout]).
PASSES = (("betti_sweep", [0]), ("verify_all", range(10)), ("cli_requests", range(10)),
          *((command, [want]) for command, want in PINNED["script"].items()))
#: Seconds one pass may take; the slowest, --grid 16 -300, takes 30-45 s on a 2-core host.
TIMEOUT_S = 300


def mismatch(want, stdout: str) -> Optional[str]:
    """None when stdout is the pinned output want, a list of its lines or "sha256:<hex>" of it;
    otherwise how it differs: a unified diff of the lines, or both sha256s."""
    if isinstance(want, list):
        wanted = "".join(line + "\n" for line in want)
        if stdout == wanted:
            return None
        return "".join(difflib.unified_diff(wanted.splitlines(True), stdout.splitlines(True), "pinned", "stdout"))
    got = "sha256:" + hashlib.sha256(stdout.encode()).hexdigest()
    return None if got == want else f"pinned {want}\nstdout {got}\n"


def _status(proc: subprocess.CompletedProcess, want, benchmark: bool) -> tuple:
    """("ok", None) when the pass exited 0 with the wanted output, else its status line and, for an
    output that differs, how: the mismatch of a CLI stdout, or a benchmark pass's digest and the one wanted."""
    if proc.returncode != 0:
        return f"PASS FAILED (exit {proc.returncode})", None
    if not proc.stdout.splitlines():
        return "PASS FAILED (no output)", None
    if benchmark:
        got = json.loads(proc.stdout.splitlines()[-1])["digest"]
        diff = None if got == want else f"pinned {want}\nstdout {got}\n"
    else:
        diff = mismatch(want, proc.stdout.decode(errors="replace"))
    return ("DIGEST MISMATCH", diff) if diff else ("ok", None)


def main() -> int:
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)["full"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    bad = 0
    for w, seeds in PASSES:
        for n in seeds:
            if w in ref:
                # one_pass.py measures the sources under its working directory
                label, want = f"{w} {n}", ref[w].get(str(n), ref[w].get("*"))
                cmd = [sys.executable, os.path.join("perfbench", "one_pass.py"), "--workload", w, "--seed", str(n)]
            else:
                label, want = w, n
                cmd = [sys.executable, "-m", "flipchain.cli", *w.split()]
            try:
                proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=env, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                status, diff = "PASS TIMED OUT", None
            else:
                status, diff = _status(proc, want, w in ref)
            bad += status != "ok"
            print(label, status, flush=True)
            if diff:
                print(diff, end="", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
