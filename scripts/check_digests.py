"""Check that every output is as it was: run the 21 untimed benchmark passes
(betti_sweep at seed 0, verify_all and cli_requests at seeds 0..9) one at a
time and compare each output digest with perfbench/reference.json.

    python3 scripts/check_digests.py

Prints one line per pass and exits 1 if any digest differs or any pass fails:
exits nonzero, prints nothing, or runs past TIMEOUT_S.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSES = (("betti_sweep", [0]), ("verify_all", range(10)), ("cli_requests", range(10)))
#: Seconds one pass may take; each takes a few seconds on a 2-core host.
TIMEOUT_S = 300


def _status(proc: subprocess.CompletedProcess, want: str) -> str:
    """"ok" when the pass exited 0 and its last stdout line holds the wanted digest."""
    if proc.returncode != 0:
        return f"PASS FAILED (exit {proc.returncode})"
    lines = proc.stdout.splitlines()
    if not lines:
        return "PASS FAILED (no output)"
    return "ok" if json.loads(lines[-1])["digest"] == want else "DIGEST MISMATCH"


def main() -> int:
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)["full"]
    bad = 0
    for w, seeds in PASSES:
        for n in seeds:
            want = ref[w].get(str(n), ref[w].get("*"))
            try:
                # one_pass.py measures the sources under its working directory
                proc = subprocess.run([sys.executable, os.path.join("perfbench", "one_pass.py"), "--workload", w,
                                       "--seed", str(n)], capture_output=True, text=True, cwd=ROOT, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                status = "PASS TIMED OUT"
            else:
                status = _status(proc, want)
            bad += status != "ok"
            print(w, n, status, flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
