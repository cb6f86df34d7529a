"""Check that every output is as it was: run the 21 untimed benchmark passes
(betti_sweep at seed 0, verify_all and cli_requests at seeds 0..9) one at a
time and compare each output digest with perfbench/reference.json, then
run eleven CLI commands and compare the sha256 of each one's whole stdout:
`verify-all` with its defaults and at `--seed 1` (the full stability suite,
where the passes run small ones), three that reach d = -100 where the
passes stop at d = -32 (`verify-all --grid 8 -100 --models 0` and the printed
polynomials of `betti --d -100 --json` at g = 2 and g = 8), the grid that a
speed claim about the Betti layer is measured on, `verify-all --grid 12 -200
--models 0` (about 8 s), the largest grid, `verify-all --grid 16 -300
--models 0` (30-40 s on a 2-core host, the slowest line), which grows the
closed route's table to n = 299 for every g up to 16, two JSON
reports larger than any pass writes (`chambers --d -100 --g 8 --json` and
`betti --d -40 --g 6 --chamber 25 --json`), one odd-degree report,
`betti --d -101 --g 3 --json`, whose bundle route divides by 1 - t^194, and
the one text-format report, `betti --d -45 --g 4`, which prints the bundle
route's `via lowest chamber` and the `terminal blow-up identity` verdicts.

    python3 scripts/check_digests.py

Prints one line per pass and exits 1 if any digest differs or any pass fails:
exits nonzero, prints nothing, or runs past TIMEOUT_S.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: (workload, seeds) for a benchmark pass, or (CLI command line, [sha256 of its stdout]).
PASSES = (("betti_sweep", [0]), ("verify_all", range(10)), ("cli_requests", range(10)),
          ("verify-all", ["43e924cbb2ab0aa2d221d44b2ed6d58de50027eee30309382e3371f67e51f8a1"]),
          ("verify-all --seed 1", ["79d5a7e187cf34df16b16d7a04ed1c027d449f523cdeb4cd8ee17982f21479fc"]),
          ("verify-all --grid 8 -100 --models 0", ["22494b8d69f13048b1cac39a8656f0d8bad40ba4a936f92ad2c103437bcdaddf"]),
          ("verify-all --grid 12 -200 --models 0", ["345b46bcf7df32019c1501cccfca1706a72b71c460d6ad28a41183b3ab7b0c07"]),
          ("verify-all --grid 16 -300 --models 0", ["8d9bf1c36faf8a7f85b5839a0c70b5c069e4030ed9b498b062a9724706519661"]),
          ("betti --d -100 --g 2 --json", ["a74b57efe9ca1826e2f31b56e078cb206b2e256ad3c755aa2e4d2a06c3fa58f0"]),
          ("betti --d -100 --g 8 --json", ["3e77f1660ad6621302fc944686d8989fb58be6d7b099bb1549baa19703c9a5e7"]),
          ("chambers --d -100 --g 8 --json", ["5a0ee1a39b90514ddbce2c2681d0e77da2bf2b3452223153db1dc5789c853525"]),
          ("betti --d -40 --g 6 --chamber 25 --json",
           ["a10d9c8852c329b34f764abf79975826692446500de5ec3d1bc8095f612d119f"]),
          ("betti --d -101 --g 3 --json", ["d304191038b6e49a76b5e993843fac955a03795b577bbdbb580ef2d65d9b07f9"]),
          ("betti --d -45 --g 4", ["e29864f62af8c77a2a056921bd67757e094567d5f052dd0760f68cc7a276f2bb"]))
#: Seconds one pass may take; the slowest, --grid 16 -300, takes 30-40 s on a 2-core host.
TIMEOUT_S = 300


def _status(proc: subprocess.CompletedProcess, want: str, digest) -> str:
    """"ok" when the pass exited 0 and digest(its stdout) is the wanted one."""
    if proc.returncode != 0:
        return f"PASS FAILED (exit {proc.returncode})"
    if not proc.stdout.splitlines():
        return "PASS FAILED (no output)"
    return "ok" if digest(proc.stdout) == want else "DIGEST MISMATCH"


def _last_line_digest(stdout) -> str:
    return json.loads(stdout.splitlines()[-1])["digest"]


def _sha256(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def main() -> int:
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)["full"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    bad = 0
    for w, seeds in PASSES:
        for n in seeds:
            if w in ref:
                # one_pass.py measures the sources under its working directory
                label, want, digest = f"{w} {n}", ref[w].get(str(n), ref[w].get("*")), _last_line_digest
                cmd = [sys.executable, os.path.join("perfbench", "one_pass.py"), "--workload", w, "--seed", str(n)]
            else:
                label, want, digest = w, n, _sha256
                cmd = [sys.executable, "-m", "flipchain.cli", *w.split()]
            try:
                proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=env, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                status = "PASS TIMED OUT"
            else:
                status = _status(proc, want, digest)
            bad += status != "ok"
            print(label, status, flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
