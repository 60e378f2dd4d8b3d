#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload varmail-strict --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark program (perfbench/perfbench.ml) is built with dune inside
the tree, then run with the same arguments plus the host's processor count
and source commit for its meta block. Its last line of standard output is
the JSON result. The exit code is the program's: 0 when every output check
passed. A tree without the simulator's sources fails to build, and this
script then exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["varmail-strict", "zipf-rw", "crash-strict"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("not a source tree of the simulator: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune() + ["build", "--root", ".", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def commit():
    """The source commit, if this tree is itself a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=20)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=20)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run(args):
    try:
        return subprocess.run([EXE] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run timed out", 3)


def catalogue_matches():
    """BENCHMARK.json must name exactly the metrics the program prints."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    out = subprocess.run([EXE, "--list-metrics"], capture_output=True,
                         text=True, timeout=60).stdout.strip().splitlines()[-1]
    have = json.loads(out)
    ok = True
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[key]]
        got = [(m["name"], m["unit"]) for m in have[key]]
        same = want == got
        print("selftest %-58s %s" % ("BENCHMARK.json " + key + " matches program",
                                     "ok" if same else "FAIL"))
        ok = ok and same
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")
    build()
    if a.selftest:
        code = run(["--selftest"])
        ok = catalogue_matches()
        sys.exit(code if code != 0 else (0 if ok else 1))
    sys.exit(run(["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--trace", str(a.trace),
                  "--nproc", str(nproc()), "--commit", commit()]))


if __name__ == "__main__":
    main()
