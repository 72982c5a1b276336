#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload solve|serve-durable \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe with dune (into
_build/ of the current directory), runs it with the given arguments and
passes its output through. The program's last stdout line is the JSON
result; this wrapper checks that it carries exactly the metric set
BENCHMARK.json declares for the requested --trace mode, and exits
nonzero when the build fails, the program fails, or the check fails.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# Ring slots per recording domain for the traced run: enough that no
# span of a run is overwritten (the program checks it).
TRACE_RING = "262144"


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune + ["build", "--root", ".", "./perfbench/main.exe"]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0 and os.path.exists(EXE)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]


def main(argv):
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv[:-1] else None
    if not os.path.exists("BENCHMARK.json") or not os.path.isdir("lib"):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ)
    if trace == "1":
        env["AA_TRACE_RING"] = TRACE_RING
    proc = subprocess.run([EXE] + argv, env=env, stdout=subprocess.PIPE, text=True)
    out = proc.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    want = expected_metrics(trace)
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(want):
        print("perfbench: metric set differs from BENCHMARK.json: missing %s, extra %s"
              % (sorted(set(want) - set(got)), sorted(set(got) - set(want))),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
