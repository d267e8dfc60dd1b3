#!/usr/bin/env python3
"""Wall-clock benchmark of the Prompt micro-batch engine.

Usage (from the repository root):

    python3 wallbench/run.py --workload wordcount_z1 --seed 1 --seconds 25 --trace 0
    python3 wallbench/run.py --selftest

Builds the engine and the harness from source into .bench_build/ (CMake,
Release -O2), runs one workload, and relays the harness output. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports the end-to-end metrics and --trace 1 the
per-layer metrics of a separate traced run. Build output goes to stderr.
A failed build or a failed run exits non-zero without printing a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "wallbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return None
    binary = os.path.join(BUILD, "wallbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("wallbench: no engine sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("wallbench: build failed", file=sys.stderr)
        return 3

    out_dir = os.path.join(BUILD_ROOT, "out")
    if args.selftest:
        cmd = [binary, "--selftest", "--out-dir", out_dir]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("wallbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    if proc.returncode != 0:
        sys.stderr.write(out)
        print("wallbench: harness exited with %d" % proc.returncode,
              file=sys.stderr)
        return 5
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
