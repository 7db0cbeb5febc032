#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tune|serve-cold|serve-warm \
        --seed N --seconds S --trace 0|1 [perfbench options...]

Run from the root of a checkout. The first run builds the library, the
cudanp-cc daemon and the perfbench binary from this checkout's sources
into .bench_build/ (later runs rebuild incrementally). The last line of
stdout is the perfbench binary's JSON result; the exit code is 0 only when every
correctness gate held.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 175
REQUIRED = ["src/np/autotuner.hpp", "tools/cudanp_cc.cpp", "examples/tmv.cu",
            "perfbench/CMakeLists.txt"]


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed", 1)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed", 1)


def kill_session(sid):
    """SIGKILLs every process left in session `sid` (the perfbench
    binary, the daemon it spawned and the daemon's workers all live in
    it)."""
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            if int(fields[3]) == sid:
                os.kill(int(pid), signal.SIGKILL)
        except (OSError, IndexError, ValueError):
            pass


def check_metrics(result, trace):
    """The printed metric names must be exactly those BENCHMARK.json lists."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if want != got:
        fail(f"metric names differ from BENCHMARK.json: "
             f"missing {sorted(want - got)}, extra {sorted(got - want)}", 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["tune", "serve-cold", "serve-warm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail(f"not a cudanp checkout (missing {', '.join(missing)})")
    build()

    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--cc", os.path.join(BUILD_DIR, "cudanp-cc"),
           "--work", os.path.join(BUILD_DIR, "run-" + tag),
           "--trace-out", os.path.join(BUILD_DIR, "trace-" + tag + ".json")]
    proc = subprocess.Popen(cmd + extra, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_session(proc.pid)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        kill_session(proc.pid)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line", 1)
    check_metrics(result, args.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
