#!/usr/bin/env python3
"""Self-tests of the repository benchmark (see perfbench/README.md).

    python3 perfbench/selftest.py [--quick]

Run from the root of a checkout. Checks that
  * every workload runs at a tiny size (--seconds 1) and passes its gates;
  * every metric name in BENCHMARK.json is printed, untraced and traced
    (--quick skips the slower traced serve runs);
  * a deliberately perturbed golden makes each correctness gate fail:
    the tune digest, the serve outcome table and the served-report
    byte-identity check.
Exits 0 when every check held.
"""

import json
import os
import subprocess
import sys

WORK = os.path.join(".bench_build", "selftest")


def run(workload, trace=0, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return p.returncode, result, p.stderr


def perturb(src, dst, old, new):
    with open(src) as f:
        text = f.read()
    assert old in text, f"{old!r} not in {src}"
    with open(dst, "w") as f:
        f.write(text.replace(old, new, 1))
    return dst


def main():
    quick = "--quick" in sys.argv
    os.makedirs(WORK, exist_ok=True)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}", flush=True)
        if not ok:
            failures.append(name)

    for w in spec["workloads"]:
        for trace in (0, 1):
            if trace and quick and w["name"] != "tune":
                continue
            code, res, _ = run(w["name"], trace)
            key = "per_layer" if trace else "end_to_end"
            want = {m["name"] for m in spec[key]}
            check(f"{w['name']} trace={trace} runs and passes its gates",
                  code == 0 and res is not None and res["correct"])
            check(f"{w['name']} trace={trace} prints every {key} metric",
                  res is not None and set(res["metrics"]) == want)

    golden = perturb("perfbench/golden/tune_digest.txt",
                     os.path.join(WORK, "tune_digest.txt"),
                     "MV best inter-warp", "MV best intra-warp")
    code, res, err = run("tune", 0, ["--tune-golden", golden])
    check("perturbed tune digest fails the run",
          code != 0 and res is not None and not res["correct"]
          and "golden digest drift on MV" in err)

    table = perturb("perfbench/golden/serve_expected.txt",
                    os.path.join(WORK, "serve_expected.txt"),
                    "SS|32|succeeded|intra-warp", "SS|32|succeeded|inter-warp")
    code, res, err = run("serve-warm", 0, ["--serve-golden", table])
    check("perturbed serve outcome table fails the run",
          code != 0 and res is not None and not res["correct"]
          and "expected succeeded|inter-warp" in err)

    code, res, err = run("serve-warm", 0, ["--perturb-reference"])
    check("perturbed reference report fails the identity gate",
          code != 0 and res is not None and not res["correct"]
          and "differs from the in-process reference" in err)

    print("selftest:", "FAILED " + ", ".join(failures) if failures else "ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
