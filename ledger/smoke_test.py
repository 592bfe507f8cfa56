#!/usr/bin/env python3
"""Smoke test of the ledger benchmark at tiny scale.

Usage, from the repository root:

    python3 ledger/smoke_test.py

For every workload in BENCHMARK.json it runs the driver for one second at
1/50 scale, untraced and traced, and checks that the result line names
every end-to-end (untraced) or per-layer (traced) metric with its unit, as
a finite number, with no failed operation. Then it plants a wrong value
behind the clients' backs and checks that the oracle reports it: the run
must fail, with correct = false and at least one failed operation.
Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(result, expected):
    problems = []
    got = result["metrics"]
    for m in expected:
        entry = got.get(m["name"])
        if entry is None:
            problems.append("missing metric %s" % m["name"])
        elif entry.get("unit") != m["unit"]:
            problems.append("%s has unit %r, want %r" %
                            (m["name"], entry.get("unit"), m["unit"]))
        elif not math.isfinite(entry.get("value", float("nan"))):
            problems.append("%s is not a finite number" % m["name"])
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append("unlisted metrics: %s" % ", ".join(sorted(extra)))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s trace=%d" % (w["name"], trace)
            code, result, err = run(w["name"], trace)
            if code != 0 or result is None:
                failures.append("%s: exit %d\n%s" % (label, code, err[-2000:]))
                continue
            problems = check_metrics(result, bench[key])
            if not result["correct"] or result["failed"] != 0:
                problems.append("fail_ratio %d/%d, correct=%s" %
                                (result["failed"], result["attempted"],
                                 result["correct"]))
            failures += ["%s: %s" % (label, p) for p in problems]
            print("%s: %s" % (label, "ok" if not problems else "FAILED"))

        label = "%s planted wrong result" % w["name"]
        code, result, _ = run(w["name"], 0, "--plant-wrong-result")
        caught = (code != 0 and result is not None and not result["correct"]
                  and result["failed"] >= 1)
        if not caught:
            failures.append("%s: not caught (exit %d, result %s)" %
                            (label, code, result))
        print("%s: %s" % (label, "caught" if caught else "NOT CAUGHT"))

    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
