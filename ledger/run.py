#!/usr/bin/env python3
"""Builds the ledger benchmark from this checkout's sources and runs it.

Usage, from the repository root:

    python3 ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ledger (configured once, then rebuilt
incrementally); build output goes to stderr so the last line of stdout is
the benchmark's JSON result. Extra flags (--tiny, --plant-wrong-result)
pass through to the driver. Exits non-zero without a result when the
engine sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
WORK = os.path.join(ROOT, ".bench_build", "ledger_work")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("ledger: no src/ next to the benchmark; nothing to build\n")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("ledger: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 2
    cmd = [os.path.join(BUILD, "ledger"), "--work-dir", WORK] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
