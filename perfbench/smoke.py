#!/usr/bin/env python3
"""Toy-scale smoke run of the benchmark of record.

    python3 perfbench/smoke.py

Runs every workload once at toy scale, which must pass its answer check,
and once with --corrupt-reference, which alters one reference answer (or,
for ingest, the id-row total a WAL must recover) after set-up, so the check
must fail: exit code 1 and "correct": false. Exits non-zero if either leg
behaves otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0", "--toy", *extra],
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    ok = True
    for workload in ("ingest", "audit", "serve"):
        code, result = run(workload)
        good = code == 0 and result is not None and result["correct"]
        code_bad, result_bad = run(workload, "--corrupt-reference")
        caught = (code_bad == 1 and result_bad is not None
                  and not result_bad["correct"])
        print(f"{workload}: clean run {'passes' if good else 'FAILS'}, "
              f"corrupted reference {'caught' if caught else 'NOT caught'}")
        ok = ok and good and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
