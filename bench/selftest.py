"""Show that the benchmark's output gate can fail.

    python3 bench/selftest.py

Runs one pass of closure-deep (closed-form pins) and one of verify-catalog
(CLI record pins) through the same gate that run.py uses: first with the pins
as committed, where error_rate must be 0, then with one expected value changed
in each, where error_rate must be above 0.  Exits 0 when both hold.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the program on sys.path)
from run import Pass  # noqa: E402


def error_rate(workload: str, workdir: str, pins: dict) -> float:
    run = Pass(workloads.build_pass(workload, 0, 0, workdir, pins, identity=True))
    for message in run.errors:
        print(f"  gate: {message}")
    return len(run.errors) / len(run.times)


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    pins = workloads.load_pins()
    try:
        clean = {w: error_rate(w, workdir, pins) for w in ("closure-deep", "verify-catalog")}
        print(f"pins as committed: error_rate {clean}")

        workloads.EXPECTED["pair_full(sl2)"] = (4, 0, 3, 0, 0)  # T is 3
        broken = copy.deepcopy(pins)
        record = broken["pair_full(abelian(1))"]["records"][0]
        record[1] = "fail" if record[1] == "pass" else "pass"
        changed = {
            "closure-deep": error_rate("closure-deep", workdir, pins),
            "verify-catalog": error_rate("verify-catalog", workdir, broken),
        }
        print(f"one expected value changed: error_rate {changed}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = all(v == 0 for v in clean.values()) and all(v > 0 for v in changed.values())
    print("gate self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
