"""Regenerate bench/expected_cli.json, the pinned CLI outputs.

    python3 bench/pin_cli.py

Runs every verify-catalog and kunneth-sums item once in the catalog basis and
records its exit code and each record's (check, status, asserted, dims).
Those fields do not depend on the basis, so the pins hold for every seed.
Run it only when a change to the program is meant to change these outputs,
and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the program on sys.path)


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_work", f"pin-{os.getpid()}")
    os.makedirs(workdir)
    pins = {}
    try:
        for workload in ("verify-catalog", "kunneth-sums"):
            for item in workloads.build_pass(workload, 0, 0, workdir, {}, identity=True):
                code = item.call()
                with open(item.out, encoding="utf-8") as fh:
                    records = workloads.cli_records(fh.read())
                pins[item.name] = {"exit": code, "records": records}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} items in {os.path.relpath(workloads.PINS_PATH, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
