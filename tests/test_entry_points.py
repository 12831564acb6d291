"""The command line and the benchmark self-test, each run in a fresh interpreter.

A fresh interpreter imports the package in the order its entry point does, so
an import cycle between modules fails here even when the in-process tests,
which find the modules already loaded, pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from tensoralg.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_cli_module_runs_in_a_fresh_interpreter(capsys):
    argv = ["verify", "--machine", "builtin:pair_full(heisenberg(1))"]
    done = _run("-m", "tensoralg.cli", *argv)
    assert (done.returncode, done.stderr) == (0, "")
    # the records are those pinned for the benchmark's CLI items
    pins = json.loads((ROOT / "bench" / "expected_cli.json").read_text(encoding="utf-8"))
    payload = json.loads(done.stdout)
    records = sorted([r["check"], r["status"], r["asserted"], r["dims"]] for r in payload["records"])
    assert records == pins["pair_full(heisenberg(1))"]["records"]
    assert {r["pair"] for r in payload["records"]} == {argv[-1]}
    # and the text is what the same command prints in process
    assert main(argv) == 0
    assert capsys.readouterr().out == done.stdout


def test_bench_selftest_passes_in_a_fresh_interpreter():
    done = _run(os.path.join("bench", "selftest.py"))
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("gate self-test passed")
