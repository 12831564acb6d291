"""The command line and the benchmark self-test, each run in a fresh interpreter.

A fresh interpreter imports the package in the order its entry point does, so
an import cycle between modules fails here even when the in-process tests,
which find the modules already loaded, pass.  The document layer, the psi map
and the verifier load on first use, so a cycle inside one of them shows only
when an entry point first reaches it: the modules each entry point loads are
pinned here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensoralg
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


ENGINE = ["tensoralg", "tensoralg.liealg", "tensoralg.linalg", "tensoralg.pairs", "tensoralg.tensor"]


def _cli(*argv: str) -> str:
    """What `python -m tensoralg.cli ARGV` runs: the module as __main__, which
    leaves no tensoralg.cli in sys.modules."""
    return (
        f"import runpy\nsys.argv = ['tensoralg', *{list(argv)!r}]\n"
        "try:\n    runpy.run_module('tensoralg.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as e:\n    assert not e.code, e.code\n"
    )


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import tensoralg, tensoralg.cli", ENGINE + ["tensoralg.cli"]),
        ("import tensoralg\nt = tensoralg.construct_tensor(tensoralg.pair_full(tensoralg.LieAlgebra.make(1, ['x'], {})))\n"
         "tensoralg.kappa_maps(t)", ENGINE),
        ("import tensoralg\ntensoralg.load_path(DOCUMENT)", ENGINE + ["tensoralg.catalog"]),
        (_cli("tensor", "builtin:pair_full(heisenberg(1))"), ENGINE + ["tensoralg.catalog"]),
        (_cli("validate", "builtin:heisenberg(1)"), ENGINE + ["tensoralg.catalog"]),
        (_cli("verify", "builtin:pair_full(heisenberg(1))"),
         ENGINE + ["tensoralg.catalog", "tensoralg.gamma", "tensoralg.verify"]),
    ],
    ids=["import", "construct", "load_path", "cli-tensor", "cli-validate", "cli-verify"],
)
def test_each_entry_point_loads_only_the_layers_it_reaches(code, loaded, tmp_path):
    document = tmp_path / "pair.json"
    document.write_text(json.dumps({"algebra": {"name": "h1", "dim": 3, "basis": ["x", "y", "z"],
                                                "brackets": {"x,y": {"z": "1"}}}, "ideal": "all"}))
    done = _run("-c", f"import json, sys\nDOCUMENT = {str(document)!r}\n{code}\n"
                      "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tensoralg'))))")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == sorted(loaded)


def test_every_exported_name_resolves_to_its_home_module():
    for name in tensoralg.__all__:
        value = getattr(tensoralg, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(tensoralg.__all__) <= set(dir(tensoralg))


def test_star_import_binds_every_exported_name():
    done = _run("-c", "from tensoralg import *\nprint(sorted(k for k in globals() if not k.startswith('_')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == repr(sorted(tensoralg.__all__))
    assert len(tensoralg.__all__) == 66


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'tensoralg' has no attribute 'verify_everything'"):
        tensoralg.verify_everything
