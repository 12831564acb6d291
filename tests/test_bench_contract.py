"""The benchmark's hooks into the program still hold.

`bench/tracer.py` wraps program functions by name, in their defining module
and in every module that imported them; a renamed or no longer imported name
would silently drop spans from `bench/run.py --trace 1`.  The CLI workloads
are gated on `bench/expected_cli.json`.  Nothing under `bench/` is modified.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensoralg.catalog  # every layer the tracer wraps is loaded before its snapshot
import tensoralg.cli
import tensoralg.verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load("tracer")
workloads = _load("workloads")


def _key(owner) -> str:
    return f"{owner.__module__}.{owner.__name__}" if isinstance(owner, type) else owner.__name__


def _snapshot() -> dict:
    """Every module global and class attribute of the program, by owner."""
    out = {}
    for name, module in sys.modules.items():
        if name == "tensoralg" or name.startswith("tensoralg."):
            out[name] = dict(vars(module))
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == name:
                    out[_key(value)] = dict(vars(value))
    return out


@pytest.mark.parametrize(
    "workload, constructions",
    [
        ("tensor-wide", 1),
        ("closure-deep", 1),
        ("verify-catalog", 2),
        # One per distinct pair: a full summand is its algebra's square, and
        # the sum of two full pairs is the square of the sum.  In item order:
        # r2|r2, r2|a1, r2|centre, a1|r2, a1|a1, a1|centre, centre|r2, centre|a1.
        pytest.param("kunneth-sums", (2, 3, 5, 3, 2, 5, 5, 5), id="kunneth-sums-per-item"),
    ],
)
def test_tracer_round_trip_and_cli_pass(workload, constructions, tmp_path):
    pins = workloads.load_pins()
    items = workloads.build_pass(workload, 0, 0, str(tmp_path), pins, identity=True)
    original = tensoralg.verify.construct_tensor
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _, module_name, path, _ in tracing.TARGETS:
            owner = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            assert vars(owner)[attr] is not before[_key(owner)][attr], path
        assert tensoralg.verify.construct_tensor is not original
        for (check, fn), (_, raw) in zip(tensoralg.verify._PAIR_CHECKS, before["tensoralg.verify"]["_PAIR_CHECKS"]):
            assert fn is not raw, check
        for item in items:
            tracer.item = item.name
            ok, _ = item.check(item.call())
            assert ok, item.name
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    per_item: dict = {}
    for name, _, _, _, item, _ in tracer.spans:
        if name == "tensor.construct_tensor":
            per_item[item] = per_item.get(item, 0) + 1
    counts = constructions if isinstance(constructions, tuple) else (constructions,) * len(items)
    assert per_item == {item.name: n for item, n in zip(items, counts, strict=True)}
    # Row reduction still runs through the traced names, so the per-layer
    # linalg metrics of every workload measure it.
    reductions = [sizes for name, _, _, _, _, sizes in tracer.spans if name == "linalg.Subspace.from_vectors"]
    assert reductions and all(set(sizes) == {"rows_in", "rank_out"} for sizes in reductions)
    assert any(sizes["rank_out"] > 0 for sizes in reductions)
    assert any(name == "linalg.kernel" for name, *_ in tracer.spans)


# In a fresh interpreter the package has read none of its lazily loaded names
# yet; the layers themselves are loaded, so the tracer wraps their functions.
_LEAK_PROBE = """
import json, sys
import tracer
import tensoralg, tensoralg.catalog, tensoralg.verify
names = ("verify_pair", "load_path")
assert not any(name in vars(tensoralg) for name in names)
t = tracer.Tracer()
t.install()
try:
    during = [getattr(tensoralg, name) for name in names]
finally:
    t.uninstall()
homes = [tensoralg.verify.verify_pair, tensoralg.catalog.load_path]
print(json.dumps({
    "wrapped while installed": [hasattr(f, "__wrapped__") for f in during],
    "shipped after uninstall": [getattr(tensoralg, name) is f for name, f in zip(names, homes)],
    "unwrapped homes": [not hasattr(f, "__wrapped__") for f in homes],
}))
"""


def test_a_tracer_does_not_leak_into_the_package():
    # The package resolves these names on each read and stores none, so a
    # first read under the tracer cannot keep its wrapper once it is gone.
    root = BENCH.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(BENCH)]))
    done = subprocess.run([sys.executable, "-c", _LEAK_PROBE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "wrapped while installed": [True, True],
        "shipped after uninstall": [True, True],
        "unwrapped homes": [True, True],
    }
