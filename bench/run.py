"""tensoralg benchmark: one workload, one process, one caller in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The run sets up (imports the program and writes the first
pass's inputs), then runs passes over the workload's item list until the next
pass would end after S seconds.  Every item's output is checked against its
pinned value.  Each metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

End-to-end times are wall-clock times scaled to a reference machine speed:
a fixed slice of pure-Python rational arithmetic runs before the first item
of each pass and after every item, and each item's time is multiplied by
REF_SCALE / (mean of the slice just before it and the slice just after it).
On a shared machine whose speed drifts by 1.5x over tens of seconds, this
keeps runs comparable; the unscaled wall times are printed next to the
scaled ones.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes over identical inputs, checks that their outputs are identical
byte for byte, reports the per-layer metrics, and writes the spans to
.bench_work/trace-<workload>-seed<N>.jsonl.  bench/METRICS.md lists the
workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import tracer as tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("tensor-wide", "closure-deep", "verify-catalog", "kunneth-sums")

SETUP_SAMPLES = 7  # set-ups timed per run, each in a fresh interpreter; setup_s is their median
SETUP_SLICES = 5  # reference slices after each set-up, to scale it
REF_SCALE = 0.01  # seconds a reference slice takes at the reference speed
# item_s.tail is the highest multiple of 5 percent that leaves at least ten
# samples beyond it at the item count a 28 s run reaches on the seed code
# (about 20, 40, 140 and 65 items).  It is fixed per workload so that a
# faster commit, which fits more passes in a run, reports the same percentile.
TAIL_PERCENTILE = {"tensor-wide": 50, "closure-deep": 75, "verify-catalog": 90, "kunneth-sums": 80}

# Per-layer metric names and how each is computed from one traced pass.
PER_LAYER_SECONDS = (
    "tensor.construct_tensor.s", "tensor.construct_tensor.self_s",
    "tensor.kappa_maps.s", "tensor.kappa_maps.self_s",
    "tensor.relation_seed.s", "tensor.closure.s", "tensor.closure.self_s",
    "liealg.validate_structure.s", "liealg.LieAlgebra.make.s", "liealg.center.s",
    "linalg.Subspace.from_vectors.self_s", "linalg.Subspace.contains.self_s",
    "linalg.LinearMap.apply.self_s", "linalg.kernel.self_s",
    "pairs.direct_sum_pair.s",
    "gamma.psi_map.s", "gamma.psi_welldefined.s",
    "verify.verify_diagram.s", "verify.verify_ker_pi.s", "verify.verify_diagonal_descent.s",
    "verify.verify_splitting.s", "verify.verify_j2_decomposition.s",
    "verify.verify_abelian_basis.s", "verify.verify_kunneth.s",
    "catalog.serialize_report.s", "cli.main.self_s",
)
PER_LAYER_COUNTS = (
    "tensor.construct_tensor.calls", "tensor.closure.rref_calls",
    "liealg.validate_structure.calls",
    "linalg.Subspace.from_vectors.calls", "linalg.from_vectors.rows_in", "linalg.from_vectors.rank_out",
    "linalg.Subspace.contains.calls", "linalg.LinearMap.apply.calls", "linalg.kernel.calls",
)
PER_ITEM_COUNTS = ("tensor.construct_tensor.calls", "pairs.quotient_pair.calls")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def reference_slice() -> float:
    """Wall seconds for a fixed slice of rational arithmetic, the program's kind of work."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


def setup(workload: str, seed: int, workdir: str):
    """Import the program and build pass 0.

    Returns (scaled seconds, wall seconds, module, pins, items)."""
    start = time.perf_counter()
    import workloads  # imports tensoralg; its import time is part of set-up

    pins = workloads.load_pins()
    items = workloads.build_pass(workload, seed, 0, workdir, pins)
    wall = time.perf_counter() - start
    speed = statistics.median(reference_slice() for _ in range(SETUP_SLICES))
    return wall * REF_SCALE / speed, wall, workloads, pins, items


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(scaled, wall) set-up seconds measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    scaled, wall = done.stdout.split()[-2:]
    return float(scaled), float(wall)


class Pass:
    """Timings and outcomes of one pass over the items.

    `wall` holds each item's wall seconds and `slices` the reference slices
    run before the first item and after each item, so item k ran between
    slices k and k + 1; `times` holds the item times scaled by them."""

    def __init__(self, items, tracer=None):
        self.names = [item.name for item in items]
        self.wall: list[float] = []
        self.texts: list[str | None] = []
        self.errors: list[str] = []
        gc.collect()
        started = time.perf_counter()
        slices = [reference_slice()]
        for item in items:
            if tracer is not None:
                tracer.item = item.name
            start = time.perf_counter()
            try:
                result = item.call()
            except Exception:
                result, raised = None, traceback.format_exc(limit=3)
            else:
                raised = None
            self.wall.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.item = None
            text = None
            if raised is not None:
                self.errors.append(f"{item.name}: raised\n{raised}")
            else:
                try:
                    ok, text = item.check(result)
                except Exception:
                    ok = False
                    self.errors.append(f"{item.name}: output unreadable\n{traceback.format_exc(limit=3)}")
                else:
                    if not ok:
                        self.errors.append(f"{item.name}: output differs from its pinned value")
            self.texts.append(text)
            slices.append(reference_slice())
        self.elapsed = time.perf_counter() - started
        self.slices = slices
        self.times = [wall * 2 * REF_SCALE / (slices[k] + slices[k + 1]) for k, wall in enumerate(self.wall)]

    @property
    def seconds(self) -> float:
        return sum(self.times)


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def report(metrics: dict, attempted: int, failed: int, errors: list[str]) -> None:
    for message in errors[:20]:
        print(f"bench: {message}", file=sys.stderr)
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} items)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def run_plain(args, wl, pins, items, setups: list[tuple[float, float]]) -> None:
    start = time.perf_counter()
    passes = []
    index = 0
    while True:
        passes.append(Pass(items))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.elapsed for p in passes) > args.seconds:
            break
        items = wl.build_pass(args.workload, args.seed, index, args.workdir, pins)
    item_times = [t for p in passes for t in p.times]
    per_item: dict[str, list[float]] = {}
    for p in passes:
        for name, t in zip(p.names, p.times):
            per_item.setdefault(name, []).append(t)
    p50 = statistics.median(statistics.median(v) for v in per_item.values())
    tail = TAIL_PERCENTILE[args.workload]
    # A tail at p50 is the median itself, so it takes the median's estimator.
    tail_s = p50 if tail == 50 else percentile(item_times, tail)
    metrics = {
        "pass_s": (statistics.median(p.seconds for p in passes), "s"),
        "item_s.p50": (p50, "s"),
        "item_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    speed = statistics.median(t for p in passes for t in p.slices) / REF_SCALE
    notes = {
        "pass_s": f"median of {len(passes)} passes; {statistics.median(sum(p.wall) for p in passes):.6g} s wall",
        "item_s.p50": f"median over {len(per_item)} items of each item's median over its {len(passes)} runs",
        "item_s.tail": f"p{tail} of {len(item_times)} item runs, {sum(1 for t in item_times if t > tail_s)} beyond it",
        "setup_s": f"median of {len(setups)} set-ups in fresh interpreters; "
                   f"{statistics.median(wall for _, wall in setups):.6g} s wall",
        "peak_rss_mib": "high-water resident memory of this process",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({notes[name]})")
    print(f"machine speed: reference slice took {speed:.4g} x {REF_SCALE} s (median of the run)")
    errors = [e for p in passes for e in p.errors]
    report(metrics, len(item_times), len(errors), errors)


def run_traced(args, wl, pins, items) -> None:
    pairs, pair_s, seconds, counts, spans_out = [], [], [], [], []
    attempted, errors = 0, []
    start = time.perf_counter()
    index = 0
    while True:
        runs = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            tracer = tracing.Tracer() if traced else None
            if tracer is not None:
                tracer.install()
                tracer.item = "setup"
            if index > 0 or traced:
                items = wl.build_pass(args.workload, args.seed, index, args.workdir, pins)
            built = len(tracer.spans) if tracer is not None else 0
            try:
                runs[traced] = Pass(items, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            attempted += len(items)
            errors.extend(runs[traced].errors)
            if tracer is not None:
                s, c = tracing.aggregate(tracer.spans, built)
                setup_make = tracing.aggregate(tracer.spans[:built])[0].get("pairs.make_pair.s", 0.0)
                s["pairs.make_pair.s"] = s.get("pairs.make_pair.s", 0.0) + setup_make
                seconds.append(s)
                counts.append(c)
                spans_out.append((index, tracer.spans))
        plain, traced_pass = runs[False], runs[True]
        pairs.append((plain, traced_pass))
        pair_s.append(plain.elapsed + traced_pass.elapsed)
        for k, (a, b) in enumerate(zip(plain.texts, traced_pass.texts)):
            if a != b:
                errors.append(f"item {k} of pass {index}: traced output differs from untraced output")
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pair_s) > args.seconds:
            break

    n_items = len(items)
    first = counts[0]
    metrics = {}
    for name in PER_LAYER_SECONDS + ("pairs.make_pair.s",):
        metrics[name] = (statistics.median(s.get(name, 0.0) for s in seconds), "s")
    metrics["catalog.load.s"] = (statistics.median(
        s.get("catalog.load_path.s", 0.0) + s.get("catalog.resolve_selector.s", 0.0) for s in seconds), "s")
    for name in PER_LAYER_COUNTS:
        metrics[name] = (first.get(name, 0), "count")
    for name in PER_ITEM_COUNTS:
        metrics[name.replace(".calls", ".calls_per_item")] = (first.get(name, 0) / n_items, "count")
    rows_in = first.get("linalg.from_vectors.rows_in", 0)
    metrics["linalg.from_vectors.yield"] = (
        first.get("linalg.from_vectors.rank_out", 0) / rows_in if rows_in else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(t.seconds for _, t in pairs) - statistics.median(p.seconds for p, _ in pairs), "s")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"traced passes: {len(seconds)} (seconds are medians over them; counts are from pass 0)")
    print("counts: " + json.dumps(first, sort_keys=True))
    varying = sorted(k for k in first if any(c.get(k) != first[k] for c in counts))
    print("counts that vary between passes: " + (", ".join(varying) or "none"))
    sizes = tracing.item_sizes(spans_out[0][1])
    totals = {}
    for item, rows in sorted(sizes.items()):
        distinct = sorted({json.dumps(r, sort_keys=True) for r in rows})
        print(f"size {item}: {len(rows)} constructions; " + "; ".join(distinct))
        for r in rows:
            for key, value in r.items():
                totals[f"size.{key}"] = totals.get(f"size.{key}", 0) + (value or 0)
    print("size totals per pass: " + json.dumps(totals, sort_keys=True))

    path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for index, spans in spans_out:
            for name, begin, end, parent, item, size in spans:
                fh.write(json.dumps({"pass": index, "name": name, "start": begin, "end": end,
                                     "parent": parent, "item": item, "sizes": size}) + "\n")
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    report(metrics, attempted, len(errors), errors)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "tensoralg", "__init__.py")):
        return fail(f"no program to measure: {os.path.join(SRC, 'tensoralg')} is missing")
    sys.path.insert(0, SRC)
    args.workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(args.workdir)
    try:
        scaled, wall, wl, pins, items = setup(args.workload, args.seed, args.workdir)
        if os.path.dirname(os.path.dirname(os.path.abspath(wl.tensoralg.__file__))) != SRC:
            return fail(f"tensoralg was imported from {wl.tensoralg.__file__}, not from {SRC}")
        if args.setup_probe:
            print(scaled, wall)
            return 0
        if args.trace:
            run_traced(args, wl, pins, items)
        else:
            setups = [(scaled, wall)] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
            run_plain(args, wl, pins, items, setups)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
