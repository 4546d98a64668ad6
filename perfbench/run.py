#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_city --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with no instrumentation.  ``--trace 1`` runs the workload twice in one
process — untraced, then with spans around every layer boundary — and
reports the per-layer metrics plus ``trace.overhead_pct``, the traced
pass's throughput loss against the untraced one.

The program is imported from ``src/`` of the checkout; nothing is
installed.  Each run also leaves a record (stamps, input digests,
metrics, workload detail, the first failures) and, when traced, its
spans under ``.perfbench/runs/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "serve_city", "fleet_dashboard", "continual")
#: Environment variables that size the BLAS pool, and the pinned size:
#: two fleet replicas at OpenBLAS's default oversubscribe two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
#: glibc ``mallopt`` parameters and the values pinned for every run.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MALLOC_THRESHOLDS = {"mmap_threshold": 32 << 20, "trim_threshold": 128 << 20}


def _pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds for this process and its forks.

    glibc raises its mmap threshold as the process frees large blocks,
    so whether a training step's arrays come from reused heap memory or
    from fresh page-faulted mappings depends on the allocation history.
    It differed between processes of one seed and set their speed: five
    train runs stepped H at 121-134 ms and peaked at 223-230 MB, or at
    144 ms and 204 MB.  With both thresholds fixed five runs stepped H
    at 118-133 ms.  Returns whether the thresholds hold (glibc only).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(
        mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLDS["mmap_threshold"])
        and mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLDS["trim_threshold"])
    )


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="'tiny' shrinks every input for the benchmark's self-tests",
    )
    return parser.parse_args(argv)


def _metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def _select(values: dict, units: dict, fill_missing: bool) -> dict:
    """``values`` as the result's metrics, in ``BENCHMARK.json`` order."""
    extra = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if extra or (missing and not fill_missing):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: extra {extra}, missing {missing}")
    # A layer the workload never enters did no work: it reports 0.
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    # Pin the BLAS pool and malloc before numpy loads; fleet replicas inherit both.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    malloc_pinned = _pin_malloc_thresholds()
    sys.path[:0] = [str(ROOT / "src")]

    import harness
    from instrument import instrument
    from tracer import Tracer

    end_to_end_units, per_layer_units = _metric_specs()
    workload = importlib.import_module(f"workloads.{args.workload}")
    state = ROOT / ".perfbench"
    workdir = state / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    try:
        untraced = workload.run(
            args.seed, args.seconds, Tracer(enabled=False), scale=args.scale, workdir=workdir
        )
        measurements = [untraced]
        if args.trace:
            tracer = Tracer()
            with instrument(tracer):
                traced = workload.run(args.seed, args.seconds, tracer, scale=args.scale, workdir=workdir)
            measurements.append(traced)
            layer = dict(traced.per_layer)
            layer["trace.overhead_pct"] = (
                untraced.end_to_end["items_per_s"] / traced.end_to_end["items_per_s"] - 1.0
            ) * 100.0
            metrics = _select(layer, per_layer_units, fill_missing=True)
            spans = tracer.write(state / "runs" / f"{tag}.spans.jsonl")
        else:
            values = dict(untraced.end_to_end, peak_rss_mb=harness.peak_rss_mb())
            metrics = _select(values, end_to_end_units, fill_missing=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    failures = [failure for m in measurements for failure in m.failures]
    same_inputs = all(m.digests == untraced.digests for m in measurements)
    if not same_inputs:
        failures.append("traced and untraced passes were offered different inputs")
    correct = failed == 0 and attempted > 0 and same_inputs
    record = {
        "stamps": harness.stamps(
            ROOT, args.workload, args.seed, args.seconds, bool(args.trace), BLAS_THREAD_VARS
        )
        | {"malloc": dict(MALLOC_THRESHOLDS, pinned=malloc_pinned)},
        "scale": args.scale,
        "input_digests": untraced.digests,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "detail": [m.detail for m in measurements],
    }
    if args.trace:
        record["spans"] = {
            "records": spans,
            "layers": sorted(tracer.layers_seen()),
            "self_seconds_by_layer": {
                phase: tracer.self_seconds_by_layer(phase) for phase in ("setup", "measure")
            },
        }
    harness.write_record(state / "runs" / f"{tag}.json", record)
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main(sys.argv[1:]))
