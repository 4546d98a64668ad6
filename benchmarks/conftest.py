"""Shared benchmark configuration.

Benchmarks run each experiment once (``pedantic(rounds=1)``) at the
``smoke`` scale: the goal is to regenerate every paper artefact's rows
end-to-end and time the full pipeline, not to micro-profile training.
Set ``REPRO_BENCH_PRESET=medium`` for paper-shaped numbers (slower).

Each run leaves two artefacts next to this file:

* ``last_run_report.txt`` — the rendered paper artefacts (human-readable);
* ``BENCH_<preset>.json`` — machine-readable per-test timings (from
  pytest-benchmark's stats) plus any custom metrics benches record via
  :func:`record_metric`, stamped with preset / seed / timestamp, so the
  perf trajectory across changes can be diffed and plotted.  Each session
  merges its entries into the file by test name, so running a subset of
  the benches updates those entries and keeps every other one.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

#: Preset used by the experiment benchmarks (override via environment).
BENCH_PRESET = os.environ.get("REPRO_BENCH_PRESET", "smoke")

#: Seed shared by every benchmark.
BENCH_SEED = 2018


@pytest.fixture(scope="session")
def bench_preset() -> str:
    return BENCH_PRESET


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return it."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


#: Rendered tables/series from each bench land here (pytest's fd-level
#: capture discards stdout of passing tests, but the whole point of the
#: harness is to show the rows each paper artefact reports).
REPORT_PATH = Path(__file__).with_name("last_run_report.txt")

#: Machine-readable sibling of the report, keyed by test name.
JSON_PATH = Path(__file__).with_name(f"BENCH_{BENCH_PRESET}.json")

#: test name -> custom metrics recorded via :func:`record_metric`.
_CUSTOM_METRICS: dict[str, dict] = {}


def record_metric(test_name: str, **metrics) -> None:
    """Attach custom numbers (throughput, speedup, …) to one test's JSON entry."""
    _CUSTOM_METRICS.setdefault(test_name, {}).update(metrics)


def _stats_of(bench) -> dict:
    """Timing stats from one pytest-benchmark entry (a Metadata whose
    ``stats`` attribute is the Stats accumulator), defensively."""
    out: dict = {}
    stats = getattr(bench, "stats", None)
    for field in ("min", "max", "mean", "stddev", "rounds"):
        value = getattr(stats, field, None)
        if isinstance(value, (int, float)):
            out[field if field == "rounds" else f"{field}_s"] = value
    return out


def session_results(config, custom: dict[str, dict] = _CUSTOM_METRICS) -> dict[str, dict]:
    """Per-test entries of one pytest session: timing stats plus custom metrics."""
    tests: dict[str, dict] = {}
    session = getattr(config, "_benchmarksession", None)
    for bench in getattr(session, "benchmarks", []) or []:
        name = getattr(bench, "name", None)
        if name:
            tests[name] = _stats_of(bench)
    for name, metrics in custom.items():
        tests.setdefault(name, {}).update(metrics)
    return tests


def merge_results(path: Path, tests: dict[str, dict]) -> None:
    """Write ``tests`` into the JSON file at ``path``, keeping other tests' entries.

    An entry for a test that ran replaces that test's old entry whole;
    entries of tests that did not run this session are left as they were.
    """
    merged = json.loads(path.read_text()).get("tests", {}) if path.exists() else {}
    merged.update(tests)
    path.write_text(
        json.dumps(
            {
                "preset": BENCH_PRESET,
                "seed": BENCH_SEED,
                "timestamp": time.time(),
                "tests": merged,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


@pytest.fixture(scope="session", autouse=True)
def _fresh_report(request):
    REPORT_PATH.write_text(
        f"# Rendered paper artefacts from the last benchmark run "
        f"(preset={BENCH_PRESET}, seed={BENCH_SEED})\n"
    )
    yield
    merge_results(JSON_PATH, session_results(request.config))


def report(text: str) -> None:
    """Record a rendered artefact (also printed for ``pytest -s`` runs)."""
    with REPORT_PATH.open("a") as stream:
        stream.write("\n" + text + "\n")
    print("\n" + text)
