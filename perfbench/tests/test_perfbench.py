"""Self-tests of the benchmark at tiny sizes.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

They drive ``perfbench/run.py`` as an outside harness would (one
subprocess per run, ``--scale tiny``) and check the result contract:
every workload runs and passes its output checks, emitted metric names
match ``BENCHMARK.json`` exactly, a traced run covers every layer, a
corrupted forecast is counted as a failure, and a directory without
the program exits non-zero without a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = {"traffic", "network", "data", "nn", "core", "serving", "fleet", "parallel", "mlops"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


@pytest.fixture
def scratch(request) -> Path:
    """A fresh directory inside the checkout's ignored ``.perfbench/``."""
    directory = ROOT / ".perfbench" / "selftest" / request.node.name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _record(workload: str, trace: int) -> dict:
    runs = sorted(
        (ROOT / ".perfbench" / "runs").glob(f"{workload}-seed3-trace{trace}-pid*.json"),
        key=lambda path: path.stat().st_mtime,
    )
    return json.loads(runs[-1].read_text(encoding="utf-8"))


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_reports_every_end_to_end_metric(workload):
    result = _result(_run(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    record = _record(workload, trace=0)
    for stamp in ("nproc", "python", "numpy", "blas", "blas_threads", "seed", "source_sha256"):
        assert stamp in record["stamps"]
    assert record["input_digests"]


def test_traced_runs_report_every_layer_metric_and_span():
    layers_seen: set[str] = set()
    nonzero: set[str] = set()
    for workload in WORKLOADS:
        result = _result(_run(workload, trace=1))
        assert result["correct"], workload
        assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        nonzero |= {name for name, m in result["metrics"].items() if m["value"] != 0}
        record = _record(workload, trace=1)
        layers_seen |= set(record["spans"]["layers"])
        assert record["spans"]["records"] > 0
    assert LAYERS <= layers_seen
    # Every per-layer metric is measured by at least one workload, except
    # the counts of events a healthy run may not have.
    healthy_zero = {"fleet.shed_share", "mlops.rollbacks", "serving.out_of_range_share"}
    assert {m["name"] for m in SPEC["per_layer"]} - healthy_zero <= nonzero


def test_corrupted_forecast_counts_as_a_failure(monkeypatch, scratch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    from dataclasses import replace

    from tracer import Tracer
    from workloads import serve_city

    from repro.serving import ForecastService

    original = ForecastService.predict_many

    def corrupted(self, *args, **kwargs):
        forecasts = original(self, *args, **kwargs)
        forecasts[0] = replace(forecasts[0], speed_kmh=float("nan"))
        return forecasts

    monkeypatch.setattr(ForecastService, "predict_many", corrupted)
    measurement = serve_city.run(3, 0.5, Tracer(enabled=False), scale="tiny", workdir=scratch)
    assert measurement.failed >= 1
    assert any("nan" in failure for failure in measurement.failures)


def test_exits_nonzero_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(BENCH, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(WORKLOADS[0], trace=0, cwd=scratch)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
