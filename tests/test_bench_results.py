"""The benchmark harness keeps every test's entry in ``BENCH_<preset>.json``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("bench_harness", BENCH_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_config(*names):
    """A pytest config whose benchmark session ran ``names`` once each."""
    stats = SimpleNamespace(min=1.0, max=1.0, mean=1.0, stddev=0.0, rounds=1)
    benches = [SimpleNamespace(name=name, stats=stats) for name in names]
    return SimpleNamespace(_benchmarksession=SimpleNamespace(benchmarks=benches))


def test_two_sessions_keep_both_entries(harness, tmp_path):
    path = tmp_path / "BENCH_smoke.json"
    first = harness.session_results(fake_config("test_a"), custom={"test_a": {"rate": 3.0}})
    harness.merge_results(path, first)
    second = harness.session_results(fake_config("test_b"), custom={})
    harness.merge_results(path, second)

    tests = json.loads(path.read_text())["tests"]
    assert set(tests) == {"test_a", "test_b"}
    assert tests["test_a"]["rate"] == 3.0
    assert tests["test_b"]["mean_s"] == 1.0


def test_rerun_replaces_only_its_own_entry(harness, tmp_path):
    path = tmp_path / "BENCH_smoke.json"
    harness.merge_results(path, {"test_a": {"rate": 1.0, "old": 1}, "test_b": {"rate": 2.0}})
    harness.merge_results(path, {"test_a": {"rate": 5.0}})

    tests = json.loads(path.read_text())["tests"]
    assert tests == {"test_a": {"rate": 5.0}, "test_b": {"rate": 2.0}}
