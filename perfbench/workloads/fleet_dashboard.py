"""``fleet_dashboard``: a 2-shard ForecastFleet serving a graph city's dashboards.

The city is ``grid_city(16, 17)`` (1,022 directed segments) simulated by
the network engine; the model is a micro F checkpoint on the city's
2-hop graph window layout, fitted on segments of every neighbourhood
size (:func:`training_targets`), and the shards are cut by
``partition_starts``.  Each tick ingests every segment once, then sends
the tick's seeded ``ArrivalSchedule`` query bursts back to back as
``predict_many`` calls.  Queries repeat within a tick, so about half of
them hit the replicas' caches: this is the read-heavy path, where most
of a call is routing, pickling and the pipe round trip.

The loop is closed with one caller: the next call is sent when the
previous one returns.  In an open-loop test of this fleet on a 2-core
host the median and p99 swung by 2x between runs, so the saturation
knee is left to a later benchmark.  The unit of work is one answered
query; the request is one ``predict_many`` call; a round is one tick.

Output check: every answer is finite, in range, and from the model, and
every 25th call is compared bitwise with an in-process
``ForecastService`` built from the same checkpoint and fed the same
stream (outside the timed region).
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from harness import ForecastChecker, HostProbe, Measurement, Round, median, observations
from harness import percentile
from harness import robust_figures, series_digest, timed_setups
from tracer import Tracer
from workloads.serve_city import champion_preset, fit_champion, serving_layers

from repro import ForecastService, SimulationConfig
from repro.data.graph_features import GraphTrafficDataset
from repro.fleet import ArrivalSchedule, ForecastFleet
from repro.network import NetworkSimulator, graph_feature_config, grid_city, partition_starts

__all__ = ["run"]

GRID = {"full": (16, 17), "tiny": (3, 4)}
SHARDS = 2
HOPS = 2
NUM_DAYS = 2
QUERIES_PER_TICK = {"full": 1000.0, "tiny": 40.0}
SCHEDULE_TICKS = {"full": 120, "tiny": 4}
CHECK_EVERY = 25
PROBE_EVERY = 100
SETUP_REPEATS = 5


def training_targets(graph, features) -> list[int]:
    """The champion's training segments: every neighbourhood size is seen.

    A segment's window holds its lower neighbours right-aligned before
    the target row and its upper ones left-aligned after it, with zero
    padding in the rows it leaves empty.  A model fitted only on
    segments with full neighbourhoods never sees padding in rows that
    sparse segments leave empty: fitted on four such spread targets, the
    champion forecast -7 km/h for a segment whose speeds stayed within
    15-61 km/h (seed 2010216958).  So the targets are the four spread
    ones plus the first segment with each count of lower neighbours and
    the first with each count of upper neighbours, which puts every
    layout row in training both filled and padded.
    """
    n = len(graph)
    row = features.layout.target_row
    by_lower: dict[int, int] = {}
    by_upper: dict[int, int] = {}
    for segment, ids in enumerate(features.layout.rows):
        by_lower.setdefault(sum(i >= 0 for i in ids[:row]), segment)
        by_upper.setdefault(sum(i >= 0 for i in ids[row + 1 :]), segment)
    spread = {graph.target_index, n // 6, n // 2, (5 * n) // 6}
    return sorted(spread | set(by_lower.values()) | set(by_upper.values()))


def _answers(forecasts) -> list[tuple]:
    return [(f.segment_id, f.target_step, f.speed_kmh, f.source) for f in forecasts]


def run(seed: int, seconds: float, tracer: Tracer, scale: str = "full", workdir: Path = Path(".")) -> Measurement:
    failures: list[str] = []
    checker = ForecastChecker(failures)
    rows, cols = GRID[scale]

    def build():
        directory = Path(tempfile.mkdtemp(prefix="fleet-", dir=workdir))
        with tracer.span("network.layout"):
            graph = grid_city(rows, cols, seed=seed)
            features = graph_feature_config(graph, HOPS)
            starts = partition_starts(graph, SHARDS)
        with tracer.span("network.simulate"):
            series = NetworkSimulator(graph, SimulationConfig(num_days=NUM_DAYS, seed=seed)).run()
        n = len(graph)
        dataset = GraphTrafficDataset(series, features, training_targets(graph, features), seed=seed)
        fit_champion(tracer, dataset, features, champion_preset(), seed, directory)
        del dataset  # the replicas fork from this process: they need not hold it
        with tracer.span("fleet.spawn"):
            fleet = ForecastFleet(directory, n, shards=SHARDS, shard_starts=starts)
        try:
            for step in range(features.alpha):
                fleet.ingest_many(observations(series, step))
            fleet.predict_many(range(n))  # waits for both replicas
        except BaseException:
            fleet.close()
            raise
        return directory, series, features, fleet

    def teardown(built) -> None:
        built[3].close()
        shutil.rmtree(built[0], ignore_errors=True)

    host = HostProbe()
    built, setup_seconds = timed_setups(tracer, host, SETUP_REPEATS, build, teardown)
    directory, series, features, fleet = built
    n = series.num_segments
    try:
        with tracer.span("loadgen.build"):
            schedule = ArrivalSchedule.from_series(
                series,
                seed=seed,
                rate=1.0,
                ticks=SCHEDULE_TICKS[scale],
                start_step=features.alpha,
                queries_per_tick=QUERIES_PER_TICK[scale],
            )
        with tracer.paused():
            reference = ForecastService.from_checkpoint(directory, n)
            for step in range(features.alpha):
                reference.ingest_many(observations(series, step))
            before = fleet.snapshot()
        result = _serve(fleet, reference, schedule, series, seconds, tracer, checker, host)
        with tracer.paused():
            after = fleet.snapshot()
    finally:
        teardown(built)

    rounds = result["rounds"]
    kept, everything = robust_figures(rounds)
    calls = sum(len(r.latencies) for r in rounds)
    layer = _fleet_layers(tracer, before, after, calls, len(rounds), result)
    layer.update(
        {
            "network.layout_s": tracer.stat("setup", "network.layout")[1] / SETUP_REPEATS,
            "network.simulate_s": tracer.stat("setup", "network.simulate")[1] / SETUP_REPEATS,
            "core.champion_fit_s": tracer.stat("setup", "core.champion_fit")[1] / SETUP_REPEATS,
            "serving.out_of_range_share": checker.out_of_range / max(checker.attempted, 1),
            "loadgen.build_ms": result["build_seconds"] * 1e3 / len(rounds),
        }
    )
    return Measurement(
        end_to_end=dict(kept, setup_s=median(setup_seconds)),
        per_layer=layer,
        attempted=checker.attempted,
        failed=checker.failed,
        failures=failures,
        digests={"series": series_digest(series), "schedule": schedule.fingerprint()},
        detail={
            "calls": calls,
            "ticks": len(rounds),
            "queries": sum(r.items for r in rounds),
            "all_rounds": everything,
            "raw_items_per_s": sum(r.items for r in rounds) / result["raw_seconds"],
            "call_p99_ms": percentile(np.concatenate([r.latencies for r in rounds]) * 1e3, 99.0),
            "compared_calls": result["compared"],
        },
    )


def _serve(fleet, reference, schedule, series, seconds, tracer, checker, host) -> dict:
    """The timed closed loop, one round per tick (its ingest and its calls).

    Answers are checked, and the host probed, outside the timed regions.
    """
    rounds: list[Round] = []
    raw_seconds = 0.0
    payload = 0
    calls = compared = 0
    build_seconds = 0.0
    deadline = time.perf_counter() + seconds
    for event in schedule.events:
        if event.kind == "ingest":
            if rounds and time.perf_counter() >= deadline:
                break
            build_start = time.perf_counter()
            with tracer.span("loadgen.build"):
                batch = observations(series, event.step)
            build_seconds += time.perf_counter() - build_start
            with tracer.paused():
                host.sample()
            start = time.perf_counter()
            with tracer.span("fleet.ingest"):
                fleet.ingest_many(batch)
            elapsed = time.perf_counter() - start
            raw_seconds += elapsed
            rounds.append(Round(0, elapsed * host.factor(), []))
            with tracer.paused():
                reference.ingest_many(batch)
            continue
        segments = list(event.segment_ids)
        tracer.request_id = calls
        start = time.perf_counter()
        with tracer.span("fleet.call"):
            forecasts = fleet.predict_many(segments)
        elapsed = time.perf_counter() - start
        calls += 1
        raw_seconds += elapsed
        elapsed *= host.factor()
        current = rounds[-1]
        current.items += len(forecasts)
        current.seconds += elapsed
        current.latencies.append(elapsed)
        if calls % PROBE_EVERY == 0:
            with tracer.paused():
                host.sample()
        checker.check(forecasts, lambda segment: True)
        if tracer.enabled:
            payload += len(pickle.dumps((segments, None, True))) + len(pickle.dumps(forecasts))
        if calls % CHECK_EVERY == 1:
            with tracer.paused():
                expected = reference.predict_many(segments)
            compared += 1
            checker.expect(
                _answers(forecasts) == _answers(expected),
                f"call {calls}: fleet answers differ from the in-process service",
            )
    return {
        "rounds": rounds,
        "raw_seconds": raw_seconds,
        "compared": compared,
        "payload_bytes": payload,
        "build_seconds": build_seconds,
    }


def _replica_busy(before: dict, after: dict, histogram: str) -> list[float]:
    """Per-replica milliseconds spent in ``histogram`` between two snapshots."""
    busy = []
    for old, new in zip(before["replicas"], after["replicas"]):
        old_h = old["histograms"].get(histogram, {"count": 0})
        new_h = new["histograms"].get(histogram, {"count": 0})
        total = lambda h: h["count"] * h.get("mean", 0.0)
        busy.append(total(new_h) - total(old_h))
    return busy


def _replica_delta(before: dict, after: dict, field: str) -> float:
    return float(
        sum(new["cache"][field] - old["cache"][field] for old, new in zip(before["replicas"], after["replicas"]))
    )


def _fleet_layers(tracer, before, after, calls: int, ticks: int, result: dict) -> dict[str, float]:
    busy = _replica_busy(before, after, "predict_many_latency_ms")
    batch_old = [r["histograms"].get("batch_size", {"count": 0}) for r in before["replicas"]]
    batch_new = [r["histograms"].get("batch_size", {"count": 0}) for r in after["replicas"]]
    batches = sum(new["count"] - old["count"] for old, new in zip(batch_old, batch_new))
    rows = sum(
        new["count"] * new.get("mean", 0.0) - old["count"] * old.get("mean", 0.0)
        for old, new in zip(batch_old, batch_new)
    )
    hits = _replica_delta(before, after, "hits")
    misses = _replica_delta(before, after, "misses")
    evictions = _replica_delta(before, after, "lru_evictions") + _replica_delta(
        before, after, "ttl_evictions"
    )
    counters_old = before["telemetry"]["counters"]
    counters_new = after["telemetry"]["counters"]
    delta = lambda name: counters_new.get(name, 0) - counters_old.get(name, 0)
    call_ms = tracer.stat("measure", "fleet.call")[1] * 1e3 / max(calls, 1)
    replica_ms = max(busy) / max(calls, 1)
    mean_busy = sum(busy) / len(busy)
    layer = serving_layers(tracer, calls)
    layer.update(
        {
            "serving.cache_hit_ratio": hits / max(hits + misses, 1.0),
            "serving.cache_evictions": evictions / max(calls, 1),
            "serving.batch_rows_mean": rows / max(batches, 1),
            "fleet.ingest_ms": tracer.stat("measure", "fleet.ingest")[1] * 1e3 / max(ticks, 1),
            "fleet.call_ms": call_ms,
            "fleet.route_ms": tracer.self_seconds("measure", "fleet.call") * 1e3 / max(calls, 1),
            "fleet.replica_ms": replica_ms,
            "fleet.transport_ms": call_ms - replica_ms,
            "fleet.payload_bytes": result["payload_bytes"] / max(calls, 1),
            "fleet.shard_balance": max(busy) / mean_busy if mean_busy > 0 else 1.0,
            "fleet.shed_share": delta("shed_requests") / max(delta("offered_requests"), 1),
            "parallel.send_ms": tracer.self_seconds("measure", "parallel.send") * 1e3 / max(calls, 1),
            "parallel.wait_ms": tracer.self_seconds("measure", "parallel.wait") * 1e3 / max(calls, 1),
        }
    )
    return layer
