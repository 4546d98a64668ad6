"""One bad reading must be rejected loudly, never poison its neighbours.

A non-finite or implausible reading on segment 4 used to flow into the
windows of segments 2-6 and come back as NaN or absurd ``source="model"``
forecasts.  The single service and the fleet (at 1 and 2 shards) must
raise :class:`InvalidReadingError` before any state changes, so the same
tick can then be ingested cleanly and every forecast matches a service
that never saw the bad reading.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.fleet import ForecastFleet
from repro.serving import ForecastService, InvalidReadingError

from tests.fleet.conftest import observation_at, replay_ticks

LAST_TICK = 14
BAD_SEGMENT = 4
QUERIED = [2, 3, 4, 5, 6]

BAD_READINGS = [
    pytest.param({"speed_kmh": math.nan}, id="speed-nan"),
    pytest.param({"speed_kmh": math.inf}, id="speed-inf"),
    pytest.param({"speed_kmh": 1e6}, id="speed-1e6"),
    pytest.param({"speed_kmh": -1.0}, id="speed-negative"),
    pytest.param({"event": math.inf}, id="event-inf"),
    pytest.param({"temperature": math.nan}, id="temperature-nan"),
    pytest.param({"precipitation": math.inf}, id="precipitation-inf"),
]


@pytest.fixture(scope="module")
def reference(fleet_checkpoint, tiny_series):
    service = ForecastService.from_checkpoint(fleet_checkpoint, tiny_series.num_segments)
    replay_ticks(service, tiny_series, range(LAST_TICK + 1))
    forecasts = service.predict_many(QUERIED)
    assert all(f.source == "model" and math.isfinite(f.speed_kmh) for f in forecasts)
    return [f.speed_kmh for f in forecasts]


def tick(series, bad: dict | None = None):
    observations = [observation_at(series, s, LAST_TICK) for s in range(series.num_segments)]
    if bad is not None:
        observations[BAD_SEGMENT] = dataclasses.replace(observations[BAD_SEGMENT], **bad)
    return observations


def assert_unpoisoned(forecasts, reference):
    assert [f.source for f in forecasts] == ["model"] * len(QUERIED)
    assert [f.speed_kmh for f in forecasts] == reference


@pytest.mark.parametrize("bad", BAD_READINGS)
def test_service_rejects_before_state_changes(fleet_checkpoint, tiny_series, reference, bad):
    service = ForecastService.from_checkpoint(fleet_checkpoint, tiny_series.num_segments)
    replay_ticks(service, tiny_series, range(LAST_TICK))
    clean, poisoned = tick(tiny_series), tick(tiny_series, bad)
    for observation in clean[:BAD_SEGMENT]:
        service.ingest(observation)
    with pytest.raises(InvalidReadingError):
        service.ingest(poisoned[BAD_SEGMENT])
    service.ingest_many(clean[BAD_SEGMENT:])  # the step was never consumed
    assert_unpoisoned(service.predict_many(QUERIED), reference)


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("bad", BAD_READINGS)
def test_fleet_rejects_the_whole_batch(fleet_checkpoint, tiny_series, reference, shards, bad):
    with ForecastFleet(fleet_checkpoint, tiny_series.num_segments, shards=shards) as fleet:
        replay_ticks(fleet, tiny_series, range(LAST_TICK))
        with pytest.raises(InvalidReadingError):
            fleet.ingest_many(tick(tiny_series, bad))
        fleet.ingest_many(tick(tiny_series))  # nothing of the bad batch was routed
        assert_unpoisoned(fleet.predict_many(QUERIED), reference)
