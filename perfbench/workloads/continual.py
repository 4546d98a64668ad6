"""``continual``: the drift -> retrain -> shadow -> swap loop over one service.

A ``ContinualController`` wraps an in-process ``ForecastService`` on a
64-segment corridor.  One episode streams two days of the base regime
(the monitors calibrate), then the ``SHIFT_OVERRIDES`` regime until the
controller detects the shift, retrains a challenger, shadow-evaluates
it and hot-swaps it in, then the guard window after the swap.  Episodes
repeat, each on a fresh service and controller, while time remains.

This is the only workload for the ``mlops`` layer, and it puts the
write path (retrain, swap) next to serving reads.  The unit of work is
one forecast; the request is one tick (``ingest_tick`` plus ``predict``
for every segment); a round is 100 ticks.  Two kinds of tick are
served but not timed, because the seed sets their share of a run and
figures over all ticks followed it:

* an episode's first day, the input monitor's calibration: until its
  window fills, the drift checks on every fourth tick are cheap, and
  after it they take 5-8 ms against 3 ms for a plain tick.  Timed, the
  calibration day moved the check ticks' share of the timed ticks
  across 10% and put ``latency_p90_ms`` on the cliff between the two
  costs (3.7 or 6.1 ms by seed);
* pipeline ticks: the pipeline runs inline in a tick, a retrain (then a
  shadow and a swap, or a rejected challenger) of 180-270 ms, or a
  rollback.  A shift holds one to several of them (detection takes 12
  to ~800 ticks), and timed, they made ``items_per_s`` fall with the
  detection time (12.3k to 16.1k over ten seeds).  The tick that swaps
  is ``mlops.detect_to_swap_s`` and the run record's
  ``detect_to_swap_s``; the run record counts ``pipeline_ticks``.

After both are left out, base-regime and shifted ticks cost the same
within the run-to-run noise.

Output check: forecasts are finite (out-of-range ones are counted,
see ``serving.out_of_range_share``), interior segments are answered by
the model, every episode swaps, and after the
guard window the service serves the accepted challenger, or the model
it replaced when the guard rolled it back.  The guard does roll back
challengers that passed shadow evaluation on some seeds (2 of 24), so
rollbacks are counted (``mlops.rollbacks``), not failed.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from harness import ForecastChecker, HostProbe, Measurement, Round, median, observations
from harness import robust_figures, series_digest, timed_setups
from tracer import Tracer
from workloads.serve_city import champion_preset, fit_champion, serving_layers

from repro import FeatureConfig, ForecastService, SimulationConfig, TrafficDataset, simulate
from repro.data.split import split_windows
from repro.experiments.continual import SHIFT_OVERRIDES
from repro.mlops import ContinualController, ControllerConfig, DriftConfig, RetrainSpec
from repro.traffic import Corridor

__all__ = ["run"]

NUM_SEGMENTS = {"full": 64, "tiny": 16}
#: The champion learns the base regime from the target segment's 20 days
#: (a 3-day champion forecast up to 139 km/h on other segments); the
#: stream replays the last WARM_DAYS of them, then the shifted regime.
CHAMPION = champion_preset()
WARM_DAYS = 2
SHIFT_DAYS = 4
SETUP_REPEATS = 5
PROBE_EVERY = 25
#: Ticks per round (see harness.robust_figures): 25 monitor checks.
ROUND_TICKS = 100
#: The challenger's fine-tune; sized so trigger -> swap takes long
#: enough to time (a smoke-width two-epoch retrain takes ~40 ms).
RETRAIN = RetrainSpec(epochs=48, batch_size=32, min_windows=48, holdout_fraction=0.2)


def _controller_config(steps_per_day: int, segments: int, seed: int) -> ControllerConfig:
    """The continual experiment's loop settings (see repro.experiments.continual)."""
    tick = segments
    return ControllerConfig(
        drift=DriftConfig(
            error_window=steps_per_day * tick,
            min_samples=steps_per_day * tick // 2,
            error_ratio=1.5,
            input_window=steps_per_day * tick,
            check_every=4 * tick,
            hysteresis=3,
            psi_threshold=0.25,
            mean_shift_kmh=10.0,
        ),
        retrain=RETRAIN,
        history_capacity=steps_per_day,
        min_history_steps=160,
        cooldown_ticks=48,
        postswap_ticks=24,
        rollback_ratio=2.0,
        rollback_window=24 * tick,
        rollback_min_samples=6 * tick,
        rollback_patience=3,
        seed=seed,
    )


def run(seed: int, seconds: float, tracer: Tracer, scale: str = "full", workdir: Path = Path(".")) -> Measurement:
    failures: list[str] = []
    # Under the shifted regime the base-regime champion can forecast a
    # little below 0 km/h on a jammed segment (-0.5 km/h once per
    # episode for seed 41): counted in serving.out_of_range_share, not
    # failed; the range check belongs to the serving workloads.
    checker = ForecastChecker(failures, range_fails=False)
    segments = NUM_SEGMENTS[scale]
    features = FeatureConfig(beta=1)

    def build():
        directory = Path(tempfile.mkdtemp(prefix="continual-", dir=workdir))
        corridor = Corridor.gyeongbu(segments, rng=np.random.default_rng(seed))
        config = SimulationConfig(num_days=CHAMPION.num_days, seed=seed)
        with tracer.span("traffic.simulate"):
            base = simulate(config, corridor=corridor)
            shifted = simulate(
                dataclasses.replace(
                    config, num_days=SHIFT_DAYS, seed=seed + 1, **SHIFT_OVERRIDES
                ),
                corridor=corridor,
            )
        windows = base.num_steps - features.alpha - features.beta + 1
        split = split_windows(
            windows, window_span=features.alpha + features.beta, rng=np.random.default_rng(seed)
        )
        dataset = TrafficDataset(base, features, split=split, seed=seed)
        fit_champion(tracer, dataset, features, CHAMPION, seed, directory / "champion")
        return directory, base, shifted

    def teardown(built) -> None:
        shutil.rmtree(built[0], ignore_errors=True)

    host = HostProbe()
    built, setup_seconds = timed_setups(tracer, host, SETUP_REPEATS, build, teardown)
    directory, base, shifted = built
    steps_per_day = base.num_steps // CHAMPION.num_days
    episodes: list[dict] = []
    tick_seconds: list[float] = []
    served = 0
    build_seconds = 0.0
    deadline = time.perf_counter() + seconds
    try:
        while not episodes or time.perf_counter() < deadline:
            episode = _episode(
                directory, len(episodes), base, shifted, steps_per_day, segments, seed, tracer,
                checker, host,
            )
            episodes.append(episode)
            tick_seconds.extend(episode["ticks"])
            served += episode["served_ticks"]
            build_seconds += episode["build_seconds"]
    finally:
        teardown(built)

    ticks = len(tick_seconds)
    rounds = [
        Round(len(chunk) * segments, sum(chunk), chunk)
        for chunk in (tick_seconds[i : i + ROUND_TICKS] for i in range(0, ticks, ROUND_TICKS))
    ]
    kept, everything = robust_figures(rounds)
    swaps = [e for e in episodes if e["swap_s"] is not None]
    layer = serving_layers(tracer, served)
    per_episode = lambda name: tracer.stat("measure", name)[1] / len(episodes)
    layer.update(
        {
            "traffic.simulate_s": tracer.self_seconds("setup", "traffic.simulate") / SETUP_REPEATS,
            "core.champion_fit_s": tracer.stat("setup", "core.champion_fit")[1] / SETUP_REPEATS,
            "loadgen.build_ms": build_seconds * 1e3 / max(served, 1),
            "mlops.monitor_ms": tracer.self_seconds("measure", "mlops.monitor") * 1e3 / max(served, 1),
            "mlops.history_ms": tracer.self_seconds("measure", "mlops.history") * 1e3 / max(served, 1),
            "mlops.retrain_s": per_episode("mlops.retrain"),
            "mlops.shadow_s": per_episode("mlops.shadow"),
            "mlops.swap_s": per_episode("mlops.swap"),
            "mlops.detect_ticks": median([e["detect_ticks"] for e in episodes]),
            "mlops.rollbacks": sum(e["rollbacks"] for e in episodes) / len(episodes),
            "serving.out_of_range_share": checker.out_of_range / max(checker.attempted, 1),
            "mlops.detect_to_swap_s": median([e["swap_s"] for e in swaps]) if swaps else 0.0,
            "nn.linear_forward_ms": tracer.self_seconds("measure", "nn.linear_forward") * 1e3 / max(served, 1),
            "nn.backward_ms": tracer.self_seconds("measure", "nn.backward") * 1e3 / max(served, 1),
            "nn.optim_step_ms": tracer.self_seconds("measure", "nn.optim_step") * 1e3 / max(served, 1),
        }
    )
    return Measurement(
        end_to_end=dict(kept, setup_s=median(setup_seconds)),
        per_layer=layer,
        attempted=checker.attempted,
        failed=checker.failed,
        failures=failures,
        digests={"base": series_digest(base), "shifted": series_digest(shifted)},
        detail={
            "episodes": len(episodes),
            "ticks": ticks,
            "served_ticks": served,
            "pipeline_ticks": sum(e["pipeline_ticks"] for e in episodes),
            "all_rounds": everything,
            "raw_items_per_s": ticks * segments / sum(e["raw_seconds"] for e in episodes),
            "detect_to_swap_s": median([e["swap_s"] for e in swaps]) if swaps else float("nan"),
            "detect_ticks": median([e["detect_ticks"] for e in episodes]),
            "rollbacks": sum(e["rollbacks"] for e in episodes),
            "out_of_range_forecasts": checker.out_of_range,
        },
    )


def _episode(
    directory, index, base, shifted, steps_per_day, segments, seed, tracer, checker, host
) -> dict:
    """One calibrate -> shift -> detect -> swap -> guard episode."""
    champion = directory / "champion"
    service = ForecastService.from_checkpoint(champion, segments)
    controller = ContinualController(
        service,
        champion,
        directory / f"episode-{index:03d}",
        config=_controller_config(steps_per_day, segments, seed),
    )
    everyone = list(range(segments))
    calibration = controller.config.drift.input_window // segments
    m = service.model.features.m
    alpha = service.model.features.alpha
    ticks: list[float] = []
    raw: list[float] = []
    build_seconds = 0.0
    pipeline: list[bool] = []
    swap_s = None
    detect_ticks = 0

    def tick(series, column: int, step: int) -> float:
        nonlocal build_seconds
        tracer.request_id = step
        build_start = time.perf_counter()
        with tracer.span("loadgen.build"):
            batch = observations(series, column, step)
        build_seconds += time.perf_counter() - build_start
        if len(ticks) % PROBE_EVERY == 0:
            with tracer.paused():
                host.sample()
        attempts = (controller.trigger_count, controller.rollback_count)
        start = time.perf_counter()
        controller.ingest_tick(batch)
        forecasts = controller.predict(everyone)
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        pipeline.append(attempts != (controller.trigger_count, controller.rollback_count))
        elapsed *= host.factor()
        ticks.append(elapsed)
        # Windows fill after alpha ticks; corridor ends lack m neighbours.
        warmed = len(ticks) > alpha
        checker.check(forecasts, lambda segment: warmed and m <= segment < segments - m)
        return elapsed

    warm = WARM_DAYS * steps_per_day
    first = base.num_steps - warm
    for offset in range(warm):
        tick(base, first + offset, first + offset)
    step = base.num_steps
    guard = controller.config.postswap_ticks + 1
    for column in range(shifted.num_steps):
        swaps, serving = controller.swap_count, controller.fingerprint
        elapsed = tick(shifted, column, step)
        step += 1
        if swap_s is None:
            detect_ticks += 1
            if controller.swap_count > swaps:
                swap_s = elapsed
                replaced, swapped = serving, controller.fingerprint
                rollbacks = controller.rollback_count
        else:
            guard -= 1
            if guard == 0:
                break
    checker.expect(swap_s is not None, f"episode {index}: the shift never led to a swap")
    checker.expect(guard == 0, f"episode {index}: the stream ended inside the guard window")
    if swap_s is not None:
        # After the guard window the loop serves the accepted challenger,
        # or, after a rollback, the model that challenger replaced.
        expected = replaced if controller.rollback_count > rollbacks else swapped
        checker.expect(
            controller.fingerprint == expected == service.fingerprint,
            f"episode {index}: serving {service.fingerprint}, controller "
            f"{controller.fingerprint}, expected {expected}",
        )
    return {
        "ticks": [ticks[i] for i in range(calibration, len(ticks)) if not pipeline[i]],
        "served_ticks": len(ticks),
        "pipeline_ticks": sum(pipeline),
        "raw_seconds": sum(raw[i] for i in range(calibration, len(ticks)) if not pipeline[i]),
        "build_seconds": build_seconds,
        "swap_s": swap_s,
        "detect_ticks": detect_ticks,
        "rollbacks": controller.rollback_count,
    }
