"""``train``: the adversarial APOTS fit of each predictor body F, C, L, H.

One round fits every body on the paper's corridor with the Eq 4 game
(conditional D, ``compile`` off — the experiments' defaults) at the
``medium`` widths, for a fixed number of steps, then evaluates it on the
test split.  Rounds repeat while the next one still fits in the run.

The unit of work is one adversarial training step (a D update plus a P
update on one batch).  Step times come from timestamps taken as the
trainer pulls each batch, the only hook an untraced run installs.  A
round is five consecutive steps of one body.  ``items_per_s`` is steps
per second over all four bodies, each body timed on its fastest rounds
and weighted by its step count; the request whose latency is reported
is one step of H, the paper's full model (CNN + LSTM).  Pooling the
bodies' steps would put the median on the boundary between two
bodies' step times, where it flips from run to run.
"""

from __future__ import annotations

import gc
import math
import time
from pathlib import Path

from harness import HostProbe, Measurement, Round, median, robust_figures, series_digest
from harness import timed_setups
from tracer import Patches, Tracer

from repro import APOTS, FeatureConfig, SimulationConfig, TrafficDataset, simulate
from repro.core import adversarial
from repro.core.config import PRESETS, ScalePreset

__all__ = ["run"]

BODIES = ("F", "C", "L", "H")
EPOCHS = 2
#: Steps per epoch; F is fast and dominated by Python overhead, so it
#: gets more steps to time steadily.
STEPS_PER_EPOCH = {"full": {"F": 40, "C": 20, "L": 20, "H": 40}, "tiny": dict.fromkeys(BODIES, 2)}
ROUND_STEPS = {"full": 5, "tiny": 2}
NUM_DAYS = {"full": 20, "tiny": 3}
BATCH_SIZE = 32
SETUP_REPEATS = 9
#: A fitted model whose test MAPE reaches this has not learned anything.
MAPE_CEILING_PCT = 100.0


def _preset(scale: str, kind: str) -> ScalePreset:
    return ScalePreset(
        name=f"bench-train-{kind}",
        num_days=NUM_DAYS[scale],
        width_factor=PRESETS["medium"].width_factor,
        epochs=EPOCHS,
        adversarial_epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        adversarial_batch_size=BATCH_SIZE,
        max_steps_per_epoch=STEPS_PER_EPOCH[scale][kind],
    )


class StepClock:
    """Timestamps each batch the trainer pulls; gaps are step times.

    A host probe runs at each timestamp, outside the step it closes;
    ``step_seconds`` are host-normalised, ``raw_seconds`` are not.
    """

    def __init__(self, tracer: Tracer, host: HostProbe):
        self.tracer = tracer
        self.host = host
        self.body = ""
        self.step_seconds: dict[str, list[float]] = {}
        self.raw_seconds: list[float] = []
        self._last: float | None = None

    def batches(self, iterate):
        clock = self

        def timed(*args, **kwargs):
            clock._last = None
            for batch in iterate(*args, **kwargs):
                clock.mark()
                yield batch
            clock.mark()

        return timed

    def mark(self) -> None:
        now = time.perf_counter()
        steps = self.step_seconds.setdefault(self.body, [])
        with self.tracer.paused():
            self.host.sample()
        if self._last is not None:
            self.raw_seconds.append(now - self._last)
            steps.append((now - self._last) * self.host.factor())
        self._last = time.perf_counter()
        self.tracer.request_id = len(steps)


def run(seed: int, seconds: float, tracer: Tracer, scale: str = "full", workdir: Path = Path(".")) -> Measurement:
    """Fit and evaluate the four bodies; ``workdir`` is unused (nothing is saved)."""
    failures: list[str] = []
    attempted = failed = 0

    def build():
        with tracer.span("traffic.simulate"):
            series = simulate(SimulationConfig(num_days=NUM_DAYS[scale], seed=seed))
        with tracer.span("data.dataset"):
            dataset = TrafficDataset(series, FeatureConfig(), seed=seed)
        return series, dataset

    host = HostProbe()
    (series, dataset), setup_seconds = timed_setups(tracer, host, SETUP_REPEATS, build)

    clock = StepClock(tracer, host)
    fit_seconds = {kind: [] for kind in BODIES}
    mapes = {kind: [] for kind in BODIES}
    rounds = 0
    measured = 0.0
    with Patches(tracer) as patches:
        patches.replace(
            adversarial, "iterate_batches", clock.batches(adversarial.iterate_batches)
        )
        while rounds == 0 or measured + measured / rounds <= seconds:
            start = time.perf_counter()
            for kind in BODIES:
                # The previous body's autograd graphs are reference cycles:
                # collect them here, not at a random point of this fit.
                gc.collect()
                model = APOTS(predictor=kind, preset=_preset(scale, kind), seed=seed)
                clock.body = kind
                fit_start = time.perf_counter()
                with tracer.span(f"core.fit_{kind}"):
                    model.fit(dataset)
                fit_seconds[kind].append(time.perf_counter() - fit_start)
                with tracer.span("core.evaluate"):
                    report = model.evaluate(dataset, subset="test")
                mapes[kind].append(report.mape)
                history = model.history
                losses = history.predictor_loss + history.discriminator_loss
                attempted += 1
                if not all(math.isfinite(loss) for loss in losses):
                    failed += 1
                    failures.append(f"{kind}: non-finite training loss {losses}")
                attempted += 1
                if not (math.isfinite(report.mape) and report.mape < MAPE_CEILING_PCT):
                    failed += 1
                    failures.append(f"{kind}: test MAPE {report.mape}")
            measured += time.perf_counter() - start
            rounds += 1

    steps = sum(len(times) for times in clock.step_seconds.values())
    expected = rounds * EPOCHS * sum(STEPS_PER_EPOCH[scale].values())
    attempted += 1
    if steps != expected:
        failed += 1
        failures.append(f"timed {steps} training steps, expected {expected}")
    per_round = ROUND_STEPS[scale]
    figures = {}
    for kind, times in clock.step_seconds.items():
        chunks = [times[i : i + per_round] for i in range(0, len(times), per_round)]
        figures[kind] = robust_figures([Round(len(c), sum(c), c) for c in chunks])
    # Each body's robust seconds per step, weighted by its step count.
    robust_seconds = sum(
        len(clock.step_seconds[kind]) / figures[kind][0]["items_per_s"] for kind in BODIES
    )
    all_seconds = sum(sum(times) for times in clock.step_seconds.values())

    def per_step_ms(*names: str) -> float:
        return tracer.self_seconds("measure", *names) * 1e3 / max(steps, 1)

    def per_call(counter: str, calls: str) -> float:
        total = tracer.counters.get(("measure", counter), 0.0)
        return total / max(tracer.counters.get(("measure", calls), 0.0), 1.0)

    layer = {
        "traffic.simulate_s": tracer.self_seconds("setup", "traffic.simulate") / SETUP_REPEATS,
        "data.rollout_batch_ms": per_step_ms("data.rollout_batch"),
        "core.d_step_ms": per_step_ms("core.d_step"),
        "core.p_step_ms": per_step_ms("core.p_step"),
        "nn.lstm_forward_ms": per_step_ms("nn.lstm_forward"),
        "nn.conv_forward_ms": per_step_ms("nn.conv_forward"),
        "nn.linear_forward_ms": per_step_ms("nn.linear_forward"),
        "nn.backward_ms": per_step_ms("nn.backward"),
        "nn.optim_step_ms": per_step_ms("nn.optim_step"),
        "nn.forward_ms": per_step_ms("nn.forward"),
        "nn.lstm_flops": per_call("nn.lstm_flops", "nn.lstm_calls"),
        "nn.lstm_bytes": per_call("nn.lstm_bytes", "nn.lstm_calls"),
        "nn.conv_flops": per_call("nn.conv_flops", "nn.conv_calls"),
        "nn.conv_bytes": per_call("nn.conv_bytes", "nn.conv_calls"),
    }
    for kind in BODIES:
        layer[f"core.fit_s_{kind}"] = median(fit_seconds[kind])
    layer["core.test_mape_F"] = median(mapes["F"])
    layer["core.test_mape_H"] = median(mapes["H"])

    detail = {f"fit_s_{kind}": median(fit_seconds[kind]) for kind in BODIES}
    detail.update({f"test_mape_{kind}": median(mapes[kind]) for kind in BODIES})
    detail.update(
        rounds=rounds,
        steps=steps,
        all_steps_per_s=steps / all_seconds,
        raw_steps_per_s=steps / sum(clock.raw_seconds),
    )
    detail.update({f"step_ms_{kind}": figures[kind][0]["latency_p50_ms"] for kind in BODIES})
    return Measurement(
        end_to_end={
            "setup_s": median(setup_seconds),
            "items_per_s": steps / robust_seconds,
            "latency_p50_ms": figures["H"][0]["latency_p50_ms"],
            "latency_p90_ms": figures["H"][0]["latency_p90_ms"],
        },
        per_layer=layer,
        attempted=attempted,
        failed=failed,
        failures=failures,
        digests={"series": series_digest(series)},
        detail=detail,
    )
