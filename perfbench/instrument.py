"""Which program calls the traced runs wrap, layer by layer.

Every span name is ``<layer>.<what>`` with the layer named after the
``repro`` subpackage whose code the call runs.  The benchmark patches
public entry points, plus the few private methods that are the only
seam between two layers (the trainer's D / P steps, the batcher's
chunk runner, the service's de-scale); patches last for one
:class:`~tracer.Patches` block.  Calls that make no traced calls
themselves and run thousands of times per request are patched as
leaves, the tracer's cheaper path.

The ``nn`` hooks also attach counts computed from tensor shapes —
FLOPs (multiply-adds x 2 of the matrix products) and float64 bytes
moved (weights + input + output) per LSTM and Conv2d call.  They are
arithmetic on shapes, not hardware counters.
"""

from __future__ import annotations

from tracer import Patches, Tracer

from repro import nn
from repro.core import adversarial, predictors, trainer
from repro.data import dataset as corridor_dataset
from repro.data import graph_features
from repro.mlops import controller, drift, history
from repro.parallel.group import WorkerGroup
from repro.serving import batcher, cache, service, state

__all__ = ["instrument"]

_FLOAT_BYTES = 8


def _lstm_counts(tracer: Tracer):
    def on_call(args, kwargs, result) -> None:
        module, x = args[0], args[1]
        batch, steps, _ = x.shape
        flops = 0.0
        moved = 0.0
        inputs = module.input_size
        for hidden in module.hidden_sizes:
            weights = 4 * hidden * (inputs + hidden) + 4 * hidden
            flops += 2.0 * batch * steps * 4 * hidden * (inputs + hidden)
            moved += _FLOAT_BYTES * (weights + batch * steps * (inputs + hidden))
            inputs = hidden
        tracer.count("nn.lstm_calls")
        tracer.count("nn.lstm_flops", flops)
        tracer.count("nn.lstm_bytes", moved)

    return on_call


def _conv_counts(tracer: Tracer):
    def on_call(args, kwargs, result) -> None:
        module, x = args[0], args[1]
        batch, channels, height, width = x.shape
        out_h, out_w = module.output_shape(height, width)
        kh, kw = module.kernel_size
        out_channels = module.out_channels
        weights = out_channels * channels * kh * kw + out_channels
        tracer.count("nn.conv_calls")
        tracer.count("nn.conv_flops", 2.0 * batch * out_channels * out_h * out_w * channels * kh * kw)
        tracer.count(
            "nn.conv_bytes",
            _FLOAT_BYTES
            * (weights + batch * channels * height * width + batch * out_channels * out_h * out_w),
        )

    return on_call


def _batch_rows(tracer: Tracer):
    def on_call(args, kwargs, result) -> None:
        micro_batcher, chunk = args[0], args[1]
        rows = len(chunk)
        forwarded = max(rows, micro_batcher.max_batch_size) if micro_batcher.pad_batches else rows
        tracer.count("serving.batches")
        tracer.count("serving.batch_rows", rows)
        tracer.count("serving.forwarded_rows", forwarded)

    return on_call


def instrument(tracer: Tracer) -> Patches:
    """Patch every layer boundary the workloads cross; undo on exit."""
    patches = Patches(tracer)
    # data / core: the adversarial training step.
    patches.patch(corridor_dataset.TrafficDataset, "rollout_batch", "data.rollout_batch", leaf=True)
    patches.patch(graph_features.GraphTrafficDataset, "rollout_batch", "data.rollout_batch", leaf=True)
    patches.patch(adversarial.APOTSTrainer, "_discriminator_step", "core.d_step")
    patches.patch(adversarial.APOTSTrainer, "_predictor_step", "core.p_step")
    patches.patch(trainer.SupervisedTrainer, "fit", "core.supervised_fit")
    # nn: kernels, autograd and the optimiser.
    patches.patch(nn.LSTM, "forward", "nn.lstm_forward", _lstm_counts(tracer), leaf=True)
    patches.patch(nn.Conv2d, "forward", "nn.conv_forward", _conv_counts(tracer), leaf=True)
    patches.patch(nn.Linear, "forward", "nn.linear_forward", leaf=True)
    patches.patch(nn.Tensor, "backward", "nn.backward", leaf=True)
    patches.patch(nn.Adam, "step", "nn.optim_step", leaf=True)
    patches.patch(nn.Optimizer, "clip_grad_norm", "nn.optim_step", leaf=True)
    patches.patch(predictors.Predictor, "predict", "nn.forward")
    # serving: ingest -> windows -> cache -> batch -> forward -> de-scale.
    patches.patch(service.ForecastService, "ingest_many", "serving.ingest")
    patches.patch(service.ForecastService, "predict_many", "serving.resolve")
    patches.patch(state.SegmentStateStore, "windows_many", "serving.windows", leaf=True)
    patches.patch(cache.ForecastCache, "get", "serving.cache", leaf=True)
    patches.patch(cache.ForecastCache, "put", "serving.cache", leaf=True)
    patches.patch(batcher.MicroBatcher, "flush", "serving.batch")
    patches.patch(batcher.MicroBatcher, "_run", "serving.batch_chunk", _batch_rows(tracer))
    patches.patch(service.ForecastService, "_to_kmh", "serving.descale", leaf=True)
    patches.patch(service.ForecastService, "swap_checkpoint", "serving.swap")
    # parallel: the fleet's pipe round trips, parent side.
    patches.patch(WorkerGroup, "start_call", "parallel.send", leaf=True)
    patches.patch(WorkerGroup, "finish_call", "parallel.wait", leaf=True)
    # mlops: monitors, history, and the retrain -> shadow -> swap pipeline.
    patches.patch(drift.TruthReconciler, "reconcile", "mlops.monitor", leaf=True)
    patches.patch(drift.ErrorDriftMonitor, "observe", "mlops.monitor", leaf=True)
    patches.patch(drift.InputDriftMonitor, "observe", "mlops.monitor", leaf=True)
    patches.patch(history.HistoryBuffer, "ingest_tick", "mlops.history", leaf=True)
    patches.patch(controller, "retrain_challenger", "mlops.retrain")
    patches.patch(controller, "evaluate_shadow", "mlops.shadow")
    patches.patch(controller.ContinualController, "deploy", "mlops.swap")
    return patches
