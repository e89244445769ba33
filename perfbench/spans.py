"""In-memory span tracer and the layer boundaries it instruments in spat.

A span has a name, a start, an end and the index of its parent span. Spans
are appended to a list while the traced code runs and written out once the
benchmark ends; self time (a span's duration minus the time its direct
children cover) is derived from that list afterwards.

``instrument`` wraps spat's public functions from outside the package, by
rebinding the module and class attributes that callers look up, and puts
the originals back on exit. Nothing in spat is edited, and outside an
``instrument`` block the program runs exactly as it would without the
benchmark.
"""

from __future__ import annotations

import os
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Largest encoder depth among the workloads; the per-block metric names in
# BENCHMARK.json run over block0..block{MAX_BLOCKS-1}.
MAX_BLOCKS = 4


class Tracer:
    """Spans, named counters and tape lengths, all kept in memory."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.tape_lengths: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[i]
        return out

    def to_json(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "self_time": self.summary(),
                "counts": dict(self.counts)}


# -- instrumentation -------------------------------------------------------


def _spat_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "spat" or name.startswith("spat."))]


class _Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, original, wrapper) -> None:
        """Rebind every spat module global that names ``original``."""
        for mod in _spat_modules():
            for attr in [a for a, v in vars(mod).items() if v is original]:
                self.set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _spanned(tracer: Tracer, name: str, fn, after=None, before=None):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(out, *args, **kwargs)
        return out
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer: Tracer | None):
    """Trace spat's layer boundaries into ``tracer`` for the block's duration.

    ``None`` traces nothing, so callers can alternate traced and untraced
    iterations through one code path.
    """
    if tracer is None:
        yield
        return
    from spat import checkpoint, cost, data, model, pipeline, send, tensor

    count_flops = cost.count_flops          # the join below must stay untraced
    block_index = weakref.WeakKeyDictionary()
    flops_cache = weakref.WeakKeyDictionary()
    patches = _Patches()

    def fn(original, name, after=None, before=None):
        patches.function(original, _spanned(tracer, name, original, after, before))

    def method(cls, attr, wrapper):
        patches.set(cls, attr, wrapper)

    # tensor: one backward pass per step, and the tape length it replays
    backward = tensor.Tape.backward

    def traced_backward(tape, loss):
        tracer.tape_lengths.append(len(tape))
        tracer.begin("tensor.backward")
        try:
            return backward(tape, loss)
        finally:
            tracer.end()
    method(tensor.Tape, "backward", traced_backward)

    # model: forward passes, per-block sublayers, and the FLOPs each ran
    forward = model.Forecaster.forward

    def traced_forward(self, x, *args, **kwargs):
        training = kwargs.get("training", args[0] if args else False)
        per_shape = flops_cache.setdefault(self, {})
        key = (x.shape, tuple(self.pruned_layers()))
        if key not in per_shape:
            per_shape[key] = count_flops(self, x.shape)
        for section, flops in per_shape[key].items():
            if section.startswith("block"):
                tracer.counts["flops." + section] += flops
        for i, blk in enumerate(self.blocks):
            block_index[blk] = i
        tracer.begin("model.forward_train" if training else "model.forward")
        try:
            return forward(self, x, *args, **kwargs)
        finally:
            tracer.end()
    method(model.Forecaster, "forward", traced_forward)

    for attr, section in (("attention_sublayer", "attention"), ("ffn_sublayer", "ffn")):
        original = getattr(model.AttentionBlock, attr)

        def traced_sublayer(self, *args, _original=original, _section=section, **kwargs):
            tracer.begin(f"model.block{block_index.get(self, '?')}.{_section}")
            try:
                return _original(self, *args, **kwargs)
            finally:
                tracer.end()
        method(model.AttentionBlock, attr, traced_sublayer)
    fn(model.clone_model, "model.clone_model")

    # pipeline: stages, the optimizer step, and evaluation
    method(pipeline.Adam, "step", _spanned(tracer, "pipeline.adam", pipeline.Adam.step))

    def epochs(result, *args, **kwargs):
        tracer.counts["pipeline.epochs_run"] += result.epochs_run
    fn(pipeline.run_pipeline, "pipeline.run_pipeline")
    fn(pipeline.pretrain, "pipeline.pretrain", after=epochs)
    fn(pipeline.finetune, "pipeline.finetune", after=epochs)
    fn(pipeline.evaluate_metrics, "pipeline.evaluate_metrics")
    fn(pipeline.evaluate_loss, "pipeline.evaluate_loss")
    fn(pipeline.prune, "pipeline.prune")
    fn(pipeline.iterative_prune, "pipeline.iterative_prune")
    fn(pipeline.load_dataset, "pipeline.load_dataset")

    # send: scoring and the reductions that turn mask gradients into scores
    def windows(model_, batches):
        if hasattr(batches, "__len__"):
            tracer.counts["send.windows"] += sum(len(b[0]) for b in batches)
    fn(send.compute_sensitivity, "send.compute_sensitivity", before=windows)
    for name in ("normalize_sensitivity", "aggregate_heads", "send_score"):
        fn(getattr(send, name), "send.reduce." + name)
    fn(send.plan_from_records, "send.plan_from_records")

    # data: ingestion, windowing and per-batch gathers
    fn(data.load_csv, "data.load_csv")
    fn(data.split, "data.split")
    fn(data.dataset_windows, "data.dataset_windows")
    fn(data.generate_synthetic, "data.generate_synthetic")
    batch_iterator = data.batch_iterator

    def traced_batch_iterator(*args, **kwargs):
        batches = batch_iterator(*args, **kwargs)
        while True:
            tracer.begin("data.batch_gather")
            try:
                batch = next(batches)
            except StopIteration:
                return
            finally:
                tracer.end()
            tracer.counts["data.batches"] += 1
            yield batch
    patches.function(batch_iterator, traced_batch_iterator)

    # checkpoint: container writes and reads, with their sizes
    def size_after(out, path, *args, **kwargs):
        tracer.counts["checkpoint.bytes"] += os.path.getsize(path)

    def size_before(path, *args, **kwargs):
        tracer.counts["checkpoint.bytes"] += os.path.getsize(path)
    fn(checkpoint.save_checkpoint, "checkpoint.save", after=size_after)
    fn(checkpoint.load_checkpoint, "checkpoint.load", before=size_before)

    # cost: analytic accounting as the program calls it
    fn(cost.count_flops, "cost.count_flops")
    fn(cost.count_params, "cost.count_params")
    fn(cost.build_cost_report, "cost.build_cost_report")

    try:
        yield
    finally:
        patches.restore()


# -- per-layer metrics -----------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, as (value, unit).

    A layer the workload never entered reads 0. ``tensor.records_per_step``
    is the longest tape replayed: a full-model step, not a pruned one.
    """
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(*names):
        return sum(summary.get(n, {}).get("total_s", 0.0) for n in names)

    def per(value, n):
        return value / n if n else 0.0

    def gflops_per_s(sections):
        flops = sum(counts.get("flops." + s, 0.0) for s in sections)
        seconds = total(*("model." + s for s in sections))
        return per(flops, seconds) / 1e9

    runs = calls("pipeline.run_pipeline")
    scorings = calls("send.compute_sensitivity")
    ckpt_io = calls("checkpoint.save") + calls("checkpoint.load")
    out = {
        "tensor.backward_ms_per_step": (
            1e3 * per(total("tensor.backward"), calls("tensor.backward")), "ms"),
        "tensor.records_per_step": (float(max(tracer.tape_lengths, default=0)), "count"),
        "model.forward_train_ms_per_step": (
            1e3 * per(total("model.forward_train"), calls("model.forward_train")), "ms"),
    }
    for i in range(MAX_BLOCKS):
        for part in ("attention", "ffn"):
            name = f"block{i}.{part}"
            out[f"model.{name}_ms"] = (
                1e3 * per(total("model." + name), calls("model." + name)), "ms")
            out[f"model.{name}_gflops_per_s"] = (gflops_per_s([name]), "GFLOP/s")
    for part in ("attention", "ffn"):
        out[f"model.{part}_gflops_per_s"] = (
            gflops_per_s([f"block{i}.{part}" for i in range(MAX_BLOCKS)]), "GFLOP/s")
    out.update({
        "pipeline.adam_ms_per_step": (
            1e3 * per(total("pipeline.adam"), calls("pipeline.adam")), "ms"),
        "pipeline.pretrain_s": (
            per(total("pipeline.pretrain"), calls("pipeline.pretrain")), "s"),
        "pipeline.finetune_s": (
            per(total("pipeline.finetune"), calls("pipeline.finetune")), "s"),
        "pipeline.eval_s": (
            per(total("pipeline.evaluate_metrics"), calls("pipeline.evaluate_metrics")), "s"),
        "pipeline.steps": (per(calls("pipeline.adam"), runs), "count"),
        "pipeline.epochs_run": (per(counts.get("pipeline.epochs_run", 0.0), runs), "count"),
        "send.compute_sensitivity_s": (
            per(total("send.compute_sensitivity"), scorings), "s"),
        "send.reduce_ms": (1e3 * per(total("send.reduce.normalize_sensitivity",
                                           "send.reduce.aggregate_heads",
                                           "send.reduce.send_score"), scorings), "ms"),
        "send.windows": (per(counts.get("send.windows", 0.0), scorings), "count"),
        "data.load_csv_s": (per(total("data.load_csv"), calls("data.load_csv")), "s"),
        "data.windows_s": (
            per(total("data.dataset_windows"), calls("data.dataset_windows")), "s"),
        "data.batch_gather_ms": (
            1e3 * per(total("data.batch_gather"), counts.get("data.batches", 0.0)), "ms"),
        "checkpoint.save_ms": (
            1e3 * per(total("checkpoint.save"), calls("checkpoint.save")), "ms"),
        "checkpoint.load_ms": (
            1e3 * per(total("checkpoint.load"), calls("checkpoint.load")), "ms"),
        "checkpoint.bytes": (per(counts.get("checkpoint.bytes", 0.0), ckpt_io), "count"),
    })
    return out
