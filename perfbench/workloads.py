"""The benchmark's workloads, each a closed loop with one caller.

* ``pipeline_temporal``: ``run_pipeline`` on the synthetic_small shapes
  (temporal tokens, S=12, d_model 16, 3 layers, batch 64), as a user runs
  it. Tape forward/backward and Adam dominate; attention is a small share.
* ``score_variate``: a 128-channel variate-token model (S=128, d_model 32,
  4 layers) read through ``load_csv``; sensitivity scoring, the plan,
  ``prune`` and ``iterative_prune``, with no optimizer. Attention is ~72%
  of forward FLOPs, so the mask-gradient path and S^2 terms dominate.
* ``serve_pruned``: checkpoints of a full and a pruned synthetic_small
  model are loaded and forecast at batch 1 and batch 64, calls to the two
  interleaved. No tape is active, so tape and backward changes bypass it.

Every workload ends holding a full model and its pruned twin, and serves
both the same way, so inference latency and the pruning speed-up are
reported on each. The seed makes every input; spat receives only the
generated inputs and configs.

Times are reported at reference machine speed (see ``SpeedReference``).
"""

from __future__ import annotations

import bisect
import math
import resource
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spat import checkpoint, config, cost, data, model, pipeline, send

from spans import Tracer, instrument

LOOKBACK, HORIZON = 96, 24

# configs/synthetic_small.yaml, copied so that editing the shipped example
# does not move the benchmark. Only the run length differs: a 700-step
# series and 2 + 1 epochs give ~2 s pipelines, so one run times a dozen.
SMALL_MODEL = {
    "mode": "temporal_tokens", "d_model": 16, "d_ff": 32, "heads": 2,
    "layers": 3, "patch_len": 16, "patch_stride": 8, "end_padding": True,
    "dropout": 0.1, "activation": "gelu", "norm_placement": "pre",
    "instance_norm": True,
}
PIPELINE_EPOCHS, PIPELINE_FINETUNE_EPOCHS = 2, 1
PIPELINE_LENGTH = 700

# score_variate: 128 tokens of d_model 32 over 4 layers. A 1200-step CSV at
# stride 4 gives 181 training windows, six scoring batches of 32. Alpha
# 0.25 prunes one layer, so iterative_prune rescoring once must agree with
# the single-shot plan.
VARIATE_CHANNELS, VARIATE_LENGTH, VARIATE_STRIDE = 128, 1200, 4
VARIATE_MODEL = {**SMALL_MODEL, "mode": "variate_tokens", "d_model": 32,
                 "d_ff": 64, "heads": 4, "layers": 4}
VARIATE_BATCH, VARIATE_ALPHA = 32, 0.25

# Serving: each round makes B1_PAIRS interleaved batch-1 calls on the full
# and pruned models, then one interleaved batch-64 pair. The two training
# workloads serve their final models for a short tail after their loop;
# score_variate's tail makes 3x the batch-1 pairs per round, so its slow
# batch-64 pairs leave it 300 batch-1 samples.
B1_PAIRS = 20
SERVE_TAIL_S, SERVE_TAIL_MIN_ROUNDS = 6.0, 5

# Kernel seconds that define reference speed, the sampling period, and how
# near an interval a sample must be to describe it.
REFERENCE_S = 0.0015
SAMPLE_EVERY_S = 0.05
NEAR_S = 0.05


def make_series(seed: int, length: int, channels: int, stream: int) -> np.ndarray:
    """Seeded mixture of daily-, weekly- and half-daily-like cycles plus noise."""
    rng = np.random.default_rng([seed, stream])
    t = np.arange(length)[:, None]
    values = np.zeros((length, channels))
    for period in (24.0, 168.0, 12.0):
        amp = rng.uniform(0.4, 1.2, size=channels)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=channels)
        values += amp * np.sin(2.0 * np.pi * t / period + phase)
    return values + rng.normal(0.0, 0.1, size=values.shape)


def sliding_windows(values: np.ndarray, stride: int):
    starts = range(0, len(values) - LOOKBACK - HORIZON + 1, stride)
    x = np.stack([values[s:s + LOOKBACK] for s in starts])
    y = np.stack([values[s + LOOKBACK:s + LOOKBACK + HORIZON] for s in starts])
    return x, y


# -- measurement ---------------------------------------------------------------


class SpeedReference:
    """A fixed numpy kernel, independent of spat, that samples machine speed.

    The machine this benchmark was built on switches between a fast and a
    ~50% slower state every fraction of a second as other tenants load it;
    the guest sees no steal time, but the kernel slows in step with spat.
    While a measured loop runs, a wall-clock timer interrupts it every
    ``SAMPLE_EVERY_S`` to time the kernel. An interval is then reported as
    its wall time minus the kernel runs inside it, times ``REFERENCE_S``
    over the mean kernel time in and within ``NEAR_S`` of it: its length at
    one fixed machine speed.
    """

    def __init__(self):
        rng = np.random.default_rng(20250508)        # fixed: not the workload seed
        self._w1 = rng.normal(size=(16, 32)) * 0.1
        self._w2 = rng.normal(size=(32, 16)) * 0.1
        self._tokens = [rng.normal(size=(rows, 12, 16)) for rows in (7, 112)]
        self._scores = rng.normal(size=(1, 2, 128, 128))
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._kernel()

    def _kernel(self):
        # token blocks the size of a batch-1 forecast and of a synthetic_small
        # batch (interpreter- and cache-bound) ...
        for h in self._tokens:
            for _ in range(2):
                s = np.tanh(h @ self._w1) @ self._w2
                e = np.exp(s - s.max(axis=-1, keepdims=True))
                h = e / e.sum(axis=-1, keepdims=True) + 0.5 * h
        # ... and one S=128 attention softmax, memory-bound
        e = np.exp(self._scores - self._scores.max(axis=-1, keepdims=True))
        return h, e / e.sum(axis=-1, keepdims=True)

    def sample(self, *_signal) -> None:
        t = perf_counter()
        self._kernel()
        self.starts.append(t)
        self.seconds.append(perf_counter() - t)

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] at reference speed, kernel runs left out."""
        at = self.starts
        inside = sum(self.seconds[bisect.bisect_left(at, start):bisect.bisect_left(at, end)])
        near = self.seconds[bisect.bisect_left(at, start - NEAR_S):
                            bisect.bisect_left(at, end + NEAR_S)]
        return (end - start - inside) * REFERENCE_S * len(near) / sum(near)

    def speed(self) -> float:
        """Machine speed over the run; 1.0 is reference speed."""
        return REFERENCE_S / statistics.median(self.seconds)


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails when one of its
    output checks does."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, what: str, **checks: bool) -> None:
        self.attempted += 1
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: failed {', '.join(bad)}")


@dataclass
class Iteration:
    start: float
    end: float
    traced: bool
    sample: object                # what verify() returned for it
    ref_seconds: float = 0.0      # its length at reference speed

    @property
    def scale(self) -> float:
        """Wall seconds inside the iteration to reference seconds."""
        return self.ref_seconds / (self.end - self.start)


@dataclass
class Run:
    seed: int
    seconds: float
    work: Path
    tracer: Tracer | None
    reference: SpeedReference = field(default_factory=SpeedReference)
    tally: Tally = field(default_factory=Tally)
    metrics: dict = field(default_factory=dict)     # end-to-end: name -> (value, unit)
    extra: dict = field(default_factory=dict)       # printed beside them
    layer: dict = field(default_factory=dict)       # per-layer values the tracer lacks
    loop: list[Iteration] = field(default_factory=list)   # the workload's main loop


def timed_setup(run: Run, prepare, reps: int):
    """Run ``prepare`` ``reps`` times untraced and report the median; a traced
    run repeats it once more under the tracer."""
    ref = run.reference
    spans = []
    for _ in range(reps):
        ref.sample()
        with ref.sampling():
            t0 = perf_counter()
            out = prepare()
            t1 = perf_counter()
        spans.append((t0, t1))
    ref.sample()
    if run.tracer is not None:
        with run.tracer.span("bench.setup"), instrument(run.tracer):
            out = prepare()
    run.metrics["setup_s"] = (statistics.median(ref.scaled(*span) for span in spans), "s")
    run.extra["setup_reps"] = (reps, "count")
    return out


def closed_loop(run: Run, core, verify, seconds: float, min_iters: int = 1,
                label: str = "bench.iteration") -> list[Iteration]:
    """Call ``core`` until the next call would overrun ``seconds``.

    A traced run traces every second iteration, so traced and untraced
    iteration times come from the same run; speed is sampled only in
    untraced ones. ``verify(out, traced)`` checks each output outside the
    timed region; what it returns is kept as the iteration's sample.
    """
    if run.tracer is not None:
        min_iters = max(min_iters, 2)
    ref = run.reference
    iterations = []
    start = perf_counter()
    last = 0.0
    while len(iterations) < min_iters or perf_counter() - start + last <= seconds:
        traced = run.tracer is not None and len(iterations) % 2 == 1
        ref.sample()
        with (run.tracer.span(label) if traced else ref.sampling()), \
                instrument(run.tracer if traced else None):
            t0 = perf_counter()
            out = core()
            t1 = perf_counter()
        last = t1 - t0
        iterations.append(Iteration(t0, t1, traced, verify(out, traced)))
    ref.sample()
    for it in iterations:
        it.ref_seconds = ref.scaled(it.start, it.end)
    return iterations


def untraced(iterations: list[Iteration]) -> list[Iteration]:
    return [it for it in iterations if not it.traced]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms_percentile(seconds: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q))


# -- serving, shared by every workload ------------------------------------------


def _forecast_ok(out: np.ndarray, x: np.ndarray, horizon: int) -> dict[str, bool]:
    return {"shape": out.shape == (x.shape[0], horizon, x.shape[2]),
            "finite": bool(np.isfinite(out).all())}


def serve(run: Run, full, pruned, x: np.ndarray, seconds: float,
          min_rounds: int, primary: bool, b1_pairs: int = B1_PAIRS) -> None:
    """Interleaved batch-1 and batch-64 forecasts on the full and pruned models.

    Reports pruned batch-1 p50/p90 latency and the full/pruned ratio of
    median batch-64 latencies. Forecasts must be finite, shaped [B, T, C]
    and bit-identical on repeated inputs.
    """
    horizon = full.cfg.horizon
    b64 = [x[i:i + 64] for i in range(0, len(x) - 63, 64)][:4]
    first = {}
    rounds = [0]

    def one_round():
        r = rounds[0]
        calls = []
        order = (("full", full), ("pruned", pruned))
        for j in range(b1_pairs):
            xi = x[(r * b1_pairs + j) % len(x)][None]
            for tag, m in (order if j % 2 == 0 else order[::-1]):
                t0 = perf_counter()
                out = m.forecast(xi)
                calls.append((tag, 1, (t0, perf_counter()), out, xi, None))
        k = r % len(b64)
        for tag, m in (order if r % 2 == 0 else order[::-1]):
            t0 = perf_counter()
            out = m.forecast(b64[k])
            calls.append((tag, 64, (t0, perf_counter()), out, b64[k], k))
        rounds[0] += 1
        return calls

    def verify(calls, traced):
        for tag, b, span, out, xi, k in calls:
            checks = _forecast_ok(out, xi, horizon)
            if k is not None:
                ref = first.setdefault((tag, k), out)
                checks["repeatable"] = np.array_equal(ref, out)
            run.tally.op(f"forecast {tag} b{b}", **checks)
        return [(tag, b, span) for tag, b, span, *_ in calls]

    iterations = closed_loop(run, one_round, verify, seconds, min_rounds,
                             label="bench.serve")
    samples = {(tag, b): [] for tag in ("full", "pruned") for b in (1, 64)}
    for it in untraced(iterations):
        for tag, b, span in it.sample:
            samples[(tag, b)].append(run.reference.scaled(*span))
    p1 = samples[("pruned", 1)]
    f64, p64 = (statistics.median(samples[(t, 64)]) for t in ("full", "pruned"))
    run.metrics["infer_b1_p50_ms"] = (_ms_percentile(p1, 50), "ms")
    run.metrics["infer_b1_p90_ms"] = (_ms_percentile(p1, 90), "ms")
    run.metrics["prune_speedup_b64"] = (f64 / p64, "x")
    full_flops = sum(cost.count_flops(full).values())
    pruned_flops = sum(cost.count_flops(pruned).values())
    run.layer.update({
        "cost.flops_b1_full": (float(full_flops), "count"),
        "cost.flops_b1_pruned": (float(pruned_flops), "count"),
        "cost.flops_reduction_pct": (cost.reduction_percent(full_flops, pruned_flops), "%"),
    })
    run.extra.update({
        "infer_b1_samples": (len(p1), "count"),
        "infer_b1_full_p50_ms": (_ms_percentile(samples[("full", 1)], 50), "ms"),
        "infer_b64_windows_per_s": (64.0 / p64, "windows/s"),
        "infer_b64_samples": (len(samples[("pruned", 64)]), "count"),
    })
    if primary:
        run.loop = iterations
        run.metrics["iter_s"] = (
            statistics.median(it.ref_seconds for it in untraced(iterations)), "s")
        run.metrics["windows_per_s"] = (64.0 / p64, "windows/s")


# -- workloads --------------------------------------------------------------


def pipeline_config(seed: int):
    return config.config_from_dict({
        "seed": seed,
        "run_dir": "unused",
        "data": {"source": "synthetic", "name": "synth7",
                 "split_ratios": [0.7, 0.1, 0.2],
                 "synthetic": {"channels": 7, "length": PIPELINE_LENGTH,
                               "frequencies": [11.0, 23.0, 41.0],
                               "noise_std": 0.1, "trend": 0.0, "seed": seed}},
        "window": {"lookback": LOOKBACK, "horizon": HORIZON, "stride": 2},
        "model": SMALL_MODEL,
        "optimizer": {"lr": 0.002, "epochs": PIPELINE_EPOCHS,
                      "finetune_epochs": PIPELINE_FINETUNE_EPOCHS,
                      "patience": 5, "batch_size": 64},
        "pruning": {"alpha": 0.3},
    })


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def pipeline_temporal(run: Run) -> None:
    cfg = pipeline_config(run.seed)

    def prepare():
        ds = pipeline.load_dataset(cfg)
        return data.dataset_windows(ds, "train", cfg.window)
    train_x, _ = timed_setup(run, prepare, reps=15)
    epochs = PIPELINE_EPOCHS + PIPELINE_FINETUNE_EPOCHS   # patience 5 never stops early
    ledgers, models = [], []

    def core():
        run_dir = run.work / f"pipeline{len(ledgers)}"
        return run_dir, pipeline.run_pipeline(cfg, run_dir=run_dir)

    def verify(result, traced):
        run_dir, state = result
        ledger = (run_dir / "metrics.csv").read_bytes()
        ledgers.append(ledger)
        rows = {r["stage"]: r for r in _read_csv(run_dir / "metrics.csv")}
        timings = {r["stage"]: float(r["seconds"]) for r in _read_csv(run_dir / "timings.csv")}
        full, _ = checkpoint.load_checkpoint(run_dir / "pretrained.ckpt")
        pruned, _ = checkpoint.load_checkpoint(run_dir / "finetuned.ckpt")
        plan = send.parse_report((run_dir / "send_report.txt").read_text())

        def accounted(row, m):
            return (int(row["flops"]) == sum(cost.count_flops(m).values())
                    and int(row["params"]) == sum(cost.count_params(m).values()))
        run.tally.op(
            "run_pipeline",
            ledger_repeats=ledger == ledgers[0],
            ledger_cost_pretrained=accounted(rows["pretrained"], full),
            ledger_cost_finetuned=accounted(rows["finetuned"], pruned),
            pruned_set=pruned.pruned_layers() == sorted(plan.i_pruned) == state.removed,
            finite_mse=all(math.isfinite(float(r["mse"])) for r in rows.values()),
        )
        run.extra["finetuned_mse"] = (float(rows["finetuned"]["mse"]), "mse")
        models[:] = (full, pruned)
        return timings["pretrain"] + timings["finetune"], timings["score"]

    run.loop = closed_loop(run, core, verify, run.seconds)
    done = untraced(run.loop)
    n = len(train_x)
    run.metrics["iter_s"] = (statistics.median(it.ref_seconds for it in done), "s")
    run.metrics["windows_per_s"] = (statistics.median(
        n * epochs / (it.sample[0] * it.scale) for it in done), "windows/s")
    run.extra.update({
        "pipeline_s": run.metrics["iter_s"],
        "train_windows_per_s": run.metrics["windows_per_s"],
        "score_windows_per_s": (statistics.median(
            n / (it.sample[1] * it.scale) for it in done), "windows/s"),
        "iterations": (len(run.loop), "count"),
    })
    x, _ = sliding_windows(make_series(run.seed, 400, 7, stream=1), stride=1)
    serve(run, *models, x, SERVE_TAIL_S, SERVE_TAIL_MIN_ROUNDS, primary=False)


def score_variate(run: Run) -> None:
    csv_path = run.work / "variate.csv"
    values = make_series(run.seed, VARIATE_LENGTH, VARIATE_CHANNELS, stream=0)
    with open(csv_path, "w") as f:
        f.write("date," + ",".join(f"ch{i}" for i in range(VARIATE_CHANNELS)) + "\n")
        for t, row in enumerate(values):
            f.write(f"{t}," + ",".join(repr(float(v)) for v in row) + "\n")
    spec = data.WindowSpec(LOOKBACK, HORIZON, VARIATE_STRIDE)
    model_cfg = model.ModelConfig(lookback=LOOKBACK, horizon=HORIZON,
                                  channels=VARIATE_CHANNELS, **VARIATE_MODEL)

    def prepare():
        raw = data.load_csv(csv_path, date_column=True, name="variate128")
        ds = data.split(raw, ratios=(0.7, 0.1, 0.2))
        train = data.dataset_windows(ds, "train", spec)
        batches = pipeline.scoring_batches(train, VARIATE_BATCH, None)
        net = model.Forecaster(model_cfg, seed=pipeline.SeedStreams(run.seed).model_init())
        return train, batches, net
    train, batches, net = timed_setup(run, prepare, reps=5)
    reports, models = [], []

    def core():
        t0 = perf_counter()
        records = send.compute_sensitivity(net, batches)
        scoring = (t0, perf_counter())
        plan = send.plan_from_records(records, VARIATE_ALPHA)
        pruned = pipeline.prune(net, plan)
        _, removed = pipeline.iterative_prune(net, batches, plan.k)
        return records, plan, pruned, removed, scoring

    def verify(result, traced):
        records, plan, pruned, removed, scoring = result
        reports.append(send.format_report(records, plan))
        run.tally.op(
            "score and prune",
            report_repeats=reports[-1] == reports[0],
            finite_scores=all(math.isfinite(r.send) for r in records),
            pruned_set=pruned.pruned_layers() == sorted(plan.i_pruned),
            iterative_agrees=removed == plan.i_pruned,
        )
        models[:] = (net, pruned)
        return scoring

    run.loop = closed_loop(run, core, verify, run.seconds)
    done = untraced(run.loop)
    run.metrics["iter_s"] = (statistics.median(it.ref_seconds for it in done), "s")
    run.metrics["windows_per_s"] = (statistics.median(
        len(train[0]) / run.reference.scaled(*it.sample) for it in done), "windows/s")
    run.extra.update({
        "score_windows_per_s": run.metrics["windows_per_s"],
        "score_batches": (len(batches), "count"),
        "iterations": (len(run.loop), "count"),
    })
    serve(run, *models, train[0], SERVE_TAIL_S, SERVE_TAIL_MIN_ROUNDS, primary=False,
          b1_pairs=3 * B1_PAIRS)


def serve_pruned(run: Run) -> None:
    x, y = sliding_windows(make_series(run.seed, 1000, 7, stream=2), stride=1)
    model_cfg = model.ModelConfig(lookback=LOOKBACK, horizon=HORIZON, channels=7,
                                  **SMALL_MODEL)
    full = model.Forecaster(model_cfg, seed=pipeline.SeedStreams(run.seed).model_init())
    batches = [(x[i:i + 64], y[i:i + 64]) for i in range(0, 256, 64)]
    plan = send.plan_from_records(send.compute_sensitivity(full, batches), 0.3)
    full_path, pruned_path = run.work / "full.ckpt", run.work / "pruned.ckpt"
    checkpoint.save_checkpoint(full_path, full)
    checkpoint.save_checkpoint(pruned_path, pipeline.prune(full, plan))

    def prepare():
        return (checkpoint.load_checkpoint(full_path)[0],
                checkpoint.load_checkpoint(pruned_path)[0])
    full, pruned = timed_setup(run, prepare, reps=25)
    run.tally.op("load checkpoints",
                 pruned_set=pruned.pruned_layers() == sorted(plan.i_pruned),
                 full_intact=full.pruned_layers() == [])
    serve(run, full, pruned, x, run.seconds, min_rounds=1, primary=True)


WORKLOADS = {
    "pipeline_temporal": pipeline_temporal,
    "score_variate": score_variate,
    "serve_pruned": serve_pruned,
}


def run_workload(name: str, run: Run) -> None:
    # glibc serves a buffer above its mmap threshold with fresh pages, and
    # raises the threshold to the size of the largest such buffer freed so
    # far. Left to chance, runs of one workload differed 15x in page faults
    # and 25% in batch-64 throughput; freeing one 16 MB buffer first puts
    # every run in the state a long-lived process settles into.
    np.ones(16 * 2**20 // 8)
    WORKLOADS[name](run)
    run.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    run.extra["machine_speed"] = (run.reference.speed(), "x reference")
    traced = [it.ref_seconds for it in run.loop if it.traced]
    plain = [it.ref_seconds for it in untraced(run.loop)]
    if traced and plain:
        base = statistics.median(plain)
        run.layer["trace_overhead_pct"] = (
            100.0 * (statistics.median(traced) - base) / base, "%")
