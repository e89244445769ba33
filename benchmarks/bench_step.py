"""One synthetic_small training step: forward, backward and Adam.

Times the step ``pipeline.pretrain`` takes on ``configs/synthetic_small.yaml``:
a batch of 64 windows (lookback 96, 7 channels, so 448 series of 12
patch tokens), dropout 0.1 with its keep masks drawn from the step's
generator, the backward of the mean squared error and one Adam update.
``serial`` runs the batch as one part on the calling thread, as a process
pinned to one CPU, or a batch too small for lanes, does. ``laned`` is the
step ``pipeline.pretrain`` takes on two or more CPUs,
``Forecaster.backprop``: each half of the windows runs forward and
backward on a thread of its own, and each parameter gradient is computed
once from both halves' operands joined. Both give the same bits. Pin the BLAS threads and write JSON to compare runs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_step.py --benchmark-json=bench_step.json

This file sits outside ``testpaths``, so the test suite does not run it.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from spat.config import load_config
from spat.model import Forecaster
from spat.pipeline import Adam

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic_small.yaml"


@pytest.mark.parametrize("threads", ["serial", "laned"])
def test_training_step(benchmark, monkeypatch, threads):
    cpus = {0, 1} if threads == "laned" else {0}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    cfg = load_config(CONFIG)
    model = Forecaster(cfg.model.to_model_config(
        cfg.window.lookback, cfg.window.horizon, cfg.data.synthetic.channels))
    optimizer = Adam(model.named_parameters(), cfg.optimizer)
    data = np.random.default_rng(0)
    x = data.normal(size=(cfg.optimizer.batch_size, cfg.window.lookback,
                          model.cfg.channels))
    y = data.normal(size=(cfg.optimizer.batch_size, cfg.window.horizon,
                          model.cfg.channels))
    steps = iter(range(10**9))

    def step():
        loss = model.backprop(x, y, np.random.default_rng(
            [0, 1, 2, next(steps)]))
        optimizer.step(cfg.optimizer.lr)
        model.zero_grad()
        return loss

    assert np.isfinite(benchmark(step))
