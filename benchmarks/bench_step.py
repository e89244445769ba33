"""One synthetic_small training step: forward, backward and Adam.

Times the step ``pipeline.pretrain`` takes on ``configs/synthetic_small.yaml``:
a batch of 64 windows (lookback 96, 7 channels, so 448 series of 12
patch tokens), dropout 0.1 with its keep masks drawn from the step's
generator, the backward of the mean squared error and one Adam update.
``serial`` runs it all on the calling thread, as a process pinned to one
CPU does. ``two_threads`` lets spat's helper thread draw the keep masks,
compute and accumulate the parameter gradients and take its share of the
GELU's ``erf``, as on two or more CPUs. Both give the same bits. Pin the
BLAS threads and write JSON to compare runs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_step.py --benchmark-json=bench_step.json

This file sits outside ``testpaths``, so the test suite does not run it.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from spat import tensor
from spat.config import load_config
from spat.model import Forecaster
from spat.pipeline import Adam
from spat.tensor import Tape, mse_loss

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic_small.yaml"


@pytest.mark.parametrize("threads", ["serial", "two_threads"])
def test_training_step(benchmark, monkeypatch, threads):
    cpus = {0} if threads == "serial" else {0, 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(tensor, "_HELPER", None)
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
        rng = np.random.default_rng([0, 1, 2, next(steps)])
        with Tape() as tape:
            loss = mse_loss(model.forward(x, training=True, rng=rng), y)
        tape.backward(loss)
        optimizer.step(cfg.optimizer.lr)
        model.zero_grad()
        return loss.item()

    assert np.isfinite(benchmark(step))
