"""Untaped forecasts of the synthetic_small full and pruned models.

Times ``Forecaster.forecast`` at the two batch sizes perfbench's
``serve_pruned`` workload serves: one window, and 64 windows (lookback 96,
7 channels, so 448 series of 12 patch tokens). The pruned model has lost
block 2's attention, the layer SEND removes on ``configs/synthetic_small.yaml``.
``serial`` runs everything on the calling thread, as a process pinned to
one CPU does. ``two_lanes`` lets a thread spat starts for the batch carry
the second half of a batch-64 forecast's windows through the whole model
while the calling thread carries the first, as on two or more CPUs; a batch-1
forecast stays on the calling thread either way. Both give the same bits.
Pin the BLAS threads and write JSON to compare runs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_forecast.py --benchmark-json=bench_forecast.json

This file sits outside ``testpaths``, so the test suite does not run it.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from spat.config import load_config
from spat.model import Forecaster

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic_small.yaml"


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("pruned", [False, True], ids=["full", "pruned"])
@pytest.mark.parametrize("threads", ["serial", "two_lanes"])
def test_forecast(benchmark, monkeypatch, threads, pruned, batch):
    cpus = {0} if threads == "serial" else {0, 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    cfg = load_config(CONFIG)
    model = Forecaster(cfg.model.to_model_config(
        cfg.window.lookback, cfg.window.horizon, cfg.data.synthetic.channels))
    if pruned:
        model.blocks[2].remove_attention()
    x = np.random.default_rng(0).normal(
        size=(batch, cfg.window.lookback, model.cfg.channels))
    out = benchmark(model.forecast, x)
    assert out.shape == (batch, cfg.window.horizon, model.cfg.channels)
    assert np.isfinite(out).all()
