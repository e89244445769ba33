"""SEND scoring of the ``score_variate`` shapes: ``send.compute_sensitivity``.

Times the scoring pass of perfbench's ``score_variate`` workload: a
128-channel variate-token model (lookback 96, horizon 24, d_model 32,
d_ff 64, 4 heads, 4 layers) over 181 windows in batches of 32, the last
of 21. ``serial`` scores every batch on the calling thread, as a process
pinned to one CPU does. ``two_lanes`` lets a thread spat starts for each
batch score the second half of its windows, forward, its share of the
loss and backward, while the calling thread scores the first, as on two
or more CPUs. Scoring makes one probe per layer for the whole pass, and the
lanes share it: its gradient sums the batch's attention items in batch
order once both lanes are done with them, as a parameter's gradient sums
its rows (``tensor.LeafMerge``), and then adds to the probe's ``grad``.
Both give the same bits. Pin the BLAS threads and write JSON to compare runs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_score.py --benchmark-json=bench_score.json

This file sits outside ``testpaths``, so the test suite does not run it.
"""

import os

import numpy as np
import pytest

from spat.model import Forecaster, ModelConfig
from spat.send import compute_sensitivity

WINDOWS, BATCH, CHANNELS = 181, 32, 128


@pytest.mark.parametrize("threads", ["serial", "two_lanes"])
def test_compute_sensitivity(benchmark, monkeypatch, threads):
    cpus = {0} if threads == "serial" else {0, 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    model = Forecaster(ModelConfig(
        mode="variate_tokens", lookback=96, horizon=24, channels=CHANNELS,
        d_model=32, d_ff=64, heads=4, layers=4, dropout=0.1), seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(WINDOWS, 96, CHANNELS))
    y = rng.normal(size=(WINDOWS, 24, CHANNELS))
    batches = [(x[i:i + BATCH], y[i:i + BATCH])
               for i in range(0, WINDOWS, BATCH)]
    records = benchmark(compute_sensitivity, model, batches)
    assert [r.layer_index for r in records] == [0, 1, 2, 3]
    assert all(np.isfinite(r.send) for r in records)
