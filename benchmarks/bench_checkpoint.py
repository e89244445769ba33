"""Checkpoint loads and clones of the synthetic_small full and pruned models.

Times ``load_checkpoint`` of the two checkpoints perfbench's
``serve_pruned`` workload loads in its setup, and ``clone_model``, which
``prune`` and ``iterative_prune`` call once each. The pruned model has
lost block 2's attention, the layer SEND removes on
``configs/synthetic_small.yaml``. A loaded or cloned model is built from
its arrays and draws no initial values. Pin the BLAS threads and write JSON
to compare runs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_checkpoint.py --benchmark-json=bench_checkpoint.json

This file sits outside ``testpaths``, so the test suite does not run it.
"""

from pathlib import Path

import numpy as np
import pytest

from spat.checkpoint import load_checkpoint, save_checkpoint
from spat.config import load_config
from spat.model import Forecaster, clone_model

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic_small.yaml"


def synthetic_small(pruned):
    cfg = load_config(CONFIG)
    model = Forecaster(cfg.model.to_model_config(
        cfg.window.lookback, cfg.window.horizon, cfg.data.synthetic.channels))
    if pruned:
        model.blocks[2].remove_attention()
    return model


@pytest.mark.parametrize("pruned", [False, True], ids=["full", "pruned"])
def test_load_checkpoint(benchmark, tmp_path, pruned):
    model = synthetic_small(pruned)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded, _ = benchmark(load_checkpoint, path)
    assert loaded.pruned_layers() == model.pruned_layers()
    for (_, a), (_, b) in zip(loaded.named_parameters(), model.named_parameters()):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("pruned", [False, True], ids=["full", "pruned"])
def test_clone_model(benchmark, pruned):
    model = synthetic_small(pruned)
    twin = benchmark(clone_model, model)
    assert twin.pruned_layers() == model.pruned_layers()
    assert twin.state_dict().keys() == model.state_dict().keys()
