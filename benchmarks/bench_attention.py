"""Forward plus backward of ``tensor.attention_sublayer``, chunked and not.

Times the op at the benchmark's two attention shapes: ``score_variate``
(B=32, S=128, H=4, d=32, where the [B, H, S, S] scores are 16 MiB) and
``pipeline_temporal`` (B=448, S=12, H=2, d=16, whose scores fit in one
chunk). ``one_chunk`` raises the chunk budget so the whole batch is one
chunk, which is the order of work before the batch was chunked; the two
give the same bits, so the pair isolates the effect of chunking. The op
runs on the calling thread; two threads share a scoring batch by halves
of its windows, which ``bench_score.py`` times. Every input and the probe
take a gradient, pre-norm form, no dropout. Pin the BLAS threads and
write JSON to compare runs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_attention.py --benchmark-json=bench_attention.json

This file sits outside ``testpaths``, so the test suite does not run it.
"""

import numpy as np
import pytest

from spat import tensor
from spat.tensor import Tape, Tensor, attention_sublayer, mse_loss

SHAPES = {"score_variate": (32, 128, 4, 32),
          "pipeline_temporal": (448, 12, 2, 16)}


@pytest.mark.parametrize("chunking", ["chunked", "one_chunk"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_forward_backward(benchmark, monkeypatch, shape, chunking):
    batch, s, heads, d = SHAPES[shape]
    if chunking == "one_chunk":
        monkeypatch.setattr(tensor, "_ATTENTION_CHUNK_BYTES", 2**62)
    rng = np.random.default_rng(0)
    h, x, target = (rng.normal(0.0, 0.5, size=(batch, s, d)) for _ in range(3))
    linears = [rng.normal(0.0, 0.2, size=shape)
               for _ in range(4) for shape in ((d, d), (d,))]

    def step():
        ts = [Tensor(a, requires_grad=True) for a in [h, x] + linears]
        probe = Tensor(np.broadcast_to(1.0, (heads, s, s)), requires_grad=True)
        with Tape() as tape:
            loss = mse_loss(attention_sublayer(*ts, heads, probe=probe), target)
        tape.backward(loss)
        return probe.grad

    assert np.isfinite(benchmark(step)).all()
