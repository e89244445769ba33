"""Forward plus backward of a pre-norm FFN sublayer: ``tensor.layer_norm``
then ``tensor.ffn``.

Times the two fused ops at the benchmark's two FFN shapes:
``pipeline_temporal`` (448 × 12 tokens, d 16, d_ff 32, dropout 0.1 as in
training) and ``score_variate`` (32 × 128 tokens, d 32, d_ff 64, no
dropout as in scoring). Every input takes a gradient, and a training
step's keep-mask draws are timed with it. The ops run on the calling
thread; two threads share a batch by halves of its windows, which
``bench_forecast.py`` and ``bench_score.py`` time. Pin the BLAS threads
and write JSON to compare runs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_ffn.py --benchmark-json=bench_ffn.json

This file sits outside ``testpaths``, so the test suite does not run it.
"""

import numpy as np
import pytest

from spat.tensor import Tape, Tensor, ffn, keep_mask, layer_norm, mse_loss

# batch, tokens, d_model, d_ff, dropout
SHAPES = {"pipeline_temporal": (448, 12, 16, 32, 0.1),
          "score_variate": (32, 128, 32, 64, 0.0)}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_forward_backward(benchmark, shape):
    batch, s, d, f, rate = SHAPES[shape]
    rng = np.random.default_rng(0)
    h, target = (rng.normal(0.0, 0.5, size=(batch, s, d)) for _ in range(2))
    params = [np.ones(d), np.zeros(d), rng.normal(0.0, 0.2, size=(d, f)),
              np.zeros(f), rng.normal(0.0, 0.2, size=(f, d)), np.zeros(d)]

    def step():
        ht = Tensor(h, requires_grad=True)
        g, b, w1, b1, w2, b2 = (Tensor(p, requires_grad=True) for p in params)
        keep1 = keep2 = None
        if rate > 0.0:
            keep1 = keep_mask(rng, (batch, s, f), rate)
            keep2 = keep_mask(rng, (batch, s, d), rate)
        with Tape() as tape:
            out = ffn(ht, layer_norm(ht, g, b), w1, b1, w2, b2, "gelu",
                      keep1, keep2)
            loss = mse_loss(out, target)
        tape.backward(loss)
        return ht.grad

    assert np.isfinite(benchmark(step)).all()
