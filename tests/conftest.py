"""Shared numeric oracles for the test suite.

The finite-difference helpers here are the independent gradient oracle:
they only ever touch plain numpy buffers and re-run a forward closure, so
they cannot inherit a bug from the reverse-mode implementation they check.
"""

from __future__ import annotations

import os
import threading
import tracemalloc

import numpy as np
import pytest

from spat import model as model_module
from spat import tensor
from spat.tensor import Tape, Tensor, mse_loss

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(params=["serial", "two_threads"])
def schedule(request, monkeypatch):
    """Run ``spat.tensor``'s work as a process whose CPU affinity holds one
    CPU (all of it on the calling thread) or two (the second lane of a
    large batch on a thread of its own) does."""
    cpus = {0} if request.param == "serial" else {0, 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    return request.param


@pytest.fixture
def lanes_ran(monkeypatch):
    """The window counts of the batches that ran as two lanes, in order,
    each part on a thread of its own. A forecast, whose parts are windows,
    counts once its lanes ran, also when one raised; a backpropagated batch,
    whose parts start with their windows, counts only once both lanes
    returned, each having run its forward and its backward. Every call
    leaves ``threading.enumerate()`` as it found it, also when a lane
    raises: no lane's thread outlives it."""
    ran = []
    two_lanes = tensor.two_lanes

    def spy(work, parts):
        threads = set()

        def lane(part):
            threads.add(threading.current_thread())
            return work(part)
        forecast = isinstance(parts[0], np.ndarray)
        returned, before = False, threading.enumerate()
        try:
            out = two_lanes(lane, parts)
            returned = True
            return out
        finally:
            assert len(threads) == len(parts)
            assert threading.enumerate() == before
            if len(threads) == 2 and (forecast or returned):
                ran.append(sum(len(p if forecast else p[0]) for p in parts))
    monkeypatch.setattr(model_module, "two_lanes", spy)
    return ran


def traced_peak(fn):
    """Peak bytes (tracemalloc, numpy buffers included) traced
    while ``fn()`` runs, above what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def central_diff_grads(f, arrays: list[np.ndarray], step: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of scalar ``f()`` w.r.t. each array.

    ``f`` must read the arrays in-place; they are perturbed one entry at a
    time and restored afterwards.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f()
            flat[i] = orig - step
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


def assert_grads_close(actual, desired, rtol=1e-4, floor=1e-7):
    """Relative comparison with an absolute floor for near-zero entries."""
    actual = np.asarray(actual)
    desired = np.asarray(desired)
    diff = np.abs(actual - desired)
    tol = np.maximum(rtol * np.abs(desired), floor)
    worst = (diff - tol).max()
    assert (diff <= tol).all(), (
        f"gradient mismatch: worst excess {worst:.3e}, "
        f"max |analytic - numeric| = {diff.max():.3e}")


def analytic_grads(build, arrays: list[np.ndarray]):
    """Run ``build`` on gradient-requiring tensors and return their grads."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build(*tensors)
    tape.backward(loss)
    return [t.grad for t in tensors]


def gradcheck(build, arrays: list[np.ndarray], rtol=1e-4, floor=1e-7, step=1e-5):
    """Compare reverse-mode gradients of scalar ``build(*tensors)`` against
    central finite differences on the same buffers."""
    analytic = analytic_grads(build, arrays)

    def forward():
        ts = [Tensor(a) for a in arrays]
        return build(*ts).item()

    numeric = central_diff_grads(forward, arrays, step=step)
    for got, want in zip(analytic, numeric):
        assert got is not None, "missing gradient on a tracked input"
        assert_grads_close(got, want, rtol=rtol, floor=floor)


def model_param_gradcheck(model, x: np.ndarray, y: np.ndarray,
                          rtol=1e-4, floor=1e-7, step=1e-5,
                          max_entries_per_param: int | None = None,
                          seed: int = 0, dropout_seed: int | None = None) -> int:
    """Check the full forecaster loss gradient against central differences.

    Perturbs parameter buffers in place and re-runs the forward, so the
    numeric side never touches the tape. The forward is in eval mode, or,
    given ``dropout_seed``, in training mode with a fresh
    ``default_rng(dropout_seed)`` each time, so every evaluation drops the
    same units. Returns the number of entries checked.
    """
    def pred():
        if dropout_seed is None:
            return model.forward(x)
        return model.forward(x, training=True,
                             rng=np.random.default_rng(dropout_seed))

    with Tape() as tape:
        loss = mse_loss(pred(), y)
    tape.backward(loss)
    analytic = {name: p.grad.copy() for name, p in model.named_parameters()}
    model.zero_grad()

    def forward():
        return float(np.mean((pred().data - y) ** 2))

    rng = np.random.default_rng(seed)
    checked = 0
    for name, p in model.named_parameters():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            idx = rng.choice(n, size=max_entries_per_param, replace=False)
        else:
            idx = np.arange(n)
        got = analytic[name].reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            fp = forward()
            flat[i] = orig - step
            fm = forward()
            flat[i] = orig
            want = (fp - fm) / (2.0 * step)
            assert_grads_close(got[i], want, rtol=rtol, floor=floor)
            checked += 1
    return checked
