"""Unit and gradient-oracle tests for the autodiff tensor core."""

import os
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import analytic_grads, gradcheck, traced_peak
from spat import model as model_module
from spat import tensor
from spat.config import OptimizerConfig, load_config
from spat.errors import ContractError, NumericError, ShapeError
from spat.model import AttentionBlock, Forecaster, ModelConfig
from spat.pipeline import Adam
from spat.send import compute_sensitivity
from spat.tensor import (
    Tape,
    Tensor,
    attention_sublayer,
    embed,
    ffn,
    head,
    keep_mask,
    layer_norm,
    mse_loss,
)
from unfused import (
    add,
    dropout,
    matmul,
    mean,
    mul,
    reshape,
    row_softmax,
    scale,
    sub,
    total,
    transpose,
    unfused_attention_sublayer,
    unfused_embed,
    unfused_ffn,
    unfused_ffn_sublayer,
    unfused_head,
    unfused_layer_norm,
    unfused_mse_loss,
)

BUNDLED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic_small.yaml"


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


@pytest.fixture
def unfused_model(monkeypatch):
    """Run ``spat.model`` on the unfused compositions."""
    def use():
        monkeypatch.setattr(model_module, "layer_norm", unfused_layer_norm)
        monkeypatch.setattr(model_module, "embed", unfused_embed)
        monkeypatch.setattr(model_module, "attention_sublayer",
                            unfused_attention_sublayer)
        monkeypatch.setattr(AttentionBlock, "ffn_sublayer", unfused_ffn_sublayer)
        monkeypatch.setattr(model_module, "head", unfused_head)
    return use


def same_bits(a, b):
    """Equal bytes in equal layouts: a later sum over either array then
    gives the same bits."""
    return (a.shape == b.shape and a.strides == b.strides
            and a.tobytes() == b.tobytes())


def assert_fused_equals_unfused(fused, unfused, arrays, frozen=()):
    """``fused(*tensors)`` and ``unfused(*tensors)`` give the same bytes
    (signed zeros included) and strides for the output and for the
    gradient of every input not in ``frozen``, under a probe-weighted sum
    loss."""
    results = []
    for build in (fused, unfused):
        ts = [Tensor(a, requires_grad=i not in frozen)
              for i, a in enumerate(arrays)]
        with Tape() as tape:
            out = build(*ts)
            probe = np.random.default_rng(0).uniform(-1, 1, size=out.shape)
            loss = total(mul(out, Tensor(probe)))
        tape.backward(loss)
        results.append([out.data] + [t.grad for t in ts])
    for i, (got, want) in enumerate(zip(*results)):
        what = "output" if i == 0 else f"gradient of input {i - 1}"
        if i - 1 in frozen:
            assert got is None and want is None, what
        else:
            assert same_bits(got, want), what


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_grad_of_sum_against_ones(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.ones((2, 2))
        grads = analytic_grads(lambda x, y: total(matmul(x, y)), [a, b])
        np.testing.assert_allclose(grads[0], [[2.0, 2.0], [2.0, 2.0]])
        gradcheck(lambda x, y: total(matmul(x, y)), [a, b])

    def test_batched_gradcheck(self):
        rng = np.random.default_rng(0)
        a = rand(rng, 2, 3, 4)
        b = rand(rng, 4, 5)
        w = rand(rng, 2, 3, 5)
        gradcheck(lambda x, y: total(mul(matmul(x, y), Tensor(w))), [a, b])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_batched_right_operand_rejected(self):
        """Only the references batch the right operand (``unfused.bmm``)."""
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4, 5))))


class TestRowSoftmax:
    def test_symmetry(self):
        out = row_softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_large_inputs_stable(self):
        out = row_softmax(Tensor([1000.0, 1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_jacobian_matches_finite_differences(self):
        x = np.array([0.1, 0.2, 0.3])
        w = np.array([0.7, -1.3, 0.4])
        gradcheck(lambda t: total(mul(row_softmax(t), Tensor(w))), [x])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=16))
    def test_rows_sum_to_one(self, row):
        out = row_softmax(Tensor([row]))
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            row_softmax(Tensor([np.nan, 0.0]))


class TestBackward:
    def test_linear(self):
        grads = analytic_grads(total, [np.zeros(3)])
        np.testing.assert_array_equal(grads[0], [1.0, 1.0, 1.0])

    def test_quadratic(self):
        grads = analytic_grads(lambda x: total(mul(x, x)), [np.array([1.0, 2.0, 3.0])])
        np.testing.assert_array_equal(grads[0], [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_fanout_accumulates(self):
        x = np.array([0.5, -1.5])
        grads = analytic_grads(lambda t: add(total(mul(t, t)), total(t)), [x])
        np.testing.assert_allclose(grads[0], 2 * x + 1.0)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(7)
        a = rand(rng, 4, 4)
        b = rand(rng, 4, 4)

        def run():
            return analytic_grads(
                lambda x, y: total(mul(row_softmax(matmul(x, y)), Tensor(a))), [a, b])

        g1 = run()
        g2 = run()
        for x, y in zip(g1, g2):
            assert np.array_equal(x, y)

    def test_shared_gradient_is_never_written_through(self):
        """``add`` hands one array to both leaves; the contribution that
        ``mul(a, a)`` (recorded earlier, so replayed later) adds to ``a``
        must not leak into ``b``'s grad."""
        rng = np.random.default_rng(3)
        a0, b0, w = rand(rng, 3), rand(rng, 3), rand(rng, 3)

        def build(a, b):
            return add(total(mul(a, a)), total(mul(add(a, b), Tensor(w))))

        gradcheck(build, [a0, b0])
        a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        with Tape() as tape:
            square = total(mul(a, a))
            s = add(a, b)
            weighted = mul(s, Tensor(w))
            loss = add(square, total(weighted))
        tape.backward(loss)
        np.testing.assert_array_equal(b.grad, w)
        np.testing.assert_allclose(a.grad, w + 2.0 * a0, rtol=1e-15)
        assert all(t.grad is None for t in (square, s, weighted, loss))

    def test_constants_get_no_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))
        with Tape() as tape:
            loss = total(mul(x, c))
        tape.backward(loss)
        assert c.grad is None and x.grad is not None


class TestGradOracle:
    """Every differentiable primitive against central finite differences."""

    def setup_method(self):
        self.rng = np.random.default_rng(1234)

    def weighted_sum(self, fn, *arrays, shape=None):
        rng = np.random.default_rng(99)
        probe = None

        def build(*ts):
            nonlocal probe
            out = fn(*ts)
            if probe is None:
                probe = rng.uniform(-1, 1, size=out.shape)
            return total(mul(out, Tensor(probe)))

        gradcheck(build, list(arrays))

    def test_add(self):
        self.weighted_sum(add, rand(self.rng, 3, 4), rand(self.rng, 3, 4))

    def test_add_broadcast_bias(self):
        self.weighted_sum(add, rand(self.rng, 2, 3, 4), rand(self.rng, 4))

    def test_sub(self):
        self.weighted_sum(sub, rand(self.rng, 5), rand(self.rng, 5))

    def test_mul_broadcast(self):
        self.weighted_sum(mul, rand(self.rng, 2, 3, 3), rand(self.rng, 3, 3))

    def test_scale_and_neg(self):
        self.weighted_sum(lambda a: scale(scale(a, 2.5), -1.0), rand(self.rng, 4))

    def test_transpose_permutation(self):
        self.weighted_sum(lambda a: transpose(a, (1, 2, 0)), rand(self.rng, 2, 3, 4))

    def test_reshape(self):
        self.weighted_sum(lambda a: reshape(a, (6, 2)), rand(self.rng, 3, 4))

    def test_mean(self):
        self.weighted_sum(mean, rand(self.rng, 3, 4))

    def ffn_arrays(self):
        return [rand(self.rng, 2, 3, 4), rand(self.rng, 2, 3, 4),
                rand(self.rng, 4, 5), rand(self.rng, 5), rand(self.rng, 5, 4),
                rand(self.rng, 4)]

    def test_relu_away_from_zero(self):
        arrays = self.ffn_arrays()
        _, x, w1, b1, _, _ = arrays
        assert np.abs(x @ w1 + b1).min() > 1e-3
        self.weighted_sum(lambda *ts: ffn(*ts, "relu"), *arrays)

    def test_gelu(self):
        self.weighted_sum(lambda *ts: ffn(*ts, "gelu"), *self.ffn_arrays())

    def test_layer_norm(self):
        self.weighted_sum(layer_norm, rand(self.rng, 3, 6), rand(self.rng, 6),
                          rand(self.rng, 6))

    def test_row_softmax(self):
        self.weighted_sum(row_softmax, rand(self.rng, 3, 5))

    def test_matmul(self):
        self.weighted_sum(matmul, rand(self.rng, 3, 4), rand(self.rng, 4, 2))

    def test_dropout_fixed_mask(self):
        x = rand(self.rng, 4, 4)
        self.weighted_sum(
            lambda a: dropout(a, 0.5, np.random.default_rng(11)), x)


def attention_arrays(rng, b, s, d):
    """h, x and the eight weights and biases of an attention sublayer."""
    return ([rand(rng, b, s, d), rand(rng, b, s, d)]
            + [rand(rng, *shape) for _ in range(4) for shape in ((d, d), (d,))])


class TestMaskedAttention:
    """``attention_sublayer``'s checks on its operands and scores."""

    def tensors(self, b=2, s=3, d=4):
        return [Tensor(a) for a in attention_arrays(np.random.default_rng(0), b, s, d)]

    def test_shape_errors(self):
        h, x, *w = self.tensors()
        with pytest.raises(ShapeError):
            attention_sublayer(h, Tensor(np.zeros((2, 4, 4))), *w, 2)
        with pytest.raises(ShapeError):
            attention_sublayer(h, x, *w[:6], Tensor(np.zeros((4, 6))), w[7], 2)
        with pytest.raises(ShapeError):
            attention_sublayer(h, x, Tensor(np.zeros(4)), *w[1:], 2)
        with pytest.raises(ShapeError):
            attention_sublayer(h, x, *w, 3)
        with pytest.raises(ShapeError):
            attention_sublayer(h, x, *w, 2, keep=np.ones((2, 3, 3)))
        # [B, heads, S, S]: one mask per item is no probe
        for bad in (np.ones((1, 3, 3)), np.ones((2, 3, 4)), np.ones((3, 3)),
                    np.ones((2, 2, 3, 3))):
            with pytest.raises(ShapeError):
                attention_sublayer(h, x, *w, 2,
                                   probe=Tensor(bad, requires_grad=True))

    def test_rejects_non_finite_scores(self):
        h, x, *w = self.tensors(1, 2, 2)
        with pytest.raises(NumericError):
            attention_sublayer(h, Tensor(np.full((1, 2, 2), np.nan)), *w, 1)

    def test_rejects_non_finite_scores_in_a_later_chunk(self, monkeypatch):
        monkeypatch.setattr(tensor, "_ATTENTION_CHUNK_BYTES", 1)
        x = np.ones((3, 2, 1))
        x[2, 1, 0] = np.inf
        w, b = Tensor(np.ones((1, 1))), Tensor(np.zeros(1))
        with pytest.raises(NumericError):
            attention_sublayer(Tensor(x), Tensor(x), *(w, b) * 4, 1)


class TestAttentionMemory:
    """With the batch in chunks of one item, only a taped op holds the
    [B, H, S, S] scores, and backward works on chunk-sized temporaries."""

    batch, s, heads, d = 16, 128, 2, 8
    full = batch * heads * s * s * 8  # bytes of one [B, H, S, S] tensor

    @pytest.fixture(autouse=True)
    def one_item_chunks(self, monkeypatch):
        monkeypatch.setattr(tensor, "_ATTENTION_CHUNK_BYTES",
                            self.heads * self.s * self.s * 8)
        self.arrays = attention_arrays(np.random.default_rng(0), self.batch,
                                       self.s, self.d)

    def test_untracked_forward_keeps_no_scores(self):
        peak = traced_peak(lambda: attention_sublayer(
            *map(Tensor, self.arrays), self.heads))
        assert peak < self.full / 2

    def test_backward_allocates_no_full_size_temporary(self):
        ts = [Tensor(a, requires_grad=True) for a in self.arrays]
        probe = Tensor(np.broadcast_to(1.0, (self.heads, self.s, self.s)),
                       requires_grad=True)
        with Tape() as tape:
            loss = total(mul(attention_sublayer(*ts, self.heads, probe=probe),
                             Tensor(self.arrays[0])))
        assert traced_peak(lambda: tape.backward(loss)) < self.full
        assert all(t.grad is not None for t in ts) and probe.grad is not None

    def test_bounds_hold_on_one_thread_or_two(self, schedule):
        self.test_untracked_forward_keeps_no_scores()
        self.test_backward_allocates_no_full_size_temporary()


class TestTwoThreads:
    """Ops run alone on each thread, and two lanes of one batch give the
    bytes of the serial schedule; a failure on either thread reaches the
    caller, and no lane's thread outlives the call."""

    b, s, heads = 5, 6, 2

    @pytest.fixture(autouse=True)
    def two_item_chunks(self, monkeypatch):
        """The batch of 5 walks in chunks of 2, 2 and 1 items."""
        monkeypatch.setattr(tensor, "_ATTENTION_CHUNK_BYTES",
                            2 * self.heads * self.s * self.s * 8)

    @pytest.mark.parametrize("dh", [1, 3])
    @pytest.mark.parametrize("case", ["pre", "post", "scoring"])
    def test_attention_matches_unfused(self, schedule, case, dh):
        """Training pre- and post-norm (x is h), and scoring's first layer
        (only the probe needs a gradient), taped and untaped."""
        rng = np.random.default_rng(13)
        d = self.heads * dh
        h, x, *weights = attention_arrays(rng, self.b, self.s, d)
        probe = np.ones((self.heads, self.s, self.s))
        arrays = [h] + ([] if case == "post" else [x]) + weights + [probe]

        def run(op):
            if case == "post":
                return lambda h, *w: op(h, h, *w[:8], self.heads, None, w[8])
            return lambda h, x, *w: op(h, x, *w[:8], self.heads, None, w[8])

        frozen = tuple(range(10)) if case == "scoring" else ()
        assert_fused_equals_unfused(run(attention_sublayer),
                                    run(unfused_attention_sublayer), arrays,
                                    frozen=frozen)
        untaped = attention_sublayer(*map(Tensor, [h, x] + weights), self.heads)
        with Tape():
            want = unfused_attention_sublayer(
                *map(Tensor, [h, x] + weights), self.heads)
        assert same_bits(untaped.data, want.data)

    @pytest.mark.parametrize("placement", ["pre", "post"])
    def test_gelu_in_halves_matches_unfused(self, schedule, placement):
        """An FFN whose two halves of the batch each run as a lane, forward
        on its own tape and backward from its share of the output
        gradient, gives the unfused whole batch's output and input
        gradients, the weights frozen as in scoring."""
        rng = np.random.default_rng(14)
        b, s, d, f = 6, 3, 4, 8
        hx = [rand(rng, b, s, d) for _ in range(1 if placement == "post" else 2)]
        weights = [Tensor(a) for a in (rand(rng, d, f), rand(rng, f),
                                       rand(rng, f, d), rand(rng, d))]
        g = rand(rng, b, s, d)

        def run(op, rows):
            ts = [Tensor(a[rows], requires_grad=True) for a in hx]
            with Tape() as tape:
                out = op(ts[0], ts[-1], *weights, "gelu")
            tape.backward_from(out, g[rows])
            return [out.data] + [t.grad for t in ts]

        halves = tensor.two_lanes(lambda rows: run(ffn, rows),
                                  (slice(0, b // 2), slice(b // 2, b)))
        want = run(unfused_ffn, slice(0, b))
        assert all(same_bits(np.concatenate(got), w)
                   for got, w in zip(zip(*halves), want))

    def test_non_finite_scores_in_a_helper_chunk(self, schedule):
        """Item 3 is in the second lane, which runs on a thread of its own
        on two CPUs."""
        x = np.ones((4, 2, 1))
        x[3, 1, 0] = np.inf
        w, b = Tensor(np.ones((1, 1))), Tensor(np.zeros(1))
        with pytest.raises(NumericError, match="NaN or Inf"):
            tensor.two_lanes(lambda part: attention_sublayer(
                Tensor(part), Tensor(part), *(w, b) * 4, 1), (x[:2], x[2:]))

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_backward_failure_raises_without_hanging(self, schedule,
                                                     failing):
        """Each lane runs a probed attention backward on its own tape; the
        first lane's (the calling thread's), the second's (its own
        thread's, on two CPUs) or both raise. The calling thread's
        exception reaches the caller when both raise, no thread outlives
        the call, and the next lanes run to the end with the serial
        bits."""
        class Injected(RuntimeError):
            pass

        arrays = attention_arrays(np.random.default_rng(1), 2 * self.b,
                                  self.s, self.heads)

        def lane(rows, fail=False):
            ts = [Tensor(a[rows] if a.ndim == 3 else a, requires_grad=True)
                  for a in arrays]
            probe = Tensor(np.ones((self.heads, self.s, self.s)),
                           requires_grad=True)
            with Tape() as tape:
                out = attention_sublayer(*ts, self.heads, probe=probe)
                if fail:
                    def raise_(g):
                        raise Injected(f"lane {rows.start // self.b}")
                    out = tensor._emit("fail", (out,), out.data, raise_)
            tape.backward_from(out, np.ones(out.shape))
            return probe.grad

        halves = (slice(0, self.b), slice(self.b, 2 * self.b))
        raised, joined = [], []

        def run():
            before = threading.enumerate()
            try:
                tensor.two_lanes(lambda rows: lane(rows, failing in (
                    rows.start // self.b, 2)), halves)
            except Injected as e:
                raised.append(e)
            joined.append(threading.enumerate() == before)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "backward hung"
        assert [str(e) for e in raised] == [f"lane {failing % 2}"]
        assert joined == [True]
        before = threading.enumerate()
        got = tensor.two_lanes(lane, halves)
        assert threading.enumerate() == before
        want = tuple(map(lane, halves))
        assert all(same_bits(a, b) for a, b in zip(got, want))

    def test_forked_child_finishes(self, monkeypatch):
        """A forked child runs its second lane on a thread of its own and
        gets the parent's bits."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        arrays = attention_arrays(np.random.default_rng(2), 2 * self.b,
                                  self.s, 4)

        def forward():
            threads = set()

            def lane(rows):
                threads.add(threading.current_thread())
                return attention_sublayer(
                    *(Tensor(a[rows] if a.ndim == 3 else a) for a in arrays),
                    self.heads).data
            halves = tensor.two_lanes(lane, (slice(0, self.b),
                                             slice(self.b, None)))
            return np.concatenate(halves), len(threads)

        want, threads = forward()
        assert threads == 2
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 warns about forking a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                got, threads = forward()
                same = same_bits(got, want) and threads == 2
                os.write(write, b"same" if same else b"diff")
            finally:
                os._exit(0)
        os.close(write)
        deadline = time.monotonic() + 30
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung")
            time.sleep(0.01)
        with os.fdopen(read, "rb") as f:
            assert f.read() == b"same"

    @pytest.mark.parametrize("count, slots", [(1, 1), (2, 2), (None, 1)])
    def test_cpu_count_where_the_os_reports_no_affinity(self, monkeypatch,
                                                        count, slots):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert tensor.lanes_open() == (slots == 2)

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        threads = set()

        def lane(part):
            threads.add(threading.current_thread())
            return len(part)
        assert not tensor.lanes_open()
        assert tensor.two_lanes(lane, ("a", "bc")) == (1, 2)
        assert threads == {threading.current_thread()}


class TestLeafMerge:
    """Two lanes hand their leaf gradients to one :class:`LeafMerge`,
    which computes each once from both halves' operands joined."""

    @staticmethod
    def lanes(merge, tensors, halves):
        """Lane ``i`` hands over record ``k``'s gradient of
        ``tensors[k]``, the leading sum of ``halves[k][i]``, then
        finishes."""
        def lane(i):
            with merge.lane(i):
                for t, pair in zip(tensors, halves):
                    merge.add(i, [(t, tensor._leaf(tensor._leading_sum,
                                                   pair[i]))])
        return [threading.Thread(target=lane, args=(i,)) for i in (0, 1)]

    def test_gradients_under_contention(self):
        """Three merges at once, six lane threads on two cores, the
        interpreter switching threads every microsecond: every record's
        gradient is the one-part sum of its joined halves, added once,
        after what ``grad`` held."""
        rng = np.random.default_rng(3)
        merges, expected, threads = [], [], []
        for _ in range(3):
            tensors = [Tensor(np.zeros(4), requires_grad=True)
                       for _ in range(200)]
            halves = [(rng.normal(size=(5, 3, 4)), rng.normal(size=(6, 3, 4)))
                      for _ in tensors]
            for t in tensors[::2]:
                t.grad = np.ones(4)
            expected.append([(t, (0.0 if t.grad is None else t.grad)
                              + np.concatenate(pair).sum(axis=(0, 1)))
                             for t, pair in zip(tensors, halves)])
            merge = tensor.LeafMerge()
            merges.append(merge)
            threads += self.lanes(merge, tensors, halves)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for merge, want in zip(merges, expected):
            merge.apply()
            for t, grad in want:
                assert t.grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("at_once", [True, False])
    def test_lanes_that_hand_over_different_records(self, at_once):
        """Lanes at once, or one after the other, as ``two_lanes`` runs
        them on one CPU: a record whose tensors differ raises on
        the lane that joins it, and lanes that handed over different
        counts of records raise in ``apply``, leaving ``grad`` alone."""
        t, u = (Tensor(np.zeros(2), requires_grad=True) for _ in range(2))
        a = np.ones((2, 2))

        def run(merge, handed):
            raised = []

            def lane(i):
                try:
                    with merge.lane(i):
                        for v in handed[i]:
                            merge.add(i, [(v, tensor._leaf(tensor._leading_sum, a))])
                except ContractError as e:
                    raised.append(str(e))
            threads = [threading.Thread(target=lane, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
                if not at_once:
                    thread.join(timeout=30)
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            return raised

        assert run(tensor.LeafMerge(), ([t], [u])) == [
            "record 0: the lanes' leaves differ"]
        merge = tensor.LeafMerge()
        assert run(merge, ([t], [])) == []
        with pytest.raises(ContractError, match="different records"):
            merge.apply()
        assert t.grad is None

    def test_item_blocks_sum_in_batch_order(self, monkeypatch):
        """Two lanes hand over one probe's item blocks, next to a weight
        gradient's halves, in one record. The blocks join into a tuple,
        with no copy: ``np.concatenate`` joins the weight's halves and
        never an item block. The probe's gradient is the in-order sum over
        all items, ``((p_0 + p_1) + p_2) + p_3``, which rounds apart from
        the sum of the halves' sums."""
        probe, w = (Tensor(np.zeros(2), requires_grad=True) for _ in range(2))
        first = np.array([[1e16, 1.0], [1.0, 1e16]])
        second = np.array([[-1e16, -1e16], [1.0, 1.0]])
        halves = np.ones((2, 2)), np.ones((3, 2))
        in_order = ((first[0] + first[1]) + second[0]) + second[1]
        assert in_order.tolist() == [1.0, 1.0]
        assert not np.array_equal(in_order, first.sum(0) + second.sum(0))
        joined = []
        concatenate = np.concatenate

        def spy(arrays, *args, **kwargs):
            joined.append(arrays)
            return concatenate(arrays, *args, **kwargs)
        monkeypatch.setattr(np, "concatenate", spy)
        merge = tensor.LeafMerge()

        def lane(i):
            with merge.lane(i):
                merge.add(i, [
                    (w, tensor._leaf(tensor._leading_sum, halves[i])),
                    (probe, tensor._leaf(tensor._item_sum,
                                         ((first, second)[i],)))])
        threads = [threading.Thread(target=lane, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        merge.apply()
        assert probe.grad.tobytes() == in_order.tobytes()
        assert w.grad.tolist() == [5.0, 5.0]
        assert len(joined) == 1 and all(
            a is halves[k] for k, a in enumerate(joined[0]))


class TestGradModeAndInvariants:
    def test_no_tape_means_no_recording(self):
        tape = Tape()
        x = Tensor(np.ones(3), requires_grad=True)
        y = mul(x, x)
        assert len(tape) == 0 and not y.requires_grad
        with tape:
            mul(x, x)
        assert len(tape) == 1

    def test_transpose_requires_axes(self):
        with pytest.raises(ShapeError):
            transpose(Tensor(np.zeros((2, 3))), ())

    def test_tapes_do_not_nest(self):
        with Tape():
            with pytest.raises(ContractError):
                with Tape():
                    pass

    def test_each_thread_records_on_its_own_tape(self):
        """Another thread's ops are not recorded on this thread's tape,
        and a tape may be active on each thread at once."""
        x = Tensor(np.ones(3), requires_grad=True)
        other = []

        def record():
            assert not mul(x, x).requires_grad
            with Tape() as tape:
                mul(x, x)
            other.append(len(tape))

        with Tape() as tape:
            worker = threading.Thread(target=record)
            worker.start()
            worker.join(timeout=30)
        assert len(tape) == 0 and other == [1]

    def test_backward_from_a_given_gradient(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            y = mul(x, Tensor(np.array([2.0, 3.0, 4.0])))
        with pytest.raises(ShapeError, match=r"\(2,\) != output shape \(3,\)"):
            tape.backward_from(y, np.ones(2))
        with pytest.raises(ContractError, match="does not live on this tape"):
            tape.backward_from(x, np.ones(3))
        tape.backward_from(y, np.array([1.0, 0.5, -1.0]))
        np.testing.assert_array_equal(x.grad, [2.0, 1.5, -4.0])

    def test_backward_consumes_the_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = total(mul(x, x))
        tape.backward(loss)
        assert len(tape) == 0
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        with pytest.raises(ContractError, match="already consumed"):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_grad_buffer_shape_matches_data(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = total(x)
        tape.backward(loss)
        assert x.grad.shape == x.data.shape


class TestFusedLayerNorm:
    """The affine layer_norm against ``norm(x) * gamma + beta``, bit for bit."""

    @pytest.mark.parametrize("layout", ["contiguous", "2d", "transposed",
                                        "strided"])
    def test_matches_unfused(self, layout):
        rng = np.random.default_rng(1)
        x = {"contiguous": lambda: rand(rng, 4, 5, 6),
             "2d": lambda: rand(rng, 7, 6),
             "transposed": lambda: rand(rng, 6, 5, 4).transpose(2, 1, 0),
             "strided": lambda: rand(rng, 4, 5, 12)[..., ::2]}[layout]()
        assert x.flags.c_contiguous == (layout in ("contiguous", "2d"))
        assert_fused_equals_unfused(layer_norm, unfused_layer_norm,
                                    [x, rand(rng, 6), rand(rng, 6)])

    def test_frozen_affine_matches_unfused(self):
        rng = np.random.default_rng(2)
        assert_fused_equals_unfused(
            layer_norm, unfused_layer_norm,
            [rand(rng, 3, 4, 6), rand(rng, 6), rand(rng, 6)], frozen=(1, 2))

    def test_affine_shape_must_match_last_axis(self):
        x = Tensor(np.zeros((2, 6)))
        with pytest.raises(ShapeError):
            layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(6)))
        with pytest.raises(ShapeError):
            layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros((1, 6))))


class TestFusedFfn:
    """``ffn`` against the matmul/add/activation/dropout composition, bit for
    bit, pre- and post-norm, with and without dropout."""

    @pytest.mark.parametrize("placement", ["pre", "post", "pre_strided"])
    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_matches_unfused(self, activation, drop, placement):
        rng = np.random.default_rng(5)
        b, s, d, f = 6, 5, 4, 8
        h = rand(rng, b, s, d)
        x = (rand(rng, d, s, b).transpose(2, 1, 0) if placement == "pre_strided"
             else rand(rng, b, s, d))
        weights = [rand(rng, d, f), rand(rng, f), rand(rng, f, d), rand(rng, d)]
        keep1 = keep2 = None
        if drop:
            keep1 = keep_mask(rng, (b, s, f), 0.5)
            keep2 = keep_mask(rng, (b, s, d), 0.5)
            assert (keep1 == 0).any() and (keep2 == 0).any()

        def run(op):
            if placement == "post":  # x is h: h takes two contributions
                return lambda h, *w: op(h, h, *w, activation, keep1, keep2)
            return lambda h, x, *w: op(h, x, *w, activation, keep1, keep2)

        arrays = [h] + ([] if placement == "post" else [x]) + weights
        assert_fused_equals_unfused(run(ffn), run(unfused_ffn), arrays)

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_frozen_weights_match_unfused(self, activation):
        """Scoring's case: only the activations need a gradient."""
        rng = np.random.default_rng(6)
        arrays = [rand(rng, 3, 4, 4), rand(rng, 3, 4, 4), rand(rng, 4, 6),
                  rand(rng, 6), rand(rng, 6, 4), rand(rng, 4)]

        def run(op):
            return lambda *ts: op(*ts, activation)

        assert_fused_equals_unfused(run(ffn), run(unfused_ffn), arrays,
                                    frozen=(2, 3, 4, 5))

    def test_shape_and_activation_errors(self):
        t = Tensor(np.zeros((2, 3, 4)))
        w1, b1 = Tensor(np.zeros((4, 5))), Tensor(np.zeros(5))
        w2, b2 = Tensor(np.zeros((5, 4))), Tensor(np.zeros(4))
        with pytest.raises(ContractError):
            ffn(t, t, w1, b1, w2, b2, "tanh")
        with pytest.raises(ShapeError):
            ffn(t, t, w1, b1, Tensor(np.zeros((4, 4))), b2, "gelu")
        with pytest.raises(ShapeError):
            ffn(Tensor(np.zeros((2, 3, 5))), t, w1, b1, w2, b2, "gelu")
        with pytest.raises(ShapeError):
            ffn(t, t, w1, b1, w2, b2, "gelu", keep1=np.ones((2, 3, 4)))


class TestFusedAttentionSublayer:
    """``attention_sublayer`` against the matmul/add, unfused attention,
    dropout and residual composition, bit for bit and layout for layout."""

    @pytest.mark.parametrize("dh", [1, 3])
    @pytest.mark.parametrize("probed", [False, True])
    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("placement", ["pre", "post"])
    def test_matches_unfused(self, placement, drop, probed, dh):
        """Pre-norm sums x's three linear gradients as (v + k) + q; post-norm,
        where x is h, onto the residual's as ((g + v) + k) + q. With d_head 1
        the context and the q and v gradients are [B, H, S] layouts."""
        rng = np.random.default_rng(11)
        b, s, heads = 5, 6, 2
        d = heads * dh
        h, x, *weights = attention_arrays(rng, b, s, d)
        keep = keep_mask(rng, (b, s, d), 0.5) if drop else None
        probe = [np.ones((heads, s, s))] if probed else []

        def run(op):
            if placement == "post":
                return lambda h, *w: op(h, h, *w[:8], heads, keep, *w[8:])
            return lambda h, x, *w: op(h, x, *w[:8], heads, keep, *w[8:])

        arrays = [h] + ([] if placement == "post" else [x]) + weights + probe
        assert_fused_equals_unfused(run(attention_sublayer),
                                    run(unfused_attention_sublayer), arrays)

    @pytest.mark.parametrize("dh", [1, 3])
    @pytest.mark.parametrize("x_frozen", [False, True])
    def test_frozen_weights_match_unfused(self, x_frozen, dh):
        """Scoring's cases: frozen weights with a probe. With x frozen too,
        as in the first scored layer, backward stops after v's gradient."""
        rng = np.random.default_rng(12)
        b, s, heads = 4, 5, 3
        d = heads * dh
        arrays = attention_arrays(rng, b, s, d) + [np.ones((heads, s, s))]

        def run(op):
            return lambda h, x, *w: op(h, x, *w[:8], heads, None, w[8])

        frozen = tuple(range(2, 10)) + ((0, 1) if x_frozen else ())
        assert_fused_equals_unfused(run(attention_sublayer),
                                    run(unfused_attention_sublayer), arrays,
                                    frozen=frozen)


class TestFusedEdges:
    """``embed``, ``head`` and ``mse_loss`` against their unfused
    compositions, bit for bit and layout for layout."""

    @staticmethod
    def check_embed(tokens, drop, frozen=()):
        """Patch tokens are a C-order gather with positions; variate tokens
        a transposed view without."""
        rng = np.random.default_rng(13)
        if tokens == "patches":
            x, arrays = rand(rng, 6, 5, 4), [rand(rng, 4, 3), rand(rng, 3),
                                             rand(rng, 5, 3)]
        else:
            x, arrays = rand(rng, 2, 4, 5).transpose(0, 2, 1), [
                rand(rng, 4, 3), rand(rng, 3)]
        keep = keep_mask(rng, x.shape[:-1] + (3,), 0.5) if drop else None

        def run(op):
            return lambda w, b, pos=None: op(x, w, b, pos, keep)

        assert_fused_equals_unfused(run(embed), run(unfused_embed), arrays,
                                    frozen=frozen)

    @staticmethod
    def check_head(tokens, instance_norm, frozen=()):
        """b's gradient is a sum over a contiguous [B*C, T] copy for patch
        tokens and over a transposed [B, C, T] view for variate tokens."""
        rng = np.random.default_rng(14)
        batch, channels, s, d, t = 3, 9, 4, 2, 5
        if tokens == "patches":
            arrays = [rand(rng, batch * channels, s, d), rand(rng, s * d, t),
                      rand(rng, t)]
        else:
            arrays = [rand(rng, batch, channels, d), rand(rng, d, t), rand(rng, t)]
        stats = []
        if instance_norm:
            stats = [rng.uniform(0.5, 2.0, size=(batch, 1, channels)),
                     rand(rng, batch, 1, channels)]

        def run(op):
            return lambda h, w, b: op(h, w, b, channels, *stats)

        assert_fused_equals_unfused(run(head), run(unfused_head), arrays,
                                    frozen=frozen)

    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("tokens", ["patches", "variates"])
    def test_embed_matches_unfused(self, tokens, drop):
        self.check_embed(tokens, drop)

    @pytest.mark.parametrize("tokens, frozen", [
        ("patches", (0,)), ("patches", (1,)), ("patches", (2,)),
        ("patches", (0, 1)), ("variates", (0,)), ("variates", (1,))])
    def test_embed_frozen_inputs_match_unfused(self, tokens, frozen):
        """A frozen weight, bias or position table gets no gradient and
        leaves the others' bytes as they are."""
        self.check_embed(tokens, True, frozen)

    @pytest.mark.parametrize("instance_norm", [False, True])
    @pytest.mark.parametrize("tokens", ["patches", "variates"])
    def test_head_matches_unfused(self, tokens, instance_norm):
        self.check_head(tokens, instance_norm)

    @pytest.mark.parametrize("frozen", [(0,), (1,), (2,), (1, 2)])
    @pytest.mark.parametrize("tokens", ["patches", "variates"])
    def test_head_frozen_inputs_match_unfused(self, tokens, frozen):
        """Scoring's case, frozen w and b with h tracked, and each input
        frozen alone."""
        self.check_head(tokens, True, frozen)

    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_mse_loss_matches_unfused(self, layout):
        rng = np.random.default_rng(16)
        pred = (rand(rng, 3, 4, 5) if layout == "contiguous"
                else rand(rng, 3, 5, 4).transpose(0, 2, 1))
        target = rand(rng, 3, 4, 5)
        results = []
        for loss_fn in (mse_loss, unfused_mse_loss):
            p = Tensor(pred, requires_grad=True)
            with Tape() as tape:
                loss = loss_fn(p, target)
            tape.backward(loss)
            results.append((loss.data, p.grad))
        assert all(same_bits(a, b) for a, b in zip(*results))

    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_mse_loss_shares_give_the_batch_gradient(self, layout):
        """Two parts of a batch, each taking its share of the batch's mean
        on a tape of its own, get the batch's gradient, bit for bit."""
        rng = np.random.default_rng(17)
        pred = (rand(rng, 5, 4, 3) if layout == "contiguous"
                else rand(rng, 5, 3, 4).transpose(0, 2, 1))
        target = rand(rng, 5, 4, 3)

        def grad(rows, count=None):
            p = Tensor(pred[rows], requires_grad=True)
            with Tape() as tape:
                loss = mse_loss(p, target[rows], count)
            tape.backward(loss)
            return loss.item(), p.grad
        whole = grad(slice(None))
        parts = [grad(rows, pred.size) for rows in (slice(0, 2), slice(2, 5))]
        assert same_bits(np.concatenate([g for _, g in parts]), whole[1])
        assert sum(v for v, _ in parts) == pytest.approx(whole[0], rel=1e-12)
        assert same_bits(grad(slice(None), pred.size)[1], whole[1])

    def test_shape_errors(self):
        w, b = Tensor(np.zeros((4, 3))), Tensor(np.zeros(3))
        with pytest.raises(ShapeError):
            embed(np.zeros((2, 5, 3)), w, b)
        with pytest.raises(ShapeError):
            embed(np.zeros((2, 5, 4)), w, b, Tensor(np.zeros((4, 3))))
        with pytest.raises(ShapeError):
            embed(np.zeros((2, 5, 4)), w, b, keep=np.ones((2, 5, 4)))
        with pytest.raises(ShapeError):
            head(Tensor(np.zeros((6, 3, 2))), Tensor(np.zeros((5, 2))),
                 Tensor(np.zeros(2)), 2)
        with pytest.raises(ShapeError):
            head(Tensor(np.zeros((5, 2, 2))), w, Tensor(np.zeros(3)), 2)


class TestFusedModel:
    """A training step of the fused model against the unfused one."""

    @pytest.mark.parametrize("mode, placement, activation, instance_norm, heads", [
        pytest.param("temporal_tokens", "pre", "gelu", True, 2,
                     id="temporal_tokens-pre-gelu"),
        pytest.param("temporal_tokens", "post", "relu", True, 2,
                     id="temporal_tokens-post-relu"),
        pytest.param("variate_tokens", "post", "gelu", True, 2,
                     id="variate_tokens-post-gelu"),
        pytest.param("variate_tokens", "pre", "relu", True, 2,
                     id="variate_tokens-pre-relu"),
        pytest.param("temporal_tokens", "post", "gelu", False, 8,
                     id="temporal_tokens-post-gelu-no_instance_norm-d_head_1"),
        pytest.param("variate_tokens", "pre", "gelu", False, 8,
                     id="variate_tokens-pre-gelu-no_instance_norm-d_head_1")])
    def test_training_step_matches_unfused(self, unfused_model, mode, placement,
                                           activation, instance_norm, heads):
        cfg = ModelConfig(mode=mode, lookback=16, horizon=4, channels=9,
                          d_model=8, d_ff=16, heads=heads, layers=2,
                          patch_len=8, patch_stride=4, dropout=0.1,
                          activation=activation, norm_placement=placement,
                          instance_norm=instance_norm)
        data = np.random.default_rng(7)
        x, y = data.normal(size=(5, 16, 9)), data.normal(size=(5, 4, 9))

        def step(loss_fn):
            model = Forecaster(cfg, seed=4)
            rng = np.random.default_rng(8)
            with Tape() as tape:
                pred = model.forward(x, training=True, rng=rng)
                loss = loss_fn(pred, y)
            tape.backward(loss)
            return ([pred.data, loss.data] + [p.grad for p in model.parameters()],
                    rng.bit_generator.state)

        fused, fused_rng = step(mse_loss)
        unfused_model()
        unfused, unfused_rng = step(unfused_mse_loss)
        # the keep masks come from the same draws in the same order
        assert fused_rng == unfused_rng
        assert all(same_bits(a, b) for a, b in zip(fused, unfused))

    def test_synthetic_small_records_per_step(self, unfused_model):
        """A step is 16 records: the embedding, per block two norms, the
        attention sublayer and the FFN, the final norm, the head and the
        loss. Unfused it is 128."""
        cfg = load_config(BUNDLED_CONFIG)
        model_cfg = cfg.model.to_model_config(
            cfg.window.lookback, cfg.window.horizon, cfg.data.synthetic.channels)
        x = np.random.default_rng(0).normal(
            size=(2, cfg.window.lookback, model_cfg.channels))

        def records(loss_fn):
            model = Forecaster(model_cfg, seed=0)
            with Tape() as tape:
                pred = model.forward(x, training=True,
                                     rng=np.random.default_rng(1))
                loss_fn(pred, np.zeros_like(pred.data))
            return len(tape)

        assert records(mse_loss) == 16
        unfused_model()
        assert records(unfused_mse_loss) == 128


class TestDeferredGradients:
    """Leaf gradients, computed when accumulated, hold the bytes of the
    serial schedule, a one-part step computes them all on the calling
    thread, and a failure among them reaches the caller of ``backward``."""

    @staticmethod
    def cfg(mode="temporal_tokens", placement="pre", activation="gelu"):
        return ModelConfig(mode=mode, lookback=16, horizon=4, channels=5,
                           d_model=8, d_ff=16, heads=2, layers=3,
                           patch_len=8, patch_stride=4, dropout=0.1,
                           activation=activation, norm_placement=placement)

    @staticmethod
    def data(cfg, batch=6):
        rng = np.random.default_rng(7)
        return (rng.normal(size=(batch, cfg.lookback, cfg.channels)),
                rng.normal(size=(batch, cfg.horizon, cfg.channels)))

    @staticmethod
    def step(model, x, y):
        """A training step: forward, backward and Adam; every parameter's
        gradient, then its updated value."""
        with Tape() as tape:
            loss = mse_loss(model.forward(x, training=True,
                                          rng=np.random.default_rng(8)), y)
        tape.backward(loss)
        grads = [p.grad for p in model.parameters()]
        Adam(model.named_parameters(), OptimizerConfig()).step(1e-3)
        return grads + [p.data for p in model.parameters()]

    @staticmethod
    def same(got, want):
        """Both steps gave the same bits, and the same parameters (a
        pruned block's unused norm, under pre-norm) no gradient."""
        return len(got) == len(want) and all(
            a is b if a is None or b is None else same_bits(a, b)
            for a, b in zip(got, want))

    @pytest.mark.parametrize("mode, placement, activation, pruned", [
        pytest.param("temporal_tokens", "pre", "gelu", (1,),
                     id="temporal-pre-pruned_block"),
        pytest.param("variate_tokens", "post", "gelu", (), id="variate-post"),
        pytest.param("temporal_tokens", "pre", "relu", (), id="relu")])
    def test_training_step_matches_the_serial_schedule(
            self, schedule, monkeypatch, mode, placement, activation, pruned):
        """With attention in one-item chunks."""
        monkeypatch.setattr(tensor, "_ATTENTION_CHUNK_BYTES", 1)
        cfg = self.cfg(mode, placement, activation)
        x, y = self.data(cfg)
        accumulate, threads = tensor._accumulate, set()

        def spy(leaves):
            threads.add(threading.current_thread())
            accumulate(leaves)
        monkeypatch.setattr(tensor, "_accumulate", spy)

        def run():
            model = Forecaster(cfg, seed=4)
            for i in pruned:
                model.blocks[i].remove_attention()
            return self.step(model, x, y)

        got = run()
        assert threads == {threading.main_thread()}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = run()
        assert self.same(got, want)

    def test_leaf_fed_by_several_records_sums_in_serial_order(self, schedule):
        """``w`` feeds three records, which backward replays last first,
        so ``w.grad`` is ``(c3 + c2) + c1``: here not ``(c1 + c2) + c3``."""
        c1, c2, c3 = np.array([1.0, 3.0]), np.full(2, 1e16), np.full(2, -1e16)
        w = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            loss = total(add(add(mul(w, Tensor(c1)), mul(w, Tensor(c2))),
                             mul(w, Tensor(c3))))
        tape.backward(loss)
        assert same_bits(w.grad, (c3 + c2) + c1)
        assert not same_bits(w.grad, (c1 + c2) + c3)

    def test_failure_in_a_deferred_gradient_reaches_the_caller(
            self, schedule, monkeypatch):
        """The second weight gradient raises as backward accumulates it;
        the next backward works."""
        class Injected(RuntimeError):
            pass

        weight_grad, calls = tensor._weight_grad, []

        def failing(a, g):
            compute = weight_grad(a, g)

            def maybe_fail():
                calls.append(None)
                if len(calls) == 2:
                    raise Injected("deferred")
                return compute()
            return maybe_fail

        monkeypatch.setattr(tensor, "_weight_grad", failing)
        cfg = self.cfg()
        x, y = self.data(cfg)
        model = Forecaster(cfg, seed=4)
        raised = []

        def step():
            try:
                self.step(model, x, y)
            except Injected as e:
                raised.append(e)

        worker = threading.Thread(target=step, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "backward hung"
        assert [str(e) for e in raised] == ["deferred"]
        monkeypatch.setattr(tensor, "_weight_grad", weight_grad)
        model = Forecaster(cfg, seed=4)
        got = self.step(model, x, y)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = self.step(Forecaster(cfg, seed=4), x, y)
        assert self.same(got, want)

    def test_scoring_probe_gradients_match_the_serial_schedule(
            self, schedule, monkeypatch):
        monkeypatch.setattr(tensor, "_ATTENTION_CHUNK_BYTES", 1)
        cfg = self.cfg("variate_tokens")
        model = Forecaster(cfg, seed=4)
        batches = [self.data(cfg, batch) for batch in (3, 5)]
        got = compute_sensitivity(model, batches)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = compute_sensitivity(model, batches)
        assert [r.layer_index for r in got] == [r.layer_index for r in want]
        assert all(same_bits(a.sen, b.sen) and a.send == b.send
                   for a, b in zip(got, want))
