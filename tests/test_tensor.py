"""Unit and gradient-oracle tests for the autodiff tensor core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import analytic_grads, gradcheck, traced_peak
from spat import tensor
from spat.errors import ContractError, NumericError, ShapeError
from spat.tensor import (
    Tape,
    Tensor,
    dropout,
    gelu,
    layer_norm,
    masked_attention,
    relu,
    row_softmax,
)


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal((a @ b).data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_product(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_grad_of_sum_against_ones(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.ones((2, 2))
        grads = analytic_grads(lambda x, y: (x @ y).sum(), [a, b])
        np.testing.assert_allclose(grads[0], [[2.0, 2.0], [2.0, 2.0]])
        gradcheck(lambda x, y: (x @ y).sum(), [a, b])

    def test_batched_gradcheck(self):
        rng = np.random.default_rng(0)
        a = rand(rng, 2, 3, 4)
        b = rand(rng, 4, 5)
        w = rand(rng, 2, 3, 5)
        gradcheck(lambda x, y: (x @ y * Tensor(w)).sum(), [a, b])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


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
        gradcheck(lambda t: (row_softmax(t) * Tensor(w)).sum(), [x])

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
        grads = analytic_grads(lambda x: x.sum(), [np.zeros(3)])
        np.testing.assert_array_equal(grads[0], [1.0, 1.0, 1.0])

    def test_quadratic(self):
        grads = analytic_grads(lambda x: (x * x).sum(), [np.array([1.0, 2.0, 3.0])])
        np.testing.assert_array_equal(grads[0], [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = x * 2.0
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_fanout_accumulates(self):
        x = np.array([0.5, -1.5])
        grads = analytic_grads(lambda t: (t * t).sum() + t.sum(), [x])
        np.testing.assert_allclose(grads[0], 2 * x + 1.0)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(7)
        a = rand(rng, 4, 4)
        b = rand(rng, 4, 4)

        def run():
            return analytic_grads(
                lambda x, y: (row_softmax(x @ y) * Tensor(a)).sum(), [a, b])

        g1 = run()
        g2 = run()
        for x, y in zip(g1, g2):
            assert np.array_equal(x, y)

    def test_shared_gradient_is_never_written_through(self):
        """``add`` hands one array to both leaves; the contribution that
        ``a * a`` (recorded earlier, so replayed later) adds to ``a`` must
        not leak into ``b``'s grad."""
        rng = np.random.default_rng(3)
        a0, b0, w = rand(rng, 3), rand(rng, 3), rand(rng, 3)

        def build(a, b):
            return (a * a).sum() + ((a + b) * Tensor(w)).sum()

        gradcheck(build, [a0, b0])
        a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        with Tape() as tape:
            square = (a * a).sum()
            s = a + b
            weighted = s * Tensor(w)
            loss = square + weighted.sum()
        tape.backward(loss)
        np.testing.assert_array_equal(b.grad, w)
        np.testing.assert_allclose(a.grad, w + 2.0 * a0, rtol=1e-15)
        assert all(t.grad is None for t in (square, s, weighted, loss))

    def test_constants_get_no_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))
        with Tape() as tape:
            loss = (x * c).sum()
        tape.backward(loss)
        assert c.grad is None and x.grad is not None


class TestElementwiseExamples:
    def test_mean_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).mean(axis=2)


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
            return (out * Tensor(probe)).sum()

        gradcheck(build, list(arrays))

    def test_add(self):
        self.weighted_sum(lambda a, b: a + b, rand(self.rng, 3, 4), rand(self.rng, 3, 4))

    def test_add_broadcast_bias(self):
        self.weighted_sum(lambda a, b: a + b, rand(self.rng, 2, 3, 4), rand(self.rng, 4))

    def test_sub(self):
        self.weighted_sum(lambda a, b: a - b, rand(self.rng, 5), rand(self.rng, 5))

    def test_mul_broadcast(self):
        self.weighted_sum(lambda a, b: a * b, rand(self.rng, 2, 3, 3), rand(self.rng, 3, 3))

    def test_scale_and_neg(self):
        self.weighted_sum(lambda a: -(a * 2.5), rand(self.rng, 4))

    def test_transpose_permutation(self):
        self.weighted_sum(lambda a: a.transpose(1, 2, 0), rand(self.rng, 2, 3, 4))

    def test_reshape(self):
        self.weighted_sum(lambda a: a.reshape(6, 2), rand(self.rng, 3, 4))

    def test_sum_axis(self):
        self.weighted_sum(lambda a: a.sum(axis=1), rand(self.rng, 3, 4))

    def test_mean_axis_keepdims(self):
        self.weighted_sum(lambda a: a.mean(axis=1, keepdims=True), rand(self.rng, 3, 4))

    def test_relu_away_from_zero(self):
        x = rand(self.rng, 4, 4)
        x[np.abs(x) < 1e-2] = 0.5
        self.weighted_sum(relu, x)

    def test_gelu(self):
        self.weighted_sum(gelu, rand(self.rng, 3, 4))

    def test_layer_norm(self):
        self.weighted_sum(layer_norm, rand(self.rng, 3, 6))

    def test_row_softmax(self):
        self.weighted_sum(row_softmax, rand(self.rng, 3, 5))

    def test_matmul(self):
        self.weighted_sum(lambda a, b: a @ b, rand(self.rng, 3, 4), rand(self.rng, 4, 2))

    def test_dropout_fixed_mask(self):
        x = rand(self.rng, 4, 4)
        self.weighted_sum(
            lambda a: dropout(a, 0.5, np.random.default_rng(11)), x)


class TestMaskedAttention:
    def test_shape_errors(self):
        rng = np.random.default_rng(0)
        q = Tensor(rand(rng, 2, 3, 4))
        mask = Tensor(np.ones((2, 3, 3)))
        with pytest.raises(ShapeError):
            masked_attention(q, Tensor(rand(rng, 2, 4, 4)), q, mask, 2)
        with pytest.raises(ShapeError):
            masked_attention(q, q, Tensor(rand(rng, 2, 3, 6)), mask, 2)
        with pytest.raises(ShapeError):
            masked_attention(q, q, q, Tensor(np.ones((3, 3, 3))), 3)
        for bad in (np.ones((1, 3, 3)), np.ones((2, 3, 4)), np.ones((3, 3))):
            with pytest.raises(ShapeError):
                masked_attention(q, q, q, Tensor(bad), 2)

    def test_rejects_non_finite_scores(self):
        q = Tensor(np.full((1, 2, 2), np.nan))
        with pytest.raises(NumericError):
            masked_attention(q, q, q, Tensor(np.ones((1, 2, 2))), 1)

    def test_rejects_non_finite_scores_in_a_later_chunk(self, monkeypatch):
        monkeypatch.setattr(tensor, "_ATTENTION_CHUNK_BYTES", 1)
        x = np.ones((3, 2, 2))
        x[2, 1, 0] = np.inf
        with pytest.raises(NumericError):
            masked_attention(Tensor(x), Tensor(x), Tensor(x),
                             Tensor(np.ones((1, 2, 2))), 1)


class TestAttentionMemory:
    """With the batch in chunks of one item, only a taped op holds the
    [B, H, S, S] scores, and backward works on chunk-sized temporaries."""

    batch, s, heads, d = 16, 128, 2, 8
    full = batch * heads * s * s * 8  # bytes of one [B, H, S, S] tensor

    @pytest.fixture(autouse=True)
    def one_item_chunks(self, monkeypatch):
        monkeypatch.setattr(tensor, "_ATTENTION_CHUNK_BYTES",
                            self.heads * self.s * self.s * 8)
        rng = np.random.default_rng(0)
        self.arrays = [rng.normal(size=(self.batch, self.s, self.d))
                       for _ in range(3)]

    def test_untracked_forward_keeps_no_scores(self):
        ones = Tensor(np.ones((self.heads, self.s, self.s)))
        peak = traced_peak(lambda: masked_attention(
            *map(Tensor, self.arrays), ones, self.heads))
        assert peak < self.full / 2

    def test_backward_allocates_no_full_size_temporary(self):
        ts = [Tensor(a, requires_grad=True) for a in self.arrays]
        mask = Tensor(np.ones((self.heads, self.s, self.s)), requires_grad=True)
        with Tape() as tape:
            loss = (masked_attention(*ts, mask, self.heads)
                    * Tensor(self.arrays[0])).sum()
        assert traced_peak(lambda: tape.backward(loss)) < self.full
        assert all(t.grad is not None for t in ts) and mask.grad is not None


class TestGradModeAndInvariants:
    def test_no_tape_means_no_recording(self):
        tape = Tape()
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        assert len(tape) == 0 and not y.requires_grad
        with tape:
            x * 2.0
        assert len(tape) == 1

    def test_tapes_do_not_nest(self):
        with Tape():
            with pytest.raises(ContractError):
                with Tape():
                    pass

    def test_backward_consumes_the_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = (x * x).sum()
        tape.backward(loss)
        assert len(tape) == 0
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        with pytest.raises(ContractError, match="already consumed"):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_grad_buffer_shape_matches_data(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = x.sum()
        tape.backward(loss)
        assert x.grad.shape == x.data.shape
