"""Forecaster model tests: tokenization, attention semantics, pruning."""

import inspect
import math
import os
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import model_param_gradcheck
from spat import model as model_module
from spat import tensor
from spat.config import load_config
from spat.errors import ConfigError, ContractError, NumericError, ShapeError
from spat.model import (
    Forecaster,
    ModelConfig,
    clone_model,
    state_shapes,
)
from spat.pipeline import evaluate_loss, evaluate_metrics
from spat.tensor import Tape, Tensor, keep_mask, layer_norm, mse_loss
from unfused import (
    add,
    bmm,
    matmul,
    merge_heads,
    row_softmax,
    scale,
    split_heads,
    transpose,
)

BUNDLED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic_small.yaml"


def small_cfg(**kw):
    base = dict(mode="variate_tokens", lookback=16, horizon=4, channels=4,
                d_model=8, d_ff=16, heads=2, layers=2, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def np_layer_norm(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestTokenCounts:
    def test_single_full_window_patch(self):
        cfg = ModelConfig(mode="temporal_tokens", lookback=16, horizon=4,
                          channels=1, d_model=8, d_ff=16, heads=2, layers=1,
                          patch_len=16, patch_stride=8, end_padding=False)
        assert cfg.token_count == 1

    def test_standard_lookback(self):
        cfg = ModelConfig(mode="temporal_tokens", lookback=336, horizon=96,
                          channels=7, d_model=16, d_ff=32, heads=2, layers=1,
                          patch_len=16, patch_stride=8, end_padding=False)
        assert cfg.token_count == 41

    def test_end_padding_adds_one(self):
        cfg = ModelConfig(mode="temporal_tokens", lookback=336, horizon=96,
                          channels=7, d_model=16, d_ff=32, heads=2, layers=1,
                          patch_len=16, patch_stride=8, end_padding=True)
        assert cfg.token_count == 42

    def test_variate_tokens_equal_channels(self):
        cfg = small_cfg(channels=7, lookback=160)
        assert cfg.token_count == 7

    @pytest.mark.parametrize("end_padding", [False, True])
    def test_patches_are_slices_of_the_end_padded_series(self, end_padding):
        """Overlapping patches of each channel, the last ending on the final
        value repeated ``patch_stride`` times when end-padded."""
        cfg = ModelConfig(mode="temporal_tokens", lookback=11, horizon=2,
                          channels=3, d_model=4, d_ff=8, heads=2, layers=1,
                          patch_len=4, patch_stride=2, end_padding=end_padding)
        model = Forecaster(cfg, seed=0)
        model.embed_w.data = np.eye(4)  # tokens are then the patches
        model.embed_b.data = np.zeros(4)
        model.pos_emb.data = np.zeros_like(model.pos_emb.data)
        x = np.random.default_rng(0).normal(size=(2, 11, 3))
        tokens = model._embed(x).data
        assert tokens.shape == (2 * 3, cfg.token_count, 4)
        assert cfg.token_count == (5 if end_padding else 4)
        for b in range(2):
            for c in range(3):
                series = list(x[b, :, c])
                if end_padding:
                    series += [series[-1]] * 2
                want = [series[s:s + 4] for s in range(0, len(series) - 3, 2)]
                np.testing.assert_array_equal(tokens[b * 3 + c], want)

    def test_lookback_shorter_than_patch_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(mode="temporal_tokens", lookback=8, patch_len=16,
                        horizon=4, channels=1, d_model=8, d_ff=16,
                        heads=2, layers=1)

    def test_d_model_head_divisibility(self):
        with pytest.raises(ConfigError):
            small_cfg(d_model=9, heads=2)

    @pytest.mark.parametrize("kw", [dict(d_model=0, heads=1), dict(d_ff=0),
                                    dict(d_ff=-1)])
    def test_non_positive_widths_rejected(self, kw):
        with pytest.raises(ConfigError):
            small_cfg(**kw)


class TestAttentionForward:
    def test_hand_computed_two_token_attention(self):
        cfg = small_cfg(channels=2, d_model=2, d_ff=4, heads=1, layers=1)
        model = Forecaster(cfg, seed=3)
        blk = model.blocks[0]
        blk.w_q.data = np.array([[0.4, -0.2], [0.1, 0.3]])
        blk.w_k.data = np.array([[0.2, 0.5], [-0.3, 0.1]])
        blk.w_v.data = np.array([[1.0, 0.0], [0.0, 1.0]])
        blk.w_e.data = np.eye(2)
        for b in (blk.b_q, blk.b_k, blk.b_v, blk.b_e):
            b.data = np.zeros(2)

        h = np.array([[[0.5, -1.0], [1.5, 2.0]]])
        x = np_layer_norm(h)                               # pre-norm, gamma=1
        q, k, v = x @ blk.w_q.data, x @ blk.w_k.data, x @ blk.w_v.data
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(2.0)
        expected = h + np_softmax(scores) @ v              # identity W_E

        got = blk.attention_sublayer(Tensor(h))
        np.testing.assert_allclose(got.data, expected, rtol=1e-12)

    def test_all_ones_mask_matches_maskless_reference(self):
        cfg = small_cfg()
        model = Forecaster(cfg, seed=5)
        blk = model.blocks[0]
        rng = np.random.default_rng(0)
        h = Tensor(rng.normal(size=(3, cfg.token_count, cfg.d_model)))

        masked = blk.attention_sublayer(h)

        # same primitives minus the mask product
        x = layer_norm(h, blk.ln1_g, blk.ln1_b)
        q, k, v = (split_heads(add(matmul(x, w), b), cfg.heads) for w, b in
                   ((blk.w_q, blk.b_q), (blk.w_k, blk.b_k), (blk.w_v, blk.b_v)))
        attn = row_softmax(scale(bmm(q, transpose(k, (0, 1, 3, 2))),
                                 1.0 / math.sqrt(cfg.d_head)))
        ctx = merge_heads(bmm(attn, v))
        reference = add(h, add(matmul(ctx, blk.w_e), blk.b_e))

        assert np.array_equal(masked.data, reference.data)


class TestBlockForward:
    def test_pruned_block_with_zero_ffn_is_identity(self):
        cfg = small_cfg(layers=1)
        model = Forecaster(cfg, seed=2)
        blk = model.blocks[0]
        blk.remove_attention()
        for p in (blk.w1, blk.b1, blk.w2, blk.b2, blk.ln2_b):
            p.data = np.zeros_like(p.data)
        h = Tensor(np.random.default_rng(4).normal(size=(2, cfg.token_count, cfg.d_model)))
        out = blk.forward(h)
        np.testing.assert_array_equal(out.data, h.data)

    def test_pruned_and_unpruned_differ_only_through_attention(self):
        cfg = small_cfg(layers=1)
        model = Forecaster(cfg, seed=9)
        blk = model.blocks[0]
        h = Tensor(np.random.default_rng(5).normal(size=(2, cfg.token_count, cfg.d_model)))

        full = blk.forward(h)
        ffn_only = blk.ffn_sublayer(h)
        assert not np.allclose(full.data, ffn_only.data)

        twin = clone_model(model).blocks[0]
        twin.remove_attention()
        np.testing.assert_array_equal(twin.forward(h).data, ffn_only.data)

    def test_zero_output_projection_equals_pruned(self):
        cfg = small_cfg(layers=1)
        model = Forecaster(cfg, seed=11)
        blk = model.blocks[0]
        blk.w_e.data = np.zeros_like(blk.w_e.data)
        blk.b_e.data = np.zeros_like(blk.b_e.data)
        h = Tensor(np.random.default_rng(6).normal(size=(2, cfg.token_count, cfg.d_model)))
        with_attention = blk.forward(h)

        twin = clone_model(model).blocks[0]
        twin.remove_attention()
        np.testing.assert_array_equal(with_attention.data, twin.forward(h).data)


class TestForecast:
    def test_shape_and_finiteness(self):
        cfg = ModelConfig(mode="temporal_tokens", lookback=16, horizon=4,
                          channels=1, d_model=8, d_ff=16, heads=2, layers=2,
                          patch_len=8, patch_stride=4, dropout=0.0)
        model = Forecaster(cfg, seed=0)
        out = model.forecast(np.random.default_rng(0).normal(size=(1, 16, 1)))
        assert out.shape == (1, 4, 1)
        assert np.isfinite(out).all()

    def test_zero_input_zero_biases_gives_zero_prehead(self):
        cfg = small_cfg(instance_norm=False)
        model = Forecaster(cfg, seed=1)
        for name, p in model.named_parameters():
            if name.endswith((".b", "_b", ".b1", ".b2")) or ".b_" in name or "pos" in name:
                p.data = np.zeros_like(p.data)
        # the head's bias is zeroed too, so only zero tokens give a zero
        # forecast through its random weights
        out = model.forecast(np.zeros((2, cfg.lookback, cfg.channels)))
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_eval_deterministic_bitwise(self):
        cfg = small_cfg()
        model = Forecaster(cfg, seed=7)
        x = np.random.default_rng(2).normal(size=(3, cfg.lookback, cfg.channels))
        assert np.array_equal(model.forecast(x), model.forecast(x))

    def test_channel_permutation_equivariance_temporal(self):
        cfg = ModelConfig(mode="temporal_tokens", lookback=24, horizon=6,
                          channels=3, d_model=8, d_ff=16, heads=2, layers=2,
                          patch_len=8, patch_stride=4, dropout=0.0)
        model = Forecaster(cfg, seed=13)
        x = np.random.default_rng(3).normal(size=(2, 24, 3))
        perm = [2, 0, 1]
        direct = model.forecast(x)[:, :, perm]
        permuted = model.forecast(x[:, :, perm])
        # identical math; BLAS blocking may differ per row position
        np.testing.assert_allclose(permuted, direct, rtol=1e-12, atol=1e-13)

    def test_temporal_mode_accepts_any_channel_count(self):
        cfg = ModelConfig(mode="temporal_tokens", lookback=16, horizon=4,
                          channels=2, d_model=8, d_ff=16, heads=2, layers=1,
                          patch_len=8, patch_stride=4, dropout=0.0)
        model = Forecaster(cfg, seed=0)
        out = model.forecast(np.zeros((1, 16, 5)))
        assert out.shape == (1, 4, 5)

    def test_variate_mode_rejects_wrong_channel_count(self):
        model = Forecaster(small_cfg(), seed=0)
        with pytest.raises(ShapeError):
            model.forecast(np.zeros((1, 16, 9)))

    def test_nan_activation_names_layer(self):
        cfg = small_cfg()
        model = Forecaster(cfg, seed=0)
        model.blocks[1].w1.data[0, 0] = np.nan
        with pytest.raises(NumericError) as err:
            model.forecast(np.zeros((1, cfg.lookback, cfg.channels)))
        assert "block 1" in str(err.value)

    def test_mask_gradient_flows(self):
        """Every block's probe gets a nonzero mask gradient."""
        cfg = small_cfg()
        model = Forecaster(cfg, seed=21)
        s = cfg.token_count
        for blk in model.blocks:
            blk.probe = Tensor(np.ones((cfg.heads, s, s)), requires_grad=True)
        x = np.random.default_rng(8).normal(size=(4, cfg.lookback, cfg.channels))
        y = np.random.default_rng(9).normal(size=(4, cfg.horizon, cfg.channels))
        with Tape() as tape:
            loss = mse_loss(model.forward(x), y)
        tape.backward(loss)
        for blk in model.blocks:
            assert blk.probe.grad is not None and np.abs(blk.probe.grad).max() > 0


class TestMseLoss:
    def test_zero_when_equal(self):
        p = Tensor(np.ones((2, 3)))
        assert mse_loss(p, np.ones((2, 3))).item() == 0.0

    def test_hand_arithmetic(self):
        assert mse_loss(Tensor([1.0, -1.0]), np.zeros(2)).item() == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        pred = rng.normal(size=(2, 3, 2))
        target = rng.normal(size=(2, 3, 2))
        total = 0.0
        for idx in np.ndindex(pred.shape):
            total += (pred[idx] - target[idx]) ** 2
        expected = total / pred.size
        assert abs(mse_loss(Tensor(pred), target).item() - expected) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))


class TestFullModelGradient:
    def test_variate_model_matches_finite_differences(self):
        cfg = small_cfg(layers=2)
        model = Forecaster(cfg, seed=31)
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, cfg.lookback, cfg.channels))
        y = rng.normal(size=(2, cfg.horizon, cfg.channels))
        model_param_gradcheck(model, x, y, max_entries_per_param=12)

    def test_temporal_model_matches_finite_differences(self):
        cfg = ModelConfig(mode="temporal_tokens", lookback=16, horizon=4,
                          channels=2, d_model=8, d_ff=16, heads=2, layers=2,
                          patch_len=8, patch_stride=4, dropout=0.0)
        model = Forecaster(cfg, seed=41)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 16, 2))
        y = rng.normal(size=(2, 4, 2))
        model_param_gradcheck(model, x, y, max_entries_per_param=12)


class TestStateShapes:
    @pytest.mark.parametrize("mode", ["temporal_tokens", "variate_tokens"])
    @pytest.mark.parametrize("norm", ["pre", "post"])
    @pytest.mark.parametrize("pruned", [(), (1,), (0, 2)])
    def test_matches_the_built_model(self, mode, norm, pruned):
        cfg = small_cfg(mode=mode, norm_placement=norm, layers=3, patch_len=4,
                        patch_stride=2)
        model = Forecaster(cfg, seed=0)
        for i in pruned:
            model.blocks[i].remove_attention()
        want = {name: a.shape for name, a in model.state_dict().items()}
        got = state_shapes(cfg, pruned)
        assert list(got) == list(want) and got == want
        assert not [name for name in got if name.endswith(".mask")]


class TestKeepMasks:
    """A training forward applies the masks of successive ``keep_mask``
    draws from its ``rng``, drawn on the helper thread or not."""

    @pytest.fixture
    def applied(self, monkeypatch):
        """The keep masks the model's ops are given, as (op, mask), in
        order."""
        seen = []

        def spy(op, name, *keys):
            signature = inspect.signature(op)

            def wrapped(*args, **kwargs):
                given = signature.bind(*args, **kwargs).arguments
                seen.extend((f"{name}.{k}", given.get(k)) for k in keys)
                return op(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(model_module, "embed",
                            spy(tensor.embed, "embed", "keep"))
        monkeypatch.setattr(model_module, "attention_sublayer",
                            spy(tensor.attention_sublayer, "attention", "keep"))
        monkeypatch.setattr(model_module, "ffn",
                            spy(tensor.ffn, "ffn", "keep1", "keep2"))
        return seen

    @staticmethod
    def model(case):
        if case == "synthetic_small":
            cfg = load_config(BUNDLED_CONFIG)
            return Forecaster(cfg.model.to_model_config(
                cfg.window.lookback, cfg.window.horizon,
                cfg.data.synthetic.channels), seed=1)
        mode = "variate_tokens" if case == "variate" else "temporal_tokens"
        model = Forecaster(small_cfg(mode=mode, patch_len=8, patch_stride=4,
                                     layers=3, dropout=0.3), seed=1)
        if case == "pruned":
            model.blocks[1].remove_attention()
        return model

    @pytest.mark.parametrize("case, batch", [
        ("temporal", 5), ("variate", 5), ("pruned", 5),
        ("synthetic_small", 57)])
    def test_masks_are_the_successive_draws(self, schedule, applied, case,
                                            batch):
        """The 57 windows are synthetic_small's last training batch."""
        model = self.model(case)
        cfg = model.cfg
        x = np.random.default_rng(2).normal(
            size=(batch, cfg.lookback, cfg.channels))
        rng = np.random.default_rng(3)
        with Tape():
            model.forward(x, training=True, rng=rng)
        names = ["embed.keep"]
        for blk in model.blocks:
            names += [] if blk.pruned else ["attention.keep"]
            names += ["ffn.keep1", "ffn.keep2"]
        assert [name for name, _ in applied] == names
        draws = np.random.default_rng(3)
        for _, mask in applied:
            want = keep_mask(draws, mask.shape, cfg.dropout)
            assert mask.tobytes() == want.tobytes()
        assert rng.bit_generator.state == draws.bit_generator.state

    def test_no_dropout_draws_nothing(self, schedule, applied):
        model = Forecaster(small_cfg(dropout=0.0), seed=1)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        model.forward(np.ones((2, 16, 4)), training=True, rng=rng)
        assert rng.bit_generator.state == before
        assert applied and all(mask is None for _, mask in applied)

    def test_a_mask_of_another_shape_raises(self, schedule, monkeypatch):
        model = Forecaster(small_cfg(dropout=0.1), seed=1)
        x = np.ones((2, 16, 4))
        listed = model.keep_shapes(x.shape)
        monkeypatch.setattr(Forecaster, "keep_shapes",
                            lambda self, shape: listed[:1] + [(2, 4, 9)])
        with pytest.raises(ContractError, match=r"keep mask 1: .* \(2, 4, 9\)"):
            model.forward(x, training=True, rng=np.random.default_rng(3))
        monkeypatch.setattr(Forecaster, "keep_shapes",
                            lambda self, shape: listed + [(1,)])
        with pytest.raises(ContractError, match="listed 8 keep masks and took 7"):
            model.forward(x, training=True, rng=np.random.default_rng(3))

    @staticmethod
    def train_step():
        model = Forecaster(small_cfg(dropout=0.2, layers=3), seed=1)
        data = np.random.default_rng(2)
        x, y = data.normal(size=(6, 16, 4)), data.normal(size=(6, 4, 4))
        with Tape() as tape:
            loss = mse_loss(model.forward(x, training=True,
                                          rng=np.random.default_rng(3)), y)
        tape.backward(loss)
        return b"".join(p.grad.tobytes() for p in model.parameters())

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(tensor, "_HELPER", None)
        before = set(threading.enumerate())
        self.train_step()
        assert tensor._HELPER is False
        assert set(threading.enumerate()) <= before

    def test_forked_child_trains(self, monkeypatch):
        """The child of a fork taken while the helper thread is alive
        draws its masks and accumulates its gradients on a helper of its
        own, and gets the parent's bytes."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(tensor, "_HELPER", None)
        want = self.train_step()
        assert tensor._HELPER
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 warns about forking a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                os.write(write, b"same" if self.train_step() == want else b"diff")
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


class TestLanes:
    """An untaped forecast of 25 windows or more (at these shapes) runs as
    two lanes, one half of the windows per thread, and gives the bytes,
    strides and exceptions of a forecast on one thread."""

    @staticmethod
    def model(mode="temporal_tokens", placement="pre", pruned=False,
              instance_norm=True):
        """synthetic_small's temporal model, or a variate model whose FFN
        activation has as many elements per window (21 channels, d_ff
        128): 2688, so a batch of 25 reaches the 2^16 limit and 24 does
        not."""
        variate = mode == "variate_tokens"
        cfg = ModelConfig(mode=mode, lookback=96, horizon=24,
                          channels=21 if variate else 7,
                          d_model=32 if variate else 16,
                          d_ff=128 if variate else 32, heads=2, layers=3,
                          patch_len=16, patch_stride=8, dropout=0.1,
                          activation="relu" if placement == "post" else "gelu",
                          norm_placement=placement,
                          instance_norm=instance_norm)
        model = Forecaster(cfg, seed=5)
        if pruned:
            model.blocks[2].remove_attention()
        return model

    @staticmethod
    def windows(model, batch):
        return np.random.default_rng(6).normal(
            size=(batch, model.cfg.lookback, model.cfg.channels))

    @staticmethod
    def one_cpu(monkeypatch, fn):
        """``fn()`` run as a process on one CPU runs it."""
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            m.setattr(tensor, "_HELPER", None)
            return fn()

    @staticmethod
    def raised(fn) -> str:
        with pytest.raises(NumericError) as info:
            fn()
        return str(info.value)

    @pytest.fixture
    def lanes_ran(self, monkeypatch):
        """The batch sizes of the forecasts that ran as lanes, in order."""
        ran = []
        two_lanes = tensor.two_lanes

        def spy(work, halves, elements, alike):
            threads = set()

            def lane(part):
                threads.add(threading.current_thread())
                return work(part)
            try:
                return two_lanes(lane, halves, elements, alike)
            finally:
                if threads:
                    assert len(threads) == 2
                    ran.append(sum(map(len, halves)))
        monkeypatch.setattr(model_module, "two_lanes", spy)
        return ran

    @pytest.mark.parametrize("batch", [1, 2, 25, 57, 64])
    @pytest.mark.parametrize("pruned", [False, True], ids=["full", "pruned"])
    @pytest.mark.parametrize("mode, placement", [
        ("temporal_tokens", "pre"), ("temporal_tokens", "post"),
        ("variate_tokens", "pre"), ("variate_tokens", "post")])
    def test_matches_one_lane(self, schedule, monkeypatch, lanes_ran, mode,
                              placement, pruned, batch):
        model = self.model(mode, placement, pruned)
        x = self.windows(model, batch)
        want = self.one_cpu(monkeypatch, lambda: model.forecast(x))
        del lanes_ran[:]
        got = model.forecast(x)
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
        two = schedule == "two_threads"
        assert lanes_ran == ([batch] if two and batch >= 25 else [])

    @pytest.mark.parametrize("batch", [2, 3, 4])
    def test_a_lane_takes_two_windows_or_more(self, schedule, monkeypatch,
                                              lanes_ran, batch):
        """256 variate channels reach the size limit at batch 2, but one
        window's tokens reach the embedding's GEMM as a transposed view."""
        model = Forecaster(ModelConfig(
            mode="variate_tokens", lookback=96, horizon=24, channels=256,
            d_model=16, d_ff=128, heads=2, layers=2), seed=5)
        x = self.windows(model, batch)
        want = self.one_cpu(monkeypatch, lambda: model.forecast(x))
        del lanes_ran[:]
        assert model.forecast(x).tobytes() == want.tobytes()
        two = schedule == "two_threads"
        assert lanes_ran == ([batch] if two and batch >= 4 else [])

    def test_no_lanes_where_a_linear_would_change_bits(
            self, schedule, monkeypatch, lanes_ran):
        """Where BLAS gives one linear's rows other bits on half the rows,
        the forecast runs on the calling thread."""
        model = self.model()
        x = self.windows(model, 64)
        want = self.one_cpu(monkeypatch, lambda: model.forecast(x))
        shapes = []

        def alike(rows, split, k, n):
            shapes.append((rows, split, k, n))
            return (k, n) != (16, 32)
        monkeypatch.setattr(model_module, "split_rows_alike", alike)
        del lanes_ran[:]
        assert model.forecast(x).tobytes() == want.tobytes()
        assert lanes_ran == []
        # tried only where lanes could run: 5376 rows, 2688 per lane
        tried = [(5376, 2688, 16, 16)] * 2 + [(5376, 2688, 16, 32)]
        assert shapes[:3] == (tried if schedule == "two_threads" else [])

    def test_a_batch_below_the_limit_hands_nothing_over(self, schedule,
                                                         monkeypatch):
        model = self.model()
        handed = []
        helper = tensor._helper()
        if helper:
            submit = helper.submit

            def spy(*args, **kwargs):
                handed.append(args[0])
                return submit(*args, **kwargs)
            monkeypatch.setattr(helper, "submit", spy)
        model.forecast(self.windows(model, 24))
        assert handed == []
        # one job for the second lane, and no op inside a lane hands over,
        # not even the erf halves of a 32-window lane's FFN
        for batch in (25, 64):
            del handed[:]
            model.forecast(self.windows(model, batch))
            assert len(handed) == (schedule == "two_threads")

    @pytest.mark.parametrize("pruned", [False, True], ids=["full", "pruned"])
    def test_nan_in_the_second_half(self, schedule, monkeypatch, lanes_ran,
                                    pruned):
        model = self.model(pruned=pruned)
        x = self.windows(model, 64)
        x[40, 10, 3] = np.nan
        want = self.one_cpu(monkeypatch,
                            lambda: self.raised(lambda: model.forecast(x)))
        del lanes_ran[:]
        assert self.raised(lambda: model.forecast(x)) == want
        assert lanes_ran == ([64] if schedule == "two_threads" else [])

    @pytest.mark.parametrize("late_first", [True, False])
    def test_lanes_that_fail_at_different_blocks(self, schedule, monkeypatch,
                                                 lanes_ran, late_first):
        """Each block turns to NaN the series whose residual stream reaches
        its limit: a window scaled by 1e8 fails after block 1, one scaled
        by 1e6 after block 2. Whichever half holds which, the serial
        forecast reports block 1, and so must the lanes."""
        model = self.model(instance_norm=False)
        limits = dict(zip(model.blocks, (np.inf, 1e7, 1e5)))
        forward = model_module.AttentionBlock.forward

        def poisoned(blk, h, masks=None):
            out = forward(blk, h, masks)
            rows = np.abs(h.data).max(axis=(1, 2)) >= limits[blk]
            if not rows.any():
                return out
            data = out.data.copy()
            data[rows] = np.nan
            return Tensor(data)
        monkeypatch.setattr(model_module.AttentionBlock, "forward", poisoned)
        x = self.windows(model, 64)
        x[10] *= 1e6 if late_first else 1e8
        x[50] *= 1e8 if late_first else 1e6
        want = self.one_cpu(monkeypatch,
                            lambda: self.raised(lambda: model.forecast(x)))
        assert want == "NaN activations after encoder block 1"
        del lanes_ran[:]
        assert self.raised(lambda: model.forecast(x)) == want
        assert lanes_ran == ([64] if schedule == "two_threads" else [])

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(tensor, "_HELPER", None)
        before = set(threading.enumerate())
        model = self.model()
        model.forecast(self.windows(model, 64))
        assert tensor._HELPER is False
        assert set(threading.enumerate()) <= before

    def test_forked_child_forecasts(self, monkeypatch):
        """The child of a fork taken while the helper thread is alive runs
        its lanes on a helper of its own, and gets the parent's bytes."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(tensor, "_HELPER", None)
        model = self.model(pruned=True)
        x = self.windows(model, 64)
        want = model.forecast(x).tobytes()
        assert tensor._HELPER
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 warns about forking a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                same = model.forecast(x).tobytes() == want
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

    def test_evaluation_with_a_partial_last_batch(self, schedule,
                                                  monkeypatch, lanes_ran):
        """121 windows in batches of 64 and 57, both run as lanes."""
        model = self.model(pruned=True)
        x = self.windows(model, 121)
        y = np.random.default_rng(7).normal(size=(121, 24, 7))

        def evaluate():
            metrics = evaluate_metrics(model, x, y, batch_size=64)
            return [evaluate_loss(model, x, y, 64).hex(),
                    metrics["mse"].hex(), metrics["mae"].hex()]
        want = self.one_cpu(monkeypatch, evaluate)
        del lanes_ran[:]
        assert evaluate() == want
        assert lanes_ran == ([64, 57] * 2 if schedule == "two_threads" else [])
