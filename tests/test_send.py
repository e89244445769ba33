"""Sensitivity-metric tests, anchored by a finite-difference mask oracle."""

import itertools
import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spat.errors import (
    ConfigError,
    ContractError,
    NumericError,
    ParseError,
    ShapeError,
)
from conftest import traced_peak
from spat import model as model_module
from spat import pipeline
from spat.model import Forecaster, ModelConfig, clone_model
from spat.send import (
    aggregate_heads,
    build_plan,
    compute_sensitivity,
    format_report,
    normalize_sensitivity,
    parse_report,
    plan_from_records,
    send_score,
)
from spat import tensor
from spat.tensor import Tape, Tensor, attention_sublayer, mse_loss
from unfused import mul, total, unfused_attention_sublayer


def toy_setup(layers=2, seed=0, n_batches=2, batch=3):
    """Variate-token model with H=2 heads over S=4 tokens."""
    cfg = ModelConfig(mode="variate_tokens", lookback=12, horizon=3, channels=4,
                      d_model=8, d_ff=16, heads=2, layers=layers, dropout=0.0)
    model = Forecaster(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    batches = [(rng.normal(size=(batch, 12, 4)), rng.normal(size=(batch, 3, 4)))
               for _ in range(n_batches)]
    return model, batches


def dataset_loss(model, batches, probes=None):
    """Average of per-batch MSE losses, the quantity scoring differentiates."""
    total = 0.0
    for x, y in batches:
        pred = model.forward(x, probes=probes).data
        total += float(np.mean((pred - y) ** 2))
    return total / len(batches)


def all_probes(model):
    """An all-ones probe that needs a gradient for every unpruned block, as
    scoring makes them, by layer index."""
    shape = (model.cfg.heads,) + (model.cfg.token_count,) * 2
    return {i: Tensor(np.ones(shape), requires_grad=True)
            for i, blk in enumerate(model.blocks) if not blk.pruned}


def assert_fused_equals_unfused(batch, s, heads, dh):
    """``attention_sublayer`` against ``unfused.unfused_attention_sublayer``,
    the composition of the unfused primitives: outputs and every gradient
    equal bit for bit and share their memory layout. The op's probe
    gradient is checked against the reference's gradient of an all-ones
    mask, with every input needing a gradient and with x and the q and k
    weights frozen, so only v needs one; without a probe, the reference
    multiplies in no mask."""
    rng = np.random.default_rng(5)
    d = heads * dh
    arrays = ([rng.normal(size=(batch, s, d)) for _ in range(2)]
              + [rng.normal(size=shape) for _ in range(4)
                 for shape in ((d, d), (d,))])
    w = rng.normal(size=(batch, s, d))
    qk_side = (1, 2, 3, 4, 5)  # x, w_q, b_q, w_k, b_k

    whole = (heads, s, s)
    for need_qk, probed in [(True, whole), (False, whole), (True, None)]:
        grads = []
        for attend in (attention_sublayer, unfused_attention_sublayer):
            ts = [Tensor(a, requires_grad=need_qk or i not in qk_side)
                  for i, a in enumerate(arrays)]
            probe = (Tensor(np.ones(probed), requires_grad=True)
                     if probed else None)
            with Tape() as tape:
                out = attend(*ts, heads, probe=probe)
                loss = total(mul(out, Tensor(w)))
            tape.backward(loss)
            grads.append((out.data, probe.grad if probed else None,
                          *(t.grad for t in ts)))
        if not need_qk:
            assert all(g[2 + i] is None for g in grads for i in qk_side)
        for got, want in zip(*grads):
            # the same layout too: sums over a gradient (a bias gradient)
            # depend on it
            assert got is want is None or (np.array_equal(got, want)
                                           and got.strides == want.strides)


class TestSensitivityOracle:
    def test_matches_finite_difference_mask_gradient(self, monkeypatch):
        """Mask-removal derivative, estimated by perturbing each relaxed
        mask entry around 1 by d = 1e-4. The op never reads its probe, so
        the model's attention is the unfused reference here, which
        multiplies the probe's values in as the mask."""
        model, batches = toy_setup()
        records = compute_sensitivity(model, batches)
        monkeypatch.setattr("spat.model.attention_sublayer",
                            unfused_attention_sublayer)
        delta = 1e-4
        for rec in records:
            probes = {rec.layer_index: Tensor(np.ones_like(rec.sen))}
            mask = probes[rec.layer_index].data
            fd = np.zeros_like(mask)
            for h, i, j in np.ndindex(mask.shape):
                mask[h, i, j] = 1.0 + delta
                up = dataset_loss(model, batches, probes)
                mask[h, i, j] = 1.0 - delta
                down = dataset_loss(model, batches, probes)
                mask[h, i, j] = 1.0
                fd[h, i, j] = (up - down) / (2.0 * delta)
            scale = max(np.abs(fd).max(), 1e-12)
            rel = np.abs(rec.sen - fd) / np.maximum(np.abs(fd), 1e-3 * scale)
            assert rel.max() < 1e-3, f"layer {rec.layer_index}: {rel.max():.2e}"

    def test_chain_rule_equals_direct_mask_gradient(self):
        """The fused op's probe gradient is bit-identical to the chain rule
        through the unfused primitives (the linears, split heads, ``q kᵀ``,
        scale, ``row_softmax``, ``* mask`` at an all-ones mask, ``@ v``,
        merge heads, the output linear and the residual), and so are the
        other gradients; also at d_head 1, where the merged heads are a
        view."""
        assert_fused_equals_unfused(batch=3, s=5, heads=2, dh=4)
        assert_fused_equals_unfused(batch=3, s=5, heads=2, dh=1)

    @pytest.mark.parametrize("batch, s, per_chunk", [(3, 5, 1), (5, 128, 2)],
                             ids=["one_item", "remainder"])
    def test_chunked_equals_direct_mask_gradient(self, monkeypatch, batch, s,
                                                 per_chunk):
        """The same bits when the batch runs in several chunks: one item
        per chunk, and chunks of 2 over 5 items, whose last chunk is a
        remainder. The probe gradient sums the batch in order; summing per
        chunk and then adding the partial sums would round differently."""
        heads = 2
        monkeypatch.setattr(tensor, "_ATTENTION_CHUNK_BYTES",
                            per_chunk * heads * s * s * 8)
        assert_fused_equals_unfused(batch=batch, s=s, heads=heads, dh=4)

    def test_zero_upstream_gradient_gives_zero_sensitivity(self):
        model, batches = toy_setup()
        model.head_w.data = np.zeros_like(model.head_w.data)
        model.head_b.data = np.zeros_like(model.head_b.data)
        for rec in compute_sensitivity(model, batches):
            np.testing.assert_array_equal(rec.sen, np.zeros_like(rec.sen))

    @pytest.mark.parametrize("n_batches", [1, 3])
    def test_single_batch_equals_unaveraged(self, schedule, monkeypatch,
                                            lanes_ran, n_batches):
        """One batch's sensitivity is its tape's probe gradient; over three
        batches of eight windows, each run as two lanes on two CPUs, it is
        ``((g_0 + g_1) + g_2) / 3``, byte for byte. The last batch's
        targets are scaled so that ``g_0 + (g_1 + g_2)`` rounds otherwise
        in both layers, and the order is seen."""
        monkeypatch.setattr(model_module, "_LANE_ELEMENTS", 1)
        model, batches = toy_setup(n_batches=n_batches, batch=8)
        if n_batches == 3:
            batches[2] = (batches[2][0], 1e3 * batches[2][1])
        records = compute_sensitivity(model, batches)
        assert lanes_ran == ([8] * n_batches if schedule == "two_threads"
                             else [])
        runs = []
        for x, y in batches:
            probes = all_probes(model)
            with Tape() as tape:
                loss = mse_loss(model.forward(x, probes=probes), y)
            tape.backward(loss)
            runs.append(probes)
        for rec in records:
            g = [run[rec.layer_index].grad for run in runs]
            if n_batches == 1:
                assert rec.sen.tobytes() == g[0].tobytes()
            else:
                assert rec.sen.tobytes() == (((g[0] + g[1]) + g[2]) / 3).tobytes()
                assert rec.sen.tobytes() != ((g[0] + (g[1] + g[2])) / 3).tobytes()
        assert all(r.batches_accumulated == n_batches for r in records)

    def test_scoring_leaves_no_probe(self, monkeypatch):
        """Scoring probes every layer and freezes the weights: no parameter
        holds a gradient after any scoring backward. Afterwards the model
        names the parameters it named before, so no probe reaches an
        optimizer or a checkpoint, and all parameters require gradients
        again, also after a batch that raises midway."""
        model, batches = toy_setup()
        names = [n for n, _ in model.named_parameters()]
        backward = Tape.backward
        seen = []

        def checked(tape, loss):
            probed = [r.inputs[-1] for r in tape._records
                      if r.name == "attention_sublayer"]
            assert len(probed) == len(model.blocks)
            assert all(p.shape == (2, 4, 4) and p.requires_grad
                       for p in probed)
            backward(tape, loss)
            seen.append([n for n, p in model.named_parameters()
                         if p.grad is not None])

        def assert_restored():
            assert [n for n, _ in model.named_parameters()] == names
            assert all(p.requires_grad and p.grad is None
                       for p in model.parameters())

        monkeypatch.setattr(Tape, "backward", checked)
        compute_sensitivity(model, batches)
        assert seen == [[]] * len(batches)
        assert_restored()
        seen.clear()
        wrong_lookback = (np.zeros((3, 11, 4)), np.zeros((3, 3, 4)))
        with pytest.raises(ShapeError):
            compute_sensitivity(model, batches[:1] + [wrong_lookback])
        assert seen == [[]]
        assert_restored()

    @pytest.mark.parametrize("mode, pruned", [
        ("temporal_tokens", []), ("variate_tokens", []), ("variate_tokens", [0]),
    ], ids=["temporal", "variate", "variate_layer0_pruned"])
    def test_frozen_scoring_equals_full_backward(self, monkeypatch, mode, pruned):
        """The scoring tape starts at the first unpruned layer's attention,
        and its probe gradients are bit-identical to those of a backward
        through every parameter."""
        cfg = ModelConfig(mode=mode, lookback=12, horizon=3, channels=4,
                          d_model=8, d_ff=16, heads=2, layers=3, patch_len=4,
                          patch_stride=2, dropout=0.0)
        model = clone_model(Forecaster(cfg, seed=1), pruned)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(3, 12, 4)), rng.normal(size=(3, 3, 4))
        backward = Tape.backward
        first_ops = []

        def spy(tape, loss):
            first_ops.append(tape._records[0].name)
            backward(tape, loss)

        monkeypatch.setattr(Tape, "backward", spy)
        records = compute_sensitivity(model, [(x, y)])
        monkeypatch.undo()
        assert first_ops == ["attention_sublayer"]
        probes = all_probes(model)
        with Tape() as tape:
            loss = mse_loss(model.forward(x, probes=probes), y)
        tape.backward(loss)
        assert model.embed_w.grad is not None
        assert [r.layer_index for r in records] == [
            i for i in range(3) if i not in pruned]
        for rec in records:
            assert np.array_equal(rec.sen, probes[rec.layer_index].grad)

    def test_empty_batches_rejected(self):
        model, _ = toy_setup()
        with pytest.raises(ContractError):
            compute_sensitivity(model, [])

    def test_partially_pruned_scores_remaining_layers(self):
        model, batches = toy_setup(layers=3)
        model = clone_model(model, [1])
        records = compute_sensitivity(model, batches)
        assert [r.layer_index for r in records] == [0, 2]

    def test_fully_pruned_rejected(self):
        model, batches = toy_setup(layers=1)
        model = clone_model(model, [0])
        with pytest.raises(ContractError):
            compute_sensitivity(model, batches)


class TestScoringLanes:
    """A scoring batch of four windows or more (and, at these shapes, 13 or
    more) runs as two lanes, one half of the windows per thread, forward
    and backward, and gives the sensitivities, scores and exceptions of
    scoring on one CPU, byte for byte."""

    @staticmethod
    def model(mode="temporal_tokens", placement="pre", pruned=False):
        """Temporal tokens (7 channels of 12 patches) or variate tokens (21
        channels): 5376 FFN elements per window either way, so a batch of
        13 reaches the 2^16 limit for lanes."""
        variate = mode == "variate_tokens"
        cfg = ModelConfig(mode=mode, lookback=96, horizon=24,
                          channels=21 if variate else 7, d_model=16,
                          d_ff=256 if variate else 64, heads=2, layers=3,
                          patch_len=16, patch_stride=8, dropout=0.1,
                          activation="relu" if placement == "post" else "gelu",
                          norm_placement=placement)
        model = Forecaster(cfg, seed=5)
        return clone_model(model, [1]) if pruned else model

    @staticmethod
    def batches(model, sizes=(64, 21, 3, 1)):
        rng = np.random.default_rng(6)
        c = model.cfg
        return [(rng.normal(size=(n, c.lookback, c.channels)),
                 rng.normal(size=(n, c.horizon, c.channels))) for n in sizes]

    @staticmethod
    def one_cpu(monkeypatch, fn):
        """``fn()`` as a process on one CPU runs it."""
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            return fn()

    @staticmethod
    def scored(records):
        return [(r.layer_index, r.sen.tobytes(), r.sen.strides, r.send.hex(),
                 r.batches_accumulated) for r in records]

    @pytest.mark.parametrize("pruned", [False, True], ids=["full", "pruned"])
    @pytest.mark.parametrize("mode, placement", [
        ("temporal_tokens", "pre"), ("temporal_tokens", "post"),
        ("variate_tokens", "pre"), ("variate_tokens", "post")])
    def test_matches_one_cpu(self, schedule, monkeypatch, lanes_ran, mode,
                             placement, pruned):
        """Pre-norm with gelu and post-norm with relu; batches of 64, 21
        (split 10 / 11), 3 and 1 windows."""
        model = self.model(mode, placement, pruned)
        batches = self.batches(model)
        want = self.one_cpu(monkeypatch,
                            lambda: compute_sensitivity(model, batches))
        assert lanes_ran == []
        got = compute_sensitivity(model, batches)
        assert self.scored(got) == self.scored(want)
        assert lanes_ran == ([64, 21] if schedule == "two_threads" else [])

    def test_nan_in_the_second_half(self, schedule, monkeypatch, lanes_ran):
        model = self.model()
        batches = self.batches(model, (64,))
        batches[0][0][40, 10, 3] = np.nan

        def raised():
            with pytest.raises(NumericError) as info:
                compute_sensitivity(model, batches)
            return str(info.value)
        want = self.one_cpu(monkeypatch, raised)
        assert raised() == want
        assert lanes_ran == []

    @pytest.mark.parametrize("once", [True, False], ids=["once", "always"])
    def test_a_lane_that_fails_in_its_backward(self, schedule, monkeypatch,
                                               lanes_ran, once):
        """Both lanes' forwards run to the loss, then the second lane's
        backward raises: only this once, and the batch scored again as one
        part gives the one-CPU bytes; or on every backward that reaches
        window 40's targets, and scoring raises the one-CPU exception."""
        model = self.model()
        batches = self.batches(model, (64,))
        batches[0][1][40, 0, 0] = 1e6
        loss, losses, raised = model_module.mse_loss, [], []

        def failing(pred, target, count=None):
            out = loss(pred, target, count)
            losses.append(len(target))
            if not (target == 1e6).any():
                return out

            def fail(g):
                main = threading.current_thread() is threading.main_thread()
                if once and (raised or main):
                    return (g,)
                raised.append(len(target))
                raise NumericError("backward failed at window 40")
            return tensor._emit("fail", (out,), out.data, fail)

        def score():
            try:
                return self.scored(compute_sensitivity(model, batches))
            except NumericError as e:
                return str(e)
        monkeypatch.setattr(model_module, "mse_loss", failing)
        want = self.one_cpu(monkeypatch, score)
        assert (want == "backward failed at window 40") != once
        del losses[:], raised[:]
        assert score() == want
        two = schedule == "two_threads"
        assert losses == ([32, 32, 64] if two else [64])
        assert raised == ([32] if two else []) + ([] if once else [64])
        assert lanes_ran == []

    def test_a_shape_that_splits_unlike_keeps_scoring_serial(
            self, schedule, monkeypatch, lanes_ran):
        """Where BLAS would give one linear (or its input gradient) other
        bits on half of the rows, every batch is scored on the calling
        thread."""
        model = self.model("variate_tokens")
        batches = self.batches(model, (64, 21))
        want = self.one_cpu(monkeypatch,
                            lambda: compute_sensitivity(model, batches))
        monkeypatch.setattr(model_module, "split_rows_alike",
                            lambda rows, split, k, n: (k, n) != (256, 16))
        assert self.scored(compute_sensitivity(model, batches)) == \
            self.scored(want)
        assert lanes_ran == []

    def test_iterative_prune_with_rescoring(self, schedule, monkeypatch,
                                            lanes_ran):
        """Two removals, rescoring the remaining layers each time."""
        model = self.model("variate_tokens")
        batches = self.batches(model, (32, 32))
        scores = []
        score = pipeline.compute_sensitivity

        def spy(net, batches):
            records = score(net, batches)
            scores.append(self.scored(records))
            return records
        monkeypatch.setattr(pipeline, "compute_sensitivity", spy)

        def prune():
            net, removed = pipeline.iterative_prune(model, batches, 2)
            return removed, net.state_dict().keys()
        want = self.one_cpu(monkeypatch, prune)
        got = prune()
        assert got == want and len(scores) == 4
        assert scores[2:] == scores[:2]
        assert lanes_ran == ([32] * 4 if schedule == "two_threads" else [])

    def test_lanes_hold_no_more_memory(self, monkeypatch, lanes_ran):
        """The traced peak of scoring on two threads stays within 2% of one
        CPU's: a lane records only its half of the batch, so the two tapes
        together hold what one tape of the batch holds. Running whole
        batches alternately on two threads, each on its own tape, would
        hold two batches' tapes at once."""
        model = Forecaster(ModelConfig(
            mode="variate_tokens", lookback=96, horizon=24, channels=64,
            d_model=32, d_ff=64, heads=4, layers=3), seed=7)
        batches = self.batches(model, (32, 32))
        one = self.one_cpu(monkeypatch, lambda: traced_peak(
            lambda: compute_sensitivity(model, batches)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        two = traced_peak(lambda: compute_sensitivity(model, batches))
        assert lanes_ran == [32, 32]
        assert two <= 1.02 * one, f"{two / 2**20:.1f} MiB vs {one / 2**20:.1f} MiB"


class TestNormalization:
    def test_zero_row_uniform(self):
        out = normalize_sensitivity(np.zeros((1, 1, 4)))
        np.testing.assert_allclose(out[0, 0], [0.25] * 4)

    def test_hand_evaluated_row(self):
        out = normalize_sensitivity(np.array([[[math.log(2.0), 0.0]]]))
        np.testing.assert_allclose(out[0, 0], [2 / 3, 1 / 3], rtol=1e-15)

    def test_absolute_value_symmetry(self):
        out = normalize_sensitivity(np.array([[[-1.0, 1.0]]]))
        np.testing.assert_allclose(out[0, 0], [0.5, 0.5])

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            normalize_sensitivity(np.array([[[np.nan, 0.0]]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_rows_are_strict_distributions(self, seed):
        sen = np.random.default_rng(seed).normal(scale=3.0, size=(2, 5, 5))
        out = normalize_sensitivity(sen)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(out > 0.0) and np.all(out < 1.0)


class TestHeadAggregation:
    def test_single_head_passthrough(self):
        sen_norm = np.random.default_rng(0).dirichlet(np.ones(4), size=(1, 4))
        np.testing.assert_array_equal(aggregate_heads(sen_norm), sen_norm[0])

    def test_two_head_symmetry(self):
        sen_norm = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        np.testing.assert_allclose(aggregate_heads(sen_norm), [[0.5, 0.5]])

    def test_matches_loop_oracle(self):
        sen_norm = np.random.default_rng(1).random((3, 4, 4))
        expected = np.zeros((4, 4))
        for h in range(3):
            for i in range(4):
                for j in range(4):
                    expected[i, j] += sen_norm[h, i, j] / 3
        np.testing.assert_allclose(aggregate_heads(sen_norm), expected, atol=1e-12)

    def test_head_permutation_invariance(self):
        sen = np.random.default_rng(2).normal(size=(4, 5, 5))
        base = aggregate_heads(normalize_sensitivity(sen))
        perm = aggregate_heads(normalize_sensitivity(sen[[2, 0, 3, 1]]))
        np.testing.assert_allclose(perm, base, atol=1e-12)
        assert abs(send_score(perm) - send_score(base)) < 1e-12


class TestSendScore:
    def test_uniform_rows_score_zero(self):
        assert send_score(np.full((3, 4), 0.25)) == 0.0

    def test_one_hot_rows(self):
        assert send_score(np.array([[1.0, 0.0], [1.0, 0.0]])) == 0.5

    def test_mixed_rows(self):
        assert send_score(np.array([[0.5, 0.5], [1.0, 0.0]])) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            send_score(np.zeros((0, 0)))

    def test_zero_iff_uniform(self):
        assert send_score(np.full((2, 5), 0.2)) == 0.0
        bumped = np.full((2, 5), 0.2)
        bumped[0, 0] += 0.01
        bumped[0, 1] -= 0.01
        assert send_score(bumped) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8))
    def test_bounded_by_one_hot_dispersion(self, seed, s):
        rows = np.random.default_rng(seed).dirichlet(np.ones(s), size=s)
        score = send_score(rows)
        assert 0.0 <= score < math.sqrt(s - 1) / s


class TestPlan:
    def test_alpha_point_three_removes_one_of_three(self):
        plan = build_plan([(0, 0.3), (1, 0.1), (2, 0.2)], alpha=0.3)
        assert plan.k == 1 and plan.i_pruned == [1]

    def test_alpha_point_nine_removes_all_three(self):
        plan = build_plan([(0, 0.3), (1, 0.1), (2, 0.2)], alpha=0.9)
        assert plan.k == 3 and set(plan.i_pruned) == {0, 1, 2}

    def test_lowest_score_pruned(self):
        plan = build_plan([(0, 0.5), (1, 0.2), (2, 0.9)], alpha=0.3)
        assert plan.i_pruned == [1]
        assert plan.i_ranked == [2, 0, 1]

    def test_alpha_bounds_rejected(self):
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                build_plan([(0, 0.1)], alpha)

    def test_ties_rank_lower_index_first(self):
        plan = build_plan([(0, 0.5), (1, 0.2), (2, 0.2)], alpha=0.3)
        assert plan.i_ranked == [0, 1, 2]
        assert plan.i_pruned == [2]

    def test_partition_invariant(self):
        plan = build_plan([(i, s) for i, s in enumerate([0.4, 0.1, 0.3, 0.2])],
                          alpha=0.5)
        kept = plan.i_ranked[:len(plan.i_ranked) - plan.k]
        assert set(kept) | set(plan.i_pruned) == {0, 1, 2, 3}
        assert set(kept) & set(plan.i_pruned) == set()

    def test_bottom_k_brute_force_all_permutations(self):
        base_scores = [0.91, 0.13, 0.55, 0.34, 0.78]
        for n in range(1, 6):
            values = base_scores[:n]
            for perm in itertools.permutations(values):
                for k in range(1, n + 1):
                    alpha = (k - 0.5) / n
                    plan = build_plan(list(enumerate(perm)), alpha)
                    assert plan.k == k
                    best = min(itertools.combinations(range(n), k),
                               key=lambda c: sum(perm[i] for i in c))
                    assert set(plan.i_pruned) == set(best)

    def test_ceiling_formula(self):
        for n in range(1, 8):
            for alpha in (0.05, 0.3, 0.5, 0.9, 0.99):
                plan = build_plan([(i, float(i)) for i in range(n)], alpha)
                assert plan.k == math.ceil(alpha * n)


class TestReportRoundTrip:
    def test_format_and_parse(self):
        model, batches = toy_setup()
        records = compute_sensitivity(model, batches)
        plan = plan_from_records(records, alpha=0.3)
        text = format_report(records, plan)
        parsed = parse_report(text)
        assert parsed.i_ranked == plan.i_ranked
        assert parsed.i_pruned == plan.i_pruned
        assert parsed.k == plan.k
        assert parsed.send_scores == sorted(plan.send_scores)

    def test_stable_field_order(self):
        plan = build_plan([(0, 0.2), (1, 0.1)], alpha=0.5)
        text = format_report([], plan)
        lines = text.splitlines()
        assert lines[0].startswith("send_report_version:")
        assert lines[1].startswith("layers:")
        assert lines[2].startswith("alpha:")
        assert lines[3].startswith("k:")
        assert lines[5].startswith("layer 0:")


def three_layer_report():
    """Report for scores 0.3, 0.1, 0.2 at alpha 0.3: ranks 1, 3, 2; k=1
    prunes layer 1."""
    plan = build_plan([(0, 0.3), (1, 0.1), (2, 0.2)], alpha=0.3)
    return format_report([], plan)


def assert_valid_plan(plan):
    """A plan that format_report can write and parse_report reads back."""
    n = len(plan.send_scores)
    indices = [i for i, _ in plan.send_scores]
    assert 0.0 < plan.alpha < 1.0
    assert len(set(indices)) == n and all(i >= 0 for i in indices)
    assert all(math.isfinite(s) for _, s in plan.send_scores)
    assert sorted(plan.i_ranked) == sorted(indices)
    assert plan.k == math.ceil(plan.alpha * n)
    assert plan.i_pruned == plan.i_ranked[n - plan.k:]
    again = parse_report(format_report([], plan))
    assert again.i_ranked == plan.i_ranked and again.k == plan.k
    assert again.send_scores == sorted(plan.send_scores)


class TestReportConsistency:
    def test_well_formed_report_parses(self):
        plan = parse_report(three_layer_report())
        assert plan.i_ranked == [0, 2, 1] and plan.i_pruned == [1]

    @pytest.mark.parametrize("old, new", [
        ("layers: 3", "layers: 5"),
        ("k: 1", "k: 2"),
        ("layer 0: send=0.3 rank=1", "layer 0: send=0.3 rank=2"),
        ("layer 2: send=0.2 rank=2", "layer 2: send=0.2 rank=1"),
    ], ids=["layers", "k", "rank_high", "rank_low"])
    def test_header_or_rank_contradicting_scores_rejected(self, old, new):
        text = three_layer_report()
        assert old in text
        with pytest.raises(ParseError):
            parse_report(text.replace(old, new))

    def test_swapped_pruned_flags_rejected(self):
        text = (three_layer_report()
                .replace("rank=3 pruned=true", "rank=3 pruned=false")
                .replace("rank=2 pruned=false", "rank=2 pruned=true"))
        with pytest.raises(ParseError):
            parse_report(text)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_score_rejected(self, score):
        text = three_layer_report().replace("send=0.1 ", f"send={score} ")
        with pytest.raises(ParseError):
            parse_report(text)

    def test_missing_rank_field_rejected(self):
        with pytest.raises(ParseError):
            parse_report(three_layer_report().replace(" rank=1", ""))

    def test_negative_layer_index_rejected(self):
        with pytest.raises(ParseError):
            parse_report(three_layer_report().replace("layer 0:", "layer -1:"))

    @pytest.mark.parametrize("alpha", ["1.5", "0.0", "nan"])
    def test_alpha_outside_the_unit_interval_rejected(self, alpha):
        text = three_layer_report().replace("alpha: 0.3", f"alpha: {alpha}")
        with pytest.raises(ParseError, match="send report: pruning ratio"):
            parse_report(text)

    def test_repeated_layer_index_rejected(self):
        text = three_layer_report().replace("layer 2:", "layer 0:")
        with pytest.raises(ParseError, match="send report: repeated layer"):
            parse_report(text)

    def test_report_without_layer_lines_rejected(self):
        text = "".join(ln for ln in three_layer_report().splitlines(True)
                       if not ln.startswith("layer "))
        with pytest.raises(ParseError, match="send report: no scored layers"):
            parse_report(text.replace("layers: 3", "layers: 0"))

    @pytest.mark.parametrize("old, new", [
        ("k: 1\n", "k: 7\nk: 1\n"),
        ("k: 1\n", "k: 1\nk: 1\n"),
        ("k: 1\n", "k: 1\nbogus: x\n"),
        ("batches: 0\n", ""),
        ("batches: 0\n", "batches: -5\n"),
        ("batches: 0\n", "batches: 1.5\n"),
        ("batches: 0\n", "batches:\n"),
    ], ids=["repeated_k", "repeated_same_k", "unknown_key", "batches_missing",
            "batches_negative", "batches_float", "batches_empty"])
    def test_strict_header_lines(self, old, new):
        text = three_layer_report()
        assert old in text
        with pytest.raises(ParseError):
            parse_report(text.replace(old, new))


class TestReportFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_arbitrary_text_parses_or_raises_parse_errors(self, text):
        try:
            plan = parse_report(text)
        except ParseError:
            return
        assert_valid_plan(plan)

    @settings(max_examples=200, deadline=None)
    @given(scores=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           alpha=st.floats(0.01, 0.99),
           data=st.data())
    def test_duplicated_header_line_raises_parse_error(self, scores, alpha, data):
        lines = format_report([], build_plan(list(enumerate(scores)), alpha)
                              ).splitlines()
        header = data.draw(st.integers(0, 4))
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, lines[header])
        with pytest.raises(ParseError):
            parse_report("\n".join(lines) + "\n")

    @settings(max_examples=400, deadline=None)
    @given(scores=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           alpha=st.floats(0.01, 0.99),
           field=st.sampled_from(["send_report_version", "layers", "alpha", "k",
                                  "batches", "layer", "send", "rank", "pruned"]),
           value=st.one_of(st.text(), st.integers(-3, 10).map(str),
                           st.floats().map(repr),
                           st.sampled_from(["true", "false", "nan", "inf", ""])),
           data=st.data())
    def test_one_mutated_field_parses_or_raises_parse_errors(
            self, scores, alpha, field, value, data):
        text = format_report([], build_plan(list(enumerate(scores)), alpha))
        if field in ("layer", "send", "rank", "pruned"):
            i = data.draw(st.integers(0, len(scores) - 1))
            pattern = (rf"^layer {i}:" if field == "layer"
                       else rf"(?<=^layer {i}: )(.*){field}=\S+")
            text = re.sub(pattern, lambda m: (f"layer {value}:" if field == "layer"
                                              else f"{m.group(1)}{field}={value}"),
                          text, flags=re.M)
        else:
            text = re.sub(rf"^{field}: .*$", lambda m: f"{field}: {value}",
                          text, flags=re.M)
        try:
            plan = parse_report(text)
        except ParseError:
            return
        assert_valid_plan(plan)
