"""Training loop, pruning semantics, zero-shot and orchestration tests."""

import math
import resource

import numpy as np
import pytest

from spat import tensor
from spat.checkpoint import load_checkpoint
from spat.config import config_from_dict
from spat.cost import build_cost_report
from spat.data import (
    SyntheticSpec,
    WindowSpec,
    dataset_windows,
    generate_synthetic,
    split,
)
from spat.errors import ConfigError, ContractError, NumericError
from spat.model import Forecaster, ModelConfig
from spat.pipeline import (
    Adam,
    SeedStreams,
    cosine_lr,
    evaluate_loss,
    evaluate_metrics,
    finetune,
    iterative_prune,
    load_dataset,
    pretrain,
    prune,
    run_pipeline,
    zero_shot_eval,
)
from spat.send import build_plan
from spat.tensor import Tape, mse_loss
from unfused import add, matmul, transpose


def sine_windows(channels=2, length=600, lookback=32, horizon=8, seed=5,
                 noise=0.02):
    raw = generate_synthetic(SyntheticSpec(
        channels=channels, length=length, frequencies=(7.0, 13.0),
        noise_std=noise, seed=seed))
    ds = split(raw, ratios=(0.7, 0.15, 0.15))
    spec = WindowSpec(lookback, horizon)
    return ds, spec


def two_layer_model(lookback=32, horizon=8, channels=2, seed=0, **kw):
    base = dict(mode="temporal_tokens", lookback=lookback, horizon=horizon,
                channels=channels, d_model=16, d_ff=32, heads=2, layers=2,
                patch_len=16, patch_stride=8, dropout=0.1)
    base.update(kw)
    return Forecaster(ModelConfig(**base), seed=seed)


def opt_cfg(**kw):
    from spat.config import OptimizerConfig
    base = dict(lr=3e-3, epochs=5, batch_size=32, patience=5)
    base.update(kw)
    return OptimizerConfig(**base)


def tiny_experiment(run_dir, seed=7, **overrides):
    data = {
        "seed": seed,
        "run_dir": str(run_dir),
        "data": {"source": "synthetic",
                 "synthetic": {"channels": 3, "length": 400, "seed": 5,
                               "frequencies": [5.0, 9.0], "noise_std": 0.05}},
        "window": {"lookback": 16, "horizon": 4},
        "model": {"mode": "variate_tokens", "d_model": 8, "d_ff": 16,
                  "heads": 2, "layers": 3, "dropout": 0.1},
        "optimizer": {"lr": 3e-3, "epochs": 2, "batch_size": 32, "patience": 5},
        "pruning": {"alpha": 0.3},
    }
    for key, value in overrides.items():
        section, _, leaf = key.partition(".")
        data[section][leaf] = value
    return config_from_dict(data)


class TestTraining:
    def test_pretrain_beats_untrained_validation_loss(self):
        ds, spec = sine_windows()
        train_w = dataset_windows(ds, "train", spec)
        val_w = dataset_windows(ds, "val", spec)
        model = two_layer_model(seed=1)
        before = evaluate_loss(model, *val_w, 32)
        result = pretrain(model, train_w, val_w, opt_cfg(), SeedStreams(3))
        assert result.best_val < before

    def test_zero_epoch_budget_is_noop(self):
        ds, spec = sine_windows()
        train_w = dataset_windows(ds, "train", spec)
        val_w = dataset_windows(ds, "val", spec)
        model = two_layer_model(seed=2)
        snapshot = model.state_dict()
        result = pretrain(model, train_w, val_w, opt_cfg(epochs=0), SeedStreams(3))
        assert result.epochs_run == 0
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, snapshot[name])

    def test_fixed_seed_reproduces_weights_bitwise(self):
        ds, spec = sine_windows()
        train_w = dataset_windows(ds, "train", spec)
        val_w = dataset_windows(ds, "val", spec)

        def run():
            model = two_layer_model(seed=3)
            pretrain(model, train_w, val_w, opt_cfg(epochs=2), SeedStreams(11))
            return model.state_dict()

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_zero_learning_rate_keeps_weights(self):
        ds, spec = sine_windows()
        train_w = dataset_windows(ds, "train", spec)
        val_w = dataset_windows(ds, "val", spec)
        model = two_layer_model(seed=4, dropout=0.0)
        snapshot = model.state_dict()
        finetune(model, train_w, val_w,
                 opt_cfg(epochs=4, finetune_epochs=3, finetune_lr=0.0),
                 SeedStreams(5))
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, snapshot[name])

    def test_divergence_raises_numeric_error(self):
        ds, spec = sine_windows()
        train_w = dataset_windows(ds, "train", spec)
        val_w = dataset_windows(ds, "val", spec)
        model = two_layer_model(seed=5)
        with pytest.raises(NumericError):
            with np.errstate(all="ignore"):
                pretrain(model, train_w, val_w, opt_cfg(lr=1e150, epochs=3),
                         SeedStreams(1))

    def test_empty_training_data_rejected(self):
        model = two_layer_model()
        empty = (np.zeros((0, 32, 2)), np.zeros((0, 8, 2)))
        with pytest.raises(ContractError):
            pretrain(model, empty, empty, opt_cfg(), SeedStreams(0))

    def test_early_stopping_restores_best_state(self):
        ds, spec = sine_windows()
        train_w = dataset_windows(ds, "train", spec)
        val_w = dataset_windows(ds, "val", spec)
        model = two_layer_model(seed=6)
        result = pretrain(model, train_w, val_w, opt_cfg(epochs=4, patience=1),
                          SeedStreams(2))
        assert abs(evaluate_loss(model, *val_w, 32) - result.best_val) < 1e-12

    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(1e-3, 0.0, 0, 10) == 1e-3
        assert cosine_lr(1e-3, 0.0, 10, 10) == pytest.approx(0.0, abs=1e-18)
        mid = cosine_lr(1e-3, 0.0, 5, 10)
        assert abs(mid - 5e-4) < 1e-12

    def test_adam_moments_match_parameter_shapes(self):
        model = two_layer_model()
        opt = Adam(model.named_parameters(), opt_cfg())
        for name, p in model.named_parameters():
            assert opt.m[name].shape == p.data.shape
            assert opt.v[name].shape == p.data.shape


class TestPrune:
    def make_scored(self, layers=3):
        cfg = ModelConfig(mode="variate_tokens", lookback=12, horizon=3,
                          channels=4, d_model=8, d_ff=16, heads=2,
                          layers=layers, dropout=0.0)
        model = Forecaster(cfg, seed=8)
        plan = build_plan([(i, float(layers - i)) for i in range(layers)],
                          alpha=0.3)
        return model, plan    # prunes the last layer (lowest score)

    def test_untouched_layers_bitwise_identical(self):
        model, plan = self.make_scored()
        before = model.state_dict()
        pruned = prune(model, plan)
        assert pruned.pruned_layers() == [2]
        for name, p in pruned.named_parameters():
            assert np.array_equal(p.data, before[name]), name
        # the source model is left untouched
        assert model.pruned_layers() == []

    def test_pruned_forward_matches_structural_bypass_oracle(self):
        model, plan = self.make_scored()
        pruned = prune(model, plan)
        x = np.random.default_rng(0).normal(size=(3, 12, 4))

        # independent composition: drive the unpruned model's own sublayers,
        # substituting identity for the removed attention sublayer
        cfg = model.cfg
        mu = x.mean(axis=1, keepdims=True)
        sigma = np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
        h = model._embed((x - mu) / sigma, False, None)
        for i, blk in enumerate(model.blocks):
            if i in plan.i_pruned:
                h = blk.ffn_sublayer(h, False, None)
            else:
                h = blk.forward(h)
        h = tensor.layer_norm(h, model.final_g, model.final_b)
        out = transpose(add(matmul(h, model.head_w), model.head_b), (0, 2, 1))
        expected = out.data * sigma + mu

        np.testing.assert_array_equal(pruned.forecast(x), expected)

    def test_parameter_delta_is_closed_form(self):
        model, plan = self.make_scored()
        pruned = prune(model, plan)
        before = sum(p.data.size for _, p in model.named_parameters())
        after = sum(p.data.size for _, p in pruned.named_parameters())
        d = model.cfg.d_model
        assert before - after == (4 * d * d + 4 * d) * len(plan.i_pruned)

    def test_costs_strictly_decrease(self):
        model, plan = self.make_scored()
        pruned = prune(model, plan)
        base, cut = build_cost_report(model), build_cost_report(pruned)
        assert cut.flops_total < base.flops_total
        assert cut.params_total < base.params_total

    def test_double_prune_rejected(self):
        model, plan = self.make_scored()
        pruned = prune(model, plan)
        with pytest.raises(ContractError):
            prune(pruned, plan)

    def test_out_of_range_plan_rejected(self):
        model, _ = self.make_scored()
        bad = build_plan([(0, 1.0), (7, 0.5)], alpha=0.4)
        with pytest.raises(ContractError):
            prune(model, bad)

    def test_iterative_prune_removes_k_layers(self):
        model, _ = self.make_scored(layers=3)
        rng = np.random.default_rng(1)
        batches = [(rng.normal(size=(4, 12, 4)), rng.normal(size=(4, 3, 4)))]
        pruned, removed = iterative_prune(model, batches, k=2)
        assert len(removed) == 2 and len(set(removed)) == 2
        assert sorted(pruned.pruned_layers()) == sorted(removed)
        assert model.pruned_layers() == []


class TestZeroShot:
    def make_trained(self):
        ds, spec = sine_windows(channels=2, seed=9)
        model = two_layer_model(seed=10, dropout=0.0)
        train_w = dataset_windows(ds, "train", spec)
        val_w = dataset_windows(ds, "val", spec)
        pretrain(model, train_w, val_w, opt_cfg(epochs=2), SeedStreams(4))
        return model, ds, spec

    def test_frozen_weights_and_finite_metrics(self):
        model, _, spec = self.make_trained()
        target = split(generate_synthetic(SyntheticSpec(
            channels=2, length=400, seed=77)), ratios=(0.7, 0.1, 0.2))
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        metrics = zero_shot_eval(model, target, spec)
        assert math.isfinite(metrics["mse"]) and math.isfinite(metrics["mae"])
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, before[n])

    def test_degenerate_transfer_equals_standard_eval(self):
        model, ds, spec = self.make_trained()
        test_w = dataset_windows(ds, "test", spec)
        standard = evaluate_metrics(model, *test_w, 64)
        transferred = zero_shot_eval(model, ds, spec)
        assert transferred == standard

    def test_phase_shifted_family_comparison(self):
        model, ds, spec = self.make_trained()
        shifted = split(generate_synthetic(SyntheticSpec(
            channels=2, length=600, frequencies=(7.0, 13.0), noise_std=0.02,
            seed=9, phase_shift=0.8)), ratios=(0.7, 0.15, 0.15))
        pruned = prune(model, build_plan([(0, 1.0), (1, 0.5)], alpha=0.4))
        table = {
            "original": zero_shot_eval(model, shifted, spec),
            "pruned": zero_shot_eval(pruned, shifted, spec),
        }
        assert set(table["original"]) == {"mse", "mae"}
        assert all(math.isfinite(v) for row in table.values()
                   for v in row.values())

    def test_variate_channel_mismatch_rejected(self):
        cfg = ModelConfig(mode="variate_tokens", lookback=16, horizon=4,
                          channels=4, d_model=8, d_ff=16, heads=2, layers=1,
                          dropout=0.0)
        model = Forecaster(cfg, seed=0)
        target = split(generate_synthetic(SyntheticSpec(
            channels=3, length=200, seed=1)), ratios=(0.7, 0.1, 0.2))
        with pytest.raises(ConfigError):
            zero_shot_eval(model, target, WindowSpec(16, 4))

    def test_window_mismatch_rejected(self):
        model, ds, _ = self.make_trained()
        with pytest.raises(ConfigError):
            zero_shot_eval(model, ds, WindowSpec(16, 8))


class TestRunPipeline:
    def test_artifacts_and_stage_metrics(self, tmp_path):
        cfg = tiny_experiment(tmp_path / "run")
        result = run_pipeline(cfg)
        run_dir = tmp_path / "run"
        assert sorted(p.name for p in run_dir.iterdir()) == sorted([
            "config.yaml", "pretrained.ckpt", "pruned.ckpt", "finetuned.ckpt",
            "send_report.txt", "cost_original.txt", "cost_pruned.txt",
            "metrics.csv", "timings.csv"])
        assert len(result.removed) == 1
        pruned, _ = load_checkpoint(run_dir / "pruned.ckpt")
        assert result.removed == pruned.pruned_layers()
        ledger = (run_dir / "metrics.csv").read_text().strip().splitlines()
        assert ledger[0] == "stage,dataset,horizon,mse,mae,flops,params"
        stages = [line.split(",")[0] for line in ledger[1:]]
        assert stages == ["pretrained", "pruned", "finetuned"]
        timings = (run_dir / "timings.csv").read_text().strip().splitlines()
        assert timings[0] == "stage,seconds,user_s,sys_s,minor_faults"
        assert [line.split(",")[0] for line in timings[1:]] == [
            "pretrain", "score", "prune", "finetune"]
        for line in timings[1:]:
            _, secs, user_s, sys_s, faults = line.split(",")
            assert float(secs) >= 0.0 and int(faults) >= 0
            assert float(user_s) >= 0.0 and float(sys_s) >= 0.0
        pretrained = result.metrics["pretrained"]
        finetuned = result.metrics["finetuned"]
        assert finetuned["flops"] < pretrained["flops"]
        assert finetuned["params"] < pretrained["params"]

    def test_metrics_ledger_byte_identical_across_runs(self, tmp_path):
        run_pipeline(tiny_experiment(tmp_path / "a"))
        run_pipeline(tiny_experiment(tmp_path / "b"))
        assert ((tmp_path / "a" / "metrics.csv").read_bytes()
                == (tmp_path / "b" / "metrics.csv").read_bytes())
        assert ((tmp_path / "a" / "send_report.txt").read_bytes()
                == (tmp_path / "b" / "send_report.txt").read_bytes())

    def test_empty_validation_requires_disabled_early_stopping(self, tmp_path):
        cfg = tiny_experiment(tmp_path / "run",
                              **{"data.split_ratios": [0.9, 0.0, 0.1]})
        with pytest.raises(ConfigError):
            run_pipeline(cfg)

    def test_empty_validation_ok_without_early_stopping(self, tmp_path):
        cfg = tiny_experiment(tmp_path / "run2",
                              **{"data.split_ratios": [0.9, 0.0, 0.1],
                                 "optimizer.patience": None,
                                 "optimizer.epochs": 1})
        result = run_pipeline(cfg)
        assert list(result.metrics) == ["pretrained", "pruned", "finetuned"]

    def test_rescore_between_removals(self, tmp_path):
        cfg = tiny_experiment(tmp_path / "run3",
                              **{"pruning.rescore_between_removals": True,
                                 "pruning.alpha": 0.5})
        result = run_pipeline(cfg)
        assert len(result.removed) == 2
        pruned, _ = load_checkpoint(tmp_path / "run3" / "pruned.ckpt")
        assert result.removed == pruned.pruned_layers()

    def test_load_dataset_csv_source(self, tmp_path):
        from spat.data import write_csv
        raw = generate_synthetic(SyntheticSpec(channels=2, length=100, seed=3))
        path = tmp_path / "series.csv"
        write_csv(path, raw)
        cfg = config_from_dict({
            "data": {"source": "csv", "path": str(path)},
            "window": {"lookback": 8, "horizon": 2},
        })
        ds = load_dataset(cfg)
        assert ds.name == "series"
        np.testing.assert_allclose(ds.values, raw.values)


class TestHeapReuse:
    """Activations that ``Tape.backward`` frees as it replays the tape stay
    in the process heap, so a warmed training step faults in no fresh pages."""

    @pytest.mark.skipif(not tensor._MALLOC_POLICY_SET,
                        reason="libc has no mallopt")
    def test_warm_training_steps_fault_in_no_pages(self):
        model = Forecaster(ModelConfig(
            lookback=96, horizon=24, channels=7, d_model=16, d_ff=32, heads=2,
            layers=3, dropout=0.1), seed=0)
        data = np.random.default_rng(0)
        x = data.standard_normal((64, 96, 7))
        y = data.standard_normal((64, 24, 7))
        optimizer = Adam(model.named_parameters(), opt_cfg())

        def step(i):
            with Tape() as tape:
                loss = mse_loss(model.forward(
                    x, training=True, rng=np.random.default_rng(i)), y)
            tape.backward(loss)
            optimizer.step(1e-3)
            model.zero_grad()

        for i in range(3):
            step(i)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for i in range(3, 8):
            step(i)
        per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    - before) / 5
        assert per_step < 1000, f"{per_step:.0f} minor faults per warm step"
