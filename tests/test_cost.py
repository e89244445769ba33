"""Metric and analytic cost-accounting tests."""

import numpy as np
import pytest

from spat.cost import (
    CostReport,
    MetricAccumulator,
    build_cost_report,
    count_flops,
    count_params,
    format_cost_report,
    matmul_flops,
    reduction_percent,
)
from spat.errors import ShapeError
from spat.model import Forecaster, ModelConfig, clone_model


def temporal_model(lookback=96, channels=7, layers=3, d_model=16, **kw):
    cfg = ModelConfig(mode="temporal_tokens", lookback=lookback, horizon=24,
                      channels=channels, d_model=d_model, d_ff=2 * d_model,
                      heads=2, layers=layers, patch_len=16, patch_stride=8, **kw)
    return Forecaster(cfg, seed=0)


def variate_model(lookback=96, channels=7, layers=3, d_model=16, **kw):
    cfg = ModelConfig(mode="variate_tokens", lookback=lookback, horizon=24,
                      channels=channels, d_model=d_model, d_ff=2 * d_model,
                      heads=2, layers=layers, **kw)
    return Forecaster(cfg, seed=0)


def attention_params(d_model):
    """Query/key/value/output projections with biases: 4*d^2 + 4*d."""
    return 4 * d_model * d_model + 4 * d_model


def attention_flops(report):
    return sum(v for k, v in report.flops.items() if k.endswith(".attention"))


def pooled(pred, target):
    """(MSE, MAE) of one accumulator fed ``pred`` and ``target`` whole."""
    acc = MetricAccumulator()
    acc.add(pred, target)
    return acc.mse, acc.mae


class TestParams:
    def test_attention_weight_count_closed_form(self):
        model = variate_model(d_model=16)
        report = count_params(model)
        assert report["block0.attention"] == attention_params(16) == 1088

    def test_pruning_removes_exactly_the_attention_scalars(self):
        model = variate_model(d_model=16)
        before = sum(count_params(model).values())
        after = sum(count_params(clone_model(model, [1])).values())
        assert before - after == attention_params(16)

    def test_total_matches_stored_scalars(self):
        model = temporal_model()
        total = sum(p.data.size for _, p in model.named_parameters())
        assert sum(count_params(model).values()) == total

    def test_temporal_delta_consistent_with_reference_scale(self):
        # 3-layer temporal model at d_model=128: removing one attention
        # module drops ~66K scalars, the same relative magnitude as the
        # published 2.212M -> 2.146M full-scale reports.
        model = temporal_model(lookback=336, d_model=128)
        pruned = clone_model(temporal_model(lookback=336, d_model=128), [0])
        delta = (sum(count_params(model).values())
                 - sum(count_params(pruned).values()))
        assert delta == attention_params(128) == 66_048
        assert abs(delta - (2_212_000 - 2_146_000)) / 66_000 < 0.01


class TestFlops:
    def test_single_matmul(self):
        assert matmul_flops(1, 4, 3) == 24

    def test_totals_equal_breakdown_sum(self):
        report = build_cost_report(temporal_model())
        assert report.flops_total == sum(report.flops.values())
        assert report.params_total == sum(report.params.values())

    def test_temporal_flops_strictly_increase_with_lookback(self):
        totals = [build_cost_report(temporal_model(lookback=l)).flops_total
                  for l in (48, 96, 192, 336)]
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_variate_flops_strictly_increase_with_channels(self):
        totals = [build_cost_report(variate_model(channels=c)).flops_total
                  for c in (3, 7, 14, 28)]
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_variate_attention_flops_independent_of_lookback(self):
        subtotals = [attention_flops(build_cost_report(variate_model(lookback=l)))
                     for l in (48, 96, 192)]
        assert subtotals[0] == subtotals[1] == subtotals[2]

    def test_pruning_k_of_n_identical_blocks_scales_attention_subtotal(self):
        model = variate_model(layers=4)
        full = build_cost_report(model)
        half = build_cost_report(clone_model(model, [0, 2]))
        assert attention_flops(half) * 2 == attention_flops(full)

    def test_pruned_flops_and_params_strictly_decrease(self):
        model = temporal_model()
        base = build_cost_report(model)
        pruned = build_cost_report(clone_model(model, [1]))
        assert pruned.flops_total < base.flops_total
        assert pruned.params_total < base.params_total
        assert 0.0 < reduction_percent(base.flops_total, pruned.flops_total) < 100.0
        assert 0.0 < reduction_percent(base.params_total, pruned.params_total) < 100.0

    def test_wrong_lookback_rejected(self):
        with pytest.raises(ShapeError):
            count_flops(temporal_model(lookback=96), (1, 48, 7))


class TestReductionArithmetic:
    def test_published_traffic_flops_reduction(self):
        # 1 - 28.678/34.226 must reproduce the published 16.210% figure
        assert abs(reduction_percent(34.226, 28.678) - 16.210) < 0.01

    def test_reduction_from_generated_reports(self):
        ref = CostReport(flops={"a": 34_226}, params={"a": 2_212})
        cur = CostReport(flops={"a": 28_678}, params={"a": 2_146})
        assert abs(reduction_percent(ref.flops_total, cur.flops_total) - 16.210) < 0.01
        assert abs(reduction_percent(ref.params_total, cur.params_total) - 2.984) < 0.01


class TestMetrics:
    def test_mae_zero_when_equal(self):
        assert pooled(np.ones((2, 2)), np.ones((2, 2)))[1] == 0.0

    def test_hand_values(self):
        assert pooled(np.array([1.0, -1.0]), np.zeros(2)) == (1.0, 1.0)

    def test_loop_oracle(self):
        rng = np.random.default_rng(3)
        pred, target = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4, 2))
        se = ae = 0.0
        for idx in np.ndindex(pred.shape):
            se += (pred[idx] - target[idx]) ** 2
            ae += abs(pred[idx] - target[idx])
        mse, mae = pooled(pred, target)
        assert abs(mse - se / pred.size) < 1e-12
        assert abs(mae - ae / pred.size) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pooled(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_nonnegative_and_zero_iff_exact(self):
        rng = np.random.default_rng(4)
        pred, target = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))
        assert min(pooled(pred, target)) > 0.0
        assert pooled(target, target) == (0.0, 0.0)

    def test_accumulator_matches_pooled_mean(self):
        rng = np.random.default_rng(5)
        pred, target = rng.normal(size=(10, 3)), rng.normal(size=(10, 3))
        acc = MetricAccumulator()
        acc.add(pred[:4], target[:4])
        acc.add(pred[4:], target[4:])
        assert abs(acc.mse - np.mean((pred - target) ** 2)) < 1e-12
        assert abs(acc.mae - np.mean(np.abs(pred - target))) < 1e-12


class TestReportFormat:
    def test_stable_schema_and_sections(self):
        text = format_cost_report(build_cost_report(variate_model(layers=2)))
        lines = text.splitlines()
        assert lines[0] == "cost_report_version: 1"
        assert lines[1].startswith("flops_total:")
        assert any(ln.startswith("section block0.attention:") for ln in lines)
