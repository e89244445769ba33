"""Accuracy metrics and analytic FLOPs / parameter accounting.

FLOPs are counted for one forward pass at batch size 1 under an explicit,
auditable convention (absolute numbers depend on it; reduction percentages
do not):

* one multiply-accumulate = 2 FLOPs, so a [m,k]x[k,n] matmul costs 2mkn;
* softmax costs 5 FLOPs per element (exp, sum share, divide, amortized
  max-subtraction);
* layer norm costs 8 FLOPs per element plus 2 for the affine pair;
* GELU 8, ReLU 1, adds/scales/Hadamard products 1 per element;
* window standardization 4 per input element, de-standardization 2 per
  output element; dropout is inference-disabled and costs 0.

Counts are pure functions of the configuration, pruned flags and input
shape; no timing is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .model import AttentionBlock, Forecaster

SCHEMA_VERSION = 1

MAC = 2
SOFTMAX_PER_ELEM = 5
LAYER_NORM_PER_ELEM = 8
AFFINE_PER_ELEM = 2
GELU_PER_ELEM = 8
RELU_PER_ELEM = 1
EWISE_PER_ELEM = 1
STANDARDIZE_PER_ELEM = 4
DESTANDARDIZE_PER_ELEM = 2


def matmul_flops(m: int, k: int, n: int, batch: int = 1) -> int:
    return MAC * m * k * n * batch


# -- metrics -------------------------------------------------------------


class MetricAccumulator:
    """Streaming pooled means, exact regardless of batch partitioning."""

    def __init__(self):
        self.sq_sum = 0.0
        self.abs_sum = 0.0
        self.count = 0

    def add(self, pred: np.ndarray, target: np.ndarray) -> None:
        if pred.shape != target.shape:
            raise ShapeError(f"metric shapes differ: {pred.shape} vs {target.shape}")
        diff = pred - target
        self.sq_sum += float(np.sum(diff * diff))
        self.abs_sum += float(np.sum(np.abs(diff)))
        self.count += diff.size

    @property
    def mse(self) -> float:
        return self.sq_sum / self.count

    @property
    def mae(self) -> float:
        return self.abs_sum / self.count


# -- cost reports ----------------------------------------------------------


@dataclass
class CostReport:
    flops: dict[str, int] = field(default_factory=dict)
    params: dict[str, int] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def flops_total(self) -> int:
        return sum(self.flops.values())

    @property
    def params_total(self) -> int:
        return sum(self.params.values())


def reduction_percent(reference: float, current: float) -> float:
    """(ref - current) / ref * 100, the reporting convention for drops."""
    return (reference - current) / reference * 100.0


def count_params(model: Forecaster) -> dict[str, int]:
    """Exact count of stored weight and bias scalars, bucketed by section.

    Pruned layers contribute no attention parameters; the probes scoring
    attaches are not parameters and are not counted.
    """
    sections: dict[str, int] = {}
    for name, p in model.named_parameters():
        sections[_param_section(name)] = sections.get(_param_section(name), 0) + p.data.size
    return sections


def _param_section(name: str) -> str:
    if name.startswith("embed."):
        return "embedding"
    if name.startswith("head."):
        return "head"
    if name.startswith("final_norm."):
        return "final_norm"
    idx = name.split(".")[1]
    leaf = name.split(".")[2]
    if leaf in AttentionBlock.ATTENTION_PARAMS:
        return f"block{idx}.attention"
    if leaf in ("ln1_g", "ln1_b", "ln2_g", "ln2_b"):
        return f"block{idx}.norms"
    return f"block{idx}.ffn"


def count_flops(model: Forecaster, input_shape: tuple[int, int, int] | None = None) -> dict[str, int]:
    """Analytic forward-pass FLOPs per section for a concrete input shape.

    ``input_shape`` is (batch, L, C) and defaults to batch 1 at the
    configured lookback and channel count. Attention score and value
    aggregation terms scale with the square of the token count.
    """
    cfg = model.cfg
    if input_shape is None:
        input_shape = (1, cfg.lookback, cfg.channels)
    batch, length, channels = input_shape
    if length != cfg.lookback:
        raise ShapeError(f"input length {length} does not match configured "
                         f"lookback {cfg.lookback}")

    temporal = cfg.mode == "temporal_tokens"
    s = cfg.token_count
    d, f, h = cfg.d_model, cfg.d_ff, cfg.heads
    dh = cfg.d_head
    rows = batch * channels if temporal else batch   # token sequences per pass

    sections: dict[str, int] = {}
    if cfg.instance_norm:
        sections["boundary"] = (STANDARDIZE_PER_ELEM * batch * length * channels
                                + DESTANDARDIZE_PER_ELEM * batch * cfg.horizon * channels)

    if temporal:
        embed = matmul_flops(s, cfg.patch_len, d, batch=rows)
        embed += rows * s * d * 2 * EWISE_PER_ELEM        # bias + positional adds
    else:
        embed = matmul_flops(channels, length, d, batch=batch)
        embed += rows * s * d * EWISE_PER_ELEM            # bias add
    sections["embedding"] = embed

    tokens = rows * s
    norm_cost = tokens * d * (LAYER_NORM_PER_ELEM + AFFINE_PER_ELEM)
    act_per_elem = GELU_PER_ELEM if cfg.activation == "gelu" else RELU_PER_ELEM
    for i, blk in enumerate(model.blocks):
        if not blk.pruned:
            attn = norm_cost                                       # sublayer norm
            attn += 3 * (matmul_flops(s, d, d, batch=rows) + tokens * d)   # Q,K,V
            attn += matmul_flops(s, dh, s, batch=rows * h)         # scores QK^T
            attn += rows * h * s * s * EWISE_PER_ELEM              # 1/sqrt(dh) scale
            attn += rows * h * s * s * SOFTMAX_PER_ELEM
            # an all-ones mask Hadamard that no code performs, kept so the
            # ledger's FLOPs do not move
            attn += rows * h * s * s * EWISE_PER_ELEM              # mask Hadamard
            attn += matmul_flops(s, s, dh, batch=rows * h)         # AV
            attn += matmul_flops(s, d, d, batch=rows) + tokens * d  # output proj
            attn += tokens * d * EWISE_PER_ELEM                   # residual add
            sections[f"block{i}.attention"] = attn
        ffn = norm_cost
        ffn += matmul_flops(s, d, f, batch=rows) + tokens * f
        ffn += tokens * f * act_per_elem
        ffn += matmul_flops(s, f, d, batch=rows) + tokens * d
        ffn += tokens * d * EWISE_PER_ELEM                         # residual add
        sections[f"block{i}.ffn"] = ffn

    if model.final_g is not None:
        sections["final_norm"] = norm_cost

    if temporal:
        head = matmul_flops(1, s * d, cfg.horizon, batch=rows) + rows * cfg.horizon
    else:
        head = matmul_flops(channels, d, cfg.horizon, batch=batch) + rows * s * cfg.horizon
    sections["head"] = head
    return sections


def build_cost_report(model: Forecaster,
                      input_shape: tuple[int, int, int] | None = None) -> CostReport:
    return CostReport(flops=count_flops(model, input_shape),
                      params=count_params(model))


def format_cost_report(report: CostReport) -> str:
    lines = [
        f"cost_report_version: {report.schema_version}",
        f"flops_total: {report.flops_total}",
        f"params_total: {report.params_total}",
    ]
    for key in sorted(set(report.flops) | set(report.params)):
        lines.append(f"section {key}: flops={report.flops.get(key, 0)} "
                     f"params={report.params.get(key, 0)}")
    return "\n".join(lines) + "\n"

