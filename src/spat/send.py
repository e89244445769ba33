"""Per-layer attention sensitivity scoring and pruning-plan construction.

For each attention layer the loss gradient with respect to the layer's
connection mask is accumulated over scoring batches. Each layer's attention
is one maskable op whose mask gradient, the upstream attention gradient
Hadamard-multiplied with the attention scores and summed over the batch,
is that sensitivity; scoring reads it from ``mask.grad`` after backward.

Scoring runs on frozen weights: the parameters stop requiring gradients
for the scoring pass, so the tape records and replays only the path from
the first unpruned layer's attention to the loss, and no weight gradient
is computed. The mask gradients are bit-identical to those of a backward
through every parameter.

The raw sensitivities are turned into a scalar dispersion score:

* take absolute values and row-softmax-normalize each row, so every row
  becomes a probability distribution over key positions;
* average the normalized maps across heads;
* score the layer by the mean over rows of the population standard
  deviation of each row.

Layers whose attention maps are close to uniform (scaled-identity-like,
uninformative) score near zero and are pruned first. Higher dispersion
means a more effective attention layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ParseError
from .model import Forecaster, mse_loss
from .tensor import Tape, softmax_lastaxis

REPORT_VERSION = 1
_HEADER_KEYS = ("send_report_version", "layers", "alpha", "k", "batches")


@dataclass
class SensitivityRecord:
    """Raw sensitivity and dispersion score for one attention layer."""

    layer_index: int
    sen: np.ndarray        # [H, S, S] mask gradient, batch-averaged
    send: float
    batches_accumulated: int


@dataclass
class PruningPlan:
    """Ranked dispersion scores and the pruned-layer selection."""

    send_scores: list[tuple[int, float]]
    i_ranked: list[int]    # layer indices, highest score first
    alpha: float
    k: int
    i_pruned: list[int]    # bottom-k of i_ranked, in ranked order


def compute_sensitivity(model: Forecaster, batches) -> list[SensitivityRecord]:
    """Accumulate mask gradients of the batch-averaged loss.

    ``batches`` yields ``(x, y)`` pairs. The model must carry all-ones
    masks; dropout is disabled during scoring so the result is a
    deterministic function of weights and data. Layers whose attention was
    already removed are skipped.

    The weights are frozen while scoring: every parameter has
    ``requires_grad`` off and never gets a ``.grad``, so only ops that
    lead from a mask to the loss are recorded, and their backward skips
    the weight gradients. Parameters require gradients again afterwards,
    also when a batch raises.
    """
    layers = [i for i, blk in enumerate(model.blocks) if not blk.pruned]
    if not layers:
        raise ContractError("model has no attention layers left to score")
    for i in layers:
        if not np.all(model.blocks[i].mask.data == 1.0):
            raise ContractError(f"scoring requires an all-ones mask, "
                                f"layer {i} has masked entries")

    params = model.parameters()
    for p in params:
        p.requires_grad = False
    for i in layers:
        model.blocks[i].mask.requires_grad = True
    model.zero_grad()

    sen_sum = {i: np.zeros_like(model.blocks[i].mask.data) for i in layers}
    n_batches = 0
    try:
        for x, y in batches:
            with Tape() as tape:
                loss = mse_loss(model.forward(x, training=False), y)
            tape.backward(loss)
            for i in layers:
                g = model.blocks[i].mask.grad
                if g is not None:
                    sen_sum[i] += g
            model.zero_grad()
            n_batches += 1
    finally:
        for i in layers:
            model.blocks[i].mask.requires_grad = False
        for p in params:
            p.requires_grad = True
        model.zero_grad()

    if n_batches == 0:
        raise ContractError("compute_sensitivity needs at least one batch")

    records = []
    for i in layers:
        sen = sen_sum[i] / n_batches
        records.append(SensitivityRecord(
            layer_index=i,
            sen=sen,
            send=send_score(aggregate_heads(normalize_sensitivity(sen))),
            batches_accumulated=n_batches,
        ))
    return records


def normalize_sensitivity(sen: np.ndarray) -> np.ndarray:
    """Row-softmax of absolute sensitivities over the key axis."""
    if np.isnan(sen).any():
        raise NumericError("normalize_sensitivity: NaN sensitivities")
    return softmax_lastaxis(np.abs(sen))


def aggregate_heads(sen_norm: np.ndarray) -> np.ndarray:
    """Arithmetic mean over the leading head axis."""
    return sen_norm.mean(axis=0)


def send_score(sen_bar: np.ndarray) -> float:
    """Mean over rows of the population standard deviation of each row."""
    if sen_bar.size == 0:
        raise ContractError("send_score: empty sensitivity matrix")
    return float(np.std(sen_bar, axis=-1).mean())


def build_plan(send_scores, alpha: float) -> PruningPlan:
    """Rank layers by score descending and select the bottom ``ceil(alpha*N)``.

    Ties rank the lower layer index first, so selection is deterministic.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"pruning ratio must lie in (0, 1), got {alpha}")
    scores = list(send_scores)
    if not scores:
        raise ConfigError("build_plan needs at least one scored layer")
    n = len(scores)
    by_index = dict(scores)
    if len(by_index) != n:
        raise ConfigError("duplicate layer indices in send scores")
    ranked = sorted(by_index, key=lambda i: (-by_index[i], i))
    k = math.ceil(alpha * n)
    return PruningPlan(
        send_scores=scores,
        i_ranked=ranked,
        alpha=alpha,
        k=k,
        i_pruned=ranked[n - k:],
    )


def plan_from_records(records: list[SensitivityRecord], alpha: float) -> PruningPlan:
    return build_plan([(r.layer_index, r.send) for r in records], alpha)


# -- report file --------------------------------------------------------


def format_report(records: list[SensitivityRecord], plan: PruningPlan) -> str:
    """Stable-order structured text: one record per layer plus the plan."""
    lines = [
        f"send_report_version: {REPORT_VERSION}",
        f"layers: {len(plan.send_scores)}",
        f"alpha: {plan.alpha!r}",
        f"k: {plan.k}",
    ]
    batches = records[0].batches_accumulated if records else 0
    lines.append(f"batches: {batches}")
    ranks = _layer_ranks(plan)
    for idx, send in sorted(plan.send_scores):
        rank, pruned = ranks[idx]
        lines.append(f"layer {idx}: send={send!r} rank={rank} pruned={pruned}")
    return "\n".join(lines) + "\n"


def _layer_ranks(plan: PruningPlan) -> dict[int, tuple[int, str]]:
    """Layer index -> (1-based rank, ``pruned`` flag as the report writes it)."""
    pruned = set(plan.i_pruned)
    return {idx: (r + 1, "true" if idx in pruned else "false")
            for r, idx in enumerate(plan.i_ranked)}


def parse_report(text: str) -> PruningPlan:
    """Inverse of :func:`format_report` (record fields beyond the plan are
    not recoverable from the file and are not needed by consumers).

    The plan is rebuilt from the layer scores and ``alpha``. A report whose
    ``layers``, ``k``, ``rank`` or ``pruned`` fields contradict that plan,
    or whose scores are not finite or layer indices negative, raises
    :class:`ParseError`, as does a header line that is repeated or unknown
    and a ``batches`` count that is missing or not a non-negative int.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    fields = {}
    layer_lines = []
    for ln in lines:
        if ln.startswith("layer "):
            layer_lines.append(ln)
            continue
        key, _, value = ln.partition(":")
        key = key.strip()
        if key not in _HEADER_KEYS:
            raise ParseError(f"send report: unknown header {key!r}")
        if key in fields:
            raise ParseError(f"send report: repeated header {key!r}")
        fields[key] = value.strip()
    try:
        if int(fields["send_report_version"]) != REPORT_VERSION:
            raise ParseError(f"unsupported report version "
                             f"{fields['send_report_version']}")
        alpha = float(fields["alpha"])
        n_layers = int(fields["layers"])
        k = int(fields["k"])
        if int(fields["batches"]) < 0:
            raise ParseError(f"send report: negative batch count "
                             f"{fields['batches']}")
        entries = []
        for ln in layer_lines:
            head, _, rest = ln.partition(":")
            _, idx = head.split()
            parts = dict(p.split("=", 1) for p in rest.split())
            entries.append((int(idx), float(parts["send"]),
                            (int(parts["rank"]), parts["pruned"])))
    except ParseError:
        raise
    except (KeyError, ValueError) as e:
        raise ParseError(f"malformed send report: {e}") from e
    for idx, send, _ in entries:
        if idx < 0:
            raise ParseError(f"send report: negative layer index {idx}")
        if not math.isfinite(send):
            raise ParseError(f"send report: layer {idx} has score {send!r}")
    if n_layers != len(entries):
        raise ParseError(f"send report: header says {n_layers} layers, "
                         f"found {len(entries)} layer lines")
    plan = build_plan([(idx, send) for idx, send, _ in entries], alpha)
    if k != plan.k:
        raise ParseError(f"send report: header says k={k}, alpha {alpha!r} "
                         f"over {len(entries)} layers gives k={plan.k}")
    ranks = _layer_ranks(plan)
    for idx, _, written in entries:
        if written != ranks[idx]:
            raise ParseError(
                f"send report: layer {idx} says rank={written[0]} "
                f"pruned={written[1]}, its score gives rank={ranks[idx][0]} "
                f"pruned={ranks[idx][1]}")
    return plan
