"""Encoder-only transformer forecaster with removable, probeable attention.

Two tokenizations are supported:

* ``temporal_tokens``: each token is one patch of a single channel's series;
  channels are folded into the batch dimension and share all weights.
* ``variate_tokens``: each token is one channel's entire lookback window.

The parameters are declared once, in :func:`state_shapes`, by name and
shape in order: :class:`Forecaster` is built by walking that table once,
each parameter taking its seeded initial draw or, for a loaded or cloned
model (:meth:`Forecaster.from_state`), its given array, and
``named_parameters`` walks it for the model's pruned blocks.

Every tape record is one piece of the model (``spat.tensor``): the
embedding, per block the attention sublayer, the FFN sublayer and their
layer norms, the final norm, and the head with the instance
de-normalization. Training steps and scoring backpropagate a batch's loss
through one path, :meth:`Forecaster.backprop`, which runs a batch of many
windows as two lanes of half its windows each. A forward may pass a
block's attention a probe, a ``[heads, S, S]`` leaf that stands for an
all-ones connection mask over the score matrix; its gradient is the
per-position sensitivity of the loss to removing each attention score,
summed in its ``grad`` over every batch :meth:`Forecaster.backprop` runs
with it. The probe is not state: no block holds one and none is saved. A
block whose ``pruned`` flag is set computes the identity on its attention
sublayer (residual path only); the FFN sublayer is always retained.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError
from .tensor import (
    ACTIVATIONS,
    KeepMasks,
    LeafMerge,
    Tape,
    Tensor,
    attention_sublayer,
    embed,
    ffn,
    head,
    lanes_open,
    layer_norm,
    mse_loss,
    skip_draws,
    split_rows_alike,
    two_lanes,
)

MODES = ("temporal_tokens", "variate_tokens")
NORM_PLACEMENTS = ("pre", "post")

INSTANCE_NORM_EPS = 1e-5

# Elements of a batch's largest activation (the FFN's) from which
# Forecaster._in_parts halves it into lanes. Starting and joining a lane's
# thread costs about 0.2 ms, so a batch-64 synthetic_small forecast
# (172,032 elements) or a 32-window variate scoring batch gains, and a
# batch-1 forecast (2,688 or 8,192) stays inline.
_LANE_ELEMENTS = 2**16


@dataclass
class ArchitectureConfig:
    """The config's ``model`` section: the architecture, checked as far as
    it can be without the data, which gives lookback, horizon and
    channels."""

    mode: str = "temporal_tokens"
    d_model: int = 32
    d_ff: int = 64
    heads: int = 4
    layers: int = 3
    patch_len: int = 16
    patch_stride: int = 8
    end_padding: bool = True
    dropout: float = 0.2
    activation: str = "gelu"
    norm_placement: str = "pre"
    instance_norm: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.norm_placement not in NORM_PLACEMENTS:
            raise ConfigError(
                f"norm_placement must be one of {NORM_PLACEMENTS}, "
                f"got {self.norm_placement!r}")
        if self.layers < 1 or self.heads < 1:
            raise ConfigError("layers and heads must both be >= 1")
        if self.d_model < 1 or self.d_ff < 1:
            raise ConfigError("d_model and d_ff must both be >= 1")
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.mode == "temporal_tokens" and (
                self.patch_len < 1 or self.patch_stride < 1):
            raise ConfigError("patch_len and patch_stride must be >= 1")

    def to_model_config(self, lookback: int, horizon: int, channels: int) -> ModelConfig:
        return ModelConfig(lookback=lookback, horizon=horizon, channels=channels,
                           **asdict(self))


@dataclass
class ModelConfig(ArchitectureConfig):
    """The architecture with the shapes the data gives it."""

    lookback: int = 96
    horizon: int = 24
    channels: int = 7

    def __post_init__(self):
        super().__post_init__()
        if self.lookback < 1 or self.horizon < 1 or self.channels < 1:
            raise ConfigError("lookback, horizon and channels must be >= 1")
        if self.mode == "temporal_tokens" and self.lookback < self.patch_len:
            raise ConfigError(
                f"lookback {self.lookback} shorter than patch_len {self.patch_len}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    @property
    def token_count(self) -> int:
        if self.mode == "variate_tokens":
            return self.channels
        n = (self.lookback - self.patch_len) // self.patch_stride + 1
        return n + 1 if self.end_padding else n


# The value types a config file or checkpoint header may give a dataclass
# field of each annotated type, as YAML or JSON parse them: bools are not
# ints, and a float field also takes an int (`dropout: 0` parses as one).
FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,),
               "str": (str,), "None": (type(None),)}


def field_type_error(name: str, annotation: str, value) -> str | None:
    """Why ``value`` cannot fill field ``name`` annotated ``annotation``
    (``"int"``, ``"int | None"``, ``"tuple[float, ...]"``, ...), or None
    if it can."""
    for option in annotation.split(" | "):
        if option.startswith("tuple["):
            item = option[len("tuple["):-len(", ...]")]
            if type(value) in (list, tuple) and all(
                    type(v) in FIELD_TYPES[item] for v in value):
                return None
        elif type(value) in FIELD_TYPES[option]:
            return None
    return f"{name}={value!r} is not of type {annotation}"


def _initial_value(name: str, shape: tuple, rng: np.random.Generator):
    """Parameter ``name``'s value at build: N(0, 0.02) for the positional
    embedding, Xavier-uniform for any other matrix, ones for a norm gain
    and zeros for a bias or shift."""
    if name == "embed.pos":
        return rng.normal(0.0, 0.02, size=shape)
    if len(shape) == 2:
        limit = math.sqrt(6.0 / sum(shape))
        return rng.uniform(-limit, limit, size=shape)
    return np.ones(shape) if name.endswith(("_g", ".g")) else np.zeros(shape)


class AttentionBlock:
    """One encoder block: probeable multi-head attention plus FFN sublayer,
    whose parameters the :class:`Forecaster` holding it sets. A block built
    ``pruned`` has no attention weights."""

    ATTENTION_PARAMS = ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_e", "b_e")

    def __init__(self, cfg: ModelConfig, pruned: bool):
        self.cfg = cfg
        self.pruned = False
        if pruned:
            self.remove_attention()

    def remove_attention(self) -> None:
        """Make the attention sublayer an identity and drop its weights."""
        if self.pruned:
            raise ContractError("attention sublayer already removed from this block")
        self.pruned = True
        for name in self.ATTENTION_PARAMS:
            setattr(self, name, None)

    # -- sublayers -------------------------------------------------------

    def _norm1(self, h: Tensor) -> Tensor:
        return layer_norm(h, self.ln1_g, self.ln1_b)

    def _norm2(self, h: Tensor) -> Tensor:
        return layer_norm(h, self.ln2_g, self.ln2_b)

    def attention_sublayer(self, h: Tensor, masks: KeepMasks | None = None,
                           probe: Tensor | None = None) -> Tensor:
        """Multi-head self-attention on [batch, S, d_model] tokens, with
        dropout from ``masks`` where given, probed by ``probe`` where
        given."""
        cfg = self.cfg
        x = self._norm1(h) if cfg.norm_placement == "pre" else h
        keep = None if masks is None else masks.take(h.shape)
        out = attention_sublayer(h, x, self.w_q, self.b_q, self.w_k, self.b_k,
                                 self.w_v, self.b_v, self.w_e, self.b_e,
                                 cfg.heads, keep, probe)
        return self._norm1(out) if cfg.norm_placement == "post" else out

    def ffn_sublayer(self, h: Tensor,
                     masks: KeepMasks | None = None) -> Tensor:
        cfg = self.cfg
        x = self._norm2(h) if cfg.norm_placement == "pre" else h
        keep1 = keep2 = None
        if masks is not None:
            # dropout after the activation, then after the second linear
            keep1 = masks.take(h.shape[:-1] + (cfg.d_ff,))
            keep2 = masks.take(h.shape)
        out = ffn(h, x, self.w1, self.b1, self.w2, self.b2, cfg.activation,
                  keep1, keep2)
        return self._norm2(out) if cfg.norm_placement == "post" else out

    def forward(self, h: Tensor, masks: KeepMasks | None = None,
                probe: Tensor | None = None) -> Tensor:
        if not self.pruned:
            h = self.attention_sublayer(h, masks, probe)
        return self.ffn_sublayer(h, masks)


# The Forecaster attribute that holds each parameter outside the blocks.
_ATTRIBUTES = {"embed.w": "embed_w", "embed.b": "embed_b",
               "embed.pos": "pos_emb", "final_norm.g": "final_g",
               "final_norm.b": "final_b", "head.w": "head_w",
               "head.b": "head_b"}


@functools.cache     # named_parameters resolves every name on each call
def _place(name: str) -> tuple[int | None, str]:
    """Parameter ``name``'s block index (None outside the blocks), attribute."""
    if name.startswith("blocks."):
        _, i, attr = name.split(".")
        return int(i), attr
    return None, _ATTRIBUTES[name]


class Forecaster:
    """Configurable forecaster mapping [batch, L, C] to [batch, T, C].

    ``Forecaster(cfg, seed)`` draws each parameter's initial value from a
    generator seeded ``seed``, in :func:`state_shapes` order
    (:func:`_initial_value`); :meth:`from_state` builds a model from given
    arrays and draws nothing. Both go through :meth:`_build`."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self._build(cfg, (), ((name, _initial_value(name, shape, rng))
                              for name, shape in state_shapes(cfg).items()))

    @classmethod
    def from_state(cls, cfg: ModelConfig, pruned,
                   state: dict[str, np.ndarray]) -> Forecaster:
        """The model of ``cfg`` whose blocks ``pruned`` have no attention,
        each parameter holding its float64 array in ``state``, which it
        takes over: neither copied nor drawn. ``state`` must name exactly
        the parameters of ``state_shapes(cfg, pruned)``, in any order, each
        at its shape (:func:`check_state_shapes`); the caller sees to
        that."""
        model = cls.__new__(cls)
        model._build(cfg, pruned, state.items())
        return model

    def _build(self, cfg: ModelConfig, pruned, values) -> None:
        """Set up the model of ``cfg`` whose blocks ``pruned`` have no
        attention, each parameter holding its value in ``values``, an
        iterable of ``(name, array)`` pairs walked once."""
        self.cfg = cfg
        self.blocks = [AttentionBlock(cfg, i in pruned) for i in range(cfg.layers)]
        self.pos_emb = self.final_g = self.final_b = None
        for name, value in values:
            setattr(*self._holder(name), Tensor(value, requires_grad=True))

    # -- parameter plumbing ----------------------------------------------

    def _holder(self, name: str) -> tuple[object, str]:
        """The object and attribute that hold parameter ``name``."""
        i, attr = _place(name)
        return (self if i is None else self.blocks[i]), attr

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(*self._holder(name)))
                for name in state_shapes(self.cfg, self.pruned_layers())]

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def pruned_layers(self) -> list[int]:
        return [i for i, blk in enumerate(self.blocks) if blk.pruned]

    # -- forward ----------------------------------------------------------

    def _validate_input(self, x: np.ndarray) -> None:
        if x.ndim != 3:
            raise ShapeError(f"expected [batch, L, C] input, got shape {x.shape}")
        if x.shape[1] != self.cfg.lookback:
            raise ShapeError(f"input lookback {x.shape[1]} does not match "
                             f"configured lookback {self.cfg.lookback}")
        if self.cfg.mode == "variate_tokens" and x.shape[2] != self.cfg.channels:
            raise ShapeError(f"variate-token model expects {self.cfg.channels} "
                             f"channels, got {x.shape[2]}")

    def _embed(self, x: np.ndarray, masks: KeepMasks | None = None) -> Tensor:
        cfg = self.cfg
        batch, length, channels = x.shape
        if cfg.mode == "temporal_tokens":
            # fold channels into the batch: [B, L, C] -> [B*C, L]; the series
            # is a constant, so padding and patching are plain numpy
            series = np.transpose(x, (0, 2, 1)).reshape(batch * channels, length)
            if cfg.end_padding:
                tail = np.repeat(series[:, -1:], cfg.patch_stride, axis=-1)
                series = np.concatenate([series, tail], axis=-1)
            # [B*C, token_count, patch_len] windows, stride patch_stride apart
            index = (np.arange(cfg.token_count)[:, None] * cfg.patch_stride
                     + np.arange(cfg.patch_len)[None, :])
            tokens = series[:, index]
        else:
            # each channel's full window is one token: [B, L, C] -> [B, C, L]
            tokens = np.transpose(x, (0, 2, 1))
        keep = (None if masks is None
                else masks.take(tokens.shape[:-1] + (cfg.d_model,)))
        return embed(tokens, self.embed_w, self.embed_b, self.pos_emb, keep)

    def _tokens(self, x_shape: tuple[int, ...]) -> tuple[int, int]:
        """The leading axes of a forward's activations over ``[B, L, C]``
        windows: ``(series, tokens)`` for temporal tokens, ``(windows,
        channels)`` for variate tokens."""
        batch, _, channels = x_shape
        if self.cfg.mode == "temporal_tokens":
            return batch * channels, self.cfg.token_count
        return batch, channels

    def keep_shapes(self, x_shape: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The shapes of a training forward's dropout keep masks over
        ``[B, L, C]`` windows, in draw order: the embedding's, then per
        block the attention sublayer's (unless it is pruned) and the FFN's
        two, after the activation and after the second linear."""
        tokens = self._tokens(x_shape)
        d, f = tokens + (self.cfg.d_model,), tokens + (self.cfg.d_ff,)
        shapes = [d]
        for blk in self.blocks:
            shapes += ([] if blk.pruned else [d]) + [f, d]
        return shapes

    def _forward(self, x: np.ndarray, masks: KeepMasks | None = None,
                 probes: dict[int, Tensor] | None = None) -> Tensor:
        """The forecast of windows ``x`` on the calling thread: the instance
        norm (where configured), the embedding, every block, the final norm
        and the head, with dropout from ``masks`` where given and block
        ``i``'s attention probed by ``probes[i]`` where given."""
        sigma = mu = None
        if self.cfg.instance_norm:
            mu = x.mean(axis=1, keepdims=True)
            sigma = np.sqrt(x.var(axis=1, keepdims=True) + INSTANCE_NORM_EPS)
            x = (x - mu) / sigma
        probes = probes or {}
        h = self._embed(x, masks)
        for i, blk in enumerate(self.blocks):
            h = blk.forward(h, masks, probes.get(i))
            if np.isnan(h.data).any():
                raise NumericError(f"NaN activations after encoder block {i}")
        if self.final_g is not None:
            h = layer_norm(h, self.final_g, self.final_b)
        out = head(h, self.head_w, self.head_b, x.shape[2], sigma, mu)
        if np.isnan(out.data).any():
            raise NumericError("NaN activations in forecast head")
        return out

    def _in_parts(self, run, x: np.ndarray):
        """``run(parts)``, with ``parts`` the windows ``x`` cut for
        :func:`two_lanes`: two halves, ``x[:B // 2]`` and the rest, where
        they may run as lanes, else ``(x,)``. Where ``run`` raised a
        :class:`NumericError` on two halves, it runs again on ``(x,)``, so
        the caller gets the one-part message: a NaN first seen after block 1
        in the second half and after block 2 in the first is reported at
        block 1. Any other exception from a lane is raised as it is.

        Lanes need :func:`lanes_open`, and pay from ``_LANE_ELEMENTS``
        elements of FFN activation. Each window's rows are computed apart
        from the others' (the model is channel-independent) by row-wise
        reductions, elementwise maps, per-item attention products and the
        GEMMs of the linears and the head, forward and backward. So a batch
        is halved only where BLAS gives each row of those GEMMs, and of
        their input gradients, the same bits on half of the rows
        (:func:`split_rows_alike`). The halves' forecasts, keep masks and
        input gradients are then the one-part bytes, and their forecasts,
        concatenated, keep its ``[B, C, T]``-ordered layout; a parameter's
        gradient, a sum over every row, and a probe's, a sum over every
        attention item, are computed once over the whole batch
        (:class:`LeafMerge`). A lane takes two windows or more:
        the token arrays of one window can reach a GEMM as a transposed
        view (variate tokens, or a ``d_head`` of 1) where those of more
        windows are C-ordered copies.
        """
        half = len(x) // 2
        rows = math.prod(self._tokens(x.shape))
        series = len(x) * x.shape[2]      # the head's rows

        def alike(m, k, n):
            return split_rows_alike(m, m // len(x) * half, k, n)
        weights = [self.embed_w] + [w for blk in self.blocks
                                    for w in (blk.w_q, blk.w1, blk.w2)
                                    if w is not None]
        k, t = self.head_w.shape
        if not (half >= 2 and rows * self.cfg.d_ff >= _LANE_ELEMENTS
                and lanes_open()
                and all(alike(rows, *w.shape) for w in weights)
                and alike(series, k, t) and alike(series, t, k)):
            return run((x,))
        try:
            return run((x[:half], x[half:]))
        except NumericError:
            return run((x,))

    def forward(self, x: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None,
                probes: dict[int, Tensor] | None = None,
                rows: tuple[int, int, int] | None = None) -> Tensor:
        """Differentiable forecast of shape [batch, T, C]. In training
        with dropout the keep masks are drawn from ``rng`` in the order of
        :meth:`keep_shapes` (:class:`KeepMasks`); given
        ``rows = (start, stop, batch)``, ``x`` holds windows ``start`` to
        ``stop`` of a batch of ``batch``, and takes those rows of the
        batch's masks. Block ``i``'s attention is probed by ``probes[i]``
        where given, a ``[heads, S, S]`` probe (see
        :func:`attention_sublayer`). Without dropout and probes, the
        batch runs in the parts :meth:`_in_parts` cuts, each part's
        forecast through the whole model (see :meth:`forecast`)."""
        self._validate_input(x)
        if training and self.cfg.dropout > 0.0:
            batch = len(x) if rows is None else rows[2]
            with KeepMasks(rng, self.keep_shapes((batch,) + x.shape[1:]),
                           self.cfg.dropout, rows) as masks:
                return self._forward(x, masks, probes)
        if probes:
            return self._forward(x, probes=probes)

        def forecast(parts):
            preds = two_lanes(self._forward, parts)
            if len(preds) == 1:
                return preds[0]
            return Tensor(np.concatenate([p.data for p in preds]))
        return self._in_parts(forecast, x)

    def backprop(self, x: np.ndarray, y: np.ndarray,
                 rng: np.random.Generator | None = None,
                 probes: dict[int, Tensor] | None = None) -> float:
        """Add to ``grad`` on every gradient-requiring leaf the gradient of
        the MSE loss of the forecast of windows ``x`` against ``y``: the
        training forecast, with dropout drawn from ``rng``, where ``rng``
        is given, else the dropout-free one, with block ``i``'s attention
        probed by ``probes[i]`` where given. Returns the loss. The loss
        and the gradients have the one-part bytes, and ``rng`` ends where
        the one-part draws leave it.

        Each part that :meth:`_in_parts` cuts runs its forward, its share
        of the batch's loss (its squared errors over the batch's element
        count, see :func:`mse_loss`) and its backward on a tape of its own;
        one part is the whole batch on one tape. The loss is that of the
        parts' forecasts joined. Two parts are lanes: each takes its rows
        of the batch's keep masks, and a :class:`LeafMerge` computes every
        leaf gradient once, from both lanes' operands joined, and adds it
        to ``grad`` once both lanes have returned, so a lane that raises
        leaves ``grad`` as it was. A lane's tape holds its half of the
        batch, so the two tapes hold what one tape of the batch holds.

        A probe is a leaf like a parameter, shared by both parts: its
        gradient, the ``[heads, S, S]`` gradient of the loss with respect
        to an all-ones connection mask on the block's attention scores,
        sums ``g_A ⊙ A`` over the batch's attention items (windows, or
        series for temporal tokens) in batch order, ``((p_0 + p_1) + p_2)
        ...``, and adds to the probe's ``grad`` as any leaf's does.
        """
        self._validate_input(x)

        def lane(part):
            windows, start, merge = part
            stop, index = start + len(windows), int(start > 0)
            rows = None if merge is None else (start, stop, len(x))
            lane_of = contextlib.nullcontext() if merge is None else merge.lane(index)
            with lane_of:
                with Tape(merge, index) as tape:
                    pred = self.forward(windows, rng is not None, rng,
                                        probes, rows)
                    loss = mse_loss(pred, y[start:stop], np.size(y))
                tape.backward(loss)
            return pred.data, loss

        def run(parts):
            merge = LeafMerge() if len(parts) == 2 else None
            outs = two_lanes(lane, tuple((p, k * len(parts[0]), merge)
                                         for k, p in enumerate(parts)))
            if merge is None:
                return outs[0][1].item()
            merge.apply()
            if rng is not None and self.cfg.dropout > 0.0:
                skip_draws(rng, sum(map(math.prod, self.keep_shapes(x.shape))))
            return mse_loss(Tensor(np.concatenate([d for d, _ in outs])),
                            y).item()
        return self._in_parts(run, x)

    def forecast(self, x: np.ndarray) -> np.ndarray:
        """Deterministic eval-mode prediction (dropout disabled, no tape).

        A batch whose FFN activation has ``_LANE_ELEMENTS`` (2^16)
        elements or more runs as two lanes (:meth:`_in_parts`): a thread
        started for the batch carries the second half of the windows
        through the whole model while the calling thread carries the first,
        each with every op inline, and each lane keeps its half in one
        core's cache. The halves' forecasts, concatenated, are the one-part
        bytes in its ``[B, C, T]``-ordered layout. A batch-1 forecast stays
        inline.
        """
        return self.forward(x, training=False).data

    # -- state ------------------------------------------------------------

    def state_dict(self) -> dict:
        """Copies of the parameters by name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict) -> None:
        check_state_shapes({name: a.shape for name, a in state.items()},
                           state_shapes(self.cfg, self.pruned_layers()))
        for name, p in self.named_parameters():
            p.data = state[name].copy()


def state_shapes(cfg: ModelConfig, pruned=()) -> dict[str, tuple[int, ...]]:
    """The table a :class:`Forecaster` of ``cfg`` is built from, and walks:
    name -> shape of every parameter of the model whose blocks ``pruned``
    have no attention, in ``named_parameters`` and initial-draw order; the
    keys of its state dict, and of the state :meth:`Forecaster.from_state`
    takes. Allocates nothing, so a checkpoint's tensor table can be checked
    against it before the model is built."""
    d, f, s = cfg.d_model, cfg.d_ff, cfg.token_count
    temporal = cfg.mode == "temporal_tokens"
    shapes = {"embed.w": (cfg.patch_len if temporal else cfg.lookback, d),
              "embed.b": (d,)}
    if temporal:
        shapes["embed.pos"] = (s, d)
    block = {"w_q": (d, d), "b_q": (d,), "w_k": (d, d), "b_k": (d,),
             "w_v": (d, d), "b_v": (d,), "w_e": (d, d), "b_e": (d,),
             "ln1_g": (d,), "ln1_b": (d,), "w1": (d, f), "b1": (f,),
             "w2": (f, d), "b2": (d,), "ln2_g": (d,), "ln2_b": (d,)}
    ffn_and_norms = {n: shape for n, shape in block.items()
                     if n not in AttentionBlock.ATTENTION_PARAMS}
    for i in range(cfg.layers):
        for n, shape in (ffn_and_norms if i in pruned else block).items():
            shapes[f"blocks.{i}.{n}"] = shape
    if cfg.norm_placement == "pre":
        shapes["final_norm.g"] = shapes["final_norm.b"] = (d,)
    shapes["head.w"] = (s * d if temporal else d, cfg.horizon)
    shapes["head.b"] = (cfg.horizon,)
    return shapes


def check_state_shapes(shapes: dict, expected: dict) -> None:
    """Raise unless ``shapes`` (name -> shape) names exactly the parameters
    of the :func:`state_shapes` table ``expected``, each at its shape."""
    unknown = sorted(set(shapes) - set(expected))
    if unknown:
        raise ContractError(f"state dict has tensors this model does not "
                            f"have: {', '.join(unknown)}")
    for name, shape in expected.items():
        if name not in shapes:
            raise ContractError(f"state dict missing parameter {name!r}")
        if tuple(shapes[name]) != shape:
            raise ShapeError(f"parameter {name!r}: stored shape "
                             f"{tuple(shapes[name])} != model shape {shape}")


def clone_model(model: Forecaster) -> Forecaster:
    """Independent copy with identical weights and pruned flags, built from
    ``model``'s state dict: each parameter takes its one copy, and nothing
    is drawn."""
    return Forecaster.from_state(model.cfg, model.pruned_layers(),
                                 model.state_dict())
