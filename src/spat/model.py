"""Encoder-only transformer forecaster with removable, probeable attention.

Two tokenizations are supported:

* ``temporal_tokens``: each token is one patch of a single channel's series;
  channels are folded into the batch dimension and share all weights.
* ``variate_tokens``: each token is one channel's entire lookback window.

Every tape record is one piece of the model (``spat.tensor``): the
embedding, per block the attention sublayer, the FFN sublayer and their
layer norms, the final norm, and the head with the instance
de-normalization. Scoring sets a block's ``probe`` to a ``[heads, S, S]``
leaf, which stands for an all-ones connection mask over the score matrix;
its gradient is the per-position sensitivity of the loss to removing each
attention score. The probe is not state: it is None outside scoring and is
never saved. A block whose ``pruned`` flag is set computes the identity on
its attention sublayer (residual path only); the FFN sublayer is always
retained.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError
from .tensor import (
    ACTIVATIONS,
    KeepMasks,
    Tensor,
    attention_sublayer,
    embed,
    ffn,
    head,
    layer_norm,
    split_rows_alike,
    two_lanes,
)

MODES = ("temporal_tokens", "variate_tokens")
NORM_PLACEMENTS = ("pre", "post")

INSTANCE_NORM_EPS = 1e-5


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


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _param(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True)


class AttentionBlock:
    """One encoder block: probeable multi-head attention plus FFN sublayer."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d, f = cfg.d_model, cfg.d_ff
        self.cfg = cfg
        self.pruned = False
        self.w_q = _param(_xavier(rng, d, d))
        self.b_q = _param(np.zeros(d))
        self.w_k = _param(_xavier(rng, d, d))
        self.b_k = _param(np.zeros(d))
        self.w_v = _param(_xavier(rng, d, d))
        self.b_v = _param(np.zeros(d))
        self.w_e = _param(_xavier(rng, d, d))
        self.b_e = _param(np.zeros(d))
        self.ln1_g = _param(np.ones(d))
        self.ln1_b = _param(np.zeros(d))
        self.w1 = _param(_xavier(rng, d, f))
        self.b1 = _param(np.zeros(f))
        self.w2 = _param(_xavier(rng, f, d))
        self.b2 = _param(np.zeros(d))
        self.ln2_g = _param(np.ones(d))
        self.ln2_b = _param(np.zeros(d))
        # the mask-gradient probe passed to attention_sublayer while scoring
        self.probe: Tensor | None = None

    ATTENTION_PARAMS = ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_e", "b_e")
    OTHER_PARAMS = ("ln1_g", "ln1_b", "w1", "b1", "w2", "b2", "ln2_g", "ln2_b")

    def named_parameters(self):
        names = (() if self.pruned else self.ATTENTION_PARAMS) + self.OTHER_PARAMS
        return [(n, getattr(self, n)) for n in names]

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

    def attention_sublayer(self, h: Tensor,
                           masks: KeepMasks | None = None) -> Tensor:
        """Multi-head self-attention on [batch, S, d_model] tokens, with
        dropout from ``masks`` where given."""
        cfg = self.cfg
        x = self._norm1(h) if cfg.norm_placement == "pre" else h
        keep = None if masks is None else masks.take(h.shape)
        out = attention_sublayer(h, x, self.w_q, self.b_q, self.w_k, self.b_k,
                                 self.w_v, self.b_v, self.w_e, self.b_e,
                                 cfg.heads, keep, self.probe)
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

    def forward(self, h: Tensor, masks: KeepMasks | None = None) -> Tensor:
        if not self.pruned:
            h = self.attention_sublayer(h, masks)
        return self.ffn_sublayer(h, masks)


class Forecaster:
    """Configurable forecaster mapping [batch, L, C] to [batch, T, C]."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        d, s = cfg.d_model, cfg.token_count
        if cfg.mode == "temporal_tokens":
            self.embed_w = _param(_xavier(rng, cfg.patch_len, d))
            self.pos_emb = _param(rng.normal(0.0, 0.02, size=(s, d)))
        else:
            self.embed_w = _param(_xavier(rng, cfg.lookback, d))
            self.pos_emb = None
        self.embed_b = _param(np.zeros(d))
        self.blocks = [AttentionBlock(cfg, rng) for _ in range(cfg.layers)]
        if cfg.norm_placement == "pre":
            self.final_g = _param(np.ones(d))
            self.final_b = _param(np.zeros(d))
        else:
            self.final_g = None
            self.final_b = None
        if cfg.mode == "temporal_tokens":
            self.head_w = _param(_xavier(rng, s * d, cfg.horizon))
        else:
            self.head_w = _param(_xavier(rng, d, cfg.horizon))
        self.head_b = _param(np.zeros(cfg.horizon))

    # -- parameter plumbing ----------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        params = [("embed.w", self.embed_w), ("embed.b", self.embed_b)]
        if self.pos_emb is not None:
            params.append(("embed.pos", self.pos_emb))
        for i, blk in enumerate(self.blocks):
            params.extend((f"blocks.{i}.{n}", p) for n, p in blk.named_parameters())
        if self.final_g is not None:
            params.extend([("final_norm.g", self.final_g),
                           ("final_norm.b", self.final_b)])
        params.extend([("head.w", self.head_w), ("head.b", self.head_b)])
        return params

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

    def _encode(self, x: np.ndarray, masks: KeepMasks | None = None) -> Tensor:
        """The tokens of instance-normalized windows ``x`` through the
        embedding, every block and the final norm."""
        h = self._embed(x, masks)
        for i, blk in enumerate(self.blocks):
            h = blk.forward(h, masks)
            if np.isnan(h.data).any():
                raise NumericError(f"NaN activations after encoder block {i}")
        if self.final_g is not None:
            h = layer_norm(h, self.final_g, self.final_b)
        return h

    def _encode_in_lanes(self, x: np.ndarray) -> Tensor:
        """``_encode(x)`` with no dropout, each half of the windows carried
        through on its own thread where :func:`two_lanes` takes the work.

        Each window's rows are computed apart from the others' (the model
        is channel-independent) by row-wise reductions, elementwise maps,
        per-item attention products and the linears' GEMMs. So lanes are
        taken only where BLAS gives each row of every linear the same bits
        on half of the rows (:func:`split_rows_alike`), and then the
        halves' tokens, put back together, are the serial bytes in the
        serial C-order layout. A lane takes two windows or more: the
        token arrays of one window can reach a GEMM as a transposed view
        (variate tokens, or a ``d_head`` of 1) where those of more windows
        are C-ordered copies. If a lane raises, the whole batch is run
        again on the calling thread, so the caller gets the serial
        exception: a NaN first seen after block 1 in the second half and
        after block 2 in the first is reported at block 1.
        """
        half = len(x) // 2
        rows = math.prod(self._tokens(x.shape))
        weights = [self.embed_w] + [w for blk in self.blocks
                                    for w in (blk.w_q, blk.w1, blk.w2)
                                    if w is not None]

        def alike():
            return all(split_rows_alike(rows, rows // len(x) * half, *w.shape)
                       for w in weights)
        lanes = None
        if half >= 2:
            try:
                lanes = two_lanes(lambda part: self._encode(part).data,
                                  (x[:half], x[half:]), rows * self.cfg.d_ff,
                                  alike)
            except Exception:
                pass            # the serial run raises the serial exception
        if lanes is None:
            return self._encode(x)
        return Tensor(np.concatenate(lanes))

    def forward(self, x: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """Differentiable forecast of shape [batch, T, C]. In training
        with dropout the keep masks are drawn from ``rng`` in the order of
        :meth:`keep_shapes`, by :class:`KeepMasks` ahead of use. Without
        dropout and with no tape active, a large batch runs as two lanes
        (see :meth:`forecast`)."""
        self._validate_input(x)
        drawing = training and self.cfg.dropout > 0.0
        with (KeepMasks(rng, self.keep_shapes(x.shape), self.cfg.dropout)
              if drawing else contextlib.nullcontext()) as masks:
            sigma = mu = None
            if self.cfg.instance_norm:
                mu = x.mean(axis=1, keepdims=True)
                sigma = np.sqrt(x.var(axis=1, keepdims=True)
                                + INSTANCE_NORM_EPS)
                x = (x - mu) / sigma
            h = self._encode(x, masks) if drawing else self._encode_in_lanes(x)
            out = head(h, self.head_w, self.head_b, x.shape[2], sigma, mu)
        if np.isnan(out.data).any():
            raise NumericError("NaN activations in forecast head")
        return out

    def forecast(self, x: np.ndarray) -> np.ndarray:
        """Deterministic eval-mode prediction (dropout disabled, no tape).

        A batch whose FFN activation has ``_SHARED_ERF_SIZE`` (2^16)
        elements or more runs as two lanes (:func:`two_lanes`): the helper
        thread carries the second half of the windows through the
        embedding, the blocks and the final norm while the calling thread
        carries the first, each with every op inline. At these shapes
        splitting single ops across threads costs about what it saves,
        while each lane keeps its half in one core's cache for the whole
        encoder. The instance norm and the head run on the whole batch on
        the calling thread, so the forecast is the serial bytes in the
        serial ``[B, C, T]``-ordered layout. A batch-1 forecast stays
        inline.
        """
        return self.forward(x, training=False).data

    # -- state ------------------------------------------------------------

    def state_dict(self) -> dict:
        """Copies of the parameters by name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict) -> None:
        check_state_shapes({name: a.shape for name, a in state.items()},
                           self.cfg, self.pruned_layers())
        for name, p in self.named_parameters():
            p.data = state[name].copy()


def state_shapes(cfg: ModelConfig, pruned=()) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of a ``Forecaster(cfg)`` whose
    blocks ``pruned`` have no attention, in ``named_parameters`` order: the
    keys of its state dict. Allocates nothing, so a checkpoint's tensor
    table can be checked before the model is built."""
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
    for i in range(cfg.layers):
        names = (() if i in pruned else AttentionBlock.ATTENTION_PARAMS) \
            + AttentionBlock.OTHER_PARAMS
        shapes.update((f"blocks.{i}.{n}", block[n]) for n in names)
    if cfg.norm_placement == "pre":
        shapes["final_norm.g"] = shapes["final_norm.b"] = (d,)
    shapes["head.w"] = (s * d if temporal else d, cfg.horizon)
    shapes["head.b"] = (cfg.horizon,)
    return shapes


def check_state_shapes(shapes: dict, cfg: ModelConfig, pruned=()) -> None:
    """Raise unless ``shapes`` (name -> shape) names exactly the parameters
    of ``state_shapes(cfg, pruned)``, each at its shape."""
    expected = state_shapes(cfg, pruned)
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
    """Independent copy with identical weights and pruned flags."""
    twin = Forecaster(model.cfg, seed=0)
    for i, blk in enumerate(model.blocks):
        if blk.pruned:
            twin.blocks[i].remove_attention()
    twin.load_state_dict(model.state_dict())
    return twin
