"""Unfused references for the fused ops, and the autodiff pieces only they use.

``tensor.layer_norm``, ``tensor.ffn`` and ``tensor.masked_attention`` each
promise the bits of a composition of smaller ops. The compositions are
here, with the ops they need that no model path records: a scalar scale, a
row softmax, a batched matmul and a full sum. Each records on the active
tape through ``spat.tensor._emit``, as the library ops do, and keeps the
arithmetic the library once had, so the bitwise tests compare the same
bytes as before. Acceptance 1 checks the four ops against finite
differences.
"""

import math

import numpy as np
from scipy.special import erf

from spat import tensor
from spat.errors import NumericError, ShapeError
from spat.tensor import Tensor, dropout


# -- the ops only the references record --------------------------------


def total(a):
    """Sum over every element: the probe-weighted losses of the tests."""
    out = a.data.sum()
    in_shape = a.shape

    def grad_fn(g):
        return (np.broadcast_to(g, in_shape).copy(),)

    return tensor._emit("sum", (a,), out, grad_fn)


def scale(a, c):
    """``a * c`` for a float ``c``."""
    out = a.data * c

    def grad_fn(g):
        return (g * c,)

    return tensor._emit("scale", (a,), out, grad_fn)


def bmm(a, b):
    """Batched matrix product ``[.., m, k] x [.., k, n] -> [.., m, n]``,
    the batch axes broadcast."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"bmm: shapes {a.shape} and {b.shape} do not chain")
    tensor._check_broadcast("bmm (batch dims)", a.shape[:-2], b.shape[:-2])
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    out = np.matmul(a_data, b_data)

    def grad_fn(g):
        ga = gb = None
        if need_a:
            ga = tensor._unbroadcast(
                np.matmul(g, np.swapaxes(b_data, -1, -2)), a.shape)
        if need_b:
            gb = tensor._unbroadcast(
                np.matmul(np.swapaxes(a_data, -1, -2), g), b.shape)
        return ga, gb

    return tensor._emit("bmm", (a, b), out, grad_fn)


def row_softmax(a):
    """Numerically stabilized softmax over the last axis; rows sum to 1."""
    if not np.isfinite(a.data).all():
        raise NumericError("row_softmax: input contains NaN or Inf")
    x = a.data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return tensor._emit("row_softmax", (a,), y, grad_fn)


# -- layer norm and FFN: the plain normalization, gelu and relu as records
# of their own, composed with matmul, add, mul and dropout


def unfused_norm(a, eps=1e-5):
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (a.data - mu) * inv

    def grad_fn(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - y * gym),)

    return tensor._emit("layer_norm", (a,), y, grad_fn)


def unfused_gelu(a):
    phi = 0.5 * (1.0 + erf(a.data / math.sqrt(2.0)))
    out = a.data * phi
    x = a.data

    def grad_fn(g):
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        return (g * (phi + x * pdf),)

    return tensor._emit("gelu", (a,), out, grad_fn)


def unfused_relu(a):
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0.0

    def grad_fn(g):
        return (g * mask,)

    return tensor._emit("relu", (a,), out, grad_fn)


def unfused_layer_norm(a, gamma, beta):
    return unfused_norm(a) * gamma + beta


def unfused_ffn(h, x, w1, b1, w2, b2, activation, keep1=None, keep2=None):
    act = unfused_gelu if activation == "gelu" else unfused_relu
    z = act(x @ w1 + b1)
    if keep1 is not None:
        z = z * Tensor(keep1)
    z = z @ w2 + b2
    if keep2 is not None:
        z = z * Tensor(keep2)
    return h + z


def unfused_ffn_sublayer(self, h, training, rng):
    """``AttentionBlock.ffn_sublayer`` before fusion, drawing each dropout
    mask where it is applied."""
    cfg = self.cfg
    x = self._norm2(h) if cfg.norm_placement == "pre" else h
    act = unfused_gelu if cfg.activation == "gelu" else unfused_relu
    z = act(x @ self.w1 + self.b1)
    if training and cfg.dropout > 0.0:
        z = dropout(z, cfg.dropout, rng)
    z = z @ self.w2 + self.b2
    if training and cfg.dropout > 0.0:
        z = dropout(z, cfg.dropout, rng)
    out = h + z
    return self._norm2(out) if cfg.norm_placement == "post" else out


# -- attention: split heads, q kᵀ, scale, row softmax, * mask, @ v, merge


def split_heads(t, heads):
    """``[B, S, d]`` -> ``[B, H, S, d / H]``."""
    batch, s, d = t.shape
    return t.reshape(batch, s, heads, d // heads).transpose(0, 2, 1, 3)


def merge_heads(t):
    """``[B, H, S, d_head]`` -> ``[B, S, H * d_head]``."""
    batch, heads, s, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(batch, s, heads * dh)


def unfused_attention(q, k, v, heads, mask=None):
    """``tensor.masked_attention`` with ``mask`` multiplied in: where the op
    takes a probe and never reads it, this reads its values, so finite
    differences can perturb them. No mask is an all-ones one."""
    dh = q.shape[-1] // heads
    scores = scale(bmm(split_heads(q, heads),
                       split_heads(k, heads).transpose(0, 1, 3, 2)),
                   1.0 / math.sqrt(dh))
    attn = row_softmax(scores)
    if mask is not None:
        attn = attn * mask
    return merge_heads(bmm(attn, split_heads(v, heads)))
