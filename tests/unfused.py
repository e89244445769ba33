"""Unfused references for the fused ops, and the autodiff pieces only they use.

Each op of ``spat.tensor`` promises the bits of a composition of smaller
ops. The compositions are here, with the ops they need that no model path
records: the broadcasting ``add``, ``sub`` and ``mul``, ``matmul``,
``transpose``, ``reshape``, ``mean`` and ``dropout`` that the library once
had, a scalar scale, a row softmax, a batched matmul and a full sum. Each
records on the active tape through ``spat.tensor._emit``, as the library
ops do, and keeps the arithmetic the library once had, so the bitwise tests
compare the same bytes as before. Acceptance 1 checks these ops against
finite differences.
"""

import math

import numpy as np
from scipy.special import erf

from spat import tensor
from spat.errors import NumericError, ShapeError
from spat.tensor import Tensor, keep_mask


# -- the ops only the references record --------------------------------


def check_broadcast(name, a_shape, b_shape):
    for da, db in zip(reversed(a_shape), reversed(b_shape)):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"{name}: shapes {a_shape} and {b_shape} "
                             "are not broadcast-compatible")


def unbroadcast(g, shape):
    """Sum ``g`` over broadcast axes so it matches ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape))
                 if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    check_broadcast("add", a.shape, b.shape)
    out = a.data + b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (unbroadcast(g, a.shape) if need_a else None,
                unbroadcast(g, b.shape) if need_b else None)

    return tensor._emit("add", (a, b), out, grad_fn)


def sub(a, b):
    check_broadcast("sub", a.shape, b.shape)
    out = a.data - b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (unbroadcast(g, a.shape) if need_a else None,
                unbroadcast(-g, b.shape) if need_b else None)

    return tensor._emit("sub", (a, b), out, grad_fn)


def mul(a, b):
    """Hadamard product with broadcasting."""
    check_broadcast("mul", a.shape, b.shape)
    out = a.data * b.data
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (unbroadcast(g * b_data, a.shape) if need_a else None,
                unbroadcast(g * a_data, b.shape) if need_b else None)

    return tensor._emit("mul", (a, b), out, grad_fn)


def matmul(a, b):
    """Matrix product ``[.., m, k] x [k, n] -> [.., m, n]``.

    The leading axes of ``a`` fold into one GEMM, so the gradient of ``b``
    comes out summed over them.
    """
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul takes [.., m, k] x [k, n] operands, got "
                         f"shapes {a.shape} and {b.shape}")
    b_data = b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    k, n = b.shape
    a2 = a.data.reshape(-1, k)
    out = (a2 @ b_data).reshape(a.shape[:-1] + (n,))

    def grad_fn(g):
        g2 = g.reshape(-1, n)
        ga = (g2 @ b_data.T).reshape(a.shape) if need_a else None
        gb = a2.T @ g2 if need_b else None
        return ga, gb

    return tensor._emit("matmul", (a, b), out, grad_fn)


def transpose(a, axes):
    """Permute axes."""
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of "
                         f"axes for shape {a.shape}")
    out = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def grad_fn(g):
        return (np.transpose(g, inverse),)

    return tensor._emit("transpose", (a,), out, grad_fn)


def reshape(a, shape):
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}") from e
    in_shape = a.shape

    def grad_fn(g):
        return (g.reshape(in_shape),)

    return tensor._emit("reshape", (a,), out, grad_fn)


def mean(a):
    """Average over every element."""
    out = a.data.mean()
    in_shape, n = a.shape, a.data.size

    def grad_fn(g):
        return (np.broadcast_to(g / n, in_shape).copy(),)

    return tensor._emit("mean", (a,), out, grad_fn)


def dropout(a, rate, rng):
    """Inverted dropout; identity when rate is 0."""
    if rate == 0.0:
        return a
    keep = keep_mask(rng, a.shape, rate)
    out = a.data * keep

    def grad_fn(g):
        return (g * keep,)

    return tensor._emit("dropout", (a,), out, grad_fn)


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
    check_broadcast("bmm (batch dims)", a.shape[:-2], b.shape[:-2])
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    out = np.matmul(a_data, b_data)

    def grad_fn(g):
        ga = gb = None
        if need_a:
            ga = unbroadcast(
                np.matmul(g, np.swapaxes(b_data, -1, -2)), a.shape)
        if need_b:
            gb = unbroadcast(
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
    return add(mul(unfused_norm(a), gamma), beta)


def unfused_ffn(h, x, w1, b1, w2, b2, activation, keep1=None, keep2=None):
    act = unfused_gelu if activation == "gelu" else unfused_relu
    z = act(add(matmul(x, w1), b1))
    if keep1 is not None:
        z = mul(z, Tensor(keep1))
    z = add(matmul(z, w2), b2)
    if keep2 is not None:
        z = mul(z, Tensor(keep2))
    return add(h, z)


def unfused_ffn_sublayer(self, h, masks=None):
    """``AttentionBlock.ffn_sublayer`` before fusion, taking each dropout
    mask where it is applied."""
    cfg = self.cfg
    x = self._norm2(h) if cfg.norm_placement == "pre" else h
    act = unfused_gelu if cfg.activation == "gelu" else unfused_relu
    z = act(add(matmul(x, self.w1), self.b1))
    if masks is not None:
        z = mul(z, Tensor(masks.take(z.shape)))
    z = add(matmul(z, self.w2), self.b2)
    if masks is not None:
        z = mul(z, Tensor(masks.take(z.shape)))
    out = add(h, z)
    return self._norm2(out) if cfg.norm_placement == "post" else out


# -- attention: split heads, q kᵀ, scale, row softmax, * mask, @ v, merge


def split_heads(t, heads):
    """``[B, S, d]`` -> ``[B, H, S, d / H]``."""
    batch, s, d = t.shape
    return transpose(reshape(t, (batch, s, heads, d // heads)), (0, 2, 1, 3))


def merge_heads(t):
    """``[B, H, S, d_head]`` -> ``[B, S, H * d_head]``."""
    batch, heads, s, dh = t.shape
    return reshape(transpose(t, (0, 2, 1, 3)), (batch, s, heads * dh))


def unfused_attention(q, k, v, heads, mask=None):
    """Multi-head attention of ``[B, S, d]`` ``q``, ``k`` and ``v`` with
    ``mask`` multiplied into the softmax: where ``tensor.attention_sublayer``
    takes a probe and never reads it, this reads its values, so finite
    differences can perturb them. No mask is an all-ones one."""
    dh = q.shape[-1] // heads
    scores = scale(bmm(split_heads(q, heads),
                       transpose(split_heads(k, heads), (0, 1, 3, 2))),
                   1.0 / math.sqrt(dh))
    attn = row_softmax(scores)
    if mask is not None:
        attn = mul(attn, mask)
    return merge_heads(bmm(attn, split_heads(v, heads)))


def unfused_attention_sublayer(h, x, w_q, b_q, w_k, b_k, w_v, b_v, w_e, b_e,
                               heads, keep=None, probe=None):
    """``tensor.attention_sublayer`` as the model composed it before fusion,
    with the probe multiplied in as the mask."""
    q = add(matmul(x, w_q), b_q)
    k = add(matmul(x, w_k), b_k)
    v = add(matmul(x, w_v), b_v)
    out = add(matmul(unfused_attention(q, k, v, heads, probe), w_e), b_e)
    if keep is not None:
        out = mul(out, Tensor(keep))
    return add(h, out)


# -- the model's edges


def unfused_embed(tokens, w, b, pos=None, keep=None):
    out = add(matmul(Tensor(tokens), w), b)
    if pos is not None:
        out = add(out, pos)
    if keep is not None:
        out = mul(out, Tensor(keep))
    return out


def unfused_head(h, w, b, channels, sigma=None, mu=None):
    if h.shape[1:] == (channels, w.shape[0]):  # variate tokens: [B, C, d]
        out = add(matmul(h, w), b)
    else:  # patch tokens: [B * C, S, d], each series flattened
        flat = reshape(h, (h.shape[0], -1))
        out = reshape(add(matmul(flat, w), b), (-1, channels, w.shape[1]))
    out = transpose(out, (0, 2, 1))
    if sigma is not None:
        out = add(mul(out, Tensor(sigma)), Tensor(mu))
    return out


def unfused_mse_loss(pred, target):
    diff = sub(pred, Tensor(target))
    return mean(mul(diff, diff))
