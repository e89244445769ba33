"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable operation records itself on the active :class:`Tape`;
``Tape.backward`` replays the records in exact reverse order, accumulating
gradients additively; afterwards only leaves (parameters, probes) keep one.
Data buffers are row-major ``numpy`` arrays and stay immutable after
creation (only ``grad`` is assigned during backward).

Broadcasting follows numpy's right-aligned rules (leading batch dimensions
or explicit size-1 axes); anything else raises :class:`ShapeError` with both
shapes in the message.

Importing this module sets the process's glibc allocator policy once (see
:func:`_keep_freed_memory`): buffers up to 32 MiB come from the heap, and
the heap keeps up to 1 GiB of free memory instead of trimming it. The
activations ``Tape.backward`` frees as it replays the tape then stay in the
heap for the next step instead of going back to the OS and being faulted
in, zero-filled, all over again.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericError, ShapeError

__all__ = [
    "ACTIVATIONS",
    "Tape",
    "Tensor",
    "dropout",
    "ffn",
    "keep_mask",
    "layer_norm",
    "masked_attention",
]


class _Record(NamedTuple):
    """One recorded op: input/output tensors plus the local gradient rule."""

    name: str
    inputs: tuple["Tensor", ...]
    output: "Tensor"
    grad_fn: Callable[[np.ndarray], tuple]


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> bool:
    """Keep freed activations in the heap; True if glibc took the policy.

    Fixing either threshold turns off glibc's dynamic ones. The mmap
    threshold must cover the largest buffer an op allocates (a variate
    model's ``[32, 4, 128, 128]`` score tensor is 16 MiB; 32 MiB is
    glibc's cap on 64-bit), because each mmapped buffer is faulted in
    fresh on every use. The trim threshold must exceed one step's working
    set, so the heap stops shrinking between steps. The policy is
    process-wide, like the allocator. Where libc has no ``mallopt``,
    nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)
                and mallopt(_M_TRIM_THRESHOLD, 2**30))


_MALLOC_POLICY_SET = _keep_freed_memory()

_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of differentiable operations.

    Used as a context manager around a forward pass:

        with Tape() as tape:
            loss = ...
        tape.backward(loss)

    Recording order is execution order, which is topological by
    construction; backward visits records in exact reverse order, so two
    backward passes over the same graph are bit-identical. Backward
    consumes the tape, freeing each record's saved buffers once it has run.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a Tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, name: str, inputs: Sequence["Tensor"], output: "Tensor",
               grad_fn: Callable[[np.ndarray], tuple]) -> None:
        output._tape = self
        self._records.append(_Record(name, tuple(inputs), output, grad_fn))

    def backward(self, loss: "Tensor") -> None:
        """Populate ``grad`` on every gradient-requiring leaf reachable
        from ``loss``, accumulating additively across fan-out.

        Gradients may be shared: a ``grad_fn`` may hand one array to
        several inputs or return a view of its incoming gradient, and a
        first contribution is stored as is. So nothing writes into a
        ``.grad`` or into an array a ``grad_fn`` returned; later
        contributions accumulate out of place. Each record is popped, with
        its output gradient and saved buffers, as soon as it has run, so
        afterwards the tape is empty and only leaves (parameters and probes)
        hold a ``grad``. A loss on this tape implies a record, so an empty
        tape was already replayed.
        """
        if loss.data.shape != ():
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise ContractError("loss does not live on this tape")
        if not self._records:
            raise ContractError("tape already consumed by an earlier backward")
        loss.grad = np.ones((), dtype=np.float64)
        while self._records:
            rec = self._records.pop()
            g_out = rec.output.grad
            if g_out is None:
                continue
            rec.output.grad = None
            for t, g in zip(rec.inputs, rec.grad_fn(g_out)):
                if g is None or not t.requires_grad:
                    continue
                t.grad = g if t.grad is None else t.grad + g


class Tensor:
    """N-dimensional float64 array with an optional gradient slot.

    ``_tape`` is the tape that recorded the op producing this tensor;
    leaves and constants keep ``None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._tape: Tape | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    def mean(self):
        return mean(self)


# -- helpers -----------------------------------------------------------


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(*tensors: Tensor) -> bool:
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in tensors)


def _emit(name: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
          grad_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(out_data)
    if _tracked(*inputs):
        out.requires_grad = True
        _ACTIVE_TAPE.record(name, inputs, out, grad_fn)
    return out


def _check_broadcast(name: str, a_shape: tuple, b_shape: tuple) -> None:
    for da, db in zip(reversed(a_shape), reversed(b_shape)):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"{name}: shapes {a_shape} and {b_shape} "
                             "are not broadcast-compatible")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
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


# -- elementwise and reduction primitives ------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a.shape, b.shape)
    out = a.data + b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (_unbroadcast(g, a.shape) if need_a else None,
                _unbroadcast(g, b.shape) if need_b else None)

    return _emit("add", (a, b), out, grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a.shape, b.shape)
    out = a.data - b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (_unbroadcast(g, a.shape) if need_a else None,
                _unbroadcast(-g, b.shape) if need_b else None)

    return _emit("sub", (a, b), out, grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product with broadcasting."""
    _check_broadcast("mul", a.shape, b.shape)
    out = a.data * b.data
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (_unbroadcast(g * b_data, a.shape) if need_a else None,
                _unbroadcast(g * a_data, b.shape) if need_b else None)

    return _emit("mul", (a, b), out, grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
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

    return _emit("matmul", (a, b), out, grad_fn)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Permute axes."""
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of "
                         f"axes for shape {a.shape}")
    out = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def grad_fn(g):
        return (np.transpose(g, inverse),)

    return _emit("transpose", (a,), out, grad_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}") from e
    in_shape = a.shape

    def grad_fn(g):
        return (g.reshape(in_shape),)

    return _emit("reshape", (a,), out, grad_fn)


def mean(a: Tensor) -> Tensor:
    """Average over every element."""
    out = a.data.mean()
    in_shape, n = a.shape, a.data.size

    def grad_fn(g):
        return (np.broadcast_to(g / n, in_shape).copy(),)

    return _emit("mean", (a,), out, grad_fn)


# Bytes of [n, H, S, S] scores that masked_attention works on at a time:
# about half of a 2 MiB per-core L2, so each pass over the scores (scale,
# max, exp, sum, divide, the probe product, the softmax row-dot) finds its
# chunk in L2 next to the pass's other operands, instead of streaming the
# whole [B, H, S, S] tensor from L3. A chunk holds at least one item.
_ATTENTION_CHUNK_BYTES = 2**20


def masked_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                     probe: Tensor | None = None) -> Tensor:
    """Multi-head self-attention whose connections can be probed.

    ``q``, ``k`` and ``v`` are ``[B, S, d]`` and are split into ``heads``
    heads of width ``d_head = d / heads``. Per head, ``A`` is the row
    softmax of ``q kᵀ / √d_head`` and the context ``A v`` is merged back to
    ``[B, S, d]``. One record covers the head split and merge, both
    products, the scale and the softmax.

    ``probe`` is None or a ``[heads, S, S]`` leaf that stands for a
    connection mask ``M`` on the scores, ``(A ⊙ M) v``, held at
    ``M = 1``. The op never reads its values. Its gradient is the
    derivative of the loss with respect to that all-ones mask,
    ``Σ_batch g_A ⊙ A``: the sensitivity of the loss to each attention
    score.

    Every product and reduction runs in the order and memory layout of the
    unfused composition of ``reshape``, ``transpose``, a batched matmul, a
    scale, a row softmax and ``mul`` by an all-ones mask, so both give
    identical bits. That composition is kept as the reference in
    ``tests/unfused.py``.

    The batch is walked in chunks of ``_ATTENTION_CHUNK_BYTES`` worth of
    scores, forward and backward. Every GEMM is still one BLAS call per
    ``(b, h)`` slice and every row reduction stays within its row, so the
    chunking changes no bits. The probe gradient's sum over the batch keeps
    its sequential order: each chunk's sum starts from the running sum as
    its row 0, rather than adding per-chunk partial sums. Only a taped op
    keeps the ``[B, H, S, S]`` scores; backward works on chunk-sized
    temporaries.

    The softmax backward reuses the product ``g_A ⊙ A`` that the probe
    gradient sums. When neither ``q`` nor ``k`` needs a gradient, as in
    the first attention layer that scoring on frozen weights reaches,
    backward stops once the ``v`` and probe gradients are out and skips
    the softmax backward.
    """
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"masked_attention: q, k and v must share one "
                         f"[B, S, d] shape, got {q.shape}, {k.shape}, {v.shape}")
    batch, s, d = q.shape
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"masked_attention: width {d} does not split into "
                         f"{heads} heads")
    if probe is not None and probe.shape != (heads, s, s):
        raise ShapeError(f"masked_attention: probe shape {probe.shape} != "
                         f"{(heads, s, s)}")
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    n = max(1, min(batch, _ATTENTION_CHUNK_BYTES // (heads * s * s * 8)))
    chunks = [slice(b, min(b + n, batch)) for b in range(0, batch, n)]

    def split(a):  # [B, S, d] -> [B, H, S, d_head] view
        return a.reshape(batch, s, heads, dh).transpose(0, 2, 1, 3)

    def merged():
        # an empty [B, S, d] in the layout the unfused head merge of a
        # [B, H, S, d_head] product leaves, which later sums depend on: a
        # C-order copy, but a [B, H, S] view when d_head is 1
        if dh == 1:
            return np.empty((batch, heads, s)).transpose(0, 2, 1)
        return np.empty((batch, s, d))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    inputs = (q, k, v) if probe is None else (q, k, v, probe)
    keep = _tracked(*inputs)
    att = np.empty((batch, heads, s, s)) if keep else None
    scratch = None if keep else np.empty((n, heads, s, s))
    out = merged()
    for sl in chunks:
        a = att[sl] if keep else scratch[:sl.stop - sl.start]
        np.matmul(qh[sl], np.swapaxes(kh[sl], -1, -2), out=a)
        a *= c
        if not np.isfinite(a).all():
            raise NumericError(
                "masked_attention: attention scores contain NaN or Inf")
        a -= a.max(axis=-1, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=-1, keepdims=True)
        np.matmul(a, vh[sl], out=split(out)[sl])
    need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad
    need_probe = probe is not None and probe.requires_grad

    def grad_fn(g):
        g_ctx = split(g)
        gq, gv = (merged() if need else None for need in (need_q, need_v))
        # k's gradient keeps the unfused layout, a [B, S, d] view of
        # [B, H, d_head, S]: the bias gradient's sum over it depends on it
        gk_t = np.empty((batch, heads, dh, s)) if need_k else None
        ga = np.empty((n, heads, s, s))
        # rows 1.. hold a chunk's products g_A ⊙ A; row 0 carries the probe
        # gradient's running sum into the next chunk's sum over the batch
        prod = np.empty((n + 1, heads, s, s))
        gp = None
        for sl in chunks:
            nb = sl.stop - sl.start
            a, p, gac = att[sl], prod[1:nb + 1], ga[:nb]
            if need_v:
                np.matmul(np.swapaxes(a, -1, -2), g_ctx[sl], out=split(gv)[sl])
            np.matmul(g_ctx[sl], np.swapaxes(vh[sl], -1, -2), out=gac)  # dL/dA
            np.multiply(gac, a, out=p)
            if need_probe:
                if gp is None:
                    gp = p.sum(axis=0)
                else:
                    prod[0] = gp
                    gp = prod[:nb + 1].sum(axis=0)
            if not (need_q or need_k):
                continue
            # the row-softmax and scale backward, in place
            gac -= p.sum(axis=-1, keepdims=True)
            gac *= a
            gac *= c
            if need_q:
                np.matmul(gac, kh[sl], out=split(gq)[sl])
            if need_k:
                np.matmul(np.swapaxes(qh[sl], -1, -2), gac, out=gk_t[sl])
        gk = (np.swapaxes(gk_t, -1, -2).transpose(0, 2, 1, 3)
              .reshape(batch, s, d) if need_k else None)
        return (gq, gk, gv, gp)[:len(inputs)]

    return _emit("masked_attention", inputs, out, grad_fn)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale
    by ``gamma`` and shift by ``beta`` (both ``[d]``).

    One record covers the normalization and the affine map. The arithmetic
    is that of ``np.var`` and of the unfused ``y * gamma + beta``: the
    variance is the mean square of the centred array, ``beta`` is added in
    place on the product, and the ``gamma`` and ``beta`` gradients are
    ``_unbroadcast`` sums, so both give identical bits.
    """
    d = a.shape[-1:]
    if gamma.shape != d or beta.shape != d:
        raise ShapeError(f"layer_norm: gamma {gamma.shape} and beta "
                         f"{beta.shape} must both be {d} for input {a.shape}")
    y = a.data - a.data.mean(axis=-1, keepdims=True)
    out = np.square(y)
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + eps)
    y *= inv
    np.multiply(y, gamma.data, out=out)
    out += beta.data
    g_data = gamma.data
    need_g, need_b = gamma.requires_grad, beta.requires_grad

    def grad_fn(g):
        gg = _unbroadcast(g * y, d) if need_g else None
        gb = _unbroadcast(g, d) if need_b else None
        gy = g * g_data
        t = gy * y
        gym = t.mean(axis=-1, keepdims=True)
        gy -= gy.mean(axis=-1, keepdims=True)
        gy -= np.multiply(y, gym, out=t)
        gy *= inv
        return gy, gg, gb

    return _emit("layer_norm", (a, gamma, beta), out, grad_fn)


def keep_mask(rng: np.random.Generator, shape: tuple[int, ...],
              rate: float) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability ``rate``, else
    ``1 / (1 - rate)``. One ``rng.random`` draw of ``shape``."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate is 0."""
    if rate == 0.0:
        return a
    keep = keep_mask(rng, a.shape, rate)
    out = a.data * keep

    def grad_fn(g):
        return (g * keep,)

    return _emit("dropout", (a,), out, grad_fn)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
ACTIVATIONS = ("gelu", "relu")


def ffn(h: Tensor, x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        activation: str, keep1: np.ndarray | None = None,
        keep2: np.ndarray | None = None) -> Tensor:
    """Position-wise feed-forward sublayer with its residual:
    ``h + drop2(drop1(act(x @ w1 + b1)) @ w2 + b2)``.

    ``x`` and ``h`` are ``[.., d]`` (``x`` is ``h`` itself under post-norm),
    ``w1`` is ``[d, f]`` and ``w2`` is ``[f, d]``. ``activation`` is the
    exact (erf-based) ``"gelu"`` or ``"relu"``. ``keep1`` (``[.., f]``) and
    ``keep2`` (``[.., d]``) are :func:`keep_mask` multipliers, or None for
    no dropout. One record covers both linears, the activation, both
    dropouts and the residual add.

    Every product and reduction runs in the order and memory layout of the
    unfused composition of ``matmul``, ``add``, the activation and
    ``dropout``, so both give identical bits: the leading axes are folded
    into one GEMM per linear, biases and masks are applied in place on the
    GEMM outputs, the activation and its backward work on reused buffers,
    and the bias gradients are ``_unbroadcast`` sums.
    """
    if activation not in ACTIVATIONS:
        raise ContractError(f"ffn: activation must be one of {ACTIVATIONS}, "
                            f"got {activation!r}")
    d, f = w1.shape if w1.ndim == 2 else (-1, -1)
    lead = x.shape[:-1]
    if (x.shape[-1:] != (d,) or b1.shape != (f,) or w2.shape != (f, d)
            or b2.shape != (d,) or h.shape != x.shape):
        raise ShapeError(
            f"ffn: shapes do not chain: h {h.shape}, x {x.shape}, w1 "
            f"{w1.shape}, b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}")
    for name, keep, shape in (("keep1", keep1, lead + (f,)),
                              ("keep2", keep2, h.shape)):
        if keep is not None and keep.shape != shape:
            raise ShapeError(f"ffn: {name} shape {keep.shape} != {shape}")
    gelu = activation == "gelu"
    tracked = _tracked(h, x, w1, b1, w2, b2)
    w1_data, w2_data = w1.data, w2.data

    x2 = x.data.reshape(-1, d)
    u = (x2 @ w1_data).reshape(lead + (f,))
    u += b1.data
    if gelu:
        phi = np.divide(u, _SQRT2)
        erf(phi, out=phi)
        phi += 1.0
        phi *= 0.5
        z = u * phi if tracked else np.multiply(u, phi, out=phi)
    else:
        mask = u > 0.0
        z = np.maximum(u, 0.0, out=u)
    if keep1 is not None:
        z *= keep1
    z2 = z.reshape(-1, f)
    out = (z2 @ w2_data).reshape(h.shape)
    out += b2.data
    if keep2 is not None:
        out *= keep2
    out += h.data
    need_h, need_x = h.requires_grad, x.requires_grad
    need_w1, need_b1 = w1.requires_grad, b1.requires_grad
    need_w2, need_b2 = w2.requires_grad, b2.requires_grad

    def grad_fn(g):
        gv = g if keep2 is None else g * keep2
        gb2 = _unbroadcast(gv, (d,)) if need_b2 else None
        gv2 = gv.reshape(-1, d)
        gw2 = z2.T @ gv2 if need_w2 else None
        gh = g if need_h else None
        gu = (gv2 @ w2_data.T).reshape(lead + (f,))
        if keep1 is not None:
            gu *= keep1
        if gelu:
            # gelu'(u) = phi + u * pdf(u), built in one buffer
            t = np.multiply(u, -0.5)
            t *= u
            np.exp(t, out=t)
            t *= _INV_SQRT_2PI
            t *= u
            t += phi
            gu *= t
        else:
            gu *= mask
        gb1 = _unbroadcast(gu, (f,)) if need_b1 else None
        gu2 = gu.reshape(-1, f)
        gw1 = x2.T @ gu2 if need_w1 else None
        gx = (gu2 @ w1_data.T).reshape(x.shape) if need_x else None
        return gh, gx, gw1, gb1, gw2, gb2

    return _emit("ffn", (h, x, w1, b1, w2, b2), out, grad_fn)
