"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable operation records itself on its thread's active
:class:`Tape`; ``Tape.backward`` replays the records in exact reverse
order, accumulating gradients additively; afterwards only leaves
(parameters, probes) keep one. Data buffers are row-major ``numpy`` arrays
and stay immutable after creation (only ``grad`` is assigned during
backward).

Each op is one piece of the forecaster with a hand-derived backward:
:func:`embed`, :func:`attention_sublayer`, :func:`layer_norm`, :func:`ffn`,
:func:`head` and :func:`mse_loss`. Constants (patches, instance statistics,
targets, dropout keep masks) are plain arrays. Each op gives the bits of
the composition of small ops kept in ``tests/unfused.py``. Operands whose
shapes do not chain raise :class:`ShapeError` with the shapes in the
message.

Importing this module sets the process's glibc allocator policy once (see
:func:`_keep_freed_memory`): buffers up to 32 MiB come from the heap, and
the heap keeps up to 1 GiB of free memory instead of trimming it. The
activations ``Tape.backward`` frees as it replays the tape then stay in the
heap for the next step instead of going back to the OS and being faulted
in, zero-filled, all over again.

The second of the two parts of :func:`two_lanes` runs on a thread started
for it and joined before the call returns: a forecast, a training step or
a scoring batch of many windows carries each half of them through the
whole model on its own thread, and a step or a scoring batch
backpropagates it there too, on the lane's own tape. A :class:`LeafMerge`
computes each parameter and probe gradient once, from both halves'
operands joined in batch order, and each lane draws its rows of every
dropout keep mask (:class:`KeepMasks`) from a copy of the generator moved
past the draws before them. A batch that runs as one part runs all of it
on the calling thread.

Every piece of work does the arithmetic it does alone, so outputs,
gradients and masks are the same bytes on one thread or two. The active
tape is per thread, so a lane records on its own. No lane starts lanes: a
forecast lane runs the model inline, and a lane that backpropagates holds
a tape (:func:`lanes_open`). When the process's CPU affinity holds one CPU
(``taskset -c 0``), no thread is started and both parts run in turn on the
calling thread.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import copy
import ctypes
import functools
import math
import os
import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericError, ShapeError

__all__ = [
    "ACTIVATIONS",
    "KeepMasks",
    "LeafMerge",
    "Tape",
    "Tensor",
    "attention_sublayer",
    "embed",
    "ffn",
    "head",
    "keep_mask",
    "lanes_open",
    "layer_norm",
    "mse_loss",
    "skip_draws",
    "split_rows_alike",
    "two_lanes",
]


class _Record(NamedTuple):
    """One recorded op: input/output tensors plus the local gradient rule."""

    name: str
    inputs: tuple["Tensor", ...]
    output: "Tensor"
    grad_fn: Callable[[np.ndarray], tuple]


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_memory() -> bool:
    """Keep freed activations in the heap; True if glibc took the policy.

    Fixing either threshold turns off glibc's dynamic ones. The mmap
    threshold must cover the largest buffer an op allocates (a variate
    model's ``[32, 4, 128, 128]`` score tensor is 16 MiB; 32 MiB is
    glibc's cap on 64-bit), because each mmapped buffer is faulted in
    fresh on every use. The trim threshold must exceed one step's working
    set, so the heap stops shrinking between steps. One arena serves every
    thread: numpy allocates its buffers with the GIL held, so a second
    arena buys no concurrency, and each lane thread's own arena would
    keep a pool of freed memory that the calling thread, which frees the
    forecasts and gradients the lane allocates, cannot reuse. The policy
    is process-wide, like the allocator. Where libc has no ``mallopt``,
    nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)
                and mallopt(_M_TRIM_THRESHOLD, 2**30)
                and mallopt(_M_ARENA_MAX, 1))


_MALLOC_POLICY_SET = _keep_freed_memory()


class _ThreadState(threading.local):
    """Per thread: the tape that records its ops, if any."""

    def __init__(self):
        self.tape: Tape | None = None


_THREAD = _ThreadState()


@functools.lru_cache
def split_rows_alike(rows: int, split: int, k: int, n: int) -> bool:
    """Whether a ``[rows, k] @ [k, n]`` product gives every row the bits
    it gets when the first ``split`` rows and the rest are multiplied
    apart, with the ``[k, n]`` operand stored in C order (a linear's
    weight) and as the transpose of a C-ordered ``[n, k]`` (the weight of
    a linear whose input gradient is ``g @ w.T``).

    BLAS picks its kernel, and with it the order of each row's sums, by
    the operands' sizes and layouts. With OpenBLAS 0.3.31 on a 2-core
    AVX-512 machine, ``[5376, 16] @ [16, 12]`` halved at row 2688 changes
    bits, and so does ``[64, 512] @ [512, 32]`` halved at row 32, while
    each product of the synthetic_small forecaster and of a 128-channel
    variate model at batches of 32 and 21 does not. Tried once per shape,
    on random operands.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, k))
    return all(np.array_equal(a @ w, np.concatenate((a[:split] @ w,
                                                     a[split:] @ w)))
               for w in (rng.standard_normal((k, n)),
                         rng.standard_normal((n, k)).T))


def lanes_open() -> bool:
    """Whether :func:`two_lanes` runs two parts at once on this thread: it
    has no active tape, on which a lane thread's ops would not record, and
    the process may run on more than one CPU (its affinity where the OS
    reports one, else the CPU count), read on every call."""
    if _THREAD.tape is not None:
        return False
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")   # Linux only
            else os.cpu_count() or 1)
    return cpus > 1


def two_lanes(work: Callable, parts: tuple) -> tuple:
    """``tuple(map(work, parts))`` for one part or two.

    One part runs inline. Of two, where :func:`lanes_open`, the second runs
    on a thread started for it while the calling thread runs the first;
    elsewhere they run in turn. Each lane may record on a tape of its own,
    and each part stays in one core's cache. The thread runs in a copy of
    the caller's context, so under its ``np.errstate``, and is joined
    before this returns or raises: if either lane raises, the exception
    (the calling thread's, if both raise) is raised here.
    """
    if len(parts) == 1 or not lanes_open():
        return tuple(map(work, parts))
    second, raised = [], []

    def lane():
        try:
            second.append(work(parts[1]))
        except BaseException as e:          # raised on the calling thread
            raised.append(e)
    thread = threading.Thread(target=contextvars.copy_context().run,
                              args=(lane,), name="spat-lane")
    thread.start()
    try:
        first = work(parts[0])
    finally:
        thread.join()
    if raised:
        raise raised[0]
    return first, second[0]


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
    A tape records the ops of the thread that entered it, and each thread
    has at most one active tape. Given a :class:`LeafMerge`, the tape is
    ``lane`` of the two that backpropagate the halves of one batch.
    """

    def __init__(self, merge: "LeafMerge | None" = None, lane: int = 0):
        self._records: list[_Record] = []
        self._merge, self._lane = merge, lane

    def __enter__(self) -> "Tape":
        if _THREAD.tape is not None:
            raise ContractError("a Tape is already active; tapes do not nest")
        _THREAD.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _THREAD.tape = None
        return False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, name: str, inputs: Sequence["Tensor"], output: "Tensor",
               grad_fn: Callable[[np.ndarray], tuple]) -> None:
        output._tape = self
        self._records.append(_Record(name, tuple(inputs), output, grad_fn))

    def backward(self, loss: "Tensor") -> None:
        """Add to ``grad`` on every gradient-requiring leaf reachable from
        the scalar ``loss``: :meth:`backward_from` its gradient, 1."""
        if loss.data.shape != ():
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}")
        self.backward_from(loss, np.ones((), dtype=np.float64))

    def backward_from(self, out: "Tensor", grad: np.ndarray) -> None:
        """Add to ``grad`` on every gradient-requiring leaf reachable from
        ``out``, given ``grad``, the gradient of some scalar with respect to
        ``out``, accumulating additively across fan-out.

        Only here is it decided which gradients run and how they add up: a
        ``grad_fn`` returns a gradient or None for each input, backward
        keeps those of inputs that require one, and :func:`_accumulate`
        adds each to its tensor's ``grad``. A leaf's ``grad`` so sums over
        backward passes until ``zero_grad``.

        Gradients may be shared: a ``grad_fn`` may hand one array to
        several inputs or return a view of its incoming gradient, and a
        first contribution is stored as is. So nothing writes into a
        ``.grad`` or into an array a ``grad_fn`` returned; later
        contributions accumulate out of place. Each record is popped, with
        its output gradient and saved buffers, as soon as it has run, so
        afterwards the tape is empty and only leaves (parameters and probes)
        hold a ``grad``. An output on this tape implies a record, so an
        empty tape was already replayed.

        A ``grad_fn`` returns the gradients of the model's leaves, its
        weights, biases and probes, as :class:`_Leaf` s, computed when
        accumulated, since no later record reads them; those of frozen
        leaves are never computed. A tape with a :class:`LeafMerge` collects
        them instead: each record's leaf gradients go to the merge, which
        computes them once over the whole batch and leaves ``grad`` alone
        until :meth:`LeafMerge.apply`, so no leaf gradient is left for a
        lane to accumulate itself.
        """
        if out._tape is not self:
            raise ContractError("output does not live on this tape")
        if not self._records:
            raise ContractError("tape already consumed by an earlier backward")
        if grad.shape != out.shape:
            raise ShapeError(f"backward: gradient shape {grad.shape} != "
                             f"output shape {out.shape}")
        out.grad = grad
        while self._records:
            rec = self._records.pop()
            g_out = rec.output.grad
            if g_out is None:
                continue
            rec.output.grad = None
            now, merged = [], []
            for t, g in zip(rec.inputs, rec.grad_fn(g_out)):
                if g is not None and t.requires_grad:
                    (merged if self._merge is not None and t._tape is None
                     else now).append((t, g))
            _accumulate(now)
            if merged:
                self._merge.add(self._lane, merged)


def _accumulate(grads: list[tuple["Tensor", object]]) -> None:
    """Add each gradient, computed first where it is a callable, to its
    tensor's ``grad``, in order."""
    for t, g in grads:
        if callable(g):
            g = g()
        t.grad = g if t.grad is None else t.grad + g


class LeafMerge:
    """The leaf gradients of two lanes' backwards, over the first and the
    second half of one batch's windows, each computed once from the two
    halves' operands joined in batch order.

    Lane ``i`` records and backpropagates its half on ``Tape(merge, i)``.
    Both tapes hold the same records, so a lane's ``k``-th record with leaf
    gradients is the other's ``k``-th too. Once both lanes have handed it
    over (:meth:`add`), its gradients are computed from the joined
    operands (``np.concatenate`` of each :class:`_Leaf`'s operands, once
    per operand of a record, or, for an operand that is a tuple of item
    blocks, the two tuples concatenated, which copies no item), which are
    those of the one-part backward, so each has the one-part bits.

    A record's gradients are computed by the lane that is ahead: the lane
    that hands it over second passes it to the other, which computes it
    when it next hands one over, or, once its own backward is done, as it
    is passed. So the lanes share this work, the one ahead is slowed, and a
    record's operands are held only until both lanes are past it. Each
    lane runs inside :meth:`lane`, which keeps a lane that is done serving
    the other until that one is done too, and lets a lane that raised
    drop out. Nothing writes a ``grad`` until :meth:`apply`, so a lane
    that raises leaves every ``grad`` as it was.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._handed = [0, 0]                  # records each lane handed over
        self._waiting: dict[int, list] = {}    # record -> the first lane's
        self._passed: tuple[list, list] = ([], [])   # jobs for each lane
        self._running = [False, False]         # in its own forward, backward
        self._gone = [False, False]            # raised, or done serving
        self._grads: dict[int, list] = {}      # record -> (tensor, gradient)

    @contextlib.contextmanager
    def lane(self, lane: int):
        """Run lane ``lane``'s forward and backward inside. On leaving, the
        lane computes what is passed to it for as long as the other lane
        runs; a lane that raises leaves at once. A lane waits only for one
        that is running, so lanes run one after the other finish too."""
        other = 1 - lane
        with self._cond:
            self._running[lane] = True
        try:
            yield
            with self._cond:
                self._running[lane] = False
                self._cond.notify_all()
            while True:
                with self._cond:
                    while not self._passed[lane] and self._running[other]:
                        self._cond.wait()
                    mine = self._take(lane)
                    if not mine:
                        self._gone[lane] = True
                        return
                while mine:
                    self._join(*mine.pop(0))
        finally:
            with self._cond:
                self._running[lane], self._gone[lane] = False, True
                self._cond.notify_all()

    def _take(self, lane: int) -> list:
        mine = self._passed[lane][:]
        del self._passed[lane][:]
        return mine

    def add(self, lane: int, leaves: list[tuple["Tensor", _Leaf]]) -> None:
        """Lane ``lane``'s leaf gradients of its next record."""
        other = 1 - lane
        with self._cond:
            k = self._handed[lane]
            self._handed[lane] += 1
            first = self._waiting.pop(k, None)
            mine = self._take(lane)
            if first is None:
                self._waiting[k] = leaves
            else:
                job = (k, first, leaves) if lane else (k, leaves, first)
                (mine if self._gone[other] else self._passed[other]).append(job)
                self._cond.notify_all()
        while mine:
            self._join(*mine.pop(0))

    def _join(self, k: int, first: list, second: list) -> None:
        if len(first) != len(second) or any(
                a is not b for (a, _), (b, _) in zip(first, second)):
            raise ContractError(f"record {k}: the lanes' leaves differ")
        # each operand is joined once, and it and its halves are dropped
        # after its last use
        uses = collections.Counter(id(a) for _, g in first for a in g.operands)
        joined: dict[int, np.ndarray] = {}

        def join(a, b):
            if id(a) not in joined:
                joined[id(a)] = (a + b if isinstance(a, tuple)
                                 else np.concatenate((a, b)))
            uses[id(a)] -= 1
            return joined[id(a)] if uses[id(a)] else joined.pop(id(a))
        grads = self._grads[k] = []
        while first:
            (t, g), (_, h) = first.pop(0), second.pop(0)
            grads.append((t, g.fn(*map(join, g.operands, h.operands))))

    def apply(self) -> None:
        """Add the gradients to their tensors' ``grad``, record by record
        in the order backward reached them, as one backward adds them.
        Call once both lanes' backwards returned."""
        if (self._waiting or self._handed[0] != self._handed[1]
                or len(self._grads) != self._handed[0]):
            raise ContractError("the lanes handed over different records")
        for k in range(len(self._grads)):
            _accumulate(self._grads.pop(k))


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


# -- helpers -----------------------------------------------------------


def _tracked(*tensors: Tensor) -> bool:
    return _THREAD.tape is not None and any(t.requires_grad for t in tensors)


def _emit(name: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
          grad_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(out_data)
    if _tracked(*inputs):
        out.requires_grad = True
        _THREAD.tape.record(name, inputs, out, grad_fn)
    return out


class _Leaf(NamedTuple):
    """A leaf's gradient ``fn(*operands)``, computed when called.

    Each operand is batch-major: its axis 0 runs over the batch's rows in
    order (windows, or series or tokens, which a window's rows follow in
    turn), and it is laid out as an axis permutation of a C-ordered array
    with axis 0 outermost. ``np.concatenate`` gives two halves' operands,
    joined, that layout too, so :class:`LeafMerge` computes a batch's
    gradient from its halves' operands with the bits ``fn`` gives on the
    whole batch's. An operand may instead be a tuple of such arrays, blocks
    of items in batch order (a probe's ``g_A ⊙ A``), which two halves join
    by tuple concatenation, with no copy; ``fn`` then walks the blocks.
    """

    fn: Callable
    operands: tuple

    def __call__(self) -> np.ndarray:
        return self.fn(*self.operands)


def _leaf(fn: Callable, *operands: np.ndarray) -> _Leaf:
    return _Leaf(fn, operands)


def _weight_product(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``a.T @ g`` over the rows of ``a`` and ``g``, their leading axes
    folded (a C-ordered copy where they do not fold into a view).

    ``np.dot`` gives the bits of the ``@`` product and, unlike ``matmul``,
    releases the GIL for the whole BLAS call: ``matmul`` keeps it when the
    product has at most 500 elements, so a ``[16, 16]`` weight's 0.2 ms
    product, joined by one lane, would stall the other.
    """
    return np.dot(a.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]))


def _weight_grad(a: np.ndarray, g: np.ndarray) -> _Leaf:
    """A weight's gradient ``a.T @ g``, computed when called."""
    return _leaf(_weight_product, a, g)


def _leading_sum(g: np.ndarray) -> np.ndarray:
    """``g`` summed over every axis but the last: a bias's gradient."""
    return g.sum(axis=tuple(range(g.ndim - 1)))


def _first_axis_sum(g: np.ndarray) -> np.ndarray:
    return g.sum(axis=0)


def _item_sum(blocks: tuple) -> np.ndarray:
    """The sum over the items of ``blocks``, arrays of items in batch
    order, in that order, ``((p_0 + p_1) + p_2) ...``: the first block's
    sum over its first axis, then each later item added in place."""
    total = blocks[0].sum(axis=0)
    for block in blocks[1:]:
        for item in block:
            total += item
    return total


def embed(tokens: np.ndarray, w: Tensor, b: Tensor, pos: Tensor | None = None,
          keep: np.ndarray | None = None) -> Tensor:
    """Token embedding ``drop(tokens @ w + b + pos)`` in one record.

    ``tokens`` is a constant ``[N, S, k]`` array (patches of each series, or
    each channel's window), ``w`` is ``[k, d]``, ``b`` is ``[d]``, ``pos``
    is None or ``[S, d]``, and ``keep`` (``[N, S, d]``) holds
    :func:`keep_mask` multipliers, or is None for no dropout. ``b`` then
    ``pos`` are added in place on the GEMM output, with the bits of the
    unfused ``matmul``, ``add``, ``add`` and dropout.
    """
    k, d = w.shape if w.ndim == 2 else (-1, -1)
    if (tokens.ndim != 3 or tokens.shape[-1] != k or b.shape != (d,)
            or (pos is not None and pos.shape != (tokens.shape[1], d))):
        raise ShapeError(
            f"embed: shapes do not chain: tokens {tokens.shape}, w {w.shape}, "
            f"b {b.shape}, pos {None if pos is None else pos.shape}")
    shape = tokens.shape[:-1] + (d,)
    if keep is not None and keep.shape != shape:
        raise ShapeError(f"embed: keep shape {keep.shape} != {shape}")
    t2 = tokens.reshape(-1, k)
    out = (t2 @ w.data).reshape(shape)
    out += b.data
    if pos is not None:
        out += pos.data
    if keep is not None:
        out *= keep
    inputs = (w, b) if pos is None else (w, b, pos)

    def grad_fn(g):
        gd = g if keep is None else g * keep
        return (_weight_grad(t2, gd), _leaf(_leading_sum, gd),
                _leaf(_first_axis_sum, gd))[:len(inputs)]

    return _emit("embed", inputs, out, grad_fn)


# Bytes of [n, H, S, S] scores that attention_sublayer works on at a time:
# about half of a 2 MiB per-core L2, so each pass over the scores (scale,
# max, exp, sum, divide, the probe product, the softmax row-dot) finds its
# chunk in L2 next to the pass's other operands, instead of streaming the
# whole [B, H, S, S] tensor from L3. A chunk holds at least one item.
_ATTENTION_CHUNK_BYTES = 2**20


def attention_sublayer(h: Tensor, x: Tensor, w_q: Tensor, b_q: Tensor,
                       w_k: Tensor, b_k: Tensor, w_v: Tensor, b_v: Tensor,
                       w_e: Tensor, b_e: Tensor, heads: int,
                       keep: np.ndarray | None = None,
                       probe: Tensor | None = None) -> Tensor:
    """Multi-head self-attention sublayer with its residual, whose
    connections can be probed, in one record:
    ``h + drop(attend(x w_q + b_q, x w_k + b_k, x w_v + b_v) w_e + b_e)``.

    ``x`` and ``h`` are ``[B, S, d]`` (``x`` is ``h`` itself under
    post-norm), each ``w`` is ``[d, d]`` and each ``b`` is ``[d]``.
    ``attend`` splits ``q``, ``k`` and ``v`` into ``heads`` heads of width
    ``d_head = d / heads``; per head, ``A`` is the row softmax of
    ``q kᵀ / √d_head``, and the context ``A v`` is merged back to
    ``[B, S, d]``. ``keep`` (``[B, S, d]``) holds :func:`keep_mask`
    multipliers, or is None for no dropout.

    ``probe`` is None or a ``[heads, S, S]`` leaf that stands for a
    connection mask ``M`` on the scores, ``(A ⊙ M) v``, held at
    ``M = 1``. The op never reads its values. Its gradient is the
    derivative of the loss with respect to that all-ones mask,
    ``Σ_batch g_A ⊙ A``: the sensitivity of the loss to each attention
    score. Backward keeps each item's ``g_A ⊙ A`` in the buffer of the
    scores, which it no longer needs by then, and hands the probe a
    :class:`_Leaf` that sums them in batch order, ``((p_0 + p_1) + p_2)
    ...``, when called.

    Every product and reduction runs in the order and memory layout of the
    unfused composition of the linears, the head split and merge, batched
    matmuls, a scale, a row softmax, ``mul`` by an all-ones mask, dropout
    and the residual add, so both give identical bits. So ``x``'s gradient
    is three GEMMs, added as that tape accumulates them (v's, k's, q's,
    onto the residual's when ``x`` is ``h``), and each bias gradient sums
    the layout the head merge leaves (see ``merged`` and ``gk``).

    The batch is walked in chunks of ``_ATTENTION_CHUNK_BYTES`` worth of
    scores, forward and backward. Every GEMM on the scores is still one
    BLAS call per ``(b, h)`` slice and every row reduction stays within its
    row, so the chunking changes no bits.
    Only a taped op keeps the ``[B, H, S, S]`` scores; backward works on
    chunk-sized temporaries.

    The softmax backward reuses the product ``g_A ⊙ A`` that the probe
    gradient sums. When neither ``q`` nor ``k`` needs a gradient, as in
    the first attention layer that scoring on frozen weights reaches,
    backward stops once the ``v`` and probe gradients are out and skips
    the softmax backward.
    """
    d = x.shape[-1]
    linears = ((w_q, b_q), (w_k, b_k), (w_v, b_v), (w_e, b_e))
    if (x.ndim != 3 or h.shape != x.shape
            or any(w.shape != (d, d) or b.shape != (d,) for w, b in linears)):
        raise ShapeError(
            "attention_sublayer: h and x must share one [B, S, d] shape, "
            "each weight be [d, d] and each bias [d], got h "
            f"{h.shape}, x {x.shape}, "
            + ", ".join(f"{w.shape} {b.shape}" for w, b in linears))
    batch, s, _ = x.shape
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention_sublayer: width {d} does not split into "
                         f"{heads} heads")
    for name, a, shape in (("probe", probe, (heads, s, s)),
                           ("keep", keep, x.shape)):
        if a is not None and a.shape != shape:
            raise ShapeError(f"attention_sublayer: {name} shape {a.shape} "
                             f"!= {shape}")
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

    inputs = (h, x) + sum(linears, ()) + (() if probe is None else (probe,))
    need_x = x.requires_grad
    need_q, need_k, need_v = (need_x or w.requires_grad or b.requires_grad
                              for w, b in linears[:3])
    need_probe = probe is not None and probe.requires_grad
    need_ctx = need_q or need_k or need_v or need_probe
    save = _tracked(*inputs) and need_ctx

    x2 = x.data.reshape(-1, d)

    def linear(a2, w, b):
        out = (a2 @ w.data).reshape(batch, s, d)
        out += b.data
        return out

    qh, kh, vh = (split(linear(x2, w, b)) for w, b in linears[:3])
    att = np.empty((batch, heads, s, s)) if save else None
    scratch = None if save else np.empty((n, heads, s, s))
    ctx = merged()
    ctx_h = split(ctx)
    for sl in chunks:
        # the chunk's scores, softmax and context
        a = att[sl] if save else scratch[:sl.stop - sl.start]
        np.matmul(qh[sl], np.swapaxes(kh[sl], -1, -2), out=a)
        a *= c
        if not np.isfinite(a).all():
            raise NumericError(
                "attention_sublayer: attention scores contain NaN or Inf")
        a -= a.max(axis=-1, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=-1, keepdims=True)
        np.matmul(a, vh[sl], out=ctx_h[sl])
    ctx2 = ctx.reshape(-1, d)
    out = linear(ctx2, w_e, b_e)
    if keep is not None:
        out *= keep
    out += h.data
    shared = x is h

    def attend_backward(g_ctx):
        """The q, k, v and probe gradients from the context's."""
        gq, gv = (merged() if need else None for need in (need_q, need_v))
        gq_h, gv_h = (None if g is None else split(g) for g in (gq, gv))
        # k's gradient keeps the unfused layout, a [B, S, d] view of
        # [B, H, d_head, S]: the bias gradient's sum over it depends on it
        gk_t = np.empty((batch, heads, dh, s)) if need_k else None
        ga, prod = np.empty((n, heads, s, s)), np.empty((n, heads, s, s))
        for sl in chunks:
            nb = sl.stop - sl.start
            a, p, gac = att[sl], prod[:nb], ga[:nb]
            if need_v:
                np.matmul(np.swapaxes(a, -1, -2), g_ctx[sl], out=gv_h[sl])
            np.matmul(g_ctx[sl], np.swapaxes(vh[sl], -1, -2), out=gac)  # dL/dA
            np.multiply(gac, a, out=p)
            if need_q or need_k:
                # the row-softmax and scale backward, in place
                gac -= p.sum(axis=-1, keepdims=True)
                gac *= a
                gac *= c
                if need_q:
                    np.matmul(gac, kh[sl], out=gq_h[sl])
                if need_k:
                    np.matmul(np.swapaxes(qh[sl], -1, -2), gac, out=gk_t[sl])
            if need_probe:
                a[...] = p
        gk = (np.swapaxes(gk_t, -1, -2).transpose(0, 2, 1, 3)
              .reshape(batch, s, d) if need_k else None)
        return gq, gk, gv, _leaf(_item_sum, (att,)) if need_probe else None

    def grad_fn(g):
        gd = g if keep is None else g * keep
        gd2 = gd.reshape(-1, d)
        gq = gk = gv = gp = None
        if need_ctx:
            gq, gk, gv, gp = attend_backward(
                split((gd2 @ w_e.data.T).reshape(batch, s, d)))

        def linear_backward(gl, w):
            """w's and its bias's gradients, and x's share, of a q, k or v
            linear."""
            if gl is None:
                return None, None, None
            return (_weight_grad(x2, gl), _leaf(_leading_sum, gl),
                    (gl.reshape(-1, d) @ w.data.T).reshape(x.shape)
                    if need_x else None)

        gw_q, gb_q, gx_q = linear_backward(gq, w_q)
        gw_k, gb_k, gx_k = linear_backward(gk, w_k)
        gw_v, gb_v, gx_v = linear_backward(gv, w_v)
        gh, gx = g, None
        if need_x:
            # summed in the order the unfused tape accumulates them
            gx = ((g + gx_v if shared else gx_v) + gx_k) + gx_q
        if shared:
            gh, gx = gx, None
        return (gh, gx, gw_q, gb_q, gw_k, gb_k, gw_v, gb_v,
                _weight_grad(ctx2, gd), _leaf(_leading_sum, gd),
                gp)[:len(inputs)]

    return _emit("attention_sublayer", inputs, out, grad_fn)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale
    by ``gamma`` and shift by ``beta`` (both ``[d]``).

    One record covers the normalization and the affine map. The arithmetic
    is that of ``np.var`` and of the unfused ``y * gamma + beta``: the
    variance is the mean square of the centred array, ``beta`` is added in
    place on the product, and the ``gamma`` and ``beta`` gradients are
    sums over every leading axis at once, so both give identical bits.
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

    def grad_fn(g):
        gy = g * g_data
        t = gy * y
        gym = t.mean(axis=-1, keepdims=True)
        gy -= gy.mean(axis=-1, keepdims=True)
        gy -= np.multiply(y, gym, out=t)
        gy *= inv
        # gamma's gradient sums g * y, formed here where gamma needs one:
        # a lane's merge then joins that one operand, not g and y apart
        return (gy, _leaf(_leading_sum, g * y) if gamma.requires_grad else None,
                _leaf(_leading_sum, g))

    return _emit("layer_norm", (a, gamma, beta), out, grad_fn)


def keep_mask(rng: np.random.Generator, shape: tuple[int, ...],
              rate: float) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability ``rate``, else
    ``1 / (1 - rate)``. One ``rng.random`` draw of ``shape``."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


@functools.lru_cache
def _advances_by_doubles(kind: type) -> bool:
    """Whether ``advance(n)`` on a bit generator of type ``kind`` passes
    over the outputs of ``n`` doubles of ``Generator.random`` (it does for
    PCG64 and PCG64DXSM, whose doubles take one 64-bit output each, and
    not for Philox). Tried once per type."""
    if not hasattr(kind, "advance"):
        return False
    drawn, skipped = (np.random.Generator(kind(0)) for _ in range(2))
    skipped.bit_generator.advance(3)
    return drawn.random(4)[3] == skipped.random()


def skip_draws(rng: np.random.Generator, n: int) -> None:
    """Move ``rng`` past ``n`` doubles of ``rng.random``: by ``advance``,
    which is exact and cheap, where it counts doubles, else by drawing
    them."""
    if _advances_by_doubles(type(rng.bit_generator)):
        rng.bit_generator.advance(n)
    else:
        for start in range(0, n, 2**20):
            rng.random(min(2**20, n - start))


class KeepMasks:
    """The dropout keep masks of one training forward: the successive
    draws ``keep_mask(rng, shape, rate)`` for each of ``shapes``, in order.

    Given ``rows = (start, stop, batch)``, the forward holds windows
    ``start`` to ``stop`` of a batch of ``batch`` whose masks have
    ``shapes``: each mask is that lane's rows of the batch's mask (axis 0
    runs over windows, or over each window's series, in order), drawn from
    a copy of ``rng`` moved past the draws before them
    (:func:`skip_draws`), so the lanes' masks, joined, are the batch's
    bytes. ``rng`` itself is left as it is.

    Each op :meth:`take` s the next mask, drawn then, and names the shape
    it needs; a shape other than the one listed raises
    :class:`ContractError`. Used as a context manager around the forward:
    a forward that ran to its end must have taken every listed mask.
    """

    def __init__(self, rng: np.random.Generator,
                 shapes: Sequence[tuple[int, ...]], rate: float,
                 rows: tuple[int, int, int] | None = None):
        self._rate = rate
        self._shapes = [tuple(shape) for shape in shapes]
        self._skips = [0] * len(self._shapes)
        if rows is not None:
            start, stop, batch = rows
            rng, after = copy.deepcopy(rng), 0
            for i, shape in enumerate(self._shapes):
                per_window = math.prod(shape) // batch
                self._skips[i] = after + start * per_window
                after = (batch - stop) * per_window
                self._shapes[i] = ((stop - start) * shape[0] // batch,) + shape[1:]
        self._rng = rng
        self._taken = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next mask, which must have ``shape``."""
        i = self._taken
        listed = self._shapes[i] if i < len(self._shapes) else None
        if listed != tuple(shape):
            raise ContractError(f"keep mask {i}: an op needs shape {shape}, "
                                f"the forward listed {listed}")
        self._taken += 1
        skip_draws(self._rng, self._skips[i])
        return keep_mask(self._rng, listed, self._rate)

    def __enter__(self) -> "KeepMasks":
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and self._taken != len(self._shapes):
            raise ContractError(f"the forward listed {len(self._shapes)} "
                                f"keep masks and took {self._taken}")
        return False


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
    and the bias gradients are sums over every leading axis at once.
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
    need_x = x.requires_grad

    def grad_fn(g):
        gv = g if keep2 is None else g * keep2
        gv2 = gv.reshape(-1, d)
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
        gu2 = gu.reshape(-1, f)
        gx = (gu2 @ w1_data.T).reshape(x.shape) if need_x else None
        return (g, gx, _weight_grad(x2, gu), _leaf(_leading_sum, gu),
                _weight_grad(z2, gv), _leaf(_leading_sum, gv))

    return _emit("ffn", (h, x, w1, b1, w2, b2), out, grad_fn)


def head(h: Tensor, w: Tensor, b: Tensor, channels: int,
         sigma: np.ndarray | None = None,
         mu: np.ndarray | None = None) -> Tensor:
    """Forecast head ``rows @ w + b``, laid out as ``[B, T, C]``, then
    ``* sigma + mu``, in one record.

    Variate tokens are ``h`` ``[B, C, d]``, ``w`` ``[d, T]``: each token is
    a row. Patch tokens are ``h`` ``[B * C, S, d]``, ``w`` ``[S * d, T]``:
    each series' tokens flatten into a row. ``sigma`` and ``mu`` are the
    constant ``[B, 1, C]`` instance statistics, or both None. Arithmetic
    and layouts are those of the unfused ``reshape``, ``matmul``, ``add``,
    ``transpose``, ``mul`` and ``add``: ``b``'s gradient sums a transposed
    ``[B, C, T]`` view for variate tokens, a ``[B * C, T]`` copy for patches.
    """
    k, t = w.shape if w.ndim == 2 else (-1, -1)
    per_token = h.ndim == 3 and h.shape[1:] == (channels, k)
    per_series = (h.ndim == 3 and h.shape[1] * h.shape[2] == k
                  and channels > 0 and h.shape[0] % channels == 0)
    if not (per_token or per_series) or b.shape != (t,):
        raise ShapeError(f"head: shapes do not chain: h {h.shape}, w {w.shape}, "
                         f"b {b.shape}, {channels} channels")
    rows = h.data.reshape(-1, k)
    out = rows @ w.data
    out += b.data
    out = out.reshape(-1, channels, t).transpose(0, 2, 1)
    if sigma is not None:
        out = out * sigma + mu

    def grad_fn(g):
        g3 = np.transpose(g if sigma is None else g * sigma, (0, 2, 1))
        g2 = g3.reshape(-1, t)
        return ((g2 @ w.data.T).reshape(h.shape) if h.requires_grad else None,
                _weight_grad(rows, g3), _leaf(_leading_sum, g3 if per_token
                                              else g2))

    return _emit("head", (h, w, b), out, grad_fn)


def mse_loss(pred: Tensor, target, count: int | None = None) -> Tensor:
    """Mean squared error over every element, against a constant
    ``target``, in one record with the bits of the unfused ``sub``, ``mul``
    and ``mean``: the gradient adds the square's two equal halves.

    Given ``count``, the squared errors are summed and divided by
    ``count``: one part's share of the mean over a batch of ``count``
    elements, whose gradient is that batch's, bit for bit.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: prediction shape {pred.shape} != "
                         f"target shape {target.shape}")
    diff = pred.data - target
    square = diff * diff
    shape = square.shape
    size = square.size if count is None else count
    out = square.sum() / size

    def grad_fn(g):
        half = np.broadcast_to(g / size, shape).copy() * diff
        return (half + half,)

    return _emit("mse_loss", (pred,), out, grad_fn)
