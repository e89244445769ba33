"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable operation records itself on the active :class:`Tape`;
``Tape.backward`` replays the records in exact reverse order, accumulating
gradients additively; afterwards only leaves (parameters, probes) keep one.
Data buffers are row-major ``numpy`` arrays and stay immutable after
creation (only ``grad`` is assigned during backward).

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

Work on numpy arrays that releases the GIL runs partly on one helper
thread, a one-worker executor started the first time it is needed (see
:func:`_helper`):

* pieces of one op, shared with :func:`_share`: the batch chunks of
  :func:`attention_sublayer`, forward and backward, and the two halves of
  the GELU's ``erf`` on large arrays in :func:`ffn`. Each thread takes the
  next piece not yet taken;
* the leaf gradients of ``Tape.backward``: a record's parameter and probe
  gradients are computed and accumulated on the helper while the calling
  thread carries the other gradients down the tape;
* the dropout keep masks of a training forward, drawn by
  :class:`KeepMasks` ahead of use;
* one of the two lanes of :func:`two_lanes`: an untaped forecast of many
  windows carries each half of them through the whole model on its own
  thread.

Every piece of work does the arithmetic it does alone. The helper runs its
jobs one at a time in the order they were handed over, so each leaf sums
its gradients, and a generator makes its draws, in the serial order; sums
across pieces keep their serial order too. So outputs, gradients and masks
are the same bytes on one thread or two. The helper thread, and a thread
running a lane, works alone: :func:`_helper` is None on it, so whatever it
runs, it runs inline. When the process's CPU affinity holds one CPU
(``taskset -c 0``), no thread is started and all of it runs in order on
the calling thread.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericError, ShapeError

__all__ = [
    "ACTIVATIONS",
    "KeepMasks",
    "Tape",
    "Tensor",
    "attention_sublayer",
    "embed",
    "ffn",
    "head",
    "keep_mask",
    "layer_norm",
    "mse_loss",
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
    arena buys no concurrency, and the helper thread's own arena would
    keep a second pool of freed memory that the calling thread, which
    frees the masks and gradients the helper allocates, cannot reuse. The
    policy is process-wide, like the allocator. Where libc has no
    ``mallopt``, nothing changes.
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


def _forget_helper() -> None:
    """Start without a helper thread: the next :func:`_helper` call reads
    the CPU affinity again.

    Runs at import and in a forked child, which inherits the parent's
    executor but not its thread, so jobs handed to it would never run.
    """
    global _HELPER, _HELPER_LOCK
    _HELPER = None        # None: not yet decided; False: one CPU, no thread
    _HELPER_LOCK = threading.Lock()


_forget_helper()
if hasattr(os, "register_at_fork"):       # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_helper)


class _ThreadState(threading.local):
    """Per thread: whether it works alone, handing nothing to the helper.
    True on the helper thread itself and on a thread while it runs a lane
    of :func:`two_lanes`."""

    def __init__(self):
        self.alone = False


_THREAD = _ThreadState()


def _work_alone() -> None:
    _THREAD.alone = True


def _helper() -> ThreadPoolExecutor | None:
    """The helper thread's one-worker executor, started the first time it
    is asked for, or None when the process may run on one CPU only (its
    affinity where the OS reports one, else the CPU count) or the running
    thread works alone: a job on the helper waiting for a job it handed to
    itself would wait forever, and a lane's other half keeps the helper
    busy."""
    global _HELPER
    if _THREAD.alone:
        return None
    if _HELPER is None:
        with _HELPER_LOCK:
            if _HELPER is None:
                cpus = (len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity")   # Linux only
                        else os.cpu_count() or 1)
                _HELPER = cpus > 1 and ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="spat",
                    initializer=_work_alone)
    return _HELPER or None


def _slots(pieces: int) -> int:
    """The threads that :func:`_share` runs ``pieces`` pieces on: 2 when
    there are two or more and :func:`_helper` gives a helper thread, else
    1 (always 1 on the helper and in a lane). A caller allocates one set of
    scratch buffers per thread."""
    return 2 if pieces >= 2 and _helper() else 1


@functools.lru_cache
def split_rows_alike(rows: int, split: int, k: int, n: int) -> bool:
    """Whether a ``[rows, k] @ [k, n]`` product gives every row the bits
    it gets when the first ``split`` rows and the rest are multiplied
    apart.

    BLAS picks its kernel, and with it the order of each row's sums, by
    the operands' sizes. With OpenBLAS 0.3.31 on a 2-core AVX-512 machine,
    ``[5376, 16] @ [16, 12]`` halved at row 2688 changes bits, and so does
    ``[64, 512] @ [512, 32]`` halved at row 32, while each product of the
    synthetic_small forecaster does not. Tried once per shape, on C-ordered
    random operands as the model's linears are.
    """
    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((rows, k)), rng.standard_normal((k, n))
    return np.array_equal(a @ w, np.concatenate((a[:split] @ w,
                                                 a[split:] @ w)))


def two_lanes(work: Callable[[np.ndarray], np.ndarray],
              halves: tuple[np.ndarray, np.ndarray], elements: int,
              alike: Callable[[], bool]
              ) -> tuple[np.ndarray, np.ndarray] | None:
    """``(work(halves[0]), work(halves[1]))``, the second run on the helper
    thread while the calling thread runs the first; or None, having run
    nothing, when the hand-off does not pay, cannot be made or would
    change bits.

    It pays from ``elements``, the size of the largest activation the work
    makes on both halves together, of ``_SHARED_ERF_SIZE``: the size from
    which :func:`ffn` hands half of one ``erf`` to the helper. Lanes need a
    helper thread, which a process on one CPU, the helper itself and a lane
    do not have, and no active tape: records from two threads would
    interleave. ``alike()`` says whether the work gives each half the bits
    it gives it as part of the whole; it is asked last, as it may try
    products (see :func:`split_rows_alike`). Each lane works alone (see
    :func:`_helper`), so no op in it shares pieces, and each half stays in
    one core's cache. If either lane raises, the other is waited for and
    the exception (the calling thread's, if both raise) is raised here.
    """
    if elements < _SHARED_ERF_SIZE or _ACTIVE_TAPE is not None:
        return None
    helper = _helper()
    if helper is None or not alike():
        return None
    second = helper.submit(work, halves[1])
    _THREAD.alone = True
    try:
        first = work(halves[0])
    finally:
        _THREAD.alone = False
        wait([second])
    return first, second.result()


class _Pieces:
    """The pieces of one :func:`_share` call, handed out in order to
    whichever thread asks first: the next piece to hand out, and whose turn
    it is to run an in-order step, or -1 once either thread has failed."""

    def __init__(self, count: int):
        self._cond = threading.Condition()
        self.count = count
        self.next = 0
        self.turn = 0

    def claim(self) -> int | None:
        """The next piece, or None once every piece is handed out or a
        thread has failed."""
        with self._cond:
            if self.turn < 0 or self.next == self.count:
                return None
            self.next += 1
            return self.next - 1

    def take(self, i: int) -> bool:
        """Wait for piece ``i``'s in-order turn; False if a thread failed
        first."""
        with self._cond:
            self._cond.wait_for(lambda: self.turn in (i, -1))
            return self.turn == i

    def give(self, turn: int) -> None:
        """Hand the in-order turn on; after a failure it stays -1."""
        with self._cond:
            if self.turn >= 0:
                self.turn = turn
            self._cond.notify_all()


def _share(work: Callable[[int, int], None], pieces: int, slots: int,
           in_order: Callable[[int, int], None] | None = None) -> None:
    """Run ``work(i, slot)`` and then ``in_order(i, slot)``, if given, for
    each piece ``i`` in ``range(pieces)``.

    With ``slots`` 1 (from :func:`_slots`) the calling thread runs every
    piece in order as slot 0. With 2 the calling thread, as slot 0, and the
    helper thread, as slot 1, each take the next piece not yet taken until
    none is left, so the calling thread runs them all while the helper is
    busy with jobs handed to it earlier. ``in_order(i, ...)`` starts only
    after ``in_order(i - 1, ...)`` has returned, so a running sum it
    extends is added to in the serial order. A slot's pieces may share its
    scratch buffers, one piece at a time. An exception on either thread
    stops the other at its next piece or turn, and is raised here once
    the helper has stopped (the calling thread's, if both raise). The pieces
    must not touch the tape.
    """
    if slots == 1:
        for i in range(pieces):
            work(i, 0)
            if in_order is not None:
                in_order(i, 0)
        return
    shared = _Pieces(pieces)

    def run(slot):
        try:
            while (i := shared.claim()) is not None:
                work(i, slot)
                if in_order is not None:
                    if not shared.take(i):
                        return
                    in_order(i, slot)
                    shared.give(i + 1)
        except BaseException:
            shared.give(-1)
            raise

    helper = _helper().submit(run, 1)
    try:
        run(0)
    finally:
        # a helper still busy with earlier jobs never starts this one
        if not helper.cancel():
            wait([helper])
    if not helper.cancelled():
        helper.result()


_ACTIVE_TAPE: "Tape | None" = None

# Leaf-gradient jobs Tape.backward lets wait on the helper thread at once.
# A job holds the buffers its gradients are computed from, which a serial
# backward frees with the record, so a helper that falls behind (when the
# OS runs something else on its core) would hold those of every record it
# has not reached. In 30 s runs of perfbench's pipeline_temporal on a
# 2-core machine, peak RSS was 114.1-114.6 MB with a serial backward,
# 116.4-119.3 MB with no bound and an arena per thread, and 115.5-116.1 MB
# with this bound and one arena (see _keep_freed_memory).
_LEAF_JOBS_WAITING = 2


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
        """Add to ``grad`` on every gradient-requiring leaf reachable from
        ``loss``, accumulating additively across fan-out.

        Only here is it decided which gradients run and how they add up: a
        ``grad_fn`` returns a gradient or None for each input, backward
        keeps those of inputs that require one, and :func:`_accumulate`
        adds each to its tensor's ``grad``. A leaf's ``grad`` so sums over
        backward passes until ``zero_grad``, as scoring's probes do over
        batches.

        Gradients may be shared: a ``grad_fn`` may hand one array to
        several inputs or return a view of its incoming gradient, and a
        first contribution is stored as is. So nothing writes into a
        ``.grad`` or into an array a ``grad_fn`` returned; later
        contributions accumulate out of place. Each record is popped, with
        its output gradient and saved buffers, as soon as it has run, so
        afterwards the tape is empty and only leaves (parameters and probes)
        hold a ``grad``. A loss on this tape implies a record, so an empty
        tape was already replayed.

        A ``grad_fn`` returns the weight and bias gradients of the model's
        ops as zero-argument callables, since no later record reads them;
        those of frozen leaves are never called. The calling thread carries
        the gradients of non-leaf tensors down the tape, and each record's
        leaf contributions are computed and accumulated by one job on the
        helper thread (:func:`_helper`). The helper runs its jobs one at a
        time in the order they were handed over, which is the order of the
        records, so every leaf sums its contributions in the serial order
        and ``grad`` holds the same bytes on one thread or two. A job works
        alone, as everything on the helper does. With one CPU each job runs
        on the calling thread as it is handed over. At most
        ``_LEAF_JOBS_WAITING`` jobs wait at once: the calling thread waits
        for the oldest before it hands over another. ``backward`` returns,
        or raises, only once every job has run. An exception in a job is
        raised here once the calling thread waits for that job (the calling
        thread's own, if it raises too).
        """
        if loss.data.shape != ():
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise ContractError("loss does not live on this tape")
        if not self._records:
            raise ContractError("tape already consumed by an earlier backward")
        loss.grad = np.ones((), dtype=np.float64)
        helper = _helper()
        jobs = []
        try:
            while self._records:
                rec = self._records.pop()
                g_out = rec.output.grad
                if g_out is None:
                    continue
                rec.output.grad = None
                kept = [(t, g) for t, g in zip(rec.inputs, rec.grad_fn(g_out))
                        if g is not None and t.requires_grad]
                _accumulate([(t, g) for t, g in kept if t._tape is not None])
                leaves = [(t, g) for t, g in kept if t._tape is None]
                if not leaves:
                    continue
                if helper:
                    if len(jobs) >= _LEAF_JOBS_WAITING:
                        jobs[-_LEAF_JOBS_WAITING].result()
                    jobs.append(helper.submit(_accumulate, leaves))
                else:
                    _accumulate(leaves)
        finally:
            wait(jobs)
        for job in jobs:
            job.result()


def _accumulate(grads: list[tuple["Tensor", object]]) -> None:
    """Add each gradient, computed first where it is a callable, to its
    tensor's ``grad``, in order."""
    for t, g in grads:
        if callable(g):
            g = g()
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


# -- helpers -----------------------------------------------------------


def _tracked(*tensors: Tensor) -> bool:
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in tensors)


def _emit(name: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
          grad_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(out_data)
    if _tracked(*inputs):
        out.requires_grad = True
        _ACTIVE_TAPE.record(name, inputs, out, grad_fn)
    return out


def _weight_grad(a: np.ndarray, g: np.ndarray) -> Callable[[], np.ndarray]:
    """A weight's gradient ``a.T @ g``, computed when called.

    ``np.dot`` gives the bits of the ``@`` product and, unlike ``matmul``,
    releases the GIL for the whole BLAS call: ``matmul`` keeps it when the
    product has at most 500 elements, so on the helper thread a ``[16,
    16]`` weight's 0.2 ms product would stall the calling thread.
    """
    return lambda: np.dot(a.T, g)


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
        return (_weight_grad(t2, gd.reshape(-1, d)),
                lambda: gd.sum(axis=(0, 1)), lambda: gd.sum(axis=0))[:len(inputs)]

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
    score.

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
    row, so the chunking changes no bits. The probe gradient's sum over the
    batch keeps its sequential order: each chunk's sum starts from the
    running sum as its row 0, rather than adding per-chunk partial sums.
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
    slots = _slots(len(chunks))
    att = np.empty((batch, heads, s, s)) if save else None
    scratch = None if save else np.empty((slots, n, heads, s, s))
    ctx = merged()
    ctx_h = split(ctx)

    def attend(i, slot):
        """Chunk i's scores, softmax and context."""
        sl = chunks[i]
        a = att[sl] if save else scratch[slot][:sl.stop - sl.start]
        np.matmul(qh[sl], np.swapaxes(kh[sl], -1, -2), out=a)
        a *= c
        if not np.isfinite(a).all():
            raise NumericError(
                "attention_sublayer: attention scores contain NaN or Inf")
        a -= a.max(axis=-1, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=-1, keepdims=True)
        np.matmul(a, vh[sl], out=ctx_h[sl])

    _share(attend, len(chunks), slots)
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
        ga = np.empty((slots, n, heads, s, s))
        # per thread: rows 1.. hold a chunk's products g_A ⊙ A; row 0
        # carries the probe gradient's running sum into the chunk's sum
        prod = np.empty((slots, n + 1, heads, s, s))
        gp = None

        def chunk_backward(i, slot):
            """Chunk i's v gradient, products g_A ⊙ A, and q and k
            gradients."""
            sl = chunks[i]
            nb = sl.stop - sl.start
            a, p, gac = att[sl], prod[slot][1:nb + 1], ga[slot][:nb]
            if need_v:
                np.matmul(np.swapaxes(a, -1, -2), g_ctx[sl], out=gv_h[sl])
            np.matmul(g_ctx[sl], np.swapaxes(vh[sl], -1, -2), out=gac)  # dL/dA
            np.multiply(gac, a, out=p)
            if not (need_q or need_k):
                return
            # the row-softmax and scale backward, in place
            gac -= p.sum(axis=-1, keepdims=True)
            gac *= a
            gac *= c
            if need_q:
                np.matmul(gac, kh[sl], out=gq_h[sl])
            if need_k:
                np.matmul(np.swapaxes(qh[sl], -1, -2), gac, out=gk_t[sl])

        def probe_sum(i, slot):
            """Add chunk i's products to the probe gradient's running sum."""
            nonlocal gp
            nb = chunks[i].stop - chunks[i].start
            if gp is None:
                gp = prod[slot][1:nb + 1].sum(axis=0)
            else:
                prod[slot][0] = gp
                gp = prod[slot][:nb + 1].sum(axis=0)

        _share(chunk_backward, len(chunks), slots,
               probe_sum if need_probe else None)
        gk = (np.swapaxes(gk_t, -1, -2).transpose(0, 2, 1, 3)
              .reshape(batch, s, d) if need_k else None)
        return gq, gk, gv, gp

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
            gl2 = gl.reshape(-1, d)
            return (_weight_grad(x2, gl2), lambda: gl.sum(axis=(0, 1)),
                    (gl2 @ w.data.T).reshape(x.shape) if need_x else None)

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
                _weight_grad(ctx2, gd2), lambda: gd.sum(axis=(0, 1)),
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
    lead = tuple(range(a.ndim - 1))
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
        return gy, lambda: (g * y).sum(axis=lead), lambda: g.sum(axis=lead)

    return _emit("layer_norm", (a, gamma, beta), out, grad_fn)


def keep_mask(rng: np.random.Generator, shape: tuple[int, ...],
              rate: float) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability ``rate``, else
    ``1 / (1 - rate)``. One ``rng.random`` draw of ``shape``."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


class KeepMasks:
    """The dropout keep masks of one training forward: the successive
    draws ``keep_mask(rng, shape, rate)`` for each of ``shapes``, in order,
    made on the helper thread (:func:`_helper`) while the calling thread
    computes.

    All the draws are handed to the helper at once (on a 2-core machine a
    synthetic_small training step took 74 ms this way and 80 ms with one
    draw handed over ahead of the mask in use). The helper runs its jobs
    one at a time in the order they were handed over, so the masks are the
    bytes of the serial draws and ``rng`` ends in the same state. With one
    CPU each mask is drawn on the calling thread when it is taken. Each op
    :meth:`take` s the next mask and names the shape it needs, and a shape
    other than the one listed raises :class:`ContractError`. Used as a
    context manager around the forward: on leaving it the draws still on
    the helper are waited for, so ``rng`` is no longer in use, and a
    forward that ran to its end must have taken every listed mask.
    """

    def __init__(self, rng: np.random.Generator,
                 shapes: Sequence[tuple[int, ...]], rate: float):
        self._rng, self._rate = rng, rate
        self._shapes = [tuple(shape) for shape in shapes]
        helper = _helper()
        self._draws = None if helper is None else [
            helper.submit(keep_mask, rng, shape, rate) for shape in self._shapes]
        self._taken = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next mask, which must have ``shape``."""
        i = self._taken
        listed = self._shapes[i] if i < len(self._shapes) else None
        if listed != tuple(shape):
            raise ContractError(f"keep mask {i}: an op needs shape {shape}, "
                                f"the forward listed {listed}")
        self._taken += 1
        if self._draws is None:
            return keep_mask(self._rng, listed, self._rate)
        return self._draws[i].result()

    def __enter__(self) -> "KeepMasks":
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._draws is not None:
            wait(self._draws)
        if exc_type is None and self._taken != len(self._shapes):
            raise ContractError(f"the forward listed {len(self._shapes)} "
                                f"keep masks and took {self._taken}")
        return False


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
ACTIVATIONS = ("gelu", "relu")
# Elements from which ffn splits the GELU's erf into two row halves, one
# per thread. scipy's erf takes 4-20 ns an element (more where |x| > 1) and
# a hand-off to the helper thread tens of microseconds, so a batch-64 or
# training FFN (172,032 elements at synthetic_small) gains and a batch-1
# forecast (2,688 or 8,192) stays inline.
_SHARED_ERF_SIZE = 2**16


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
    lead_axes = tuple(range(len(lead)))
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
        if phi.size < _SHARED_ERF_SIZE:
            erf(phi, out=phi)
        else:
            rows = phi.reshape(-1, f)
            halves = (rows[:len(rows) // 2], rows[len(rows) // 2:])

            def erf_half(i, slot):
                erf(halves[i], out=halves[i])

            _share(erf_half, 2, _slots(2))
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
        return (g, gx, _weight_grad(x2, gu2), lambda: gu.sum(axis=lead_axes),
                _weight_grad(z2, gv2), lambda: gv.sum(axis=lead_axes))

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
                _weight_grad(rows, g2),
                (lambda: g3.sum(axis=(0, 1))) if per_token
                else lambda: g2.sum(axis=0))

    return _emit("head", (h, w, b), out, grad_fn)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error over every element, against a constant
    ``target``, in one record with the bits of the unfused ``sub``, ``mul``
    and ``mean``: the gradient adds the square's two equal halves."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: prediction shape {pred.shape} != "
                         f"target shape {target.shape}")
    diff = pred.data - target
    square = diff * diff
    out = square.mean()
    shape, size = square.shape, square.size

    def grad_fn(g):
        half = np.broadcast_to(g / size, shape).copy() * diff
        return (half + half,)

    return _emit("mse_loss", (pred,), out, grad_fn)
