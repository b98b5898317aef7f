"""Reverse-mode automatic differentiation on a flat gradient tape.

Everything is dense float64. A ``Tensor`` wraps a numpy array; while a
``Tape`` is active, every primitive applied to a tensor that requires
gradients appends one node to the tape. ``Tape.backward`` walks the nodes
in reverse construction order (which is a valid topological order) and
accumulates vector-Jacobian products into a per-node gradient map; only
the leaves' gradients outlive the sweep. Each node's backward function
runs at most once: the sweep drops it, with the forward values it
captured, as it passes the node, so the backward pass reuses their
memory instead of adding to it.

Per-item ops (conv1d, layer norm, attention, gelu, add, the layer mix,
matmul of a (B, T, D) stack by a matrix, and the tape's sum of two
gradients of one tensor) split their leading axis into one share per
usable CPU (``_in_shares``, on persistent worker threads); all but
attention go through ``_split_leading``, which keeps a small op whole,
in the calling thread. An item gets the same float operations whatever
the split, and sums across the batch (conv1d's kernel gradient, layer
norm's gain and bias gradients, the layer-mix weights' gradients,
broadcast sums) stay in the calling thread, so results do not depend
on the number of CPUs. Importing the module sets numpy's bundled
OpenBLAS to one thread for the whole process, so they do not depend on
``OPENBLAS_NUM_THREADS`` either.

The module also carries the one parameter update, ``optimizer_step``
(plain gradient descent or Adam, after a missing- and non-finite-gradient
guard), the gradient-reversal primitive used for adversarial feature
learning, and a finite-difference gradient checker.
"""

from __future__ import annotations

import ctypes
import math
import os
import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

Array = np.ndarray

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class NumericsError(ArithmeticError):
    """Raised when a non-finite value would corrupt a parameter update."""


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """Dense float64 array with an optional handle into the active tape."""

    __slots__ = ("data", "requires_grad", "node_id", "tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.node_id: int | None = None
        self.tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"


class _Node:
    __slots__ = ("op", "input_ids", "backward_fn")

    def __init__(self, op: str, input_ids, backward_fn):
        self.op = op
        self.input_ids = input_ids
        self.backward_fn = backward_fn


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Node ids are assigned in construction order, so inputs always precede
    consumers and a single reverse sweep implements backpropagation. A tape
    is single-use: after ``backward`` it is finalized and refuses further
    recording.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self.gradients: dict[int, Array] = {}
        self._finalized = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._nodes)

    def _register_leaf(self, t: Tensor) -> int:
        if self._finalized:
            raise RuntimeError("tape already consumed by backward")
        node_id = len(self._nodes)
        self._nodes.append(_Node("leaf", (), None))
        t.node_id = node_id
        t.tape = self
        return node_id

    def _record(self, op: str, inputs: Sequence[Tensor], out_data: Array,
                backward_fn) -> Tensor:
        if self._finalized:
            raise RuntimeError("tape already consumed by backward")
        input_ids = []
        for t in inputs:
            if t.requires_grad:
                if t.tape is not self or t.node_id is None:
                    self._register_leaf(t)
                input_ids.append(t.node_id)
            else:
                input_ids.append(None)
        out = Tensor(out_data, requires_grad=True)
        out.node_id = len(self._nodes)
        out.tape = self
        self._nodes.append(_Node(op, tuple(input_ids), backward_fn))
        return out

    def backward(self, loss: Tensor) -> dict[int, Array]:
        """Accumulate d(loss)/d(leaf) for every leaf reachable from ``loss``.

        The loss must be a scalar recorded on this tape. The sweep drops
        every op node's ``backward_fn`` as it passes the node, after
        running it once if a gradient reached the node, so the forward
        values it captured are freed during the sweep; an op node's
        gradient is freed once its ``backward_fn`` has used it. A second
        gradient reaching a node is added in shares
        (``_split_leading``). Returns
        the leaves' node-id -> gradient map (also ``self.gradients``);
        the tape is then finalized and cannot record further operations.
        """
        if not self._nodes:
            raise ValueError("backward on an empty tape")
        if loss.tape is not self or loss.node_id is None:
            raise ValueError("loss tensor was not recorded on this tape")
        if loss.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        grads = {loss.node_id: np.ones_like(loss.data)}
        for node_id in range(len(self._nodes) - 1, -1, -1):
            node = self._nodes[node_id]
            if node.op == "leaf":
                continue  # a leaf keeps its gradient
            bwd, node.backward_fn = node.backward_fn, None
            g = grads.pop(node_id, None)
            if g is None:
                continue
            for in_id, in_g in zip(node.input_ids, bwd(g)):
                if in_id is None or in_g is None:
                    continue
                if in_id in grads:
                    in_g = _split_leading(np.add, None, grads[in_id], in_g)
                grads[in_id] = in_g
        self.gradients = grads
        self._finalized = True
        return grads

    def grad(self, t: Tensor) -> Array:
        """Gradient for the leaf ``t`` after backward; zeros if ``t`` was
        unreachable. ValueError for an op's output, whose gradient (like
        its backward function) ``backward`` has freed."""
        if t.tape is self and t.node_id is not None:
            node = self._nodes[t.node_id]
            if node.op != "leaf":
                raise ValueError(f"{node.op!r} output: only leaves keep "
                                 f"their gradient after backward")
            g = self.gradients.get(t.node_id)
            if g is not None:
                return g
        return np.zeros_like(t.data)


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` records a tape node: a tape is active
    and some input requires gradients."""
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)


def _emit(op: str, inputs: Sequence[Tensor], out_data: Array,
          bwd: Callable[[Array], tuple]) -> Tensor:
    """Return the op result, recording a tape node when ``_recording``.

    ``bwd`` maps the output gradient to one gradient (or None) per
    input and must use only values captured at forward time. It runs
    at most once, and ``Tape.backward`` frees it, with its captures, as
    the sweep passes the node.
    """
    if _recording(inputs):
        return _ACTIVE_TAPE._record(op, inputs, out_data, bwd)
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    return out


def _run_blas_on_one_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread, for the whole process.

    ``_in_shares`` is the one layer of CPU parallelism: BLAS threads on
    top of it compete with the shares, and their count changes the order
    in which conv1d's kernel-gradient GEMM sums, so results would depend
    on ``OPENBLAS_NUM_THREADS`` and on CPU affinity. Does nothing where
    numpy carries no bundled OpenBLAS with this setter.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes = (ctypes.c_int,)
        setter.restype = None
        setter(1)


# On import, not in cli.main: tests and the Python API never run main.
_run_blas_on_one_thread()


def _worker_count() -> int:
    """CPUs this process may run on; the one place ``_in_shares`` reads
    it."""
    return len(os.sched_getaffinity(0))


# One task queue per worker thread, in share order; a worker lives as
# long as the process and serves its queue's tasks one after another.
_WORKERS: list[queue.SimpleQueue] = []
# A forked child inherits the queues but not the threads behind them.
os.register_at_fork(after_in_child=_WORKERS.clear)


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        work, lo, hi, done = tasks.get()
        try:
            work(lo, hi)
        except BaseException as exc:
            done.put((lo, exc))
        else:
            done.put((lo, None))
        del work, done  # hold no caller's closure while idle


def _in_shares(n: int, work: Callable[[int, int], None]) -> None:
    """Run ``work(lo, hi)`` over contiguous shares of ``range(n)``, one
    share per usable CPU and at most ``n`` shares.

    The first share runs in the calling thread, each other share on its
    own persistent worker thread, handed over through that worker's
    queue; numpy and BLAS release the interpreter lock, so the shares
    run on separate cores. The workers are started at first need and
    reused by every later call. Returns once every share has finished,
    then re-raises an exception from the lowest share that raised one.
    With one share the work runs inline and no thread is started.
    ``work`` must write disjoint outputs and call no public function of
    this module, so a tracer that wraps those never runs in a worker.
    """
    shares = min(_worker_count(), n)
    if shares <= 1:
        work(0, n)
        return
    while len(_WORKERS) < shares - 1:
        tasks = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(tasks,), daemon=True,
                         name=f"sinmt-share-{len(_WORKERS) + 1}").start()
        _WORKERS.append(tasks)
    bounds = [n * i // shares for i in range(shares + 1)]
    done = queue.SimpleQueue()
    for tasks, lo, hi in zip(_WORKERS, bounds[1:-1], bounds[2:]):
        tasks.put((work, lo, hi, done))
    try:
        work(bounds[0], bounds[1])
    finally:
        errors = sorted(done.get() for _ in range(shares - 1))
    for _, exc in errors:
        if exc is not None:
            raise exc


# An op whose result has fewer elements runs whole in the calling
# thread. Timed in two shares against whole (2-core x86-64, one BLAS
# thread, medians, three runs at 11 and 32 items): below 2^15 elements
# every split op but gelu's forward lost, by 20-420 us a call; at 2^16
# gelu's forward gained 510-580 us and layer norm's 130-280 us, while
# add, matmul's forward and gelu's backward product lost 20-60 us; from
# 2^17 up nearly every op gained.
_SPLIT_MIN_SIZE = 1 << 16


def _split_leading(fn, shapes, *operands):
    """``fn(*operands)``, computed one ``_in_shares`` share of the result's
    leading (item) axis at a time.

    ``shapes`` is the shape of ``fn``'s result, a list of shapes when
    ``fn`` returns a tuple of arrays with one leading length, or None
    for an elementwise ``fn`` (the operands' broadcast shape). An
    operand with the result's rank and leading length is sliced with
    it; any other (a broadcast operand, a matmul's 2-D right operand)
    goes whole to every share. ``fn(*operands)`` must allocate its
    result as numpy does, and ``fn(*operands, out=out)`` fill ``out``
    instead. An item gets the same float operations whatever the split,
    so an op whose items are independent gives the same bits at every
    share count.

    The work runs whole, as ``fn(*operands)``, when the (first) result
    has fewer than ``_SPLIT_MIN_SIZE`` elements or fewer than two axes,
    or when a sliced operand is not C-contiguous: numpy could then give
    the result another layout, and a later sum over it adds in layout
    order. A split result is C-contiguous.
    """
    if shapes is None:
        # Only an operand at least this large makes the broadcast shape
        # worth working out; a small op stays as cheap as numpy alone.
        if all(x.size < _SPLIT_MIN_SIZE for x in operands):
            return fn(*operands)
        shapes = np.broadcast_shapes(*(x.shape for x in operands))
    several = isinstance(shapes, list)
    first = shapes[0] if several else shapes
    if len(first) < 2 or math.prod(first) < _SPLIT_MIN_SIZE:
        return fn(*operands)
    n, nd = first[0], len(first)
    sliced = [x.ndim == nd and len(x) == n for x in operands]
    if not all(x.flags.c_contiguous for x, s in zip(operands, sliced) if s):
        return fn(*operands)
    out = tuple(map(np.empty, shapes)) if several else np.empty(first)

    def work(lo, hi):
        fn(*(x[lo:hi] if s else x for x, s in zip(operands, sliced)),
           out=(tuple(o[lo:hi] for o in out) if several else out[lo:hi]))

    _in_shares(n, work)
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Forward primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = _split_leading(np.add, None, a.data, b.data)
    except ValueError:
        raise ValueError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    sa, sb = a.shape, b.shape

    def bwd(g):
        return (_unbroadcast(g, sa), _unbroadcast(g, sb))

    return _emit("add", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ValueError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    ad, bd = a.data, b.data

    def bwd(g):
        return (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape))

    return _emit("mul", (a, b), out, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (c * g,)

    return _emit("scale", (a,), c * a.data, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    ad, bd = a.data, b.data
    # A stack by a matrix, (B, T, D) @ (D, E), is one GEMM per item, so
    # its products split by item. Other shapes run whole: a share
    # boundary inside a GEMM could change its blocking, and so its bits.
    by_item = ad.ndim == 3 and bd.ndim == 2

    def product(fn, shape, x, y):
        return _split_leading(fn, shape, x, y) if by_item else fn(x, y)

    def bwd(g):
        ga = product(np.matmul, g.shape[:-1] + bd.shape[-2:-1],
                     g, np.swapaxes(bd, -1, -2))
        gb = product(_transposed_matmul, g.shape[:-2] + bd.shape[-2:], ad, g)
        return (_unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape))

    return _emit("matmul", (a, b),
                 product(np.matmul, ad.shape[:-1] + bd.shape[-1:], ad, bd),
                 bwd)


def _transposed_matmul(x, y, out=None):
    """``swapaxes(x, -1, -2) @ y``, the transpose taken of each share."""
    return np.matmul(np.swapaxes(x, -1, -2), y, out=out)


def conv1d(signal: Tensor, kernel: Tensor, stride: int = 1) -> Tensor:
    """Strided cross-correlation, valid windows only (no padding).

    ``signal`` is (B, C, L) and ``kernel`` (O, C, K); the result is
    (B, O, T) with T = floor((L - K) / stride) + 1. The forward pass and
    the signal's gradient run one share of the batch at a time across
    CPUs (``_split_leading``); the kernel's gradient, a sum over the
    batch, is one GEMM in the calling thread. A signal that does not
    require gradients gets none.

    Both passes contract (B, T, C·K) im2col columns, the strided windows
    gathered into one array, in single BLAS products. The node keeps the
    signal, not its columns, which are about K / stride times larger:
    forward gathers a share's columns into scratch that dies with the
    share, and backward gathers them again from the signal with the same
    copy (recomputation, as in Chen et al., 2016) and frees them before
    it takes the signal's gradient.
    """
    if signal.ndim != 3 or kernel.ndim != 3:
        raise ValueError(
            f"conv1d: expected (B, C, L) signal and (O, C, K) kernel, "
            f"got {signal.shape} and {kernel.shape}")
    if signal.shape[1] != kernel.shape[1]:
        raise ValueError(
            f"conv1d: channel mismatch between signal {signal.shape} "
            f"and kernel {kernel.shape}")
    if stride < 1:
        raise ValueError(f"conv1d: stride must be positive, got {stride}")
    B, C, L = signal.shape
    O, _, K = kernel.shape
    if L < K:
        raise ValueError(
            f"conv1d: signal length {L} shorter than kernel length {K}")
    T = (L - K) // stride + 1
    xd = signal.data
    wmat = kernel.data.reshape(O, C * K)
    want_gx = signal.requires_grad

    def gather(x, out=None):
        """The (b, T, C·K) im2col columns of (a share of) the signal."""
        cols = np.empty((len(x), T, C * K)) if out is None else out
        win = np.lib.stride_tricks.sliding_window_view(x, K, axis=2)
        win = win[:, :, ::stride].transpose(0, 2, 1, 3)         # (b, T, C, K)
        np.copyto(cols.reshape(win.shape), win)
        return cols

    def forward(x, out=None):
        y = np.empty((len(x), O, T)) if out is None else out
        np.copyto(y, np.matmul(gather(x), wmat.T).transpose(0, 2, 1))
        return y

    out = _split_leading(forward, (B, O, T), xd)

    def signal_grad(gt, out=None):
        """The signal's (b, C, L) gradient for (a share of) the batch,
        C-contiguous: ``gt`` is the (b, T, O) output gradient."""
        gx = np.empty((len(gt), C, L)) if out is None else out
        gx.fill(0.0)
        gcols = np.matmul(gt, wmat).reshape(len(gt), T, C, K)
        gcols = gcols.transpose(0, 2, 1, 3)                     # (b, C, T, K)
        for k in range(K):
            sl = slice(k, k + (T - 1) * stride + 1, stride)
            gx[:, :, sl] += gcols[:, :, :, k]
        return gx

    def bwd(g):
        gt = np.ascontiguousarray(g.transpose(0, 2, 1))         # (B, T, O)
        cols = _split_leading(gather, (B, T, C * K), xd)
        gw = (gt.reshape(B * T, O).T
              @ cols.reshape(B * T, C * K)).reshape(O, C, K)
        del cols
        if not want_gx:
            return (None, gw)
        return (_split_leading(signal_grad, (B, C, L), gt), gw)

    return _emit("conv1d", (signal, kernel), out, bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, x * Phi(x).

    The forward pass and the backward product split the leading axis
    across CPUs (``_split_leading``); every element gets the same float
    operations, so the result does not depend on the split.
    """
    xd = np.atleast_1d(x.data)
    # Only a recorded node needs the derivative. Taking it here keeps
    # one array alive until backward instead of both x and Phi(x).
    record = _recording((x,))

    def forward(xs, out=(None, None)):
        cdf = 0.5 * (1.0 + erf(xs * _INV_SQRT2))
        y = np.multiply(xs, cdf, out=out[0])
        if not record:
            return (y,)
        ds = np.exp(-0.5 * xs * xs, out=out[1])
        ds *= _INV_SQRT_2PI
        ds *= xs
        ds += cdf
        return y, ds

    out, *deriv = _split_leading(forward, [xd.shape] * (1 + record), xd)
    deriv = deriv[0].reshape(x.shape) if deriv else None

    def bwd(g):
        return (_split_leading(np.multiply, None, g, deriv),)

    return _emit("gelu", (x,), out.reshape(x.shape), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"softmax: axis {axis} invalid for shape {x.shape}")
    out = x.data - np.max(x.data, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)

    def bwd(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        gx = g - dot
        gx *= out
        return (gx,)

    return _emit("softmax", (x,), out, bwd)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention, softmax(q kᵀ / √d) v, as one node.

    ``q``, ``k`` and ``v`` are (B, H, T, d). Forward and backward run
    one utterance at a time, so an utterance's (H, T, T) block (2 MB at
    4 heads and 250 frames) stays in a core's cache, and ``_in_shares``
    spreads the utterances over the usable CPUs. Each utterance gets the
    unfused matmul → scale → softmax → matmul chain's float operations
    in the same order, so the output and the gradients are bit-identical
    to it whatever the number of CPUs. The node keeps only each row's
    softmax max and sum, (B, H, T, 1) each, and backward rebuilds an
    utterance's probabilities from them with the forward's own
    operations (recomputation, as in FlashAttention), so they come out
    bit for bit the same.
    """
    if q.ndim != 4 or not q.shape == k.shape == v.shape:
        raise ValueError(
            f"attention: expected equal (B, H, T, d) q, k, v, "
            f"got {q.shape}, {k.shape} and {v.shape}")
    B, H, T, d = q.shape
    c = float(1.0 / np.sqrt(d))
    qd, kd, vd = q.data, k.data, v.data
    row_max, row_sum = np.empty((B, H, T, 1)), np.empty((B, H, T, 1))
    out = np.empty((B, H, T, d))

    def scores(b, p):
        """Utterance ``b``'s scores, q kᵀ times 1/√d, into ``p``."""
        np.matmul(qd[b], np.swapaxes(kd[b], -1, -2), out=p)
        p *= c

    def forward(lo, hi):
        p = np.empty((H, T, T))
        for b in range(lo, hi):
            scores(b, p)
            row_max[b] = np.max(p, axis=-1, keepdims=True)
            p -= row_max[b]
            np.exp(p, out=p)
            row_sum[b] = np.sum(p, axis=-1, keepdims=True)
            p /= row_sum[b]
            np.matmul(p, vd[b], out=out[b])

    _in_shares(B, forward)

    def bwd(g):
        dq, dv = np.empty((B, H, T, d)), np.empty((B, H, T, d))
        # k's gradient is written as (q^T dp) and returned as a view, so
        # it has the layout the unfused chain's transpose gave it: a
        # later broadcast sum over it adds in that order.
        dkt = np.empty((B, H, d, T))

        def backward(lo, hi):
            p, dp = np.empty((H, T, T)), np.empty((H, T, T))
            for b in range(lo, hi):
                scores(b, p)
                p -= row_max[b]
                np.exp(p, out=p)
                p /= row_sum[b]
                gb = g[b]
                np.matmul(np.swapaxes(p, -1, -2), gb, out=dv[b])
                np.matmul(gb, np.swapaxes(vd[b], -1, -2), out=dp)
                dp -= np.sum(dp * p, axis=-1, keepdims=True)
                dp *= p
                dp *= c
                np.matmul(dp, kd[b], out=dq[b])
                np.matmul(np.swapaxes(qd[b], -1, -2), dp, out=dkt[b])

        _in_shares(B, backward)
        return (dq, np.swapaxes(dkt, -1, -2), dv)

    return _emit("attention", (q, k, v), out, bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"log_softmax: axis {axis} invalid for shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    out = shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))

    def bwd(g):
        return (g - np.exp(out) * np.sum(g, axis=axis, keepdims=True),)

    return _emit("log_softmax", (x,), out, bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine.

    Rows are normalized independently, so an input of two or more axes
    (a frame tensor, or each utterance's frames flattened) is split by
    its leading axis across CPUs (``_split_leading``), forward and input
    gradient alike. The gain and bias gradients, sums over all rows,
    stay in the calling thread and are skipped for constants.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"layer_norm: gain/bias must have shape ({d},), "
            f"got {gain.shape} and {bias.shape}")
    gd, bd = gain.data, bias.data

    def forward(xs, out=(None, None, None)):
        mu = np.mean(xs, axis=-1, keepdims=True)
        var = np.var(xs, axis=-1, keepdims=True)
        inv = np.divide(1.0, np.sqrt(var + eps), out=out[2])
        xhat = np.multiply(xs - mu, inv, out=out[1])
        return np.add(gd * xhat, bd, out=out[0]), xhat, inv

    def input_grad(g, xhat, inv, out=None):
        gi = g * gd
        return np.multiply(
            inv, gi - np.mean(gi, axis=-1, keepdims=True)
            - xhat * np.mean(gi * xhat, axis=-1, keepdims=True), out=out)

    shape = x.shape
    y, xhat, inv = _split_leading(
        forward, [shape, shape, shape[:-1] + (1,)], x.data)
    reduce_axes = tuple(range(x.ndim - 1))
    # bwd holds no input tensor, so x's array is freed once no other
    # node needs it.
    want_gg, want_gb = gain.requires_grad, bias.requires_grad

    def bwd(g):
        gg = np.sum(g * xhat, axis=reduce_axes) if want_gg else None
        gb = np.sum(g, axis=reduce_axes) if want_gb else None
        return (_split_leading(input_grad, shape, g, xhat, inv), gg, gb)

    return _emit("layer_norm", (x, gain, bias), y, bwd)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = x.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _emit("sum", (x,), np.sum(x.data, axis=axis, keepdims=keepdims), bwd)


def layer_mix(stack: Tensor, weights: Tensor) -> Tensor:
    """Σ_l weights[l] · stack[l]: a (L, ...) stack mixed into one layer.

    ``weights`` is (L,). The forward and the stack's gradient are
    elementwise and split across CPUs (``_split_leading``). Each item
    gets the operations of ``reduce_sum(mul(stack, w), axis=0)`` with
    ``w`` the weights as (L, 1, ...), in the same order: the sum starts
    from +0.0 and adds the layers in turn, as numpy's axis-0 sum does,
    and each weight's gradient is one sum over the whole product of the
    output gradient and its layer, the broadcast sum's pairwise order.
    """
    if (weights.ndim != 1 or stack.ndim < 2
            or weights.shape[0] != stack.shape[0]):
        raise ValueError(
            f"layer_mix: expected a (L, ...) stack and (L,) weights, "
            f"got {stack.shape} and {weights.shape}")
    sd, wd = stack.data, weights.data
    as_stack = wd.reshape((-1,) + (1,) * (stack.ndim - 1))

    def mix(*layers, out=None):
        if out is None:
            out = np.zeros(layers[0].shape)
        else:
            out.fill(0.0)
        for x, w in zip(layers, wd):
            out += x * w
        return out

    def bwd(g):
        gw = np.array([np.sum(_split_leading(np.multiply, None, g, x))
                       for x in sd])
        return (_split_leading(np.multiply, None, g, as_stack), gw)

    return _emit("layer_mix", (stack, weights),
                 _split_leading(mix, sd.shape[1:], *sd), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ValueError(
            f"concat: shapes {[t.shape for t in tensors]} do not align "
            f"on axis {axis}")
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit("concat", tensors, out, bwd)


def reshape(x: Tensor, shape) -> Tensor:
    orig = x.shape

    def bwd(g):
        return (g.reshape(orig),)

    return _emit("reshape", (x,), x.data.reshape(shape), bwd)


def transpose(x: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)

    def bwd(g):
        return (np.transpose(g, inverse),)

    return _emit("transpose", (x,), np.transpose(x.data, axes), bwd)


def gradient_reversal(x: Tensor, grl_scale: float) -> Tensor:
    """Identity in the forward pass; multiplies gradients by -grl_scale.

    The forward output shares the input buffer, so it is bit-identical for
    every scale value. With a negative scale the layer passes gradients
    through amplified instead of reversed (plain multi-task behaviour at
    scale -1).
    """
    lam = float(grl_scale)

    def bwd(g):
        return ((-lam) * g,)

    return _emit("grl", (x,), x.data, bwd)


# ---------------------------------------------------------------------------
# Parameters and update rules
# ---------------------------------------------------------------------------

PARAM_GROUPS = ("extractor", "spoof_head", "speaker_head")


class ParameterSet:
    """Named, group-partitioned collection of trainable tensors.

    Groups separate the shared feature extractor from the two classifier
    heads so the update rules can be written (and checked) per group.
    Iteration order is insertion order and is the canonical serialization
    order for checkpoints.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._groups: dict[str, str] = {}

    def add(self, name: str, data: Array, group: str) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        if group not in PARAM_GROUPS:
            raise ValueError(f"unknown parameter group: {group}")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        self._groups[name] = group
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __iter__(self):
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def items(self):
        return self._params.items()

    def group_of(self, name: str) -> str:
        return self._groups[name]

    def group_names(self, group: str) -> list[str]:
        return [n for n, g in self._groups.items() if g == group]

    def collect_grads(self, tape: Tape) -> dict[str, Array]:
        """Per-name gradients after backward; zeros for untouched params."""
        return {name: tape.grad(t) for name, t in self._params.items()}

    def state(self) -> dict[str, Array]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state(self, state: dict[str, Array]) -> None:
        for name, t in self._params.items():
            if name not in state:
                raise ValueError(f"missing parameter in state: {name}")
            src = np.asarray(state[name], dtype=np.float64)
            if src.shape != t.shape:
                raise ValueError(
                    f"shape mismatch for parameter {name}: "
                    f"have {t.shape}, loading {src.shape}")
            t.data = src.copy()


@dataclass
class OptimizerState:
    """Update-rule state; SGD carries no moments, Adam carries two."""

    kind: str
    lr: float
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)

    @classmethod
    def sgd(cls, lr: float) -> "OptimizerState":
        return cls(kind="sgd", lr=lr)

    @classmethod
    def adam(cls, params: ParameterSet, lr: float, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "OptimizerState":
        state = cls(kind="adam", lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        for name, t in params.items():
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        return state


def optimizer_step(params: ParameterSet, grads: dict[str, Array],
                   state: OptimizerState) -> None:
    """One in-place update of every parameter; increments step_count.

    SGD: p <- p - lr * g. Adam: the standard recursion with bias
    correction. A missing gradient (ValueError) or a non-finite one
    (NumericsError) is rejected before any parameter or moment moves.
    """
    if state.kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer kind: {state.kind}")
    missing = [n for n in params if n not in grads]
    if missing:
        raise ValueError(f"missing gradient entries for: {', '.join(missing)}")
    for name in params:
        if not np.all(np.isfinite(grads[name])):
            raise NumericsError(
                f"non-finite gradient for parameter {name}; update aborted")
    state.step_count += 1
    bc1 = 1.0 - state.beta1 ** state.step_count
    bc2 = 1.0 - state.beta2 ** state.step_count
    for name, p in params.items():
        g = grads[name]
        if state.kind == "sgd":
            p.data = p.data - state.lr * g
            continue
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        mhat = state.m[name] / bc1
        vhat = state.v[name] / bc2
        p.data = p.data - state.lr * mhat / (np.sqrt(vhat) + state.eps)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    max_abs_err: float
    worst_coord: int
    analytic_at_worst: float
    numeric_at_worst: float
    n_coords: int


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    threshold: float

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def worst(self) -> GradCheckEntry | None:
        return max(self.entries, key=lambda e: e.max_rel_err, default=None)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.threshold

    def summary(self) -> str:
        lines = [
            f"{'PASS' if self.passed else 'FAIL'} "
            f"max_rel_err={self.max_rel_err:.3e} threshold={self.threshold:.1e}"
        ]
        w = self.worst
        if w is not None:
            lines.append(
                f"worst: {w.name}[{w.worst_coord}] "
                f"analytic={w.analytic_at_worst:.6e} "
                f"numeric={w.numeric_at_worst:.6e}")
        return "\n".join(lines)


def check_gradients(closure: Callable[[], Tensor], params: ParameterSet,
                    eps: float = 1e-5, coords_per_tensor: int = 32,
                    seed: int = 0, rel_floor: float = 1e-3,
                    abs_floor: float = 1e-10,
                    threshold: float = 1e-5) -> GradCheckReport:
    """Compare backpropagated gradients against central finite differences.

    ``closure`` must be a deterministic function of the current parameter
    values that returns the scalar loss tensor. Large tensors are
    subsampled (at least ``coords_per_tensor`` coordinates, seed-pinned).
    A coordinate where both gradients are below ``abs_floor`` counts as
    exact agreement; otherwise the error is |a - n| / max(|a|, |n|,
    ``rel_floor``), so vanishing coordinates are judged on an absolute
    scale where finite differences are meaningful.
    """
    if not 0.0 < eps <= 1e-3:
        raise ValueError(f"eps must be in (0, 1e-3], got {eps}")
    with Tape() as tape:
        loss = closure()
    if len(tape) == 0 or loss.tape is not tape or loss.node_id is None:
        # constant closure: nothing reached the tape, all gradients vanish
        analytic = {name: np.zeros_like(p.data) for name, p in params.items()}
    else:
        tape.backward(loss)
        analytic = params.collect_grads(tape)

    entries = []
    for idx, (name, p) in enumerate(params.items()):
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= coords_per_tensor:
            coords = np.arange(n)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
            coords = np.sort(rng.choice(n, size=coords_per_tensor, replace=False))
        a_flat = analytic[name].reshape(-1)
        worst_rel = 0.0
        worst_abs = 0.0
        worst_coord = int(coords[0]) if len(coords) else 0
        worst_a = worst_n = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = closure().item()
            flat[c] = orig - eps
            f_minus = closure().item()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = a_flat[c]
            abs_err = abs(a - numeric)
            if max(abs(a), abs(numeric)) < abs_floor:
                rel = 0.0
            else:
                rel = abs_err / max(abs(a), abs(numeric), rel_floor)
            if rel >= worst_rel:
                worst_rel = rel
                worst_abs = abs_err
                worst_coord = int(c)
                worst_a = float(a)
                worst_n = float(numeric)
        entries.append(GradCheckEntry(
            name=name, max_rel_err=worst_rel, max_abs_err=worst_abs,
            worst_coord=worst_coord, analytic_at_worst=worst_a,
            numeric_at_worst=worst_n, n_coords=len(coords)))
    return GradCheckReport(entries=entries, threshold=threshold)
