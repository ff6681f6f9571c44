"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array (float32 for training, float64 for
gradient checks -- the dtype travels with the data) and a :class:`GradCell`,
the small object that holds its gradient. Differentiable ops record their
output's cell and a backward closure on the active :class:`Tape`;
``Tape.backward`` replays the records in exact reverse recording order,
accumulating gradients into every reachable tensor with ``requires_grad``.
The tape, not the closure, skips a record whose output no gradient reached;
a closure takes that gradient and holds only its op's math. An op records
only when an input requires a gradient, so only a closure with several
inputs tests which of them do.

What a record keeps: its output's cell, and a closure over the cells of the
inputs that take a gradient plus only the arrays its math reads. ``add``,
``sub``, ``neg``, ``reshape``, ``transpose``, ``concat``, ``narrow``,
``tensor_sum`` and ``mean`` read no array at all; ``layernorm`` keeps its
normalized input and row scales, ``attention`` its q, k, v and softmax, not
their inputs. So an output that no backward reads is freed as soon as the
caller drops it, during the forward.

``backward`` consumes the tape: it drops each record as it runs it, so the
arrays a record saved, and a cell that no caller holds with its tensor, are
freed once that record's backward is done. A tensor the caller still holds
keeps its ``.grad``; the tape is empty afterwards, and a second
``backward`` on it runs no record.

A ``linear`` weight gradient with more elements than the layer's input and
output gradient together (``w.size > x.size + g.size``) waits: its record
leaves the product ``x.T @ g`` in the weight's cell, and ``backward``
computes it after every record has run, once the activations are freed.
Holding x and g until then costs less than holding the gradient, so this
never raises the peak. A later contribution to the same cell, or the
record of an op that computed the weight, first adds the waiting products,
so every gradient is summed in recording order and keeps its bits.

Broadcasting is restricted to leading-axis expansion: two operands may mix
shapes only when one shape is a trailing suffix of the other (a scalar
counts as the empty suffix). Anything else needs an explicit reshape.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError, NumericError

_GELU_C = math.sqrt(2.0 / math.pi)

# elements per block of the blocked elementwise passes (256 KB of float32)
_BLOCK = 1 << 16


class GradCell:
    """The gradient of one tensor, with the shape and dtype it must have.
    Records and closures keep cells, not tensors, so a tensor's ``data``
    lives only as long as a caller or a backward that reads it holds it.
    ``later`` queues weight-gradient products that wait for the end of
    ``Tape.backward``."""

    __slots__ = ("grad", "shape", "dtype", "later")

    def __init__(self, shape, dtype):
        self.grad: Optional[np.ndarray] = None
        self.shape = shape
        self.dtype = dtype
        self.later: Optional[list[Callable[[], np.ndarray]]] = None

    def accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Adds ``g`` into ``grad``, after any waiting products. The first
        gradient is copied, unless the caller passes ``owned`` for a fresh
        array that nothing else holds: then a C-ordered one in this cell's
        dtype is kept as it is."""
        if g.shape != self.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match tensor shape {self.shape}"
            )
        if self.later:
            self.flush()
        if self.grad is None:
            if owned and g.dtype == self.dtype and g.flags.c_contiguous:
                self.grad = g
                return
            self.grad = np.array(g, dtype=self.dtype, order="C")
        else:
            self.grad += g

    def accumulate_at(self, index, g: np.ndarray) -> None:
        """Adds ``g`` into ``grad[index]``, a zero gradient if there is none."""
        if self.later:
            self.flush()
        if self.grad is None:
            self.grad = np.zeros(self.shape, self.dtype)
        self.grad[index] += g

    def defer(self, product: Callable[[], np.ndarray]) -> None:
        """Queues ``product()`` to be added later, after the products queued
        before it."""
        if self.later is None:
            self.later = []
        self.later.append(product)

    def flush(self) -> None:
        """Computes and adds the waiting products, in the order queued."""
        later, self.later = self.later, None
        for product in later or ():
            self.accumulate(product(), owned=True)


class Tensor:
    """n-d float array, optionally participating in the gradient tape.
    ``data`` may be rebound only to an array of the same shape and dtype:
    the gradient cell keeps both."""

    __slots__ = ("data", "requires_grad", "cell")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.cell = GradCell(arr.shape, arr.dtype)

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.cell.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]) -> None:
        self.cell.grad = g

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """``GradCell.accumulate`` on this tensor's cell."""
        self.cell.accumulate(g, owned)

    def check_finite(self, context: str = "tensor") -> "Tensor":
        if not np.all(np.isfinite(self.data)):
            raise NumericError(f"non-finite values in {context}")
        return self

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)


class Tape:
    """Ordered record of primitive ops for one forward pass.

    Use as a context manager; ops executed inside record themselves when any
    input requires a gradient. ``backward`` replays the records strictly in
    reverse, so gradients for shared subexpressions accumulate by addition,
    and pops each record before running it. A closure returns None, or a
    ``(cell, product)`` pair whose product waits until every record has run.
    """

    def __init__(self):
        self._records: list[tuple[GradCell, Callable]] = []

    def __len__(self):
        return len(self._records)

    def record(self, out: Tensor, backward_fn: Callable) -> None:
        self._records.append((out.cell, backward_fn))

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self

    def backward(self, root: Tensor) -> None:
        if root.grad is None:
            root.grad = np.ones_like(root.data)
        waiting: list[GradCell] = []
        try:
            while self._records:
                _run_record(self._records.pop(), waiting)
            for cell in waiting:
                cell.flush()
        finally:
            for cell in waiting:
                cell.later = None


def _run_record(record: tuple[GradCell, Callable], waiting: list[GradCell]) -> None:
    """Runs one popped record; the record, its closure and its cell are
    dropped when this returns. A product the closure leaves for later is
    queued on its cell, and the cell on ``waiting``."""
    cell, fn = record
    if cell.later:  # a weight computed by an op
        cell.flush()
    if cell.grad is not None:
        later = fn(cell.grad)
        if later is not None:
            target, product = later
            target.defer(product)
            waiting.append(target)


class _TapeStack(threading.local):
    """Open tapes per thread: an op records only onto its own thread's."""

    def __init__(self):
        self.tapes: list[Tape] = []


_TAPE_STACK = _TapeStack()


def active_tape() -> Optional[Tape]:
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


def _as_tensor(x, like: Optional[Tensor] = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    return Tensor(arr if like is None else arr.astype(like.dtype, copy=False))


def _operands(a, b, op: str) -> tuple[Tensor, Tensor]:
    """Both operands of an elementwise op as tensors, a scalar or array one
    in the other's dtype; their shapes may mix only by leading-axis expansion."""
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    small, big = sorted((a.shape, b.shape), key=len)
    if big[len(big) - len(small):] != small:
        raise DimensionError(
            f"{op}: shapes {a.shape} and {b.shape} mix beyond leading-axis expansion"
        )
    return a, b


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over the leading axes added by broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _blocks(*arrays: np.ndarray):
    """Aligned flat views of equal-size C-contiguous arrays, _BLOCK elements
    at a time; writes to a view land in its array."""
    flat = [a.reshape(-1) for a in arrays]
    for i in range(0, flat[0].size, _BLOCK):
        yield [f[i:i + _BLOCK] for f in flat]


def _maybe_record(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, backward_fn)
    return out


def _cells(*tensors: Tensor) -> list[Optional[GradCell]]:
    """Each tensor's gradient cell, or None for one that takes no gradient."""
    return [t.cell if t.requires_grad else None for t in tensors]


# --- arithmetic ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b, "add")
    out = Tensor(a.data + b.data)
    ca, cb = _cells(a, b)

    def backward(g):
        if ca is not None:
            ca.accumulate(_unbroadcast(g, ca.shape))
        if cb is not None:
            cb.accumulate(_unbroadcast(g, cb.shape))

    return _maybe_record(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b, "sub")
    out = Tensor(a.data - b.data)
    ca, cb = _cells(a, b)

    def backward(g):
        if ca is not None:
            ca.accumulate(_unbroadcast(g, ca.shape))
        if cb is not None:
            cb.accumulate(-_unbroadcast(g, cb.shape))

    return _maybe_record(out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    ca = a.cell

    def backward(g):
        ca.accumulate(-g)

    return _maybe_record(out, (a,), backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b, "mul")
    out = Tensor(a.data * b.data)
    ca, cb = _cells(a, b)
    # each operand's gradient reads the other's data
    ad = a.data if cb is not None else None
    bd = b.data if ca is not None else None

    def backward(g):
        if ca is not None:
            ca.accumulate(_unbroadcast(g * bd, ca.shape))
        if cb is not None:
            cb.accumulate(_unbroadcast(g * ad, cb.shape))

    return _maybe_record(out, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports 2-d x 2-d, stacked x stacked (identical
    leading dims), and stacked x 2-d (shared weight, gradient summed)."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul requires operands with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner extents disagree ({a.shape} x {b.shape})")
    if a.ndim != b.ndim and b.ndim != 2:
        raise DimensionError(f"matmul: unsupported rank mix ({a.shape} x {b.shape})")
    if a.ndim == b.ndim and a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: leading dims disagree ({a.shape} x {b.shape})")
    out = Tensor(a.data @ b.data)
    ca, cb = _cells(a, b)
    ad = a.data if cb is not None else None
    bd = b.data if ca is not None else None
    stacked = a.ndim == b.ndim

    def backward(g):
        if ca is not None:
            ca.accumulate(g @ np.swapaxes(bd, -1, -2))
        if cb is not None:
            if stacked:
                cb.accumulate(np.swapaxes(ad, -1, -2) @ g)
            else:
                k = ad.shape[-1]
                n = g.shape[-1]
                a2 = ad.reshape(-1, k)
                g2 = g.reshape(-1, n)
                cb.accumulate(a2.T @ g2)

    return _maybe_record(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x [..., k], w [k, n] and b [n], as one record with
    the float ops of ``matmul`` followed by ``add``. A weight gradient with
    more elements than x and the output together waits for the end of
    ``Tape.backward`` (see the module docstring)."""
    if w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear: shapes {x.shape} x {w.shape} + {b.shape}")
    k, n = w.shape
    data = x.data @ w.data
    data += b.data
    out = Tensor(data)
    cx, cw, cb = _cells(x, w, b)
    xd = x.data if cw is not None else None
    wd = w.data if cx is not None else None
    defer = w.data.size > x.data.size + data.size

    def backward(g):
        g2 = g.reshape(-1, n)
        if cb is not None:
            cb.accumulate(g2.sum(axis=0), owned=True)
        if cx is not None:
            cx.accumulate(g @ wd.T, owned=True)
        if cw is not None:
            if defer:
                return cw, lambda: xd.reshape(-1, k).T @ g2
            cw.accumulate(xd.reshape(-1, k).T @ g2, owned=True)
        return None

    return _maybe_record(out, (x, w, b), backward)


# --- structural ops -----------------------------------------------------


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = Tensor(np.transpose(a.data, axes).copy())
    inv = tuple(np.argsort(axes))
    ca = a.cell

    def backward(g):
        ca.accumulate(np.transpose(g, inv))

    return _maybe_record(out, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(a.data.reshape(shape).copy())
    ca = a.cell

    def backward(g):
        ca.accumulate(g.reshape(ca.shape))

    return _maybe_record(out, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    cells = _cells(*tensors)

    def backward(g):
        for c, lo, hi in zip(cells, offsets[:-1], offsets[1:]):
            if c is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                c.accumulate(g[tuple(idx)])

    return _maybe_record(out, tensors, backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx].copy())
    ca = a.cell

    def backward(g):
        ca.accumulate_at(idx, g)

    return _maybe_record(out, (a,), backward)


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows of a 2-d tensor by integer index (axis 0)."""
    index = np.asarray(index, dtype=np.int64)
    out = Tensor(a.data[index].copy())
    ca = a.cell

    def backward(g):
        full = np.zeros(ca.shape, ca.dtype)
        np.add.at(full, index, g)
        ca.accumulate(full)

    return _maybe_record(out, (a,), backward)


# --- reductions ---------------------------------------------------------


def _reduce_backward_shape(a: Tensor, axis):
    if axis is None:
        return (1,) * a.ndim, a.shape
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % a.ndim for ax in axes)
    kept = tuple(1 if i in axes else s for i, s in enumerate(a.shape))
    return kept, a.shape


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    kept, full = _reduce_backward_shape(a, axis)
    ca = a.cell

    def backward(g):
        ca.accumulate(np.broadcast_to(g.reshape(kept), full).copy())

    return _maybe_record(out, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    kept, full = _reduce_backward_shape(a, axis)
    count = a.data.size / max(out.data.size, 1)
    ca = a.cell

    def backward(g):
        ga = np.broadcast_to(g.reshape(kept), full) / count
        ca.accumulate(ga.astype(ca.dtype, copy=False))

    return _maybe_record(out, (a,), backward)


# --- elementwise nonlinearities -----------------------------------------


def log(a: Tensor) -> Tensor:
    x = a.data
    out = Tensor(np.log(x))
    ca = a.cell

    def backward(g):
        ca.accumulate(g / x)

    return _maybe_record(out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)
    out = Tensor(y)
    ca = a.cell

    def backward(g):
        ca.accumulate(g * 0.5 / y)

    return _maybe_record(out, (a,), backward)


def _gelu_inner(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """_GELU_C * (x + 0.044715 * x^3) into ``out``."""
    # x * x * x, not x**3: numpy's float32 pow is generic and ~80x slower
    inner = np.multiply(x, x, out=out)
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    return inner


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation. Forward and backward run block by block
    with the float ops of the written-out formula in its order, so the bits
    match it. The record keeps only the input: the backward recomputes the
    tanh argument and 1 + tanh per block."""
    x = np.asarray(a.data, order="C")
    y = np.empty_like(x)
    scratch = np.empty(min(x.size, _BLOCK), dtype=x.dtype)
    for xb, yb in _blocks(x, y):
        one_t = scratch[:xb.size]
        np.tanh(_gelu_inner(xb, one_t), out=one_t)
        one_t += 1.0
        np.multiply(xb, 0.5, out=yb)
        yb *= one_t  # 0.5 * x * (1 + tanh(inner))
    out = Tensor(y)
    ca = a.cell

    def backward(g):
        grad = np.empty_like(x)
        scratch = np.empty((3, min(x.size, _BLOCK)), dtype=x.dtype)
        for xb, gb, local in _blocks(x, g, grad):
            inner, one_t, dinner = scratch[:, :xb.size]
            _gelu_inner(xb, inner)
            np.tanh(inner, out=one_t)
            one_t += 1.0
            np.multiply(xb, xb, out=dinner)
            dinner *= 3 * 0.044715
            dinner += 1.0
            dinner *= _GELU_C
            # 1 - t**2 as 4e / (1 + e)**2 with e = exp(-2|inner|): float32 tanh
            # can sit an ulp below 1 where 1 - t**2 is ~1e-8, and x * dinner
            # magnifies that ulp ~30x at |x| = 8
            e = np.abs(inner, out=inner)
            e *= -2.0
            np.exp(e, out=e)
            np.add(e, 1.0, out=local)
            local *= local
            e *= 4.0
            e /= local  # sech2
            np.multiply(xb, 0.5, out=local)
            local *= e
            local *= dinner
            local += np.multiply(one_t, 0.5, out=e)
            local *= gb  # 0.5*(1 + t) + 0.5*x*sech2*dinner, times g
        ca.accumulate(grad, owned=True)

    return _maybe_record(out, (a,), backward)


# --- normalizers --------------------------------------------------------


def attention(qkv: Tensor, heads: int, queries: Optional[int] = None) -> Tensor:
    """Multi-head self-attention core as one record: packed q|k|v tokens
    [B, T, 3D] -> softmax(q kT / sqrt(D/heads)) v, heads merged to [B, n, D].

    With ``queries=n`` only the first n tokens ask (scores [B, h, n, T]);
    every token still answers through k and v, and the q gradient of the
    other tokens is 0. The default, n = T, is full self-attention.

    Forward and gradients are bit-identical to the same computation built
    from reshape, transpose, narrow, matmul and mul records and a last-axis
    softmax record (q narrowed to n tokens): BLAS rounds by operand layout,
    so every matmul here, backward included, gets that composition's
    layouts (contiguous or transposed views)."""
    b, t, d3 = qkv.shape
    if d3 % (3 * heads) != 0:
        raise DimensionError(f"attention: packed width {d3} not divisible by 3 x {heads} heads")
    n = t if queries is None else queries
    if not 1 <= n <= t:
        raise DimensionError(f"attention: {n} queries outside [1, {t}] tokens")
    d = d3 // 3
    dh = d // heads
    split = qkv.data.reshape(b, t, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    q = np.ascontiguousarray(split[0][:, :, :n])  # [B,h,n,dh]
    kt = np.ascontiguousarray(split[1].swapaxes(-1, -2))  # [B,h,dh,T]
    v = np.ascontiguousarray(split[2])
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=qkv.dtype)
    s = q @ kt
    s *= scale
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    out = Tensor((s @ v).transpose(0, 2, 1, 3).reshape(b, n, d))
    cqkv = qkv.cell

    def backward(g):
        gc = g.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)
        gs = gc @ v.swapaxes(-1, -2)
        gv = s.swapaxes(-1, -2) @ gc
        gs -= (gs * s).sum(axis=-1, keepdims=True)
        gs *= s
        gs *= scale
        grad = np.empty((b, t, 3, heads, dh), dtype=cqkv.dtype)
        grad[:, n:, 0] = 0.0
        grad[:, :n, 0] = (gs @ kt.swapaxes(-1, -2)).transpose(0, 2, 1, 3)
        grad[:, :, 1] = (q.swapaxes(-1, -2) @ gs).transpose(0, 3, 1, 2)
        grad[:, :, 2] = gv.transpose(0, 2, 1, 3)
        cqkv.accumulate(grad.reshape(b, t, d3), owned=True)

    return _maybe_record(out, (qkv,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = Tensor(z - lse)
    s = np.exp(out.data)
    ca = a.cell

    def backward(g):
        ca.accumulate(g - s * g.sum(axis=axis, keepdims=True))

    return _maybe_record(out, (a,), backward)


def layernorm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance,
    then apply the affine (gain, bias). Each direction allocates two
    full-size arrays and reuses them in place, with the float ops of the
    written-out formula in its order, so the bits match it; the record keeps
    the normalized input and the row scales."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layernorm affine shapes {gain.shape}/{bias.shape} do not match extent {d}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    xhat = a.data - mu  # centered, normalized in place below
    y = np.multiply(xhat, xhat)
    var = y.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y)
    ca, cgain, cbias = _cells(a, gain, bias)
    gain_d = gain.data if ca is not None else None

    def backward(g):
        tmp = np.multiply(g, xhat)
        if cgain is not None:
            cgain.accumulate(tmp.reshape(-1, d).sum(axis=0))
        if cbias is not None:
            cbias.accumulate(g.reshape(-1, d).sum(axis=0))
        if ca is not None:
            gg = np.multiply(g, gain_d)
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = np.multiply(gg, xhat, out=tmp).mean(axis=-1, keepdims=True)
            gg -= m1
            gg -= np.multiply(xhat, m2, out=tmp)
            gg *= inv
            ca.accumulate(gg, owned=True)

    return _maybe_record(out, (a, gain, bias), backward)


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-6) -> Tensor:
    """Divide each slice along ``axis`` by max(its L2 norm, eps)."""
    norm = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    denom = np.maximum(norm, eps)
    y = a.data / denom
    out = Tensor(y)
    ca = a.cell

    def backward(g):
        unclamped = norm > eps
        dot = (g * y).sum(axis=axis, keepdims=True)
        grad = np.where(unclamped, (g - y * dot) / denom, g / denom)
        ca.accumulate(grad.astype(ca.dtype, copy=False))

    return _maybe_record(out, (a,), backward)
