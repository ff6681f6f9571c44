"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array (float32 for training, float64 for
gradient checks -- the dtype travels with the data). Differentiable ops
record their output and a backward closure on the active :class:`Tape`;
``Tape.backward`` replays the records in exact reverse recording order,
accumulating gradients into every reachable tensor with ``requires_grad``.
The tape, not the closure, skips a record whose output no gradient reached;
a closure takes that gradient and holds only its op's math. An op records
only when an input requires a gradient, so only a closure with several
inputs tests which of them do.

``backward`` consumes the tape: it drops each record as it runs it, so the
arrays a record saved, and an output that no caller holds with its
``.grad``, are freed once that record's backward is done. A tensor the
caller still holds keeps its ``.grad``; the tape is empty afterwards, and a
second ``backward`` on it runs no record.

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


class Tensor:
    """n-d float array, optionally participating in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

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
        """Adds ``g`` into ``grad``. The first gradient is copied, unless the
        caller passes ``owned`` for a fresh array that nothing else holds:
        then a C-ordered one in this tensor's dtype is kept as it is."""
        if g.shape != self.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            if owned and g.dtype == self.data.dtype and g.flags.c_contiguous:
                self.grad = g
                return
            self.grad = np.array(g, dtype=self.data.dtype, order="C")
        else:
            self.grad += g

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
    and pops each record before running it.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __len__(self):
        return len(self._records)

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._records.append((out, backward_fn))

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self

    def backward(self, root: Tensor) -> None:
        if root.grad is None:
            root.grad = np.ones_like(root.data)
        records = self._records
        while records:
            # rebinding drops the previous record, its closure and its output
            out, fn = records.pop()
            if out.grad is not None:
                fn(out.grad)


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


# --- arithmetic ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _maybe_record(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(-_unbroadcast(g, b.shape))

    return _maybe_record(out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)

    def backward(g):
        a.accumulate_grad(-g)

    return _maybe_record(out, (a,), backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

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

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            if b.ndim == a.ndim:
                b.accumulate_grad(np.swapaxes(a.data, -1, -2) @ g)
            else:
                k = a.shape[-1]
                n = g.shape[-1]
                a2 = a.data.reshape(-1, k)
                g2 = g.reshape(-1, n)
                b.accumulate_grad(a2.T @ g2)

    return _maybe_record(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x [..., k], w [k, n] and b [n], as one record with
    the float ops of ``matmul`` followed by ``add``."""
    if w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear: shapes {x.shape} x {w.shape} + {b.shape}")
    k, n = w.shape
    data = x.data @ w.data
    data += b.data
    out = Tensor(data)

    def backward(g):
        g2 = g.reshape(-1, n)
        if b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0), owned=True)
        if w.requires_grad:
            w.accumulate_grad(x.data.reshape(-1, k).T @ g2, owned=True)
        if x.requires_grad:
            x.accumulate_grad(g @ w.data.T, owned=True)

    return _maybe_record(out, (x, w, b), backward)


# --- structural ops -----------------------------------------------------


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = Tensor(np.transpose(a.data, axes).copy())
    inv = tuple(np.argsort(axes))

    def backward(g):
        a.accumulate_grad(np.transpose(g, inv))

    return _maybe_record(out, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(a.data.reshape(shape).copy())
    orig = a.shape

    def backward(g):
        a.accumulate_grad(g.reshape(orig))

    return _maybe_record(out, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(idx)])

    return _maybe_record(out, tensors, backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx].copy())

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[idx] += g

    return _maybe_record(out, (a,), backward)


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows of a 2-d tensor by integer index (axis 0)."""
    index = np.asarray(index, dtype=np.int64)
    out = Tensor(a.data[index].copy())

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, index, g)
        a.accumulate_grad(full)

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

    def backward(g):
        a.accumulate_grad(np.broadcast_to(g.reshape(kept), full).copy())

    return _maybe_record(out, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    kept, full = _reduce_backward_shape(a, axis)
    count = a.data.size / max(out.data.size, 1)

    def backward(g):
        ga = np.broadcast_to(g.reshape(kept), full) / count
        a.accumulate_grad(ga.astype(a.dtype, copy=False))

    return _maybe_record(out, (a,), backward)


# --- elementwise nonlinearities -----------------------------------------


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))

    def backward(g):
        a.accumulate_grad(g / a.data)

    return _maybe_record(out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out = Tensor(np.sqrt(a.data))

    def backward(g):
        a.accumulate_grad(g * 0.5 / out.data)

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
        a.accumulate_grad(grad, owned=True)

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

    def backward(g):
        gc = g.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)
        gs = gc @ v.swapaxes(-1, -2)
        gv = s.swapaxes(-1, -2) @ gc
        gs -= (gs * s).sum(axis=-1, keepdims=True)
        gs *= s
        gs *= scale
        grad = np.empty((b, t, 3, heads, dh), dtype=qkv.dtype)
        grad[:, n:, 0] = 0.0
        grad[:, :n, 0] = (gs @ kt.swapaxes(-1, -2)).transpose(0, 2, 1, 3)
        grad[:, :, 1] = (q.swapaxes(-1, -2) @ gs).transpose(0, 3, 1, 2)
        grad[:, :, 2] = gv.transpose(0, 2, 1, 3)
        qkv.accumulate_grad(grad.reshape(b, t, d3), owned=True)

    return _maybe_record(out, (qkv,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = Tensor(z - lse)
    s = np.exp(out.data)

    def backward(g):
        a.accumulate_grad(g - s * g.sum(axis=axis, keepdims=True))

    return _maybe_record(out, (a,), backward)


def layernorm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance,
    then apply the affine (gain, bias)."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layernorm affine shapes {gain.shape}/{bias.shape} do not match extent {d}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)

    def backward(g):
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            gg = g * gain.data
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = (gg * xhat).mean(axis=-1, keepdims=True)
            a.accumulate_grad(((gg - m1 - xhat * m2) * inv).astype(a.dtype, copy=False))

    return _maybe_record(out, (a, gain, bias), backward)


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-6) -> Tensor:
    """Divide each slice along ``axis`` by max(its L2 norm, eps)."""
    norm = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    denom = np.maximum(norm, eps)
    y = a.data / denom
    out = Tensor(y)

    def backward(g):
        unclamped = norm > eps
        dot = (g * y).sum(axis=axis, keepdims=True)
        grad = np.where(unclamped, (g - y * dot) / denom, g / denom)
        a.accumulate_grad(grad.astype(a.dtype, copy=False))

    return _maybe_record(out, (a,), backward)
