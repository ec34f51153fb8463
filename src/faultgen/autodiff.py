"""Dense-tensor arithmetic with reverse-mode differentiation.

A small tape-based engine over numpy arrays, covering the op vocabulary the
denoiser, adapter and training losses need: matmul, elementwise arithmetic,
layer_norm, reshape, indexing (`take`), reductions, and two fused ops with
hand-written backwards: multi-head `attention` and the `feed_forward` block.
The evaluation networks in `metrics` train off the tape, on `gelu_` and
`_gelu_grad`. Seven ops have no caller in the package: `gelu`, `softmax`, `div`,
`transpose`, `pad`, `concat` and `stack`. They stay because the benchmark's
tracer (`perfbench/tracing.py`) wraps them, and the tests' composed references
use `gelu`, `softmax`, `transpose` and `stack`.
Tensors are immutable values once created. `backward` consumes the graph it walks: gradients
accumulate on leaves, which keep them, and each interior node drops its gradient, closure and
parents once used, so there is one backward per forward and a spent graph raises ContractError.
The CLI keeps the heap a freed graph leaves (`cli.main`), so the next step reuses it, not fresh pages.

A backward computes a parent's gradient only when the parent requires one (`_accum`), and
multiplies by a weight's transpose through a C-contiguous copy (`_t`), not the strided view. That
keeps every gradient bit, except that for series under 19 steps BLAS may round the two differently.

A tensor keeps its data's dtype, as a numpy array does: a float32 or float64 array stays as it is, and
any other input becomes float32. The pipeline runs in float32 throughout; a float64 graph, built from float64
leaves, serves the finite-difference checks.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ContractError, NumericError

_GRAD_ENABLED = True
# a set, not a tuple: numpy reads None == np.dtype("f8") as true, so a tuple would hold a missing dtype
_FLOATS = frozenset((np.dtype(np.float32), np.dtype(np.float64)))


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / sampling)."""
    global _GRAD_ENABLED
    old = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = old


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    """Immutable value node. `data` is a numpy array; `grad` fills in on a leaf during backward."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if getattr(data, "dtype", None) in _FLOATS:  # a float32 or float64 array or numpy scalar
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- operators -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_lift(other, self), self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def backward(self):
        backward(self)


class Parameter(Tensor):
    """Named, trainable leaf. `grad` is None until a gradient accumulates; a frozen one never does."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, trainable: bool = True):
        super().__init__(data, requires_grad=trainable)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape}, trainable={self.requires_grad})"


# ----------------------------------------------------------------------
# op plumbing


def _lift(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _check_finite(data, op: str):
    if not np.isfinite(data).all():
        raise NumericError(f"{op} produced a non-finite value")


def _node(data, op: str, parents, backward_fn):
    _check_finite(data, op)
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g):
    """Add gradient `g` into t.grad; a callable `g` computes it, and runs only when `t` requires a gradient."""
    if not t.requires_grad:
        return
    g = g() if callable(g) else g
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += np.asarray(g, dtype=t.data.dtype)


def _unbroadcast(grad, shape):
    """Reduce `grad` back to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def _spent(g):
    raise ContractError("backward reached a graph an earlier backward consumed; run the forward again")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) on every reachable leaf that requires grad, consuming the graph:
    each interior node drops its gradient, closure and parents once its closure has run, and a later
    backward that reaches a spent node raises ContractError rather than reuse stale gradients."""
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    # iterative topological sort (graphs can be a few hundred nodes deep)
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    while topo:  # popped, so a node and its activations go once its closure has run
        node = topo.pop()
        if node._backward is not None:  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _spent


# ----------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    data = a.data + b.data

    def bw(g):
        _accum(a, lambda: _unbroadcast(g, a.data.shape))
        _accum(b, lambda: _unbroadcast(g, b.data.shape))

    return _node(data, "add", (a, b), bw)


def sub(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    data = a.data - b.data

    def bw(g):
        _accum(a, lambda: _unbroadcast(g, a.data.shape))
        _accum(b, lambda: _unbroadcast(-g, b.data.shape))

    return _node(data, "sub", (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    data = a.data * b.data

    def bw(g):
        _accum(a, lambda: _unbroadcast(g * b.data, a.data.shape))
        _accum(b, lambda: _unbroadcast(g * a.data, b.data.shape))

    return _node(data, "mul", (a, b), bw)


def div(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    data = a.data / b.data

    def bw(g):
        _accum(a, lambda: _unbroadcast(g / b.data, a.data.shape))
        _accum(b, lambda: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(data, "div", (a, b), bw)


def absolute(a: Tensor) -> Tensor:
    data = np.abs(a.data)

    def bw(g):
        _accum(a, g * np.sign(a.data))

    return _node(data, "absolute", (a,), bw)


def minimum(a: Tensor, cap: float) -> Tensor:
    """Elementwise min(a, cap) against a constant; gradient flows where a <= cap."""
    data = np.minimum(a.data, cap)

    def bw(g):
        _accum(a, g * (a.data <= cap))

    return _node(data, "minimum", (a,), bw)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu_(x: np.ndarray) -> np.ndarray:
    """Overwrite `x` with gelu(x), bitwise 0.5 * x * (1 + tanh(C * (x + A * x*x*x))); return the tanh."""
    t = x * x  # powers as products: float32 `x**3` goes through pow, ~100x slower
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    x *= 0.5
    x *= t + 1.0
    return t


def _gelu_grad(x, t):
    """gelu'(x) for t = gelu_'s tanh, rounded as 0.5 * (1 + t) + 0.5 * x * (1 - t*t) * (C * (1 + 3A * x*x))."""
    d = x * x
    d *= 3.0 * _GELU_A
    d += 1.0
    d *= _GELU_C
    s = t * t
    np.subtract(1.0, s, out=s)
    s *= 0.5 * x
    d *= s
    d += np.multiply(np.add(t, 1.0, out=s), 0.5, out=s)
    return d


def gelu(a: Tensor) -> Tensor:
    data = a.data.copy()
    t = gelu_(data)

    def bw(g):
        _accum(a, g * _gelu_grad(a.data, t))

    return _node(data, "gelu", (a,), bw)


# ----------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if not isinstance(b, Tensor):
        raise ContractError("matmul expects Tensor operands")
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def bw(g):
        _accum(a, lambda: _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        _accum(b, lambda: _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _node(data, "matmul", (a, b), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis`."""
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def bw(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        _accum(a, y * (g - dot))

    return _node(y, "softmax", (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if x.shape[-1] < 1:
        raise ContractError("layer_norm needs a non-empty last axis")

    def mean(a):  # np.mean's arithmetic without its Python wrapper
        return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]

    # centred once: mean(d * d) is np.var's own arithmetic without its second x - mu
    d = x.data - mean(x.data)
    var = mean(d * d)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = d * inv
    data = gain.data * xhat + bias.data

    def bw(g):
        _accum(gain, lambda: _unbroadcast(g * xhat, gain.data.shape))
        _accum(bias, lambda: _unbroadcast(g, bias.data.shape))
        dx = g * gain.data  # then inv * (dx - mean(dx) - xhat * mean(dx * xhat)), rounded in that order
        s = dx * xhat
        dx -= mean(dx)
        dx -= np.multiply(xhat, mean(s), out=s)
        dx *= inv
        _accum(x, dx)

    return _node(data, "layer_norm", (x, gain, bias), bw)


def _t(w: Tensor) -> np.ndarray:
    """w.T as a C-contiguous copy: numpy multiplies a 3-D array by it 2-2.5x faster than by the view."""
    return np.ascontiguousarray(w.data.T)


def _affine_bw(x, w: Tensor, bias: Tensor, gy) -> None:
    """Accumulate the weight and bias gradients of x @ w + bias for output gradient gy."""
    gy = gy.reshape(-1, gy.shape[-1])
    _accum(w, lambda: x.reshape(-1, x.shape[-1]).T @ gy)
    _accum(bias, lambda: gy.sum(axis=0))


def attention(q_in: Tensor, kv_in: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
              wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor, heads: int,
              mask=None) -> Tensor:
    """Multi-head scaled dot-product attention with its four projections, as one node.

    `q_in` is (B, Sq, D) and `kv_in` is (B, Sk, D); each projection is
    x @ w + b with a (D, D) weight. `mask` is an optional additive (Sq, Sk)
    array added to every head's scores before the softmax (0 keeps a key, a
    large negative drops it). The forward runs the numpy expressions the
    composed ops would, in their order, so its output is bitwise the same.
    The backward reuses the kept heads and attention weights, and sums the
    q-, k- and v-path gradients when `q_in is kv_in`.
    """
    x, y = q_in.data, kv_in.data
    b, sq, dim = x.shape
    sk = y.shape[-2]
    if dim % heads:
        raise ContractError(f"attention width {dim} is not divisible by {heads} heads")
    e = dim // heads

    def split(h, s):  # (B, S, D) -> (B, heads, S, e) view
        return h.reshape((b, s, heads, e)).transpose((0, 2, 1, 3))

    def merge(h, s):  # (B, heads, S, e) -> (B, S, D)
        return h.transpose((0, 2, 1, 3)).reshape((b, s, dim))

    q = split(x @ wq.data + bq.data, sq)
    k = split(y @ wk.data + bk.data, sk)
    v = split(y @ wv.data + bv.data, sk)
    scale = np.asarray(1.0 / np.sqrt(e), dtype=x.dtype)
    att = q @ k.transpose((0, 1, 3, 2))
    att *= scale
    if mask is not None:
        att += np.asarray(mask, dtype=x.dtype)
    # elementwise maxima down a key-major copy: numpy's reduce along each short row is slower, and a max is exact
    row_max = np.maximum.reduce(np.ascontiguousarray(np.moveaxis(att, -1, 0)))
    att -= row_max[..., None]
    np.exp(att, out=att)
    att /= np.sum(att, axis=-1, keepdims=True)
    merged = merge(att @ v, sq)
    data = merged @ wo.data
    data += bo.data

    def bw(g):
        _affine_bw(merged, wo, bo, g)
        d_out = split(g @ _t(wo), sq)
        need_kv = any(t.requires_grad for t in (kv_in, wk, bk, wv, bv))
        if need_kv:
            dv = merge(att.transpose((0, 1, 3, 2)) @ d_out, sk)
        ds = d_out @ v.transpose((0, 1, 3, 2))
        ds -= np.sum(ds * att, axis=-1, keepdims=True)
        ds *= att
        ds *= scale
        dq = merge(ds @ k, sq)
        _affine_bw(x, wq, bq, dq)
        dx = dq @ _t(wq) if q_in.requires_grad else None
        if need_kv:
            dk = merge(ds.transpose((0, 1, 3, 2)) @ q, sk)
            _affine_bw(y, wk, bk, dk)
            _affine_bw(y, wv, bv, dv)
            if kv_in.requires_grad:
                dy = dk @ _t(wk)
                dy += dv @ _t(wv)
                if kv_in is q_in:
                    dx += dy
                else:
                    _accum(kv_in, dy)
        if dx is not None:
            _accum(q_in, dx)

    return _node(data, "attention", (q_in, kv_in, wq, bq, wk, bk, wv, bv, wo, bo), bw)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 as one node, its output bitwise the composed ops'."""
    h = x.data @ w1.data
    h += b1.data
    pre = h.copy() if grad_enabled() and any(p.requires_grad for p in (x, w1, b1, w2, b2)) else None
    t = gelu_(h)  # in place; only a recorded node keeps a copy of the pre-activation
    data = h @ w2.data
    data += b2.data

    def bw(g):
        _affine_bw(h, w2, b2, g)
        dh = g @ _t(w2)
        dh *= _gelu_grad(pre, t)
        _affine_bw(x.data, w1, b1, dh)
        _accum(x, lambda: dh @ _t(w1))

    return _node(data, "feed_forward", (x, w1, b1, w2, b2), bw)


# ----------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(data, "reshape", (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = a.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        _accum(a, g.transpose(inv))

    return _node(data, "transpose", (a,), bw)


def take(a: Tensor, key) -> Tensor:
    """Slicing or integer-array indexing; gradient scatters back into place.

    The scatter is unbuffered (`np.add.at`), so an index repeated in `key`
    receives the gradient of every position that read it.
    """
    data = a.data[key]

    def bw(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        _accum(a, full)

    return _node(data, "take", (a,), bw)


def pad(a: Tensor, axis: int, before: int, after: int) -> Tensor:
    """Zero-pad one axis."""
    if before < 0 or after < 0:
        raise ContractError("pad amounts must be >= 0")
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)
    data = np.pad(a.data, widths)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(before, before + a.data.shape[axis])
    idx = tuple(idx)

    def bw(g):
        _accum(a, g[idx])

    return _node(data, "pad", (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _node(data, "concat", tuple(tensors), bw)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)

    def bw(g):
        for i, t in enumerate(tensors):
            _accum(t, np.take(g, i, axis=axis))

    return _node(data, "stack", tuple(tensors), bw)


# ----------------------------------------------------------------------
# reductions


def _expand_reduced(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a % len(shape) for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = np.sum(a.data, axis=axis, keepdims=keepdims)

    def bw(g):
        _accum(a, _expand_reduced(g, a.data.shape, axis, keepdims))

    return _node(data, "sum", (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = np.mean(a.data, axis=axis, keepdims=keepdims)
    count = a.data.size / max(data.size, 1)

    def bw(g):
        _accum(a, _expand_reduced(g, a.data.shape, axis, keepdims) / count)

    return _node(data, "mean", (a,), bw)
