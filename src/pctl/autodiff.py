"""Tape-based reverse-mode automatic differentiation over float64 numpy arrays.

Every differentiable quantity in the package is a :class:`Tensor`. Operations
record nodes on the active :class:`Tape` in creation order, which is a
topological order by construction; ``backward`` replays the tape in reverse,
visiting each reachable node exactly once and accumulating gradients into
``Tensor.grad``. The graph is rebuilt from scratch on every training step.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DimensionError, DomainError


class Node:
    """One recorded operation: output tensor, parents, and a backward rule."""

    __slots__ = ("op", "out", "parents", "backward_fn")

    def __init__(self, op: str, out: "Tensor", parents: tuple, backward_fn: Callable):
        self.op = op
        self.out = out
        self.parents = parents
        self.backward_fn = backward_fn  # grad_out -> tuple of parent grads


class Tape:
    """Ordered record of operations; owned by a single training session."""

    def __init__(self):
        self.nodes: list[Node] = []

    def record(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def backward(self, loss: "Tensor") -> None:
        """Accumulate d(loss)/d(leaf) into .grad of every reachable tensor."""
        if loss.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        if loss.node_id is None or loss.node_id >= len(self.nodes) \
                or self.nodes[loss.node_id].out is not loss:
            raise ContractError("loss tensor is not recorded on this tape")

        # Mark the ancestry of the loss so unrelated nodes are skipped.
        reachable: set[int] = set()
        stack = [loss.node_id]
        while stack:
            nid = stack.pop()
            if nid in reachable:
                continue
            reachable.add(nid)
            for p in self.nodes[nid].parents:
                if p.node_id is not None and p.node_id not in reachable:
                    stack.append(p.node_id)

        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad += 1.0

        for nid in range(loss.node_id, -1, -1):
            if nid not in reachable:
                continue
            node = self.nodes[nid]
            gout = node.out.grad
            if gout is None:
                continue
            for parent, g in zip(node.parents, node.backward_fn(gout)):
                if g is None or not parent.requires_grad:
                    continue
                if g.shape != parent.data.shape:
                    g = g.reshape(parent.data.shape)
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g


_active_tape = Tape()
_grad_enabled = True


def active_tape() -> Tape:
    return _active_tape


@contextmanager
def fresh_tape():
    """Install a new tape for one forward/backward session."""
    global _active_tape
    prev = _active_tape
    _active_tape = Tape()
    try:
        yield _active_tape
    finally:
        _active_tape = prev


@contextmanager
def no_grad():
    """Disable recording; forward results are plain values."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense float64 array with an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "node_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.node_id: Optional[int] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        _active_tape.backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis, keepdims)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(op: str, data: np.ndarray, parents: tuple, backward_fn: Callable) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node_id = _active_tape.record(Node(op, out, parents, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


# -- elementwise binary ----------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    return _make("add", a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    return _make("sub", a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    return _make("mul", a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "div")
    if np.any(b.data == 0.0):
        raise DomainError("div: divisor contains zero")
    out = a.data / b.data
    return _make("div", out, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape),
                            _unbroadcast(-g * out / b.data, b.shape)))


def neg(a: Tensor) -> Tensor:
    return _make("neg", -a.data, (a,), lambda g: (-g,))


def power(a: Tensor, exponent) -> Tensor:
    """a ** e. Tensor exponents (and non-integer scalars) need a positive base."""
    if isinstance(exponent, Tensor):
        _check_broadcast(a, exponent, "pow")
        if np.any(a.data <= 0.0):
            raise DomainError("pow: tensor exponent requires a strictly positive base")
        out = a.data ** exponent.data
        log_a = np.log(a.data)

        def bwd(g):
            return (_unbroadcast(g * exponent.data * a.data ** (exponent.data - 1.0),
                                 a.shape),
                    _unbroadcast(g * out * log_a, exponent.shape))

        return _make("pow", out, (a, exponent), bwd)

    e = float(exponent)
    if e != int(e) and np.any(a.data < 0.0):
        raise DomainError("pow: fractional exponent requires a non-negative base")
    out = a.data ** e
    return _make("pow", out, (a,),
                 lambda g: (g * e * a.data ** (e - 1.0),))


# -- elementwise unary -----------------------------------------------------

def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make("exp", out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log: input contains non-positive entries")
    return _make("log", np.log(a.data), (a,), lambda g: (g / a.data,))


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_stable(a.data)
    return _make("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x) computed as max(x, 0) + log1p(e^-|x|) for stability."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return _make("softplus", out, (a,), lambda g: (g * _sigmoid_stable(x),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make("relu", np.where(mask, a.data, 0.0), (a,),
                 lambda g: (g * mask,))


def absolute(a: Tensor) -> Tensor:
    return _make("abs", np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through unclipped entries."""
    mask = (a.data >= lo) & (a.data <= hi)
    return _make("clamp", np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def sqrt(a: Tensor) -> Tensor:
    return power(a, 0.5)


# -- linear algebra ----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    return _make("matmul", a.data @ b.data, (a, b),
                 lambda g: (g @ b.data.T, a.data.T @ g))


# -- shape manipulation ------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape
    return _make("reshape", a.data.reshape(shape), (a,),
                 lambda g: (g.reshape(orig),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make("transpose", np.ascontiguousarray(a.data.transpose(axes)), (a,),
                 lambda g: (np.ascontiguousarray(g.transpose(inverse)),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(piece)
                     for piece in np.split(g, bounds, axis=axis))

    return _make("concat", np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), bwd)


# -- reductions ---------------------------------------------------------------

def _axis_tuple(axis, ndim: int):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make("sum", out, (a,), bwd)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.data.ndim)
    count = int(np.prod([a.data.shape[i] for i in axes]))
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.data.shape).copy() / count,)

    return _make("mean", out, (a,), bwd)


def cumprod(a: Tensor, axis: int = -1, exclusive: bool = False) -> Tensor:
    """Prefix products along ``axis``.

    ``exclusive=True`` gives y_j = prod_{o<j} x_o with y_0 = 1. The backward
    pass uses the reverse recurrences T_i = g_i + x_{i+1} T_{i+1} (inclusive)
    and U_i = g_{i+1} + x_{i+1} U_{i+1} (exclusive), so gradients never divide
    by the input and zero entries are safe.
    """
    axis = axis % a.data.ndim
    x = np.moveaxis(a.data, axis, -1).copy()
    n = x.shape[-1]
    inclusive = np.cumprod(x, axis=-1)
    prefix_excl = np.ones_like(x)
    prefix_excl[..., 1:] = inclusive[..., :-1]
    out_last = prefix_excl.copy() if exclusive else inclusive

    def bwd(g):
        gl = np.moveaxis(g, axis, -1)
        acc = np.empty_like(x)
        if exclusive:
            carry = np.zeros_like(x[..., 0])
            acc[..., n - 1] = 0.0
            for i in range(n - 2, -1, -1):
                carry = gl[..., i + 1] + x[..., i + 1] * carry
                acc[..., i] = prefix_excl[..., i] * carry
        else:
            carry = gl[..., n - 1].copy()
            acc[..., n - 1] = prefix_excl[..., n - 1] * carry
            for i in range(n - 2, -1, -1):
                carry = gl[..., i] + x[..., i + 1] * carry
                acc[..., i] = prefix_excl[..., i] * carry
        return (np.ascontiguousarray(np.moveaxis(acc, -1, axis)),)

    return _make("cumprod", np.ascontiguousarray(np.moveaxis(out_last, -1, axis)),
                 (a,), bwd)


# -- 3-D convolution ----------------------------------------------------------

def _pad_spec(padding):
    """Normalize padding to three (lo, hi) pairs."""
    if isinstance(padding, int):
        padding = (padding, padding, padding)
    spec = []
    for p in padding:
        spec.append((p, p) if isinstance(p, int) else (int(p[0]), int(p[1])))
    if len(spec) != 3:
        raise DimensionError(f"conv3d: padding must cover 3 axes, got {padding!r}")
    return spec


def conv3d(x: Tensor, kernels: Tensor, stride=1, padding=0) -> Tensor:
    """Cross-correlation over the three trailing axes.

    ``x`` is [batch, c_in, D, H, W] (a 4-D input is treated as batch 1) and
    ``kernels`` is [c_out, c_in, kd, kh, kw]. Internally the input is moved to
    channels-last, an im2col matrix is built once, and a single GEMM produces
    the output; the matrix is retained for the backward pass.
    """
    squeeze = x.data.ndim == 4
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 5:
        raise DimensionError(f"conv3d: input must be 4-D or 5-D, got {x.shape}")
    kd_ = kernels.data
    if kd_.ndim != 5:
        raise DimensionError(f"conv3d: kernels must be 5-D, got {kernels.shape}")
    N, Ci, D, H, W = xd.shape
    Co, Ck, kd, kh, kw = kd_.shape
    if Ck != Ci:
        raise DimensionError(
            f"conv3d: input channels {Ci} != kernel channels {Ck}")
    if isinstance(stride, int):
        stride = (stride, stride, stride)
    sd, sh, sw = stride
    pads = _pad_spec(padding)
    padded_dims = tuple(size + lo + hi
                        for size, (lo, hi) in zip((D, H, W), pads))
    if any(p < k for p, k in zip(padded_dims, (kd, kh, kw))):
        raise DimensionError(
            f"conv3d: kernel {(kd, kh, kw)} larger than padded input {padded_dims}")
    Do, Ho, Wo = ((p - k) // s + 1
                  for p, k, s in zip(padded_dims, (kd, kh, kw), stride))

    xp = np.pad(xd, ((0, 0), (0, 0), pads[0], pads[1], pads[2]))
    xl = np.ascontiguousarray(xp.transpose(0, 2, 3, 4, 1))  # [N,Dp,Hp,Wp,Ci]
    win = sliding_window_view(xl, (kd, kh, kw), axis=(1, 2, 3))
    win = win[:, ::sd, ::sh, ::sw]                 # [N,Do,Ho,Wo,Ci,kd,kh,kw]
    cols = win.reshape(N * Do * Ho * Wo, Ci * kd * kh * kw)  # copies once
    kmat = kd_.reshape(Co, Ci * kd * kh * kw).T
    out2 = cols @ kmat
    out = np.ascontiguousarray(
        out2.reshape(N, Do, Ho, Wo, Co).transpose(0, 4, 1, 2, 3))

    pad_shape = xp.shape

    def bwd(g):
        if squeeze:
            g = g[None]
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 4, 1)).reshape(-1, Co)
        dk = (cols.T @ g2).T.reshape(Co, Ci, kd, kh, kw)
        dcols = (g2 @ kmat.T).reshape(N, Do, Ho, Wo, Ci, kd, kh, kw)
        dxl = np.zeros((pad_shape[0], pad_shape[2], pad_shape[3], pad_shape[4], Ci))
        for i in range(kd):
            for j in range(kh):
                for l in range(kw):
                    dxl[:, i:i + sd * Do:sd, j:j + sh * Ho:sh, l:l + sw * Wo:sw] += \
                        dcols[..., i, j, l]
        dx = dxl.transpose(0, 4, 1, 2, 3)[
            :, :, pads[0][0]:pads[0][0] + D,
            pads[1][0]:pads[1][0] + H, pads[2][0]:pads[2][0] + W]
        dx = np.ascontiguousarray(dx)
        if squeeze:
            dx = dx[0]
        return (dx, dk)

    if squeeze:
        out = out[0]
    return _make("conv3d", out, (x, kernels), bwd)
