"""Tape-based reverse-mode automatic differentiation over float64 numpy arrays.

Every differentiable quantity in the package is a :class:`Tensor`. Operations
record nodes on the active :class:`Tape` in creation order, which is a
topological order by construction; ``backward`` replays the tape in reverse,
visiting each reachable node exactly once and accumulating gradients into
``Tensor.grad``. The graph is rebuilt from scratch on every training step.

A tape serves one backward pass. It drops each node once the node's backward
rule has run, and clears that node output's gradient, so reverse mode holds
only what it still needs. Afterwards only leaves keep ``.grad``: parameters
and tensors made with ``requires_grad=True``.

Most ops are primitives. ``conv3d`` and ``batch_norm`` are each one node with
a backward rule of their own, which keeps fewer arrays alive than the chain
of primitives computing the same values would.

A tensor's data, and a gradient a backward rule returns, may be a view: the
shape is the contract, not the memory layout. ``conv3d`` returns its output
as a [N, C, D, H, W] view of channels-last memory, ``concat`` given a
buffer returns a channel-prefix view of it, and ``concat``'s backward returns
channel views of g. Data is never changed once a node has recorded it;
``relu`` and ``batch_norm`` overwrite their input only when the caller allows
it and no node records the op.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

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
        self.nodes: list[Optional[Node]] = []
        self.spent = False

    def record(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def backward(self, loss: "Tensor") -> None:
        """Accumulate d(loss)/d(leaf) into .grad of every reachable leaf.

        A tape serves one backward pass. Each node is dropped as soon as its
        rule has run, which frees the arrays its closure saved, and its
        output's gradient is cleared: only leaves keep ``.grad`` afterwards.
        """
        if self.spent:
            raise ContractError("this tape already ran a backward pass")
        if loss.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        if loss.node_id is None or loss.node_id >= len(self.nodes) \
                or self.nodes[loss.node_id].out is not loss:
            raise ContractError("loss tensor is not recorded on this tape")
        self.spent = True

        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad += 1.0

        # Only ancestors of the loss receive a gradient, so a node whose output
        # has none is not on a path to the loss and is skipped.
        for nid in range(loss.node_id, -1, -1):
            node = self.nodes[nid]
            self.nodes[nid] = None
            gout = node.out.grad
            if gout is None:
                continue
            node.out.grad = None
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

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        _active_tape.backward(self)

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return neg(self)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis, keepdims)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _records(parents: tuple) -> bool:
    """Whether an op on ``parents`` records a node: gradients are on and a
    parent wants one."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(op: str, data: np.ndarray, parents: tuple, backward_fn: Callable) -> Tensor:
    out = Tensor(data)
    if _records(parents):
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


def relu(a: Tensor, overwrite: bool = False) -> Tensor:
    """max(a, 0). With ``overwrite``, for a caller that no longer needs a's
    data, the result is written over it when no node records the op."""
    mask = a.data > 0
    if overwrite and not _records((a,)):
        np.copyto(a.data, 0.0, where=~mask)
        return Tensor(a.data)
    return _make("relu", np.where(mask, a.data, 0.0), (a,),
                 lambda g: (g * mask,))


def absolute(a: Tensor) -> Tensor:
    return _make("abs", np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through unclipped entries."""
    mask = (a.data >= lo) & (a.data <= hi)
    return _make("clamp", np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


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


def _same_memory(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.strides == b.strides
            and a.__array_interface__["data"][0] == b.__array_interface__["data"][0])


def concat(tensors: Sequence[Tensor], out: Optional[np.ndarray] = None) -> Tensor:
    """The concatenation of ``tensors`` along axis 1, as a tensor whose data
    is ``out``, or a fresh array when ``out`` is None.

    ``out`` is typically a channel-prefix view of a larger buffer. Each
    tensor's data is copied into its channel slice of ``out`` unless it
    already is that slice, so a prefix grown by one piece per call, with the
    previous prefix as the first tensor, copies each piece once. ``out`` must
    hold no other live tensor's data. The backward splits g by channel into
    views.
    """
    tensors = list(tensors)
    first = tensors[0].shape
    if any(t.data.ndim < 2 or t.shape[:1] + t.shape[2:] != first[:1] + first[2:]
           for t in tensors):
        raise DimensionError(f"concat: pieces {[t.shape for t in tensors]} "
                             f"do not join along axis 1")
    bounds = np.cumsum([0] + [t.shape[1] for t in tensors]).tolist()
    shape = (first[0], bounds[-1], *first[2:])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise DimensionError(f"concat: pieces {[t.shape for t in tensors]} "
                             f"do not fill {out.shape} along axis 1")
    slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    for t, channels in zip(tensors, slices):
        piece = out[:, channels]
        if not _same_memory(piece, t.data):
            piece[...] = t.data
    return _make("concat", out, tuple(tensors),
                 lambda g: tuple(g[:, channels] for channels in slices))


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


def cumprod(a: Tensor) -> Tensor:
    """Exclusive prefix products along the last axis.

    y_j = prod_{o<j} x_o with y_0 = 1. The backward pass uses the reverse
    recurrence U_i = g_{i+1} + x_{i+1} U_{i+1}, so gradients never divide by
    the input and zero entries are safe.
    """
    x = a.data
    n = x.shape[-1]
    out = np.ones_like(x)
    out[..., 1:] = np.cumprod(x[..., :-1], axis=-1)

    def bwd(g):
        acc = np.zeros_like(x)
        carry = np.zeros_like(x[..., 0])
        for i in range(n - 2, -1, -1):
            carry = g[..., i + 1] + x[..., i + 1] * carry
            acc[..., i] = out[..., i] * carry
        return (acc,)

    return _make("cumprod", out, (a,), bwd)


# -- normalization ----------------------------------------------------------

def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, moments=None,
               overwrite: bool = False):
    """Per-channel normalization of ``x`` over every axis but axis 1, as one
    tape node; returns (output, mean, variance), the per-channel moments it
    normalized with.

    Without ``moments`` (training) it normalizes with the batch moments:
    x̂ = (x - mu) / σ with σ = sqrt(var + eps), output x̂·gamma + beta. The
    closed-form backward keeps only x̂ and per-channel vectors: dx =
    (gamma/σ)·(g - mean(g) - x̂·mean(g·x̂)), dgamma = Σ g·x̂, dbeta = Σ g
    (Ioffe and Szegedy, arXiv:1502.03167). With ``moments`` = (mean, var),
    fixed arrays such as running moments, it is the per-channel scale
    s = gamma / sqrt(var + eps) and shift beta - mean·s.

    With ``overwrite``, for a caller that no longer needs x's data, the output
    is written over it when no node records the op. The output keeps x's
    memory layout either way.
    """
    xd = x.data
    into = xd if overwrite and not _records((x, gamma, beta)) else None
    cshape = (1, -1) + (1,) * (xd.ndim - 2)
    axes = (0,) + tuple(range(2, xd.ndim))
    if moments is not None:
        mean, var = moments
        root = np.sqrt(var + eps)
        scale = gamma.data / root
        out = np.multiply(xd, scale.reshape(cshape), out=into)
        out += (beta.data - mean * scale).reshape(cshape)

        def bwd(g):
            dgamma = (g * (xd - mean.reshape(cshape))).sum(axis=axes) / root
            return g * scale.reshape(cshape), dgamma, g.sum(axis=axes)

        return _make("batch_norm", out, (x, gamma, beta), bwd), mean, var

    mu = xd.mean(axis=axes, keepdims=True)
    xhat = xd - mu  # x - mu, then x̂ once divided in place by sigma
    var = (xhat * xhat).mean(axis=axes, keepdims=True)
    sigma = (var + eps) ** 0.5
    xhat /= sigma
    gam = gamma.data.reshape(cshape)
    out = np.multiply(xhat, gam, out=into)
    out += beta.data.reshape(cshape)
    count = xd.size // xd.shape[1]

    def bwd(g):
        gsum = g.sum(axis=axes, keepdims=True)
        gxsum = (g * xhat).sum(axis=axes, keepdims=True)
        dx = xhat * (gxsum / -count)
        dx += g
        dx -= gsum / count
        dx *= gam / sigma
        return dx, gxsum.reshape(-1), gsum.reshape(-1)

    return (_make("batch_norm", out, (x, gamma, beta), bwd),
            mu.reshape(-1), var.reshape(-1))


# -- 3-D convolution ----------------------------------------------------------

# a conv3d column tile: whole samples, TILE_ELEMENTS values (512 KiB) or TILE_ROWS rows if more
TILE_ELEMENTS = 1 << 16
TILE_ROWS = 128


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


def _pad(a, lo, hi):
    """Zero-pad the W axis of a channels-last [N, D, H, W, C] array by lo and
    hi, into a new contiguous buffer."""
    n, d, h, w, c = a.shape
    out = np.zeros((n, d, h, w + lo + hi, c))
    out[:, :, :, lo:lo + w] = a
    return out


def _runs(n_out, lo, n_in, k):
    """The (first output, end output, first tap, end tap) of each run of the
    outputs 0..n_out-1 along one axis that read the same in-range taps, tap t
    of output o reading input o + t - lo."""
    taps = [(max(0, lo - o), min(k, n_in + lo - o)) for o in range(n_out)]
    starts = [o for o in range(n_out) if o == 0 or taps[o] != taps[o - 1]] + [n_out]
    return [(o0, o1, *taps[o0]) for o0, o1 in zip(starts, starts[1:])]


def _channels_last(a):
    """[N, C, D, H, W] as a channels-last view [N, D, H, W, C], copied only
    when its channels are not adjacent in memory."""
    al = a.transpose(0, 2, 3, 4, 1)
    return al if al.strides[4] == al.itemsize else np.ascontiguousarray(al)


def _tiles(xl, lows, out_dims, kd, kh):
    """Yield (index, taps, tile) over a channels-last input ``xl`` [N, D, H,
    W, c] padded by ``lows`` before D and H. For each run of output planes and
    rows that read the same in-range D and H taps (``_runs``), a tile [rows,
    taps*c] has a row per input column (n, od, oh, iw) holding those taps
    only, copied out of a strided view of ``xl`` into storage shared by the
    tiles of one call. ``index`` selects the tile's samples, planes and rows
    of [N, Do, Ho, ...], ``taps`` its (i, j) taps of [kd, kh, ...].

    ``xl`` may be a view, such as a channel prefix of a wider buffer. The
    strided views are built on the contiguous array that owns its memory
    (``np.ndarray`` takes no other buffer, and ``as_strided`` costs three
    times as much a call), or on a copy of ``xl`` when there is none."""
    owner = xl if xl.base is None else xl.base
    if not (isinstance(owner, np.ndarray) and owner.flags.c_contiguous):
        xl = owner = np.ascontiguousarray(xl)
    start = xl.__array_interface__["data"][0] - owner.__array_interface__["data"][0]
    n, d, h, w, c = xl.shape
    sn, sd, sh, sw, sc = xl.strides
    plan = []
    for d0, d1, i0, i1 in _runs(out_dims[0], lows[0], d, kd):
        for h0, h1, j0, j1 in _runs(out_dims[1], lows[1], h, kh):
            view = np.ndarray((n, d1 - d0, h1 - h0, w, i1 - i0, j1 - j0, c), xl.dtype, owner,
                              start + (d0 + i0 - lows[0]) * sd + (h0 + j0 - lows[1]) * sh,
                              (sn, sd, sh, sw, sd, sh, sc))
            rows = (d1 - d0) * (h1 - h0) * w
            step = min(n, max(TILE_ELEMENTS // view[0].size, -(-TILE_ROWS // rows)))
            plan.append((view, step, (slice(d0, d1), slice(h0, h1)),
                         (slice(i0, i1), slice(j0, j1)), (i1 - i0) * (j1 - j0) * c))
    store = np.empty(max(view[:step].size for view, step, *_ in plan))
    for view, step, dh, taps, width in plan:
        for n0 in range(0, n, step):
            part = view[n0:n0 + step]
            tile = store[:part.size].reshape(part.shape)
            tile[...] = part
            yield (slice(n0, min(n0 + step, n)), *dh), taps, tile.reshape(-1, width)


def _kmat(k):
    """[c_out, c_in, kd, kh, kw] kernels as a [kd, kh, c_in, kw*c_out] array."""
    co, ci, kd, kh, kw = k.shape
    return k.transpose(2, 3, 1, 4, 0).reshape(kd, kh, ci, kw * co)


def _correlate(xl, kmat, lows, out):
    """out [N, Do, Ho, Wo, c_out] = the correlation of the channels-last
    ``xl`` with ``kmat`` (laid out by ``_kmat``), padded by ``lows`` before D
    and H, input column 0 sitting at output column lows[2]. One GEMM per tile
    with the kernel rows of its taps gives every W tap's product with every
    input column, and kw shifted adds place them."""
    wl, kw = lows[2], kmat.shape[3] // out.shape[4]
    w, (wo, co) = xl.shape[3], out.shape[3:]
    run = None
    for index, taps, tile in _tiles(xl, lows, out.shape[1:3], *kmat.shape[:2]):
        if taps != run:  # the kernel rows of a new run's taps
            run, k = taps, kmat[taps].reshape(len(tile[0]), -1)
        o = out[index]
        y = (tile @ k).reshape(*o.shape[:3], w, kw, co)
        o[..., :wl, :] = 0
        for l in range(kw):  # tap l adds input column iw into output column iw + wl - l
            o0, i0 = max(0, wl - l), max(0, l - wl)
            m = max(0, min(wo - o0, w - i0))
            if l:
                o[..., o0:o0 + m, :] += y[..., i0:i0 + m, l, :]
            else:
                o[..., o0:o0 + m, :] = y[..., :m, 0, :]


def conv3d(x: Tensor, kernels: Tensor, padding=0) -> Tensor:
    """Cross-correlation over the three trailing axes, at stride 1.

    ``x`` is [batch, c_in, D, H, W] and ``kernels`` is [c_out, c_in, kd, kh,
    kw]. No padded copy of the input is made. The output planes and rows
    split into runs that read the same in-range D and H taps, and the column
    tiles of a run (``_tiles``) hold only those taps per input column: im2col
    over depth and height that skips the zero padding. One GEMM of a tile
    with the run's rows of the [kd*kh*c_in, kw*c_out] kernel computes all kw
    width taps, and kw shifted adds place them in the output: kn2row over
    width (Anderson et al., arXiv:1709.03395). W padding is only the range
    of output columns each tap reaches. No im2col matrix is built: beyond
    its output, a call holds one tile and its GEMM product.

    The input is read in place when its channels are adjacent in memory, as
    in a channel prefix of a channels-last buffer; otherwise one
    channels-last copy is made. The output, and in the backward the input
    gradient, is a [N, C, D, H, W] view of channels-last memory.

    The backward pass keeps the channels-last input. The kernel gradient
    adds tile.T @ dY into the run's taps over the same tiles, dY being g
    shifted into the kw tap columns. The input gradient is the same forward,
    run on g with the flipped, channel-swapped kernel, the mirrored padding
    k-1-lo before D and H and the W offset kw-1-lo. A padding outside 0..k-1
    raises DimensionError.
    """
    xd = x.data
    if xd.ndim != 5:
        raise DimensionError(f"conv3d: input must be 5-D, got {x.shape}")
    kd_ = kernels.data
    if kd_.ndim != 5:
        raise DimensionError(f"conv3d: kernels must be 5-D, got {kernels.shape}")
    N, Ci, D, H, W = xd.shape
    Co, Ck, kd, kh, kw = kd_.shape
    if Ck != Ci:
        raise DimensionError(
            f"conv3d: input channels {Ci} != kernel channels {Ck}")
    pads = _pad_spec(padding)
    ksize = (kd, kh, kw)
    # padding beyond k-1 adds outputs that see only zeros, and would make the
    # backward's mirrored padding negative
    if any(not 0 <= p < k for k, pair in zip(ksize, pads) for p in pair):
        raise DimensionError(f"conv3d: padding {pads} must lie in 0..k-1 for kernel {ksize}")
    padded = [n + lo + hi for n, (lo, hi) in zip((D, H, W), pads)]
    if any(p < k for p, k in zip(padded, ksize)):
        raise DimensionError(f"conv3d: kernel {ksize} larger than padded input {tuple(padded)}")
    out_dims = tuple(p - k + 1 for p, k in zip(padded, ksize))
    lows = [lo for lo, _ in pads]
    xl = _channels_last(xd)
    out = np.empty((N, *out_dims, Co))
    _correlate(xl, _kmat(kd_), lows, out)

    def bwd(g):
        # dY[n, od, oh, iw, l] = g[n, od, oh, iw + lo - l], zero outside g
        g_cl = _channels_last(g)
        gw = _pad(g_cl, *(kw - 1 - p for p in pads[2]))
        sn, sd, sh, sw, sc = gw.strides
        dy = np.ndarray((N, *out_dims[:2], W, kw, Co), gw.dtype, gw, sw * (kw - 1),
                        (sn, sd, sh, sw, -sw, sc))
        dk = np.zeros((kd, kh, Ci, kw * Co))
        for index, taps, tile in _tiles(xl, lows, out_dims, kd, kh):
            dk[taps] += (tile.T @ dy[index].reshape(len(tile), -1)).reshape(dk[taps].shape)
        flipped = kd_.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
        dx = np.empty((N, D, H, W, Ci))
        _correlate(g_cl, _kmat(flipped), [k - 1 - lo for k, lo in zip(ksize, lows)], dx)
        return (dx.transpose(0, 4, 1, 2, 3),
                np.ascontiguousarray(dk.reshape(kd, kh, Ci, kw, Co).transpose(4, 2, 0, 1, 3)))

    return _make("conv3d", out.transpose(0, 4, 1, 2, 3), (x, kernels), bwd)
