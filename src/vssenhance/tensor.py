"""Double-precision N-d tensors with reverse-mode automatic differentiation.

The whole stack (scans, directional 2D scanning, deformable alignment, the
enhancement net) runs on this engine.  Storage is always float64, row-major
and contiguous (but for the block views :func:`recompute` rebuilds its
chain on in backward); an operation is one graph node (a convolution is a
single node, not a loop of scalar nodes), so graphs stay small and numpy
does the heavy lifting.  Gradients accumulate into ``.grad`` until explicitly zeroed.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import struct
import sys
from contextlib import contextmanager
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

__all__ = [
    "Tensor",
    "DimensionError",
    "ConfigurationError",
    "ContractError",
    "concat",
    "matmul",
    "layer_norm",
    "conv2d",
    "conv_transpose2d",
    "gather_rows",
    "pad2d_edges",
    "stack",
    "recompute",
    "no_grad",
    "grad_enabled",
    "save_tensor",
    "load_tensor",
]


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ConfigurationError(ValueError):
    """An impossible size/stride/padding geometry, or a setting out of range."""

    @classmethod
    def require(cls, ok: bool, name: str, requirement: str, value) -> None:
        """Raise ``<name> must be <requirement>, got <value>`` unless ``ok``."""
        if not ok:
            raise cls(f"{name} must be {requirement}, got {value!r}")


class ContractError(RuntimeError):
    """An operation was invoked outside its stated contract."""


_GRAD_ENABLED = True


@contextmanager
def _grad_mode(enabled: bool):
    """Build graph nodes inside the block or not; backward passes that
    recompute a node enter it with True, so they work under ``no_grad``."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = enabled
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def no_grad():
    """Disable graph construction inside the block (inference fast path)."""
    return _grad_mode(False)


def grad_enabled() -> bool:
    return _GRAD_ENABLED


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


def _spent(g):
    """The backward closure of an interior node that backward() has run."""
    raise ContractError("backward() already ran through this graph")


def _persist(leaf: "Tensor", g: np.ndarray) -> None:
    """Add a leaf's gradient into its ``.grad``."""
    if leaf.grad is None:
        leaf.grad = g.copy()
    else:
        leaf.grad += g


def _walk(root: "Tensor", g: np.ndarray, leaf) -> None:
    """Reverse-mode accumulation from ``g``, the gradient of ``root``: each
    interior node's closure runs once, in reverse topological order, on the
    sum of what reached the node, and ``leaf(node, grad)`` takes each leaf's
    sum.  Traversal is iterative, so long op chains (e.g. unrolled
    recurrences) cannot hit the recursion limit.  Each interior node drops
    its closure and parent links once that closure has run, so what only
    they kept is freed as the walk goes, not when it returns.

    A node's first contribution is stored by reference: ops may hand one
    array to several parents (``add`` gives both operands ``g`` itself), so
    the second contribution is added into a fresh array, which the walk owns
    and adds any further ones into in place.
    """
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(root): g}
    owned: set[int] = set()  # nodes whose summed gradient the walk allocated
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            leaf(node, g)
            continue
        parents = node._parents
        parent_grads = node._grad_fn(g)
        node._grad_fn, node._parents = _spent, ()
        for parent, pg in zip(parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            acc = grads.get(key)
            if acc is None:
                grads[key] = pg
            elif key in owned:
                acc += pg
            else:
                grads[key] = acc + pg
                owned.add(key)


class Tensor:
    """A float64 array plus an optional position in a computation graph.

    Leaf tensors created with ``requires_grad=True`` receive accumulated
    gradients in ``.grad`` after ``backward()``.  Interior nodes hold their
    parents and a closure that maps the output gradient to parent gradients;
    their own ``.grad`` is transient and not retained.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn = None

    # ---- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ---- graph management ----------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode accumulation of d(self)/d(leaf) into leaf ``.grad``.

        ``self`` must be a scalar.  Gradients of several graphs, built and
        run in turn without ``zero_grad``, add into the existing buffers.
        The graph is spent as the walk (:func:`_walk`) goes, so a second
        ``backward()`` through any of its interior nodes raises
        ``ContractError``.
        """
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar loss")
        _walk(self, np.ones_like(self.data), _persist)

    # ---- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_wrap(other))

    def __rsub__(self, other):
        return add(_wrap(other), -self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return _slice(self, key)

    # method-style access for the common ops
    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, *axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def exp(self):
        return exp(self)

    def sqrt(self):
        return sqrt(self)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _leaf_over(data: np.ndarray, requires_grad: bool = False) -> Tensor:
    """A leaf Tensor over ``data`` as it is, a view included, without the
    contiguous copy the constructor would make."""
    leaf = Tensor((), requires_grad=requires_grad)
    leaf.data = data
    return leaf


def _node(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _bias(bias, n: int) -> tuple:
    """``(bias,)`` as a parent of an op with ``n`` output channels, or ``()``."""
    if bias is None:
        return ()
    bias = _wrap(bias)
    if bias.data.shape != (n,):
        raise DimensionError(f"bias must have shape ({n},), got {bias.data.shape}")
    return (bias,)


# ---- elementwise arithmetic ----------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def grad_fn(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _node(data, (a, b), grad_fn)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data / b.data

    def grad_fn(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _node(data, (a, b), grad_fn)


def exp(a) -> Tensor:
    a = _wrap(a)
    data = np.exp(a.data)

    def grad_fn(g):
        return (g * data,)

    return _node(data, (a,), grad_fn)


def sqrt(a) -> Tensor:
    a = _wrap(a)
    data = np.sqrt(a.data)

    def grad_fn(g):
        return (g * 0.5 / data,)

    return _node(data, (a,), grad_fn)


def softplus(a) -> Tensor:
    """log(1 + e^x), evaluated in the overflow-safe split form."""
    a = _wrap(a)
    x = a.data
    data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def grad_fn(g):
        sig = 1.0 / (1.0 + np.exp(-x))
        return (g * sig,)

    return _node(data, (a,), grad_fn)


@functools.cache
def _scipy_kernel(module: str, name: str):
    """``name`` from SciPy's compiled extension ``scipy.<module>``, loaded
    from its own file on the first call rather than through SciPy's
    packages: the model uses only ``erf`` (``special._special_ufuncs``) and
    the sparse matrix-vector kernels (``sparse._sparsetools``), and
    importing ``scipy.special`` and ``scipy.sparse`` for them loads about
    320 modules and 20 MB.  ``find_spec`` locates SciPy without importing
    it.  The module is registered under its full name, so a later
    ``import scipy.special`` or ``scipy.sparse`` reuses it, and one already
    imported is used as it is."""
    fullname = f"scipy.{module}"
    required = f"vssenhance needs SciPy >= 1.17 for {fullname}.{name}"
    mod = sys.modules.get(fullname)
    if mod is None:
        spec = importlib.util.find_spec("scipy")
        paths = []
        if spec is not None:
            base = os.path.join(spec.submodule_search_locations[0], *module.split("."))
            paths = [base + s for s in EXTENSION_SUFFIXES if os.path.isfile(base + s)]
        if not paths:
            raise ImportError(f"{required}, but no file of that module was found")
        loader = ExtensionFileLoader(fullname, paths[0])
        mod = importlib.util.module_from_spec(importlib.util.spec_from_loader(fullname, loader))
        loader.exec_module(mod)
        sys.modules[fullname] = mod
    try:
        return getattr(mod, name)
    except AttributeError:
        raise ImportError(f"{required}, but the installed module has no {name}") from None


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU.  Backward keeps no array: it recovers the CDF
    as output / input, within a few ulp, and as 1/2 where x * x underflows
    to zero (|x| below about 1.5e-162), where forward's CDF is exactly 1/2
    and the quotient would be 0/0 or, for subnormal x, inexact.

    SciPy's ``erf`` ufunc is loaded on the first call, so that a process
    that runs no model layer never loads it."""
    erf = _scipy_kernel("special._special_ufuncs", "erf")
    a = _wrap(a)
    x = a.data
    data = x * _INV_SQRT2  # x * (0.5 * (1.0 + erf(x / sqrt 2))), formed in place
    erf(data, out=data)
    data += 1.0
    data *= 0.5
    data *= x

    def grad_fn(g):
        # g * (cdf + x * pdf), formed in place: each fresh array this large
        # costs page faults as well as a pass
        out = x * x
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = data / x
        cdf[out == 0.0] = 0.5
        out *= -0.5
        np.exp(out, out=out)
        out *= _INV_SQRT2PI
        out *= x
        out += cdf
        out *= g
        return (out,)

    return _node(data, (a,), grad_fn)


def clip(a, lo: float, hi: float) -> Tensor:
    """Hard clamp; gradient is zero where the clamp is active."""
    a = _wrap(a)
    data = np.clip(a.data, lo, hi)

    def grad_fn(g):
        mask = (a.data >= lo) & (a.data <= hi)
        return (g * mask,)

    return _node(data, (a,), grad_fn)


# ---- reductions and shaping -----------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _node(np.asarray(data, dtype=np.float64), (a,), grad_fn)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    if axis is None:
        count = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[i] for i in ax]))
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(a, *shape) -> Tensor:
    a = _wrap(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    data = a.data.reshape(shape)

    def grad_fn(g):
        return (g.reshape(a.data.shape),)

    return _node(data, (a,), grad_fn)


def transpose(a, *axes) -> Tensor:
    a = _wrap(a)
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if not axes:
        axes = tuple(reversed(range(a.data.ndim)))
    data = np.ascontiguousarray(a.data.transpose(axes))
    inv = np.argsort(axes)

    def grad_fn(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _node(data, (a,), grad_fn)


def _slice(a, key) -> Tensor:
    a = _wrap(a)
    data = np.ascontiguousarray(a.data[key])

    def grad_fn(g):
        out = np.zeros_like(a.data)
        out[key] = g
        return (out,)

    return _node(data, (a,), grad_fn)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def grad_fn(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        return tuple(np.ascontiguousarray(p) for p in pieces)

    return _node(data, tuple(tensors), grad_fn)


def stack(tensors, axis: int = 0) -> Tensor:
    """Join equal-shape tensors along a new axis."""
    tensors = [_wrap(t) for t in tensors]
    return concat(
        [reshape(t, t.data.shape[:axis] + (1,) + t.data.shape[axis:]) for t in tensors], axis
    )


def gather_rows(a, indices) -> Tensor:
    """Select rows along axis 0: ``out[i] = a[indices[i]]``, or for (L, R)
    ``indices`` ``out[i, r] = a[indices[i, r]]``.  No column of ``indices``
    repeats a row, so the backward pass adds each column's gradient rows
    into place with plain fancy indexing."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.intp)
    # backward reads only these (L, R) columns; R = 1 for (L,) indices
    cols = idx.reshape(len(idx), -1)

    def grad_fn(g):
        g = g.reshape(cols.shape + a.data.shape[1:])
        return (_add_columns(g, cols, np.zeros(a.data.shape)),)

    return _node(a.data[idx], (a,), grad_fn)


def _add_columns(g: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[idx[:, r]] += g[:, r]`` for each column r in turn, in place: the
    adjoint of gathering, into the (P, R, ...) stack ``g``, rows ``idx``
    whose columns repeat no row."""
    for r in range(idx.shape[1]):
        out[idx[:, r]] += g[:, r]
    return out


def pad2d_edges(a, top: int, bottom: int, left: int, right: int, mode: str) -> Tensor:
    """Pad the trailing two axes of a (C, H, W) tensor, per-edge amounts, by
    ``mode`` ``"reflect"`` or ``"edge"`` (``np.pad``'s modes)."""
    a = _wrap(a)
    if a.data.ndim != 3:
        raise DimensionError("padding expects a (C, H, W) tensor")
    if mode not in ("reflect", "edge"):
        raise ValueError(f"unknown padding mode {mode!r}")
    if not (top or bottom or left or right):
        return a
    C, H, W = a.data.shape
    if mode == "reflect" and (max(top, bottom) >= H or max(left, right) >= W):
        raise DimensionError("reflection padding must be smaller than the image")
    iy = np.pad(np.arange(H), (top, bottom), mode=mode)
    ix = np.pad(np.arange(W), (left, right), mode=mode)

    def grad_fn(g):
        gy = np.zeros((C, H, W + left + right))
        np.add.at(gy, (slice(None), iy), g)
        gx = np.zeros((C, H, W))
        np.add.at(gx, (slice(None), slice(None), ix), gy)
        return (gx,)

    return _node(a.data[:, iy][:, :, ix], (a,), grad_fn)


# ---- matmul ----------------------------------------------------------------


def matmul(a, b, bias=None, residual=None) -> Tensor:
    """Standard 2-D matrix product with gradients for both operands, plus
    ``bias`` on every row and then ``residual`` (of the product's shape) if
    given: ``(a @ b + bias) + residual``, the sum a separate ``add`` forms."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects rank-2 operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
        )
    bias = _bias(bias, b.data.shape[1])
    data = a.data @ b.data
    if bias:
        data += bias[0].data
    residual = () if residual is None else (_wrap(residual),)
    if residual:
        if residual[0].data.shape != data.shape:
            raise DimensionError(f"residual must have the product's shape {data.shape}, "
                                 f"got {residual[0].data.shape}")
        data += residual[0].data

    def grad_fn(g):
        return ((g @ b.data.T, a.data.T @ g) + ((g.sum(axis=0),) if bias else ())
                + ((g,) if residual else ()))

    return _node(data, (a, b) + bias + residual, grad_fn)


# ---- layer normalization ----------------------------------------------------


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    C = x.data.shape[-1]
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise DimensionError(
            f"gamma/beta must have shape ({C},), got {gamma.data.shape} and {beta.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    data = gamma.data * (xc * inv_std) + beta.data

    def grad_fn(g):  # keeps the per-row mu and inv_std, and recomputes x-hat
        xhat = (x.data - mu) * inv_std
        gxhat = g * gamma.data
        # d/dx of (x - mu) / sigma, folded into the usual three-term form
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv_std * (gxhat - m1 - xhat * m2)
        reduce_axes = tuple(range(g.ndim - 1))
        ggamma = (g * xhat).sum(axis=reduce_axes)
        gbeta = g.sum(axis=reduce_axes)
        return gx, ggamma, gbeta

    return _node(data, (x, gamma, beta), grad_fn)


# ---- 2-D convolution ---------------------------------------------------------
#
# Every convolution is one GEMM per kernel tap on a shifted view of its
# padded input, the products added in tap order; no patch matrix is formed.
# ``_tap_sum`` is that contraction and ``_tap_adjoint``/``_tap_weight_grad``
# its adjoints, shared by conv2d, conv_transpose2d and deformable_conv2d.


def _conv_out_size(n: int, k: int, stride: int, pad: int) -> int:
    # Floor semantics: trailing positions that do not fit a full window are
    # dropped, the convention every conv stack uses for stride > 1.
    span = n + 2 * pad - k
    if span < 0:
        raise ConfigurationError(
            f"kernel {k} does not fit input extent {n} with padding {pad}"
        )
    return span // stride + 1


def _taps(w: np.ndarray) -> np.ndarray:
    """The (k*k, A, B) view of an (A, B, k, k) kernel's taps, row-major over (ky, kx)."""
    return w.reshape(w.shape[0], w.shape[1], -1).transpose(2, 0, 1)


def _tap_sum(w_taps, srcs, out: np.ndarray, tmp: np.ndarray | None) -> np.ndarray:
    """``out = sum_t w_taps[t] @ srcs[t]``, added in tap order; ``tmp`` is
    scratch of ``out``'s shape (unused for one tap)."""
    np.matmul(w_taps[0], srcs[0], out=out)
    for wt, src in zip(w_taps[1:], srcs[1:]):
        np.matmul(wt, src, out=tmp)
        out += tmp
    return out


def _tap_adjoint(w_taps, g: np.ndarray, dsts, tmp: np.ndarray | None) -> None:
    """``dsts[t] += w_taps[t].T @ g`` for each tap, ``tmp`` scratch of a
    source's shape: the adjoint of :func:`_tap_sum` in its sources.  With no
    ``tmp`` the destinations must not overlap, and are written."""
    for wt, dst in zip(w_taps, dsts):
        if tmp is None:
            np.matmul(wt.T, g, out=dst)
        else:
            np.matmul(wt.T, g, out=tmp)
            dst += tmp


def _tap_weight_grad(g: np.ndarray, srcs, out) -> None:
    """``out[t] += g @ srcs[t].T`` for each tap: the adjoint of
    :func:`_tap_sum` in its weights."""
    for gt, src in zip(out, srcs):
        gt += g @ src.T


class _TapGrid:
    """Where each tap of a k x k, stride-s, pad-p convolution of an H x W
    block reads.

    The zero-padded block ``xp`` is split into its s*s phase images
    ``xp[:, ry::s, rx::s]``, each stored per channel as one flat row of
    ``length`` = Hq*Wq + (k-1)//s entries, the tail zero.  Tap (ky, kx) is a
    shift by ``(ky//s)*Wq + kx//s`` inside phase ``(ky%s)*s + kx%s``: the
    (C, Ho*Wq) slice from there holds the tap's input to output (i, j) in
    column ``i*Wq + j`` and junk for j >= Wo.  Outputs are formed on that
    grid, Wq columns wide, and cropped.  Stride 1 is the one-phase case, and
    an unpadded stride-1 1x1 block is its own phase image.
    """

    def __init__(self, H: int, W: int, k: int, stride: int, pad: int):
        s = stride
        self.Ho, self.Wo = _conv_out_size(H, k, s, pad), _conv_out_size(W, k, s, pad)
        self.Hq, self.Wq = -(-(H + 2 * pad) // s), -(-(W + 2 * pad) // s)
        self.phases, self.length = s * s, self.Hq * self.Wq + (k - 1) // s
        self.wide = self.Ho * self.Wq
        self.taps = [((ky % s) * s + kx % s, (ky // s) * self.Wq + kx // s)
                     for ky in range(k) for kx in range(k)]
        self.direct = s == 1 and pad == 0 and k == 1
        # per phase: its rows and columns that hold the block's, and those
        axes = [[_phase_axis(n, r, s, pad) for r in range(s)] for n in (H, W)]
        self.pieces = [(ry * s + rx, (slice(None), rows, cols), (slice(None), ys, xs))
                       for ry, (rows, ys) in enumerate(axes[0])
                       for rx, (cols, xs) in enumerate(axes[1])]

    def _images(self, phases: np.ndarray) -> np.ndarray:
        flat = phases[:, :, : self.Hq * self.Wq]
        return flat.reshape(flat.shape[:2] + (self.Hq, self.Wq))

    def split(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (s*s, C, length) phase images of the (C, H, W) block ``x``,
        written into ``out`` (an earlier result, so its padding is zero) or a
        fresh buffer; a view of ``x`` when it is its own."""
        if self.direct:
            return x.reshape(1, x.shape[0], -1)
        if out is None:
            out = np.zeros((self.phases, x.shape[0], self.length))
        images = self._images(out)
        for p, at, src in self.pieces:
            images[p][at] = x[src]
        return out

    def sources(self, phases: np.ndarray) -> list[np.ndarray]:
        """Each tap's (C, Ho*Wq) slice of the phase images, in tap order."""
        return [phases[p, :, o : o + self.wide] for p, o in self.taps]

    def widen(self, g: np.ndarray) -> np.ndarray:
        """(C, Ho, Wo) -> (C, Ho*Wq), zero in the junk columns."""
        out = np.zeros((g.shape[0], self.Ho, self.Wq))
        out[:, :, : self.Wo] = g
        return out.reshape(g.shape[0], self.wide)

    def crop(self, wide: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`widen`: the (C, Ho, Wo) view of a wide grid."""
        return wide.reshape(wide.shape[0], self.Ho, self.Wq)[:, :, : self.Wo]

    def input_grad(self, w_taps, g_wide: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Adjoint of the taps' contraction: each ``w_taps[t].T @ g_wide``
        shift-added into phase images, then merged into the (C, H, W) block
        ``out``, padding entries dropped."""
        C = w_taps.shape[2]
        phases = np.zeros((self.phases, C, self.length))
        _tap_adjoint(w_taps, g_wide, self.sources(phases), np.empty((C, self.wide)))
        images = self._images(phases)
        for p, at, dst in self.pieces:
            out[dst] = images[p][at]
        return out


def _phase_axis(n: int, r: int, s: int, pad: int) -> tuple[slice, slice]:
    """Along an axis of n entries padded by ``pad``: the positions in phase r
    (padded positions r, r+s, ...) that hold entries, and those entries."""
    first = max(0, -(-(pad - r) // s))
    start = r + s * first - pad
    count = len(range(start, n, s))
    return slice(first, first + count), slice(start, n, s)


def conv2d(x, w, stride: int = 1, pad: int = 0, bias=None) -> Tensor:
    """Cross-correlation of (C_in, H, W) with (C_out, C_in, k, k), zero
    padding, plus ``bias`` (C_out,) on each output channel if given.

    ``x`` may also be a batch (C_in, N, H, W), giving (C_out, N, Ho, Wo): one
    node that convolves one block at a time, each exactly as an unbatched
    call does, through one set of buffers.  ``x`` may also be a list of
    parts that hold the input channels in order, each convolved by its slice
    of ``w`` and added, in part order, into one output; a (C_i, H, W) part
    among batched ones is shared by every block, so it is convolved once.
    Backward keeps no array: it splits each block into phase images again.
    """
    parts = [_wrap(p) for p in x] if isinstance(x, (list, tuple)) else [_wrap(x)]
    w = _wrap(w)
    if w.data.ndim != 4 or any(p.data.ndim not in (3, 4) for p in parts):
        raise DimensionError("conv2d expects x:(C,H,W) or (C,N,H,W) and w:(Co,Ci,k,k)")
    C_out, C_in, k, k2 = w.data.shape
    if k != k2:
        raise DimensionError("conv2d kernels must be square")
    if k % 2 != 1:
        raise ConfigurationError("conv2d kernel size must be odd")
    channels = sum(p.data.shape[0] for p in parts)
    if channels != C_in:
        raise DimensionError(f"input has {channels} channels, kernel expects {C_in}")
    H, W = parts[0].data.shape[-2:]
    blocks = {p.data.shape[1] for p in parts if p.data.ndim == 4}
    if len(blocks) > 1 or any(p.data.shape[-2:] != (H, W) for p in parts):
        raise DimensionError("conv2d parts must share their extent and block count")
    N = max(blocks, default=1)
    grid = _TapGrid(H, W, k, stride, pad)
    Ho, Wo = grid.Ho, grid.Wo
    bias = _bias(bias, C_out)

    views, start = [], 0  # per part: its (C, n, H, W) blocks and its channels of w
    for part in parts:
        x4 = part.data if part.data.ndim == 4 else part.data[:, None]
        views.append((x4, slice(start, start + len(x4))))
        start += len(x4)

    data = np.empty((C_out, N, Ho, Wo))
    acc = np.empty((C_out, grid.wide))
    tmp = np.empty_like(acc) if k > 1 else None
    for i, (x4, cs) in enumerate(views):
        w_taps = np.ascontiguousarray(_taps(w.data[:, cs]))
        buf = None
        for n in range(x4.shape[1]):
            buf = grid.split(x4[:, n], buf)
            y = grid.crop(_tap_sum(w_taps, grid.sources(buf), acc, tmp))[:, None]
            dst = data[:, n : n + 1] if x4.shape[1] == N else data
            if i == 0:
                dst[...] = y
            else:
                dst += y
    if bias:
        data += bias[0].data.reshape(-1, 1, 1, 1)

    def grad_fn(g):
        g4 = g.reshape(C_out, N, Ho, Wo)
        gw = np.zeros(w.data.shape)
        grads = []
        for part, (x4, cs) in zip(parts, views):
            w_taps = np.ascontiguousarray(_taps(w.data[:, cs]))
            gw_taps = _taps(gw[:, cs])  # a view: adds land in gw
            gp = g4 if x4.shape[1] == N else g4.sum(axis=1, keepdims=True)
            gx, buf = np.empty(x4.shape), None
            for n in range(x4.shape[1]):
                g_wide = grid.widen(gp[:, n])
                buf = grid.split(x4[:, n], buf)  # the phase images forward read
                _tap_weight_grad(g_wide, grid.sources(buf), gw_taps)
                grid.input_grad(w_taps, g_wide, gx[:, n])
            grads.append(gx.reshape(part.data.shape))
        grads.append(gw)
        if bias:
            grads.append(g4.sum(axis=(1, 2, 3)))
        return tuple(grads)

    shape = (C_out, N, Ho, Wo) if blocks else (C_out, Ho, Wo)
    return _node(data.reshape(shape), (*parts, w, *bias), grad_fn)


def conv_transpose2d(x, w, stride: int = 1, pad: int = 0, bias=None) -> Tensor:
    """Transposed convolution (the adjoint map of ``conv2d`` on the same geometry).

    ``x`` is (C_in, H, W); ``w`` is (C_in, C_out, k, k); ``bias``, if given,
    (C_out,) on each output channel.  Output extent is
    ``(H - 1) * stride - 2 * pad + k``.  Forward is conv2d's input gradient,
    backward its forward and weight gradient; backward keeps no array.
    """
    x, w = _wrap(x), _wrap(w)
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise DimensionError("conv_transpose2d expects x:(C,H,W) and w:(Ci,Co,k,k)")
    C_in, C_out, k, k2 = w.data.shape
    if k != k2:
        raise DimensionError("conv_transpose2d kernels must be square")
    if x.data.shape[0] != C_in:
        raise DimensionError(
            f"input has {x.data.shape[0]} channels, kernel expects {C_in}"
        )
    C, H, W = x.data.shape
    H_out = (H - 1) * stride - 2 * pad + k
    W_out = (W - 1) * stride - 2 * pad + k
    if H_out < 0 or W_out < 0:
        raise ConfigurationError("transposed convolution output size is negative")
    # conv2d's geometry from the (C_out, H_out, W_out) output to x's grid
    grid = _TapGrid(H_out, W_out, k, stride, pad)
    bias = _bias(bias, C_out)
    w_taps = np.ascontiguousarray(_taps(w.data))
    data = grid.input_grad(w_taps, grid.widen(x.data), np.empty((C_out, H_out, W_out)))
    if bias:
        data += bias[0].data.reshape(-1, 1, 1)

    def grad_fn(g):
        srcs = grid.sources(grid.split(g))
        wide = np.empty((C_in, grid.wide))
        _tap_sum(np.ascontiguousarray(_taps(w.data)), srcs, wide, np.empty_like(wide))
        gw = np.zeros(w.data.shape)
        _tap_weight_grad(grid.widen(x.data), srcs, _taps(gw))
        gb = (g.sum(axis=(1, 2)),) if bias else ()
        return (np.ascontiguousarray(grid.crop(wide)), gw) + gb

    return _node(data, (x, w) + bias, grad_fn)


# ---- activation checkpointing -------------------------------------------------


def recompute(fn, inputs, params=()) -> Tensor:
    """``fn(*inputs)`` as one graph node that keeps only its inputs
    (activation checkpointing; Chen et al. 2016, arXiv:1604.06174).

    Forward runs ``fn`` once, on the whole inputs, without building a graph.
    Backward rebuilds it one block at a time: a (C, N, H, W) input is N
    blocks along axis 1, and any other input is shared by every block.  For
    each block in turn it runs ``fn`` again, with graphs on, on leaves over
    that block of each blocked input (views, not copies) and over the shared
    inputs' data, walks that subgraph from the block's slice of the node's
    gradient, and takes what reaches the leaves and ``params``: a blocked
    input's gradient is written, block by block, into one array of its
    shape, and a shared input's or parameter's is added up in block order.
    So the chain's interior outputs live only while one block's backward
    runs.  Inputs with no axis of blocks are one block.

    Contract: block n of the output (its axis 1) depends only on block n of
    the blocked inputs and on the shared ones.  ``fn`` must read graph
    tensors only through its inputs, and every tensor it reads that
    requires a gradient must be an input or in ``params``.  With graphs off
    this is ``fn(*inputs)``.
    """
    inputs, params = tuple(_wrap(t) for t in inputs), tuple(params)
    parents = inputs + params
    if not (_GRAD_ENABLED and any(p.requires_grad for p in parents)):
        return fn(*inputs)
    counts = {t.data.shape[1] for t in inputs if t.data.ndim == 4}
    if len(counts) > 1:
        raise DimensionError(f"recompute: (C, N, H, W) inputs differ in N: {sorted(counts)}")
    N = max(counts, default=1)
    with _grad_mode(False):
        out = fn(*inputs)

    def grad_fn(g):
        grads = [None] * len(parents)
        blocked = [t.data.ndim == 4 for t in inputs] + [False] * len(params)

        def collect(leaf, gl):  # reads the current block's slot and cut
            i = slot.get(id(leaf))
            if i is None:
                raise ContractError("recompute: fn read a tensor that requires a gradient "
                                    "and is neither an input nor a parameter")
            if N == 1:
                grads[i] = gl
            elif blocked[i]:
                if grads[i] is None:
                    grads[i] = np.empty(parents[i].data.shape)
                grads[i][cut] = gl
            elif grads[i] is None:
                grads[i] = gl.copy()  # owned, so later blocks add in place
            else:
                grads[i] += gl

        for n in range(N):
            cut = (slice(None), slice(n, n + 1)) if N > 1 else ...
            leaves = [_leaf_over(t.data[cut] if is_blocked else t.data, t.requires_grad)
                      for t, is_blocked in zip(inputs, blocked)]
            with _grad_mode(True):
                rebuilt = fn(*leaves)
            slot = {id(t): i for i, t in enumerate((*leaves, *params))}
            _walk(rebuilt, g[cut], collect)
            del rebuilt  # its output, before the next block's rebuild
        return tuple(grads)

    return _node(out.data, parents, grad_fn)


# ---- persistence -------------------------------------------------------------

_MAGIC = b"VSST"


def save_tensor(t: Tensor | np.ndarray, path) -> None:
    """Flat little-endian binary: magic, u32 rank, u64 dims, float64 payload."""
    arr = t.data if isinstance(t, Tensor) else _as_array(t)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype("<f8").tobytes())


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ContractError(f"{path}: not a tensor file (bad magic)")
    if len(blob) < 8:
        raise ContractError(f"{path}: truncated tensor header")
    (rank,) = struct.unpack_from("<I", blob, 4)
    offset = 8 + 8 * rank
    if len(blob) < offset:
        raise ContractError(f"{path}: truncated tensor header")
    dims = struct.unpack_from(f"<{rank}Q", blob, 8)
    count = math.prod(dims)
    expected = offset + 8 * count
    if len(blob) != expected:
        what = "truncated tensor payload" if len(blob) < expected else "trailing bytes"
        raise ContractError(f"{path}: {what} ({len(blob)} bytes, shape {dims} needs {expected})")
    payload = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    return Tensor(payload.reshape(dims).copy())
