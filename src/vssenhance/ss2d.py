"""2D selective scanning: unfold a feature grid along four traversal paths,
run a selective state-space scan over each, and merge the results back.

A grid travels as its row-major (H*W, C) token matrix plus (H, W); every
function here takes and returns tokens in that layout.

Directions and their orderings:

    LR: row-major, left to right then top to bottom
    TD: column-major, top to bottom then left to right
    RL: exact reversal of LR
    DT: exact reversal of TD

The merge scatters each processed sequence back through the inverse of its
traversal permutation and sums the four results, so identity processing
returns exactly 4x the input.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .layers import Module, param
from .ssm import SelectiveHead, linear_recurrence
from .tensor import (
    DimensionError,
    Tensor,
    _grad_mode,
    _merge_columns,
    _node,
    _wrap,
    gather_rows,
    grad_enabled,
    matmul,  # noqa: F401  not called here; perfbench/spans.py wraps ss2d.matmul
    softplus,
)

DIRECTIONS = ("lr", "td", "rl", "dt")

# time steps per chunk of the selective scan: a (64, 4, C, d) working set
# stays in cache, and backward recomputes one chunk at a time
SCAN_CHUNK = 64


@lru_cache(maxsize=128)
def traversal_permutations(H: int, W: int):
    """Sequence-index -> grid-index maps and their inverses: two read-only
    (H*W, 4) arrays, a column per direction in ``DIRECTIONS`` order.

    ``perm[i, r]`` is the row-major grid position direction r visits at step i.
    """
    lr = np.arange(H * W, dtype=np.intp)
    td = (lr % H) * W + lr // H  # step i visits column i//H, row i%H
    perm = np.stack([lr, td, lr[::-1], td[::-1]], axis=1)
    inv = np.argsort(perm, axis=0)
    for arr in (perm, inv):
        arr.setflags(write=False)
    return perm, inv


def cross_scan(tokens: Tensor, H: int, W: int) -> Tensor:
    """Unfold row-major (H*W, C) tokens along the four traversal paths into
    one (H*W, 4, C) stack, directions in ``DIRECTIONS`` order (values copied)."""
    if H < 1 or W < 1:
        raise DimensionError(f"grid must contain at least one position, got {H}x{W}")
    if tokens.ndim != 2 or tokens.shape[0] != H * W:
        raise DimensionError(
            f"expected ({H * W}, C) tokens for a {H}x{W} grid, got {tokens.shape}"
        )
    perm, inv = traversal_permutations(H, W)
    return gather_rows(tokens, perm, inverse=inv)


def cross_merge(seqs: Tensor, H: int, W: int, x=None, skip=None) -> Tensor:
    """Scatter each direction of the (H*W, 4, C) stack ``seqs`` back through
    its inverse traversal and sum, giving row-major tokens, as one graph node.

    Given ``x`` of the stack's shape and ``skip`` (C,), each sequence merged
    is ``seqs + x * skip``, the selective scan's skip term; the node then
    keeps ``x`` and ``skip`` and nothing of its own.
    """
    L = H * W
    if seqs.ndim != 3 or seqs.shape[:2] != (L, len(DIRECTIONS)):
        raise DimensionError(f"cross_merge needs ({L}, 4, C) sequences, got {seqs.shape}")
    parents, y = (seqs,), seqs.data
    if skip is not None:
        x, skip = _wrap(x), _wrap(skip)
        if x.shape != seqs.shape or skip.shape != seqs.shape[2:]:
            raise DimensionError("the skip term needs x of the sequences' shape "
                                 "and one coefficient per channel")
        parents += (x, skip)
        y = y + x.data * skip.data
    perm, inv = traversal_permutations(H, W)
    total = _merge_columns(y, inv)

    def grad_fn(g):
        gy = g[perm]  # each sequence's gradient, (L, 4, C)
        if skip is None:
            return (gy,)
        return gy, gy * skip.data, (gy * x.data).sum(axis=(0, 1))

    return _node(total, parents, grad_fn)


class SS2D(Module):
    """Four direction-specific selective heads over shared per-channel state.

    Each channel carries an independent state of size ``state_dim``; the four
    directions share the (negative, diagonal) state matrix and the skip
    coefficient but own their B/C/delta projections.
    """

    def __init__(self, channels: int, state_dim: int, rng: np.random.Generator):
        self.channels = channels
        self.state_dim = state_dim
        self.heads = [SelectiveHead.init(channels, state_dim, rng) for _ in DIRECTIONS]
        # log-magnitude parameterization keeps the diagonal strictly negative
        self.a_log = param(
            rng.uniform(np.log(0.5), np.log(8.0), size=(channels, state_dim))
        )
        self.skip = param(np.ones(channels))

    def __call__(self, tokens: Tensor, H: int, W: int) -> Tensor:
        return ss2d_forward(tokens, H, W, self)


def _zoh_terms(delta, a, b, x, a_bar, q, u) -> None:
    """a_bar = exp(delta*a), q = (a_bar - 1)/a and u = q*b*x into the given
    buffers, in the op order of ``ssm.selective_zoh``."""
    np.multiply(delta, a, out=a_bar)
    np.exp(a_bar, out=a_bar)
    np.subtract(a_bar, 1.0, out=q)
    np.divide(q, a, out=q)
    np.multiply(q, b, out=u)
    np.multiply(u, x, out=u)


def selective_scan(delta: Tensor, a: Tensor, b: Tensor, c: Tensor, x: Tensor) -> Tensor:
    """Selective scan of R sequences of C channels with state size d, as one
    graph node, on operands that broadcast to (L, R, C, d):

        a_bar = exp(delta*a),  u = (a_bar - 1)/a * b * x,
        h_t = a_bar_t * h_{t-1} + u_t  (h_{-1} = 0),  y_t = sum_d h_t * c_t

    ``delta`` is (L, R, 1, 1), ``a`` (C, d) and strictly negative, ``b`` and
    ``c`` (L, R, 1, d), ``x`` (L, R, C, 1); the result is y, (L, R, C).

    L is walked in chunks of ``SCAN_CHUNK`` steps, each chunk's recurrence
    one ``linear_recurrence`` call on (T, R*C*d) lanes, the state entering it
    folded into its first step.  The node keeps its operands and the (R, C, d)
    state at each chunk boundary; backward recomputes a chunk's terms and
    state from there, in reverse chunk order, so no (L, R, C, d) array lives
    beyond one chunk.
    """
    delta, a, b, c, x = (_wrap(t) for t in (delta, a, b, c, x))
    if x.ndim != 4 or x.shape[3] != 1 or a.ndim != 2 or a.shape[0] != x.shape[2]:
        raise DimensionError(
            f"selective_scan expects x (L, R, C, 1) and a (C, d), got {x.shape} and {a.shape}"
        )
    L, R, C, _ = x.shape
    d = a.shape[1]
    for name, t, shape in (("delta", delta, (L, R, 1, 1)), ("b", b, (L, R, 1, d)),
                           ("c", c, (L, R, 1, d))):
        if t.shape != shape:
            raise DimensionError(f"selective_scan {name} must be {shape}, got {t.shape}")
    parents = (delta, a, b, c, x)
    keep = grad_enabled() and any(t.requires_grad for t in parents)

    y = np.empty((L, R, C, 1))
    states = []  # state entering each chunk, None for the first
    T = min(L, SCAN_CHUNK)
    a_bar, q, u = (np.empty((T, R, C, d)) for _ in range(3))
    h0 = None
    for t0 in range(0, L, SCAN_CHUNK):
        t1 = min(t0 + SCAN_CHUNK, L)
        T = t1 - t0
        ab, uu = a_bar[:T], u[:T]
        _zoh_terms(delta.data[t0:t1], a.data, b.data[t0:t1], x.data[t0:t1], ab, q[:T], uu)
        if h0 is not None:
            uu[0] += ab[0] * h0
        if keep:
            states.append(h0)
        h = linear_recurrence(ab.reshape(T, -1), uu.reshape(T, -1), mode="sequential")
        h = h.data.reshape(T, R, C, d)
        np.matmul(h, c.data[t0:t1].reshape(T, R, d, 1), out=y[t0:t1])
        h0 = h[-1].copy()
    y = y.reshape(L, R, C)
    if not keep:
        return Tensor(y)

    def grad_fn(g):
        return _selective_scan_bwd(g, delta.data, a.data, b.data, c.data, x.data, states)

    return _node(y, parents, grad_fn)


def _selective_scan_bwd(g, delta, a, b, c, x, states):
    """Gradients of :func:`selective_scan` in its operands' shapes, walking
    the chunks in reverse from their saved entry states."""
    L, R, C, _ = x.shape
    d = a.shape[1]
    g = g.reshape(L, R, C, 1)
    g_delta, g_b, g_c, g_x = (np.empty(t.shape) for t in (delta, b, c, x))
    g_a = np.zeros((C, d))
    T = min(L, SCAN_CHUNK)
    a_bar, q, u, g_h, work = (np.empty((T, R, C, d)) for _ in range(5))
    carry = None  # gradient of the state entering the chunk just walked
    for t0, h0 in zip(reversed(range(0, L, SCAN_CHUNK)), reversed(states)):
        t1 = min(t0 + SCAN_CHUNK, L)
        T = t1 - t0
        sl = slice(t0, t1)
        ab, qq, uu, gh, w = a_bar[:T], q[:T], u[:T], g_h[:T], work[:T]
        _zoh_terms(delta[sl], a, b[sl], x[sl], ab, qq, uu)
        if h0 is not None:
            uu[0] += ab[0] * h0
        # recompute the chunk as a recurrence node; its own backward is the adjoint
        with _grad_mode(True):
            node = linear_recurrence(
                Tensor(ab.reshape(T, -1), requires_grad=True),
                Tensor(uu.reshape(T, -1), requires_grad=True),
                mode="sequential",
            )
        h = node.data.reshape(T, R, C, d)
        gy = g[sl]
        np.multiply(gy, c[sl], out=gh)
        if carry is not None:
            gh[-1] += carry
        da, du = node._grad_fn(gh.reshape(T, -1))
        da, du = da.reshape(T, R, C, d), du.reshape(T, R, C, d)

        np.matmul(gy.reshape(T, R, 1, C), h, out=g_c[sl])
        np.multiply(du, qq, out=w)
        np.matmul(w, b[sl].reshape(T, R, d, 1), out=g_x[sl])
        np.matmul(x[sl].reshape(T, R, 1, C), w, out=g_b[sl])

        # through q = (a_bar - 1)/a: w = g_u*b*x/a reaches a_bar, -w*q reaches a
        np.multiply(du, b[sl], out=w)
        np.multiply(w, x[sl], out=w)
        np.divide(w, a, out=w)
        da += w
        if h0 is not None:
            da[0] += du[0] * h0
            carry = du[0] * ab[0]
        np.multiply(w, qq, out=w)
        g_a -= w.reshape(T * R, C * d).sum(axis=0).reshape(C, d)

        # through a_bar = exp(delta*a)
        np.multiply(da, ab, out=da)
        np.matmul(da.reshape(T, R, 1, C * d), a.reshape(C * d, 1), out=g_delta[sl])
        g_a += (delta[sl].reshape(1, T * R) @ da.reshape(T * R, C * d)).reshape(C, d)
    return g_delta, g_a, g_b, g_c, g_x


def _head_projection(x: Tensor, weights, biases=()) -> Tensor:
    """``out[:, r] = x[:, r] @ weights[r] (+ biases[r])`` for each direction
    r of the (L, R, C) stack ``x``, as one node whose GEMMs are R matmuls' own."""
    out = np.empty(x.shape[:2] + weights[0].shape[1:])
    for r, w in enumerate(weights):
        np.matmul(x.data[:, r], w.data, out=out[:, r])
        if biases:
            out[:, r] += biases[r].data

    def grad_fn(g):
        gx = np.empty_like(x.data)
        for r, w in enumerate(weights):
            np.matmul(g[:, r], w.data.T, out=gx[:, r])
        gw = [x.data[:, r].T @ g[:, r] for r in range(len(weights))]
        return (gx, *gw, *(g[:, r].sum(axis=0) for r in range(len(biases))))

    return _node(out, (x, *weights, *biases), grad_fn)


def ss2d_forward(tokens: Tensor, H: int, W: int, weights: SS2D) -> Tensor:
    """cross-scan -> per-direction selective scan -> cross-merge, on the
    row-major (H*W, C) tokens of an H x W grid.

    The directions travel as one (H*W, 4, C) stack, and all four run as one
    :func:`selective_scan`; per-channel state transitions are shared across
    directions while each direction's head supplies its own B/C/delta.
    """
    seqs = cross_scan(tokens, H, W)
    L, R, C = seqs.shape
    if C != weights.channels:
        raise DimensionError(f"tokens have {C} channels, SS2D expects {weights.channels}")
    d, heads = weights.state_dim, weights.heads
    a_neg = -weights.a_log.exp()  # (C, d), strictly negative
    b = _head_projection(seqs, [h.w_b for h in heads])
    c = _head_projection(seqs, [h.w_c for h in heads])
    delta = softplus(_head_projection(seqs, [h.w_delta for h in heads],
                                      [h.b_delta for h in heads]))
    y = selective_scan(
        delta.reshape(L, R, 1, 1), a_neg, b.reshape(L, R, 1, d), c.reshape(L, R, 1, d),
        seqs.reshape(L, R, C, 1),
    )  # (L, 4, C)
    return cross_merge(y, H, W, x=seqs, skip=weights.skip)
