"""2D selective scanning: unfold a feature grid along four traversal paths,
run a selective state-space scan over each, and merge the results back.

A grid travels as its row-major (H*W, C) token matrix plus (H, W); every
function here takes and returns tokens in that layout.

Directions and their orderings:

    LR: row-major, left to right then top to bottom
    TD: column-major, top to bottom then left to right
    RL: exact reversal of LR
    DT: exact reversal of TD

Each sequence runs through the selective scan (Mamba's selective SSM): per
step, zero-order-hold terms a_bar = exp(delta*a) and u = (a_bar - 1)/a * b * x
from input-dependent B, C and delta, then h_t = a_bar_t * h_{t-1} + u_t, read
out as y_t = C_t h_t.  ``_scan_chunks`` evaluates it in chunks of
``SCAN_CHUNK`` steps, each chunk one ``linear_recurrence``, and an
``SS2D`` call runs the whole path in pieces of ``SCAN_PIECE`` steps.

The merge scatters each processed sequence back through the inverse of its
traversal permutation and sums the four results, so identity processing
returns exactly 4x the input.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .layers import Module, param
from .tensor import (
    DimensionError,
    Tensor,
    _grad_mode,
    _add_columns,
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
# sequence steps per piece of the SS2D forward, a multiple of SCAN_CHUNK: its
# stack, B, C, Δ and scan output cover one piece at a time
SCAN_PIECE = 4096
DELTA_FLOOR = 0.01  # a fresh selective head's step size, softplus(b_delta)


@lru_cache(maxsize=128)
def traversal_permutations(H: int, W: int):
    """Sequence-index -> grid-index maps: a read-only (H*W, 4) array, a
    column per direction in ``DIRECTIONS`` order.

    ``perm[i, r]`` is the row-major grid position direction r visits at step i.
    """
    lr = np.arange(H * W, dtype=np.intp)
    td = (lr % H) * W + lr // H  # step i visits column i//H, row i%H
    perm = np.stack([lr, td, lr[::-1], td[::-1]], axis=1)
    perm.setflags(write=False)
    return perm


def _check_grid(tokens: Tensor, H: int, W: int) -> None:
    """Reject an empty grid, or tokens that are not its (H*W, C) matrix."""
    if H < 1 or W < 1:
        raise DimensionError(f"grid must contain at least one position, got {H}x{W}")
    if tokens.ndim != 2 or tokens.shape[0] != H * W:
        raise DimensionError(
            f"expected ({H * W}, C) tokens for a {H}x{W} grid, got {tokens.shape}"
        )


def cross_scan(tokens: Tensor, H: int, W: int, steps: slice = slice(None)) -> Tensor:
    """Unfold row-major (H*W, C) tokens along the four traversal paths into
    one (H*W, 4, C) stack, directions in ``DIRECTIONS`` order (values copied).
    ``steps`` keeps only that range of sequence steps, a (P, 4, C) stack."""
    _check_grid(tokens, H, W)
    return gather_rows(tokens, traversal_permutations(H, W)[steps])


def cross_merge(seqs: Tensor, H: int, W: int, steps: slice = slice(None),
                out: np.ndarray | None = None) -> Tensor:
    """Scatter each direction of the (H*W, 4, C) stack ``seqs`` back through
    its inverse traversal and sum, giving row-major tokens, as one graph node.

    ``seqs`` may hold only the range ``steps`` of sequence steps, (P, 4, C);
    tokens no direction visits there get zero.  The sum is added, in place,
    into the (H*W, C) array ``out`` if one is given, which becomes the
    node's value: so a stack merged in pieces adds up, token by token, in
    piece order and then direction order."""
    rows = traversal_permutations(H, W)[steps]
    if seqs.ndim != 3 or seqs.shape[:2] != rows.shape:
        raise DimensionError(
            f"cross_merge needs {rows.shape + (seqs.shape[-1],)} sequences, got {seqs.shape}")
    if out is None:
        out = np.zeros((H * W,) + seqs.shape[2:])
    return _node(_add_columns(seqs.data, rows, out), (seqs,), lambda g: (g[rows],))


class SelectiveHead(Module):
    """Projection weights that map input features to (B_t, C_t, delta_t)."""

    def __init__(self, feat_dim: int, state_dim: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(feat_dim)
        self.w_b = param(rng.normal(0.0, scale, size=(feat_dim, state_dim)))  # (C_feat, d)
        self.w_c = param(rng.normal(0.0, scale, size=(feat_dim, state_dim)))  # (C_feat, d)
        self.w_delta = param(rng.normal(0.0, scale, size=(feat_dim, 1)))  # (C_feat, 1)
        # softplus(b_delta) == DELTA_FLOOR
        self.b_delta = param(np.array([float(np.log(np.expm1(DELTA_FLOOR)))]))  # (1,)


class SS2D(Module):
    """Four direction-specific selective heads over shared per-channel state.

    Each channel carries an independent state of size ``state_dim``; the four
    directions share the (negative, diagonal) state matrix and the skip
    coefficient but own their B/C/delta projections.
    """

    def __init__(self, channels: int, state_dim: int, rng: np.random.Generator):
        self.channels = channels
        self.state_dim = state_dim
        self.heads = [SelectiveHead(channels, state_dim, rng) for _ in DIRECTIONS]
        # log-magnitude parameterization keeps the diagonal strictly negative
        self.a_log = param(
            rng.uniform(np.log(0.5), np.log(8.0), size=(channels, state_dim))
        )
        self.skip = param(np.ones(channels))

    def __call__(self, tokens: Tensor, H: int, W: int) -> Tensor:
        """cross-scan -> per-direction selective scan and skip term -> cross-merge,
        on the row-major (H*W, C) tokens of an H x W grid, as one graph node.

        The directions travel as one stack, and all four run through the
        chunked scan at once; per-channel state transitions are shared across
        directions while each direction's head supplies its own B/C/delta.

        The node's parents are ``tokens`` and the 18 parameters (each head's
        ``w_b``, ``w_c``, ``w_delta``, ``b_delta``, then ``a_log`` and ``skip``).
        Forward runs with graph building off, in pieces of ``SCAN_PIECE``
        sequence steps: each piece's (P, 4, C) stack is gathered by
        ``cross_scan``, its B, C and Δ projected, its chunks scanned from the
        state the previous piece left, its skip term added, and the result
        scatter-added into the (H*W, C) output by ``cross_merge``.  So no
        (H*W, 4, C) array is formed, and the output equals the whole-stack
        composition's within 1e-12 (bitwise for one piece: a token's four terms
        then add in direction order).  The node keeps only the (4, C, d) state
        entering each scan chunk.  Backward walks the same pieces in reverse
        (activation checkpointing): each rebuilds its stack as a gather node on
        the tokens, recomputes its B, C and Δ, runs the scan's adjoint over its
        chunks from the kept states, carrying the state's gradient into the
        piece before, and takes its stack's gradient back to the tokens through
        the rebuilt gather.  The tokens' gradient adds up piece by piece in one
        (H*W, C) array, and each parameter's across pieces, so no array larger
        than a piece's stack outlives a piece, and the gradients equal the
        whole-stack composition's within 1e-12 (bitwise but for ``skip``'s for
        one piece).
        """
        tokens = _wrap(tokens)
        heads = [(h.w_b, h.w_c, h.w_delta, h.b_delta) for h in self.heads]
        params = (*(p for head in heads for p in head), self.a_log, self.skip)
        _check_grid(tokens, H, W)
        L, C, d, R = H * W, tokens.shape[1], self.state_dim, len(DIRECTIONS)
        if C != self.channels:
            raise DimensionError(f"tokens have {C} channels, SS2D expects {self.channels}")
        parents = (tokens, *params)
        keep = grad_enabled() and any(t.requires_grad for t in parents)
        out, states, h, piece = np.zeros((L, C)), [], None, SCAN_PIECE
        with _grad_mode(False):
            a_neg = -np.exp(self.a_log.data)  # (C, d), strictly negative
            for t0 in range(0, L, piece):
                steps = slice(t0, min(t0 + piece, L))
                seqs = cross_scan(tokens, H, W, steps)
                P = seqs.shape[0]
                b, c, delta = _projections(seqs.data, heads)
                y, h = _scan_chunks(softplus(delta).data.reshape(P, R, 1, 1), a_neg,
                                    b.reshape(P, R, 1, d), c.reshape(P, R, 1, d),
                                    seqs.data.reshape(P, R, C, 1), h, states if keep else None)
                y = y.reshape(P, R, C)
                y += seqs.data * self.skip.data  # the skip term x * D
                cross_merge(Tensor(y), H, W, steps, out)
        if not keep:
            return Tensor(out)

        def piece_grad(g, steps, carry, a_neg):
            """One piece's share of the gradients, and the carry into the piece
            before it."""
            with _grad_mode(True):
                seqs = cross_scan(Tensor(tokens.data, requires_grad=True), H, W, steps)
            x, scatter = seqs.data, seqs._grad_fn  # the gather's adjoint, run last
            del seqs
            P = x.shape[0]
            b, c, pre = _projections(x, heads)
            with _grad_mode(True):
                delta = softplus(Tensor(pre, requires_grad=True))
            chunks = slice(steps.start // SCAN_CHUNK, -(-steps.stop // SCAN_CHUNK))
            g_y = g[traversal_permutations(H, W)[steps]]  # the merge's adjoint, (P, 4, C)
            g_delta, g_a, g_b, g_c, g_x, carry = _selective_scan_bwd(
                g_y, delta.data.reshape(P, R, 1, 1), a_neg, b.reshape(P, R, 1, d),
                c.reshape(P, R, 1, d), x.reshape(P, R, C, 1), states[chunks], carry)
            del b, c
            g_skip = np.einsum("prc,prc->c", g_y, x)
            # the stack's gradient, in g_y's buffer, summed in a fixed order (skip
            # term, then the Δ, B and C projections, then x): another order
            # changes its last bits
            g_seqs = g_y
            g_seqs *= params[-1].data
            w_b, w_c, w_delta, _ = zip(*heads)
            g_pre = delta._grad_fn(g_delta.reshape(P, R, 1))[0]
            gd = _head_projection_bwd(x, w_delta, R, g_pre, g_seqs)  # w_delta, then b_delta
            gb = _head_projection_bwd(x, w_b, 0, g_b.reshape(P, R, d), g_seqs)
            gc = _head_projection_bwd(x, w_c, 0, g_c.reshape(P, R, d), g_seqs)
            g_seqs += g_x.reshape(P, R, C)
            del x, g_x, g_b, g_c
            (g_tokens,) = scatter(g_seqs)
            per_head = [(gb[r], gc[r], gd[r], gd[R + r]) for r in range(R)]
            return [g_tokens, *(gr for head in per_head for gr in head), g_a, g_skip], carry

        def grad_fn(g):
            a_neg = -np.exp(params[-2].data)
            grads, carry = None, None
            for t0 in reversed(range(0, L, piece)):
                share, carry = piece_grad(g, slice(t0, min(t0 + piece, L)), carry, a_neg)
                if grads is None:
                    grads = share
                else:
                    for acc, gp in zip(grads, share):
                        acc += gp
                del share  # before the next piece's working set
            grads[-2] *= a_neg  # through a = -exp(a_log)
            return tuple(grads)

        return _node(out, parents, grad_fn)


def sequential_recurrence_data(a: np.ndarray, u: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Exact left-to-right evaluation of h_t = a_t * h_{t-1} + u_t on (L, n),
    h_{-1} = 0, each step written in place into the output.

    ``reverse`` evaluates the adjoint s_t = a_{t+1} * s_{t+1} + u_t right to
    left instead, from s_L = 0, reading ``a`` one step ahead.
    """
    L, n = a.shape
    out = np.empty((L, n))
    if L == 0:
        return out
    # row views made once: indexing a, u and out afresh at every step costs
    # more than the step's two ufunc calls at a few hundred lanes
    if reverse:
        out[L - 1] = u[L - 1]
        for a_next, s_next, u_t, s_t in zip(a[:0:-1], out[:0:-1], u[-2::-1], out[-2::-1]):
            np.multiply(a_next, s_next, out=s_t)
            s_t += u_t
        return out
    np.multiply(a[0], 0.0, out=out[0])
    out[0] += u[0]
    for a_t, h_prev, u_t, h_t in zip(a[1:], out, u[1:], out[1:]):
        np.multiply(a_t, h_prev, out=h_t)
        h_t += u_t
    return out


# the scan calls this through the module global in forward and backward, so
# perfbench/spans.py can wrap ss2d.linear_recurrence and see every chunk
def linear_recurrence(a: Tensor, u: Tensor) -> Tensor:
    """Differentiable h_t = a_t ⊙ h_{t-1} + u_t over (L, n) lanes, h_{-1} = 0.

    The backward pass is the adjoint recurrence s_t = g_t + a_{t+1} ⊙ s_{t+1},
    with du = s and da_t = s_t ⊙ h_{t-1}.
    """
    a, u = _wrap(a), _wrap(u)
    if a.shape != u.shape or a.data.ndim != 2:
        raise DimensionError("linear_recurrence expects matching (L, n) operands")
    h = sequential_recurrence_data(a.data, u.data)

    def grad_fn(g):
        s = sequential_recurrence_data(a.data, g, reverse=True)
        da = np.empty_like(s)
        np.multiply(s[:1], 0.0, out=da[:1])  # h_{-1} = 0
        np.multiply(s[1:], h[:-1], out=da[1:])
        return da, s

    return _node(h, (a, u), grad_fn)


def _zoh_terms(delta, a, b, x, a_bar, q, u) -> None:
    """Zero-order-hold terms of the selective scan into the given buffers:
    a_bar = exp(delta*a), q = (a_bar - 1)/a and u = q*b*x.

    This is the exact hold integral with no series guard; ``a`` is strictly
    negative by construction, so a == 0 never occurs."""
    np.multiply(delta, a, out=a_bar)
    np.exp(a_bar, out=a_bar)
    np.subtract(a_bar, 1.0, out=q)
    np.divide(q, a, out=q)
    np.multiply(q, b, out=u)
    np.multiply(u, x, out=u)


def _scan_chunks(delta, a, b, c, x, h0=None, states=None):
    """Selective scan of R sequences of C channels with state size d, on
    arrays that broadcast to (L, R, C, d):

        a_bar = exp(delta*a),  u = (a_bar - 1)/a * b * x,
        h_t = a_bar_t * h_{t-1} + u_t  (h_{-1} = h0, or 0),  y_t = sum_d h_t * c_t

    ``delta`` is (L, R, 1, 1), ``a`` (C, d) and strictly negative, ``b`` and
    ``c`` (L, R, 1, d), ``x`` (L, R, C, 1).  Returns y, (L, R, C, 1), and
    the (R, C, d) state after the last step, so that a later call continues
    the sequence from it.  The state entering each chunk of ``SCAN_CHUNK``
    steps (``h0`` for the first) is appended to ``states`` if given; a
    chunk's recurrence is one ``linear_recurrence`` on (T, R*C*d) lanes.
    """
    L, R, C, _ = x.shape
    d = a.shape[1]
    y = np.empty((L, R, C, 1))
    T = min(L, SCAN_CHUNK)
    a_bar, q, u = (np.empty((T, R, C, d)) for _ in range(3))
    for t0 in range(0, L, SCAN_CHUNK):
        t1 = min(t0 + SCAN_CHUNK, L)
        T = t1 - t0
        ab, uu = a_bar[:T], u[:T]
        _zoh_terms(delta[t0:t1], a, b[t0:t1], x[t0:t1], ab, q[:T], uu)
        if h0 is not None:
            uu[0] += ab[0] * h0
        if states is not None:
            states.append(h0)
        h = linear_recurrence(ab.reshape(T, -1), uu.reshape(T, -1))
        h = h.data.reshape(T, R, C, d)
        np.matmul(h, c[t0:t1].reshape(T, R, d, 1), out=y[t0:t1])
        h0 = h[-1].copy()
    return y, h0


def _selective_scan_bwd(g, delta, a, b, c, x, states, carry=None):
    """Gradients of :func:`_scan_chunks` in its operands' shapes, walking the
    chunks in reverse and recomputing each from its saved entry state.

    ``carry`` is the gradient of the state the last step leaves, when a
    later run of the scan continued from it; the gradient of the state
    entering the first chunk comes back last, for the run before (None when
    that state is the zero start)."""
    L, R, C, _ = x.shape
    d = a.shape[1]
    g = g.reshape(L, R, C, 1)
    g_delta, g_b, g_c, g_x = (np.empty(t.shape) for t in (delta, b, c, x))
    g_a = np.zeros((C, d))
    T = min(L, SCAN_CHUNK)
    a_bar, q, u = (np.empty((T, R, C, d)) for _ in range(3))
    for t0, h0 in zip(reversed(range(0, L, SCAN_CHUNK)), reversed(states)):
        t1 = min(t0 + SCAN_CHUNK, L)
        T = t1 - t0
        sl = slice(t0, t1)
        ab, qq, uu = a_bar[:T], q[:T], u[:T]
        _zoh_terms(delta[sl], a, b[sl], x[sl], ab, qq, uu)
        if h0 is not None:
            uu[0] += ab[0] * h0
        # recompute the chunk as a recurrence node; its own backward is the adjoint
        with _grad_mode(True):
            node = linear_recurrence(
                Tensor(ab.reshape(T, -1), requires_grad=True),
                Tensor(uu.reshape(T, -1), requires_grad=True),
            )
        h = node.data.reshape(T, R, C, d)
        gy = g[sl]
        # the recurrence's adjoint reads only a_bar and h, so u's buffer is
        # free: it takes h's gradient, then the working products below
        gh = w = uu
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
        carry = None  # now the gradient of the state entering this chunk
        if h0 is not None:
            da[0] += du[0] * h0
            carry = du[0] * ab[0]
        np.multiply(w, qq, out=w)
        g_a -= w.reshape(T * R, C * d).sum(axis=0).reshape(C, d)

        # through a_bar = exp(delta*a)
        np.multiply(da, ab, out=da)
        np.matmul(da.reshape(T, R, 1, C * d), a.reshape(C * d, 1), out=g_delta[sl])
        g_a += (delta[sl].reshape(1, T * R) @ da.reshape(T * R, C * d)).reshape(C, d)
    return g_delta, g_a, g_b, g_c, g_x, carry


def _head_projection(x: np.ndarray, weights, biases=()) -> np.ndarray:
    """``out[:, r] = x[:, r] @ weights[r] (+ biases[r])`` for each direction
    r of the (L, R, C) stack ``x``; its adjoint is :func:`_head_projection_bwd`."""
    out = np.empty(x.shape[:2] + weights[0].shape[1:])
    for r, w in enumerate(weights):
        np.matmul(x[:, r], w.data, out=out[:, r])
        if biases:
            out[:, r] += biases[r].data
    return out


def _head_projection_bwd(x: np.ndarray, weights, n_bias: int, g: np.ndarray, gx: np.ndarray):
    """Gradients of :func:`_head_projection` for the output gradient ``g``:
    the stack's is added into ``gx``, a direction at a time through one
    (L, C) buffer, and the list of the weights' and then the ``n_bias``
    biases' gradients is returned."""
    tmp = np.empty(x.shape[:1] + x.shape[2:])
    for r, w in enumerate(weights):
        np.matmul(g[:, r], w.data.T, out=tmp)
        gx[:, r] += tmp
    gw = [x[:, r].T @ g[:, r] for r in range(len(weights))]
    return gw + [g[:, r].sum(axis=0) for r in range(n_bias)]


def _projections(seqs: np.ndarray, heads):
    """B, C and the pre-softplus Δ of the (L, 4, C) stack; ``heads`` holds
    each direction's (w_b, w_c, w_delta, b_delta)."""
    w_b, w_c, w_delta, b_delta = zip(*heads)
    return (_head_projection(seqs, w_b), _head_projection(seqs, w_c),
            _head_projection(seqs, w_delta, b_delta))
