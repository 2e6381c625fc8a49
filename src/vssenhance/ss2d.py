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
from .ssm import SelectiveHead, linear_recurrence, selective_readout, selective_zoh
from .tensor import DimensionError, Tensor, _wrap, concat, gather_rows, matmul, softplus

DIRECTIONS = ("lr", "td", "rl", "dt")


@lru_cache(maxsize=128)
def traversal_permutations(H: int, W: int):
    """Sequence-index -> grid-index maps (and inverses) for each direction.

    ``perm[i]`` is the row-major grid position visited at sequence step i.
    """
    L = H * W
    lr = np.arange(L, dtype=np.intp)
    i = np.arange(L, dtype=np.intp)
    td = (i % H) * W + i // H  # step i visits column i//H, row i%H
    perms = {"lr": lr, "td": td, "rl": lr[::-1].copy(), "dt": td[::-1].copy()}
    invs = {k: np.argsort(v) for k, v in perms.items()}
    return perms, invs


def cross_scan(tokens: Tensor, H: int, W: int) -> tuple[Tensor, ...]:
    """Unfold row-major (H*W, C) tokens along the four traversal paths, in
    ``DIRECTIONS`` order (values copied)."""
    if H < 1 or W < 1:
        raise DimensionError(f"grid must contain at least one position, got {H}x{W}")
    if tokens.ndim != 2 or tokens.shape[0] != H * W:
        raise DimensionError(
            f"expected ({H * W}, C) tokens for a {H}x{W} grid, got {tokens.shape}"
        )
    perms, invs = traversal_permutations(H, W)
    return tuple(gather_rows(tokens, perms[k], inverse=invs[k]) for k in DIRECTIONS)


def cross_merge(seqs, H: int, W: int) -> Tensor:
    """Scatter each (H*W, C) sequence back through its inverse traversal and
    sum, giving row-major tokens."""
    if len(seqs) != len(DIRECTIONS):
        raise DimensionError(f"cross_merge needs {len(DIRECTIONS)} sequences, got {len(seqs)}")
    L = H * W
    perms, invs = traversal_permutations(H, W)
    total = None
    for name, seq in zip(DIRECTIONS, seqs):
        seq = _wrap(seq)
        if seq.shape[0] != L:
            raise DimensionError(
                f"{name} sequence has length {seq.shape[0]}, the grid needs {L}"
            )
        back = gather_rows(seq, invs[name], inverse=perms[name])
        total = back if total is None else total + back
    return total


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


def ss2d_forward(tokens: Tensor, H: int, W: int, weights: SS2D) -> Tensor:
    """cross-scan -> per-direction selective scan -> cross-merge, on the
    row-major (H*W, C) tokens of an H x W grid.

    All four directional recurrences run as one (L, 4*C*d) batch of lanes;
    per-channel state transitions are shared across directions while each
    direction's head supplies its own B/C/delta.
    """
    seqs = cross_scan(tokens, H, W)
    L, C = seqs[0].shape
    if C != weights.channels:
        raise DimensionError(f"tokens have {C} channels, SS2D expects {weights.channels}")
    d = weights.state_dim
    a_neg = -weights.a_log.exp()  # (C, d), strictly negative

    # batch the four directions: (L, 4, C) sequences, (L, 4, d) projections
    seq_all = concat([s.reshape(L, 1, C) for s in seqs], axis=1)
    b_all = concat([matmul(s, h.w_b).reshape(L, 1, d) for s, h in zip(seqs, weights.heads)], axis=1)
    c_all = concat([matmul(s, h.w_c).reshape(L, 1, d) for s, h in zip(seqs, weights.heads)], axis=1)
    delta_all = concat(
        [
            softplus(matmul(s, h.w_delta) + h.b_delta).reshape(L, 1, 1, 1)
            for s, h in zip(seqs, weights.heads)
        ],
        axis=1,
    )

    a_bar, u = selective_zoh(  # (L, 4, C, d)
        delta_all, a_neg.reshape(1, 1, C, d), b_all.reshape(L, 4, 1, d),
        seq_all.reshape(L, 4, C, 1),
    )
    h_all = linear_recurrence(
        a_bar.reshape(L, 4 * C * d), u.reshape(L, 4 * C * d), mode="auto"
    ).reshape(L, 4, C, d)
    y_all = selective_readout(h_all, c_all.reshape(L, 4, 1, d), axis=3)  # (L, 4, C)
    y_all = y_all + seq_all * weights.skip.reshape(1, 1, C)

    return cross_merge([y_all[:, r] for r in range(4)], H, W)
