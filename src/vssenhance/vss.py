"""The visual state-space block: pre-norm 2D selective scan with a residual,
then a pre-norm feedforward with a residual.

Both branch outputs pass through zero-initialized projections, so a freshly
constructed block is exactly the identity map; training grows the branches
from there.
"""

from __future__ import annotations

import numpy as np

from .layers import LayerNorm, Linear, Module
from .ss2d import SS2D
from .tensor import DimensionError, Tensor, gelu, recompute


class FeedForward(Module):
    """linear -> GELU -> linear on (L, C) tokens, hidden width 2C; a
    ``residual`` is added inside the last linear's node."""

    def __init__(self, channels: int, rng: np.random.Generator):
        hidden = 2 * channels
        self.expand = Linear(channels, hidden, rng)
        self.project = Linear(hidden, channels, rng, zero_init=True)

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        return self.project(gelu(self.expand(x)), residual=residual)


class VSSBlock(Module):
    def __init__(self, channels: int, state_dim: int, rng: np.random.Generator):
        self.channels = channels
        self.norm1 = LayerNorm(channels)
        self.ss2d = SS2D(channels, state_dim, rng)
        self.scan_project = Linear(channels, channels, rng, zero_init=True)
        self.norm2 = LayerNorm(channels)
        self.ffn = FeedForward(channels, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return vss_forward(x, self)


def vss_forward(h_in: Tensor, block: VSSBlock) -> Tensor:
    """Token-space evaluation of the two pre-norm residual branches on a
    (C, H, W) feature grid.

    The grid becomes row-major (H*W, C) tokens once on the way in and goes
    back once on the way out; layer norm acts over channels at each spatial
    position, and each branch's zero-initialized output projection adds the
    residual inside its own node.  The feedforward branch, norm included, is
    one :func:`~vssenhance.tensor.recompute` node that keeps only ``mid``.
    """
    if h_in.ndim != 3:
        raise DimensionError(f"VSS block expects a (C, H, W) grid, got {h_in.shape}")
    C, H, W = h_in.shape
    if C != block.channels:
        raise DimensionError(f"input has {C} channels, block expects {block.channels}")
    tokens = h_in.reshape(C, H * W).transpose(1, 0)  # (L, C)

    mid = block.scan_project(block.ss2d(block.norm1(tokens), H, W), residual=tokens)
    out = recompute(lambda mid: block.ffn(block.norm2(mid), residual=mid), [mid],
                    block.norm2.parameters() + block.ffn.parameters())
    return out.transpose(1, 0).reshape(C, H, W)
