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

    def __call__(self, tokens: Tensor, H: int, W: int) -> Tensor:
        """The two pre-norm residual branches on the row-major (H*W, C) tokens
        of an H x W grid, returning tokens of the same shape.

        Layer norm acts over channels at each spatial position, and each
        branch's zero-initialized output projection adds the residual inside
        its own node.  The feedforward branch, norm included, is one
        :func:`~vssenhance.tensor.recompute` node that keeps only ``mid``.
        """
        if H < 1 or W < 1 or tokens.shape != (H * W, self.channels):
            raise DimensionError(
                f"VSS block expects ({H * W}, {self.channels}) tokens for a {H}x{W} grid, "
                f"got {tokens.shape}"
            )
        mid = self.scan_project(self.ss2d(self.norm1(tokens), H, W), residual=tokens)
        return recompute(lambda mid: self.ffn(self.norm2(mid), residual=mid), [mid],
                         self.norm2.parameters() + self.ffn.parameters())
