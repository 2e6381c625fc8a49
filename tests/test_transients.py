"""The memory a deformable convolution and an SS2D forward use on top of
their output does not grow with the grid: both work in bands or pieces of
a fixed size.  Nor does the memory the backward of an SS2D node or of an
offset field's recompute node uses on top of the gradients it returns: the
one rebuilds a piece at a time, the other a block.  Measured with
tracemalloc, which counts numpy's buffers, so the check is exact and the
same on any machine."""

import tracemalloc

import numpy as np
import pytest

from vssenhance import align
from vssenhance.align import DCN_BAND, PCDAlign, deformable_conv2d
from vssenhance.ss2d import SCAN_PIECE, SS2D
from vssenhance.tensor import Tensor, no_grad

from helpers import perturbed


def transient_bytes(fn) -> int:
    """Peak bytes ``fn()`` allocates beyond its output's buffer, after one
    warm-up call (first-use imports and cached traversal tables)."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base - out.data.nbytes


def backward_transient_bytes(make, rng) -> int:
    """Peak bytes the backward closure of the node ``make()`` allocates
    beyond the gradients it returns, after one warm-up node and backward."""
    out = make()
    out._grad_fn(np.ones(out.shape))
    out = make()
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grads = out._grad_fn(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base - sum(a.nbytes for a in grads if a is not None)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def test_deformable_transient_is_band_sized(rng):
    # 64 x 64 and 128 x 128 blocks: 4 and 16 bands of DCN_BAND positions
    C, N = 4, 2
    w = Tensor(rng.normal(size=(C, C, 3, 3)))
    sizes = []
    for side in (64, 128):
        assert side * side >= 4 * DCN_BAND
        f = Tensor(rng.normal(size=(C, N, side, side)))
        offsets = Tensor(rng.uniform(-2.0, 2.0, size=(18, N, side, side)))
        with no_grad():
            sizes.append(transient_bytes(lambda: deformable_conv2d(f, offsets, w)))
    small, large = sizes
    # a window-sized sample buffer alone would be 4x the small grid's
    assert large <= 1.1 * small
    # a band's (C, 9 * DCN_BAND) samples, and its positions and read
    # operator at under 160 bytes a sample
    assert small <= 9 * DCN_BAND * (C * 8 + 160)


def test_ss2d_transient_is_piece_sized(rng):
    # 2 and 8 pieces of SCAN_PIECE steps
    C, d = 8, 4
    weights = SS2D(channels=C, state_dim=d, rng=rng)
    sizes = []
    for H, W in ((64, 128), (128, 256)):
        assert H * W >= 2 * SCAN_PIECE
        tokens = Tensor(rng.normal(size=(H * W, C)))
        with no_grad():
            sizes.append(transient_bytes(lambda: weights(tokens, H, W)))
    small, large = sizes
    # the whole (L, 4, C) stack alone would be 4x the small grid's
    assert large <= 1.1 * small
    # a piece's stack, scan output and skip product, B, C and Δ, and the
    # scan chunk's working set come to under six (SCAN_PIECE, 4, C) stacks
    assert small <= 6 * SCAN_PIECE * 4 * C * 8


def test_ss2d_backward_transient_is_piece_sized(rng):
    # 2 and 8 pieces of SCAN_PIECE steps
    C, d = 8, 4
    weights = SS2D(channels=C, state_dim=d, rng=rng)
    sizes = []
    for H, W in ((64, 128), (128, 256)):
        assert H * W >= 2 * SCAN_PIECE
        tokens = Tensor(rng.normal(size=(H * W, C)), requires_grad=True)
        sizes.append(backward_transient_bytes(lambda: weights(tokens, H, W), rng))
    small, large = sizes
    # the whole rebuilt (L, 4, C) stack alone would be 4x the small grid's
    assert large <= 1.1 * small
    # a piece's rebuilt stack, its gradient from the merge (which becomes
    # the stack's gradient), the scan's x gradient, B and C (d = C/2) and
    # their gradients, Δ, and the scan chunk's working set come to under
    # six (SCAN_PIECE, 4, C) stacks
    assert small <= 6 * SCAN_PIECE * 4 * C * 8


def test_offset_field_backward_transient_is_block_sized(rng):
    # a level's parts as pcd_align passes them: N neighbour blocks, the
    # shared reference, and the coarser level's offsets, one block each
    C, side = 8, 48
    pcd = perturbed(PCDAlign(C, rng), rng)
    convs = (pcd.off_a[1], pcd.off_b[1], pcd.off_head[1])
    sizes = {}
    for N in (1, 2, 5):
        parts = [Tensor(rng.normal(size=(C, N, side, side)), requires_grad=True),
                 Tensor(rng.normal(size=(C, side, side)), requires_grad=True),
                 Tensor(rng.normal(size=(18, N, side, side)), requires_grad=True)]
        sizes[N] = backward_transient_bytes(lambda: align._offset_field(*convs, parts), rng)
    # a whole-window rebuild would grow with N
    assert sizes[5] <= 1.1 * sizes[2]
    # at N = 1 a block's input gradients are the ones returned; with more
    # blocks, each block's are copied into the window's, so they count
    block_grads = (C + C + 18) * side * side * 8
    assert sizes[5] <= 1.1 * (sizes[1] + block_grads)
