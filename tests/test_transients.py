"""The memory a deformable convolution and an SS2D forward use on top of
their output does not grow with the grid: both work in bands or pieces of
a fixed size.  Measured with tracemalloc, which counts numpy's buffers, so
the check is exact and the same on any machine."""

import tracemalloc

import numpy as np
import pytest

from vssenhance.align import DCN_BAND, deformable_conv2d
from vssenhance.ss2d import SCAN_PIECE, SS2D, ss2d_forward
from vssenhance.tensor import Tensor, no_grad


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
            sizes.append(transient_bytes(lambda: ss2d_forward(tokens, H, W, weights)))
    small, large = sizes
    # the whole (L, 4, C) stack alone would be 4x the small grid's
    assert large <= 1.1 * small
    # a piece's stack, scan output and skip product, B, C and Δ, and the
    # scan chunk's working set come to under six (SCAN_PIECE, 4, C) stacks
    assert small <= 6 * SCAN_PIECE * 4 * C * 8
