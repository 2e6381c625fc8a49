"""Multi-frame feature alignment.

Feature extraction into a three-level pyramid, then coarse-to-fine deformable
alignment of a neighbor frame's features to the reference frame: offsets are
predicted at the coarsest level, refined at each finer level from the
upsampled coarser offsets, and a final cascading deformable convolution
polishes the full-resolution output against the reference.  There is no
fusion stage; callers concatenate the aligned maps themselves.

Offset fields are (2*k*k, H, W): channels (2t, 2t+1) hold the (dy, dx)
displacement of kernel tap t, taps enumerated row-major over the k x k
window.  Offsets are clamped to max(H, W) pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import tensor as T
from .layers import Conv2d, Module
from .tensor import DimensionError, Tensor, _node, _wrap, concat, gelu

__all__ = [
    "FramePyramid",
    "FeatureExtractor",
    "PCDAlign",
    "bilinear_sample",
    "bilinear_gather",
    "deformable_conv2d",
    "resize_bilinear",
    "pcd_align",
]

PYRAMID_LEVELS = 3


@dataclass
class FramePyramid:
    """Feature maps from fine (full resolution) to coarse, each level half the
    previous (ceil division); all levels share a channel count."""

    levels: list[Tensor]  # (C, H, W) each

    def __post_init__(self):
        if any(f.ndim != 3 for f in self.levels):
            raise DimensionError("pyramid levels must be (C, H, W) feature maps")
        chans = {f.shape[0] for f in self.levels}
        if len(chans) != 1:
            raise DimensionError("pyramid levels must share a channel count")
        for fine, coarse in zip(self.levels, self.levels[1:]):
            want = (-(-fine.shape[1] // 2), -(-fine.shape[2] // 2))
            if coarse.shape[1:] != want:
                raise DimensionError(
                    f"pyramid level {coarse.shape} does not halve {fine.shape}"
                )

    def shapes(self):
        return [f.shape for f in self.levels]


# ---------------------------------------------------------------------------
# bilinear sampling
# ---------------------------------------------------------------------------


# corner order in a row of the read operator: (y0, x0), (y0, x0+1), (y0+1, x0), (y0+1, x0+1)
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _axis_corners(coords: np.ndarray, n: int):
    """The floor and next grid line of each coordinate on an axis of n cells:
    their indices (clamped, NaN to 0), zero-outside weights and weight slopes."""
    c0 = np.floor(coords)
    frac = coords - c0
    near = (c0 >= 0) & (c0 <= n - 1)
    far = (c0 >= -1) & (c0 <= n - 2)
    index = [np.fmin(np.fmax(c, 0), n - 1).astype(np.intp) for c in (c0, c0 + 1)]
    return index, ((1 - frac) * near, frac * far), (-1.0 * near, 1.0 * far)


def bilinear_gather(f: Tensor, ys, xs) -> Tensor:
    """Sample (C, H, W) values at M continuous positions -> (C, M).

    Positions outside [0, H-1] x [0, W-1] contribute zeros corner-by-corner.
    Differentiable in the values and, when ``ys``/``xs`` are tensors, in the
    coordinates (piecewise, with kinks at integer coordinates).

    The read is one sparse (M, H*W) operator: forward applies it, backward its
    transpose.  Backward keeps the operator's arrays; when the coordinates
    need a gradient it also keeps the per-axis corner factors and forms the
    two (C, M) coordinate derivatives there, from the values ``f``.
    """
    f = _wrap(f)
    if f.data.ndim != 3:
        raise DimensionError("bilinear_gather expects (C, H, W) values")
    ys_t, xs_t = _wrap(ys), _wrap(xs)
    C, H, W = f.data.shape
    M = ys_t.data.size
    coord_grad = T.grad_enabled() and (ys_t.requires_grad or xs_t.requires_grad)
    iy, ry, sy = _axis_corners(ys_t.data.reshape(-1), H)
    ix, rx, sx = _axis_corners(xs_t.data.reshape(-1), W)
    cols = np.stack([iy[a] * W + ix[b] for a, b in _CORNERS], axis=1).reshape(-1)
    indptr = np.arange(0, 4 * M + 1, 4)

    def corners(fy, fx):  # fy * fx at each corner, in CSR entry order
        return np.stack([fy[a] * fx[b] for a, b in _CORNERS], axis=1).reshape(-1)

    def operator(data):  # the (M, H*W) CSR matrix holding ``data`` at the corners
        return sparse.csr_matrix((data, cols, indptr), shape=(M, H * W))

    def apply(data):  # (C, M); one channel at a time, so neither side is transposed
        op = operator(data)
        return np.stack([op @ row for row in f.data.reshape(C, H * W)])

    weights = corners(ry, rx)
    out = apply(weights)
    if not coord_grad:
        ry = rx = sy = sx = None  # backward reads only the operator

    def grad_fn(g):
        gf = (g @ operator(weights)).reshape(C, H, W)
        if not coord_grad:
            return gf, None, None
        gy = (g * apply(corners(sy, rx))).sum(axis=0)
        gx = (g * apply(corners(ry, sx))).sum(axis=0)
        return gf, gy.reshape(ys_t.data.shape), gx.reshape(xs_t.data.shape)

    return _node(out, (f, ys_t, xs_t), grad_fn)


def bilinear_sample(f: Tensor, y: float, x: float) -> Tensor:
    """Interpolated (C,) read of one continuous position of (C, H, W) values."""
    return bilinear_gather(f, np.array([float(y)]), np.array([float(x)])).reshape(f.shape[0])


def resize_bilinear(f: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resize of (C, H, W) with half-pixel centers and edge clamping."""
    f = _wrap(f)
    C, H, W = f.data.shape
    sy = H / out_h
    sx = W / out_w
    ys = np.clip((np.arange(out_h) + 0.5) * sy - 0.5, 0, H - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * sx - 0.5, 0, W - 1)
    yy = np.repeat(ys, out_w)
    xx = np.tile(xs, out_h)
    return bilinear_gather(f, yy, xx).reshape(C, out_h, out_w)


# ---------------------------------------------------------------------------
# deformable convolution
# ---------------------------------------------------------------------------


def deformable_conv2d(f: Tensor, offsets: Tensor, w: Tensor) -> Tensor:
    """Stride-1 deformable convolution with per-position, per-tap offsets.

    At each output position p the k x k taps sample ``f`` at
    p + tap + offset_tap(p) via bilinear interpolation (zeros outside the
    grid), then contract with ``w`` exactly like the plain convolution, so a
    zero offset field reproduces ``conv2d(f, w, stride=1, pad=(k-1)/2)``
    bitwise.
    """
    f = _wrap(f)
    offsets = _wrap(offsets)
    w = _wrap(w)
    C_out, C_in, k, k2 = w.shape
    if k != k2 or k % 2 != 1:
        raise DimensionError("deformable kernels must be square with odd size")
    if f.ndim != 3:
        raise DimensionError(f"deformable_conv2d expects (C, H, W) features, got {f.shape}")
    C, H, W = f.shape
    if C != C_in:
        raise DimensionError(f"input has {C} channels, kernel expects {C_in}")
    if offsets.shape != (2 * k * k, H, W):
        raise DimensionError(
            f"offset field must be ({2 * k * k}, {H}, {W}), got {offsets.shape}"
        )
    limit = float(max(H, W))
    off = T.clip(offsets, -limit, limit).reshape(k * k, 2, H * W)

    r = (k - 1) // 2
    taps = np.stack(
        np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij"), axis=-1
    ).reshape(k * k, 2)
    py, px = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    base_y = taps[:, 0:1] + py.reshape(1, H * W)  # (k*k, H*W)
    base_x = taps[:, 1:2] + px.reshape(1, H * W)

    ys = off[:, 0] + Tensor(base_y.astype(np.float64))
    xs = off[:, 1] + Tensor(base_x.astype(np.float64))

    sampled = bilinear_gather(f, ys.reshape(-1), xs.reshape(-1))  # (C, k*k*H*W)
    # conv2d's (C*k*k, H*W) patch layout and GEMM: zero offsets must match it bitwise
    out = T.matmul(w.reshape(C_out, C_in * k * k), sampled.reshape(C * k * k, H * W))
    return out.reshape(C_out, H, W)


# ---------------------------------------------------------------------------
# feature extraction and the pyramid
# ---------------------------------------------------------------------------


class FeatureExtractor(Module):
    """Two full-resolution convolutions, then two strided stages, giving a
    three-level pyramid with a shared channel width."""

    def __init__(self, in_ch: int, channels: int, rng: np.random.Generator):
        self.conv_a = Conv2d(in_ch, channels, 3, rng)
        self.conv_b = Conv2d(channels, channels, 3, rng)
        self.down = []
        for _ in range(PYRAMID_LEVELS - 1):
            self.down.append(Conv2d(channels, channels, 3, rng, stride=2))
            self.down.append(Conv2d(channels, channels, 3, rng))

    def __call__(self, frame: Tensor) -> FramePyramid:
        feat = gelu(self.conv_b(gelu(self.conv_a(frame))))
        levels = [feat]
        for i in range(0, len(self.down), 2):
            feat = gelu(self.down[i](feat))
            feat = gelu(self.down[i + 1](feat))
            levels.append(feat)
        return FramePyramid(levels)


# ---------------------------------------------------------------------------
# pyramid-cascading deformable alignment
# ---------------------------------------------------------------------------


class PCDAlign(Module):
    """Coarse-to-fine offset prediction plus a final cascading refinement.

    All offset heads are zero-initialized, so a fresh module behaves as a
    plain convolution chain over the neighbor features.
    """

    def __init__(self, channels: int, rng: np.random.Generator, k: int = 3):
        self.k = k
        off_ch = 2 * k * k
        # level 3 (coarsest) has no coarser offsets to fold in
        self.off_a = [
            Conv2d(2 * channels + off_ch, channels, 3, rng),
            Conv2d(2 * channels + off_ch, channels, 3, rng),
            Conv2d(2 * channels, channels, 3, rng),
        ]
        self.off_b = [Conv2d(channels, channels, 3, rng) for _ in range(3)]
        self.off_head = [
            Conv2d(channels, off_ch, 3, rng, zero_init=True) for _ in range(3)
        ]
        self.dcn = [Conv2d(channels, channels, 3, rng) for _ in range(3)]
        self.fuse = [Conv2d(2 * channels, channels, 3, rng) for _ in range(2)]
        self.cas_a = Conv2d(2 * channels, channels, 3, rng)
        self.cas_b = Conv2d(channels, channels, 3, rng)
        self.cas_head = Conv2d(channels, off_ch, 3, rng, zero_init=True)
        self.cas_dcn = Conv2d(channels, channels, 3, rng)

    def __call__(self, neighbor: FramePyramid, reference: FramePyramid) -> Tensor:
        return pcd_align(neighbor, reference, self)


def _dcn_apply(conv: Conv2d, f: Tensor, offsets: Tensor) -> Tensor:
    return deformable_conv2d(f, offsets, conv.weight) + conv.bias.reshape(-1, 1, 1)


def pcd_align(
    neighbor: FramePyramid, reference: FramePyramid, weights: PCDAlign
) -> Tensor:
    """Align ``neighbor`` features onto ``reference``, returning a map at the
    finest (level 1) resolution."""
    if neighbor.shapes() != reference.shapes():
        raise DimensionError(
            f"pyramid shapes differ: {neighbor.shapes()} vs {reference.shapes()}"
        )
    n_levels = len(neighbor.levels)
    offsets_up = None
    aligned_up = None
    aligned = None
    for lvl in range(n_levels - 1, -1, -1):
        nbr = neighbor.levels[lvl]
        ref = reference.levels[lvl]
        H, W = nbr.shape[1:]
        parts = [nbr, ref]
        if offsets_up is not None:
            parts.append(resize_bilinear(offsets_up, H, W) * 2.0)
        feat = gelu(weights.off_a[lvl](concat(parts, axis=0)))
        feat = gelu(weights.off_b[lvl](feat))
        offsets = weights.off_head[lvl](feat)
        moved = _dcn_apply(weights.dcn[lvl], nbr, offsets)
        if lvl == n_levels - 1:
            aligned = gelu(moved)
        else:
            stacked = concat([moved, resize_bilinear(aligned_up, H, W)], axis=0)
            fused = weights.fuse[lvl](stacked)
            aligned = gelu(fused) if lvl > 0 else fused
        offsets_up = offsets
        aligned_up = aligned

    feat = gelu(weights.cas_a(concat([aligned, reference.levels[0]], axis=0)))
    feat = gelu(weights.cas_b(feat))
    cas_offsets = weights.cas_head(feat)
    return _dcn_apply(weights.cas_dcn, aligned, cas_offsets)
