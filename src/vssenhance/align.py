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

A window of N frames runs as one batch: its features, offsets and aligned
maps carry the frames as a block axis after the channels, (C, N, H, W), so
each layer is one op per window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import Conv2d, Module
from .tensor import DimensionError, Tensor, _node, _wrap, gelu

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
# output positions per band of a deformable convolution, rounded to whole
# rows (at least one): a band's sample buffer is (C, k*k*band) values
DCN_BAND = 1024


@dataclass
class FramePyramid:
    """Feature maps from fine (full resolution) to coarse, each level half the
    previous (ceil division); all levels share a channel count.  One frame's
    levels are (C, H, W); a window's are (C, N, H, W), block n being frame n."""

    levels: list[Tensor]

    def __post_init__(self):
        if {f.ndim for f in self.levels} not in ({3}, {4}):
            raise DimensionError("pyramid levels must all be (C, H, W) or all (C, N, H, W)")
        if len({f.shape[:-2] for f in self.levels}) != 1:
            raise DimensionError("pyramid levels must share a channel and block count")
        for fine, coarse in zip(self.levels, self.levels[1:]):
            want = (-(-fine.shape[-2] // 2), -(-fine.shape[-1] // 2))
            if coarse.shape[-2:] != want:
                raise DimensionError(
                    f"pyramid level {coarse.shape} does not halve {fine.shape}"
                )

    @classmethod
    def stack(cls, pyramids: list["FramePyramid"]) -> "FramePyramid":
        """The window pyramid whose block n is the one-frame ``pyramids[n]``."""
        return cls([T.stack(levels, axis=1) for levels in zip(*(p.levels for p in pyramids))])

    def block(self, n: int) -> "FramePyramid":
        """Frame n's (C, H, W) pyramid out of a window pyramid."""
        return FramePyramid([f[:, n] for f in self.levels])

    def shapes(self):
        return [f.shape for f in self.levels]


# ---------------------------------------------------------------------------
# bilinear sampling
# ---------------------------------------------------------------------------


# corner order in a row of the read operator: (y0, x0), (y0, x0+1), (y0+1, x0), (y0+1, x0+1)
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _axis_corners(coords: np.ndarray, n: int):
    """The floor and next grid line of each coordinate on an axis of n cells:
    their indices (clamped, NaN to 0), zero-outside weights and inside masks."""
    c0 = np.floor(coords)
    frac = coords - c0
    near = (c0 >= 0) & (c0 <= n - 1)
    far = (c0 >= -1) & (c0 <= n - 2)
    index = [np.fmin(np.fmax(c, 0), n - 1).astype(np.intp) for c in (c0, c0 + 1)]
    return index, ((1 - frac) * near, frac * far), (near, far)


def _at_corners(op, fy, fx, dtype) -> np.ndarray:
    """``op(fy[a], fx[b])`` at each corner, in CSR entry order, written in place."""
    out = np.empty((fy[0].size, len(_CORNERS)), dtype=dtype)
    for j, (a, b) in enumerate(_CORNERS):
        op(fy[a], fx[b], out=out[:, j])
    return out.reshape(-1)


def bilinear_gather(f: Tensor, ys, xs, out: np.ndarray | None = None) -> Tensor:
    """Sample (C, H, W) values at M continuous positions -> (C, M).

    Positions outside [0, H-1] x [0, W-1] contribute zeros corner-by-corner.
    Differentiable in the values and, when ``ys``/``xs`` are tensors, in the
    coordinates (piecewise, with kinks at integer coordinates).

    The read is one sparse (M, H*W) operator: forward applies it, backward its
    transpose.  Backward keeps the operator's indices and the per-axis corner
    factors, not the operator's weights: it rebuilds the weights from them,
    and, when the coordinates need a gradient, forms the two (C, M)
    coordinate derivatives there, from the values ``f``.  The samples
    are written into ``out``, a (C, M) buffer whose old values are ignored,
    if one is given.  SciPy's CSR kernel is imported here, on the first
    call, so that a process that runs no model layer never loads SciPy.
    """
    from scipy import sparse
    from scipy.sparse import _sparsetools

    f = _wrap(f)
    if f.data.ndim != 3:
        raise DimensionError("bilinear_gather expects (C, H, W) values")
    ys_t, xs_t = _wrap(ys), _wrap(xs)
    C, H, W = f.data.shape
    M = ys_t.data.size
    coord_grad = T.grad_enabled() and (ys_t.requires_grad or xs_t.requires_grad)
    iy, ry, my = _axis_corners(ys_t.data.reshape(-1), H)
    ix, rx, mx = _axis_corners(xs_t.data.reshape(-1), W)
    # the index type scipy would pick, so that it keeps these arrays uncopied
    index = np.int32 if max(4 * M, H * W) < 2**31 else np.intp
    cols = _at_corners(np.add, [i * W for i in iy], ix, index)
    indptr = np.arange(0, 4 * M + 1, 4, dtype=index)

    def corners(fy, fx):  # fy * fx at each corner, in CSR entry order
        return _at_corners(np.multiply, fy, fx, np.float64)

    def operator(data):  # the (M, H*W) CSR matrix holding ``data`` at the corners
        return sparse.csr_matrix((data, cols, indptr), shape=(M, H * W))

    def apply(data, out=None):  # (C, M); a channel at a time, so nothing is transposed
        out = np.empty((C, M)) if out is None else out
        out.fill(0.0)
        for c, row in enumerate(f.data.reshape(C, H * W)):
            # what ``operator(data) @ row`` runs, adding straight into out[c]
            _sparsetools.csr_matvec(M, H * W, indptr, cols, data, row, out[c])
        return out

    iy = ix = None  # read no more: free them before the (C, M) output exists
    out = apply(corners(ry, rx), out)  # backward rebuilds these weights
    y_shape, x_shape = ys_t.shape, xs_t.shape  # backward keeps no coordinates

    def grad_fn(g):
        gf = (g @ operator(corners(ry, rx))).reshape(C, H, W)
        if not coord_grad:
            return gf, None, None
        # the weights' slopes along an axis are -near and far
        gy = (g * apply(corners((-1.0 * my[0], 1.0 * my[1]), rx))).sum(axis=0)
        gx = (g * apply(corners(ry, (-1.0 * mx[0], 1.0 * mx[1])))).sum(axis=0)
        return gf, gy.reshape(y_shape), gx.reshape(x_shape)

    return _node(out, (f, ys_t, xs_t), grad_fn)


def bilinear_sample(f: Tensor, y: float, x: float) -> Tensor:
    """Interpolated (C,) read of one continuous position of (C, H, W) values."""
    return bilinear_gather(f, np.array([float(y)]), np.array([float(x)])).reshape(f.shape[0])


def _resize_matrix(n_out: int, n_in: int) -> np.ndarray:
    """(n_out, n_in) bilinear weights along one axis: half-pixel centers,
    coordinates clamped to the edge cells."""
    coords = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0, n_in - 1)
    (i0, i1), (r0, r1), _ = _axis_corners(coords, n_in)
    rows = np.arange(n_out)
    mat = np.zeros((n_out, n_in))
    mat[rows, i0] += r0
    mat[rows, i1] += r1
    return mat


def resize_bilinear(f: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resize of (..., H, W) maps with half-pixel centers and edge
    clamping: ``Ry @ f @ Rx.T`` per map, whose backward is ``Ry.T @ g @ Rx``."""
    f = _wrap(f)
    H, W = f.data.shape[-2:]
    ry, rx = _resize_matrix(out_h, H), _resize_matrix(out_w, W)
    rows = f.data.reshape(-1, W) @ rx.T  # every row along x, one GEMM
    data = ry @ rows.reshape(-1, H, out_w)

    def grad_fn(g):
        g_rows = g.reshape(-1, out_w) @ rx
        return ((ry.T @ g_rows.reshape(-1, out_h, W)).reshape(f.data.shape),)

    return _node(data.reshape(f.data.shape[:-2] + (out_h, out_w)), (f,), grad_fn)


# ---------------------------------------------------------------------------
# deformable convolution
# ---------------------------------------------------------------------------


def deformable_conv2d(f: Tensor, offsets: Tensor, w: Tensor,
                      bias: Tensor | None = None) -> Tensor:
    """Stride-1 deformable convolution with per-position, per-tap offsets,
    plus ``bias`` on each output channel if given.

    At each output position p the k x k taps sample ``f`` at
    p + tap + offset_tap(p) via bilinear interpolation (zeros outside the
    grid), then contract with ``w`` by conv2d's per-tap GEMMs, so a zero
    offset field reproduces ``conv2d(f, w, stride=1, pad=(k-1)/2)`` bitwise.
    A window ``f`` of (C, N, H, W) takes (2*k*k, N, H, W) offsets.

    One node.  Each block is sampled and contracted in bands of whole output
    rows, about ``DCN_BAND`` positions each: a band's positions, its
    ``bilinear_gather`` (read operator and corner arrays) and its
    (C, k*k*band) sample buffer cover only that band, under ``no_grad``, and
    its GEMMs write that band's columns of the output.  Every band reads the
    whole block, because offsets reach anywhere, so the samples are those
    of one gather over the block, bitwise; the output is bitwise too unless
    the BLAS sums a narrower GEMM in another order (within 1e-12).  The node
    keeps no array of its own, not even a band's read operator: backward
    rebuilds each band's gather at the same positions, now differentiable
    in them, into the band buffer.  Those samples give the weight gradient;
    they are then overwritten there by their own gradient, which the
    rebuilt gather's backward takes to the features and offsets, and each
    band's gradients go straight into window-sized arrays.
    """
    f, offsets, w = _wrap(f), _wrap(offsets), _wrap(w)
    C_out, C_in, k, k2 = w.shape
    if k != k2 or k % 2 != 1:
        raise DimensionError("deformable kernels must be square with odd size")
    if f.ndim not in (3, 4):
        raise DimensionError(
            f"deformable_conv2d expects (C, H, W) or (C, N, H, W) features, got {f.shape}"
        )
    C, *_, H, W = f.shape
    if C != C_in:
        raise DimensionError(f"input has {C} channels, kernel expects {C_in}")
    if offsets.shape != (2 * k * k,) + f.shape[1:]:
        raise DimensionError(
            f"offset field must be {(2 * k * k,) + f.shape[1:]}, got {offsets.shape}"
        )
    bias = T._bias(bias, C_out)
    N, M, kk = (1 if f.ndim == 3 else f.shape[1]), H * W, k * k
    f4 = f.data.reshape(C, N, H, W)
    off4 = offsets.data.reshape(2 * kk, N, M)
    limit = float(max(H, W))
    w_taps = np.ascontiguousarray(T._taps(w.data))
    rows = min(H, max(1, DCN_BAND // W))
    bands = [slice(p0, min(p0 + rows * W, M)) for p0 in range(0, M, rows * W)]

    def positions(n, band, base_y, base_x):
        """Block n's (k*k*m,) sample rows and columns in a band, from the
        tap positions of a full band's rows, ``_tap_positions(k, rows, W)``."""
        off = np.clip(off4[:, n, band], -limit, limit).reshape(kk, 2, -1)
        m = off.shape[2]
        ys = off[:, 0] + (base_y[:, :m] + band.start // W)  # whole numbers: exact
        return ys.reshape(-1), (off[:, 1] + base_x[:, :m]).reshape(-1)

    def band_buffers():  # a (C, k*k*m) sample buffer for each band width m, in one array
        flat = np.empty(C * kk * rows * W)
        return {m: flat[:C * kk * m].reshape(C, kk * m) for m in {b.stop - b.start for b in bands}}

    def tap_views(a):  # (C, k*k*m) -> each tap's (C, m) view
        return list(a.reshape(C, kk, -1).transpose(1, 0, 2))

    data, tmp = np.empty((C_out, N, M)), np.empty((C_out, rows * W))
    bufs, base = band_buffers(), _tap_positions(k, rows, W)
    with T.no_grad():
        for n in range(N):
            block = _read_in_place(f4[:, n])
            for band in bands:
                m = band.stop - band.start
                bilinear_gather(block, *positions(n, band, *base), out=bufs[m])
                T._tap_sum(w_taps, tap_views(bufs[m]), data[:, n, band], tmp[:, :m])
    if bias:
        data += bias[0].data.reshape(-1, 1, 1)

    def grad_fn(g):
        g3 = g.reshape(C_out, N, M)
        w_taps = np.ascontiguousarray(T._taps(w.data))
        gf, g_off = np.zeros((C, N, H, W)), np.empty((2 * kk, N, M))
        gw = np.zeros(w.shape)
        bufs, base = band_buffers(), _tap_positions(k, rows, W)
        for n in range(N):
            block = _read_in_place(f4[:, n])
            g_block = g_off[:, n].reshape(kk, 2, M)
            for band in bands:
                buf = bufs[band.stop - band.start]
                with T._grad_mode(True):  # the samples forward multiplied, bitwise
                    ys, xs = (Tensor(a, requires_grad=True) for a in positions(n, band, *base))
                    sampled = bilinear_gather(block, ys, xs, out=buf)
                T._tap_weight_grad(g3[:, n, band], tap_views(buf), T._taps(gw))
                # then the samples' gradient, in the same buffer: taps do not overlap
                T._tap_adjoint(w_taps, g3[:, n, band], tap_views(buf), None)
                g_f, gy, gx = sampled._grad_fn(buf)
                gf[:, n] += g_f
                g_block[:, 0, band], g_block[:, 1, band] = gy.reshape(kk, -1), gx.reshape(kk, -1)
            g_off[:, n] *= (off4[:, n] >= -limit) & (off4[:, n] <= limit)  # clip
        gb = (g.sum(axis=tuple(range(1, g.ndim))),) if bias else ()
        return (gf.reshape(f.shape), g_off.reshape(offsets.shape), gw) + gb

    return _node(data.reshape((C_out,) + f.shape[1:]), (f, offsets, w, *bias), grad_fn)


def _tap_positions(k: int, H: int, W: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k*k, H*W) row and column each tap of a k x k window centred on
    each position of an H x W grid reads, taps row-major."""
    r = (k - 1) // 2
    taps = np.stack(
        np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij"), axis=-1
    ).reshape(k * k, 2)
    py, px = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    base_y = taps[:, 0:1] + py.reshape(1, H * W)
    base_x = taps[:, 1:2] + px.reshape(1, H * W)
    return base_y.astype(np.float64), base_x.astype(np.float64)


def _read_in_place(values: np.ndarray) -> Tensor:
    """A constant Tensor over ``values``, a block of a window's features,
    without the contiguous copy the constructor would make: only
    ``bilinear_gather`` reads it, a channel row at a time."""
    t = Tensor(())
    t.data = values
    return t


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
        """The pyramid of a (3, H, W) frame, or of a (3, N, H, W) window."""
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

    def __init__(self, channels: int, rng: np.random.Generator):
        off_ch = 2 * 3 * 3  # (dy, dx) for each tap of a 3 x 3 kernel
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


def _offset_field(conv_a: Conv2d, conv_b: Conv2d, head: Conv2d, parts: list[Tensor]) -> Tensor:
    """An offset field predicted from ``parts``: ``conv_a`` of their channel
    concatenation, gelu, ``conv_b``, gelu, ``head``, as one node that keeps
    only the parts (see :func:`~vssenhance.tensor.recompute`)."""

    def chain(*parts):
        return head(gelu(conv_b(gelu(conv_a(list(parts))))))

    return T.recompute(chain, parts, conv_a.parameters() + conv_b.parameters()
                       + head.parameters())


def pcd_align(
    neighbor: FramePyramid, reference: FramePyramid, weights: PCDAlign
) -> Tensor:
    """Align ``neighbor`` features onto the one-frame ``reference``, returning
    a map at the finest (level 1) resolution.

    A one-frame ``neighbor`` gives a (C, H, W) map.  A window pyramid gives
    (C, N, H, W), every block aligned in one pass; the reference's share of
    the two convolutions that read it (``off_a``, ``cas_a``) runs once.
    """
    single = neighbor.levels[0].ndim == 3
    if single:
        neighbor = FramePyramid.stack([neighbor])
    shapes = [s[:1] + s[2:] for s in neighbor.shapes()]
    if shapes != reference.shapes():
        raise DimensionError(f"pyramid shapes differ: {shapes} vs {reference.shapes()}")
    # Window-sized maps are released as soon as they are read, so that the
    # batch never holds much more at a time than one frame's pass did.
    n_levels = len(neighbor.levels)
    offsets = None
    aligned = None
    for lvl in range(n_levels - 1, -1, -1):
        nbr = neighbor.levels[lvl]
        H, W = nbr.shape[-2:]
        parts = [nbr, reference.levels[lvl]]
        if offsets is not None:
            parts.append(resize_bilinear(offsets * 2.0, H, W))  # exact: a power of two
        offsets = _offset_field(weights.off_a[lvl], weights.off_b[lvl],
                                weights.off_head[lvl], parts)
        del parts
        dcn = weights.dcn[lvl]
        moved = deformable_conv2d(nbr, offsets, dcn.weight, dcn.bias)
        if lvl == 0:
            del offsets  # the finest field is not upsampled
        if aligned is None:
            aligned = gelu(moved)
        else:
            aligned = weights.fuse[lvl]([moved, resize_bilinear(aligned, H, W)])
            del moved
            if lvl > 0:
                aligned = gelu(aligned)

    cas_offsets = _offset_field(weights.cas_a, weights.cas_b, weights.cas_head,
                                [aligned, reference.levels[0]])
    cas = weights.cas_dcn
    out = deformable_conv2d(aligned, cas_offsets, cas.weight, cas.bias)
    return out.reshape(out.shape[0], *out.shape[2:]) if single else out
