"""Bilinear sampling, deformable convolution, pyramids, and PCD alignment."""

from contextlib import nullcontext

import numpy as np
import pytest

from vssenhance.align import (
    FeatureExtractor,
    FramePyramid,
    PCDAlign,
    bilinear_gather,
    deformable_conv2d,
    pcd_align,
    resize_bilinear,
)
from vssenhance.layers import Conv2d
from vssenhance import align
from vssenhance import tensor as T
from vssenhance.optim import AdamW
from vssenhance.tensor import DimensionError, Tensor, conv2d, no_grad

from helpers import assert_matches_composition, check_gradients, perturbed, retained_arrays


@pytest.fixture
def rng():
    return np.random.default_rng(4242)


def fmap(arr) -> Tensor:
    return Tensor(np.asarray(arr, dtype=np.float64))


def align_pair(nbr: FramePyramid, ref: FramePyramid, pcd: PCDAlign) -> Tensor:
    """One-frame pyramid ``nbr`` aligned onto ``ref``: block 0 of a one-frame window."""
    return pcd_align(FramePyramid.stack([nbr]), ref, pcd)[:, 0]


def sample(f: Tensor, y: float, x: float) -> np.ndarray:
    """The (C,) bilinear read of one position: a gather of one sample."""
    return bilinear_gather(f, np.array([float(y)]), np.array([float(x)])).data[:, 0]


class TestBilinearSample:
    def test_integer_coordinates_exact(self, rng):
        f = fmap(rng.normal(size=(3, 4, 5)))
        for y in range(4):
            for x in range(5):
                assert np.array_equal(sample(f, y, x), f.data[:, y, x])

    def test_midpoint_of_four_values(self):
        f = fmap(np.array([[[0.0, 0.0], [0.0, 4.0]]]))
        assert np.allclose(sample(f, 0.5, 0.5), [1.0])

    def test_far_out_of_bounds_is_zero(self, rng):
        f = fmap(rng.normal(size=(2, 3, 3)))
        assert np.array_equal(sample(f, -5.0, -5.0), np.zeros(2))

    def test_partial_out_of_bounds(self):
        # half a pixel above the top edge: the two valid corners carry 0.5
        f = fmap(np.full((1, 2, 2), 2.0))
        assert np.allclose(sample(f, -0.5, 0.0), [1.0])

    def test_linear_along_each_axis(self, rng):
        f = fmap(rng.normal(size=(1, 4, 4)))
        v0 = sample(f, 1.0, 2.0)[0]
        v1 = sample(f, 2.0, 2.0)[0]
        for t in (0.25, 0.5, 0.75):
            vt = sample(f, 1.0 + t, 2.0)[0]
            assert abs(vt - ((1 - t) * v0 + t * v1)) < 1e-12

    def test_gradients_values_and_coords(self, rng):
        f = rng.normal(size=(2, 5, 5))
        # keep probes away from integer coordinates (bilinear kinks)
        ys = rng.uniform(0.3, 3.7, size=6)
        ys += np.where(np.abs(ys - np.round(ys)) < 0.05, 0.2, 0.0)
        xs = rng.uniform(0.3, 3.7, size=6)
        xs += np.where(np.abs(xs - np.round(xs)) < 0.05, 0.2, 0.0)
        mix = rng.normal(size=(2, 6))
        check_gradients(
            lambda ts: (bilinear_gather(ts[0], ts[1], ts[2]) * Tensor(mix)).sum(),
            [f, ys, xs],
            rtol=1e-3,
        )

    def test_no_grad_output_is_bitwise_equal(self, rng):
        f = rng.normal(size=(3, 5, 6))
        ys, xs = rng.uniform(-1.5, 5.5, size=40), rng.uniform(-1.5, 6.5, size=40)
        with_grad = bilinear_gather(
            Tensor(f, requires_grad=True), Tensor(ys, requires_grad=True),
            Tensor(xs, requires_grad=True),
        )
        with no_grad():
            without = bilinear_gather(Tensor(f), Tensor(ys), Tensor(xs))
        assert with_grad.requires_grad and not without.requires_grad
        assert np.array_equal(with_grad.data, without.data)

    def test_samples_match_corner_loop_bitwise(self, rng):
        # each sample adds its four corners' weight * value in corner order,
        # also when written into a buffer that holds older values
        C, H, W, M = 2, 4, 5, 30
        f = rng.normal(size=(C, H, W))
        ys, xs = rng.uniform(-1.5, H + 0.5, size=M), rng.uniform(-1.5, W + 0.5, size=M)
        want = np.zeros((C, M))
        for m, (y, x) in enumerate(zip(ys, xs)):
            y0, x0 = np.floor(y), np.floor(x)
            for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
                wy = (y - y0 if dy else 1 - (y - y0)) * (0 <= y0 + dy <= H - 1)
                wx = (x - x0 if dx else 1 - (x - x0)) * (0 <= x0 + dx <= W - 1)
                iy, ix = int(min(max(y0 + dy, 0), H - 1)), int(min(max(x0 + dx, 0), W - 1))
                want[:, m] += wy * wx * f[:, iy, ix]
        buf = np.full((C, M), np.nan)
        out = bilinear_gather(Tensor(f), ys, xs, out=buf)
        assert np.shares_memory(out.data, buf)
        assert np.array_equal(out.data, want)

    @pytest.mark.parametrize("H, W, M", [(64, 64, 9 * align.DCN_BAND), (23, 41, 700)])
    def test_feature_gradient_is_the_csr_product_bitwise(self, rng, H, W, M):
        # a deformable band's worth of samples at 64x64, and a non-square
        # grid; positions reach past every edge and include whole numbers
        from scipy.sparse import csr_matrix

        C = 16
        f = Tensor(rng.normal(size=(C, H, W)), requires_grad=True)
        ys, xs = rng.uniform(-2.5, H + 1.5, size=M), rng.uniform(-2.5, W + 1.5, size=M)
        ys[::7], xs[::5] = np.round(ys[::7]), np.round(xs[::5])
        g = rng.normal(size=(C, M))
        y0, x0 = np.floor(ys), np.floor(xs)
        wy = ((1 - (ys - y0)) * ((y0 >= 0) & (y0 <= H - 1)), (ys - y0) * ((y0 >= -1) & (y0 <= H - 2)))
        wx = ((1 - (xs - x0)) * ((x0 >= 0) & (x0 <= W - 1)), (xs - x0) * ((x0 >= -1) & (x0 <= W - 2)))
        iy = [np.clip(y0 + d, 0, H - 1).astype(np.intp) for d in (0, 1)]
        ix = [np.clip(x0 + d, 0, W - 1).astype(np.intp) for d in (0, 1)]
        corners = ((0, 0), (0, 1), (1, 0), (1, 1))  # each row's entries in this order
        w = np.stack([wy[a] * wx[b] for a, b in corners], axis=1).reshape(-1)
        cols = np.stack([iy[a] * W + ix[b] for a, b in corners], axis=1).reshape(-1)
        indptr = np.arange(0, 4 * M + 1, 4)
        want = g @ csr_matrix((w, cols, indptr), shape=(M, H * W))
        gf = bilinear_gather(f, ys, xs)._grad_fn(g)[0]
        assert gf.shape == (C, H, W)
        assert np.array_equal(gf.reshape(C, H * W), want)

    def test_backward_keeps_no_corner_reads(self, rng):
        C, M = 3, 10
        f = Tensor(rng.normal(size=(C, 4, 5)), requires_grad=True)
        ys = Tensor(rng.uniform(0, 3, size=M), requires_grad=True)
        xs = Tensor(rng.uniform(0, 4, size=M), requires_grad=True)
        kept = retained_arrays(bilinear_gather(f, ys, xs))
        assert not [arr for arr in kept if arr.size == C * 4 * M]
        # only the output: backward forms the y and x derivatives from f
        assert sum(arr.shape == (C, M) for arr in kept) == 1
        # per axis: the two corner weights as floats, their slopes as two
        # boolean masks; the operator's weights are rebuilt from them
        per_axis = [arr for arr in kept if arr.shape == (M,)]
        assert sorted(arr.dtype.kind for arr in per_axis) == ["b"] * 4 + ["f"] * 4
        assert not [arr for arr in kept if arr.dtype.kind == "f" and arr.size == 4 * M]


def corner_formula(f, ys, xs):
    """Reference bilinear read by explicit corner reads: the (C, M) samples,
    the four corners' (flat index, masked weight) and the (C, M) y and x
    derivatives of the samples."""
    C, H, W = f.shape
    flat = f.reshape(C, H * W)
    y0, x0 = np.floor(ys), np.floor(xs)
    wy, wx = ys - y0, xs - x0
    out = np.zeros((C, ys.size))
    corners, reads = [], []
    for dy, dx, w in (
        (0.0, 0.0, (1 - wy) * (1 - wx)),
        (0.0, 1.0, (1 - wy) * wx),
        (1.0, 0.0, wy * (1 - wx)),
        (1.0, 1.0, wy * wx),
    ):
        cy, cx = y0 + dy, x0 + dx
        valid = (cy >= 0) & (cy <= H - 1) & (cx >= 0) & (cx <= W - 1)
        idx = np.clip(cy, 0, H - 1).astype(np.intp) * W + np.clip(cx, 0, W - 1).astype(np.intp)
        read = flat[:, idx] * valid
        out += (w * valid) * read
        corners.append((idx, w * valid))
        reads.append(read)
    v00, v01, v10, v11 = reads
    d_y = (1 - wx) * (v10 - v00) + wx * (v11 - v01)
    d_x = (1 - wy) * (v01 - v00) + wy * (v11 - v10)
    return out, corners, d_y, d_x


class TestSamplingOperator:
    """``bilinear_gather`` against explicit corner reads."""

    @pytest.mark.parametrize("where", ["interior", "partly_outside", "fully_outside"])
    def test_matches_corner_formula(self, rng, where):
        C, H, W, M = 3, 5, 6, 60
        lo, hi = {
            "interior": ((0.0, 0.0), (H - 1.0, W - 1.0)),
            "partly_outside": ((-0.9, -0.9), (H - 0.1, W - 0.1)),
            "fully_outside": ((-4.0, W + 1.0), (-1.01, W + 4.0)),
        }[where]
        f = rng.normal(size=(C, H, W))
        ys = rng.uniform(lo[0], hi[0], size=M)
        xs = rng.uniform(lo[1], hi[1], size=M)
        ys[:4] = np.round(ys[:4])  # integer coordinates sit on the kinks
        g = rng.normal(size=(C, M))
        ref, corners, d_y, d_x = corner_formula(f, ys, xs)
        ft = Tensor(f, requires_grad=True)
        yt, xt = Tensor(ys, requires_grad=True), Tensor(xs, requires_grad=True)
        out = bilinear_gather(ft, yt, xt)
        assert np.array_equal(out.data, ref)
        (out * Tensor(g)).sum().backward()

        gf = np.zeros((C, H * W))
        for idx, w in corners:
            np.add.at(gf, (slice(None), idx), g * w)
        for got, want in (
            (ft.grad, gf.reshape(C, H, W)),
            (yt.grad, (g * d_y).sum(axis=0)),
            (xt.grad, (g * d_x).sum(axis=0)),
        ):
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
        if where == "fully_outside":
            assert not out.data.any() and not ft.grad.any()

    def test_non_finite_coordinates_read_nan(self, rng):
        # a non-finite position must not become an out-of-range column
        f = Tensor(rng.normal(size=(2, 5, 7)), requires_grad=True)
        with np.errstate(invalid="ignore"):
            out = bilinear_gather(f, np.array([np.nan, 1.5, np.inf]), np.array([2.0, np.nan, 3.0]))
        assert np.isnan(out.data).all()
        columns = [arr for arr in retained_arrays(out) if arr.dtype.kind == "i"]
        assert columns and all(0 <= arr.min() and arr.max() < 5 * 7 for arr in columns)


class TestResize:
    def test_constant_preserved(self):
        f = Tensor(np.full((2, 3, 3), 1.5))
        out = resize_bilinear(f, 6, 6)
        assert np.allclose(out.data, 1.5)

    def test_double_then_shape(self, rng):
        out = resize_bilinear(Tensor(rng.normal(size=(1, 3, 5))), 6, 10)
        assert out.shape == (1, 6, 10)

    def test_gradients(self, rng):
        f = rng.normal(size=(1, 3, 3))
        mix = rng.normal(size=(1, 5, 7))
        check_gradients(
            lambda ts: (resize_bilinear(ts[0], 5, 7) * Tensor(mix)).sum(),
            [f],
            rtol=1e-3,
        )

    @pytest.mark.parametrize("shape", [(2, 3, 5, 4), (3, 8, 6), (1, 2, 7, 9)])
    def test_matches_gather_at_same_coordinates(self, rng, shape):
        # Ry @ f @ Rx.T against the sparse read at the half-pixel,
        # edge-clamped coordinates, forward and backward
        *lead, H, W = shape
        out_h, out_w = (2 * H, 2 * W) if H < 8 else (H - 3, W - 2)
        ys = np.clip((np.arange(out_h) + 0.5) * (H / out_h) - 0.5, 0, H - 1)
        xs = np.clip((np.arange(out_w) + 0.5) * (W / out_w) - 0.5, 0, W - 1)
        f = rng.normal(size=shape)
        g = rng.normal(size=tuple(lead) + (out_h, out_w))
        ft = Tensor(f, requires_grad=True)
        out = resize_bilinear(ft, out_h, out_w)
        (out * Tensor(g)).sum().backward()
        maps = f.reshape(-1, H, W)
        fg = Tensor(maps, requires_grad=True)
        read = bilinear_gather(fg, np.repeat(ys, out_w), np.tile(xs, out_h))
        (read * Tensor(g.reshape(-1, out_h * out_w))).sum().backward()
        assert np.abs(out.data.reshape(read.shape) - read.data).max() <= 1e-14 * np.abs(f).max()
        assert np.abs(ft.grad.reshape(fg.grad.shape) - fg.grad).max() <= 1e-14 * np.abs(g).max()


class TestDeformableConv:
    def test_zero_offsets_bitwise_equal_to_conv(self, rng):
        f = fmap(rng.normal(size=(3, 6, 7)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        offsets = Tensor(np.zeros((18, 6, 7)))
        out = deformable_conv2d(f, offsets, w)
        ref = conv2d(f, w, stride=1, pad=1)
        assert np.array_equal(out.data, ref.data)

    def test_constant_integer_shift(self, rng):
        # offset (0, 1) with a 1x1 identity kernel shifts content left
        f = fmap(rng.normal(size=(2, 3, 4)))
        offsets = Tensor(np.stack([np.zeros((3, 4)), np.ones((3, 4))]))
        w = Tensor(np.eye(2).reshape(2, 2, 1, 1))
        out = deformable_conv2d(f, offsets, w).data
        expected = np.zeros_like(f.data)
        expected[:, :, :-1] = f.data[:, :, 1:]
        assert np.allclose(out, expected, atol=1e-14)

    def test_half_integer_offsets_match_bilinear_oracle(self, rng):
        f = fmap(rng.normal(size=(2, 5, 5)))
        off_y = rng.uniform(0.2, 0.8, size=(5, 5))
        off_x = rng.uniform(-0.8, -0.2, size=(5, 5))
        offsets = Tensor(np.stack([off_y, off_x]))
        w = Tensor(np.eye(2).reshape(2, 2, 1, 1))
        out = deformable_conv2d(f, offsets, w).data
        for i in range(5):
            for j in range(5):
                v = sample(f, i + off_y[i, j], j + off_x[i, j])
                assert np.allclose(out[:, i, j], v, atol=1e-12)

    def test_one_sample_buffer_and_no_transpose(self, rng, monkeypatch):
        # the samples are already in the patch layout: no transpose, no copy;
        # forward samples every block into one buffer, and backward samples
        # them again, at the same positions, into another
        C, N, H, W, k = 3, 3, 4, 5, 3
        calls, buffers = [], []
        transpose, gather = T.transpose, align.bilinear_gather
        monkeypatch.setattr(
            T, "transpose", lambda a, *axes: calls.append(axes) or transpose(a, *axes)
        )

        def recording_gather(f, ys, xs, out=None):
            sampled = gather(f, ys, xs, out=out)
            buffers.append((out, np.array(getattr(ys, "data", ys)), sampled.data.copy()))
            return sampled

        monkeypatch.setattr(align, "bilinear_gather", recording_gather)
        f = Tensor(rng.normal(size=(C, N, H, W)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, C, k, k)), requires_grad=True)
        offsets = Tensor(rng.uniform(-1, 1, size=(2 * k * k, N, H, W)), requires_grad=True)
        out = deformable_conv2d(f, offsets, w)
        assert calls == []
        assert not [arr for arr in retained_arrays(out) if arr.size == C * k * k * H * W]
        out.sum().backward()
        forward, backward = buffers[:N], buffers[N:]
        assert len(backward) == N
        assert all(b is not None for b, _, _ in buffers)
        assert len({id(b) for b, _, _ in forward}) == len({id(b) for b, _, _ in backward}) == 1
        for (_, ys, samples), (_, ys_again, again) in zip(forward, backward):
            assert np.array_equal(ys, ys_again) and np.array_equal(samples, again)

    def test_offset_shape_mismatch(self, rng):
        f = fmap(rng.normal(size=(1, 4, 4)))
        with pytest.raises(DimensionError):
            deformable_conv2d(f, Tensor(np.zeros((4, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_gradients(self, rng):
        f = rng.normal(size=(2, 4, 4))
        offsets = rng.uniform(0.15, 0.45, size=(18, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3))
        mix = rng.normal(size=(2, 4, 4))
        check_gradients(
            lambda ts: (
                deformable_conv2d(ts[0], ts[1], ts[2]) * Tensor(mix)
            ).sum(),
            [f, offsets, w],
            rtol=1e-3,
        )


def unfused_deformable(f, offsets, w, b):
    """The deformable convolution of a (C, N, H, W) window plus its bias as a
    chain of plain ops: per block a slice of the features and offsets, the
    clamped sample positions, one gather and the per-tap products added in
    tap order."""
    C_out, C, k, _ = w.shape
    N, H, W = f.shape[1:]
    kk, limit = k * k, float(max(H, W))
    r = (k - 1) // 2
    py, px = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    base_y = np.array([py.reshape(-1) + t // k - r for t in range(kk)], dtype=np.float64)
    base_x = np.array([px.reshape(-1) + t % k - r for t in range(kk)], dtype=np.float64)
    blocks = []
    for n in range(N):
        off = T.clip(offsets[:, n], -limit, limit).reshape(kk, 2, H * W)
        ys, xs = off[:, 0] + Tensor(base_y), off[:, 1] + Tensor(base_x)
        s = bilinear_gather(f[:, n], ys.reshape(-1), xs.reshape(-1)).reshape(C, kk, H * W)
        acc = None
        for t in range(kk):
            term = T.matmul(w[:, :, t // k, t % k], s[:, t])
            acc = term if acc is None else acc + term
        blocks.append(acc.reshape(C_out, 1, H, W))
    return T.concat(blocks, axis=1) + b.reshape(-1, 1, 1, 1)


class TestDeformableNode:
    """The deformable convolution of a window is one node, bias included."""

    def operands(self, rng, C=2, N=3, H=5, W=4):
        return [rng.normal(size=(C, N, H, W)),
                rng.uniform(-1.6, 1.6, size=(18, N, H, W)),
                rng.normal(size=(3, C, 3, 3)), rng.normal(size=3)]

    def test_matches_composition(self, rng):
        arrays = self.operands(rng)
        arrays[1][0, 0, 0, 0] = 9.0  # one offset beyond the clamp
        assert_matches_composition(
            lambda ts: deformable_conv2d(*ts), lambda ts: unfused_deformable(*ts), arrays
        )

    def test_gradients(self, rng):
        f, offsets, w, b = self.operands(rng, N=2, H=4, W=3)
        offsets = rng.uniform(0.15, 0.45, size=offsets.shape)  # away from the kinks
        mix = Tensor(rng.normal(size=(3, 2, 4, 3)))
        check_gradients(lambda ts: (deformable_conv2d(*ts) * mix).sum(),
                        [f, offsets, w, b], rtol=1e-3)

    def test_keeps_no_block_copies(self, rng):
        f, offsets, w, b = (Tensor(a, requires_grad=True) for a in self.operands(rng, C=3))
        out = deformable_conv2d(f, offsets, w, b)
        assert all(p._grad_fn is None for p in out._parents)  # one node
        # no samples, no read operator or corner factors of any block, no
        # block of the features or offsets, no positions, no pre-bias output:
        # backward rebuilds each block's gather
        assert [a for a in retained_arrays(out) if not np.shares_memory(a, out.data)] == []

    def test_backward_under_no_grad_is_bitwise_equal(self, rng):
        arrays = self.operands(rng)
        mix = Tensor(rng.normal(size=(3, 3, 5, 4)))
        grads = []
        for mode in (nullcontext, no_grad):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            loss = (deformable_conv2d(*leaves) * mix).sum()
            with mode():
                loss.backward()
            grads.append([leaf.grad for leaf in leaves])
        for got, want in zip(*grads):
            assert np.array_equal(got, want)


def deformable_run(arrays, grad=True):
    """The output of ``deformable_conv2d`` on ``arrays`` (features, offsets,
    weights, bias) and, with ``grad``, the gradients of a fixed mix of it."""
    leaves = [Tensor(a, requires_grad=grad) for a in arrays]
    out = deformable_conv2d(*leaves)
    if not grad:
        return [out.data]
    mix = np.random.default_rng(7).normal(size=out.shape)
    (out * Tensor(mix)).sum().backward()
    return [out.data] + [leaf.grad for leaf in leaves]


class TestDeformableBands:
    """Each block is sampled and contracted in bands of whole output rows,
    about ``align.DCN_BAND`` positions each; here the budget is cut so that
    small grids cross band edges."""

    BUDGET = 12

    def operands(self, rng, C, N, H, W):
        return [rng.normal(size=(C, N, H, W)), rng.uniform(-2.5, 2.5, size=(18, N, H, W)),
                rng.normal(size=(3, C, 3, 3)), rng.normal(size=3)]

    @pytest.mark.parametrize("shape, bands", [
        ((3, 1, 7, 5), 4),  # two rows a band; H is not a multiple of that
        ((2, 5, 3, 15), 3),  # W wider than the budget: one row a band
        ((2, 5, 1, 30), 1),  # a 1-row grid
        ((2, 1, 2, 6), 1),  # the whole block fits one band
    ])
    def test_bands_match_one_band(self, rng, monkeypatch, shape, bands):
        arrays = self.operands(rng, *shape)
        calls = []
        gather = align.bilinear_gather

        def counting_gather(f, ys, xs, out=None):
            calls.append(np.size(getattr(ys, "data", ys)))
            return gather(f, ys, xs, out=out)

        monkeypatch.setattr(align, "bilinear_gather", counting_gather)
        monkeypatch.setattr(align, "DCN_BAND", self.BUDGET)
        banded = deformable_run(arrays)
        rows = max(1, self.BUDGET // shape[3])
        assert len(calls) == 2 * shape[1] * bands  # forward and backward, per block
        assert max(calls) == 9 * min(rows, shape[2]) * shape[3]
        monkeypatch.setattr(align, "DCN_BAND", 1 << 30)
        whole = deformable_run(arrays)
        for got, want in zip(banded, whole):
            if bands == 1:  # the same GEMMs: bitwise
                assert np.array_equal(got, want)
            else:  # narrower GEMMs and per-band sums: last bits
                assert relative_error(got, want) <= 1e-12

    def test_default_budget_splits_a_wide_grid(self, rng, monkeypatch):
        # 40 x 33 is 1320 positions: two bands of 31 and 9 rows at 1024
        assert align.DCN_BAND // 33 < 40
        arrays = self.operands(rng, 2, 2, 40, 33)
        banded = deformable_run(arrays, grad=False)
        monkeypatch.setattr(align, "DCN_BAND", 1 << 30)
        whole = deformable_run(arrays, grad=False)
        assert relative_error(banded[0], whole[0]) <= 1e-12

    def test_gradients(self, rng, monkeypatch):
        monkeypatch.setattr(align, "DCN_BAND", 5)  # one row a band: four bands
        f, offsets, w, b = self.operands(rng, 2, 2, 4, 3)
        offsets = rng.uniform(0.15, 0.45, size=offsets.shape)  # away from the kinks
        mix = Tensor(rng.normal(size=(3, 2, 4, 3)))
        check_gradients(lambda ts: (deformable_conv2d(*ts) * mix).sum(),
                        [f, offsets, w, b], rtol=1e-3)


class TestPyramid:
    def test_extractor_builds_three_halving_levels(self, rng):
        ex = FeatureExtractor(3, 8, rng)
        pyr = ex(Tensor(rng.normal(size=(3, 16, 16))))
        assert [f.shape for f in pyr.levels] == [
            (8, 16, 16),
            (8, 8, 8),
            (8, 4, 4),
        ]

    def test_odd_sizes_use_ceil(self, rng):
        ex = FeatureExtractor(3, 4, rng)
        pyr = ex(Tensor(rng.normal(size=(3, 13, 9))))
        assert [f.shape for f in pyr.levels] == [
            (4, 13, 9),
            (4, 7, 5),
            (4, 4, 3),
        ]

    def test_mismatched_levels_rejected(self, rng):
        good = [fmap(np.zeros((2, 8, 8))), fmap(np.zeros((2, 4, 4))), fmap(np.zeros((2, 2, 2)))]
        FramePyramid(levels=good)
        with pytest.raises(DimensionError):
            FramePyramid(levels=[good[0], fmap(np.zeros((2, 5, 4))), good[2]])
        with pytest.raises(DimensionError):
            FramePyramid(levels=[good[0], fmap(np.zeros((3, 4, 4))), good[2]])

    def test_window_levels_rejected_when_mixed(self, rng):
        window = [fmap(np.zeros((2, 3, 8, 8))), fmap(np.zeros((2, 3, 4, 4)))]
        FramePyramid(levels=window)
        with pytest.raises(DimensionError):
            FramePyramid(levels=[window[0], fmap(np.zeros((2, 4, 4)))])
        with pytest.raises(DimensionError):
            FramePyramid(levels=[window[0], fmap(np.zeros((2, 2, 4, 4)))])

    def test_stacked_frames_extract_as_single_frames(self, rng):
        ex = FeatureExtractor(3, 4, rng)
        frames = [Tensor(rng.uniform(size=(3, 9, 10))) for _ in range(3)]
        window = ex(T.stack(frames, axis=1))
        for n, frame in enumerate(frames):
            single = ex(frame)
            assert [f.shape for f in window.block(n).levels] == [f.shape for f in single.levels]
            for a, b in zip(window.block(n).levels, single.levels):
                assert np.array_equal(a.data, b.data)
        stacked = FramePyramid.stack([ex(frame) for frame in frames])
        for a, b in zip(stacked.levels, window.levels):
            assert np.array_equal(a.data, b.data)


class TestPCDAlign:
    def make_pyramid(self, arr):
        levels = [fmap(arr)]
        cur = arr
        for _ in range(2):
            cur = cur[:, ::2, ::2]
            levels.append(fmap(cur))
        return FramePyramid(levels=levels)

    def test_zero_offset_heads_reduce_to_conv_chain(self, rng):
        from vssenhance.tensor import gelu

        C = 4
        pcd = PCDAlign(C, rng)
        nbr = self.make_pyramid(rng.normal(size=(C, 8, 8)))
        ref = self.make_pyramid(rng.normal(size=(C, 8, 8)))
        out = align_pair(nbr, ref, pcd).data

        # independent reduction: replace every deformable step with conv2d
        def plain_conv(conv, x):
            return conv2d(x, conv.weight, stride=1, pad=1) + conv.bias.reshape(-1, 1, 1)

        aligned_up = None
        for lvl in (2, 1, 0):
            n, r = nbr.levels[lvl], ref.levels[lvl]
            moved = plain_conv(pcd.dcn[lvl], n)
            if lvl == 2:
                aligned = gelu(moved)
            else:
                up = resize_bilinear(aligned_up, n.shape[1], n.shape[2])
                fused = plain_conv(pcd.fuse[lvl], [moved, up])
                aligned = gelu(fused) if lvl > 0 else fused
            aligned_up = aligned
        final = plain_conv(pcd.cas_dcn, aligned)
        assert np.array_equal(out, final.data)

    def test_offset_field_keeps_only_its_parts(self, rng):
        # one recompute node: the parts and the three convolutions' weights
        # and biases are its parents, and no interior map is kept
        C = 4
        pcd = perturbed(PCDAlign(C, rng), rng)
        parts = [Tensor(rng.normal(size=(C, 2, 6, 6)), requires_grad=True),
                 Tensor(rng.normal(size=(C, 6, 6)), requires_grad=True)]
        convs = (pcd.off_a[2], pcd.off_b[2], pcd.off_head[2])
        out = align._offset_field(*convs, parts)
        assert out._parents == (*parts, *(p for conv in convs for p in conv.parameters()))
        assert [a for a in retained_arrays(out) if not np.shares_memory(a, out.data)] == []

    @staticmethod
    def offset_field_arrays(rng, C=4, N=3, side=6):
        # a level's parts: neighbour blocks, the shared reference, and the
        # coarser level's upsampled offsets, one block each
        return [rng.normal(size=(C, N, side, side)), rng.normal(size=(C, side, side)),
                rng.normal(size=(18, N, side, side))]

    def test_offset_field_rebuilds_block_by_block(self, rng):
        # backward rebuilds one block at a time; the oracle rebuilds the whole
        # window as one graph, as a whole-window recompute would
        C = 4
        pcd = perturbed(PCDAlign(C, rng), rng)
        convs = (pcd.off_a[1], pcd.off_b[1], pcd.off_head[1])
        params = [p for conv in convs for p in conv.parameters()]
        arrays = self.offset_field_arrays(rng, C)
        mix = rng.normal(size=(18, 3, 6, 6))
        results = []
        for build in (lambda parts: align._offset_field(*convs, parts),
                      lambda parts: convs[2](T.gelu(convs[1](T.gelu(convs[0](parts)))))):
            parts = [Tensor(a, requires_grad=True) for a in arrays]
            for p in params:
                p.zero_grad()
            out = build(parts)
            (out * Tensor(mix)).sum().backward()
            results.append((out.data, [t.grad for t in parts], [p.grad for p in params]))
        (got, got_parts, got_params), (want, want_parts, want_params) = results
        assert np.array_equal(got, want)
        # blocked inputs and conv weights: each block's adds in the whole
        # window's order.  conv_a's weights for the shared part's channels
        # are the exception: the window convolves the sum of the blocks'
        # gradients with it, the blocks each their own, added up after
        for j in (0, 2):
            assert np.array_equal(got_parts[j], want_parts[j]), j
        weights = [i for i, (name, _) in enumerate(
            nv for conv in convs for nv in conv.named_parameters()) if name == "weight"]
        assert len(weights) == 3
        shared = slice(C, 2 * C)
        for i in weights:
            g, w = got_params[i].copy(), want_params[i].copy()
            if i == weights[0]:
                g[:, shared] = w[:, shared] = 0.0
            assert np.array_equal(g, w), i
        # those channels, the shared reference and the biases: summed over
        # blocks, not over the window at once
        for g, w in [(got_parts[1], want_parts[1]), *zip(got_params, want_params)]:
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_offset_field_backward_under_no_grad_is_bitwise(self, rng):
        # each block's rebuild builds its graph even when the caller has
        # switched graphs off
        C = 4
        pcd = perturbed(PCDAlign(C, rng), rng)
        convs = (pcd.off_a[1], pcd.off_b[1], pcd.off_head[1])
        arrays = self.offset_field_arrays(rng, C)
        mix = Tensor(rng.normal(size=(18, 3, 6, 6)))
        grads = []
        for mode in (nullcontext, no_grad):
            parts = [Tensor(a, requires_grad=True) for a in arrays]
            loss = (align._offset_field(*convs, parts) * mix).sum()
            with mode():
                loss.backward()
            grads.append([t.grad for t in parts])
        for got, want in zip(*grads):
            assert np.array_equal(got, want)

    def test_offset_field_gradients(self, rng):
        C = 2
        pcd = perturbed(PCDAlign(C, rng), rng)
        convs = (pcd.off_a[1], pcd.off_b[1], pcd.off_head[1])
        arrays = self.offset_field_arrays(rng, C, N=2, side=4)
        mix = Tensor(rng.normal(size=(18, 2, 4, 4)))
        check_gradients(lambda ts: (align._offset_field(*convs, ts) * mix).sum(), arrays)

    def test_window_matches_composition_of_plain_layers(self, rng):
        # the level loop and the cascade rebuilt, one frame at a time, from
        # convolutions of plain channel concatenations, so every operand of
        # pcd_align (the coarse offsets' * 2.0 included) is pinned
        from vssenhance.tensor import concat, gelu

        C, N, H, W = 4, 3, 8, 8
        extractor = perturbed(FeatureExtractor(3, C, rng), rng)
        pcd = perturbed(PCDAlign(C, rng), rng)
        frames = T.stack([Tensor(rng.uniform(size=(3, H, W))) for _ in range(N)], axis=1)

        def dcn(conv, f, offsets):
            return deformable_conv2d(f, offsets, conv.weight) + conv.bias.reshape(-1, 1, 1)

        with no_grad():
            window = extractor(frames)
            ref = window.block(N // 2)
            got = pcd_align(window, ref, pcd).data
            for n in range(N):
                nbr = window.block(n)
                offsets = aligned = None
                for lvl in (2, 1, 0):
                    f = nbr.levels[lvl]
                    h, w = f.shape[1:]
                    parts = [f, ref.levels[lvl]]
                    if offsets is not None:
                        parts.append(resize_bilinear(offsets, h, w) * 2.0)
                    feat = gelu(pcd.off_a[lvl](concat(parts, axis=0)))
                    offsets = pcd.off_head[lvl](gelu(pcd.off_b[lvl](feat)))
                    moved = dcn(pcd.dcn[lvl], f, offsets)
                    if aligned is None:
                        aligned = gelu(moved)
                    else:
                        up = resize_bilinear(aligned, h, w)
                        aligned = pcd.fuse[lvl](concat([moved, up], axis=0))
                        aligned = gelu(aligned) if lvl > 0 else aligned
                feat = gelu(pcd.cas_a(concat([aligned, ref.levels[0]], axis=0)))
                cas_offsets = pcd.cas_head(gelu(pcd.cas_b(feat)))
                want = dcn(pcd.cas_dcn, aligned, cas_offsets).data
                assert relative_error(got[:, n], want) <= 1e-12, n

    def test_identical_inputs_deterministic(self, rng):
        C = 3
        pcd = PCDAlign(C, rng)
        ref = self.make_pyramid(rng.normal(size=(C, 8, 8)))
        out1 = align_pair(ref, ref, pcd).data
        out2 = align_pair(ref, ref, pcd).data
        assert np.array_equal(out1, out2)

    def test_output_resolution_is_level_one(self, rng):
        pcd = PCDAlign(2, rng)
        nbr = self.make_pyramid(rng.normal(size=(2, 11, 7)))
        ref = self.make_pyramid(rng.normal(size=(2, 11, 7)))
        assert align_pair(nbr, ref, pcd).shape == (2, 11, 7)

    def test_shape_mismatch_rejected(self, rng):
        pcd = PCDAlign(2, rng)
        nbr = self.make_pyramid(rng.normal(size=(2, 8, 8)))
        ref = self.make_pyramid(rng.normal(size=(2, 6, 6)))
        with pytest.raises(DimensionError):
            pcd_align(FramePyramid.stack([nbr]), ref, pcd)

    def test_one_frame_neighbor_rejected(self, rng, monkeypatch):
        # only a (C, N, H, W) window aligns, and the check runs before any op
        pcd = PCDAlign(2, rng)
        ref = self.make_pyramid(rng.normal(size=(2, 8, 8)))
        monkeypatch.setattr(T, "recompute", None)
        with pytest.raises(DimensionError, match=r"\(C, N, H, W\) window"):
            pcd_align(ref, ref, pcd)
        with pytest.raises(DimensionError, match=r"\(C, N, H, W\) window"):
            pcd_align(FramePyramid.stack([ref]), FramePyramid.stack([ref]), pcd)

    def test_toy_training_improves_alignment(self, rng):
        # neighbor = reference shifted by (0, 2); 200 steps should cut the
        # alignment error well below its starting point
        C, H, W = 1, 16, 16
        base = rng.normal(size=(C, H, W)).cumsum(axis=2)  # smooth-ish signal
        base = (base - base.mean()) / (base.std() + 1e-9)
        shifted = np.zeros_like(base)
        shifted[:, :, :-2] = base[:, :, 2:]  # content moved left by 2

        extractor_rng = np.random.default_rng(7)
        pcd = PCDAlign(C, extractor_rng)
        ref_pyr = self.make_pyramid(base)
        nbr_pyr = self.make_pyramid(shifted)

        params = pcd.parameters()
        opt = AdamW(params, lr=5e-3)
        target = Tensor(base)
        first_loss = None
        for step in range(200):
            opt.zero_grad()
            out = align_pair(nbr_pyr, ref_pyr, pcd)
            err = out - target
            loss = (err * err + 1e-8).sqrt().mean()
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < 0.25 * first_loss

    def test_gradients_reach_offset_heads(self, rng):
        C = 2
        pcd = PCDAlign(C, rng)
        # give the offset heads nonzero weights so their gradient path is live
        for head in pcd.off_head + [pcd.cas_head]:
            head.weight.data = rng.normal(0, 0.01, size=head.weight.shape)
        nbr = self.make_pyramid(rng.normal(size=(C, 8, 8)))
        ref = self.make_pyramid(rng.normal(size=(C, 8, 8)))
        out = align_pair(nbr, ref, pcd)
        (out * out).sum().backward()
        for name, p in pcd.named_parameters():
            assert p.grad is not None, name


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestWindowBatch:
    """A window of N frames aligned in one pass, blocks on axis 1."""

    def test_deformable_blocks_match_single_calls(self, rng):
        f = rng.normal(size=(3, 4, 6, 7))
        offsets = rng.uniform(-1.5, 1.5, size=(18, 4, 6, 7))
        w = Tensor(rng.normal(size=(2, 3, 3, 3)))
        out = deformable_conv2d(Tensor(f), Tensor(offsets), w)
        assert out.shape == (2, 4, 6, 7)
        for n in range(4):
            single = deformable_conv2d(Tensor(f[:, n]), Tensor(offsets[:, n]), w)
            assert np.array_equal(out.data[:, n], single.data)
        with pytest.raises(DimensionError):
            deformable_conv2d(Tensor(f), Tensor(offsets[:, :3]), w)

    def test_deformable_no_grad_shares_one_sample_buffer(self, rng):
        # without a graph the blocks are sampled into one buffer in turn
        f = rng.normal(size=(3, 4, 6, 7))
        offsets = rng.uniform(-1.5, 1.5, size=(18, 4, 6, 7))
        w = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        out = deformable_conv2d(Tensor(f), Tensor(offsets), w)
        with no_grad():
            fast = deformable_conv2d(Tensor(f), Tensor(offsets), w)
        assert np.array_equal(out.data, fast.data)

    def test_split_conv_matches_concatenation(self, rng):
        # the shared (C, H, W) part equals that part repeated in every block
        conv = perturbed(Conv2d(7, 4, 3, rng), rng)
        nbr = rng.normal(size=(3, 5, 6, 6))
        ref = rng.normal(size=(2, 6, 6))
        extra = rng.normal(size=(2, 5, 6, 6))
        out = conv([Tensor(nbr), Tensor(ref), Tensor(extra)])
        whole = np.concatenate([nbr, np.repeat(ref[:, None], 5, axis=1), extra])
        want = conv(Tensor(whole))
        assert relative_error(out.data, want.data) <= 1e-13
        with pytest.raises(DimensionError):  # parts must cover every input channel
            conv([Tensor(nbr), Tensor(ref)])

    def test_split_conv_gradients(self, rng):
        nbr = rng.normal(size=(2, 3, 4, 4))
        ref = rng.normal(size=(2, 4, 4))
        extra = rng.normal(size=(1, 3, 4, 4))
        weight = rng.normal(size=(3, 5, 3, 3))
        bias = rng.normal(size=3)
        mix = rng.normal(size=(3, 3, 4, 4))
        conv = Conv2d(5, 3, 3, rng)

        def loss(ts):
            conv.weight, conv.bias = ts[3], ts[4]
            return (conv(list(ts[:3])) * Tensor(mix)).sum()

        check_gradients(loss, [nbr, ref, extra, weight, bias])

    def test_window_pass_matches_pairwise_calls(self, rng):
        C, N, H, W = 4, 5, 12, 10
        extractor = perturbed(FeatureExtractor(3, C, rng), rng)
        pcd = perturbed(PCDAlign(C, rng), rng)
        frames = [Tensor(rng.uniform(size=(3, H, W))) for _ in range(N)]
        mix = rng.normal(size=(C, N, H, W))
        params = extractor.parameters() + pcd.parameters()

        def grads(loss):
            for p in params:
                p.zero_grad()
            loss.backward()
            return [p.grad.copy() for p in params]

        window = extractor(T.stack(frames, axis=1))
        batched = pcd_align(window, window.block(N // 2), pcd)
        batched_grads = grads((batched * Tensor(mix)).sum())

        pyramids = [extractor(frame) for frame in frames]
        pairs = T.stack([align_pair(p, pyramids[N // 2], pcd) for p in pyramids], axis=1)
        pair_grads = grads((pairs * Tensor(mix)).sum())

        assert all(np.any(head.weight.data) for head in pcd.off_head + [pcd.cas_head])
        assert batched.shape == (C, N, H, W)
        assert relative_error(batched.data, pairs.data) <= 1e-12
        for (name, _), got, want in zip(
            [*extractor.named_parameters("extractor."), *pcd.named_parameters("pcd.")],
            batched_grads, pair_grads,
        ):
            assert relative_error(got, want) <= 1e-12, name
