"""Tensor engine: forward semantics, gradients vs finite differences, persistence."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from vssenhance import tensor as T
from vssenhance.tensor import (
    ConfigurationError,
    ContractError,
    DimensionError,
    Tensor,
    conv2d,
    conv_transpose2d,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
)

from helpers import assert_matches_composition, check_gradients, retained_arrays


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_empty_contraction(self):
        out = matmul(Tensor(np.zeros((3, 0))), Tensor(np.zeros((0, 2))))
        assert out.shape == (3, 2)
        assert np.array_equal(out.data, np.zeros((3, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 4),
        k=st.integers(1, 4),
        n=st.integers(1, 4),
        p=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_associativity(self, m, k, n, p, seed):
        r = np.random.default_rng(seed)
        a, b, c = r.normal(size=(m, k)), r.normal(size=(k, n)), r.normal(size=(n, p))
        left = (a @ b) @ c
        right = a @ (b @ c)
        scale = max(np.abs(left).max(), 1.0)
        assert np.abs(left - right).max() / scale < 1e-10

    def test_gradients(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_gradients(lambda ts: matmul(ts[0], ts[1]).sum(), [a, b])


class TestLayerNorm:
    def test_constant_row_collapses_to_beta(self):
        out = layer_norm(
            Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(np.zeros(3))
        )
        assert np.allclose(out.data, 0.0)

    def test_two_point_row(self):
        out = layer_norm(
            Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-15
        )
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_zero_gamma_gives_beta(self, rng):
        x = rng.normal(size=(4, 5))
        beta = rng.normal(size=5)
        out = layer_norm(Tensor(x), Tensor(np.zeros(5)), Tensor(beta))
        assert np.allclose(out.data, np.broadcast_to(beta, (4, 5)))

    def test_statistics(self, rng):
        x = rng.normal(size=(6, 8)) * 4.0
        out = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-10)
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-9
        assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-6

    def test_c_mismatch(self):
        with pytest.raises(DimensionError):
            layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(4)))

    def test_gradients(self, rng):
        x = rng.normal(size=(2, 5))
        gamma = rng.normal(size=5)
        beta = rng.normal(size=5)
        check_gradients(
            lambda ts: (layer_norm(ts[0], ts[1], ts[2]) * Tensor(rngmix)).sum(),
            [x, gamma, beta],
        )

    def test_keeps_only_row_factors(self, rng):
        # the mean and inverse deviation of each row: backward recomputes x-hat
        x = Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True)
        out = layer_norm(x * 2.0, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        kept = [a for a in own_arrays(out) if not np.shares_memory(a, out._parents[0].data)]
        assert sorted(a.shape for a in kept) == [(3, 4, 1)] * 2

    def test_backward_matches_three_term_formula(self, rng):
        # bitwise: the recomputed x-hat is the one forward formed
        x, gamma, g = rng.normal(size=(5, 7)), rng.normal(size=7), rng.normal(size=(5, 7))
        xt, gt = Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True)
        (layer_norm(xt, gt, Tensor(np.zeros(7))) * Tensor(g)).sum().backward()
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        inv_std = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv_std
        gxhat = g * gamma
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        assert np.array_equal(xt.grad, inv_std * (gxhat - m1 - xhat * m2))
        assert np.array_equal(gt.grad, (g * xhat).sum(axis=0))


rngmix = np.random.default_rng(7).normal(size=(2, 5))


# zero, subnormal, tiny normal, saturated and random inputs
GELU_INPUTS = np.concatenate([
    [0.0, 1e-310, -1e-310, 1e-300, -1e-300, 8.0, -8.0, 40.0, -40.0],
    np.random.default_rng(11).normal(scale=3.0, size=40),
])


# erf's edge cases: +-1 and the floats next to them, the points where it
# saturates, subnormals, infinities and NaN
ERF_EDGES = np.concatenate([
    [1.0, -1.0], np.nextafter([1.0, 1.0, -1.0, -1.0], [0.0, 2.0, 0.0, -2.0]),
    [8.0, -8.0, 27.0, -27.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf, np.nan],
])


class TestGelu:
    """Backward keeps no array: the CDF is recovered as output / input."""

    def test_forward_is_the_scipy_erf_formula_bitwise(self):
        # x * (0.5 * (1 + erf(x / sqrt 2))) in gelu's order, with
        # scipy.special.erf: the erf gelu loads is SciPy's own ufunc
        assert T._scipy_kernel("special._special_ufuncs", "erf") is erf
        with np.errstate(invalid="ignore"):  # -inf * 0
            want = ERF_EDGES * (0.5 * (erf(ERF_EDGES * (1.0 / np.sqrt(2.0))) + 1.0))
            assert gelu(Tensor(ERF_EDGES)).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("module, name", [("special._special_ufuncs", "no_such_kernel"),
                                              ("special._no_such_extension", "erf")])
    def test_a_missing_kernel_names_the_scipy_required(self, module, name):
        with pytest.raises(ImportError, match=r"needs SciPy >= 1\.17"):
            T._scipy_kernel(module, name)

    def test_keeps_no_array(self, rng):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        out = gelu(x * 2.0)
        kept = [a for a in own_arrays(out) if not np.shares_memory(a, out._parents[0].data)]
        assert kept == []

    def test_backward_matches_erf_formula(self, rng):
        g = rng.normal(size=GELU_INPUTS.shape)
        x = Tensor(GELU_INPUTS, requires_grad=True)
        (gelu(x) * Tensor(g)).sum().backward()
        cdf = 0.5 * (1.0 + erf(GELU_INPUTS / np.sqrt(2.0)))
        pdf = np.exp(-0.5 * GELU_INPUTS**2) / np.sqrt(2.0 * np.pi)
        want = g * (cdf + GELU_INPUTS * pdf)
        assert np.all(np.abs(x.grad - want) <= 1e-12 * np.abs(want))

    def test_gradients(self):
        mix = np.random.default_rng(3).normal(size=GELU_INPUTS.shape)
        check_gradients(lambda ts: (gelu(ts[0]) * Tensor(mix)).sum(), [GELU_INPUTS])


class TestConv2d:
    def test_one_by_one_identity(self, rng):
        x = rng.normal(size=(1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        out = conv2d(Tensor(x), Tensor(w))
        assert np.array_equal(out.data, x)

    def test_all_ones_kernel_on_one_hot(self):
        x = np.zeros((1, 5, 5))
        x[0, 2, 2] = 1.0
        w = np.ones((1, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), stride=1, pad=1)
        expected = np.zeros((1, 5, 5))
        expected[0, 1:4, 1:4] = 1.0
        assert np.array_equal(out.data, expected)

    def test_stride_two_shape(self, rng):
        x = rng.normal(size=(2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), stride=2, pad=1)
        assert out.shape == (3, 2, 2)

    def test_impossible_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))
        with pytest.raises(ConfigurationError):
            conv2d(Tensor(np.zeros((1, 5, 5))), Tensor(np.zeros((1, 1, 4, 4))), pad=1)

    def test_floor_semantics_drop_trailing_window(self, rng):
        # 5x5, k=3, stride=2, no padding: only positions 0 and 2 fit
        x = rng.normal(size=(1, 5, 5))
        w = rng.normal(size=(1, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), stride=2)
        assert out.shape == (1, 2, 2)

    def test_brute_force_oracle(self, rng):
        x = rng.normal(size=(2, 5, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), stride=1, pad=1).data
        ref = np.zeros_like(out)
        xp = np.zeros((2, 7, 8))
        xp[:, 1:6, 1:7] = x
        for co in range(3):
            for i in range(5):
                for j in range(6):
                    ref[co, i, j] = np.sum(xp[:, i : i + 3, j : j + 3] * w[co])
        assert np.allclose(out, ref, atol=1e-12)

    def test_gradients(self, rng):
        x = rng.normal(size=(2, 4, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        mix = rng.normal(size=(3, 2, 3))
        check_gradients(
            lambda ts: (conv2d(ts[0], ts[1], stride=2, pad=1) * Tensor(mix)).sum(),
            [x, w],
        )

    def test_gradients_stride1(self, rng):
        x = rng.normal(size=(1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        check_gradients(lambda ts: conv2d(ts[0], ts[1], pad=1).sum(), [x, w])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_blocks_match_single_calls(self, rng, stride):
        # a (C, N, H, W) batch runs each block's GEMM as a (C, H, W) call
        # would, and its backward, splitting each block again into one
        # buffer, adds the blocks' weight gradients in block order
        x = rng.normal(size=(3, 4, 7, 6))
        w = rng.normal(size=(2, 3, 3, 3))
        g = rng.normal(size=(2, 4) + conv2d(Tensor(x[:, 0]), Tensor(w), stride, 1).shape[1:])
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv2d(xt, wt, stride=stride, pad=1)
        (out * Tensor(g)).sum().backward()
        gw = np.zeros_like(w)
        for n in range(4):
            xn, wn = Tensor(x[:, n], requires_grad=True), Tensor(w, requires_grad=True)
            single = conv2d(xn, wn, stride=stride, pad=1)
            assert np.array_equal(out.data[:, n], single.data)
            (single * Tensor(g[:, n])).sum().backward()
            assert np.array_equal(xt.grad[:, n], xn.grad)
            gw += wn.grad
        assert np.array_equal(wt.grad, gw)

    def test_batch_gradients(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3))
        mix = rng.normal(size=(2, 3, 2, 2))
        check_gradients(
            lambda ts: (conv2d(ts[0], ts[1], stride=2, pad=1) * Tensor(mix)).sum(),
            [x, w],
        )


class TestConvTranspose2d:
    def test_adjoint_of_conv(self, rng):
        # <conv(x, W), y> == <x, conv_transpose(y, W)> when no window is dropped
        x = rng.normal(size=(2, 7, 7))
        w = rng.normal(size=(3, 2, 3, 3))  # conv layout (C_out, C_in, k, k)
        fwd = conv2d(Tensor(x), Tensor(w), stride=2, pad=1)
        y = rng.normal(size=fwd.shape)
        lhs = float((fwd.data * y).sum())
        back = conv_transpose2d(Tensor(y), Tensor(w), stride=2, pad=1)
        rhs = float((back.data * x).sum())
        assert abs(lhs - rhs) < 1e-9

    def test_upsample_shape(self, rng):
        x = rng.normal(size=(4, 5, 7))
        w = rng.normal(size=(4, 2, 4, 4))
        with pytest.raises(DimensionError):
            conv_transpose2d(Tensor(x), Tensor(rng.normal(size=(3, 2, 3, 3))))
        out = conv_transpose2d(Tensor(x), Tensor(w), stride=2, pad=1)
        assert out.shape == (2, 10, 14)

    def test_gradients(self, rng):
        x = rng.normal(size=(2, 3, 3))
        w = rng.normal(size=(2, 2, 4, 4))
        mix = rng.normal(size=(2, 6, 6))
        check_gradients(
            lambda ts: (conv_transpose2d(ts[0], ts[1], stride=2, pad=1) * Tensor(mix)).sum(),
            [x, w],
        )


def conv_oracle(x, w, stride, pad):
    """Cross-correlation by a loop over output positions."""
    x4 = x if x.ndim == 4 else x[:, None]
    C, N, H, W = x4.shape
    C_out, _, k, _ = w.shape
    xp = np.zeros((C, N, H + 2 * pad, W + 2 * pad))
    xp[:, :, pad : pad + H, pad : pad + W] = x4
    Ho, Wo = (H + 2 * pad - k) // stride + 1, (W + 2 * pad - k) // stride + 1
    out = np.zeros((C_out, N, Ho, Wo))
    for n in range(N):
        for i in range(Ho):
            for j in range(Wo):
                patch = xp[:, n, i * stride : i * stride + k, j * stride : j * stride + k]
                out[:, n, i, j] = np.tensordot(w, patch, axes=3)
    return out.reshape((C_out,) + x.shape[1:-2] + (Ho, Wo))


def conv_transpose_oracle(x, w, stride, pad):
    """Transposed convolution by scattering each input pixel's kernel copy."""
    C_in, H, W = x.shape
    _, C_out, k, _ = w.shape
    full = np.zeros((C_out, (H - 1) * stride + k, (W - 1) * stride + k))
    for i in range(H):
        for j in range(W):
            full[:, i * stride : i * stride + k, j * stride : j * stride + k] += np.tensordot(
                x[:, i, j], w, axes=1
            )
    return full[:, pad : full.shape[1] - pad, pad : full.shape[2] - pad]


# odd and even extents, so that stride 2 drops a trailing row or column
# (floor semantics) in some cases and not in others; a 4-D shape is a batch
CONV_SHAPES = [(2, 7, 6), (3, 5, 9), (2, 3, 6, 7)]


class TestTapConvolution:
    """conv2d and conv_transpose2d, one GEMM per kernel tap, against loops."""

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_matches_loop(self, rng, shape, k, pad, stride):
        x = rng.normal(size=shape)
        w = rng.normal(size=(4, shape[0], k, k))
        out = conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data
        ref = conv_oracle(x, w, stride, pad)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(2, 5, 4), (2, 2, 4, 5)])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_gradients(self, rng, shape, k, pad, stride):
        x = rng.normal(size=shape)
        w = rng.normal(size=(3, shape[0], k, k))
        mix = rng.normal(size=conv_oracle(x, w, stride, pad).shape)
        check_gradients(
            lambda ts: (conv2d(ts[0], ts[1], stride=stride, pad=pad) * Tensor(mix)).sum(),
            [x, w],
        )

    @pytest.mark.parametrize("k, stride, pad", [(4, 2, 1), (3, 1, 1)])
    def test_conv_transpose2d_matches_loop(self, rng, k, stride, pad):
        x = rng.normal(size=(3, 5, 4))
        w = rng.normal(size=(3, 2, k, k))
        out = conv_transpose2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data
        ref = conv_transpose_oracle(x, w, stride, pad)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("k, stride, pad", [(4, 2, 1), (3, 1, 1)])
    def test_conv_transpose2d_gradients(self, rng, k, stride, pad):
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(2, 3, k, k))
        mix = rng.normal(size=conv_transpose_oracle(x, w, stride, pad).shape)
        check_gradients(
            lambda ts: (conv_transpose2d(ts[0], ts[1], stride=stride, pad=pad)
                        * Tensor(mix)).sum(),
            [x, w],
        )

    @pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1), (1, 1, 0)])
    def test_conv2d_keeps_no_patch_matrix(self, rng, k, stride, pad):
        # nor any phase image: backward splits each block of the input again
        C, N, H, W = 3, 2, 8, 6
        x = Tensor(rng.normal(size=(C, N, H, W)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, C, k, k)), requires_grad=True)
        out = conv2d(x, w, stride=stride, pad=pad)
        assert [a for a in retained_arrays(out) if not np.shares_memory(a, out.data)] == []

    def test_conv_transpose2d_keeps_no_array(self, rng):
        x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
        out = conv_transpose2d(x, w, stride=2, pad=1)
        assert [a for a in retained_arrays(out) if not np.shares_memory(a, out.data)] == []

    def test_no_grad_output_is_bitwise_equal(self, rng):
        # without a graph the blocks share buffers, and give the same output
        x = rng.normal(size=(3, 4, 7, 6))
        w = rng.normal(size=(2, 3, 3, 3))
        for stride in (1, 2):
            out = conv2d(Tensor(x), Tensor(w, requires_grad=True), stride=stride, pad=1)
            with T.no_grad():
                fast = conv2d(Tensor(x), Tensor(w), stride=stride, pad=1)
            assert np.array_equal(out.data, fast.data)


def own_arrays(out):
    """Arrays the graph under ``out`` keeps besides ``out``'s own data."""
    return [a for a in retained_arrays(out) if not np.shares_memory(a, out.data)]


class TestBiasInsideTheNode:
    """A layer's bias is added inside its op's node: the output equals the
    op plus a separate bias add bitwise, and no pre-bias output is kept."""

    @pytest.mark.parametrize("shape, k, stride, pad", [
        ((3, 7, 6), 3, 1, 1), ((3, 2, 7, 6), 3, 2, 1), ((3, 2, 5, 4), 1, 1, 0),
    ])
    def test_conv2d(self, rng, shape, k, stride, pad):
        x, w, b = rng.normal(size=shape), rng.normal(size=(2, 3, k, k)), rng.normal(size=2)
        lift = (-1,) + (1,) * (len(shape) - 1)
        assert_matches_composition(
            lambda ts: conv2d(ts[0], ts[1], stride=stride, pad=pad, bias=ts[2]),
            lambda ts: conv2d(ts[0], ts[1], stride=stride, pad=pad) + ts[2].reshape(lift),
            [x, w, b],
        )
        mix = Tensor(rng.normal(size=conv2d(Tensor(x), Tensor(w), stride, pad).shape))
        check_gradients(
            lambda ts: (conv2d(ts[0], ts[1], stride=stride, pad=pad, bias=ts[2]) * mix).sum(),
            [x, w, b],
        )
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv2d(xt, wt, stride=stride, pad=pad, bias=bt)
        assert all(p._grad_fn is None for p in out._parents)  # one node
        assert not any(a.shape == out.shape for a in own_arrays(out))

    def test_conv_transpose2d(self, rng):
        x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4, 4)), rng.normal(size=3)
        assert_matches_composition(
            lambda ts: conv_transpose2d(ts[0], ts[1], stride=2, pad=1, bias=ts[2]),
            lambda ts: conv_transpose2d(ts[0], ts[1], stride=2, pad=1)
            + ts[2].reshape(-1, 1, 1),
            [x, w, b],
        )
        mix = Tensor(rng.normal(size=(3, 6, 8)))
        check_gradients(
            lambda ts: (conv_transpose2d(ts[0], ts[1], stride=2, pad=1, bias=ts[2])
                        * mix).sum(),
            [x, w, b],
        )
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv_transpose2d(xt, wt, stride=2, pad=1, bias=bt)
        assert own_arrays(out) == []

    def test_matmul(self, rng):
        a, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        assert_matches_composition(
            lambda ts: matmul(ts[0], ts[1], bias=ts[2]),
            lambda ts: matmul(ts[0], ts[1]) + ts[2],
            [a, w, b],
        )
        mix = Tensor(rng.normal(size=(6, 3)))
        check_gradients(lambda ts: (matmul(ts[0], ts[1], bias=ts[2]) * mix).sum(), [a, w, b])
        at, wt, bt = (Tensor(v, requires_grad=True) for v in (a, w, b))
        out = matmul(at, wt, bias=bt)
        assert own_arrays(out) == []

    @pytest.mark.parametrize("bias", [False, True])
    def test_matmul_residual(self, rng, bias):
        # (a @ w + b) + r in one node, bitwise the product and then an add
        a, w, b, r = (rng.normal(size=s) for s in ((6, 4), (4, 3), (3,), (6, 3)))
        arrays = [a, w, r] + ([b] if bias else [])

        def fused(ts):
            return matmul(ts[0], ts[1], bias=ts[3] if bias else None, residual=ts[2])

        def unfused(ts):
            return matmul(ts[0], ts[1], bias=ts[3] if bias else None) + ts[2]

        assert_matches_composition(fused, unfused, arrays)
        mix = Tensor(rng.normal(size=(6, 3)))
        check_gradients(lambda ts: (fused(ts) * mix).sum(), arrays)
        leaves = [Tensor(v, requires_grad=True) for v in arrays]
        out = fused(leaves)
        assert all(p._grad_fn is None for p in out._parents)  # one node
        assert own_arrays(out) == []

    def test_residual_shape_checked(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))),
                   residual=Tensor(np.ones((2, 3))))

    def test_bias_shape_checked(self, rng):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), bias=Tensor(np.ones(3)))
        with pytest.raises(DimensionError):
            conv2d(Tensor(np.ones((1, 4, 4))), Tensor(np.ones((2, 1, 3, 3))),
                   bias=Tensor(np.ones((2, 1))))


class TestConvOfParts:
    """conv2d of a list of parts: the convolution of their channel
    concatenation, the parts' convolutions summed into one output."""

    @staticmethod
    def unfused(parts, w, b, stride, pad):
        # each part by its slice of the kernel, added in order, then the bias
        out, start = None, 0
        for part in parts:
            stop = start + part.shape[0]
            y = conv2d(part, w[:, start:stop], stride=stride, pad=pad)
            if y.ndim == 3:
                y = y.reshape(y.shape[0], 1, *y.shape[1:])
            out = y if out is None else out + y
            start = stop
        return out + b.reshape(-1, 1, 1, 1)

    @pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1), (1, 1, 0)])
    def test_matches_composition(self, rng, k, stride, pad):
        # a shared (C, H, W) part between two batched ones
        arrays = [rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(3, 7, 6)),
                  rng.normal(size=(1, 3, 7, 6)), rng.normal(size=(4, 6, k, k)),
                  rng.normal(size=4)]
        assert_matches_composition(
            lambda ts: conv2d(ts[:3], ts[3], stride=stride, pad=pad, bias=ts[4]),
            lambda ts: self.unfused(ts[:3], ts[3], ts[4], stride, pad),
            arrays,
        )
        whole = np.concatenate([arrays[0], np.repeat(arrays[1][:, None], 3, axis=1),
                                arrays[2]])
        got = conv2d([Tensor(a) for a in arrays[:3]], Tensor(arrays[3]), stride, pad)
        want = conv2d(Tensor(whole), Tensor(arrays[3]), stride, pad)
        assert np.abs(got.data - want.data).max() <= 1e-13 * np.abs(want.data).max()

    def test_gradients(self, rng):
        arrays = [rng.normal(size=(3, 4, 4)), rng.normal(size=(1, 2, 4, 4)),
                  rng.normal(size=(2, 4, 3, 3)), rng.normal(size=2)]
        mix = Tensor(rng.normal(size=(2, 2, 2, 2)))
        check_gradients(
            lambda ts: (conv2d(ts[:2], ts[2], stride=2, pad=1, bias=ts[3]) * mix).sum(),
            arrays,
        )

    def test_one_node_keeping_no_array(self, rng):
        # backward reads the parts' own outputs, which the graph holds
        # anyway, and splits them into phase images again
        C, N, H, W = 2, 3, 6, 5
        leaves = [Tensor(rng.normal(size=(C, N, H, W)), requires_grad=True),
                  Tensor(rng.normal(size=(C, H, W)), requires_grad=True)]
        parts = [leaf * 1.5 for leaf in leaves]
        w = Tensor(rng.normal(size=(4, 2 * C, 3, 3)), requires_grad=True)
        out = conv2d(parts, w, pad=1, bias=Tensor(np.zeros(4), requires_grad=True))
        assert [p._grad_fn is None for p in out._parents] == [False, False, True, True]
        kept = own_arrays(out)
        assert len(kept) == 2
        assert all(any(np.shares_memory(a, p.data) for p in parts) for a in kept)

    def test_parts_must_agree(self, rng):
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(DimensionError):  # extents differ
            conv2d([Tensor(np.ones((2, 5, 5))), Tensor(np.ones((2, 5, 4)))], w)
        with pytest.raises(DimensionError):  # block counts differ
            conv2d([Tensor(np.ones((2, 2, 5, 5))), Tensor(np.ones((2, 3, 5, 5)))], w)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, [2.0, -4.0, 6.0])

    def test_layer_norm_sum_matches_finite_differences(self, rng):
        x = rng.normal(size=(1, 4))
        check_gradients(
            lambda ts: layer_norm(ts[0], Tensor(np.ones(4)), Tensor(np.zeros(4))).sum(),
            [x],
            rtol=1e-5,
        )

    def test_layer_norm_weighted_matches_finite_differences(self, rng):
        x = rng.normal(size=(2, 4))
        gamma = rng.normal(size=4)
        beta = rng.normal(size=4)
        mix = rng.normal(size=(2, 4))
        check_gradients(
            lambda ts: (layer_norm(ts[0], ts[1], ts[2]) * Tensor(mix)).sum(),
            [x, gamma, beta],
            rtol=1e-5,
        )

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_repeated_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        for _ in range(2):  # one graph, then another
            (x * x).sum().backward()
        assert np.allclose(x.grad, [8.0])
        x.zero_grad()
        assert x.grad is None

    def test_second_backward_through_spent_graph_rejected(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x
        loss = y.sum()
        loss.backward()
        with pytest.raises(ContractError, match="already ran"):
            loss.backward()
        with pytest.raises(ContractError, match="already ran"):
            (y * 3.0).sum().backward()  # a new graph over a spent node
        assert np.allclose(x.grad, [4.0])

    def test_backward_frees_closure_arrays(self):
        def scaled(x):  # x * 3 as a node whose closure alone keeps the 3s
            kept = np.full(4, 3.0)
            return T._node(x.data * kept, (x,), lambda g: (g * kept,)), weakref.ref(kept)

        x = Tensor(np.arange(4.0), requires_grad=True)
        out, ref = scaled(x)
        loss = out.sum()
        assert ref() is not None
        loss.backward()
        assert ref() is None
        assert np.array_equal(x.grad, np.full(4, 3.0))

    def test_operands_sharing_one_gradient_array(self):
        # add hands both operands g itself; each also gets a second
        # contribution, which must not land in the other's array
        x = Tensor([1.0], requires_grad=True)
        p, q = x * 2.0, x * 3.0
        ((p + q) + p * q).sum().backward()
        assert np.array_equal(x.grad, [17.0])  # d/dx (5x + 6x^2) at 1

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0
        y.sum().backward()
        assert np.allclose(x.grad, [1.0])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_elementwise_chain_gradients(self, seed):
        r = np.random.default_rng(seed)
        x = r.uniform(0.2, 2.0, size=6)

        def loss(ts):
            t = ts[0]
            return (T.gelu(t) * T.softplus(t) + T.sqrt(t) / (T.exp(-t) + 1.0)).sum()

        check_gradients(loss, [x])

    def test_forward_outputs_finite_on_finite_inputs(self, rng):
        x = rng.normal(size=(3, 4))
        ops = [
            T.gelu(Tensor(x)),
            T.softplus(Tensor(x)),
            T.exp(Tensor(x)),
            layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4))),
        ]
        for out in ops:
            assert np.isfinite(out.data).all()


class TestShapingOps:
    def test_gather_rows_permutation(self, rng):
        x = rng.normal(size=(6, 3))
        # (L,) indices, and (L, R) ones whose columns are permutations: R
        # gathers stacked on axis 1
        perms = [np.array([3, 1, 5, 0, 2, 4]),
                 np.stack([rng.permutation(6) for _ in range(3)], axis=1)]
        for perm in perms:
            out = gather_rows(Tensor(x), perm)
            assert np.array_equal(out.data, x[perm])
            mix = rng.normal(size=out.shape)
            check_gradients(lambda ts: (gather_rows(ts[0], perm) * Tensor(mix)).sum(), [x])
        # the (L, R) gather against R separate ones
        assert_matches_composition(
            lambda ts: gather_rows(ts[0], perm),
            lambda ts: T.stack([gather_rows(ts[0], perm[:, r])
                                for r in range(perm.shape[1])], axis=1),
            [x],
        )

    def test_gather_rows_without_inverse(self, rng):
        # rows of part of each permutation: backward adds the gradient rows
        # into place; on whole permutations it equals the inverses' gathers,
        # summed in column order
        x = rng.normal(size=(7, 3))
        perm = np.stack([rng.permutation(7) for _ in range(4)], axis=1)
        for rows in (perm[2:5], perm[:1, 0], perm):
            out = gather_rows(Tensor(x), rows)
            assert np.array_equal(out.data, x[rows])
            mix = rng.normal(size=out.shape)
            check_gradients(lambda ts: (gather_rows(ts[0], rows) * Tensor(mix)).sum(), [x])
        mix = rng.normal(size=perm.shape + (3,))
        leaf = Tensor(x, requires_grad=True)
        (gather_rows(leaf, perm) * Tensor(mix)).sum().backward()
        inv = np.argsort(perm, axis=0)
        want = mix[inv[:, 0], 0]
        for r in range(1, perm.shape[1]):
            want = want + mix[inv[:, r], r]
        assert np.array_equal(leaf.grad, want)

    def test_concat_and_slice_gradients(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(4, 3))

        def loss(ts):
            t = T.concat([ts[0], ts[1]], axis=0)[1:5, :2]
            return (t * t).sum()

        check_gradients(loss, [a, b])

    def test_stack_new_axis_and_gradients(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        out = T.stack([Tensor(a), Tensor(b)], axis=1)
        assert np.array_equal(out.data, np.stack([a, b], axis=1))
        mix = rng.normal(size=(2, 2, 3))
        check_gradients(lambda ts: (T.stack(ts, axis=1) * Tensor(mix)).sum(), [a, b])

    def test_pad_reflect_roundtrip(self, rng):
        x = rng.normal(size=(1, 4, 5))
        padded = T.pad2d_edges(Tensor(x), 2, 2, 2, 2, mode="reflect")
        assert padded.shape == (1, 8, 9)
        assert np.array_equal(padded.data[:, 2:6, 2:7], x)
        # reflection: row -1 equals row 1
        assert np.array_equal(padded.data[:, 1, 2:7], x[:, 1, :])

        def loss(ts):
            t = T.pad2d_edges(ts[0], 1, 1, 2, 2, mode="reflect")
            return (t * t).sum()

        check_gradients(loss, [x])

    def test_pad_edge_replicates_and_unknown_mode_rejected(self, rng):
        x = rng.normal(size=(2, 3, 3))
        padded = T.pad2d_edges(Tensor(x), 0, 4, 0, 5, mode="edge")
        assert np.array_equal(padded.data, np.pad(x, ((0, 0), (0, 4), (0, 5)), mode="edge"))

        def loss(ts):
            t = T.pad2d_edges(ts[0], 1, 4, 2, 5, mode="edge")
            return (t * t).sum()

        check_gradients(loss, [x])
        for mode in ("zero", "constant"):
            with pytest.raises(ValueError, match="unknown padding mode"):
                T.pad2d_edges(Tensor(x), 1, 1, 1, 1, mode=mode)

    def test_empty_dimension_is_legal(self):
        x = Tensor(np.zeros((0, 4)))
        assert x.sum().item() == 0.0
        assert matmul(x, Tensor(np.zeros((4, 2)))).shape == (0, 2)

    def test_clip_gradient_mask(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        T.clip(x, -1.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestPersistence:
    def test_roundtrip(self, tmp_path, rng):
        x = rng.normal(size=(3, 4, 5))
        path = tmp_path / "t.vsst"
        T.save_tensor(Tensor(x), path)
        back = T.load_tensor(path)
        assert back.shape == (3, 4, 5)
        assert np.array_equal(back.data, x)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.vsst"
        T.save_tensor(Tensor(np.arange(6.0).reshape(2, 3)), path)
        blob = path.read_bytes()
        assert blob[:4] == b"VSST"
        assert int.from_bytes(blob[4:8], "little") == 2
        assert int.from_bytes(blob[8:16], "little") == 2
        assert int.from_bytes(blob[16:24], "little") == 3
        assert len(blob) == 24 + 6 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vsst"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ContractError):
            T.load_tensor(path)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda b: b[:6],  # header cut inside the rank
            lambda b: b[:16],  # header cut inside the dims
            lambda b: b[:-8],  # payload one element short
            lambda b: b + b"\x00",  # trailing byte
        ],
        ids=["truncated-rank", "truncated-dims", "truncated-payload", "trailing-bytes"],
    )
    def test_wrong_file_size_rejected(self, tmp_path, damage):
        path = tmp_path / "t.vsst"
        T.save_tensor(Tensor(np.arange(6.0).reshape(2, 3)), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ContractError, match="t.vsst"):
            T.load_tensor(path)


class TestNoGrad:
    def test_no_graph_is_built(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = (x * 3.0).sum()
        assert not y.requires_grad


class TestRecompute:
    """``recompute(fn, inputs, params)``: one node that keeps only its
    inputs and rebuilds ``fn``'s graph in backward."""

    @staticmethod
    def chain(gamma, beta, w, b):
        # x feeds the norm and the residual, so its gradient sums two paths
        def fn(x, y):
            return matmul(gelu(layer_norm(x, gamma, beta)), w, bias=b, residual=x) * y
        return fn

    @staticmethod
    def arrays(rng):
        return [rng.normal(size=(5, 3)), rng.normal(size=(5, 3)), 1.0 + rng.normal(size=3),
                rng.normal(size=3), rng.normal(size=(3, 3)), rng.normal(size=3)]

    def fused(self, ts):
        return T.recompute(self.chain(*ts[2:]), ts[:2], ts[2:])

    def test_gradients(self, rng):
        mix = rng.normal(size=(5, 3))
        check_gradients(lambda ts: (self.fused(ts) * Tensor(mix)).sum(), self.arrays(rng))

    def test_matches_plain_composition(self, rng):
        assert_matches_composition(self.fused, lambda ts: self.chain(*ts[2:])(*ts[:2]),
                                   self.arrays(rng))

    def test_backward_under_no_grad_bitwise(self, rng):
        arrays = self.arrays(rng)
        grads = []
        for mode in (T._grad_mode(True), T.no_grad()):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            loss = (self.fused(leaves) * self.fused(leaves)).sum()
            with mode:
                loss.backward()
            grads.append([leaf.grad for leaf in leaves])
        for got, want in zip(*grads):
            assert np.array_equal(got, want)

    def test_node_keeps_no_interior_output(self, rng):
        leaves = [Tensor(a, requires_grad=True) for a in self.arrays(rng)]
        out = self.fused(leaves)
        assert out._parents == tuple(leaves)
        assert own_arrays(out) == []

    def test_spent_graph_rejected(self, rng):
        leaves = [Tensor(a, requires_grad=True) for a in self.arrays(rng)]
        out = self.fused(leaves)
        loss = out.sum()
        loss.backward()
        with pytest.raises(ContractError, match="already ran"):
            loss.backward()
        with pytest.raises(ContractError, match="already ran"):
            out._grad_fn(np.ones(out.shape))

    def test_unlisted_parameter_rejected(self, rng):
        leaves = [Tensor(a, requires_grad=True) for a in self.arrays(rng)]
        out = T.recompute(self.chain(*leaves[2:]), leaves[:2], leaves[2:4])  # no w, b
        with pytest.raises(ContractError, match="neither an input nor a parameter"):
            out.sum().backward()

    def test_blocked_inputs_must_share_their_count(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        with pytest.raises(DimensionError, match="differ in N"):
            T.recompute(lambda x, y: x, [a, b])

    def test_without_graphs_it_calls_fn(self, rng):
        arrays = self.arrays(rng)
        with T.no_grad():
            out = self.fused([Tensor(a, requires_grad=True) for a in arrays])
        assert out._grad_fn is None
        plain = self.chain(*map(Tensor, arrays[2:]))(*map(Tensor, arrays[:2]))
        assert np.array_equal(out.data, plain.data)
