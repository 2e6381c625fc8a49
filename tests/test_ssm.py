"""SSM core: discretization, the three scan algorithms, selective parameters."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vssenhance.ssm import (
    DiscreteSSM,
    DomainError,
    SelectiveHead,
    SSMParams,
    discretize_zoh,
    linear_recurrence,
    lti_kernel,
    parallel_recurrence_data,
    random_ssm,
    scan_convolutional,
    scan_parallel,
    scan_sequential,
    selective_parameterize,
    selective_readout,
    selective_zoh,
    sequential_recurrence_data,
    stable_diagonal_init,
)
from vssenhance.tensor import ContractError, Tensor

from helpers import check_gradients


def make_scalar_ssm(a_bar, b_bar, c, d, delta=1.0):
    return DiscreteSSM(
        a_bar=Tensor([a_bar]),
        b_bar=Tensor([[b_bar]]),
        c=Tensor([[c]]),
        d=d,
        delta=delta,
        state_dim=1,
    )


def hand_scan(a_bar, b_bar, c, d_skip, x):
    """Independent oracle: explicit per-step unrolling of the recurrence."""
    a_bar = np.atleast_1d(np.asarray(a_bar, dtype=float))
    b_bar = np.asarray(b_bar, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    h = np.zeros_like(b_bar)
    out = []
    for xt in x:
        h = a_bar * h + b_bar * xt
        out.append(float(c @ h) + d_skip * xt)
    return np.array(out)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestDiscretizeZOH:
    def test_zero_state_matrix_series_limit(self):
        p = SSMParams(a=Tensor([0.0]), b=Tensor([[1.0]]), c=Tensor([[1.0]]), d=0.0, state_dim=1)
        disc = discretize_zoh(p, 0.5)
        assert disc.a_bar.data[0] == 1.0
        assert np.allclose(disc.b_bar.data, [[0.5]])

    def test_scalar_exponential(self):
        p = SSMParams(a=Tensor([-1.0]), b=Tensor([[1.0]]), c=Tensor([[1.0]]), d=0.0, state_dim=1)
        disc = discretize_zoh(p, 0.1)
        assert abs(disc.a_bar.data[0] - math.exp(-0.1)) < 1e-15

    def test_vanishing_timescale_limit(self, rng):
        p = random_ssm(4, rng)
        disc = discretize_zoh(p, 1e-12)
        assert np.abs(disc.a_bar.data - 1.0).max() < 1e-9
        assert np.abs(disc.b_bar.data).max() < 1e-9

    def test_nonpositive_delta_rejected(self, rng):
        p = random_ssm(2, rng)
        with pytest.raises(DomainError):
            discretize_zoh(p, 0.0)
        with pytest.raises(DomainError):
            discretize_zoh(p, -0.3)

    def test_exact_b_formula_diagonal(self, rng):
        # (exp(delta*a) - 1) / a * b, evaluated entrywise by hand
        a = np.array([-2.0, -0.5, -7.0])
        b = rng.normal(size=(3, 1))
        p = SSMParams(a=Tensor(a), b=Tensor(b), c=Tensor(np.ones((1, 3))), d=0.0, state_dim=3)
        disc = discretize_zoh(p, 0.3)
        expected = ((np.exp(0.3 * a) - 1.0) / a)[:, None] * b
        assert np.allclose(disc.b_bar.data, expected, atol=1e-15)


class TestScanSequential:
    def test_zero_input(self, rng):
        ssm = discretize_zoh(random_ssm(4, rng), 0.1)
        y = scan_sequential(ssm, Tensor(np.zeros(9)))
        assert np.array_equal(y.data, np.zeros(9))

    def test_memoryless_case(self):
        ssm = make_scalar_ssm(0.0, 1.0, 2.0, 0.0)
        y = scan_sequential(ssm, Tensor([1.0, 3.0, 5.0]))
        assert np.allclose(y.data, [2.0, 6.0, 10.0])

    def test_three_step_unrolling(self):
        ssm = make_scalar_ssm(0.5, 1.0, 1.0, 0.0)
        y = scan_sequential(ssm, Tensor([1.0, 1.0, 1.0]))
        assert np.allclose(y.data, [1.0, 1.5, 1.75])

    def test_matches_hand_oracle(self, rng):
        ssm = discretize_zoh(random_ssm(3, rng), 0.2)
        x = rng.normal(size=11)
        expected = hand_scan(ssm.a_bar.data, ssm.b_bar.data, ssm.c.data, ssm.d, x)
        assert np.allclose(scan_sequential(ssm, Tensor(x)).data, expected, atol=1e-12)


class TestScanParallel:
    def test_single_element(self, rng):
        ssm = discretize_zoh(random_ssm(5, rng), 0.3)
        x = rng.normal(size=1)
        y = scan_parallel(ssm, Tensor(x))
        direct = float((ssm.c.data @ ssm.b_bar.data).item()) * x[0] + ssm.d * x[0]
        assert abs(y.data[0] - direct) < 1e-12
        assert np.allclose(y.data, scan_sequential(ssm, Tensor(x)).data)

    def test_non_power_of_two(self, rng):
        ssm = discretize_zoh(random_ssm(4, rng), 0.15)
        x = rng.normal(size=7)
        seq = scan_sequential(ssm, Tensor(x)).data
        par = scan_parallel(ssm, Tensor(x)).data
        assert np.abs(seq - par).max() < 1e-10

    def test_long_sequence(self, rng):
        ssm = discretize_zoh(random_ssm(8, rng), 0.05)
        x = rng.normal(size=1024)
        seq = scan_sequential(ssm, Tensor(x)).data
        par = scan_parallel(ssm, Tensor(x)).data
        assert np.abs(seq - par).max() < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(1, 130), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_kernel_equivalence_property(self, L, n, seed):
        r = np.random.default_rng(seed)
        a = r.uniform(-0.99, 0.99, size=(L, n))
        u = r.normal(size=(L, n))
        assert np.allclose(
            parallel_recurrence_data(a, u),
            sequential_recurrence_data(a, u),
            atol=1e-10,
        )

    def test_deterministic(self, rng):
        a = rng.uniform(0.1, 0.9, size=(37, 3))
        u = rng.normal(size=(37, 3))
        first = parallel_recurrence_data(a, u)
        second = parallel_recurrence_data(a, u)
        assert np.array_equal(first, second)


class TestScanConvolutional:
    def test_memoryless_kernel(self, rng):
        ssm = make_scalar_ssm(0.0, 1.5, 2.0, 0.0)
        k = lti_kernel(ssm, 5).data
        assert np.allclose(k, [3.0, 0.0, 0.0, 0.0, 0.0])

    def test_geometric_kernel(self):
        ssm = make_scalar_ssm(0.5, 1.0, 1.0, 0.0)
        assert np.allclose(lti_kernel(ssm, 3).data, [1.0, 0.5, 0.25])

    def test_matches_sequential(self, rng):
        ssm = discretize_zoh(random_ssm(6, rng), 0.1)
        x = rng.normal(size=64)
        conv = scan_convolutional(ssm, Tensor(x)).data
        seq = scan_sequential(ssm, Tensor(x)).data
        assert np.abs(conv - seq).max() < 1e-9

    def test_selective_rejected(self, rng):
        head = SelectiveHead.init(3, 2, rng)
        params = selective_parameterize(
            Tensor(rng.normal(size=(4, 3))), head, Tensor([-1.0, -2.0]), 0.0
        )
        with pytest.raises(ContractError):
            scan_convolutional(params, Tensor(np.zeros(4)))


class TestSelectiveParameterize:
    def test_zero_weights_constant_delta(self, rng):
        head = SelectiveHead.init(4, 3, rng)
        head.w_delta.data[:] = 0.0
        bias = float(head.b_delta.data[0])
        params = selective_parameterize(
            Tensor(rng.normal(size=(6, 4))), head, Tensor([-1.0, -1.0, -1.0]), 0.0
        )
        expected = math.log1p(math.exp(bias))
        assert np.allclose(params.delta_t.data, expected)
        assert (params.delta_t.data > 0).all()

    def test_zero_input(self, rng):
        head = SelectiveHead.init(4, 2, rng)
        params = selective_parameterize(
            Tensor(np.zeros((5, 4))), head, Tensor([-1.0, -2.0]), 0.0
        )
        assert np.array_equal(params.b_t.data, np.zeros((5, 2)))
        assert np.array_equal(params.c_t.data, np.zeros((5, 2)))
        bias = float(head.b_delta.data[0])
        assert np.allclose(params.delta_t.data, math.log1p(math.exp(bias)))

    def test_selective_scan_matches_hand_recurrence(self, rng):
        # L=4, d=2: recompute the per-step discretization and unroll by hand
        feat = rng.normal(size=(4, 3))
        x = rng.normal(size=4)
        a_diag = np.array([-0.8, -2.5])
        head = SelectiveHead.init(3, 2, rng)
        params = selective_parameterize(Tensor(feat), head, Tensor(a_diag), 0.7)
        y = scan_sequential(params, Tensor(x)).data

        b_t = feat @ head.w_b.data
        c_t = feat @ head.w_c.data
        delta_t = np.log1p(np.exp(feat @ head.w_delta.data[:, 0] + head.b_delta.data[0]))
        h = np.zeros(2)
        expected = []
        for t in range(4):
            a_bar = np.exp(delta_t[t] * a_diag)
            b_bar = (a_bar - 1.0) / a_diag * b_t[t]
            h = a_bar * h + b_bar * x[t]
            expected.append(c_t[t] @ h + 0.7 * x[t])
        assert np.abs(y - np.array(expected)).max() < 1e-10

    def test_parallel_matches_hand_recurrence(self, rng):
        feat = rng.normal(size=(9, 5))
        x = rng.normal(size=9)
        a_diag = stable_diagonal_init(3, rng)
        head = SelectiveHead.init(5, 3, rng)
        params = selective_parameterize(Tensor(feat), head, Tensor(a_diag), -0.3)
        par = scan_parallel(params, Tensor(x)).data
        seq = scan_sequential(params, Tensor(x)).data
        assert np.abs(par - seq).max() < 1e-8

    def test_gradient_reaches_all_projections(self, rng):
        feat = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        head = SelectiveHead.init(4, 3, rng)
        params = selective_parameterize(feat, head, Tensor(stable_diagonal_init(3, rng)), 0.1)
        y = scan_parallel(params, Tensor(rng.normal(size=6)))
        (y * y).sum().backward()
        for w in head.parameters():
            assert w.grad is not None
            assert np.abs(w.grad).max() > 0
        assert feat.grad is not None


class TestInvariants:
    def test_zoh_exactness_against_continuous_solution(self, rng):
        # step input u0: h_i(t) = (b_i u0 / a_i)(e^{a_i t} - 1), sampled at t = k*delta
        for _ in range(10):
            d = int(rng.integers(1, 5))
            p = random_ssm(d, rng)
            delta = float(rng.uniform(0.01, 0.4))
            u0 = float(rng.normal())
            L = 40
            disc = discretize_zoh(p, delta)
            y = scan_sequential(disc, Tensor(np.full(L, u0))).data
            a, b, c = p.a.data, p.b.data[:, 0], p.c.data[0]
            ts = delta * np.arange(1, L + 1)
            h_cont = (b * u0 / a)[None, :] * (np.exp(np.outer(ts, a)) - 1.0)
            y_cont = h_cont @ c + p.d * u0
            assert np.abs(y - y_cont).max() < 1e-6

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), L=st.integers(1, 60))
    def test_linearity(self, seed, L):
        r = np.random.default_rng(seed)
        ssm = discretize_zoh(random_ssm(3, r), float(r.uniform(0.05, 0.5)))
        x1, x2 = r.normal(size=L), r.normal(size=L)
        alpha, beta = float(r.normal()), float(r.normal())
        lhs = scan_sequential(ssm, Tensor(alpha * x1 + beta * x2)).data
        rhs = alpha * scan_sequential(ssm, Tensor(x1)).data + beta * scan_sequential(
            ssm, Tensor(x2)
        ).data
        scale = max(np.abs(lhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() / scale < 1e-10

    def test_stability_bound(self, rng):
        for _ in range(5):
            d = int(rng.integers(1, 6))
            ssm = discretize_zoh(random_ssm(d, rng), float(rng.uniform(0.05, 0.5)))
            x = rng.normal(size=300)
            L = x.size
            a = np.broadcast_to(ssm.a_bar.data, (L, d)).copy()
            u = x[:, None] * ssm.b_bar.data[:, 0]
            h = sequential_recurrence_data(a, u)
            bound = (
                np.abs(ssm.b_bar.data).max()
                * np.abs(x).max()
                / (1.0 - ssm.a_bar.data.max())
            )
            assert np.abs(h).max() <= bound + 1e-12

    def test_mode_equivalence_triplet(self, rng):
        for L in (1, 7, 64):
            for d in (1, 4):
                ssm = discretize_zoh(random_ssm(d, rng), float(rng.uniform(0.02, 0.3)))
                x = rng.normal(size=L)
                seq = scan_sequential(ssm, Tensor(x)).data
                par = scan_parallel(ssm, Tensor(x)).data
                conv = scan_convolutional(ssm, Tensor(x)).data
                assert np.abs(seq - par).max() < 1e-8
                assert np.abs(seq - conv).max() < 1e-8
                assert np.abs(par - conv).max() < 1e-8


class TestGradients:
    def test_linear_recurrence_gradients(self, rng):
        a = rng.uniform(-0.9, 0.9, size=(6, 3))
        u = rng.normal(size=(6, 3))
        mix = rng.normal(size=(6, 3))
        for mode in ("sequential", "parallel"):
            check_gradients(
                lambda ts, m=mode: (linear_recurrence(ts[0], ts[1], mode=m) * Tensor(mix)).sum(),
                [a, u],
            )

    def test_scan_gradients_wrt_everything(self, rng):
        x = rng.normal(size=8)
        a_bar = rng.uniform(0.1, 0.9, size=4)
        b_bar = rng.normal(size=(4, 1))
        c = rng.normal(size=(1, 4))
        mix = rng.normal(size=8)

        def build(scan_fn):
            def loss(ts):
                ssm = DiscreteSSM(
                    a_bar=ts[0], b_bar=ts[1], c=ts[2], d=0.4, delta=0.1, state_dim=4
                )
                return (scan_fn(ssm, ts[3]) * Tensor(mix)).sum()

            return loss

        for fn in (scan_sequential, scan_parallel, scan_convolutional):
            check_gradients(build(fn), [a_bar, b_bar, c, x])

    def test_selective_scan_gradients(self, rng):
        feat = rng.normal(size=(5, 3))
        x = rng.normal(size=5)
        w_b = rng.normal(size=(3, 2))
        w_c = rng.normal(size=(3, 2))
        w_d = rng.normal(size=(3, 1))
        b_d = np.array([-2.0])
        a_diag = np.array([-0.7, -1.8])
        mix = rng.normal(size=5)

        def loss(ts):
            head = SelectiveHead(w_b=ts[1], w_c=ts[2], w_delta=ts[3], b_delta=ts[4])
            params = selective_parameterize(ts[0], head, ts[5], 0.2)
            return (scan_parallel(params, ts[6]) * Tensor(mix)).sum()

        check_gradients(loss, [feat, w_b, w_c, w_d, b_d, a_diag, x])


# Broadcast shapes of (delta, a, b, x) as ss2d_forward (L=5, C=3, d=2) and
# _per_step_terms (L=6, d=3) pass them, and of (h, c, axis) for the readout.
ZOH_SHAPES = {
    "ss2d": ((5, 4, 1, 1), (1, 1, 3, 2), (5, 4, 1, 2), (5, 4, 3, 1)),
    "per_step": ((6, 1), (1, 3), (6, 3), (6, 1)),
}
READOUT_SHAPES = {
    "ss2d": ((5, 4, 3, 2), (5, 4, 1, 2), 3),
    "per_step": ((6, 3), (6, 3), 1),
}


def zoh_operands(shapes, rng):
    delta_s, a_s, b_s, x_s = shapes
    return [
        rng.uniform(0.05, 0.8, size=delta_s),
        -rng.uniform(0.5, 3.0, size=a_s),  # selective state matrices are negative
        rng.normal(size=b_s),
        rng.normal(size=x_s),
    ]


def zoh_composed(delta, a, b, x):
    """The generic-op composition ``selective_zoh`` replaced."""
    a_bar = (delta * a).exp()
    return a_bar, (a_bar - 1.0) / a * b * x


class TestSelectiveNodes:
    @pytest.mark.parametrize("site", sorted(ZOH_SHAPES))
    def test_zoh_gradients(self, rng, site):
        delta, a, b, x = zoh_operands(ZOH_SHAPES[site], rng)
        a_bar, u = selective_zoh(delta, a, b, x)
        mix_a, mix_u = rng.normal(size=a_bar.shape), rng.normal(size=u.shape)
        # a_bar depends on (delta, a) only
        check_gradients(
            lambda ts: (selective_zoh(ts[0], ts[1], b, x)[0] * Tensor(mix_a)).sum(),
            [delta, a],
        )
        check_gradients(
            lambda ts: (selective_zoh(*ts)[1] * Tensor(mix_u)).sum(), [delta, a, b, x]
        )

    @pytest.mark.parametrize("site", sorted(READOUT_SHAPES))
    def test_readout_gradients(self, rng, site):
        h_s, c_s, axis = READOUT_SHAPES[site]
        arrays = [rng.normal(size=h_s), rng.normal(size=c_s)]
        mix = rng.normal(size=selective_readout(Tensor(arrays[0]), Tensor(arrays[1]), axis).shape)
        check_gradients(
            lambda ts: (selective_readout(ts[0], ts[1], axis) * Tensor(mix)).sum(), arrays
        )

    @pytest.mark.parametrize("site", sorted(ZOH_SHAPES))
    def test_matches_composed_ops(self, rng, site):
        arrays = zoh_operands(ZOH_SHAPES[site], rng)
        h_s, c_s, axis = READOUT_SHAPES[site]
        c = rng.normal(size=c_s)

        def run(zoh, readout):
            leaves = [Tensor(v, requires_grad=True) for v in arrays + [c]]
            a_bar, u = zoh(*leaves[:4])
            h = a_bar * u  # any use of both outputs; stands in for the recurrence
            y = readout(h, leaves[4], axis)
            mix = np.linspace(-1.0, 1.0, y.size).reshape(y.shape)
            ((y * Tensor(mix)).sum() + (a_bar * a_bar).sum()).backward()
            return (a_bar.data, u.data, y.data), [t.grad for t in leaves]

        fused_out, fused_grads = run(selective_zoh, selective_readout)
        ref_out, ref_grads = run(zoh_composed, lambda h, c, axis: (h * c).sum(axis=axis))
        for got, want in zip(fused_out, ref_out):
            assert np.array_equal(got, want)
        for got, want in zip(fused_grads, ref_grads):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
