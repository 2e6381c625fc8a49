"""State-space sequence primitives.

Continuous (A, B, C, D) systems, zero-order-hold discretization, the
input-dependent (selective) parameterization, and three interchangeable ways
of evaluating the discrete recurrence

    h_t = A_bar * h_{t-1} + B_bar * x_t,      y_t = C h_t + D x_t

with h_0 = 0: an exact left-to-right loop, a work-efficient parallel prefix
scan over the associative composition (a1,b1)∘(a2,b2) = (a2·a1, a2·b1 + b2),
and (for time-invariant systems) a causal convolution with the kernel
(C B_bar, C A_bar B_bar, C A_bar^2 B_bar, ...).

State matrices are diagonal, stored as a length-d vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Module
from .tensor import (
    ContractError,
    DimensionError,
    Tensor,
    _node,
    _unbroadcast,
    _wrap,
    matmul,
    softplus,
)

__all__ = [
    "DomainError",
    "SSMParams",
    "DiscreteSSM",
    "SelectiveParams",
    "SelectiveHead",
    "random_ssm",
    "stable_diagonal_init",
    "discretize_zoh",
    "scan_sequential",
    "scan_parallel",
    "scan_convolutional",
    "causal_convolve",
    "lti_kernel",
    "selective_parameterize",
    "selective_zoh",
    "selective_readout",
    "linear_recurrence",
    "sequential_recurrence_data",
    "parallel_recurrence_data",
]

# |delta * a| below this uses the series limit B_bar -> delta * B
_ZOH_SERIES_THRESHOLD = 1e-8
DELTA_FLOOR = 0.01  # a fresh selective head's step size, softplus(b_delta)


class DomainError(ValueError):
    """A numeric argument is outside its mathematical domain."""


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass
class SSMParams:
    """Continuous-time system. ``a`` is the diagonal of the state matrix."""

    a: Tensor  # (d,)
    b: Tensor  # (d, 1)
    c: Tensor  # (1, d)
    d: float
    state_dim: int

    def __post_init__(self):
        if self.state_dim < 1:
            raise DimensionError("state dimension must be >= 1")
        if self.a.shape != (self.state_dim,):
            raise DimensionError(f"state matrix diagonal must be ({self.state_dim},)")
        if self.b.shape != (self.state_dim, 1):
            raise DimensionError(f"input matrix must be ({self.state_dim}, 1)")
        if self.c.shape != (1, self.state_dim):
            raise DimensionError(f"output matrix must be (1, {self.state_dim})")


@dataclass
class DiscreteSSM:
    """Zero-order-hold discretization of an :class:`SSMParams` at timescale delta."""

    a_bar: Tensor
    b_bar: Tensor  # (d, 1)
    c: Tensor  # (1, d)
    d: float
    delta: float
    state_dim: int


@dataclass
class SelectiveParams:
    """Per-timestep scan parameters produced from the input sequence.

    ``b_t`` and ``c_t`` are (L, d); ``delta_t`` is (L,) and strictly positive.
    The time-invariant base (diagonal state matrix and skip coefficient) rides
    along so a scan over these parameters is self-contained.
    """

    b_t: Tensor
    c_t: Tensor
    delta_t: Tensor
    a_diag: Tensor  # (d,)
    d: float

    @property
    def length(self) -> int:
        return self.delta_t.shape[0]

    @property
    def state_dim(self) -> int:
        return self.b_t.shape[1]


@dataclass
class SelectiveHead(Module):
    """Projection weights that map input features to (B_t, C_t, delta_t)."""

    w_b: Tensor  # (C_feat, d)
    w_c: Tensor  # (C_feat, d)
    w_delta: Tensor  # (C_feat, 1)
    b_delta: Tensor  # (1,)

    @staticmethod
    def init(feat_dim: int, state_dim: int, rng: np.random.Generator) -> "SelectiveHead":
        scale = 1.0 / np.sqrt(feat_dim)
        bias = float(np.log(np.expm1(DELTA_FLOOR)))  # softplus(bias) == DELTA_FLOOR
        return SelectiveHead(
            w_b=Tensor(rng.normal(0.0, scale, size=(feat_dim, state_dim)), requires_grad=True),
            w_c=Tensor(rng.normal(0.0, scale, size=(feat_dim, state_dim)), requires_grad=True),
            w_delta=Tensor(rng.normal(0.0, scale, size=(feat_dim, 1)), requires_grad=True),
            b_delta=Tensor(np.array([bias]), requires_grad=True),
        )


def stable_diagonal_init(state_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Negative diagonal entries a_i = -exp(u), u ~ U[log 0.5, log 8]."""
    u = rng.uniform(np.log(0.5), np.log(8.0), size=state_dim)
    return -np.exp(u)


def random_ssm(state_dim: int, rng: np.random.Generator) -> SSMParams:
    """A random stable diagonal system, the stock test/benchmark generator."""
    return SSMParams(
        a=Tensor(stable_diagonal_init(state_dim, rng)),
        b=Tensor(rng.normal(size=(state_dim, 1))),
        c=Tensor(rng.normal(size=(1, state_dim))),
        d=float(rng.normal()),
        state_dim=state_dim,
    )


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def discretize_zoh(params: SSMParams, delta: float) -> DiscreteSSM:
    """Zero-order-hold discretization: A_bar = exp(delta·A) and
    B_bar = A^{-1}(exp(delta·A) − I)·B, the closed-form integral of the hold,
    entrywise on the diagonal, with its limit delta·B where |delta·a| is tiny.
    """
    if delta <= 0:
        raise DomainError(f"timescale must be positive, got {delta}")
    a = params.a.data
    da = delta * a
    scale = np.full_like(a, delta)  # (exp(delta*a) - 1) / a, or its limit delta
    big = np.abs(da) >= _ZOH_SERIES_THRESHOLD
    scale[big] = np.expm1(da[big]) / a[big]
    return DiscreteSSM(
        a_bar=Tensor(np.exp(da)),
        b_bar=Tensor(scale[:, None] * params.b.data),
        c=params.c,
        d=params.d,
        delta=float(delta),
        state_dim=params.state_dim,
    )


def selective_zoh(delta: Tensor, a: Tensor, b: Tensor, x: Tensor):
    """Per-step zero-order-hold terms of a selective scan, broadcast over the
    operands: a_bar = exp(delta*a) and u = (a_bar - 1)/a * b * x.

    This is the exact hold integral with no series guard; selective state
    matrices are strictly negative by construction, so a == 0 never occurs.

    Each output is one graph node whose backward keeps only its operands:
    the full-size intermediates of u are recomputed there, in the forward's
    op order, so neither outputs nor gradients differ from the generic-op
    chain they replace.
    """
    delta, a, b, x = _wrap(delta), _wrap(a), _wrap(b), _wrap(x)
    a_bar_data = np.exp(delta.data * a.data)

    def a_bar_grad(g):
        gz = g * a_bar_data
        return _unbroadcast(gz * a.data, delta.shape), _unbroadcast(gz * delta.data, a.shape)

    a_bar = _node(a_bar_data, (delta, a), a_bar_grad)
    u_data = (a_bar_data - 1.0) / a.data * b.data * x.data

    def u_grad(g):
        ab, av, bv, xv = a_bar.data, a.data, b.data, x.data
        p = ab - 1.0
        q = p / av
        gx = _unbroadcast(g * (q * bv), xv.shape)
        g = g * xv
        gb = _unbroadcast(g * q, bv.shape)
        g = g * bv
        ga = _unbroadcast(-g * p / (av * av), av.shape)
        return _unbroadcast(g / av, ab.shape), ga, gb, gx

    return a_bar, _node(u_data, (a_bar, a, b, x), u_grad)


def selective_readout(h: Tensor, c: Tensor, axis: int) -> Tensor:
    """Scan output contraction (h * c).sum(axis) as one graph node.

    Backward reads ``h`` and ``c`` only; ``h`` is the recurrence's own
    output, so the node keeps no array of its own beyond the result.
    """
    h, c = _wrap(h), _wrap(c)
    data = (h.data * c.data).sum(axis=axis)

    def grad_fn(g):
        g = np.expand_dims(g, axis)
        return _unbroadcast(g * c.data, h.shape), _unbroadcast(g * h.data, c.shape)

    return _node(data, (h, c), grad_fn)


# ---------------------------------------------------------------------------
# recurrence kernels (data-level, no autodiff)
# ---------------------------------------------------------------------------


def sequential_recurrence_data(a: np.ndarray, u: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Exact left-to-right evaluation of h_t = a_t * h_{t-1} + u_t on (L, n),
    h_{-1} = 0, each step written in place into the output.

    ``reverse`` evaluates the adjoint s_t = a_{t+1} * s_{t+1} + u_t right to
    left instead, from s_L = 0, reading ``a`` one step ahead.
    """
    L, n = a.shape
    out = np.empty((L, n))
    if L == 0:
        return out
    # row views made once: indexing a, u and out afresh at every step costs
    # more than the step's two ufunc calls at a few hundred lanes
    if reverse:
        out[L - 1] = u[L - 1]
        for a_next, s_next, u_t, s_t in zip(a[:0:-1], out[:0:-1], u[-2::-1], out[-2::-1]):
            np.multiply(a_next, s_next, out=s_t)
            s_t += u_t
        return out
    np.multiply(a[0], 0.0, out=out[0])
    out[0] += u[0]
    for a_t, h_prev, u_t, h_t in zip(a[1:], out, u[1:], out[1:]):
        np.multiply(a_t, h_prev, out=h_t)
        h_t += u_t
    return out


def parallel_recurrence_data(a: np.ndarray, u: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Work-efficient (up-sweep/down-sweep) prefix scan over (L, n) lanes.

    Pads to the next power of two with the monoid identity (1, 0), reduces
    pairwise to the root, then walks back down distributing exclusive
    prefixes; the final inclusive value is prefix ∘ element.  ``reverse``
    evaluates the adjoint of :func:`sequential_recurrence_data` by filling
    the padded lanes in reversed time order.
    """
    L, n = a.shape
    if L == 0:
        return np.empty((0, n))
    P = 1 << (L - 1).bit_length() if L > 1 else 1
    A = np.ones((P, n))
    U = np.zeros((P, n))
    if reverse:
        A[1:L] = a[:0:-1]
        U[:L] = u[::-1]
    else:
        A[:L] = a
        U[:L] = u

    levels = []
    Ak, Uk = A, U
    while Ak.shape[0] > 1:
        levels.append((Ak, Uk))
        Ae, Ue = Ak[0::2], Uk[0::2]
        Ao, Uo = Ak[1::2], Uk[1::2]
        Ak = Ao * Ae
        Uk = Ao * Ue + Uo

    pa = np.ones((1, n))
    pu = np.zeros((1, n))
    for Ak, Uk in reversed(levels):
        m = Ak.shape[0]
        Ae, Ue = Ak[0::2], Uk[0::2]
        npa = np.empty((m, n))
        npu = np.empty((m, n))
        npa[0::2] = pa
        npu[0::2] = pu
        npa[1::2] = pa * Ae
        npu[1::2] = Ae * pu + Ue
        pa, pu = npa, npu

    out = (A * pu + U)[:L]
    return out[::-1].copy() if reverse else out


_RECURRENCE_KERNELS = {
    "sequential": sequential_recurrence_data,
    "parallel": parallel_recurrence_data,
}


def linear_recurrence(a: Tensor, u: Tensor, mode: str = "parallel") -> Tensor:
    """Differentiable h_t = a_t ⊙ h_{t-1} + u_t over (L, n) lanes, h_{-1} = 0.

    ``mode`` picks the evaluation kernel ("sequential" or "parallel").  The
    backward pass is the same kernel's adjoint recurrence
    s_t = g_t + a_{t+1} ⊙ s_{t+1}, with du = s and da_t = s_t ⊙ h_{t-1}.
    """
    a, u = _wrap(a), _wrap(u)
    if a.shape != u.shape or a.data.ndim != 2:
        raise DimensionError("linear_recurrence expects matching (L, n) operands")
    kernel = _RECURRENCE_KERNELS[mode]
    h = kernel(a.data, u.data)

    def grad_fn(g):
        s = kernel(a.data, g, reverse=True)
        da = np.empty_like(s)
        np.multiply(s[:1], 0.0, out=da[:1])  # h_{-1} = 0
        np.multiply(s[1:], h[:-1], out=da[1:])
        return da, s

    return _node(h, (a, u), grad_fn)


# ---------------------------------------------------------------------------
# public scan operations (SISO view: scalar input/output per timestep)
# ---------------------------------------------------------------------------


def _check_signal(x: Tensor) -> Tensor:
    x = _wrap(x)
    if x.data.ndim != 1:
        raise DimensionError("scan input must be a rank-1 sequence")
    return x


def _per_step_terms(ssm: DiscreteSSM | SelectiveParams, x: Tensor):
    """Per-step (a_t, u_t) lanes plus the output contraction pieces."""
    L = x.shape[0]
    if isinstance(ssm, SelectiveParams):
        if ssm.length != L:
            raise DimensionError(
                f"selective parameters cover {ssm.length} steps, input has {L}"
            )
        a_bar, u = selective_zoh(
            ssm.delta_t.reshape(L, 1), ssm.a_diag.reshape(1, ssm.state_dim),
            ssm.b_t, x.reshape(L, 1),
        )
        return a_bar, u, ssm.c_t, ssm.d
    d = ssm.state_dim
    ones = np.ones((L, 1))
    a_bar = ssm.a_bar.reshape(1, d) * Tensor(ones)
    u = x.reshape(L, 1) * ssm.b_bar.reshape(1, d)
    c_t = ssm.c.reshape(1, d) * Tensor(ones)
    return a_bar, u, c_t, ssm.d


def _scan(ssm, x, mode: str) -> Tensor:
    x = _check_signal(x)
    if x.shape[0] == 0:
        return Tensor(np.empty(0))
    a_bar, u, c_t, skip = _per_step_terms(ssm, x)
    h = linear_recurrence(a_bar, u, mode=mode)
    return selective_readout(h, c_t, axis=1) + x * float(skip)


def scan_sequential(ssm: DiscreteSSM | SelectiveParams, x: Tensor) -> Tensor:
    """Exact left-to-right recurrence from a zero initial state."""
    return _scan(ssm, x, "sequential")


def scan_parallel(ssm: DiscreteSSM | SelectiveParams, x: Tensor) -> Tensor:
    """Parallel prefix-scan evaluation; output matches the sequential scan."""
    return _scan(ssm, x, "parallel")


def causal_convolve(x: Tensor, kernel: Tensor) -> Tensor:
    """y_t = sum_{j<=t} kernel_j * x_{t-j} for two length-L sequences."""
    x, kernel = _wrap(x), _wrap(kernel)
    L = x.shape[0]
    if kernel.shape != (L,):
        raise DimensionError("kernel length must match the sequence length")
    data = np.convolve(x.data, kernel.data, mode="full")[:L]

    def grad_fn(g):
        gx = np.correlate(g, kernel.data, mode="full")[L - 1 :]
        gk = np.correlate(g, x.data, mode="full")[L - 1 :]
        return np.ascontiguousarray(gx), np.ascontiguousarray(gk)

    return _node(data, (x, kernel), grad_fn)


def geometric_powers(a: Tensor, L: int) -> Tensor:
    """Stack (a^0, a^1, ..., a^{L-1}) for a rank-1 ``a``, shape (L, d)."""
    a = _wrap(a)
    d = a.shape[0]
    data = np.ones((L, d))
    if L > 1:
        data[1:] = np.cumprod(np.broadcast_to(a.data, (L - 1, d)), axis=0)

    def grad_fn(g):
        # d(a^j)/da = j * a^{j-1}, which is j * data[j-1]
        if L <= 1:
            return (np.zeros(d),)
        j = np.arange(1, L, dtype=np.float64)[:, None]
        return ((g[1:] * j * data[:-1]).sum(axis=0),)

    return _node(data, (a,), grad_fn)


def lti_kernel(ssm: DiscreteSSM, L: int) -> Tensor:
    """Convolution kernel K_j = C A_bar^j B_bar for j = 0..L-1."""
    d = ssm.state_dim
    powers = geometric_powers(ssm.a_bar, L)
    weights = ssm.c.reshape(d, 1) * ssm.b_bar.reshape(d, 1)
    return matmul(powers, weights).reshape(L)


def scan_convolutional(ssm: DiscreteSSM, x: Tensor) -> Tensor:
    """Causal convolution with K = (C B_bar, C A_bar B_bar, ...), LTI only."""
    if isinstance(ssm, SelectiveParams):
        raise ContractError("convolutional scan is LTI only")
    x = _check_signal(x)
    L = x.shape[0]
    if L == 0:
        return Tensor(np.empty(0))
    return causal_convolve(x, lti_kernel(ssm, L)) + x * float(ssm.d)


# ---------------------------------------------------------------------------
# selective parameterization
# ---------------------------------------------------------------------------


def selective_parameterize(
    x: Tensor, head: SelectiveHead, a_diag: Tensor, d: float
) -> SelectiveParams:
    """Input-dependent B_t, C_t and delta_t = softplus(proj(x_t) + bias).

    ``x`` is the (L, C_feat) feature sequence driving the parameters; the
    softplus keeps every timescale strictly positive while letting gradients
    reach all projection weights.
    """
    x = _wrap(x)
    if x.data.ndim != 2:
        raise DimensionError("selective_parameterize expects (L, C_feat) features")
    b_t = matmul(x, head.w_b)
    c_t = matmul(x, head.w_c)
    delta_t = softplus(matmul(x, head.w_delta) + head.b_delta).reshape(x.shape[0])
    return SelectiveParams(b_t=b_t, c_t=c_t, delta_t=delta_t, a_diag=_wrap(a_diag), d=float(d))
