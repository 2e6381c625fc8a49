"""Shared test utilities: the central finite-difference gradient oracle."""

from collections import Counter

import numpy as np

from vssenhance.ss2d import SS2D
from vssenhance.tensor import Tensor


def finite_difference(fn, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    x = np.array(x, dtype=np.float64)  # never perturb the caller's array
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def check_gradients(build_loss, arrays, rtol=1e-4, step=1e-6, atol=1e-7):
    """Compare reverse-mode gradients of ``build_loss`` against central differences.

    ``build_loss`` maps a list of numpy arrays to a scalar Tensor; it must be
    a pure function of those arrays.  Returns the worst relative error seen.
    """
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(leaves)
    loss.backward()
    worst = 0.0
    for j, leaf in enumerate(leaves):
        assert leaf.grad is not None, f"input {j} received no gradient"

        def scalar_fn(x, j=j):
            probe = [a.copy() for a in arrays]
            probe[j] = x
            return build_loss([Tensor(p) for p in probe]).item()

        fd = finite_difference(scalar_fn, arrays[j], step=step)
        scale = max(np.abs(leaf.grad).max(), np.abs(fd).max(), 1e-8)
        diff = np.abs(leaf.grad - fd).max()
        err = diff / scale
        worst = max(worst, err)
        assert diff <= rtol * scale + atol, (
            f"input {j}: analytic vs finite-difference relative error {err:.3e} "
            f"exceeds {rtol:.1e}"
        )
    return worst


def perturbed(module, rng, head_gain=8.0):
    """``module`` with every parameter jittered by 10% and the zero-initialized
    ones drawn, as a trained model's would be; ``head_gain`` sets the offset
    heads so that samples move by about a pixel (fractional offsets)."""
    for name, p in module.named_parameters():
        if np.any(p.data):
            p.data = p.data * (1.0 + 0.1 * rng.standard_normal(p.shape))
        elif p.ndim == 1:
            p.data = rng.normal(0.0, 0.02, size=p.shape)
        else:
            gain = head_gain if "head" in name else 0.3
            p.data = rng.normal(0.0, gain / np.sqrt(np.prod(p.shape[1:])), size=p.shape)
    return module


def with_parameters(ts, C, d):
    """An SS2D whose 18 parameters are the Tensors ``ts``, in
    ``named_parameters`` order."""
    probe = SS2D(channels=C, state_dim=d, rng=np.random.default_rng(0))
    it = iter(ts)
    for head in probe.heads:
        head.w_b, head.w_c, head.w_delta, head.b_delta = (next(it) for _ in range(4))
    probe.a_log, probe.skip = next(it), next(it)
    return probe


def graph_kinds(root: Tensor) -> Counter:
    """How many interior nodes of each op the graph under ``root`` holds."""
    kinds, seen, stack = Counter(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._grad_fn is None:
            continue
        seen.add(id(node))
        kinds[node._grad_fn.__qualname__.split(".")[0]] += 1
        stack.extend(node._parents)
    return kinds


def retained_arrays(root: Tensor) -> list:
    """Arrays the autograd graph under ``root`` keeps alive for backward.

    Walks the interior nodes and collects their outputs plus the arrays their
    backward closures capture (directly, or inside lists/tuples/closures),
    each memory buffer once; leaf storage (parameters, inputs) is excluded.
    """
    seen, stack, interior, leaves = set(), [root], [], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._grad_fn is None:
            leaves.add(id(_owner(node.data)))
            continue
        interior.append(node)
        stack.extend(node._parents)

    buffers = {}

    def collect(obj, depth):
        if isinstance(obj, np.ndarray):
            owner = _owner(obj)
            buffers[id(owner)] = owner
        elif depth < 4 and isinstance(obj, (list, tuple)):
            for item in obj:
                collect(item, depth + 1)
        elif depth < 4 and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    contents = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                collect(contents, depth + 1)

    for node in interior:
        collect(node.data, 0)
        collect(node._grad_fn, 0)
    return [b for k, b in buffers.items() if k not in leaves]


def _owner(arr: np.ndarray) -> np.ndarray:
    return arr.base if isinstance(arr.base, np.ndarray) else arr


def assert_matches_composition(fused, unfused, arrays, rtol=1e-12):
    """``fused`` and ``unfused`` each map leaf Tensors made from ``arrays`` to
    one output.  Assert the outputs are bitwise equal and the gradients of a
    fixed random projection of them agree within ``rtol`` relative."""
    outs, grads = [], []
    for build in (fused, unfused):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = build(leaves)
        mix = np.random.default_rng(7).normal(size=out.shape)
        (out * Tensor(mix)).sum().backward()
        outs.append(out.data)
        grads.append([leaf.grad for leaf in leaves])
    assert np.array_equal(outs[0], outs[1])
    for j, (got, want) in enumerate(zip(*grads)):
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(got - want).max() <= rtol * scale, f"input {j}"
