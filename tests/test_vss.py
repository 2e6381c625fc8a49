"""VSS block: residual structure, identity at init, gradient flow."""

import numpy as np
import pytest

import vssenhance.tensor as T
from vssenhance.tensor import DimensionError, Tensor, gelu, matmul
from vssenhance.vss import VSSBlock, vss_forward

from helpers import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(2718)


def node_kinds(root):
    """The op names of the interior nodes of the graph under ``root``."""
    kinds, seen, stack = set(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._grad_fn is None:
            continue
        seen.add(id(node))
        kinds.add(node._grad_fn.__qualname__.split(".")[0])
        stack.extend(node._parents)
    return kinds


def randomize_projections(block, rng):
    """Blocks are identity at init; give the zero-initialized tails weight."""
    block.scan_project.weight.data = rng.normal(0, 0.3, size=block.scan_project.weight.shape)
    block.scan_project.bias.data = rng.normal(0, 0.1, size=block.scan_project.bias.shape)
    block.ffn.project.weight.data = rng.normal(0, 0.3, size=block.ffn.project.weight.shape)
    block.ffn.project.bias.data = rng.normal(0, 0.1, size=block.ffn.project.bias.shape)


class TestVSSForward:
    def test_identity_at_init_bitwise(self, rng):
        block = VSSBlock(channels=4, state_dim=3, rng=rng)
        x = rng.normal(size=(4, 3, 5))
        out = vss_forward(Tensor(x), block)
        assert np.array_equal(out.data, x)

    def test_zero_input_zero_output(self, rng):
        block = VSSBlock(channels=3, state_dim=2, rng=rng)
        randomize_projections(block, rng)
        # zero out the affine shifts so zeros stay zeros end to end
        block.norm1.beta.data[:] = 0.0
        block.norm2.beta.data[:] = 0.0
        block.ffn.expand.bias.data[:] = 0.0
        block.ffn.project.bias.data[:] = 0.0
        block.scan_project.bias.data[:] = 0.0
        out = vss_forward(Tensor(np.zeros((3, 4, 4))), block)
        assert np.array_equal(out.data, np.zeros((3, 4, 4)))

    def test_shape_preserved(self, rng):
        block = VSSBlock(channels=2, state_dim=2, rng=rng)
        randomize_projections(block, rng)
        for shape in [(2, 1, 1), (2, 5, 3), (2, 2, 7)]:
            out = vss_forward(Tensor(rng.normal(size=shape)), block)
            assert out.shape == shape

    def test_channel_mismatch_rejected(self, rng):
        block = VSSBlock(channels=4, state_dim=2, rng=rng)
        with pytest.raises(DimensionError):
            vss_forward(Tensor(np.zeros((3, 2, 2))), block)

    def test_non_grid_input_rejected(self, rng):
        block = VSSBlock(channels=4, state_dim=2, rng=rng)
        with pytest.raises(DimensionError):
            vss_forward(Tensor(np.zeros((4, 4))), block)  # tokens, not a grid

    def test_one_layout_change_each_way(self, rng, monkeypatch):
        # grid -> tokens on entry, tokens -> grid on exit, nothing in between
        block = VSSBlock(channels=3, state_dim=2, rng=rng)
        calls = []
        transpose = T.transpose
        monkeypatch.setattr(
            T, "transpose", lambda a, *axes: calls.append(axes) or transpose(a, *axes)
        )
        vss_forward(Tensor(rng.normal(size=(3, 4, 5))), block)
        assert len(calls) == 2

    def test_matches_manual_composition(self, rng):
        # the four sub-operations applied one by one, sharing the block weights
        C, H, W = 4, 2, 2
        block = VSSBlock(channels=C, state_dim=2, rng=rng)
        randomize_projections(block, rng)
        x = rng.normal(size=(C, H, W))
        out = vss_forward(Tensor(x), block).data

        tokens = Tensor(x.reshape(C, H * W).T)
        normed = block.norm1(tokens)
        scanned = block.ss2d(normed, H, W)
        mid = matmul(scanned, block.scan_project.weight) + block.scan_project.bias + tokens
        normed2 = block.norm2(mid)
        hidden = gelu(matmul(normed2, block.ffn.expand.weight) + block.ffn.expand.bias)
        final = matmul(hidden, block.ffn.project.weight) + block.ffn.project.bias + mid
        expected = final.data.T.reshape(C, H, W)
        assert np.abs(out - expected).max() < 1e-12

    def test_residuals_add_inside_the_output_projections(self, rng, monkeypatch):
        # each branch's output projection is the node that adds its residual,
        # so the graph keeps no separate projection output and has no add
        # node; the feedforward branch is one recompute node whose rebuilt
        # subgraph holds the same structure
        C, H, W = 3, 4, 5
        block = VSSBlock(channels=C, state_dim=2, rng=rng)
        randomize_projections(block, rng)
        f = Tensor(rng.normal(size=(C, H, W)), requires_grad=True)
        out = vss_forward(f, block)
        exit_node = out._parents[0]._parents[0]  # the transpose's input
        ffn_params = (block.ffn.project.weight, block.ffn.project.bias)
        mid = exit_node._parents[0]
        assert exit_node._parents[1:] == (block.norm2.gamma, block.norm2.beta,
                                          block.ffn.expand.weight, block.ffn.expand.bias,
                                          *ffn_params)
        assert mid._parents[1:3] == (block.scan_project.weight, block.scan_project.bias)
        assert "add" not in node_kinds(out)

        rebuilt = []
        walk = T._walk

        def spy(root, g, leaf):
            if root is not loss:  # the FFN's rebuilt subgraph, rooted at its projection
                rebuilt.append(root)
                assert root._grad_fn.__qualname__.startswith("matmul")
                assert root._parents[1:3] == ffn_params
                assert root._parents[3]._grad_fn is None  # a leaf over mid's data
                assert np.shares_memory(root._parents[3].data, mid.data)
                assert "add" not in node_kinds(root)
            return walk(root, g, leaf)

        loss = (out * out).sum()
        monkeypatch.setattr(T, "_walk", spy)
        loss.backward()
        assert len(rebuilt) == 1

    def test_gradients(self, rng):
        C, H, W = 4, 2, 3
        block = VSSBlock(channels=C, state_dim=2, rng=rng)
        randomize_projections(block, rng)
        x = rng.normal(size=(C, H, W))
        mix = rng.normal(size=(C, H, W))
        arrays = [x] + [p.data.copy() for p in block.parameters()]

        def loss(ts):
            probe = VSSBlock(channels=C, state_dim=2, rng=np.random.default_rng(0))
            for (name, _), t in zip(probe.named_parameters(), ts[1:]):
                obj = probe
                *path, leafname = name.split(".")
                for part in path:
                    obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
                setattr(obj, leafname, t)
            return (vss_forward(ts[0], probe) * Tensor(mix)).sum()

        check_gradients(loss, arrays, rtol=1e-4)

    def test_gradient_reaches_all_parameters(self, rng):
        block = VSSBlock(channels=3, state_dim=2, rng=rng)
        randomize_projections(block, rng)
        f = Tensor(rng.normal(size=(3, 3, 3)), requires_grad=True)
        out = vss_forward(f, block)
        (out * out).sum().backward()
        for name, p in block.named_parameters():
            assert p.grad is not None, name
