"""VSS block: residual structure, identity at init, gradient flow."""

import numpy as np
import pytest

import vssenhance.tensor as T
from vssenhance.tensor import DimensionError, Tensor, gelu, matmul
from vssenhance.vss import VSSBlock

from helpers import check_gradients, graph_kinds


@pytest.fixture
def rng():
    return np.random.default_rng(2718)


def randomize_projections(block, rng):
    """Blocks are identity at init; give the zero-initialized tails weight."""
    block.scan_project.weight.data = rng.normal(0, 0.3, size=block.scan_project.weight.shape)
    block.scan_project.bias.data = rng.normal(0, 0.1, size=block.scan_project.bias.shape)
    block.ffn.project.weight.data = rng.normal(0, 0.3, size=block.ffn.project.weight.shape)
    block.ffn.project.bias.data = rng.normal(0, 0.1, size=block.ffn.project.bias.shape)


class TestVSSForward:
    def test_identity_at_init_bitwise(self, rng):
        block = VSSBlock(channels=4, state_dim=3, rng=rng)
        x = rng.normal(size=(3 * 5, 4))
        out = block(Tensor(x), 3, 5)
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
        out = block(Tensor(np.zeros((16, 3))), 4, 4)
        assert np.array_equal(out.data, np.zeros((16, 3)))

    def test_shape_preserved(self, rng):
        block = VSSBlock(channels=2, state_dim=2, rng=rng)
        randomize_projections(block, rng)
        for H, W in [(1, 1), (5, 3), (2, 7)]:
            out = block(Tensor(rng.normal(size=(H * W, 2))), H, W)
            assert out.shape == (H * W, 2)

    def test_channel_mismatch_rejected(self, rng):
        block = VSSBlock(channels=4, state_dim=2, rng=rng)
        with pytest.raises(DimensionError, match=r"expects \(4, 4\) tokens"):
            block(Tensor(np.zeros((4, 3))), 2, 2)

    def test_non_grid_input_rejected(self, rng, monkeypatch):
        # a (C, H, W) map, tokens of another grid, and an empty grid; each is
        # rejected before any op runs
        block = VSSBlock(channels=4, state_dim=2, rng=rng)
        monkeypatch.setattr(T, "layer_norm", None)
        for x, H, W in [(np.zeros((4, 2, 2)), 2, 2), (np.zeros((6, 4)), 2, 2),
                        (np.zeros((0, 4)), 0, 3)]:
            with pytest.raises(DimensionError, match="tokens for a"):
                block(Tensor(x), H, W)

    def test_no_layout_change_inside_a_block(self, rng, monkeypatch):
        # blocks take and return tokens; a stage changes layout at its edges
        block = VSSBlock(channels=3, state_dim=2, rng=rng)
        calls = []
        transpose = T.transpose
        monkeypatch.setattr(
            T, "transpose", lambda a, *axes: calls.append(axes) or transpose(a, *axes)
        )
        out = block(Tensor(rng.normal(size=(20, 3)), requires_grad=True), 4, 5)
        (out * out).sum().backward()
        assert calls == []

    def test_matches_manual_composition(self, rng):
        # the four sub-operations applied one by one, sharing the block weights
        C, H, W = 4, 2, 2
        block = VSSBlock(channels=C, state_dim=2, rng=rng)
        randomize_projections(block, rng)
        x = rng.normal(size=(H * W, C))
        out = block(Tensor(x), H, W).data

        tokens = Tensor(x)
        normed = block.norm1(tokens)
        scanned = block.ss2d(normed, H, W)
        mid = matmul(scanned, block.scan_project.weight) + block.scan_project.bias + tokens
        normed2 = block.norm2(mid)
        hidden = gelu(matmul(normed2, block.ffn.expand.weight) + block.ffn.expand.bias)
        final = matmul(hidden, block.ffn.project.weight) + block.ffn.project.bias + mid
        assert np.abs(out - final.data).max() < 1e-12

    def test_residuals_add_inside_the_output_projections(self, rng, monkeypatch):
        # each branch's output projection is the node that adds its residual,
        # so the graph keeps no separate projection output and has no add
        # node; the feedforward branch is one recompute node whose rebuilt
        # subgraph holds the same structure
        C, H, W = 3, 4, 5
        block = VSSBlock(channels=C, state_dim=2, rng=rng)
        randomize_projections(block, rng)
        f = Tensor(rng.normal(size=(H * W, C)), requires_grad=True)
        out = block(f, H, W)
        exit_node = out  # the feedforward branch's recompute node
        ffn_params = (block.ffn.project.weight, block.ffn.project.bias)
        mid = exit_node._parents[0]
        assert exit_node._parents[1:] == (block.norm2.gamma, block.norm2.beta,
                                          block.ffn.expand.weight, block.ffn.expand.bias,
                                          *ffn_params)
        assert mid._parents[1:3] == (block.scan_project.weight, block.scan_project.bias)
        assert "add" not in graph_kinds(out)

        rebuilt = []
        walk = T._walk

        def spy(root, g, leaf):
            if root is not loss:  # the FFN's rebuilt subgraph, rooted at its projection
                rebuilt.append(root)
                assert root._grad_fn.__qualname__.startswith("matmul")
                assert root._parents[1:3] == ffn_params
                assert root._parents[3]._grad_fn is None  # a leaf over mid's data
                assert np.shares_memory(root._parents[3].data, mid.data)
                assert "add" not in graph_kinds(root)
            return walk(root, g, leaf)

        loss = (out * out).sum()
        monkeypatch.setattr(T, "_walk", spy)
        loss.backward()
        assert len(rebuilt) == 1

    def test_gradients(self, rng):
        C, H, W = 4, 2, 3
        block = VSSBlock(channels=C, state_dim=2, rng=rng)
        randomize_projections(block, rng)
        x = rng.normal(size=(H * W, C))
        mix = rng.normal(size=(H * W, C))
        arrays = [x] + [p.data.copy() for p in block.parameters()]

        def loss(ts):
            probe = VSSBlock(channels=C, state_dim=2, rng=np.random.default_rng(0))
            for (name, _), t in zip(probe.named_parameters(), ts[1:]):
                obj = probe
                *path, leafname = name.split(".")
                for part in path:
                    obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
                setattr(obj, leafname, t)
            return (probe(ts[0], H, W) * Tensor(mix)).sum()

        check_gradients(loss, arrays, rtol=1e-4)

    def test_gradient_reaches_all_parameters(self, rng):
        block = VSSBlock(channels=3, state_dim=2, rng=rng)
        randomize_projections(block, rng)
        f = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
        out = block(f, 3, 3)
        (out * out).sum().backward()
        for name, p in block.named_parameters():
            assert p.grad is not None, name
