"""Directional unfolding, merging, and the fused 2D selective scan."""

from contextlib import nullcontext

import numpy as np
import pytest

import vssenhance.ss2d as ss2d_module
from vssenhance.layers import MANIFEST_NAME, load_checkpoint
from vssenhance.ss2d import (
    DELTA_FLOOR,
    DIRECTIONS,
    SCAN_CHUNK,
    SCAN_PIECE,
    SS2D,
    _head_projection,
    _head_projection_bwd,
    cross_merge,
    cross_scan,
    linear_recurrence,
    sequential_recurrence_data,
    traversal_permutations,
)
from vssenhance.tensor import (
    DimensionError,
    Tensor,
    gather_rows,
    matmul,
    no_grad,
    save_tensor,
    softplus,
    stack,
)

from helpers import (
    assert_matches_composition,
    check_gradients,
    finite_difference,
    perturbed,
    retained_arrays,
    with_parameters,
)


@pytest.fixture
def rng():
    return np.random.default_rng(31337)


def tokens(grid) -> tuple[Tensor, int, int]:
    """(C, H, W) or (H, W) values -> row-major (H*W, C) tokens plus H, W."""
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    C, H, W = arr.shape
    return Tensor(arr.reshape(C, H * W).T), H, W


def directions(stack: Tensor) -> list[np.ndarray]:
    """The (L, C) sequences of an (L, 4, C) stack, in ``DIRECTIONS`` order."""
    return [stack.data[:, r] for r in range(len(DIRECTIONS))]


class TestCrossScan:
    def test_two_by_two(self):
        seqs = cross_scan(*tokens([[1.0, 2.0], [3.0, 4.0]]))  # p00..p11 = 1..4
        assert seqs.shape == (4, 4, 1)
        lr, td, rl, dt = directions(seqs)
        assert lr[:, 0].tolist() == [1, 2, 3, 4]
        assert td[:, 0].tolist() == [1, 3, 2, 4]
        assert rl[:, 0].tolist() == [4, 3, 2, 1]
        assert dt[:, 0].tolist() == [4, 2, 3, 1]

    def test_single_cell(self):
        seqs = cross_scan(*tokens([[7.0]]))
        assert seqs.data.tolist() == [[[7.0]] * 4]

    def test_single_row(self, rng):
        row = rng.normal(size=(1, 1, 5))
        lr, td, rl, dt = directions(cross_scan(*tokens(row)))
        assert np.array_equal(lr[:, 0], row[0, 0])
        assert np.array_equal(td, lr)
        assert np.array_equal(rl[:, 0], row[0, 0][::-1])
        assert np.array_equal(dt, rl)

    def test_reversal_structure(self, rng):
        lr, td, rl, dt = directions(cross_scan(*tokens(rng.normal(size=(3, 4, 6)))))
        assert np.array_equal(rl, lr[::-1])
        assert np.array_equal(dt, td[::-1])

    def test_sequences_are_copies(self, rng):
        tok, H, W = tokens(rng.normal(size=(2, 3, 3)))
        seqs = cross_scan(tok, H, W)
        seqs.data[0, 0, 0] = 1e9
        assert tok.data[0, 0] != 1e9

    def test_token_count_must_match_grid(self, rng):
        tok = Tensor(rng.normal(size=(6, 2)))
        with pytest.raises(DimensionError):
            cross_scan(tok, 2, 2)
        with pytest.raises(DimensionError):
            cross_scan(Tensor(rng.normal(size=(2, 2, 3))), 2, 3)  # a grid, not tokens

    def test_permutations_are_bijections(self):
        for H in range(1, 17):
            for W in range(1, 17):
                perm = traversal_permutations(H, W)
                assert perm.shape == (H * W, len(DIRECTIONS))
                for r in range(len(DIRECTIONS)):
                    assert np.array_equal(np.sort(perm[:, r]), np.arange(H * W))

    def test_permutations_are_cached_read_only(self):
        perm = traversal_permutations(3, 5)
        assert traversal_permutations(3, 5) is perm
        with pytest.raises(ValueError):
            perm[0, 0] = 1

    def test_horizontal_flip_equivariance_index_level(self):
        H, W = 5, 7
        idx = np.arange(H * W).reshape(H, W)
        flipped = idx[:, ::-1]
        lr_of_flip = flipped.reshape(-1)
        rowwise_reversed_lr = idx.reshape(H, W)[:, ::-1].reshape(-1)
        assert np.array_equal(lr_of_flip, rowwise_reversed_lr)


class TestCrossMerge:
    def test_identity_processing_is_four_times_input(self, rng):
        tok, H, W = tokens(rng.normal(size=(3, 3, 3)))
        out = cross_merge(cross_scan(tok, H, W), H, W)
        assert np.array_equal(out.data, 4.0 * tok.data)

    def test_single_branch_passthrough(self, rng):
        tok, H, W = tokens(rng.normal(size=(2, 2, 3)))
        seqs = cross_scan(tok, H, W).data.copy()
        seqs[:, 1:] = 0.0  # keep the lr sequence only
        out = cross_merge(Tensor(seqs), H, W)
        assert np.allclose(out.data, tok.data)

    def test_roundtrip_by_brute_force_enumeration(self, rng):
        # independently scatter each traversal with explicit python loops
        H, W, C = 3, 3, 2
        f = rng.normal(size=(C, H, W))
        out = cross_merge(cross_scan(*tokens(f)), H, W).data.T.reshape(C, H, W)
        expected = np.zeros_like(f)
        orders = {
            "lr": [(r, c) for r in range(H) for c in range(W)],
            "td": [(r, c) for c in range(W) for r in range(H)],
        }
        orders["rl"] = orders["lr"][::-1]
        orders["dt"] = orders["td"][::-1]
        for order in orders.values():
            seq = [f[:, r, c] for (r, c) in order]
            for (r, c), v in zip(order, seq):
                expected[:, r, c] += v
        assert np.array_equal(out, expected)

    def test_length_mismatch_rejected(self, rng):
        seqs = cross_scan(*tokens(rng.normal(size=(1, 2, 2))))
        with pytest.raises(DimensionError):
            cross_merge(Tensor(np.zeros((3, 4, 1))), 2, 2)
        with pytest.raises(DimensionError):  # three directions
            cross_merge(Tensor(seqs.data[:, :3]), 2, 2)
        with pytest.raises(DimensionError):  # one direction's (L, C) sequence
            cross_merge(Tensor(seqs.data[:, 0]), 2, 2)

    def test_gradients(self, rng):
        H, W, C = 2, 3, 2
        mix = Tensor(rng.normal(size=(H * W, C)))
        check_gradients(lambda ts: (cross_merge(ts[0], H, W) * mix).sum(),
                        [rng.normal(size=(H * W, 4, C))])


class TestStepRanges:
    """``cross_scan`` and ``cross_merge`` on a range of sequence steps: the
    pieces the SS2D forward streams."""

    H, W, C = 3, 5, 2
    PIECES = (slice(0, 4), slice(4, 8), slice(8, 15))

    def test_pieces_rebuild_the_stack_and_the_merge(self, rng):
        tok, H, W = tokens(rng.normal(size=(self.C, self.H, self.W)))
        whole = cross_scan(tok, H, W).data
        pieces = [cross_scan(tok, H, W, steps).data for steps in self.PIECES]
        assert np.array_equal(np.concatenate(pieces), whole)
        y = rng.normal(size=whole.shape)
        out = np.zeros((H * W, self.C))
        for steps in self.PIECES:
            merged = cross_merge(Tensor(y[steps]), H, W, steps, out)
            assert merged.data is out
        # a token's four terms add in piece order, then direction order
        want = cross_merge(Tensor(y), H, W).data
        assert np.abs(out - want).max() <= 1e-15 * np.abs(want).max()
        # integers add exactly in any order
        ints = np.round(8 * y)
        out = np.zeros((H * W, self.C))
        for steps in self.PIECES:
            cross_merge(Tensor(ints[steps]), H, W, steps, out)
        assert np.array_equal(out, cross_merge(Tensor(ints), H, W).data)

    def test_tokens_a_piece_does_not_visit_merge_to_zero(self, rng):
        # steps 0 and 1 of a 1 x 3 grid visit tokens 0, 1 (lr, td), 2, 1 (rl, dt)
        seqs = Tensor(np.ones((2, 4, 1)))
        out = cross_merge(seqs, 1, 3, slice(0, 2)).data[:, 0]
        assert np.array_equal(out, [2.0, 4.0, 2.0])
        with pytest.raises(DimensionError):
            cross_merge(seqs, 1, 3, slice(0, 3))

    def test_gradients(self, rng):
        H, W, C = self.H, self.W, self.C
        steps = slice(3, 9)
        mix = Tensor(rng.normal(size=(6, 4, C)))
        check_gradients(lambda ts: (cross_scan(ts[0], H, W, steps) * mix).sum(),
                        [rng.normal(size=(H * W, C))])
        mix = Tensor(rng.normal(size=(H * W, C)))
        check_gradients(lambda ts: (cross_merge(ts[0], H, W, steps) * mix).sum(),
                        [rng.normal(size=(6, 4, C))])


class TestSkipMerge:
    """An ``SS2D`` call adds the skip term y + x * D and merges the four
    directions inside its one node."""

    H, W, C, D = 3, 4, 2, 2

    @staticmethod
    def unfused(y, x, skip, H, W):
        # the skip term, a slice per direction, its inverse gather, the sum
        inv = np.argsort(traversal_permutations(H, W), axis=0)
        z = y + x * skip.reshape(1, 1, -1)
        total = None
        for r in range(len(DIRECTIONS)):
            back = gather_rows(z[:, r], inv[:, r])
            total = back if total is None else total + back
        return total

    def skip_only(self, ts):
        """An SS2D call on tokens ``ts[0]`` with skip ``ts[1]`` and every C
        projection zero, so the scan reads out exactly 0."""
        weights = perturbed(SS2D(channels=self.C, state_dim=self.D,
                                 rng=np.random.default_rng(5)), np.random.default_rng(6))
        for head in weights.heads:
            head.w_c = Tensor(np.zeros_like(head.w_c.data), requires_grad=True)
        weights.skip = ts[1]
        return weights(ts[0], self.H, self.W)

    def test_matches_composition(self, rng):
        L = self.H * self.W
        assert_matches_composition(
            self.skip_only,
            lambda ts: self.unfused(Tensor(np.zeros((L, 4, self.C))),
                                    cross_scan(ts[0], self.H, self.W), ts[1], self.H, self.W),
            [rng.normal(size=(L, self.C)), rng.normal(size=self.C)],
        )

    def test_gradients(self, rng):
        mix = Tensor(rng.normal(size=(self.H * self.W, self.C)))
        check_gradients(lambda ts: (self.skip_only(ts) * mix).sum(),
                        [rng.normal(size=(self.H * self.W, self.C)), rng.normal(size=self.C)])

    def test_ss2d_keeps_no_skip_or_merge_intermediates(self, rng):
        # one node per call, whose parents are the tokens and the parameters;
        # no (L, 4, C) array is kept, and of (L, C) ones only the output
        C, H, W, d = 3, 5, 4, 2
        L = H * W
        ss2d = SS2D(channels=C, state_dim=d, rng=rng)
        f = Tensor(rng.normal(size=(L, C)), requires_grad=True)
        out = ss2d(f, H, W)
        kept = retained_arrays(out)
        assert sum(a.size == L * 4 * C for a in kept) == 0
        assert [a.size for a in kept if a.size == L * C] == [L * C]
        assert out._parents == (f, *ss2d.parameters())
        assert all(p._grad_fn is None for p in out._parents)


class TestHeadProjection:
    """B, C and delta of the (L, 4, C) stack, direction r projected by head
    r's weights, and ``_head_projection_bwd``, their adjoint."""

    @staticmethod
    def arrays(rng, L, C, n, bias):
        out = [rng.normal(size=(L, 4, C))] + [rng.normal(size=(C, n)) for _ in range(4)]
        return out + ([rng.normal(size=n) for _ in range(4)] if bias else [])

    @pytest.mark.parametrize("n, bias", [(3, False), (1, True)])
    def test_forward_bitwise_equal_to_per_direction_matmul(self, rng, n, bias):
        x, *rest = self.arrays(rng, 13, 5, n, bias)
        ws, bs = rest[:4], rest[4:]
        out = _head_projection(x, [Tensor(w) for w in ws], [Tensor(b) for b in bs])
        assert out.shape == (13, 4, n)
        for r in range(4):
            col = Tensor(np.ascontiguousarray(x[:, r]))
            want = matmul(col, Tensor(ws[r]), bias=Tensor(bs[r]) if bias else None)
            assert np.array_equal(out[:, r], want.data)

    @pytest.mark.parametrize("n, bias", [(3, False), (1, True)])
    def test_gradients(self, rng, n, bias):
        arrays = self.arrays(rng, 6, 3, n, bias)
        mix = rng.normal(size=(6, 4, n))

        def loss(arrays):
            x, *rest = arrays
            ws, bs = [Tensor(w) for w in rest[:4]], [Tensor(b) for b in rest[4:]]
            return float((_head_projection(x, ws, bs) * mix).sum())

        gx = np.zeros(arrays[0].shape)
        grads = [gx, *_head_projection_bwd(arrays[0], [Tensor(w) for w in arrays[1:5]],
                                           len(arrays) - 5, mix, gx)]
        assert len(grads) == len(arrays)
        for j, (a, got) in enumerate(zip(arrays, grads)):
            fd = finite_difference(lambda v: loss(arrays[:j] + [v] + arrays[j + 1:]), a)
            assert got.shape == a.shape
            assert np.abs(got - fd).max() <= 1e-6 * np.abs(fd).max() + 1e-9, j


class TestSS2DParameters:
    """Names, shapes and order are what checkpoints and the optimizer key on."""

    C, D = 3, 2

    def layout(self):
        head = [("w_b", (self.C, self.D)), ("w_c", (self.C, self.D)),
                ("w_delta", (self.C, 1)), ("b_delta", (1,))]
        names = [(f"heads.{r}.{k}", shape) for r in range(4) for k, shape in head]
        return names + [("a_log", (self.C, self.D)), ("skip", (self.C,))]

    def test_names_shapes_and_order_pinned(self, rng):
        ss2d = SS2D(channels=self.C, state_dim=self.D, rng=rng)
        assert [(n, p.shape) for n, p in ss2d.named_parameters()] == self.layout()

    def test_fresh_step_size_is_the_floor(self, rng):
        # delta = softplus(x·w_delta + b_delta) is DELTA_FLOOR where x·w_delta = 0
        for head in SS2D(channels=self.C, state_dim=self.D, rng=rng).heads:
            assert abs(softplus(head.b_delta).item() - DELTA_FLOOR) < 1e-15

    def test_checkpoint_in_per_head_layout_loads(self, rng, tmp_path):
        values = {name: rng.normal(size=shape) for name, shape in self.layout()}
        lines = []
        for i, (name, arr) in enumerate(values.items()):
            save_tensor(arr, tmp_path / f"{i:04d}.vsst")
            shape = ",".join(str(n) for n in arr.shape)
            lines.append(f"{name}\t{i:04d}.vsst\t{shape}\tss2d")
        (tmp_path / MANIFEST_NAME).write_text("\n".join(lines) + "\n")
        ss2d = SS2D(channels=self.C, state_dim=self.D, rng=rng)
        load_checkpoint(ss2d, tmp_path)
        for name, p in ss2d.named_parameters():
            assert np.array_equal(p.data, values[name]), name


class TestSS2DForward:
    def test_zero_input_gives_zero_output(self, rng):
        ss2d = SS2D(channels=3, state_dim=4, rng=rng)
        out = ss2d(*tokens(np.zeros((3, 4, 5))))
        assert np.array_equal(out.data, np.zeros((20, 3)))

    def test_token_count_mismatch_rejected(self, rng):
        ss2d = SS2D(channels=3, state_dim=2, rng=rng)
        with pytest.raises(DimensionError):
            ss2d(Tensor(rng.normal(size=(11, 3))), 3, 4)
        with pytest.raises(DimensionError):
            ss2d(Tensor(rng.normal(size=(0, 3))), 0, 4)

    def test_channel_mismatch_rejected(self, rng):
        ss2d = SS2D(channels=3, state_dim=2, rng=rng)
        with pytest.raises(DimensionError):
            ss2d(Tensor(rng.normal(size=(12, 4))), 3, 4)

    def test_shape_preserved(self, rng):
        for shape in [(1, 1, 1), (2, 3, 5), (4, 7, 2)]:
            ss2d = SS2D(channels=shape[0], state_dim=3, rng=rng)
            C, H, W = shape
            out = ss2d(*tokens(rng.normal(size=shape)))
            assert out.shape == (H * W, C)

    def test_single_cell_closed_form(self, rng):
        # 1x1 grid, one channel: every branch sees the same single-step scan
        ss2d = SS2D(channels=1, state_dim=2, rng=rng)
        for head in ss2d.heads[1:]:
            head.w_b.data = ss2d.heads[0].w_b.data.copy()
            head.w_c.data = ss2d.heads[0].w_c.data.copy()
            head.w_delta.data = ss2d.heads[0].w_delta.data.copy()
            head.b_delta.data = ss2d.heads[0].b_delta.data.copy()
        x = float(rng.normal())
        out = ss2d(*tokens([[[x]]])).data[0, 0]

        head = ss2d.heads[0]
        a = -np.exp(ss2d.a_log.data[0])
        b_t = x * head.w_b.data[0]
        c_t = x * head.w_c.data[0]
        delta = np.log1p(np.exp(x * head.w_delta.data[0, 0] + head.b_delta.data[0]))
        a_bar = np.exp(delta * a)
        b_bar = (a_bar - 1.0) / a * b_t
        h = b_bar * x
        branch = float(c_t @ h) + float(ss2d.skip.data[0]) * x
        assert abs(out - 4.0 * branch) < 1e-12

    def test_matches_brute_force_composition(self, rng):
        # oracle: cross_scan -> per-direction, per-channel loop of
        # h_t = exp(delta*a) h + (exp(delta*a) - 1)/a * b * x -> cross_merge
        C, H, W, d = 2, 9, 8, 3
        assert H * W > SCAN_CHUNK
        ss2d = SS2D(channels=C, state_dim=d, rng=rng)
        tok = tokens(rng.normal(size=(C, H, W)))[0]
        fused = ss2d(tok, H, W).data

        seqs = cross_scan(tok, H, W).data
        processed = np.empty_like(seqs)
        for r, head in enumerate(ss2d.heads):
            seq = seqs[:, r]
            b_t = seq @ head.w_b.data
            c_t = seq @ head.w_c.data
            delta = np.log1p(np.exp(seq @ head.w_delta.data[:, 0] + head.b_delta.data[0]))
            for ch in range(C):
                a = -np.exp(ss2d.a_log.data[ch])
                h = np.zeros(d)
                for t, x in enumerate(seq[:, ch]):
                    a_bar = np.exp(delta[t] * a)
                    h = a_bar * h + (a_bar - 1.0) / a * b_t[t] * x
                    processed[t, r, ch] = c_t[t] @ h + ss2d.skip.data[ch] * x
        expected = cross_merge(Tensor(processed), H, W).data
        assert np.abs(fused - expected).max() < 1e-10

    def test_gradients(self, rng):
        C, H, W, d = 2, 3, 3, 2
        ss2d = SS2D(channels=C, state_dim=d, rng=rng)
        x = rng.normal(size=(C, H, W))
        mix = rng.normal(size=(C, H, W))
        arrays = [x] + [p.data.copy() for p in ss2d.parameters()]

        def loss(ts):
            tok = ts[0].reshape(C, H * W).transpose(1, 0)
            out = with_parameters(ts[1:], C, d)(tok, H, W)
            out = out.transpose(1, 0).reshape(C, H, W)
            return (out * Tensor(mix)).sum()

        check_gradients(loss, arrays, rtol=1e-4)

    def test_gradient_reaches_every_head(self, rng):
        ss2d = SS2D(channels=2, state_dim=2, rng=rng)
        f = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = ss2d(f, 2, 2)
        (out * out).sum().backward()
        for name, p in ss2d.named_parameters():
            assert p.grad is not None, name
            assert np.abs(p.grad).max() > 0, name

    def test_graph_keeps_no_scan_sized_arrays(self, rng):
        # the scan node keeps its operands and one (4, C, d) state per chunk;
        # backward recomputes a_bar, u and h, so no (L, 4, C, d) array is kept
        C, H, W, d = 3, 9, 8, 2
        assert H * W > SCAN_CHUNK
        ss2d = SS2D(channels=C, state_dim=d, rng=rng)
        f = Tensor(rng.normal(size=(H * W, C)), requires_grad=True)
        kept = retained_arrays(ss2d(f, H, W).sum())
        assert sum(arr.size >= H * W * 4 * C * d for arr in kept) == 0
        assert sum(arr.shape == (4, C, d) for arr in kept) == 1  # L = 72: two chunks


def chain_ss2d(tokens, H, W, weights):
    """The unfused composition the SS2D node replaces, from public ops: the
    per-direction projections, the ZOH terms, one recurrence over all L
    steps, the readout, then the skip term and the merge."""
    seqs = cross_scan(tokens, H, W)
    L, R, C = seqs.shape
    d, heads = weights.state_dim, weights.heads
    a_neg = -weights.a_log.exp()
    pairs = [(seqs[:, r], head) for r, head in enumerate(heads)]
    b = stack([matmul(x, h.w_b) for x, h in pairs], axis=1)
    c = stack([matmul(x, h.w_c) for x, h in pairs], axis=1)
    delta = softplus(stack([matmul(x, h.w_delta, bias=h.b_delta) for x, h in pairs], axis=1))
    a_bar = (delta.reshape(L, R, 1, 1) * a_neg).exp()
    u = (a_bar - 1.0) / a_neg * b.reshape(L, R, 1, d) * seqs.reshape(L, R, C, 1)
    h = linear_recurrence(a_bar.reshape(L, R * C * d), u.reshape(L, R * C * d))
    y = (h.reshape(L, R, C, d) * c.reshape(L, R, 1, d)).sum(axis=3)
    return TestSkipMerge.unfused(y, seqs, weights.skip, H, W)


C_NODE, D_NODE = 2, 2


def node_arrays(rng, H, W, C=C_NODE, d=D_NODE):
    """Tokens of an H x W grid and a perturbed SS2D's 18 parameters."""
    ss2d = perturbed(SS2D(channels=C, state_dim=d, rng=rng), rng)
    return [rng.normal(size=(H * W, C))] + [p.data for p in ss2d.parameters()]


def node(ts, H, W):
    C, d = ts[0].shape[1], ts[1].shape[1]
    return with_parameters(ts[1:], C, d)(ts[0], H, W)


def assert_agrees_with_chain(rng, H, W, C, d):
    """The node's output and every gradient within 1e-12 relative of
    :func:`chain_ss2d`'s."""
    arrays = node_arrays(rng, H, W, C, d)
    mix = Tensor(rng.normal(size=(H * W, C)))
    results = []
    for build in (lambda ts: node(ts, H, W),
                  lambda ts: chain_ss2d(ts[0], H, W, with_parameters(ts[1:], C, d))):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = build(leaves)
        (out * mix).sum().backward()
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for j, (got, want) in enumerate(zip(*results)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), j


def assert_backward_under_no_grad_is_bitwise_equal(rng, H, W):
    # backward rebuilds the gather, the projections and the scan's chunk
    # recurrences as nodes even when the caller has switched graphs off
    arrays = node_arrays(rng, H, W)
    mix = Tensor(rng.normal(size=(H * W, C_NODE)))
    grads = []
    for mode in (nullcontext, no_grad):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        loss = (node(leaves, H, W) * mix).sum()
        with mode():
            loss.backward()
        grads.append([leaf.grad for leaf in leaves])
    for got, want in zip(*grads):
        assert np.array_equal(got, want)


class TestSS2DNode:
    """An ``SS2D`` call is one node over the tokens and the 18 parameters that
    keeps the chunk states and rebuilds the stack, B, C and Δ in backward."""

    H, W = 9, 8  # L = 72: two scan chunks

    def test_gradients(self, rng):
        assert self.H * self.W > SCAN_CHUNK
        arrays = node_arrays(rng, self.H, self.W)
        assert len(arrays) == 19
        mix = Tensor(rng.normal(size=(self.H * self.W, C_NODE)))
        check_gradients(lambda ts: (node(ts, self.H, self.W) * mix).sum(), arrays, rtol=1e-5)

    def test_matches_composition(self, rng):
        assert_agrees_with_chain(rng, self.H, self.W, C=3, d=4)

    def test_backward_under_no_grad_is_bitwise_equal(self, rng):
        assert_backward_under_no_grad_is_bitwise_equal(rng, self.H, self.W)


class TestSelectiveScan:
    """The node's chunked selective scan at lengths around ``SCAN_CHUNK``:
    half a chunk and one more step, one chunk, one chunk and a step, two
    chunks and two steps (``TestSS2DNode`` covers two chunks, L = 72)."""

    LENGTHS = (SCAN_CHUNK // 2 + 1, SCAN_CHUNK, SCAN_CHUNK + 1, 2 * SCAN_CHUNK + 2)
    GRIDS = dict(zip(LENGTHS, ((3, 11), (8, 8), (5, 13), (10, 13))))

    def grid(self, L):
        H, W = self.GRIDS[L]
        assert H * W == L
        return H, W

    @pytest.mark.parametrize("L", LENGTHS)
    def test_gradients(self, rng, L):
        H, W = self.grid(L)
        mix = Tensor(rng.normal(size=(L, C_NODE)))
        check_gradients(lambda ts: (node(ts, H, W) * mix).sum(), node_arrays(rng, H, W),
                        rtol=1e-5)

    @pytest.mark.parametrize("L", LENGTHS)
    def test_matches_unfused_chain(self, rng, L):
        assert_agrees_with_chain(rng, *self.grid(L), C=3, d=4)

    def test_no_grad_output_is_bitwise_equal(self, rng):
        for H, W in (*self.GRIDS.values(), (TestSS2DNode.H, TestSS2DNode.W)):
            leaves = [Tensor(a, requires_grad=True) for a in node_arrays(rng, H, W)]
            with_grad = node(leaves, H, W)
            with no_grad():
                without = node(leaves, H, W)
            assert with_grad.requires_grad and not without.requires_grad
            assert np.array_equal(with_grad.data, without.data)

    def test_backward_under_no_grad(self, rng):
        for H, W in self.GRIDS.values():
            assert_backward_under_no_grad_is_bitwise_equal(rng, H, W)


class TestLinearRecurrence:
    """The recurrence each scan chunk runs, and its adjoint."""

    @staticmethod
    def hand_forward(a, u):
        h, out = np.zeros(a.shape[1]), []
        for a_t, u_t in zip(a, u):
            h = a_t * h + u_t
            out.append(h)
        return np.array(out)

    def test_matches_hand_oracle(self, rng):
        a = rng.uniform(-0.99, 0.99, size=(11, 3))
        u = rng.normal(size=(11, 3))
        assert np.array_equal(sequential_recurrence_data(a, u), self.hand_forward(a, u))

    def test_reverse_is_the_adjoint(self, rng):
        # s_t = a_{t+1} s_{t+1} + g_t from s_L = 0, so <g, h(u)> == <s(g), u>
        a = rng.uniform(-0.99, 0.99, size=(9, 2))
        g = rng.normal(size=(9, 2))
        s = sequential_recurrence_data(a, g, reverse=True)
        want = g.copy()
        for t in reversed(range(8)):
            want[t] = a[t + 1] * want[t + 1] + g[t]
        assert np.array_equal(s, want)
        u = rng.normal(size=(9, 2))
        assert abs((g * self.hand_forward(a, u)).sum() - (s * u).sum()) < 1e-12

    def test_gradients(self, rng):
        a = rng.uniform(-0.9, 0.9, size=(6, 3))
        u = rng.normal(size=(6, 3))
        mix = Tensor(rng.normal(size=(6, 3)))
        check_gradients(lambda ts: (linear_recurrence(ts[0], ts[1]) * mix).sum(), [a, u])


def kept_states(out: Tensor) -> list:
    """The (4, C, d) chunk entry states an SS2D node keeps, in chunk order."""
    return [a for a in retained_arrays(out) if a.ndim == 3 and a.shape[0] == 4]


class TestStreamedForward:
    """The SS2D forward in pieces of ``SCAN_PIECE`` steps, here cut to one
    scan chunk so that small grids span several pieces; the default's
    pieces are longer than a 64 x 64 grid."""

    GRIDS = ((9, 15), (13, 11))  # L = 135 and 143: three pieces, the last partial

    @pytest.fixture(autouse=True)
    def short_pieces(self, monkeypatch):
        assert SCAN_PIECE % SCAN_CHUNK == 0 and SCAN_PIECE >= 64 * 64
        monkeypatch.setattr(ss2d_module, "SCAN_PIECE", SCAN_CHUNK)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_matches_composition_with_graphs(self, rng, grid):
        assert_agrees_with_chain(rng, *grid, C=3, d=4)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_matches_composition_without_graphs(self, rng, grid):
        H, W = grid
        arrays = node_arrays(rng, H, W, C=3, d=4)
        with no_grad():
            got = node([Tensor(a) for a in arrays], H, W).data
            want = chain_ss2d(Tensor(arrays[0]), H, W,
                              with_parameters([Tensor(a) for a in arrays[1:]], 3, 4)).data
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_keeps_the_unstreamed_states(self, rng, monkeypatch):
        H, W = self.GRIDS[0]
        leaves = [Tensor(a, requires_grad=True) for a in node_arrays(rng, H, W)]
        streamed = kept_states(node(leaves, H, W))
        monkeypatch.setattr(ss2d_module, "SCAN_PIECE", SCAN_PIECE)
        whole = kept_states(node(leaves, H, W))
        assert len(streamed) == len(whole) == -(-H * W // SCAN_CHUNK) - 1
        for got, want in zip(streamed, whole):
            assert np.array_equal(got, want)

    def test_gradients(self, rng):
        H, W = self.GRIDS[0]
        mix = Tensor(rng.normal(size=(H * W, C_NODE)))
        check_gradients(lambda ts: (node(ts, H, W) * mix).sum(), node_arrays(rng, H, W),
                        rtol=1e-5)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_backward_under_no_grad_is_bitwise_equal(self, rng, grid):
        assert_backward_under_no_grad_is_bitwise_equal(rng, *grid)

    def test_backward_rebuilds_one_piece_at_a_time(self, rng, monkeypatch):
        # one gather per piece, each of SCAN_PIECE steps or fewer, walked in
        # reverse, and each gather's adjoint runs
        H, W = self.GRIDS[0]
        leaves = [Tensor(a, requires_grad=True) for a in node_arrays(rng, H, W)]
        out = node(leaves, H, W)
        rebuilt, adjoints = [], []

        def counted(tokens, H, W, steps=slice(None)):
            seqs = cross_scan(tokens, H, W, steps)
            rebuilt.append((steps.start, seqs.shape[0]))
            grad_fn = seqs._grad_fn

            def adjoint(g):
                adjoints.append(steps.start)
                return grad_fn(g)

            seqs._grad_fn = adjoint
            return seqs

        monkeypatch.setattr(ss2d_module, "cross_scan", counted)
        out.sum().backward()
        piece = ss2d_module.SCAN_PIECE
        assert rebuilt == [(t0, min(piece, H * W - t0)) for t0 in range(0, H * W, piece)][::-1]
        assert adjoints == [t0 for t0, _ in rebuilt]
