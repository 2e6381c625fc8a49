"""Enhancement net: shape contract, residual pass-through, training dynamics."""

import re

import numpy as np
import pytest

from vssenhance.enhance import (
    CHARBONNIER_EPS,
    EnhanceNet,
    EnhanceNetConfig,
    TrainingDiverged,
    VideoEnhancer,
    charbonnier,
    enhance_forward,
    temporal_window,
    training_step,
)
from vssenhance import tensor as T
from vssenhance.layers import load_checkpoint, save_checkpoint
from vssenhance.optim import AdamW
from vssenhance.tensor import ConfigurationError, ContractError, DimensionError, Tensor

from helpers import check_gradients, retained_arrays


TINY = dict(
    input_frames=3,
    feature_channels=4,
    base_channels=4,
    state_dim=2,
    num_scales=2,
    encoder_depths=(1, 1),
    decoder_depths=(1, 1),
    bottleneck_depth=1,
)


@pytest.fixture
def rng():
    return np.random.default_rng(555)


def make_aligned(cfg, H, W, rng):
    return T.stack([
        Tensor(rng.normal(size=(cfg.feature_channels, H, W)))
        for _ in range(cfg.input_frames)
    ], axis=1)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EnhanceNetConfig(input_frames=4)
        with pytest.raises(ConfigurationError):
            EnhanceNetConfig(num_scales=2, encoder_depths=(1,), decoder_depths=(1, 1))
        with pytest.raises(ConfigurationError):
            EnhanceNetConfig(base_channels=0)

    def test_scale_count_and_stage_depths_are_range_checked(self):
        # the rules a config file's [model] section has always had
        with pytest.raises(ConfigurationError, match="num_scales must be between 1 and 6"):
            EnhanceNetConfig(num_scales=9, encoder_depths=(1,) * 9, decoder_depths=(1,) * 9)
        with pytest.raises(ConfigurationError, match="encoder_depths must be depths >= 1"):
            EnhanceNetConfig(encoder_depths=(2, 0, 2))
        with pytest.raises(ConfigurationError, match="decoder_depths must be depths >= 1"):
            EnhanceNetConfig(decoder_depths=(0, 0, 0))
        assert EnhanceNetConfig(num_scales=6, encoder_depths=[1] * 6,
                                decoder_depths=[1] * 6).encoder_depths == (1,) * 6

    def test_channel_doubling(self):
        cfg = EnhanceNetConfig()
        assert [cfg.stage_channels(s) for s in range(4)] == [16, 32, 64, 128]


class TestEnhanceForward:
    def test_identity_passthrough_at_init(self, rng):
        cfg = EnhanceNetConfig(**TINY)
        net = EnhanceNet(cfg, rng)
        aligned = make_aligned(cfg, 8, 8, rng)
        center = rng.uniform(size=(3, 8, 8))
        out = enhance_forward(aligned, Tensor(center), net)
        assert np.array_equal(out.data, center)

    def test_shape_contract(self, rng):
        cfg = EnhanceNetConfig(**{**TINY, "input_frames": 5})
        net = EnhanceNet(cfg, rng)
        aligned = make_aligned(cfg, 8, 8, rng)
        out = enhance_forward(aligned, Tensor(rng.uniform(size=(3, 8, 8))), net)
        assert out.shape == (3, 8, 8)

    def test_frames_enter_in_window_order(self, rng):
        # the embedding reads frame 0's channels, then frame 1's, and so on
        cfg = EnhanceNetConfig(**TINY)
        net = EnhanceNet(cfg, rng)
        maps = [Tensor(rng.normal(size=(cfg.feature_channels, 8, 8))) for _ in range(3)]
        embed, seen = net.embed, []
        net.embed = lambda x: seen.append(x.data) or embed(x)
        enhance_forward(T.stack(maps, axis=1), Tensor(rng.uniform(size=(3, 8, 8))), net)
        assert np.array_equal(seen[0], np.concatenate([m.data for m in maps]))

    def test_padding_handles_odd_sizes(self, rng):
        cfg = EnhanceNetConfig(**TINY)
        net = EnhanceNet(cfg, rng)
        # exercise the network body so padding geometry actually matters
        net.out_project.weight.data = rng.normal(0, 0.01, size=net.out_project.weight.shape)
        aligned = make_aligned(cfg, 7, 9, rng)
        out = enhance_forward(aligned, Tensor(rng.uniform(size=(3, 7, 9))), net)
        assert out.shape == (3, 7, 9)
        assert np.isfinite(out.data).all()

    def test_window_count_enforced(self, rng):
        cfg = EnhanceNetConfig(**TINY)
        net = EnhanceNet(cfg, rng)
        with pytest.raises(DimensionError):
            enhance_forward(make_aligned(cfg, 8, 8, rng)[:, :-1], Tensor(np.zeros((3, 8, 8))), net)

    def test_clamp_only_when_asked(self, rng):
        cfg = EnhanceNetConfig(**TINY)
        net = EnhanceNet(cfg, rng)
        net.out_project.bias.data[:] = 5.0  # force out-of-range output
        aligned = make_aligned(cfg, 8, 8, rng)
        center = Tensor(rng.uniform(size=(3, 8, 8)))
        raw = enhance_forward(aligned, center, net)
        clamped = enhance_forward(aligned, center, net, clamp_output=True)
        assert raw.data.max() > 1.0
        assert clamped.data.max() <= 1.0

    def test_gradients(self, rng):
        cfg = EnhanceNetConfig(
            input_frames=1, feature_channels=2, base_channels=2, state_dim=2,
            num_scales=1, encoder_depths=(1,), decoder_depths=(1,), bottleneck_depth=1,
        )
        net = EnhanceNet(cfg, rng)
        # open the zero-initialized projections so gradients pass the gates
        for name, p in net.named_parameters():
            if np.all(p.data == 0) and name.endswith("weight"):
                p.data = rng.normal(0, 0.05, size=p.shape)
        aligned = rng.normal(size=(2, 4, 4))
        center = rng.uniform(size=(3, 4, 4))
        mix = rng.normal(size=(3, 4, 4))
        check_gradients(
            lambda ts: (
                enhance_forward(ts[0].reshape(2, 1, 4, 4), ts[1], net) * Tensor(mix)
            ).sum(),
            [aligned, center],
            rtol=1e-4,
        )


class TestVideoEnhancer:
    def test_end_to_end_identity_at_init(self, rng):
        cfg = EnhanceNetConfig(**TINY)
        model = VideoEnhancer(cfg, rng)
        frames = [Tensor(rng.uniform(size=(3, 8, 8))) for _ in range(3)]
        out = model(frames)
        assert np.array_equal(out.data, frames[1].data)

    def test_window_is_aligned_onto_its_center_frame(self, rng):
        # one window pass equals aligning each frame's own pyramid onto the
        # center frame's, then the net on the maps in window order
        from vssenhance.align import pcd_align

        from helpers import perturbed

        model = perturbed(VideoEnhancer(EnhanceNetConfig(**{**TINY, "input_frames": 5}), rng), rng)
        frames = [Tensor(rng.uniform(size=(3, 8, 8))) for _ in range(5)]
        pyramids = [model.extractor(frame) for frame in frames]
        aligned = [pcd_align(p, pyramids[2], model.pcd) for p in pyramids]
        want = model.net(T.stack(aligned, axis=1), frames[2])
        got = model(frames)
        assert np.abs(got.data - want.data).max() <= 1e-12 * np.abs(want.data).max()

    def test_checkpoint_roundtrip(self, rng, tmp_path):
        cfg = EnhanceNetConfig(**TINY)
        model = VideoEnhancer(cfg, rng)
        save_checkpoint(model, tmp_path / "ck")
        model2 = VideoEnhancer(cfg, np.random.default_rng(1234))
        load_checkpoint(model2, tmp_path / "ck")
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), model2.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_failed_checkpoint_load_leaves_model_unchanged(self, rng, tmp_path):
        # same parameter names, but the U-Net widths differ: the extractor and
        # PCD tensors fit and come first, the net's embedding does not
        save_checkpoint(VideoEnhancer(EnhanceNetConfig(**TINY), rng), tmp_path / "ck")
        model = VideoEnhancer(EnhanceNetConfig(**{**TINY, "base_channels": 8}), rng)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        with pytest.raises(ContractError, match="net.embed.weight"):
            load_checkpoint(model, tmp_path / "ck")
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, before[name]), name

    def test_checkpoint_naming_a_parameter_twice_is_rejected(self, rng, tmp_path):
        # a later line that names a parameter again, with another tensor of
        # its shape, must not silently replace the first line's tensor
        cfg = EnhanceNetConfig(**TINY)
        save_checkpoint(VideoEnhancer(cfg, rng), tmp_path / "ck")
        manifest = tmp_path / "ck" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        shapes = [line.split("\t")[2] for line in lines]
        i, j = next((i, j) for i in range(len(lines)) for j in range(i + 1, len(lines))
                    if shapes[i] == shapes[j])
        name = lines[i].split("\t")[0]
        lines.append("\t".join([name] + lines[j].split("\t")[1:]))
        manifest.write_text("\n".join(lines) + "\n")
        model = VideoEnhancer(cfg, np.random.default_rng(7))
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        with pytest.raises(ContractError, match=rf"manifest.txt:{len(lines)}: parameter "
                           rf"{re.escape(name)} is already listed on line {i + 1}"):
            load_checkpoint(model, tmp_path / "ck")
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, before[n]), n

    def test_training_graph_keeps_no_channel_join(self, rng):
        # PCD's fuse and the U-Net's skip projections convolve their two
        # inputs as parts, so no (2C, ...) concatenation is kept for backward
        cfg = EnhanceNetConfig(**{**TINY, "feature_channels": 3})
        H = W = 8
        model = VideoEnhancer(cfg, rng)
        frames = [Tensor(rng.uniform(size=(3, H, W))) for _ in range(cfg.input_frames)]
        loss = charbonnier(model(frames), Tensor(rng.uniform(size=(3, H, W))))
        shapes = {arr.shape for arr in retained_arrays(loss)}
        joins = [shape for shape in shapes if shape[:1] == (2 * cfg.feature_channels,)]
        joins += [(2 * cfg.stage_channels(s), H >> s, W >> s) for s in range(cfg.num_scales)
                  if (2 * cfg.stage_channels(s), H >> s, W >> s) in shapes]
        assert joins == []

    def test_interrupted_overwrite_keeps_old_checkpoint(self, rng, tmp_path, monkeypatch):
        cfg = EnhanceNetConfig(**TINY)
        old = VideoEnhancer(cfg, rng)
        target = tmp_path / "step-000001"
        save_checkpoint(old, target)
        old_bytes = {f.name: f.read_bytes() for f in target.iterdir()}
        save_tensor, written = T.save_tensor, []

        def failing_save(t, path):
            if len(written) == 5:
                raise OSError("disk full")
            written.append(path)
            save_tensor(t, path)

        monkeypatch.setattr(T, "save_tensor", failing_save)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(VideoEnhancer(cfg, np.random.default_rng(99)), target)
        monkeypatch.undo()
        assert [d.name for d in tmp_path.iterdir()] == ["step-000001"]
        assert {f.name: f.read_bytes() for f in target.iterdir()} == old_bytes
        restored = VideoEnhancer(cfg, np.random.default_rng(5))
        load_checkpoint(restored, target)
        for (_, p1), (_, p2) in zip(old.named_parameters(), restored.named_parameters()):
            assert np.array_equal(p1.data, p2.data)
        # a completed overwrite replaces every file and leaves nothing beside it
        new = VideoEnhancer(cfg, np.random.default_rng(99))
        save_checkpoint(new, target)
        assert [d.name for d in tmp_path.iterdir()] == ["step-000001"]
        load_checkpoint(restored, target)
        for (_, p1), (_, p2) in zip(new.named_parameters(), restored.named_parameters()):
            assert np.array_equal(p1.data, p2.data)


class TestTemporalWindow:
    def test_edge_replication(self):
        frames = list(range(5))
        assert temporal_window(frames, 0, 5) == [0, 0, 0, 1, 2]
        assert temporal_window(frames, 2, 5) == [0, 1, 2, 3, 4]
        assert temporal_window(frames, 4, 5) == [2, 3, 4, 4, 4]
        assert temporal_window(frames, 0, 1) == [0]


class TestCharbonnier:
    def test_zero_residual_gives_eps(self, rng):
        x = Tensor(rng.uniform(size=(3, 4, 4)))
        assert abs(charbonnier(x, x).item() - CHARBONNIER_EPS) < 1e-15

    def test_constant_residual_limit(self, rng):
        a = Tensor(rng.uniform(size=(3, 4, 4)))
        b = a + 0.1
        want = np.sqrt(0.1**2 + CHARBONNIER_EPS**2)
        assert abs(charbonnier(b, a).item() - want) < 1e-9


class TestTrainingStep:
    def _toy_batch(self, cfg, rng, H=8):
        frames = [Tensor(rng.uniform(size=(3, H, H))) for _ in range(cfg.input_frames)]
        target = Tensor(rng.uniform(size=(3, H, H)))
        return [(frames, target)]

    def test_descent_on_fixed_batch(self, rng):
        # two consecutive steps: loss non-increasing in >= 95% of seeded trials
        cfg = EnhanceNetConfig(**TINY)
        good = 0
        trials = 20
        for seed in range(trials):
            r = np.random.default_rng(seed)
            model = VideoEnhancer(cfg, r)
            opt = AdamW(model.parameters(), lr=1e-4)
            batch = self._toy_batch(cfg, r)
            l1 = training_step(model, opt, batch)
            l2 = training_step(model, opt, batch)
            if l2 <= l1 + 1e-12:
                good += 1
        assert good >= int(0.95 * trials)

    def test_determinism_bitwise(self):
        cfg = EnhanceNetConfig(**TINY)

        def run():
            r = np.random.default_rng(2025)
            model = VideoEnhancer(cfg, r)
            opt = AdamW(model.parameters(), lr=1e-3)
            batch = self._toy_batch(cfg, np.random.default_rng(77))
            return [training_step(model, opt, batch) for _ in range(10)]

        assert run() == run()

    def test_nan_loss_aborts_with_diagnostic(self, rng):
        cfg = EnhanceNetConfig(**TINY)
        model = VideoEnhancer(cfg, rng)
        model.net.out_project.bias.data[:] = np.inf
        opt = AdamW(model.parameters(), lr=1e-3)
        with pytest.raises(TrainingDiverged):
            training_step(model, opt, self._toy_batch(cfg, rng))

    def test_every_parameter_eventually_gets_gradient(self, rng):
        cfg = EnhanceNetConfig(**TINY)
        model = VideoEnhancer(cfg, rng)
        opt = AdamW(model.parameters(), lr=1e-3)
        batch = self._toy_batch(cfg, rng)
        seen = {name: False for name, _ in model.named_parameters()}
        for _ in range(4):
            training_step(model, opt, batch)
            for name, p in model.named_parameters():
                if p.grad is not None and np.abs(p.grad).max() > 0:
                    seen[name] = True
            opt.zero_grad()
        dead = sorted(n for n, ok in seen.items() if not ok)
        assert not dead, f"parameters with no gradient after warmup steps: {dead}"

    def test_short_overfit_reduces_loss(self, rng):
        # smoke-scale preview of the long overfit acceptance run
        cfg = EnhanceNetConfig(
            input_frames=1, feature_channels=4, base_channels=4, state_dim=2,
            num_scales=1, encoder_depths=(1,), decoder_depths=(1,), bottleneck_depth=1,
        )
        r = np.random.default_rng(11)
        model = VideoEnhancer(cfg, r)
        bright = r.uniform(0.2, 0.9, size=(3, 8, 8))
        dark = 0.1 * bright + r.normal(0, 0.02, size=bright.shape)
        batch = [([Tensor(dark)], Tensor(bright))]
        opt = AdamW(model.parameters(), lr=2e-3)
        losses = [training_step(model, opt, batch) for _ in range(60)]
        assert losses[-1] < 0.5 * losses[0]
