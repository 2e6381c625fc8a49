"""The enhancement network and its training step.

A U-shaped encoder/decoder in which every stage is a run of VSS blocks:
concatenated aligned features are embedded to the base width, downsampled
through stride-2 convolutions (channels doubling per scale), mirrored back up
with transposed convolutions and skip concatenations, and projected to RGB.
The projection is zero-initialized and added to the center frame, so an
untrained network is an exact pass-through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .align import FeatureExtractor, FramePyramid, PCDAlign, pcd_align
from .layers import Conv2d, ConvTranspose2d, Module
from .optim import AdamW
from .tensor import ConfigurationError, DimensionError, Tensor, pad2d_edges
from .vss import VSSBlock

__all__ = [
    "EnhanceNetConfig",
    "EnhanceNet",
    "VideoEnhancer",
    "TrainingDiverged",
    "charbonnier",
    "enhance_forward",
    "training_step",
    "temporal_window",
]


class TrainingDiverged(RuntimeError):
    """Raised when the loss leaves the realm of finite numbers."""


@dataclass
class EnhanceNetConfig:
    input_frames: int = 5  # temporal window 2N+1
    feature_channels: int = 16  # alignment feature width
    base_channels: int = 16  # encoder width at full resolution
    state_dim: int = 8  # per-channel SSM state size
    num_scales: int = 3  # downsampling stages
    encoder_depths: tuple[int, ...] = (2, 2, 2)
    decoder_depths: tuple[int, ...] = (2, 2, 2)
    bottleneck_depth: int = 2

    def __post_init__(self):
        require = ConfigurationError.require
        frames = self.input_frames
        require(frames >= 1 and frames % 2 == 1, "input_frames", "a positive odd integer", frames)
        for name in ("feature_channels", "base_channels", "state_dim", "bottleneck_depth"):
            require(getattr(self, name) >= 1, name, ">= 1", getattr(self, name))
        require(1 <= self.num_scales <= 6, "num_scales", "between 1 and 6", self.num_scales)
        for name in ("encoder_depths", "decoder_depths"):
            depths = tuple(getattr(self, name))
            setattr(self, name, depths)
            require(len(depths) == self.num_scales, name,
                    f"{self.num_scales} depths, one per scale", depths)
            require(min(depths) >= 1, name, "depths >= 1", depths)

    def stage_channels(self, scale: int) -> int:
        return self.base_channels * (1 << scale)


def _blocks(channels: int, depth: int, state_dim: int,
            rng: np.random.Generator) -> list[VSSBlock]:
    return [VSSBlock(channels, state_dim, rng) for _ in range(depth)]


class EnhanceNet(Module):
    """VSS-block U-Net from concatenated aligned features to an RGB frame."""

    def __init__(self, cfg: EnhanceNetConfig, rng: np.random.Generator):
        self.cfg = cfg
        c0 = cfg.base_channels
        in_ch = cfg.input_frames * cfg.feature_channels
        self.embed = Conv2d(in_ch, c0, 1, rng)

        self.encoder_stages = []
        self.downs = []
        for s in range(cfg.num_scales):
            ch = cfg.stage_channels(s)
            self.encoder_stages.append(_blocks(ch, cfg.encoder_depths[s], cfg.state_dim, rng))
            self.downs.append(Conv2d(ch, cfg.stage_channels(s + 1), 3, rng, stride=2))

        self.bottleneck = _blocks(
            cfg.stage_channels(cfg.num_scales), cfg.bottleneck_depth, cfg.state_dim, rng
        )

        self.ups = []
        self.skip_projects = []
        self.decoder_stages = []
        for s in reversed(range(cfg.num_scales)):
            ch = cfg.stage_channels(s)
            self.ups.append(ConvTranspose2d(cfg.stage_channels(s + 1), ch, 4, rng))
            self.skip_projects.append(Conv2d(2 * ch, ch, 1, rng))
            self.decoder_stages.append(_blocks(ch, cfg.decoder_depths[s], cfg.state_dim, rng))

        self.out_project = Conv2d(c0, 3, 3, rng, zero_init=True)

    def __call__(self, aligned, center_rgb, clamp_output: bool = False) -> Tensor:
        return enhance_forward(aligned, center_rgb, self, clamp_output=clamp_output)


def enhance_forward(aligned: Tensor, center_rgb: Tensor, net: EnhanceNet,
                    clamp_output: bool = False) -> Tensor:
    """Enhance one frame from its window of aligned feature maps.

    ``aligned`` is (C, N, H, W), block n the aligned map of window frame n,
    with N = ``input_frames``; the output is the zero-initialized RGB
    projection plus the center frame, cropped back to the input resolution
    after reflection padding to a multiple of 2^S.
    Clamping to [0, 1] is inference-only behavior.
    """
    cfg = net.cfg
    if aligned.ndim != 4:
        raise DimensionError(f"aligned maps must be (C, N, H, W), got {aligned.shape}")
    C, N, H, W = aligned.shape
    if N != cfg.input_frames:
        raise DimensionError(f"expected {cfg.input_frames} aligned maps, got {N}")
    if center_rgb.shape != (3, H, W):
        raise DimensionError(
            f"center frame must be (3, {H}, {W}), got {center_rgb.shape}"
        )

    # the frames' channel blocks side by side, in window order
    x = aligned.transpose(1, 0, 2, 3).reshape(N * C, H, W)
    multiple = 1 << cfg.num_scales
    pad_b = (-H) % multiple
    pad_r = (-W) % multiple
    # reflection when it fits; edge replication keeps tiny inputs legal
    pad_mode = "reflect" if (pad_b < H and pad_r < W) else "edge"
    x = pad2d_edges(x, 0, pad_b, 0, pad_r, mode=pad_mode)

    feat = net.embed(x)
    del x  # window-sized: not needed past the embedding
    skips = []
    for stage, down in zip(net.encoder_stages, net.downs):
        for block in stage:
            feat = block(feat)
        skips.append(feat)
        feat = down(feat)

    for block in net.bottleneck:
        feat = block(feat)

    for up, project, stage, skip in zip(
        net.ups, net.skip_projects, net.decoder_stages, reversed(skips)
    ):
        feat = up(feat)
        feat = project([feat, skip])
        for block in stage:
            feat = block(feat)

    residual = net.out_project(feat)
    if pad_b or pad_r:
        residual = residual[:, :H, :W]
    out = residual + center_rgb
    if clamp_output:
        out = T.clip(out, 0.0, 1.0)
    return out


class VideoEnhancer(Module):
    """Feature extraction, deformable alignment of the whole window onto its
    center frame, enhancement."""

    def __init__(self, cfg: EnhanceNetConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.extractor = FeatureExtractor(3, cfg.feature_channels, rng)
        self.pcd = PCDAlign(cfg.feature_channels, rng)
        self.net = EnhanceNet(cfg, rng)

    def __call__(self, window: list[Tensor], clamp_output: bool = False) -> Tensor:
        if len(window) != self.cfg.input_frames:
            raise DimensionError(
                f"window must hold {self.cfg.input_frames} frames, got {len(window)}"
            )
        pyramid = self.extractor(T.stack(window, axis=1))
        return self.enhance_pyramid(pyramid, window[len(window) // 2], clamp_output)

    def enhance_pyramid(self, pyramid: FramePyramid, center_rgb: Tensor,
                        clamp_output: bool = False) -> Tensor:
        """Enhance a window's center frame from the window's (C, N, H, W)
        feature pyramid, every block aligned onto the center block in one pass."""
        aligned = pcd_align(pyramid, pyramid.block(pyramid.levels[0].shape[1] // 2), self.pcd)
        return self.net(aligned, center_rgb, clamp_output=clamp_output)


def temporal_window(frames: list, center: int, size: int) -> list:
    """The ``size`` frames around ``center``, edge-replicated at boundaries."""
    half = size // 2
    n = len(frames)
    return [frames[min(max(center + d, 0), n - 1)] for d in range(-half, half + 1)]


CHARBONNIER_EPS = 1e-3


def charbonnier(pred: Tensor, target: Tensor) -> Tensor:
    """Robust L1: mean of sqrt(residual^2 + eps^2), eps = ``CHARBONNIER_EPS``."""
    diff = pred - target
    return (diff * diff + CHARBONNIER_EPS * CHARBONNIER_EPS).sqrt().mean()


def training_step(model: VideoEnhancer, optimizer: AdamW, batch) -> float:
    """One optimization step over ``batch`` = [(window, target), ...].

    Forward through alignment and enhancement, Charbonnier loss,
    reverse-mode gradients, AdamW update.  Deterministic given fixed
    parameters and batch.
    """
    optimizer.zero_grad()
    total = None
    for window, target in batch:
        out = model(window)
        sample_loss = charbonnier(out, target)
        total = sample_loss if total is None else total + sample_loss
    loss = total * (1.0 / len(batch))
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingDiverged(
            f"loss became {value!r} at optimizer step {optimizer.step_count + 1}; "
            "lower the learning rate or inspect the input data"
        )
    loss.backward()
    optimizer.step()
    return value
