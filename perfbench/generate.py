"""Generate one workload's inputs from the benchmark seed.

    python3 perfbench/generate.py --workload enhance-stream --seed 0 --work DIR

Runs in its own process, before any measured command, so generation never
counts towards a command's time or memory.  Writes into DIR:

* the PNG clip directories the command reads (``workloads.clips``), encoded
  by ``pngcodec.encode_png`` with libpng's per-row filter heuristic;
* ``samples/<clip>.npy``: the integer samples of each clip, which the
  worker compares bit for bit with what ``imageio.read_image`` decoded;
* for enhance-stream, ``enhance.cfg`` and a "trained-like" checkpoint;
* ``inputs.json``: bit depths, shapes and the histogram of row filters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import pngcodec
import workloads as wl


def _bright_scene(rng: np.random.Generator, n: int, H: int, W: int) -> np.ndarray:
    """(n, 3, H, W) well-exposed frames: smooth colored waves and gradients
    drifting by a constant sub-pixel velocity, so neighbors need alignment."""
    vel = rng.uniform(-1.5, 1.5, size=2)
    freq = rng.uniform(0.04, 0.2, size=(3, 2)) * (64.0 / max(H, W)) ** 0.5
    phase = rng.uniform(0.0, 2 * np.pi, size=(3, 2))
    tilt = rng.uniform(0.2, 0.5, size=3)
    yy, xx = np.meshgrid(np.arange(H, dtype=np.float64), np.arange(W, dtype=np.float64),
                         indexing="ij")
    frames = np.empty((n, 3, H, W))
    for t in range(n):
        y = yy - vel[0] * t
        x = xx - vel[1] * t
        for c in range(3):
            waves = np.sin(freq[c, 0] * x + phase[c, 0]) * np.cos(freq[c, 1] * y + phase[c, 1])
            ramp = (x / W if c == 1 else y / H) * tilt[c]
            frames[t, c] = 0.45 + 0.3 * waves + ramp - tilt[c] / 2
    return np.clip(frames, 0.02, 0.98)


def _low_light(rng, bright):
    return np.clip(0.1 * bright + rng.normal(0.0, 0.02, size=bright.shape), 0.0, 1.0)


def _underwater(rng, bright):
    """Red absorbed most, blue least, blue-green backscatter, sensor noise."""
    transmit = np.array([0.25, 0.7, 0.85]).reshape(1, 3, 1, 1)
    haze = np.array([0.05, 0.25, 0.3]).reshape(1, 3, 1, 1)
    hazy = bright * transmit + haze * (1.0 - transmit)
    return np.clip(hazy + rng.normal(0.0, 0.01, size=bright.shape), 0.0, 1.0)


def _degraded_copy(rng, bright):
    """A plausible enhancer output: slightly dim, noisy."""
    return np.clip(0.97 * bright + 0.01 + rng.normal(0.0, 0.02, size=bright.shape), 0.0, 1.0)


def _quantize(frames: np.ndarray, bit_depth: int) -> np.ndarray:
    """(n, 3, H, W) unit-scale floats -> (n, H, W, 3) unsigned samples."""
    peak = (1 << bit_depth) - 1
    return np.rint(frames * peak).astype(np.uint16).transpose(0, 2, 3, 1)


def _write_clip(work: Path, name: str, samples: np.ndarray, bit_depth: int) -> dict:
    clip_dir = work / name
    clip_dir.mkdir(parents=True)
    types = []
    for i, frame in enumerate(samples):
        blob, frame_types = pngcodec.encode_png(frame, bit_depth)
        (clip_dir / f"frame_{i:03d}.png").write_bytes(blob)
        types.append(frame_types)
    (work / "samples").mkdir(exist_ok=True)
    np.save(work / "samples" / f"{name}.npy", samples)
    return {"bit_depth": bit_depth, "shape": list(samples.shape),
            "filter_rows": pngcodec.filter_histogram(np.concatenate(types))}


def _perturbed_checkpoint(seed: int, directory: Path) -> None:
    """Save a default-config model with every parameter perturbed.

    A fresh model is the identity map: zero offset heads give integer
    sampling positions and zero projections switch off both VSS branches.
    Users run trained weights, so every parameter gets seeded noise.
    Nonzero tensors jitter by 10%.  Zero tensors are drawn at a multiple of
    1/sqrt(fan_in), chosen so that offsets average about a pixel and the
    output residual stays a few percent of full scale.
    """
    from vssenhance.config import parse_config
    from vssenhance.enhance import VideoEnhancer
    from vssenhance.layers import save_checkpoint
    from vssenhance.seeding import derive_rng

    cfg = parse_config(wl.DEFAULT_MODEL)
    model = VideoEnhancer(cfg.model, derive_rng(seed, "model"))
    rng = np.random.default_rng([seed, 1])
    for name, p in model.named_parameters():
        data = p.data
        if np.any(data):
            p.data = data * (1.0 + 0.1 * rng.standard_normal(data.shape))
            continue
        if data.ndim == 1:
            p.data = rng.normal(0.0, 0.02, size=data.shape)
            continue
        fan_in = data.shape[0] if data.ndim == 2 else int(np.prod(data.shape[1:]))
        gain = 6.0 if "head" in name else 0.05 if "out_project" in name else 0.3
        p.data = rng.normal(0.0, gain / np.sqrt(fan_in), size=data.shape)
    save_checkpoint(model, directory / "step-000000")


def generate(workload: str, seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, wl.WORKLOADS.index(workload)])
    meta = {"workload": workload, "seed": seed, "clips": {}}
    if workload == wl.ENHANCE:
        bright = _bright_scene(rng, wl.ENHANCE_FRAMES, *wl.ENHANCE_SIZE)
        meta["clips"]["clip"] = _write_clip(
            work, "clip", _quantize(_underwater(rng, bright), 16), 16)
        (work / "enhance.cfg").write_text(wl.enhance_config(work))
        _perturbed_checkpoint(seed, work / "ckpt")
    elif workload == wl.TRAIN:
        bright = _bright_scene(rng, wl.TRAIN_FRAMES, *wl.TRAIN_SIZE)
        meta["clips"]["low"] = _write_clip(work, "low", _quantize(_low_light(rng, bright), 8), 8)
        meta["clips"]["gt"] = _write_clip(work, "gt", _quantize(bright, 8), 8)
    elif workload == wl.METRICS:
        bright = _bright_scene(rng, wl.METRICS_PAIRS, *wl.METRICS_SIZE)
        meta["clips"]["gt"] = _write_clip(work, "gt", _quantize(bright, 16), 16)
        meta["clips"]["test"] = _write_clip(
            work, "test", _quantize(_degraded_copy(rng, bright), 8), 8)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (work / "inputs.json").write_text(json.dumps(meta, indent=1))
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
