"""Command-line entry points: train, enhance, metrics."""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import sys
import time
from collections import Counter
from pathlib import Path

from .align import FramePyramid
from .color import (D65_WHITE_RGB, Illuminant, check_peak, chromatic_adapt,
                    estimate_illuminant, psnr, ssim)
from .config import load_config
from .enhance import TrainingDiverged, VideoEnhancer, temporal_window, training_step
from .imageio import IngestionError, load_clip, write_image
from .layers import load_checkpoint, save_checkpoint
from .optim import AdamW
from .seeding import derive_rng
from .tensor import ConfigurationError, ContractError, DimensionError, Tensor, no_grad

# errors a user can cause (bad input, config, checkpoint, divergence, an
# output path that cannot be created): reported as one ``error:`` line and
# exit code 1 instead of a traceback
USER_ERRORS = (ConfigurationError, ContractError, DimensionError, IngestionError,
               TrainingDiverged, OSError)


# glibc's mallopt parameters (malloc.h) and the values the CLI sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # glibc's largest: buffers below it come from the heap
TRIM_THRESHOLD = 1 << 30  # free heap top kept up to this size


@functools.cache
def keep_heap() -> bool:
    """Fix glibc's mmap and trim thresholds, once per process, so that the
    heap a training step or an enhanced window frees is kept for the next
    one rather than handed back to the system and faulted in again page by
    page.  glibc raises both thresholds only as far as the largest buffer
    freed so far, below a step's working set; fixed, they stay put.  Returns
    whether both were set; where ``mallopt`` does not exist it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _paired_frames(low_dir: str, gt_dir: str):
    low = load_clip(low_dir)
    gt = load_clip(gt_dir)
    low_names = [p.name for p in low.paths]
    gt_names = [p.name for p in gt.paths]
    low_only = sorted(set(low_names) - set(gt_names))
    gt_only = sorted(set(gt_names) - set(low_names))
    if low_only or gt_only:
        raise IngestionError(
            "unpaired frames between the two directories; "
            f"only in low: {low_only}, only in ground truth: {gt_only}"
        )
    for path, a, b in zip(low.paths, low.frames, gt.frames):  # same names, same order
        if a.shape != b.shape:
            raise IngestionError(
                f"{path.name}: low-light frame is {a.shape} but its ground truth is {b.shape}"
            )
    return low, gt


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    for key in ("low_dir", "gt_dir"):
        if not getattr(cfg.data, key):  # "" would read the working directory
            return _fail(f"[data] {key} is not set; train needs it")
    low, gt = _paired_frames(cfg.data.low_dir, cfg.data.gt_dir)

    model = VideoEnhancer(cfg.model, derive_rng(cfg.train.seed, "model"))
    optimizer = AdamW(
        model.parameters(), lr=cfg.train.lr, weight_decay=cfg.train.weight_decay
    )
    data_rng = derive_rng(cfg.train.seed, "data")

    ckpt_root = Path(cfg.data.checkpoint_dir)
    ckpt_root.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, ckpt_root / "step-000000")

    low_tensors = [Tensor(f) for f in low.frames]
    gt_tensors = [Tensor(f) for f in gt.frames]
    loss_path = ckpt_root / "loss_log.csv"
    with open(loss_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "wall_ms"])
        for step in range(1, cfg.train.steps + 1):
            t0 = time.perf_counter()
            picks = data_rng.integers(0, len(low_tensors), size=cfg.train.batch)
            batch = [
                (
                    temporal_window(low_tensors, int(t), cfg.model.input_frames),
                    gt_tensors[int(t)],
                )
                for t in picks
            ]
            loss = training_step(model, optimizer, batch)
            wall_ms = (time.perf_counter() - t0) * 1e3
            writer.writerow([step, repr(loss), f"{wall_ms:.3f}"])
            if step % cfg.train.checkpoint_every == 0 or step == cfg.train.steps:
                save_checkpoint(model, ckpt_root / f"step-{step:06d}")
    print(f"trained {cfg.train.steps} steps; checkpoints and loss log in {ckpt_root}")
    return 0


# ---------------------------------------------------------------------------
# enhance
# ---------------------------------------------------------------------------


def _slide(extract, frames, pyramid, held, window) -> FramePyramid:
    """The stacked pyramid of clip frames ``window``.  Blocks of frames that
    the previous window ``held`` are copied from its ``pyramid``; every other
    frame is extracted, once."""
    fresh = {i: extract(frames[i]) for i in dict.fromkeys(window) if i not in held}
    return FramePyramid.stack(
        [fresh[i] if i in fresh else pyramid.block(held.index(i)) for i in window]
    )


def cmd_enhance(args) -> int:
    cfg = load_config(args.config)
    ckpt = Path(args.checkpoint) if args.checkpoint else Path(cfg.data.checkpoint_dir)
    if not (ckpt / "manifest.txt").exists():
        candidates = sorted(ckpt.glob("step-*/manifest.txt"))
        if not candidates:
            return _fail(f"no checkpoint found under {ckpt}")
        ckpt = candidates[-1].parent
    clip = load_clip(args.input)
    shared = sorted(stem for stem, n in Counter(p.stem for p in clip.paths).items() if n > 1)
    if shared:  # every output is <stem>.png
        return _fail(f"frames that share a stem would write the same output file: {shared}")

    model = VideoEnhancer(cfg.model, derive_rng(0, "model"))
    load_checkpoint(model, ckpt)

    frames = clip.frames
    if args.adapt_color:
        illum = estimate_illuminant(frames)
        white = Illuminant(rgb=D65_WHITE_RGB)
        frames = [chromatic_adapt(f, illum, white) for f in frames]
    tensors = [Tensor(f) for f in frames]

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    pyramid, held = None, []  # the current window's pyramid and its clip indices
    for t, path in enumerate(clip.paths):
        start = time.perf_counter()
        window = temporal_window(range(len(tensors)), t, cfg.model.input_frames)
        with no_grad():
            pyramid = _slide(model.extractor, tensors, pyramid, held, window)
            held = window
            enhanced = model.enhance_pyramid(pyramid, tensors[t], clamp_output=True)
        out_path = out_dir / (path.stem + ".png")
        write_image(out_path, enhanced.data, bit_depth=clip.bit_depths[t])
        ms = (time.perf_counter() - start) * 1e3
        print(f"frame {path.name}: {ms:.1f} ms -> {out_path.name}")
    return 0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def cmd_metrics(args) -> int:
    check_peak("psnr", args.peak)  # before either clip is decoded
    ref = load_clip(args.ref)
    test = load_clip(args.test)
    if len(ref) != len(test):
        return _fail(f"clip lengths differ: {len(ref)} reference vs {len(test)} test")
    rows = [
        [i, repr(psnr(a, b, peak=args.peak)), repr(ssim(a, b, peak=args.peak))]
        for i, (a, b) in enumerate(zip(ref.frames, test.frames))
    ]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_index", "psnr_db", "ssim"])
        writer.writerows(rows)
    print(f"wrote metrics for {len(ref)} frames to {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vssenhance",
        description="State-space video enhancement: training, inference and metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on paired low/ground-truth frames")
    p_train.add_argument("--config", required=True)
    p_train.set_defaults(fn=cmd_train)

    p_enh = sub.add_parser("enhance", help="enhance a frame directory")
    p_enh.add_argument("--config", required=True)
    p_enh.add_argument("--input", required=True)
    p_enh.add_argument("--output", required=True)
    p_enh.add_argument("--checkpoint", default=None,
                       help="checkpoint directory (default: latest under the "
                       "configured checkpoint_dir)")
    p_enh.add_argument("--adapt-color", action="store_true",
                       help="gray-world chromatic adaptation before enhancement")
    p_enh.set_defaults(fn=cmd_enhance)

    p_met = sub.add_parser("metrics", help="PSNR/SSIM between two frame directories")
    p_met.add_argument("--ref", required=True)
    p_met.add_argument("--test", required=True)
    p_met.add_argument("--out", required=True)
    p_met.add_argument("--peak", type=float, default=1.0)
    p_met.set_defaults(fn=cmd_metrics)

    return parser


def main(argv=None) -> int:
    keep_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except USER_ERRORS as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
