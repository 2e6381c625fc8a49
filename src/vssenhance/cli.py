"""Command-line entry points: train, enhance, metrics, scan-bench."""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .align import FramePyramid
from .color import D65_WHITE_RGB, Illuminant, chromatic_adapt, psnr, ssim
from .config import load_config
from .enhance import TrainingDiverged, VideoEnhancer, temporal_window, training_step
from .imageio import IngestionError, load_clip, write_image
from .layers import load_checkpoint, save_checkpoint
from .optim import AdamW
from .seeding import derive_rng
from .ssm import discretize_zoh, random_ssm, scan_convolutional, scan_parallel, scan_sequential
from .tensor import ConfigurationError, ContractError, DimensionError, Tensor, no_grad

SCAN_MODES = {
    "sequential": scan_sequential,
    "parallel": scan_parallel,
    "convolutional": scan_convolutional,
}
BENCH_TOLERANCE = 1e-8
# library errors a user can cause (bad input, config, checkpoint, divergence):
# reported as one ``error:`` line and exit code 1 instead of a traceback
USER_ERRORS = (ConfigurationError, ContractError, DimensionError, IngestionError,
               TrainingDiverged)


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


def _clip_illuminant(frames) -> Illuminant:
    means = np.stack([f.reshape(3, -1).mean(axis=1) for f in frames]).mean(axis=0)
    return Illuminant(rgb=tuple(np.maximum(means, 1e-6)))


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
    if args.adapt_color:
        cfg.preprocess.adapt_color = True
    ckpt = Path(args.checkpoint) if args.checkpoint else Path(cfg.data.checkpoint_dir)
    if not (ckpt / "manifest.txt").exists():
        candidates = sorted(ckpt.glob("step-*/manifest.txt"))
        if not candidates:
            return _fail(f"no checkpoint found under {ckpt}")
        ckpt = candidates[-1].parent
    clip = load_clip(args.input)

    model = VideoEnhancer(cfg.model, derive_rng(0, "model"))
    load_checkpoint(model, ckpt)

    frames = clip.frames
    if cfg.preprocess.adapt_color:
        illum = _clip_illuminant(frames)
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
    ref = load_clip(args.ref)
    test = load_clip(args.test)
    if len(ref) != len(test):
        return _fail(f"clip lengths differ: {len(ref)} reference vs {len(test)} test")
    rows = [
        [i, repr(psnr(a, b, peak=args.peak)), repr(ssim(a, b, peak=args.peak))]
        for i, (a, b) in enumerate(zip(ref.frames, test.frames))
    ]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_index", "psnr_db", "ssim"])
        writer.writerows(rows)
    print(f"wrote metrics for {len(ref)} frames to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# scan-bench
# ---------------------------------------------------------------------------


def _time_scan(fn, ssm, x, repeats: int) -> int:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn(ssm, x)
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples))


def cmd_scan_bench(args) -> int:
    lengths = [int(v) for v in args.lengths.split(",")]
    dims = [int(v) for v in args.dims.split(",")]
    rng = derive_rng(args.seed, "bench")
    rows = []
    for d in dims:
        for L in lengths:
            ssm = discretize_zoh(random_ssm(d, rng), float(rng.uniform(0.02, 0.2)))
            x = Tensor(rng.normal(size=L))
            with no_grad():
                outputs = {name: fn(ssm, x).data for name, fn in SCAN_MODES.items()}
                names = list(outputs)
                disagreement = max(
                    float(np.abs(outputs[a] - outputs[b]).max())
                    for i, a in enumerate(names)
                    for b in names[i + 1 :]
                )
                if disagreement > BENCH_TOLERANCE:
                    return _fail(
                        f"scan modes disagree by {disagreement:.3e} at L={L}, d={d} "
                        f"(tolerance {BENCH_TOLERANCE}); benchmark aborted"
                    )
                for name, fn in SCAN_MODES.items():
                    median_ns = _time_scan(fn, ssm, x, args.repeats)
                    rows.append([name, L, d, median_ns, repr(disagreement)])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "L", "d", "median_ns", "max_abs_disagreement"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} benchmark rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vssenhance",
        description="State-space video enhancement: training, inference, metrics, "
        "and scan benchmarking.",
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

    p_bench = sub.add_parser("scan-bench", help="time the three scan algorithms")
    p_bench.add_argument("--lengths", default="64,1024,8192")
    p_bench.add_argument("--dims", default="8,16")
    p_bench.add_argument("--repeats", type=int, default=9)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(fn=cmd_scan_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except USER_ERRORS as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
