"""The benchmark's workloads: what each one runs and how big its inputs are.

Every workload runs one ``vssenhance`` CLI command on inputs generated from
the benchmark seed.  An *op* is the command's unit of work: an output frame
for ``enhance``, an optimizer step for ``train``, a scored frame pair for
``metrics``.  Sizes are constants, so the same seed always gives the same
inputs and the same op count per command.
"""

from __future__ import annotations

from pathlib import Path

# Reference outputs in perfbench/reference/ were recorded at this seed.
DEFAULT_SEED = 0

ENHANCE = "enhance-stream"
TRAIN = "train-step"
METRICS = "metrics-eval"
WORKLOADS = (ENHANCE, TRAIN, METRICS)

# enhance-stream: 64x64 RGB16 underwater clip through the README default
# config (5-frame window); one op per output frame.  The window is
# edge-replicated for the first and last two frames, so those windows align
# some neighbour/reference pairs twice: 6 of the 100 pcd_align calls of a
# 20-frame clip, a share that falls towards 0 in a user's longer clips.
# One command fills most of a run.
ENHANCE_FRAMES = 20
ENHANCE_SIZE = (64, 64)

# train-step: paired 64x64 RGB8 low-light clip, default config, batch 1.
# The first step of a command is slower than the rest (its graph is the
# first to touch fresh memory); six steps keep it one op in six, so the
# median is a steady-state step.  checkpoint_every keeps its default (100),
# so the command saves at step 0 (set-up) and after its final step (the
# last op), as a short fine-tuning run does.
TRAIN_FRAMES = 6
TRAIN_SIZE = (64, 64)
TRAIN_STEPS = 6

# metrics-eval: 640x360 pairs, ground truth RGB16, test RGB8.  Each command
# scores one pair, so a run samples op time at as many moments as commands
# fit: on a shared host the speed of memory-bound work such as SSIM drifts
# over seconds, and all of a command's ops run within a fraction of one.
METRICS_PAIRS = 1
METRICS_SIZE = (360, 640)

# README default [model] section, spelled out so the benchmark keeps
# measuring this configuration if the library defaults change.
DEFAULT_MODEL = """\
[model]
input_frames = 5
feature_channels = 16
base_channels = 16
state_dim = 8
num_scales = 3
encoder_depths = 2,2,2
decoder_depths = 2,2,2
bottleneck_depth = 2
"""


def enhance_config(work: Path) -> str:
    return DEFAULT_MODEL + f"\n[data]\ncheckpoint_dir = {work / 'ckpt'}\n"


def train_config(work: Path, out: Path, seed: int) -> str:
    return DEFAULT_MODEL + (
        "\n[train]\n"
        f"steps = {TRAIN_STEPS}\n"
        f"seed = {seed}\n"
        "batch = 1\n"
        "\n[data]\n"
        f"low_dir = {work / 'low'}\n"
        f"gt_dir = {work / 'gt'}\n"
        f"checkpoint_dir = {out / 'ckpt'}\n"
    )


def command(workload: str, work: Path, out: Path) -> list[str]:
    """CLI arguments for one run of ``workload``; ``out`` is fresh per run."""
    if workload == ENHANCE:
        return ["enhance", "--config", str(work / "enhance.cfg"), "--input",
                str(work / "clip"), "--output", str(out / "frames"), "--adapt-color"]
    if workload == TRAIN:
        return ["train", "--config", str(out / "train.cfg")]
    if workload == METRICS:
        return ["metrics", "--ref", str(work / "gt"), "--test", str(work / "test"),
                "--out", str(out / "metrics.csv")]
    raise ValueError(f"unknown workload {workload!r}")


def clips(workload: str) -> list[str]:
    """Input clip directories under the work dir, in the order the CLI loads them."""
    return {ENHANCE: ["clip"], TRAIN: ["low", "gt"], METRICS: ["gt", "test"]}[workload]
