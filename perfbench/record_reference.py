"""Record the reference outputs that ``worker.py`` checks at the default seed.

    python3 perfbench/record_reference.py

Writes perfbench/reference/: the enhance-stream output frames (16-bit
samples), the train-step losses and the metrics-eval SSIM values, each from
the workload's command on its DEFAULT_SEED inputs.  Re-record only in a
change that means to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import generate  # noqa: E402
import pngcodec  # noqa: E402
import workloads as wl  # noqa: E402
from vssenhance import cli  # noqa: E402


def record(workload: str, scratch: Path) -> None:
    work, out = scratch / "inputs", scratch / "out"
    work.mkdir(parents=True)
    out.mkdir()
    generate.generate(workload, wl.DEFAULT_SEED, work)
    if workload == wl.TRAIN:
        (out / "train.cfg").write_text(wl.train_config(work, out, wl.DEFAULT_SEED))
    if cli.main(wl.command(workload, work, out)) != 0:
        raise SystemExit(f"{workload}: command failed")
    ref = HERE / "reference"
    ref.mkdir(exist_ok=True)
    if workload == wl.ENHANCE:
        frames = [pngcodec.decode_png(p.read_bytes())[0] for p in sorted((out / "frames").glob("*.png"))]
        np.savez_compressed(ref / "enhance-stream.npz", frames=np.array(frames, dtype=np.uint16))
        return
    if workload == wl.TRAIN:
        rows = list(csv.reader((out / "ckpt" / "loss_log.csv").read_text().splitlines()))[1:]
        data = {"losses": [float(r[1]) for r in rows]}
    else:
        rows = list(csv.reader((out / "metrics.csv").read_text().splitlines()))[1:]
        data = {"psnr_db": [float(r[1]) for r in rows], "ssim": [float(r[2]) for r in rows]}
    (ref / f"{workload}.json").write_text(json.dumps(data, indent=1) + "\n")


def main() -> int:
    scratch = HERE.parent / ".perfbench-work" / "reference"
    for workload in wl.WORKLOADS:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            record(workload, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
