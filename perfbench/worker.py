"""Run one workload's CLI command once, in this process, and report on it.

    python3 perfbench/worker.py --workload W --seed S --work DIR --out DIR \
        --trace 0|1 --result FILE

The command is ``vssenhance.cli.main([...])`` on the inputs that
``generate.py`` wrote to the work dir.  Op boundaries are taken by wrapping
calls that ``cli`` makes (see ``OpRecorder``): an enhance op ends when its
frame has been written, a train or metrics op ends where the next one
starts.  Set-up runs from the command's start to the end of set-up, where
the first op starts.  With ``--trace 1`` the per-layer spans of
``spans.py`` are installed as well.

After the command returns the worker checks every op's output (see
``check_ops``), then writes a JSON result for ``run.py``.  With
``--setup-only`` the command is stopped when the first op's work begins and
only its set-up time is reported.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import pngcodec
import spans
import workloads as wl

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TRAIN_LOSS_RTOL = 1e-6  # a 1e-15 change in one op grows to ~1e-12 over six steps
SSIM_ATOL = 1e-9
PSNR_ATOL = 1e-9  # dB


class SetupDone(Exception):
    """Raised when the first op is about to start and only set-up is timed."""


class OpRecorder:
    """Timestamps op boundaries and keeps what each op produced.

    ``bounds`` holds the end of set-up, then the end of each op.  On
    ``enhance`` an op ends when ``cli.write_image`` returns its frame, and
    set-up ends when the last set-up call made before the first frame is
    written (``load_clip``, ``load_checkpoint``, ``chromatic_adapt``)
    returns, so whatever the command does per frame between those points
    belongs to an op however it is organised.  On ``train`` and
    ``metrics`` an op ends where the next one starts
    (``cli.training_step``, ``cli.psnr``); the last one ends at the
    command's return, which ``run`` appends.
    """

    def __init__(self, tracer: spans.Tracer | None, setup_only: bool = False):
        self.tracer = tracer
        self.setup_only = setup_only
        self.bounds: list[float] = []
        self.covered: list[float] = []  # model span time at each bound
        self.setup_end: tuple[float, float] | None = None  # enhance: (time, model time)
        self.results: list = []
        self.clips: list = []

    def model_time(self) -> float:
        if self.tracer is None:
            return 0.0
        return sum(self.tracer.total[s] for s in spans.COVER_SPANS)

    def boundary(self) -> None:
        self.bounds.append(time.perf_counter())
        self.covered.append(self.model_time())

    def setup_s(self, start: float) -> float:
        return self.bounds[0] - start if self.bounds else self.setup_end[0] - start

    def install(self, workload: str) -> None:
        from vssenhance import cli
        from vssenhance.enhance import VideoEnhancer

        def wrap(owner, attr, before=None, after=None):
            fn = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out, *args, **kwargs)
                return out

            setattr(owner, attr, wrapper)

        wrap(cli, "load_clip", after=lambda clip, *a, **k: self.clips.append(clip))
        if workload == wl.ENHANCE:
            def setup_step(*args, **kwargs):
                if not self.bounds:
                    self.setup_end = (time.perf_counter(), self.model_time())

            def first_op_started():
                if self.setup_end is None:
                    raise RuntimeError("no set-up call returned before the first frame")
                if self.setup_only:
                    raise SetupDone

            def frame_starts(path, frame, *args, **kwargs):
                if not self.bounds:
                    first_op_started()
                    self.bounds.append(self.setup_end[0])
                    self.covered.append(self.setup_end[1])
                self.results.append((Path(path), np.array(frame, dtype=np.float64)))

            for attr in ("load_clip", "load_checkpoint", "chromatic_adapt"):
                wrap(cli, attr, after=setup_step)
            wrap(cli, "write_image", before=frame_starts, after=lambda *a, **k: self.boundary())
            if self.setup_only:  # stop before the first frame's model work
                wrap(VideoEnhancer, "__call__", before=lambda *a, **k: first_op_started())
        else:
            def op_starts(*args, **kwargs):
                self.boundary()
                if self.setup_only:
                    raise SetupDone

            attr = "training_step" if workload == wl.TRAIN else "psnr"
            wrap(cli, attr, before=op_starts, after=lambda out, *a, **k: self.results.append(out))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _reference(workload: str, seed: int):
    if seed != wl.DEFAULT_SEED:
        return None
    if workload == wl.ENHANCE:
        with np.load(REFERENCE_DIR / "enhance-stream.npz") as ref:
            return ref["frames"]
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def check_inputs(rec: OpRecorder, workload: str, work: Path) -> list[str]:
    """``imageio.read_image`` must return the generated samples bit for bit."""
    names = wl.clips(workload)
    if len(rec.clips) != len(names):
        return [f"expected {len(names)} clips loaded, saw {len(rec.clips)}"]
    errors = []
    for name, clip in zip(names, rec.clips):
        samples = np.load(work / "samples" / f"{name}.npy")
        for i, (frame, depth) in enumerate(zip(clip.frames, clip.bit_depths)):
            want = samples[i].transpose(2, 0, 1).astype(np.float64) / ((1 << depth) - 1)
            if frame.shape != want.shape or not np.array_equal(frame, want):
                errors.append(f"{name} frame {i}: decoded samples differ from the encoded ones")
    return errors


def check_ops(workload: str, seed: int, work: Path, out: Path, results: list) -> list[str | None]:
    """One entry per op that returned: None if its output passed, else why not."""
    ref = _reference(workload, seed)
    verdicts = []
    if workload == wl.ENHANCE:
        H, W = wl.ENHANCE_SIZE
        for i, (path, frame) in enumerate(results):
            if frame.shape != (3, H, W):
                verdicts.append(f"frame {i}: shape {frame.shape}")
                continue
            if not np.isfinite(frame).all() or frame.min() < 0.0 or frame.max() > 1.0:
                verdicts.append(f"frame {i}: values not finite or outside [0, 1]")
                continue
            samples, depth = pngcodec.decode_png(path.read_bytes())
            if depth != 16 or not np.array_equal(
                    samples, np.rint(frame * 65535.0).astype(np.int64).transpose(1, 2, 0)):
                verdicts.append(f"frame {i}: {path.name} does not hold the frame passed to write_image")
                continue
            if ref is not None and (i >= len(ref) or np.abs(samples - ref[i].astype(np.int64)).max() > 1):
                verdicts.append(f"frame {i}: more than one 16-bit step from the reference")
                continue
            verdicts.append(None)
    elif workload == wl.TRAIN:
        for i, loss in enumerate(results):
            if not math.isfinite(loss):
                verdicts.append(f"step {i + 1}: loss {loss!r}")
            elif ref is not None and abs(loss - ref["losses"][i]) > TRAIN_LOSS_RTOL * abs(ref["losses"][i]):
                verdicts.append(f"step {i + 1}: loss {loss!r} vs reference {ref['losses'][i]!r}")
            else:
                verdicts.append(None)
    else:
        rows = list(csv.reader((out / "metrics.csv").read_text().splitlines()))[1:]
        gt = np.load(work / "samples" / "gt.npy").astype(np.float64) / 65535.0
        test = np.load(work / "samples" / "test.npy").astype(np.float64) / 255.0
        for i, row in enumerate(rows):
            psnr_db, ssim = float(row[1]), float(row[2])
            mse = float(np.mean(np.square(gt[i] - test[i])))
            expect = -10.0 * math.log10(mse)
            if abs(psnr_db - expect) > PSNR_ATOL:
                verdicts.append(f"pair {i}: PSNR {psnr_db!r}, closed form {expect!r}")
            elif not -1.0 <= ssim <= 1.0:
                verdicts.append(f"pair {i}: SSIM {ssim!r} outside [-1, 1]")
            elif ref is not None and abs(ssim - ref["ssim"][i]) > SSIM_ATOL:
                verdicts.append(f"pair {i}: SSIM {ssim!r} vs reference {ref['ssim'][i]!r}")
            else:
                verdicts.append(None)
    return verdicts


def output_digest(workload: str, out: Path) -> str:
    """Hash of everything the command wrote that must be reproducible."""
    h = hashlib.sha256()
    if workload == wl.ENHANCE:
        for path in sorted((out / "frames").glob("*.png")):
            h.update(path.name.encode() + path.read_bytes())
    elif workload == wl.TRAIN:
        ckpt = out / "ckpt"
        for row in csv.reader((ckpt / "loss_log.csv").read_text().splitlines()):
            h.update(",".join(row[:2]).encode())  # wall_ms is a timing
        for path in sorted(ckpt.glob("step-*/*")):
            h.update(str(path.relative_to(ckpt)).encode() + path.read_bytes())
    else:
        h.update((out / "metrics.csv").read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, work: Path, out: Path, trace: bool,
        setup_only: bool = False) -> dict:
    from vssenhance import cli

    out.mkdir(parents=True)
    if workload == wl.TRAIN:
        (out / "train.cfg").write_text(wl.train_config(work, out, seed))
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        spans.install(tracer)
    rec = OpRecorder(tracer, setup_only)
    rec.install(workload)

    argv = wl.command(workload, work, out)
    error = None
    start = time.perf_counter()
    try:
        code = cli.main(argv)
        if code != 0:
            error = f"vssenhance {' '.join(argv)} exited with {code}"
    except SetupDone:
        return {"setup_s": rec.setup_s(start)}
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bounds = rec.bounds if workload == wl.ENHANCE else rec.bounds + [end]
    bounds = bounds or [end]  # no op ran: all of the command was set-up
    op_ms = [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
    result = {
        "setup_s": bounds[0] - start,
        "wall_s": end - start,
        "op_ms": op_ms,
        "attempted": max(len(op_ms), 1),
        "peak_rss_mb": peak_rss_mb,
        "digest": None,
    }
    if error is not None:
        # the command failed as a whole: no op's output set is complete
        result.update(op_ms=[], failed=result["attempted"], errors=[error])
        return result
    try:
        errors = check_inputs(rec, workload, work)
        verdicts = check_ops(workload, seed, work, out, rec.results)
        result["digest"] = output_digest(workload, out)
    except (OSError, ValueError, IndexError) as exc:  # missing or malformed outputs
        errors, verdicts = [f"outputs could not be checked: {exc}"], []
    if not op_ms:
        errors.append("the command ran no op")
    elif len(verdicts) != len(op_ms):
        errors.append(f"{len(op_ms)} ops ran but {len(verdicts)} outputs were found")
    if errors:  # bad decoding or missing outputs spoil every op
        verdicts = [errors[0]] * len(op_ms)
    result["failed"] = sum(v is not None for v in verdicts) if op_ms else 1
    result["errors"] = errors + [v for v in verdicts if v is not None]
    if tracer is not None and op_ms:
        layers = spans.layer_metrics(tracer, len(op_ms))
        covered = rec.covered if workload == wl.ENHANCE else rec.covered + [rec.model_time()]
        shares = [(c1 - c0) / (b1 - b0) for c0, c1, b0, b1
                  in zip(covered, covered[1:], bounds, bounds[1:])]
        layers["trace.cover_min"] = min(shares)
        result["layers"] = layers
        result["missing_spans"] = spans.missing_spans(tracer, workload)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload command once.")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first op and report only the set-up time")
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.work, args.out, bool(args.trace),
                 args.setup_only)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
