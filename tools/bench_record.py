"""Record one checkout's benchmark and test timings in BENCH_<tag>.json.

    python3 tools/bench_record.py --tag TAG

Runs, one after another, this checkout's ``perfbench/run.py`` for 40 s at
seed 0, untraced on every workload and then traced (``--trace 1``) on
enhance-stream and train-step, then one default-config inference window and
one default-config training step at 128x128 and the decode of one 1920x1080
RGB16 PNG in this process, then the tier-1 test command.  Each run's last
JSON line, the machine facts it prints (nproc, BLAS threads, Python and numpy
versions), the 128x128 window's extract, PCD and net times, the 128x128
training step's time, minor page faults and autograd graph bytes, the 1080p
frame's ``read_image`` time, the tier-1 wall time and the duration of
``test_06_toy_overfit`` go into ``BENCH_<tag>.json`` at the repository root,
with the ``HEAD`` commit and whether the working tree differs from it.
To record another commit, run the script from a checkout of it.  Run it on
an otherwise idle machine: the numbers are single runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 40.0  # perfbench's standard run length
SEED = 0
WORKLOADS = ("enhance-stream", "train-step", "metrics-eval")
TRACED = ("enhance-stream", "train-step")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=20", "-p", "no:cacheprovider"]
MACHINE = re.compile(r"nproc=(\d+) blas_threads=(\S+) python=(\S+) numpy=(\S+)")
SUMMARY = re.compile(r"(\d+) (passed|failed|error|errors|skipped)")
TEST_06 = re.compile(r"([\d.]+)s call\s+\S*test_06_toy_overfit")
WINDOW_SIZE = (128, 128)  # perfbench runs 64x64 only
WINDOW_REPEATS = 3  # timed windows after one warm-up; stage times are medians
TRAIN_REPEATS = 2  # timed training steps after one warm-up; the time is their median
DECODE_SIZE = (1080, 1920)
DECODE_REPEATS = 3  # read_image calls; the time is their median


def bench_run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    print("running:", " ".join(cmd[1:]), flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    machine = MACHINE.search(proc.stdout)
    if machine:
        nproc, blas, python, numpy = machine.groups()
        result["machine"] = {"nproc": int(nproc), "blas_threads": blas,
                             "python": python, "numpy": numpy}
    return {"workload": workload, "seed": SEED, "seconds": SECONDS, "trace": trace, **result}


def inference_window() -> dict:
    """Time the stages of one default-config 5-frame inference window at
    WINDOW_SIZE: weights perturbed at seed 0 and frames made by
    ``perfbench/generate.py``'s own functions."""
    print(f"running: one {WINDOW_SIZE[0]}x{WINDOW_SIZE[1]} inference window", flush=True)
    import generate
    import numpy as np
    import workloads
    from vssenhance import tensor as T
    from vssenhance.align import pcd_align
    from vssenhance.config import parse_config
    from vssenhance.enhance import VideoEnhancer
    from vssenhance.layers import load_checkpoint
    from vssenhance.seeding import derive_rng

    model = VideoEnhancer(parse_config(workloads.DEFAULT_MODEL).model, derive_rng(0, "model"))
    with tempfile.TemporaryDirectory() as tmp:
        generate._perturbed_checkpoint(SEED, Path(tmp))
        load_checkpoint(model, Path(tmp) / "step-000000")
    rng = np.random.default_rng([SEED, *WINDOW_SIZE])
    frames = generate._underwater(rng, generate._bright_scene(rng, 5, *WINDOW_SIZE))
    window = [T.Tensor(frame) for frame in frames]
    times = {"extract_ms": [], "pcd_ms": [], "net_ms": []}
    with T.no_grad():
        for _ in range(WINDOW_REPEATS + 1):
            start = time.perf_counter()
            pyramid = model.extractor(T.stack(window, axis=1))
            extracted = time.perf_counter()
            aligned = pcd_align(pyramid, pyramid.block(len(window) // 2), model.pcd)
            pcd_done = time.perf_counter()
            model.net(aligned, window[len(window) // 2], clamp_output=True)
            done = time.perf_counter()
            for key, (a, b) in zip(times, ((start, extracted), (extracted, pcd_done),
                                            (pcd_done, done))):
                times[key].append((b - a) * 1e3)
    stages = {key: round(statistics.median(v[1:]), 1) for key, v in times.items()}
    total = sum(stages.values())
    return {"size": list(WINDOW_SIZE), "frames": len(window), "repeats": WINDOW_REPEATS,
            **stages, "pcd_share": round(stages["pcd_ms"] / total, 3)}


def train_step() -> dict:
    """Time default-config training steps (batch 1) at WINDOW_SIZE, as the
    ``train`` command runs them on a fresh model, on a low-light window and
    its bright center frame made by ``perfbench/generate.py``'s functions,
    count the minor page faults each step takes (``ru_minflt``: the heap
    pages glibc returned to the system and the step touched again), and
    measure the autograd graph one step's loss retains."""
    print(f"running: {WINDOW_SIZE[0]}x{WINDOW_SIZE[1]} training steps", flush=True)
    import generate
    import numpy as np
    import spans
    import workloads
    from vssenhance import tensor as T
    from vssenhance.config import parse_config
    from vssenhance.enhance import VideoEnhancer, charbonnier, training_step
    from vssenhance.optim import AdamW
    from vssenhance.seeding import derive_rng

    cfg = parse_config(workloads.DEFAULT_MODEL)
    model = VideoEnhancer(cfg.model, derive_rng(SEED, "model"))
    optimizer = AdamW(model.parameters(), lr=cfg.train.lr, weight_decay=cfg.train.weight_decay)
    rng = np.random.default_rng([SEED, *WINDOW_SIZE])
    bright = generate._bright_scene(rng, 5, *WINDOW_SIZE)
    window = [T.Tensor(frame) for frame in generate._low_light(rng, bright)]
    batch = [(window, T.Tensor(bright[len(window) // 2]))]
    times, faults = [], []
    for _ in range(TRAIN_REPEATS + 1):
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        training_step(model, optimizer, batch)
        times.append((time.perf_counter() - start) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
    nodes, graph_bytes = spans.graph_footprint(charbonnier(model(window), batch[0][1]))
    return {"size": list(WINDOW_SIZE), "frames": len(window), "repeats": TRAIN_REPEATS,
            "step_ms": round(statistics.median(times[1:]), 1),
            "minflt_per_step": statistics.median(faults[1:]),
            "graph_nodes": nodes, "graph_bytes": graph_bytes}


def decode_1080p() -> dict:
    """Time ``read_image`` on one seed-0 DECODE_SIZE RGB16 frame, a bright
    scene from ``perfbench/generate.py`` encoded by ``pngcodec.encode_png``
    with its libpng filter heuristic, and check the samples it returns."""
    print(f"running: decode of one {DECODE_SIZE[1]}x{DECODE_SIZE[0]} RGB16 PNG", flush=True)
    import generate
    import numpy as np
    import pngcodec
    from vssenhance.imageio import read_image

    rng = np.random.default_rng([SEED, *DECODE_SIZE])
    samples = generate._quantize(generate._bright_scene(rng, 1, *DECODE_SIZE), 16)[0]
    blob, types = pngcodec.encode_png(samples, 16)
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.png"
        path.write_bytes(blob)
        for _ in range(DECODE_REPEATS):
            start = time.perf_counter()
            frame, _ = read_image(path)
            times.append((time.perf_counter() - start) * 1e3)
    correct = bool(np.array_equal(frame, samples.transpose(2, 0, 1) / 65535.0))
    return {"size": list(DECODE_SIZE), "bit_depth": 16, "repeats": DECODE_REPEATS,
            "filter_rows": pngcodec.filter_histogram(types),
            "read_ms": round(statistics.median(times), 1), "correct": correct}


def tier1() -> dict:
    print("running: tier-1 tests", flush=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.monotonic()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in SUMMARY.findall(tail)}
    test_06 = TEST_06.search(proc.stdout)
    return {
        "command": "PYTHONPATH=src python " + " ".join(TIER1[1:]),
        "wall_s": round(wall, 2),
        "summary": tail,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "test_06_toy_overfit_s": float(test_06.group(1)) if test_06 else None,
    }


def git(*args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "perfbench" / "run.py").is_file():
        print(f"error: no perfbench/run.py under {ROOT}", file=sys.stderr)
        return 2

    runs = [bench_run(w, 0) for w in WORKLOADS]
    runs += [bench_run(w, 1) for w in TRACED]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]  # in-process measurements
    record = {
        "tag": args.tag,
        "commit": git("rev-parse", "HEAD"),
        # "<commit>-dirty" when tracked files differ from it: then the numbers
        # are the working tree's, not the commit's
        "tree": git("describe", "--always", "--dirty"),
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": next((r["machine"] for r in runs if "machine" in r), None),
        "runs": runs,
        "window_128": inference_window(),
        "train_128": train_step(),
        "decode_1080p": decode_1080p(),
        "tier1": tier1(),
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=False) + "\n")
    print(f"wrote {out}")
    bad = [f"{r['workload']} trace={r['trace']}" for r in runs if not r.get("correct")]
    if not record["decode_1080p"]["correct"]:
        bad.append("decode_1080p")
    if bad:
        print(f"error: incorrect runs: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
