"""Record one checkout's benchmark and test timings in BENCH_<tag>.json.

    python3 tools/bench_record.py --tag TAG

Runs, one after another, this checkout's ``perfbench/run.py`` for 40 s at
seed 0, untraced on every workload and then traced (``--trace 1``) on
enhance-stream and train-step, then one default-config inference window at
128x128, default-config training steps at 64x64 and 128x128, and the decodes
of one 1920x1080 RGB16 PNG and one RGB8 PNG in this process, under the CLI's
heap policy (``cli.keep_heap``), then one cold default-config 640x360 window
in a fresh process under the same policy, then the tier-1 test command.
Each run's last JSON line, the machine facts it prints (nproc, BLAS threads,
Python and numpy versions), the 128x128 window's extract, PCD and net times,
each training step's time, minor page faults, autograd graph bytes and
memory (tracemalloc: live at forward's end and at backward's peak, and the
node whose backward holds that peak), each 1080p frame's row filter
histogram and ``read_image`` time, the 640x360 window's
stage times, wall time and peak RSS (``VmHWM``), the import footprint of
``vssenhance.cli`` in a fresh interpreter (wall time, ``VmHWM`` and the
SciPy modules it loaded) and the same after one GELU and one gather in that
interpreter (``model_path``), the tier-1 wall time, the ids of the tests that
failed or errored and the duration of ``test_06_toy_overfit`` go into
``BENCH_<tag>.json`` at the repository root, with the ``HEAD`` commit,
whether the working tree differs from it and the line count of
``src/vssenhance/*.py`` (``src_lines``).
Before each perfbench run and each fresh-interpreter probe, the
``__pycache__`` directories under ``src/``, ``perfbench/`` and ``tools/`` are
deleted, so the run compiles this repository's modules as a fresh checkout
does, while installed packages keep their own bytecode.
To record another commit, run the script from a checkout of it.  Run it on
an otherwise idle machine: the numbers are single runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
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
SUMMARY = re.compile(r"(\d+) (passed|failed|errors?|skipped)")
TEST_06 = re.compile(r"([\d.]+)s call\s+\S*test_06_toy_overfit")
# a failing or erroring test's id in pytest's short summary
FAILURE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)
WINDOW_SIZE = (128, 128)  # perfbench runs 64x64 only
TRAIN_SIZES = ((64, 64), WINDOW_SIZE)  # perfbench's train-step size, and the larger one
WINDOW_REPEATS = 3  # timed windows after one warm-up; stage times are medians
TRAIN_REPEATS = 2  # timed training steps after one warm-up; the time is their median
COLD_WINDOW_SIZE = (360, 640)  # (H, W): one cold window in a fresh process
DECODE_SIZE = (1080, 1920)
DECODE_REPEATS = 3  # read_image calls; the time is their median


def run_fresh(cmd: list[str], env: dict | None = None, **kwargs):
    """``subprocess.run`` in the repository root, output captured, after
    deleting the bytecode that earlier test, CLI or probe runs cached in
    this repository's ``__pycache__`` directories (git tracks none of them)."""
    for tree in ("src", "perfbench", "tools"):
        for cache in list((ROOT / tree).rglob("__pycache__")):
            shutil.rmtree(cache, ignore_errors=True)
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, **kwargs)


def bench_run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    print("running:", " ".join(cmd[1:]), flush=True)
    proc = run_fresh(cmd)
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


def window_inputs(size: tuple[int, int]):
    """A default-config model with perturbed seed-0 weights and a 5-frame
    window of ``size`` made by ``perfbench/generate.py``'s own functions."""
    import generate
    import numpy as np
    import workloads
    from vssenhance import tensor as T
    from vssenhance.config import parse_config
    from vssenhance.enhance import VideoEnhancer
    from vssenhance.layers import load_checkpoint
    from vssenhance.seeding import derive_rng

    model = VideoEnhancer(parse_config(workloads.DEFAULT_MODEL).model, derive_rng(0, "model"))
    with tempfile.TemporaryDirectory() as tmp:
        generate._perturbed_checkpoint(SEED, Path(tmp))
        load_checkpoint(model, Path(tmp) / "step-000000")
    rng = np.random.default_rng([SEED, *size])
    frames = generate._underwater(rng, generate._bright_scene(rng, 5, *size))
    return model, [T.Tensor(frame) for frame in frames]


def window_stages(model, window) -> dict:
    """Extract, PCD and net times in ms of one inference window, graphs off."""
    from vssenhance import tensor as T
    from vssenhance.align import pcd_align

    with T.no_grad():
        start = time.perf_counter()
        pyramid = model.extractor(T.stack(window, axis=1))
        extracted = time.perf_counter()
        aligned = pcd_align(pyramid, pyramid.block(len(window) // 2), model.pcd)
        pcd_done = time.perf_counter()
        model.net(aligned, window[len(window) // 2], clamp_output=True)
        done = time.perf_counter()
    return {"extract_ms": (extracted - start) * 1e3, "pcd_ms": (pcd_done - extracted) * 1e3,
            "net_ms": (done - pcd_done) * 1e3}


def inference_window() -> dict:
    """Time the stages of one default-config 5-frame inference window at
    WINDOW_SIZE (see ``window_inputs``)."""
    print(f"running: one {WINDOW_SIZE[0]}x{WINDOW_SIZE[1]} inference window", flush=True)
    model, window = window_inputs(WINDOW_SIZE)
    runs = [window_stages(model, window) for _ in range(WINDOW_REPEATS + 1)]
    stages = {key: round(statistics.median(r[key] for r in runs[1:]), 1) for key in runs[0]}
    total = sum(stages.values())
    return {"size": list(WINDOW_SIZE), "frames": len(window), "repeats": WINDOW_REPEATS,
            **stages, "pcd_share": round(stages["pcd_ms"] / total, 3)}


def vmhwm_mb() -> float:
    """This process's peak resident set in MB: ``VmHWM`` of /proc/self/status,
    which belongs to the process's own address space and starts fresh at
    exec, unlike ``ru_maxrss``, which a child inherits from its parent."""
    status = Path("/proc/self/status").read_text()
    return round(int(re.search(r"^VmHWM:\s*(\d+) kB", status, re.MULTILINE).group(1)) / 1024, 1)


# run in a fresh interpreter from the repository root: one cold window
COLD_WINDOW_PROBE = """\
import json, sys
sys.path[:0] = ["tools", "src", "perfbench"]
import bench_record
print(json.dumps(bench_record.cold_window()))
"""


def cold_window() -> dict:
    """One cold default-config inference window at COLD_WINDOW_SIZE in this
    process, under the CLI's heap policy: its stage times and the process's
    ``VmHWM`` after it."""
    from vssenhance.cli import keep_heap

    keep_heap()
    model, window = window_inputs(COLD_WINDOW_SIZE)
    stages = window_stages(model, window)
    return {key: round(v, 1) for key, v in stages.items()} | {"vmhwm_mb": vmhwm_mb()}


def cold_window_probe() -> dict:
    """``cold_window`` in a fresh interpreter, and that interpreter's wall
    time from start to exit (set-up, imports and the window)."""
    h, w = COLD_WINDOW_SIZE
    print(f"running: one cold {w}x{h} inference window in a fresh process", flush=True)
    start = time.perf_counter()
    proc = run_fresh([sys.executable, "-c", COLD_WINDOW_PROBE], check=True)
    wall_s = time.perf_counter() - start
    return {"size": [h, w], "frames": 5, **json.loads(proc.stdout.splitlines()[-1]),
            "wall_s": round(wall_s, 2)}


def step_memory(model, optimizer, batch) -> dict:
    """Run one training step of ``batch`` under tracemalloc: the memory live
    at forward's end and at backward's peak, in MB above the live set
    before the step, and the graph node whose backward closure held the
    peak, named by the op that built it and its output's shape.  The peak
    is read as each closure returns, so the walk's work between two
    closures counts towards the later one.  Run it after a first step, so
    that the optimizer's state is part of the live set, as in a training
    run."""
    import tracemalloc

    from vssenhance.enhance import charbonnier

    ((window, target),) = batch
    optimizer.zero_grad()
    peak = {"bytes": 0, "node": None, "shape": None}

    def probe(node):
        fn = node._grad_fn

        def run(g):
            try:
                return fn(g)
            finally:
                now = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.reset_peak()
                if now > peak["bytes"]:
                    peak.update(bytes=now, node=fn.__qualname__.split(".")[0],
                                shape=list(node.data.shape))
        node._grad_fn = run

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = charbonnier(model(window), target)
        fwd_end = tracemalloc.get_traced_memory()[0] - base
        seen, stack = set(), [loss]
        while stack:  # every interior node of the graph, once
            node = stack.pop()
            if node._grad_fn is not None and id(node) not in seen:
                seen.add(id(node))
                probe(node)
                stack.extend(node._parents)
        tracemalloc.reset_peak()
        loss.backward()
    finally:
        tracemalloc.stop()
    optimizer.step()
    return {"fwd_end_mb": round(fwd_end / 1e6, 1), "bwd_peak_mb": round(peak["bytes"] / 1e6, 1),
            "bwd_peak_node": peak["node"], "bwd_peak_shape": peak["shape"]}


def train_step(size: tuple[int, int]) -> dict:
    """Time default-config training steps (batch 1) at ``size``, as the
    ``train`` command runs them on a fresh model, on a low-light window and
    its bright center frame made by ``perfbench/generate.py``'s functions,
    count the minor page faults each step takes (``ru_minflt``: the heap
    pages glibc returned to the system and the step touched again), measure
    one more step's memory (``step_memory``) and the autograd graph one
    step's loss retains."""
    print(f"running: {size[0]}x{size[1]} training steps", flush=True)
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
    rng = np.random.default_rng([SEED, *size])
    bright = generate._bright_scene(rng, 5, *size)
    window = [T.Tensor(frame) for frame in generate._low_light(rng, bright)]
    batch = [(window, T.Tensor(bright[len(window) // 2]))]
    times, faults = [], []
    for _ in range(TRAIN_REPEATS + 1):
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        training_step(model, optimizer, batch)
        times.append((time.perf_counter() - start) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
    memory = step_memory(model, optimizer, batch)
    nodes, graph_bytes = spans.graph_footprint(charbonnier(model(window), batch[0][1]))
    return {"size": list(size), "frames": len(window), "repeats": TRAIN_REPEATS,
            "step_ms": round(statistics.median(times[1:]), 1),
            "minflt_per_step": statistics.median(faults[1:]),
            "graph_nodes": nodes, "graph_bytes": graph_bytes, **memory}


def decode_1080p(bit_depth: int) -> dict:
    """Time ``read_image`` on one seed-0 DECODE_SIZE frame encoded by
    ``pngcodec.encode_png`` with its libpng filter heuristic, and check the
    samples it returns.  As in metrics-eval, the RGB16 frame is a bright
    scene from ``perfbench/generate.py`` (paeth rows) and the RGB8 frame a
    degraded copy of it (average rows)."""
    print(f"running: decode of one {DECODE_SIZE[1]}x{DECODE_SIZE[0]} RGB{bit_depth} PNG",
          flush=True)
    import generate
    import numpy as np
    import pngcodec
    from vssenhance.imageio import read_image

    rng = np.random.default_rng([SEED, *DECODE_SIZE])
    scene = generate._bright_scene(rng, 1, *DECODE_SIZE)
    if bit_depth == 8:
        scene = generate._degraded_copy(rng, scene)
    samples = generate._quantize(scene, bit_depth)[0]
    blob, types = pngcodec.encode_png(samples, bit_depth)
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.png"
        path.write_bytes(blob)
        for _ in range(DECODE_REPEATS):
            start = time.perf_counter()
            frame, _ = read_image(path)
            times.append((time.perf_counter() - start) * 1e3)
    correct = bool(np.array_equal(frame, samples.transpose(2, 0, 1) / ((1 << bit_depth) - 1.0)))
    return {"size": list(DECODE_SIZE), "bit_depth": bit_depth, "repeats": DECODE_REPEATS,
            "filter_rows": pngcodec.filter_histogram(types),
            "read_ms": round(statistics.median(times), 1), "correct": correct}


# run in a fresh interpreter: what every vssenhance command pays before
# main(), then what a model command's first op adds (one GELU, one gather)
IMPORT_PROBE = """\
import json, sys, time

def footprint(start):
    wall_ms = (time.perf_counter() - start) * 1e3
    with open("/proc/self/status") as status:  # see vmhwm_mb
        vmhwm_kb = int(status.read().split("VmHWM:")[1].split()[0])
    return {
        "wall_ms": round(wall_ms, 1),
        "vmhwm_mb": round(vmhwm_kb / 1024, 1),
        "scipy_modules": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    }

start = time.perf_counter()
import vssenhance.cli
record = {"import_footprint": footprint(start)}
import numpy as np
from vssenhance.align import bilinear_gather
from vssenhance.tensor import Tensor, gelu
start = time.perf_counter()
bilinear_gather(gelu(Tensor(np.ones((2, 4, 4)))), np.array([1.5]), np.array([2.5]))
record["model_path"] = footprint(start)
print(json.dumps(record))
"""


def src_env() -> dict:
    """This process's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_footprint() -> dict:
    """Wall time and peak RSS of ``import vssenhance.cli`` in a fresh
    interpreter and the SciPy modules that import loads (``import_footprint``),
    then the same after one tiny GELU and bilinear gather (``model_path``)."""
    print("running: import of vssenhance.cli and one model op", flush=True)
    proc = run_fresh([sys.executable, "-c", IMPORT_PROBE], src_env(), check=True)
    return json.loads(proc.stdout)


def tier1() -> dict:
    print("running: tier-1 tests", flush=True)
    start = time.monotonic()
    proc = subprocess.run(TIER1, cwd=ROOT, env=src_env(), capture_output=True, text=True)
    wall = time.monotonic() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind.rstrip("s"): int(n) for n, kind in SUMMARY.findall(tail)}
    test_06 = TEST_06.search(proc.stdout)
    return {
        "command": "PYTHONPATH=src python " + " ".join(TIER1[1:]),
        "wall_s": round(wall, 2),
        "summary": tail if counts else None,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "errors": counts.get("error", 0),
        "failures": FAILURE.findall(proc.stdout),
        "test_06_toy_overfit_s": float(test_06.group(1)) if test_06 else None,
    }


def src_lines() -> int:
    """Lines in ``src/vssenhance/*.py``, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "vssenhance").glob("*.py"))


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
    from vssenhance.cli import keep_heap

    keep_heap()  # the heap policy the CLI runs under, so times and faults match it
    record = {
        "tag": args.tag,
        "commit": git("rev-parse", "HEAD"),
        # "<commit>-dirty" when tracked files differ from it: then the numbers
        # are the working tree's, not the commit's
        "tree": git("describe", "--always", "--dirty"),
        "src_lines": src_lines(),
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": next((r["machine"] for r in runs if "machine" in r), None),
        "runs": runs,
        "window_128": inference_window(),
        **{f"train_{h}": train_step((h, w)) for h, w in TRAIN_SIZES},
        "decode_1080p": decode_1080p(16),
        "decode_1080p_rgb8": decode_1080p(8),
        "window_640x360": cold_window_probe(),
        **import_footprint(),
        "tier1": tier1(),
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=False) + "\n")
    print(f"wrote {out}")
    bad = [f"{r['workload']} trace={r['trace']}" for r in runs if not r.get("correct")]
    bad += [key for key in ("decode_1080p", "decode_1080p_rgb8") if not record[key]["correct"]]
    errors = [f"incorrect runs: {', '.join(bad)}"] if bad else []
    tests = record["tier1"]
    if tests["summary"] is None:
        errors.append("tier-1 tests printed no summary line")
    elif tests["failed"] or tests["errors"]:
        errors.append(f"tier-1 tests: {tests['failed']} failed, {tests['errors']} errors")
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
