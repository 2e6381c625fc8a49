"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload enhance-stream --seed 0 --seconds 40 --trace 0

Generates the workload's inputs from the seed in a separate process, then
runs the workload's CLI command in fresh worker processes, one after the
other (closed loop, one caller), until the next command would overrun
``--seconds``.  Prints every metric by name with its unit, then, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
command once untraced and once with per-layer spans, requires the two to
write bitwise-identical outputs, and reports the per-layer metrics.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MIN_SETUPS = 5  # set-up samples per run; set-up-only commands make up the count
MIN_COVER = 0.9  # share of each enhance-stream op that the model spans must cover
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed op)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(NPROC) for var in BLAS_VARS})  # BLAS threads <= usable cores
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("VSSENHANCE_SEED", None)  # would override the generated config's seed
    return env


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 values
    beyond it: the (n-10)th smallest value when n > 20.  With fewer values no
    percentile above the median qualifies, so the median is reported."""
    n = len(values)
    if n > 20:
        return sorted(values)[n - 11], 100.0 * (n - 10) / n
    return statistics.median(values), 50.0


def _python(script: str, args: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to run {script}")
    try:
        return subprocess.run([sys.executable, str(HERE / script), *args], env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{script} did not finish within {timeout:.0f} s") from exc


def invoke(args, work: Path, index: int, trace: int, deadline: float,
           setup_only: bool = False) -> dict:
    """Run the workload command once in a fresh worker process."""
    out = work / f"run{index}"
    result_path = work / f"result{index}.json"
    proc = _python("worker.py", [
        "--workload", args.workload, "--seed", str(args.seed), "--work", str(work / "inputs"),
        "--out", str(out), "--trace", str(trace), "--result", str(result_path),
        *(["--setup-only"] if setup_only else [])], deadline)
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"worker exited with {proc.returncode}")
    shutil.rmtree(out, ignore_errors=True)
    return json.loads(result_path.read_text())


def measure(args, work: Path, deadline: float) -> tuple[list[dict], list[float]]:
    """Command results, and the set-up times of those commands plus of
    set-up-only commands run to reach MIN_SETUPS samples."""
    if args.trace:
        return [invoke(args, work, 0, 0, deadline), invoke(args, work, 1, 1, deadline)], []
    results, longest = [], 0.0
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(invoke(args, work, len(results), 0, deadline))
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        if now - start + longest > args.seconds or now + longest > deadline:
            break
    setups = [r["setup_s"] for r in results]
    while len(setups) < MIN_SETUPS:
        probe = invoke(args, work, len(results) + len(setups), 0, deadline, setup_only=True)
        setups.append(probe["setup_s"])
    return results, setups


def _ops_per_s(results: list[dict]) -> float:
    """Ops over the commands' whole wall time, set-up included."""
    return sum(len(r["op_ms"]) for r in results) / sum(r["wall_s"] for r in results)


def end_to_end(results: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    ops = [ms for r in results for ms in r["op_ms"]]
    if not ops:
        return {name: 0.0 for name, _ in END_TO_END}, ["no op completed"]
    tail_ms, pct = tail(ops)
    values = {
        "ops_per_s": _ops_per_s(results),
        "op_ms_p50": statistics.median(ops),
        "op_ms_tail": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    notes = [f"op_ms_tail is p{pct:.0f} of {len(ops)} ops",
             f"setup_s is the median of {len(setups)} set-ups"]
    return values, notes


def per_layer(workload: str, results: list[dict]) -> tuple[dict, list[str]]:
    untraced, traced = results
    if "layers" not in traced:
        return {name: 0.0 for name, _, _ in spans.per_layer_specs()}, ["traced command ran no op"]
    values = dict(traced["layers"])
    untraced_rate = _ops_per_s([untraced])
    values["trace.ops_per_s_ratio"] = _ops_per_s([traced]) / untraced_rate if untraced_rate else 0.0
    errors = [f"span {s} recorded no call on {workload}" for s in traced["missing_spans"]]
    if untraced["digest"] != traced["digest"]:
        errors.append("traced outputs differ from untraced outputs")
    if workload == wl.ENHANCE and values["trace.cover_min"] < MIN_COVER:
        errors.append(f"{' + '.join(spans.COVER_SPANS)} spans cover only "
                      f"{values['trace.cover_min']:.3f} of an op (at least {MIN_COVER} required)")
    return values, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vssenhance benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "vssenhance" / "cli.py").is_file():
        print(f"error: no vssenhance sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        gen = _python("generate.py", ["--workload", args.workload, "--seed", str(args.seed),
                                      "--work", str(work / "inputs")], deadline)
        if gen.returncode != 0:
            sys.stderr.write(gen.stderr[-4000:])
            raise BenchError("input generation failed")
        inputs = json.loads((work / "inputs" / "inputs.json").read_text())
        results, setups = measure(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    if len({r["digest"] for r in results}) > 1:
        errors.append("repeated commands on the same inputs wrote different outputs")
    if args.trace:
        values, trace_errors = per_layer(args.workload, results)
        errors += trace_errors
        specs = [(name, unit) for name, unit, _ in spans.per_layer_specs()]
        notes = []
    else:
        values, notes = end_to_end(results, setups)
        specs = END_TO_END

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commands={len(results)} ops={sum(len(r['op_ms']) for r in results)}")
    print(f"  nproc={NPROC} blas_threads={child_env()[BLAS_VARS[0]]} "
          f"python={platform.python_version()} numpy={np.__version__}")
    for name, clip in inputs["clips"].items():
        n, h, w, _ = clip["shape"]
        rows = " ".join(f"{k}={v}" for k, v in clip["filter_rows"].items())
        print(f"  input {name}: {n} frames {w}x{h} RGB{clip['bit_depth']}; png row filters {rows}")
    for name, unit in specs:
        print(f"  {name:32s} {values[name]:.6g} {unit}")
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for note in notes:
        print(f"  note: {note}")
    for err in dict.fromkeys(errors):
        print(f"  error: {err}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
