"""Per-layer spans for the traced run, recorded from outside the program.

``install`` wraps public functions and ``__call__``/methods of the program's
classes with timing spans; nothing under ``src/`` is edited.  Names that a
module imports by value (``from .x import f``) are wrapped in the namespace
that calls them, because rebinding the defining module would leave the
caller's reference untimed.  Backward time per op kind comes from wrapping
the grad closure of the node each wrapped op returns.

Spans nest strictly (one thread, synchronous calls), so a span's self time
is its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import defaultdict

import numpy as np

TENSOR_OPS = ("conv2d", "conv_transpose2d", "matmul", "layer_norm", "gather_rows", "transpose")
STAGES = ("enc0", "enc1", "enc2", "bottleneck", "dec2", "dec1", "dec0")
DCN_KEYS = ("level0", "level1", "level2", "cascade")

# Span ids; "stem:key" becomes the metrics "stem_ms.key" and "stem_self_ms.key".
SPANS = (
    ["imageio.read", "imageio.write", "color.adapt", "color.psnr", "color.ssim",
     "layers.load_checkpoint", "layers.save_checkpoint",
     "align.extract", "align.pcd"]
    + [f"align.dcn:{k}" for k in DCN_KEYS]
    + ["align.gather", "align.gather_bwd", "align.resize",
       "ss2d.forward", "ss2d.cross_scan", "ss2d.cross_merge",
       "ssm.recurrence", "ssm.recurrence_bwd", "vss.block", "vss.ffn", "enhance.net"]
    + [f"enhance.stage:{s}" for s in STAGES]
    + ["enhance.loss", "tensor.backward", "optim.step"]
    + [f"tensor.{op}{sfx}" for op in TENSOR_OPS for sfx in ("", "_bwd")]
)

# (name, unit, better) of every metric that is not a span time.
COUNTERS = [
    ("imageio.read_bytes", "B", "lower"),
    ("align.extract_calls", "count", "lower"),
    ("align.extract_unique_ratio", "ratio", "higher"),
    ("align.gather_calls", "count", "lower"),
    ("align.offset_px_mean", "px", "higher"),
    ("ssm.recurrence_lane_steps", "count", "lower"),
    ("vss.ss2d_share", "ratio", "lower"),
    ("tensor.graph_nodes", "count", "lower"),
    ("tensor.graph_bytes", "B", "lower"),
    ("tensor.transpose_bytes", "B", "lower"),
    ("trace.ops_per_s_ratio", "ratio", "higher"),
    ("trace.cover_min", "ratio", "higher"),
]

_FWD = (
    ["align.extract", "align.pcd"] + [f"align.dcn:{k}" for k in DCN_KEYS]
    + ["align.gather", "align.resize", "ss2d.forward", "ss2d.cross_scan",
       "ss2d.cross_merge", "ssm.recurrence", "vss.block", "vss.ffn", "enhance.net"]
    + [f"enhance.stage:{s}" for s in STAGES] + [f"tensor.{op}" for op in TENSOR_OPS]
)
_BWD = (["align.gather_bwd", "ssm.recurrence_bwd", "enhance.loss", "tensor.backward",
         "optim.step"] + [f"tensor.{op}_bwd" for op in TENSOR_OPS])

# Spans whose layer runs on each workload: zero calls there is a failure.
EXPECTED = {
    "enhance-stream": ["imageio.read", "imageio.write", "color.adapt",
                       "layers.load_checkpoint"] + _FWD,
    "train-step": ["imageio.read", "layers.save_checkpoint"] + _FWD + _BWD,
    "metrics-eval": ["imageio.read", "color.psnr", "color.ssim"],
}

# The op's model work: on enhance-stream these spans should cover the op.
COVER_SPANS = ("align.extract", "align.pcd", "enhance.net")


def metric_names(span: str) -> tuple[str, str]:
    stem, _, key = span.partition(":")
    suffix = f".{key}" if key else ""
    return f"{stem}_ms{suffix}", f"{stem}_self_ms{suffix}"


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in output order."""
    specs = []
    for span in SPANS:
        total, self_ = metric_names(span)
        specs += [(total, "ms", "lower"), (self_, "ms", "lower")]
    return specs + COUNTERS


class Tracer:
    """In-memory span totals, self times, call counts and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.frames_seen: set[bytes] = set()
        self.dcn_keys: dict[int, str] = {}
        self.stage_of: dict[int, str] = {}
        self._stack: list[list] = []  # [span names, start, time covered by children]

    def enter(self, *names: str) -> None:
        self._stack.append([names, self.clock(), 0.0])

    def exit(self) -> None:
        names, start, covered = self._stack.pop()
        duration = self.clock() - start
        for name in names:
            self.total[name] += duration
            self.self_time[name] += duration - covered
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount


def _timed_grad(tracer: Tracer, out, name: str) -> None:
    fn = getattr(out, "_grad_fn", None)
    if fn is None:
        return

    def timed(g):
        tracer.enter(name)
        try:
            return fn(g)
        finally:
            tracer.exit()

    out._grad_fn = timed


def _span(tracer: Tracer, fn, names, before=None, after=None, bwd=None):
    """Wrap ``fn`` in a span credited to ``names`` (a tuple, or a callable of
    the call's arguments returning one)."""

    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        tracer.enter(*(names(*args, **kwargs) if callable(names) else names))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(out)
        if bwd is not None:
            _timed_grad(tracer, out, bwd)
        return out

    return wrapper


def graph_footprint(root) -> tuple[int, int]:
    """Interior nodes of the autograd graph under ``root`` and the bytes they
    retain: node outputs plus arrays captured by their backward closures,
    each buffer counted once, leaf tensors' storage (parameters, inputs)
    excluded."""
    seen, stack, interior, leaf_buffers = set(), [root], [], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._grad_fn is None:
            leaf_buffers.add(id(node.data if node.data.base is None else node.data.base))
            continue
        interior.append(node)
        stack.extend(node._parents)

    buffers: dict[int, np.ndarray] = {}

    def collect(obj, depth: int) -> None:
        if isinstance(obj, np.ndarray):
            owner = obj if obj.base is None else obj.base
            if isinstance(owner, np.ndarray):
                buffers[id(owner)] = owner
        elif depth < 4 and isinstance(obj, (list, tuple)):
            for item in obj:
                collect(item, depth + 1)
        elif depth < 4 and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    contents = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                collect(contents, depth + 1)

    for node in interior:
        collect(node.data, 0)
        collect(node._grad_fn, 0)
    nbytes = sum(b.nbytes for k, b in buffers.items() if k not in leaf_buffers)
    return len(interior), nbytes


def install(tracer: Tracer) -> None:
    """Wrap the program's layers.  Call once per process, before the command."""
    from vssenhance import align, cli, enhance, imageio, ss2d, tensor
    from vssenhance.align import FeatureExtractor
    from vssenhance.enhance import EnhanceNet
    from vssenhance.optim import AdamW
    from vssenhance.ss2d import SS2D
    from vssenhance.tensor import Tensor
    from vssenhance.vss import FeedForward, VSSBlock

    def patch(owner, attr, names, **hooks):
        setattr(owner, attr, _span(tracer, getattr(owner, attr), names, **hooks))

    def read_bytes(path, *args, **kwargs):
        tracer.count("imageio.read_bytes", os.path.getsize(path))

    def frame_seen(extractor, frame, *args, **kwargs):
        tracer.frames_seen.add(hashlib.blake2b(frame.data.tobytes(), digest_size=16).digest())

    def dcn_levels(neighbor, reference, weights, *args, **kwargs):
        tracer.dcn_keys = {id(conv.weight): f"level{lvl}" for lvl, conv in enumerate(weights.dcn)}
        tracer.dcn_keys[id(weights.cas_dcn.weight)] = "cascade"

    def dcn_span(f, offsets, w, *args, **kwargs):
        key = tracer.dcn_keys.get(id(w))
        return (f"align.dcn:{key}",) if key else ()

    def offset_sizes(f, offsets, w, *args, **kwargs):
        o = np.asarray(getattr(offsets, "data", offsets))
        disp = np.hypot(o[0::2], o[1::2])
        tracer.count("align.offset_px_sum", float(disp.sum()))
        tracer.count("align.offset_px_n", disp.size)

    def lane_steps(a, u, *args, **kwargs):
        tracer.count("ssm.recurrence_lane_steps", a.shape[0] * a.shape[1])

    def stage_map(net, *args, **kwargs):
        S = net.cfg.num_scales
        stages = [(f"enc{s}", blocks) for s, blocks in enumerate(net.encoder_stages)]
        stages.append(("bottleneck", net.bottleneck))
        stages += [(f"dec{S - 1 - i}", blocks) for i, blocks in enumerate(net.decoder_stages)]
        for stage, blocks in stages:
            for block in blocks:
                tracer.stage_of[id(block)] = stage

    def block_span(block, *args, **kwargs):
        stage = tracer.stage_of.get(id(block))
        return ("vss.block", f"enhance.stage:{stage}") if stage else ("vss.block",)

    def graph_size(loss, *args, **kwargs):
        nodes, nbytes = graph_footprint(loss)
        tracer.count("tensor.graph_nodes", nodes)
        tracer.count("tensor.graph_bytes", nbytes)

    def transpose_bytes(out):
        tracer.count("tensor.transpose_bytes", out.data.nbytes)

    patch(imageio, "read_image", ("imageio.read",), before=read_bytes)
    patch(cli, "write_image", ("imageio.write",))
    patch(cli, "chromatic_adapt", ("color.adapt",))
    patch(cli, "psnr", ("color.psnr",))
    patch(cli, "ssim", ("color.ssim",))
    patch(cli, "load_checkpoint", ("layers.load_checkpoint",))
    patch(cli, "save_checkpoint", ("layers.save_checkpoint",))
    patch(FeatureExtractor, "__call__", ("align.extract",), before=frame_seen)
    patch(enhance, "pcd_align", ("align.pcd",), before=dcn_levels)
    patch(align, "deformable_conv2d", dcn_span, before=offset_sizes)
    patch(align, "bilinear_gather", ("align.gather",), bwd="align.gather_bwd")
    patch(align, "resize_bilinear", ("align.resize",))
    patch(SS2D, "__call__", ("ss2d.forward",))
    patch(ss2d, "cross_scan", ("ss2d.cross_scan",))
    patch(ss2d, "cross_merge", ("ss2d.cross_merge",))
    patch(ss2d, "linear_recurrence", ("ssm.recurrence",), before=lane_steps,
          bwd="ssm.recurrence_bwd")
    patch(VSSBlock, "__call__", block_span)
    patch(FeedForward, "__call__", ("vss.ffn",))
    patch(EnhanceNet, "__call__", ("enhance.net",), before=stage_map)
    patch(enhance, "charbonnier", ("enhance.loss",))
    patch(Tensor, "backward", ("tensor.backward",), before=graph_size)
    patch(AdamW, "step", ("optim.step",))
    for op in TENSOR_OPS:
        hooks = {"after": transpose_bytes} if op == "transpose" else {}
        patch(tensor, op, (f"tensor.{op}",), bwd=f"tensor.{op}_bwd", **hooks)
    # imported by value into ss2d: its calls bypass the tensor module attribute
    for op in ("matmul", "gather_rows"):
        patch(ss2d, op, (f"tensor.{op}",), bwd=f"tensor.{op}_bwd")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op totals of every span and counter; ratios are whole-run ratios."""
    out = {}
    for span in SPANS:
        total, self_ = metric_names(span)
        out[total] = tracer.total[span] * 1e3 / ops
        out[self_] = tracer.self_time[span] * 1e3 / ops
    calls = tracer.calls
    counts = tracer.counts
    out["imageio.read_bytes"] = counts["imageio.read_bytes"] / ops
    out["align.extract_calls"] = calls["align.extract"] / ops
    out["align.extract_unique_ratio"] = (
        len(tracer.frames_seen) / calls["align.extract"] if calls["align.extract"] else 0.0)
    out["align.gather_calls"] = calls["align.gather"] / ops
    n_offsets = counts["align.offset_px_n"]
    out["align.offset_px_mean"] = counts["align.offset_px_sum"] / n_offsets if n_offsets else 0.0
    out["ssm.recurrence_lane_steps"] = counts["ssm.recurrence_lane_steps"] / ops
    block = tracer.total["vss.block"]
    out["vss.ss2d_share"] = tracer.total["ss2d.forward"] / block if block else 0.0
    for name in ("tensor.graph_nodes", "tensor.graph_bytes", "tensor.transpose_bytes"):
        out[name] = counts[name] / ops
    return out


def missing_spans(tracer: Tracer, workload: str) -> list[str]:
    return [span for span in EXPECTED[workload] if tracer.calls[span] == 0]
