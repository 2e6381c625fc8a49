"""Parameter containers and the checkpoint directory format.

A :class:`Module` is a plain attribute bag; anything that is a gradient-
tracking Tensor, a Module, or a list of either is picked up by
``named_parameters`` in a stable order, which is what checkpointing and the
optimizer key on.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from . import tensor as T
from .tensor import ContractError, Tensor


class Module:
    """Base class giving the parameter traversal that checkpoints and AdamW use."""

    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor):
                if value.requires_grad:
                    yield key, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{key}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Tensor):
                        if item.requires_grad:
                            yield f"{key}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{key}.{i}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]


def param(data, requires_grad: bool = True) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def kaiming(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    return param(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape))


class Linear(Module):
    """y = x @ W + b on (..., in_features) token layouts (2-D inputs), plus
    ``residual`` inside the same node if given."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 zero_init: bool = False):
        if zero_init:
            self.weight = param(np.zeros((in_features, out_features)))
        else:
            self.weight = kaiming(rng, (in_features, out_features), in_features)
        self.bias = param(np.zeros(out_features))

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        return T.matmul(x, self.weight, bias=self.bias, residual=residual)


class Conv2d(Module):
    """A k x k convolution padded by (k - 1) // 2, so stride 1 keeps the size."""

    def __init__(self, in_ch: int, out_ch: int, k: int, rng: np.random.Generator,
                 stride: int = 1, zero_init: bool = False):
        self.stride = stride
        self.pad = (k - 1) // 2
        if zero_init:
            self.weight = param(np.zeros((out_ch, in_ch, k, k)))
        else:
            self.weight = kaiming(rng, (out_ch, in_ch, k, k), in_ch * k * k)
        self.bias = param(np.zeros(out_ch))

    def __call__(self, x) -> Tensor:
        """The convolution of a (C, H, W) map, a (C, N, H, W) window, or a
        list of parts that hold the input channels (see ``tensor.conv2d``)."""
        return T.conv2d(x, self.weight, stride=self.stride, pad=self.pad, bias=self.bias)


class ConvTranspose2d(Module):
    """A stride-2, pad-1 transposed convolution: a 4 x 4 kernel doubles the size."""

    def __init__(self, in_ch: int, out_ch: int, k: int, rng: np.random.Generator):
        self.weight = kaiming(rng, (in_ch, out_ch, k, k), in_ch * k * k)
        self.bias = param(np.zeros(out_ch))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv_transpose2d(x, self.weight, stride=2, pad=1, bias=self.bias)


class LayerNorm(Module):
    """Layer norm over channels with ``tensor.layer_norm``'s eps of 1e-5."""

    def __init__(self, channels: int):
        self.gamma = param(np.ones(channels))
        self.beta = param(np.zeros(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


# ---------------------------------------------------------------------------
# checkpoints: one VSST tensor file per parameter plus a manifest
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.txt"


def _stage_of(name: str) -> str:
    return name.split(".", 1)[0]


def save_checkpoint(module: Module, directory) -> None:
    """Write every parameter as ``<directory>/<index>.vsst`` plus a manifest.

    Manifest lines are tab-separated: name, file, shape (comma-joined), stage.
    The files go to a sibling temporary directory that is renamed into place,
    so ``directory`` never holds a partial checkpoint; an existing one is
    moved aside first, so old and new tensors never mix.
    """
    directory = Path(directory)
    staging = directory.with_name(f".{directory.name}.partial")
    retired = directory.with_name(f".{directory.name}.old")
    for leftover in (staging, retired):  # from an earlier interrupted save
        shutil.rmtree(leftover, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        lines = []
        for i, (name, p) in enumerate(module.named_parameters()):
            fname = f"{i:04d}.vsst"
            T.save_tensor(p, staging / fname)
            shape = ",".join(str(s) for s in p.shape)
            lines.append(f"{name}\t{fname}\t{shape}\t{_stage_of(name)}")
        (staging / MANIFEST_NAME).write_text("\n".join(lines) + "\n")
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if directory.exists():
        directory.rename(retired)
    staging.rename(directory)
    shutil.rmtree(retired, ignore_errors=True)


def load_checkpoint(module: Module, directory) -> None:
    """Load parameters saved by :func:`save_checkpoint` into ``module`` in place.

    Every tensor is read and shape-checked before any parameter is assigned,
    so a checkpoint that fails to load leaves ``module`` unchanged.
    """
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    if not manifest.exists():
        raise ContractError(f"no checkpoint manifest at {manifest}")
    entries = {}
    for lineno, line in enumerate(manifest.read_text().splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ContractError(
                f"{manifest}:{lineno}: expected 4 tab-separated fields, got {len(fields)}"
            )
        if fields[0] in entries:
            raise ContractError(f"{manifest}:{lineno}: parameter {fields[0]} is "
                                f"already listed on line {entries[fields[0]][1]}")
        entries[fields[0]] = (fields[1], lineno)
    params = dict(module.named_parameters())
    missing = sorted(set(params) - set(entries))
    extra = sorted(set(entries) - set(params))
    if missing or extra:
        raise ContractError(
            f"checkpoint does not match the model (missing {missing[:4]}, "
            f"unexpected {extra[:4]})"
        )
    loaded = {}
    for name, (fname, lineno) in entries.items():
        try:
            tensor = T.load_tensor(directory / fname)
        except OSError as exc:
            raise ContractError(
                f"{manifest}:{lineno}: cannot read {fname} for {name} ({exc.strerror})"
            ) from None
        expect = params[name].shape
        if tensor.shape != expect:
            raise ContractError(
                f"parameter {name}: checkpoint shape {tensor.shape}, model {expect}"
            )
        loaded[name] = tensor.data
    for name, data in loaded.items():
        params[name].data = data
