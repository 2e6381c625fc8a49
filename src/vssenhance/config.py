"""Run configuration: a flat, typed key-value file with sections.

Unknown sections or keys are hard errors (they are almost always typos), every
value is range-checked, and the single seed in ``[train]`` feeds every RNG
stream in the run.  ``VSSENHANCE_SEED`` in the environment overrides the
configured seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .enhance import EnhanceNetConfig
from .tensor import ConfigurationError

SEED_ENV_VAR = "VSSENHANCE_SEED"


@dataclass
class TrainSettings:
    lr: float = 1e-3
    steps: int = 500
    seed: int = 0
    batch: int = 1
    checkpoint_every: int = 100
    weight_decay: float = 0.0


@dataclass
class DataPaths:
    low_dir: str = ""
    gt_dir: str = ""
    checkpoint_dir: str = "checkpoints"


@dataclass
class Preprocess:
    adapt_color: bool = False


@dataclass
class RunConfig:
    model: EnhanceNetConfig = field(default_factory=EnhanceNetConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    data: DataPaths = field(default_factory=DataPaths)
    preprocess: Preprocess = field(default_factory=Preprocess)


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected a number, got {raw!r}") from None


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigurationError(f"{key}: expected a boolean, got {raw!r}")


def _parse_int_tuple(raw: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigurationError(f"{key}: expected comma-separated integers, got {raw!r}") from None


# section -> key -> (parser, validator, message)
_SCHEMA = {
    "model": {
        "input_frames": (_parse_int, lambda v: v >= 1 and v % 2 == 1, "a positive odd integer"),
        "feature_channels": (_parse_int, lambda v: v >= 1, ">= 1"),
        "base_channels": (_parse_int, lambda v: v >= 1, ">= 1"),
        "state_dim": (_parse_int, lambda v: v >= 1, ">= 1"),
        "num_scales": (_parse_int, lambda v: 1 <= v <= 6, "between 1 and 6"),
        "encoder_depths": (_parse_int_tuple, lambda v: all(d >= 1 for d in v), "depths >= 1"),
        "decoder_depths": (_parse_int_tuple, lambda v: all(d >= 1 for d in v), "depths >= 1"),
        "bottleneck_depth": (_parse_int, lambda v: v >= 1, ">= 1"),
        "ffn_ratio": (_parse_int, lambda v: v >= 1, ">= 1"),
    },
    "train": {
        "lr": (_parse_float, lambda v: 0 < v <= 1, "in (0, 1]"),
        "steps": (_parse_int, lambda v: v >= 0, ">= 0"),
        "seed": (_parse_int, lambda v: 0 <= v < 2**64, "a 64-bit unsigned integer"),
        "batch": (_parse_int, lambda v: v >= 1, ">= 1"),
        "checkpoint_every": (_parse_int, lambda v: v >= 1, ">= 1"),
        "weight_decay": (_parse_float, lambda v: 0 <= v < 1, "in [0, 1)"),
    },
    "data": {
        "low_dir": (str.strip, lambda v: True, ""),
        "gt_dir": (str.strip, lambda v: True, ""),
        "checkpoint_dir": (str.strip, lambda v: v != "", "non-empty"),
    },
    "preprocess": {
        "adapt_color": (_parse_bool, lambda v: True, ""),
    },
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text; unknown and repeated keys are
    hard errors."""
    values: dict[str, dict[str, object]] = {s: {} for s in _SCHEMA}
    first_line: dict[tuple[str, str], int] = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigurationError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {raw_line!r}")
        if section is None:
            raise ConfigurationError(f"line {lineno}: key outside of any [section]")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        schema = _SCHEMA[section]
        if key not in schema:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r} in [{section}]")
        first = first_line.setdefault((section, key), lineno)
        if first != lineno:
            raise ConfigurationError(
                f"line {lineno}: [{section}] {key} is already set on line {first}"
            )
        parser, validate, requirement = schema[key]
        value = parser(raw_value, f"[{section}] {key}") if parser is not str.strip else raw_value.strip()
        if not validate(value):
            raise ConfigurationError(f"[{section}] {key} must be {requirement}, got {value!r}")
        values[section][key] = value

    cfg = RunConfig(
        model=EnhanceNetConfig(**values["model"]),
        train=TrainSettings(**values["train"]),
        data=DataPaths(**values["data"]),
        preprocess=Preprocess(**values["preprocess"]),
    )
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        cfg.train.seed = _parse_int(env_seed, SEED_ENV_VAR)
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"config file {path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    return parse_config(text)
