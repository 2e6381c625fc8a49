"""Run configuration: a flat, typed key-value file with sections.

Each section is a dataclass: its fields are the section's keys, each field's
default gives the value's type, and its ``__post_init__`` holds the range
checks, so a value fails the same check from a file or a constructor call.
Unknown sections or keys are hard errors (they are almost always typos), and
the single seed in ``[train]`` feeds every RNG stream in the run.
``VSSENHANCE_SEED`` in the environment overrides the configured seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
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

    def __post_init__(self):
        require = ConfigurationError.require
        require(0 < self.lr <= 1, "lr", "in (0, 1]", self.lr)
        require(self.steps >= 0, "steps", ">= 0", self.steps)
        require(0 <= self.seed < 2**64, "seed", "a 64-bit unsigned integer", self.seed)
        require(self.batch >= 1, "batch", ">= 1", self.batch)
        require(self.checkpoint_every >= 1, "checkpoint_every", ">= 1", self.checkpoint_every)
        require(0 <= self.weight_decay < 1, "weight_decay", "in [0, 1)", self.weight_decay)


@dataclass
class DataPaths:
    low_dir: str = ""
    gt_dir: str = ""
    checkpoint_dir: str = "checkpoints"

    def __post_init__(self):
        ConfigurationError.require(self.checkpoint_dir != "", "checkpoint_dir", "non-empty",
                                   self.checkpoint_dir)


@dataclass
class RunConfig:
    model: EnhanceNetConfig = field(default_factory=EnhanceNetConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    data: DataPaths = field(default_factory=DataPaths)


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


def _parse_int_tuple(raw: str, key: str) -> tuple[int, ...]:
    parts = [part.strip() for part in raw.split(",")]
    if "" in parts:
        raise ConfigurationError(f"{key}: empty item in the list {raw!r}")
    return tuple(_parse_int(part, key) for part in parts)


# a field's parser, by the type of its default
_PARSERS = {int: _parse_int, float: _parse_float, tuple: _parse_int_tuple,
            str: lambda raw, key: raw}


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text; unknown and repeated keys are
    hard errors."""
    sections = {f.name: f.default_factory for f in fields(RunConfig)}
    keys = {name: {f.name: f for f in fields(cls)} for name, cls in sections.items()}
    values: dict[str, dict[str, object]] = {name: {} for name in sections}
    first_line: dict[tuple[str, str], int] = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                raise ConfigurationError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {raw_line!r}")
        if section is None:
            raise ConfigurationError(f"line {lineno}: key outside of any [section]")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in keys[section]:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r} in [{section}]")
        first = first_line.setdefault((section, key), lineno)
        if first != lineno:
            raise ConfigurationError(
                f"line {lineno}: [{section}] {key} is already set on line {first}"
            )
        parse = _PARSERS[type(keys[section][key].default)]
        values[section][key] = parse(raw_value, f"[{section}] {key}")

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:  # before TrainSettings checks the seed's range
        values["train"]["seed"] = _parse_int(env_seed, SEED_ENV_VAR)
    built = {}
    for name, cls in sections.items():
        try:
            built[name] = cls(**values[name])
        except ConfigurationError as exc:
            raise ConfigurationError(f"[{name}] {exc}") from None
    return RunConfig(**built)


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
