"""Run configuration with flags > environment > config file > defaults."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

ENV_PREFIX = "STREAMDEG_"


@dataclass
class RunConfig:
    delta: float = 1.0
    tau: float = 2.0
    class_ratio: float = 0.1
    sigma_mult: float = 3.0
    grubbs_alpha: float = 0.05
    ks_alpha: float = 0.1
    two_sample_alpha: float = 0.1
    zero_majority: float = 0.5
    normalized: bool = False
    seed: int = 0
    ks_size_mode: str = "support-extent"  # or "observation-count"
    rollback_fit: str = "refit"  # or "frozen"
    threads: int = 1

    def validate(self) -> None:
        for name in ("delta", "tau", "class_ratio", "sigma_mult"):
            if not 0 < getattr(self, name) < math.inf:  # nan fails too
                raise ValueError(f"{name} must be finite and positive")
        for name in ("grubbs_alpha", "ks_alpha", "two_sample_alpha", "zero_majority"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.ks_size_mode not in ("support-extent", "observation-count"):
            raise ValueError(f"unknown ks_size_mode {self.ks_size_mode!r}")
        if self.rollback_fit not in ("refit", "frozen"):
            raise ValueError(f"unknown rollback_fit {self.rollback_fit!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind == "bool":
        if raw.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ValueError(f"{ENV_PREFIX}{name.upper()} must be 1/true/yes/on or 0/false/no/off, "
                             f"got {raw!r}")
        return raw.lower() in ("1", "true", "yes", "on")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


# the JSON types a config-file value may take, per field type; a bool is
# never an int here, and a float may be written as an int
_JSON_TYPES = {
    "bool": ((bool,), "true or false"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def load_config(
    config_path: str | Path | None = None,
    overrides: dict | None = None,
    environ: dict | None = None,
) -> RunConfig:
    """Merge defaults, config file, STREAMDEG_* environment and explicit
    overrides, lowest to highest precedence."""
    merged: dict = {}
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(_FIELD_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            allowed, expected = _JSON_TYPES[_FIELD_TYPES[name]]
            if type(value) not in allowed:
                raise ValueError(f"{name} must be {expected}, got {json.dumps(value)}")
        merged.update(data)
    env = os.environ if environ is None else environ
    for name in _FIELD_TYPES:
        key = ENV_PREFIX + name.upper()
        if key in env:
            merged[name] = _coerce(name, env[key])
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg
