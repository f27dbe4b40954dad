"""Runtime configuration: built-in defaults, optional config file, CLI flags.

Precedence: command-line flags > the JSON file named by the
``PHOTONIC_LAB_CONFIG`` environment variable > the defaults below.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

ENV_VAR = "PHOTONIC_LAB_CONFIG"


@dataclass
class LabConfig:
    verify_tolerance: float = 1e-9
    optimizer_restarts: int = 32
    optimizer_penalty: float = 1e3  # parsed but unused; perfbench/worker.py reads it
    optimizer_seed: int = 0
    sweep_seed: int = 20260811


def positive_float(value) -> float:
    """A finite number > 0, such as a tolerance."""
    x = math.nan if isinstance(value, bool) else float(value)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"must be a positive finite number, got {value!r}")
    return x


def _integer(value, least: int, what: str) -> int:
    text = str(value)
    if isinstance(value, bool) or not text.isdecimal() or int(text) < least:
        raise ValueError(f"must be a {what} integer, got {value!r}")
    return int(text)


def non_negative_int(value) -> int:
    """An integer >= 0, such as a count of random inputs."""
    return _integer(value, 0, "non-negative")


def positive_int(value) -> int:
    """An integer > 0, such as a count of restarts."""
    return _integer(value, 1, "positive")


#: the parser of every config key
_PARSERS = {
    "verify_tolerance": positive_float,
    "optimizer_restarts": positive_int,
    "optimizer_penalty": positive_float,
    "optimizer_seed": non_negative_int,
    "sweep_seed": non_negative_int,
}


def load_config(path: str | None = None) -> LabConfig:
    """Defaults overlaid with the config file, if one is configured."""
    cfg = LabConfig()
    path = path if path is not None else os.environ.get(ENV_VAR)
    if not path:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # invalid JSON, or an integer past Python's digit limit
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object")
    for key, value in data.items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r} in {path}")
        try:
            if isinstance(value, str):  # the parsers take a flag's text; a file holds numbers
                raise ValueError(f"must be a JSON number, got {value!r}")
            setattr(cfg, key, _PARSERS[key](value))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key!r} in {path}: {exc}") from None
    return cfg
