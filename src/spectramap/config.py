"""JSON config checks for the CLI and workflows; they raise ConfigError."""

from __future__ import annotations

import dataclasses
from typing import Optional

from .errors import ConfigError
from .pretreat import PretreatmentSpec


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def check_keys(cfg: dict, allowed, where: str) -> None:
    require(isinstance(cfg, dict), f"{where} must be a JSON object")
    unknown = sorted(set(cfg) - set(allowed))
    require(not unknown, f"unknown keys in {where}: {unknown}")


def spec_from(cls, cfg: dict, where: str, seed: Optional[int] = None):
    """Build a frozen spec dataclass from a JSON-style dict."""
    names = [f.name for f in dataclasses.fields(cls)]
    check_keys(cfg, names, where)
    kw = {k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()}
    if seed is not None and "seed" in names:
        kw.setdefault("seed", seed)
    try:
        return cls(**kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def pretreatment_spec(cfg: dict) -> PretreatmentSpec:
    check_keys(cfg, ("region", "baseline", "normalization", "exclusions"),
               "pretreatment")
    kw = dict(cfg)
    if isinstance(kw.get("region"), list):
        kw["region"] = tuple(kw["region"])
    if "exclusions" in kw:
        kw["exclusions"] = tuple(tuple(band) for band in kw["exclusions"])
    try:
        return PretreatmentSpec(**kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"pretreatment: {e}") from e
