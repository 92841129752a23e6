"""Run configuration: ``key = value`` lines, ``#`` comments, typed accessors.

Unknown keys are a hard error so that typos cannot silently fall back to
defaults. Every run logs its fully resolved configuration.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from .trainer import TrainConfig


def _bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# Keys beyond the optimizer config: data locations, model shape, run length.
RUN_KEYS: dict[str, tuple[type, Any]] = {
    "corpus": (str, None),
    "val_corpus": (str, ""),
    "tokenizer": (str, None),
    "out_dir": (str, None),
    "steps": (int, None),
    "layers": (int, None),
    "heads": (int, None),
    "head_dim": (int, None),
    "init_seed": (int, 0),
    "val_max_chunks": (int, 16),
}

TRAIN_KEYS: dict[str, type] = {
    f.name: f.type if isinstance(f.type, type) else {"int": int, "float": float, "bool": bool, "str": str}[f.type]
    for f in fields(TrainConfig)
}

_KEY_TYPES: dict[str, type] = {k: t for k, (t, _) in RUN_KEYS.items()} | TRAIN_KEYS


def _pair(text: str, types: dict[str, type]) -> tuple[str, Any]:
    """The typed ``key = value`` in ``text``; the key must be one of ``types``."""
    key, sep, raw = (s.strip() for s in text.partition("="))
    if not sep:
        raise ValueError("expected 'key = value'")
    if key not in types:
        raise ValueError(f"unknown config key {key!r}")
    typ = types[key]
    try:
        return key, _bool(raw) if typ is bool else typ(raw)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {raw!r} as {typ.__name__}") from exc


def parse_config(path: str) -> dict[str, Any]:
    values: dict[str, Any] = {k: d for k, (_, d) in RUN_KEYS.items()}
    seen = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                key, value = _pair(line, _KEY_TYPES)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if key in seen:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            seen.add(key)
            values[key] = value
    missing = [k for k, (_, d) in RUN_KEYS.items() if d is None and values.get(k) is None]
    if missing:
        raise ValueError(f"{path}: missing required keys: {missing}")
    return values


def parse_overrides(specs: list[str]) -> dict[str, Any]:
    """Typed training-config overrides from ``key=value`` strings."""
    return dict(_pair(spec, TRAIN_KEYS) for spec in specs)


def train_config_from(values: dict[str, Any]) -> TrainConfig:
    kwargs = {k: v for k, v in values.items() if k in TRAIN_KEYS}
    return TrainConfig(**kwargs)


def resolved_lines(values: dict[str, Any], cfg: TrainConfig) -> list[str]:
    out = [f"{k} = {values[k]}" for k in sorted(RUN_KEYS) if values.get(k) is not None]
    out += [f"{k} = {getattr(cfg, k)}" for k in sorted(TRAIN_KEYS)]
    return out
