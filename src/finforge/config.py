"""Run configuration: ``key = value`` lines, ``#`` comments, typed accessors.

Unknown keys are a hard error so that typos cannot silently fall back to
defaults. Every run logs its fully resolved configuration.
"""

from __future__ import annotations

from dataclasses import MISSING
from typing import Any

from .atomic import read_lines
from .scaling import KINDS, ModelShape, check_key, declared
from .trainer import TrainConfig


def _bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _declared(cls, *names: str) -> dict[str, tuple[type, Any, str | None]]:
    """key -> (type, default or None, interval) of ``cls``'s declared ``names`` (or all)."""
    return {f.name: (KINDS[f.type], None if f.default is MISSING else f.default,
                     f.metadata["interval"]) for f in declared(cls) if not names or f.name in names}


# Keys beyond the optimizer config: data locations, model shape, run length.
# key -> (type, default, interval), as ``TrainConfig`` and ``ModelShape``
# declare their fields; a default of None makes the key required.
RUN_KEYS: dict[str, tuple[type, Any, str | None]] = {
    "corpus": (str, None, None),
    "val_corpus": (str, "", None),
    "tokenizer": (str, None, None),
    "out_dir": (str, None, None),
    "steps": (int, None, "[1, inf)"),
    **_declared(ModelShape, "layers", "heads", "head_dim"),
    "init_seed": (int, 0, "[0, inf)"),  # numpy's rule for a seed
    "val_max_chunks": (int, 16, "[1, inf)"),
}

TRAIN_KEYS = _declared(TrainConfig)

KEYS = RUN_KEYS | TRAIN_KEYS


def _pair(text: str, keys: dict[str, tuple]) -> tuple[str, Any]:
    """The typed ``key = value`` in ``text``; the key must be one of ``keys``."""
    key, sep, raw = (s.strip() for s in text.partition("="))
    if not sep:
        raise ValueError("expected 'key = value'")
    if key not in keys:
        raise ValueError(f"unknown config key {key!r}")
    typ = keys[key][0]
    try:
        return key, _bool(raw) if typ is bool else typ(raw)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {raw!r} as {typ.__name__}") from exc


def parse_config(path: str) -> dict[str, Any]:
    """Every key's value, each checked against its type and interval."""
    values: dict[str, Any] = {k: d for k, (_, d, _) in RUN_KEYS.items()}
    seen = set()
    for lineno, line in read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, value = _pair(line, KEYS)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if key in seen:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        values[key] = value
    missing = [k for k, (_, d, _) in RUN_KEYS.items() if d is None and values.get(k) is None]
    if missing:
        raise ValueError(f"{path}: missing required keys: {missing}")
    try:
        for key, value in values.items():
            check_key(key, value, KEYS[key][0], KEYS[key][2])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
