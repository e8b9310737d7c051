"""Flat binary checkpoint format for model parameters.

Layout (all integers little-endian):
    magic (8 bytes) | version u32 | config-blob length u32 | config blob
    then per tensor: name length u32 | name utf-8 | rank u32 | dims u32*rank
    | values float32

The config blob holds one ``key=value`` line per ``ModelConfig`` field, in
field order: a tuple is written comma-joined and a bool as 0 or 1. The
tensors are the model's flat parameter dict, sorted by name so the file is
byte-reproducible. A repeated tensor name or a NaN or Inf value is a
``FormatError``, as is a missing, unknown or misshapen tensor for the
layout that the config blob implies.
"""
from __future__ import annotations

import math
import struct
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .backbone import ModelConfig
from .errors import ConfigError, FormatError
from .federation import Model, init_global_model
from .numerics import Tensor

CHECKPOINT_MAGIC = b"REEFLCK1"
CHECKPOINT_VERSION = 1
_U32 = struct.Struct("<I")

_FIELD_TYPES = get_type_hints(ModelConfig)
_ENCODE = {tuple: lambda v: ",".join(str(b) for b in v), bool: lambda v: str(int(v)), int: str}
_DECODE = {tuple: lambda s: tuple(int(b) for b in s.split(",")), bool: lambda s: bool(int(s)), int: int}


def _model_config_blob(config: ModelConfig) -> str:
    return "\n".join(
        f"{f.name}={_ENCODE[_FIELD_TYPES[f.name]](getattr(config, f.name))}" for f in fields(ModelConfig)
    )


def _decode(raw: bytes, offset: int, what: str) -> str:
    """UTF-8 text of ``raw``, which starts at byte ``offset`` of the file."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8 at offset {offset + exc.start}") from exc


def _parse_config_blob(raw: bytes, offset: int) -> ModelConfig:
    """Parse the config blob, which starts at byte ``offset`` of the file."""
    values = {}
    pos = offset
    for line in raw.split(b"\n"):
        if line:
            key, sep, value = _decode(line, pos, "config blob").partition("=")
            if not sep:
                raise FormatError(f"config blob line without '=' at offset {pos}: {line!r}")
            values[key] = value
        pos += len(line) + 1
    try:
        return ModelConfig(
            **{f.name: _DECODE[_FIELD_TYPES[f.name]](values[f.name]) for f in fields(ModelConfig)}
        )
    except (KeyError, ValueError, ConfigError) as exc:
        raise FormatError(f"bad checkpoint config blob at offset {offset}: {exc}") from exc


def save_checkpoint(path, model: Model) -> None:
    blob = _model_config_blob(model.config).encode()
    tensors = model.params
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(_U32.pack(CHECKPOINT_VERSION))
        f.write(_U32.pack(len(blob)))
        f.write(blob)
        for name in sorted(tensors):
            data = tensors[name].data.astype("<f4")
            encoded = name.encode()
            f.write(_U32.pack(len(encoded)))
            f.write(encoded)
            f.write(_U32.pack(data.ndim))
            for dim in data.shape:
                f.write(_U32.pack(dim))
            f.write(data.tobytes())


def load_named_tensors(path) -> tuple[dict, ModelConfig]:
    """Read (name -> float32 array, model config)."""
    blob = Path(path).read_bytes()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic at offset 0: {blob[:8]!r}")
    offset = len(CHECKPOINT_MAGIC)

    def read_u32() -> int:
        nonlocal offset
        if len(blob) < offset + 4:
            raise FormatError(f"truncated checkpoint at offset {offset}")
        (value,) = _U32.unpack_from(blob, offset)
        offset += 4
        return value

    version = read_u32()
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    blob_len = read_u32()
    if len(blob) < offset + blob_len:
        raise FormatError(f"truncated config blob at offset {offset}")
    cfg = _parse_config_blob(blob[offset : offset + blob_len], offset)
    offset += blob_len

    tensors: dict[str, np.ndarray] = {}
    while offset < len(blob):
        name_len = read_u32()
        if len(blob) < offset + name_len:
            raise FormatError(f"truncated tensor name at offset {offset}")
        name = _decode(blob[offset : offset + name_len], offset, "tensor name")
        if name in tensors:
            raise FormatError(f"repeated tensor {name!r} at offset {offset - 4}")
        offset += name_len
        rank = read_u32()
        dims = tuple(read_u32() for _ in range(rank))
        count = math.prod(dims)  # Python ints: huge dims must not wrap around
        nbytes = 4 * count
        if len(blob) < offset + nbytes:
            raise FormatError(
                f"truncated tensor {name!r} at offset {offset}: expected {nbytes} bytes"
            )
        values = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(values).all():
            raise FormatError(f"tensor {name!r} holds NaN or Inf at offset {offset + 4 * np.isfinite(values).argmin()}")
        tensors[name] = values.reshape(dims).copy()
        offset += nbytes
    return tensors, cfg


def load_checkpoint(path) -> Model:
    """Rebuild the global model, checking every tensor against the config's layout."""
    tensors, cfg = load_named_tensors(path)
    layout = init_global_model(cfg, np.random.default_rng(0)).params  # names and shapes only
    unknown = sorted(set(tensors) - set(layout))
    if unknown:
        raise FormatError(f"checkpoint holds unknown tensor {unknown[0]!r}")
    params = {}
    for name, expected in layout.items():
        if name not in tensors:
            raise FormatError(f"checkpoint missing tensor {name!r}")
        found = tensors[name]
        if found.shape != expected.shape:
            raise FormatError(f"tensor {name!r} has shape {found.shape}, expected {expected.shape}")
        params[name] = Tensor(found, requires_grad=True)
    return Model(params, cfg, cfg.depth)


def describe_checkpoint(path) -> str:
    """The config header as written (one ``key=value`` line per field), then the tensor listing."""
    tensors, cfg = load_named_tensors(path)
    lines = [
        _model_config_blob(cfg),
        f"tensors: {len(tensors)} ({sum(t.size for t in tensors.values())} parameters)",
    ]
    for name in sorted(tensors):
        t = tensors[name]
        lines.append(f"  {name}  shape={list(t.shape)}  mean={t.mean():+.4f}  std={t.std():.4f}")
    return "\n".join(lines)
