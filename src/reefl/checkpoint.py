"""Flat binary checkpoint format for model parameters.

Layout (all integers little-endian):
    magic (8 bytes) | version u32 | config-blob length u32 | config blob
    then per tensor: name length u32 | name utf-8 | rank u32 | dims u32*rank
    | values float32

The config blob is the resolved ``key=value`` text needed to rebuild the
model (depth, dims, schedule, ...). Tensor order is sorted by name so the
file is byte-reproducible.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig, BackboneParams, BlockParams
from .errors import ConfigError, FormatError
from .federation import GlobalModel, named_global_tensors
from .numerics import Tensor
from .ree import ClassifierParams, ExitSchedule, ReeParams

CHECKPOINT_MAGIC = b"REEFLCK1"
CHECKPOINT_VERSION = 1
_U32 = struct.Struct("<I")


def _model_config_blob(model: GlobalModel) -> str:
    cfg, sched = model.config, model.schedule
    fields = {
        "depth": cfg.depth,
        "dim": cfg.dim,
        "heads": cfg.heads,
        "patch_size": cfg.patch_size,
        "num_classes": cfg.num_classes,
        "image_size": cfg.image_size,
        "image_channels": cfg.image_channels,
        "exit_blocks": ",".join(str(b) for b in sched.exit_blocks),
        "ree_everywhere": int(sched.ree_everywhere),
    }
    return "\n".join(f"{k}={v}" for k, v in fields.items())


def _decode(raw: bytes, offset: int, what: str) -> str:
    """UTF-8 text of ``raw``, which starts at byte ``offset`` of the file."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8 at offset {offset + exc.start}") from exc


def _parse_config_blob(raw: bytes, offset: int) -> tuple[BackboneConfig, ExitSchedule]:
    """Parse the config blob, which starts at byte ``offset`` of the file."""
    fields = {}
    pos = offset
    for line in raw.split(b"\n"):
        if line:
            key, sep, value = _decode(line, pos, "config blob").partition("=")
            if not sep:
                raise FormatError(f"config blob line without '=' at offset {pos}: {line!r}")
            fields[key] = value
        pos += len(line) + 1
    try:
        cfg = BackboneConfig(
            depth=int(fields["depth"]),
            dim=int(fields["dim"]),
            heads=int(fields["heads"]),
            patch_size=int(fields["patch_size"]),
            num_classes=int(fields["num_classes"]),
            image_size=int(fields["image_size"]),
            image_channels=int(fields["image_channels"]),
        )
        schedule = ExitSchedule(
            tuple(int(b) for b in fields["exit_blocks"].split(",")),
            cfg.depth,
            bool(int(fields["ree_everywhere"])),
        )
    except (KeyError, ValueError, ConfigError) as exc:
        raise FormatError(f"bad checkpoint config blob at offset {offset}: {exc}") from exc
    return cfg, schedule


def save_checkpoint(path, model: GlobalModel) -> None:
    blob = _model_config_blob(model).encode()
    tensors = named_global_tensors(model)
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


def load_named_tensors(path) -> tuple[dict, BackboneConfig, ExitSchedule]:
    """Read (name -> float32 array, backbone config, schedule)."""
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
    cfg, schedule = _parse_config_blob(blob[offset : offset + blob_len], offset)
    offset += blob_len

    tensors: dict[str, np.ndarray] = {}
    while offset < len(blob):
        name_len = read_u32()
        if len(blob) < offset + name_len:
            raise FormatError(f"truncated tensor name at offset {offset}")
        name = _decode(blob[offset : offset + name_len], offset, "tensor name")
        offset += name_len
        rank = read_u32()
        dims = tuple(read_u32() for _ in range(rank))
        count = math.prod(dims)  # Python ints: huge dims must not wrap around
        nbytes = 4 * count
        if len(blob) < offset + nbytes:
            raise FormatError(
                f"truncated tensor {name!r} at offset {offset}: expected {nbytes} bytes"
            )
        tensors[name] = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(dims).copy()
        offset += nbytes
    return tensors, cfg, schedule


def load_checkpoint(path) -> GlobalModel:
    """Rebuild a GlobalModel from a checkpoint file."""
    tensors, cfg, schedule = load_named_tensors(path)

    def take(name: str) -> Tensor:
        if name not in tensors:
            raise FormatError(f"checkpoint missing tensor {name!r}")
        return Tensor(tensors[name], requires_grad=True)

    blocks = []
    for l in range(1, cfg.depth + 1):
        blocks.append(
            BlockParams(**{f: take(f"block{l}.{f}") for f in BlockParams.__dataclass_fields__})
        )
    model = GlobalModel(
        backbone=BackboneParams(
            patch_embed=take("patch_embed"),
            pos_embed=take("pos_embed"),
            class_token=take("class_token"),
            blocks=blocks,
        ),
        ree=ReeParams(
            block=BlockParams(
                **{f: take(f"ree.{f}") for f in BlockParams.__dataclass_fields__}
            ),
            z_meta=take("ree.z_meta"),
            pos=take("ree.pos"),
        ),
        classifier=ClassifierParams(
            ln_gamma=take("classifier.ln_gamma"),
            ln_beta=take("classifier.ln_beta"),
            weight=take("classifier.weight"),
            bias=take("classifier.bias"),
        ),
        schedule=schedule,
        config=cfg,
    )
    return model


def describe_checkpoint(path) -> str:
    """Human-readable header + tensor listing for the inspect command."""
    tensors, cfg, schedule = load_named_tensors(path)
    lines = [
        f"backbone: depth={cfg.depth} dim={cfg.dim} heads={cfg.heads} "
        f"patch={cfg.patch_size} classes={cfg.num_classes} "
        f"image={cfg.image_channels}x{cfg.image_size}x{cfg.image_size}",
        f"schedule: exits={list(schedule.exit_blocks)} ree_everywhere={schedule.ree_everywhere}",
        f"tensors: {len(tensors)} ({sum(t.size for t in tensors.values())} parameters)",
    ]
    for name in sorted(tensors):
        t = tensors[name]
        lines.append(f"  {name}  shape={list(t.shape)}  mean={t.mean():+.4f}  std={t.std():.4f}")
    return "\n".join(lines)
