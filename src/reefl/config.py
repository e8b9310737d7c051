"""Experiment configuration: flat key=value files with dotted sections.

Every knob has a registered type and default; unknown keys are rejected.
Values from a file are overridden by CLI-style ``key=value`` pairs, and the
fully resolved configuration can be echoed back out for reproducibility.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .backbone import ModelConfig
from .data import DEFAULT_NOISE
from .errors import ConfigError
from .training import TrainConfig


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw: str) -> tuple:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(part) for part in raw.split(","))


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


_PARSERS = {int: int, float: float, bool: _parse_bool, str: lambda s: s.strip(), tuple: _parse_int_list}

# Every TrainConfig field but total_rounds (federation.total_rounds) is a train.* key.
_TRAIN_FIELDS = [f for f in fields(TrainConfig) if f.name != "total_rounds"]
_TRAIN_TYPES = get_type_hints(TrainConfig)

# key -> (type, default)
REGISTRY: dict[str, tuple] = {
    "seed": (int, 0),
    "output_dir": (str, "runs/exp"),
    "model.depth": (int, 12),
    "model.dim": (int, 32),
    "model.heads": (int, 4),
    "model.patch_size": (int, 4),
    "model.num_classes": (int, 4),
    "schedule.every_k": (int, 3),
    "schedule.exit_blocks": (tuple, ()),
    "schedule.ree_everywhere": (bool, True),
    "schedule.modulation_enabled": (bool, True),
    **{f"train.{f.name}": (_TRAIN_TYPES[f.name], f.default) for f in _TRAIN_FIELDS},
    "federation.num_clients": (int, 20),
    "federation.sample_fraction": (float, 0.1),
    "federation.total_rounds": (int, 100),
    "federation.eval_interval": (int, 10),
    "federation.exclude_underbudget": (bool, False),
    "data.source": (str, "synthetic"),
    "data.path": (str, ""),
    "data.num_classes": (int, 4),
    "data.per_class": (int, 100),
    "data.image_size": (int, 16),
    "data.channels": (int, 1),
    "data.noise": (float, DEFAULT_NOISE),
    "data.alpha": (float, 1.0),
    "data.split_ratio": (float, 0.8),
}


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    # -- derived build objects -------------------------------------------

    def model_config(self) -> ModelConfig:
        depth, blocks = self["model.depth"], self["schedule.exit_blocks"]
        if not blocks:
            k = self["schedule.every_k"]
            if k < 1 or depth % k != 0:
                raise ConfigError(f"depth {depth} is not a multiple of exit stride {k}")
            blocks = tuple(range(k, depth + 1, k))
        return ModelConfig(
            depth=depth,
            dim=self["model.dim"],
            heads=self["model.heads"],
            patch_size=self["model.patch_size"],
            num_classes=self["model.num_classes"],
            image_size=self["data.image_size"],
            image_channels=self["data.channels"],
            exit_blocks=blocks,
            ree_everywhere=self["schedule.ree_everywhere"],
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            total_rounds=self["federation.total_rounds"],
            **{f.name: self[f"train.{f.name}"] for f in _TRAIN_FIELDS},
        )

    def validate(self) -> None:
        model = self.model_config()
        self.train_config()
        if self["data.source"] not in ("synthetic", "file"):
            raise ConfigError(f"data.source must be 'synthetic' or 'file', got {self['data.source']!r}")
        if self["data.source"] == "file" and not self["data.path"]:
            raise ConfigError("data.path required when data.source=file")
        if self["data.source"] == "synthetic":
            if self["data.num_classes"] != self["model.num_classes"]:
                raise ConfigError(
                    "data.num_classes must match model.num_classes "
                    f"({self['data.num_classes']} vs {self['model.num_classes']})"
                )
        if not 0 < self["federation.sample_fraction"] <= 1:
            raise ConfigError("federation.sample_fraction must be in (0, 1]")
        if self["federation.eval_interval"] < 1:
            raise ConfigError("federation.eval_interval must be >= 1")
        if self["federation.num_clients"] < model.num_exits:
            raise ConfigError(
                f"federation.num_clients={self['federation.num_clients']} is fewer than "
                f"{model.num_exits} exits"
            )
        if not 0 < self["data.split_ratio"] < 1:
            raise ConfigError("data.split_ratio must be in (0, 1)")

    def resolved_text(self) -> str:
        lines = [f"{key}={format_value(self.values[key])}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"


def _set_value(values: dict, key: str, raw: str, origin: str) -> None:
    if key not in REGISTRY:
        raise ConfigError(f"unknown config key {key!r} ({origin})")
    typ, _ = REGISTRY[key]
    try:
        values[key] = _PARSERS[typ](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r} ({origin}): {exc}") from exc
    if typ is float and not math.isfinite(values[key]):
        raise ConfigError(f"bad value for {key!r} ({origin}): {values[key]} is not finite")
    # config.resolved must read back the same value: one line, no comment start
    if typ is str and (len(values[key].splitlines()) > 1 or re.search(r"\s#", values[key])):
        raise ConfigError(f"bad value for {key!r} ({origin}): {values[key]!r} holds a line break or ' #'")


def parse_config(path=None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Defaults, then file, then overrides; validates the result.

    ``overrides`` entries look like "train.lr0=0.01".
    """
    values = {key: default for key, (_, default) in REGISTRY.items()}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text (byte {exc.start})") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()  # "#" inside a value is kept
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed line {lineno} in {path}: {line!r}")
            key, raw = line.split("=", 1)
            _set_value(values, key.strip(), raw, origin=f"{path}:{lineno}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"malformed override {item!r}, expected key=value")
        key, raw = item.split("=", 1)
        _set_value(values, key.strip(), raw, origin="override")
    cfg = ExperimentConfig(values)
    cfg.validate()
    return cfg
