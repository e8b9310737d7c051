"""Synthetic classification data, Dirichlet client partitioning, and disk IO.

Images are class-conditional base patterns plus Gaussian pixel noise,
quantized to the 8-bit grid so that the on-disk uint8 format round-trips
exactly. Client splits use the common label-Dirichlet construction: one
proportion vector per client, normalized per class.
"""
from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, PartitionError, SplitError

DATASET_MAGIC = b"REEFLDS1"
_HEADER = struct.Struct("<5i")  # K, C, H, W, N
_LABEL = struct.Struct("<i")
MAX_PARTITION_RETRIES = 100
DEFAULT_NOISE = 0.25


@dataclass
class Example:
    image: np.ndarray  # [C,H,W] float32 in [0,1]
    label: int


def _quantize(pixels: np.ndarray) -> np.ndarray:
    return (np.round(np.clip(pixels, 0.0, 1.0) * 255.0) / 255.0).astype(np.float32)


def synth_dataset(
    num_classes: int,
    per_class: int,
    image_size: int = 16,
    channels: int = 1,
    noise: float = DEFAULT_NOISE,
    rng: np.random.Generator | None = None,
) -> list[Example]:
    """Class-conditional patterns + pixel noise, quantized to uint8 levels."""
    if num_classes < 2:
        raise ConfigError("need at least 2 classes")
    for name, value in (("image_size", image_size), ("channels", channels)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if not np.isfinite(noise):
        raise ConfigError(f"noise must be finite, got {noise}")
    rng = rng or np.random.default_rng(0)
    shape = (channels, image_size, image_size)
    bases = rng.uniform(0.0, 1.0, size=(num_classes,) + shape)
    examples = []
    for k in range(num_classes):
        for _ in range(per_class):
            img = bases[k] + noise * rng.standard_normal(shape)
            examples.append(Example(image=_quantize(img), label=k))
    return examples


def _assign_by_proportions(class_indices, proportions, rng) -> list[list[int]]:
    num_clients = proportions.shape[0]
    out = [[] for _ in range(num_clients)]
    for k, idx in enumerate(class_indices):
        idx = idx.copy()
        rng.shuffle(idx)
        weights = proportions[:, k]
        weights = weights / weights.sum()
        cuts = (np.cumsum(weights) * len(idx)).astype(int)[:-1]
        for client, chunk in enumerate(np.split(idx, cuts)):
            out[client].extend(int(i) for i in chunk)
    return out


def lda_partition(labels, num_clients: int, alpha: float, seed: int = 0) -> list[list[int]]:
    """Split example indices across ``num_clients`` clients with label-Dirichlet skew.

    Every index is assigned exactly once. Clients that come out empty have
    their proportion vector redrawn (bounded retries).
    """
    if num_clients < 1:
        raise ConfigError("need at least one client")
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ConfigError(f"Dirichlet concentration must be positive and finite, got {alpha}")
    labels = np.asarray(labels)
    n = len(labels)
    if n < num_clients:
        raise PartitionError(f"{n} examples cannot cover {num_clients} clients")
    num_classes = int(labels.max()) + 1
    class_indices = [np.where(labels == k)[0] for k in range(num_classes)]
    rng = np.random.default_rng(seed)
    proportions = rng.dirichlet(alpha * np.ones(num_classes), size=num_clients)
    for _ in range(MAX_PARTITION_RETRIES):
        assignment = _assign_by_proportions(class_indices, proportions, rng)
        empty = [c for c, idx in enumerate(assignment) if not idx]
        if not empty:
            return assignment
        proportions[empty] = rng.dirichlet(alpha * np.ones(num_classes), size=len(empty))
    raise PartitionError(
        f"could not give every one of {num_clients} clients an example "
        f"after {MAX_PARTITION_RETRIES} redraws (alpha={alpha})"
    )


def split_train_test(examples: list, ratio: float, rng: np.random.Generator):
    """Shuffled disjoint split; at least one example lands on each side."""
    n = len(examples)
    if n < 2:
        raise SplitError(f"cannot split {n} example(s) into train and test")
    order = rng.permutation(n)
    train_size = min(int(np.ceil(ratio * n)), n - 1)
    train = [examples[i] for i in order[:train_size]]
    test = [examples[i] for i in order[train_size:]]
    return train, test


# -- on-disk format -------------------------------------------------------------


def save_dataset(path, examples: list, num_classes: int) -> None:
    if not examples:
        raise ConfigError("refusing to write an empty dataset")
    c, h, w = examples[0].image.shape
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(_HEADER.pack(num_classes, c, h, w, len(examples)))
        for ex in examples:
            f.write(_LABEL.pack(ex.label))
            f.write(np.round(ex.image * 255.0).astype(np.uint8).tobytes())


def load_dataset(path) -> list[Example]:
    """Read the record format; raises FormatError with the byte offset."""
    blob = Path(path).read_bytes()
    if blob[: len(DATASET_MAGIC)] != DATASET_MAGIC:
        raise FormatError(f"bad magic at offset 0: {blob[:8]!r}")
    offset = len(DATASET_MAGIC)
    if len(blob) < offset + _HEADER.size:
        raise FormatError(
            f"truncated header at offset {offset}: expected {_HEADER.size} bytes, got {len(blob) - offset}"
        )
    num_classes, c, h, w, n = _HEADER.unpack_from(blob, offset)
    offset += _HEADER.size
    if min(num_classes, c, h, w, n) < 1:
        raise FormatError(f"invalid header fields at offset {len(DATASET_MAGIC)}")
    record = _LABEL.size + c * h * w
    expected = offset + n * record
    if len(blob) != expected:
        raise FormatError(
            f"truncated at offset {len(blob)}: expected {expected} bytes total, got {len(blob)}"
        )
    records = np.frombuffer(
        blob, dtype=[("label", "<i4"), ("pixels", np.uint8, (c, h, w))], count=n, offset=offset
    )
    labels = records["label"]
    bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if bad.size:
        i = bad[0]
        raise FormatError(f"label {labels[i]} >= {num_classes} classes at offset {offset + i * record}")
    images = records["pixels"].astype(np.float32) / 255.0
    return [Example(image=image, label=int(label)) for image, label in zip(images, labels)]


def write_partition_manifest(path, assignment: list[list[int]]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["client_id", "example_index"])
        for client, indices in enumerate(assignment):
            for i in indices:
                writer.writerow([client, i])
