"""Synthetic classification data, Dirichlet client partitioning, and disk IO.

An example set is one record array (``examples``) with an ``image`` field
([C,H,W] float32 in [0,1]) and a ``label`` field (int64); clients, test
sets and batches are index selections or slices of one.

Images are class-conditional base patterns plus Gaussian pixel noise,
quantized to the 8-bit grid so that the on-disk uint8 format round-trips
exactly. Client splits use the common label-Dirichlet construction: one
proportion vector per client, normalized per class.
"""
from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, PartitionError, SplitError

DATASET_MAGIC = b"REEFLDS1"
_HEADER = struct.Struct("<5i")  # K, C, H, W, N
MAX_PARTITION_RETRIES = 100
DEFAULT_NOISE = 0.25


def examples(images, labels) -> np.recarray:
    """The example set of ``images`` [N,C,H,W] and their ``labels`` [N]."""
    images = np.asarray(images, dtype=np.float32)
    out = np.recarray(len(images), dtype=[("image", np.float32, images.shape[1:]), ("label", np.int64)])
    out.image, out.label = images, labels
    return out


def _file_records(shape: tuple) -> np.dtype:
    """One on-disk record: a little-endian int32 label, then the uint8 pixels."""
    return np.dtype([("label", "<i4"), ("pixels", np.uint8, shape)])


def _quantize(pixels: np.ndarray) -> np.ndarray:
    return (np.round(np.clip(pixels, 0.0, 1.0) * 255.0) / 255.0).astype(np.float32)


def synth_dataset(
    num_classes: int,
    per_class: int,
    image_size: int = 16,
    channels: int = 1,
    noise: float = DEFAULT_NOISE,
    rng: np.random.Generator | None = None,
) -> np.recarray:
    """Class-conditional patterns + pixel noise, quantized to uint8 levels,
    in class order; one noise draw, class-major."""
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
    noisy = bases[:, None] + noise * rng.standard_normal((num_classes, per_class) + shape)
    return examples(_quantize(noisy).reshape((-1,) + shape), np.repeat(np.arange(num_classes), per_class))


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
            out[client].extend(chunk.tolist())
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


def split_train_test(data: np.recarray, ratio: float, rng: np.random.Generator):
    """Shuffled disjoint split; at least one example lands on each side."""
    n = len(data)
    if n < 2:
        raise SplitError(f"cannot split {n} example(s) into train and test")
    order = rng.permutation(n)
    train_size = min(int(np.ceil(ratio * n)), n - 1)
    return data[order[:train_size]], data[order[train_size:]]


# -- on-disk format -------------------------------------------------------------


def save_dataset(path, data: np.recarray, num_classes: int) -> None:
    if not len(data):
        raise ConfigError("refusing to write an empty dataset")
    shape = data.image.shape[1:]
    records = np.empty(len(data), dtype=_file_records(shape))
    records["label"] = data.label
    records["pixels"] = np.round(data.image * 255.0).astype(np.uint8)
    Path(path).write_bytes(DATASET_MAGIC + _HEADER.pack(num_classes, *shape, len(data)) + records.tobytes())


def load_dataset(path) -> np.recarray:
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
    record = _file_records((c, h, w))
    expected = offset + n * record.itemsize
    if len(blob) != expected:
        raise FormatError(
            f"truncated at offset {len(blob)}: expected {expected} bytes total, got {len(blob)}"
        )
    records = np.frombuffer(blob, dtype=record, count=n, offset=offset)
    labels = records["label"]
    bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if bad.size:
        i = bad[0]
        raise FormatError(f"label {labels[i]} >= {num_classes} classes at offset {offset + i * record.itemsize}")
    return examples(records["pixels"].astype(np.float32) / 255.0, labels)


def write_partition_manifest(path, assignment: list[list[int]]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["client_id", "example_index"])
        for client, indices in enumerate(assignment):
            for i in indices:
                writer.writerow([client, i])
