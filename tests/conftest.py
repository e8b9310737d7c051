import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from reefl.backbone import ModelConfig
from reefl.federation import Model, init_global_model


def make_view(
    depth=4,
    dim=8,
    heads=2,
    image=8,
    patch=4,
    classes=4,
    exit_blocks=None,
    ree_everywhere=True,
    budget=None,
    seed=0,
    dtype=np.float32,
):
    cfg = ModelConfig(
        depth=depth, dim=dim, heads=heads, patch_size=patch,
        num_classes=classes, image_size=image, image_channels=1,
        exit_blocks=tuple(exit_blocks) if exit_blocks else tuple(range(1, depth + 1)),
        ree_everywhere=ree_everywhere,
    )
    model = init_global_model(cfg, np.random.default_rng(seed), dtype=dtype)
    return Model(model.params, cfg, budget if budget is not None else depth)


def label_entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


@pytest.fixture
def view_factory():
    return make_view


@contextmanager
def traced_memory():
    """Trace allocations for the block; yields ``measure(fn, *args, **kwargs)``,
    which runs ``fn`` and returns ``(start, peak)``: the traced bytes when
    ``fn`` started and the most traced at any moment while it ran."""

    def measure(fn, *args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return start, tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        yield measure
    finally:
        tracemalloc.stop()
