import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import label_entropy
from reefl.data import (
    examples,
    lda_partition,
    load_dataset,
    save_dataset,
    split_train_test,
    synth_dataset,
    write_partition_manifest,
)
from reefl.errors import ConfigError, FormatError, PartitionError, SplitError


def labels_of(examples):
    return np.array([ex.label for ex in examples])


def test_synth_counts_per_label():
    data = synth_dataset(4, 100, image_size=8, rng=np.random.default_rng(0))
    assert len(data) == 400
    hist = np.bincount(labels_of(data), minlength=4)
    np.testing.assert_array_equal(hist, 100)


def test_synth_zero_noise_identical_within_class():
    data = synth_dataset(3, 5, image_size=8, noise=0.0, rng=np.random.default_rng(1))
    for k in range(3):
        imgs = [ex.image for ex in data if ex.label == k]
        for img in imgs[1:]:
            np.testing.assert_array_equal(img, imgs[0])


def test_synth_deterministic():
    a = synth_dataset(4, 10, rng=np.random.default_rng(7))
    b = synth_dataset(4, 10, rng=np.random.default_rng(7))
    for ea, eb in zip(a, b):
        np.testing.assert_array_equal(ea.image, eb.image)
        assert ea.label == eb.label


def test_synth_matches_per_example_draws():
    # reference: one base draw, then one noise draw per example, class by class
    rng = np.random.default_rng(3)
    bases = rng.uniform(0.0, 1.0, size=(3, 2, 4, 4))
    want = [(bases[k] + 0.3 * rng.standard_normal((2, 4, 4)), k) for k in range(3) for _ in range(5)]
    data = synth_dataset(3, 5, image_size=4, channels=2, noise=0.3, rng=np.random.default_rng(3))
    for ex, (img, label) in zip(data, want, strict=True):
        np.testing.assert_array_equal(ex.image, (np.round(np.clip(img, 0, 1) * 255.0) / 255.0).astype(np.float32))
        assert ex.label == label


def test_synth_pixels_in_unit_range():
    data = synth_dataset(2, 20, noise=0.8, rng=np.random.default_rng(2))
    for ex in data:
        assert ex.image.min() >= 0.0 and ex.image.max() <= 1.0


def test_synth_centralized_learnability():
    # calibration check: a 2-block model must clear 80% within 200 epochs
    from reefl.backbone import ModelConfig
    from reefl.federation import evaluate, init_global_model
    from reefl.ree import forward_with_exits
    from reefl.training import TrainConfig, cosine_lr, exit_ce_losses, sgd_step, trainable_tensors

    data = synth_dataset(4, 40, image_size=16, rng=np.random.default_rng(20))
    train, test = split_train_test(data, 0.8, np.random.default_rng(21))
    cfg = ModelConfig(depth=2, dim=32, heads=4, patch_size=4, num_classes=4,
                      image_size=16, image_channels=1, exit_blocks=(2,))
    model = init_global_model(cfg, np.random.default_rng(22))
    view = model
    tcfg = TrainConfig(total_rounds=200, batch_size=32, kd_enabled=False)
    trainable = trainable_tensors(view, "full")
    for t in trainable.values():
        t.requires_grad = True
    rng = np.random.default_rng(23)
    best = 0.0
    for epoch in range(1, 201):
        order = rng.permutation(len(train))
        for start in range(0, len(train), tcfg.batch_size):
            idx = order[start:start + tcfg.batch_size]
            images = np.stack([train[i].image for i in idx])
            labels = np.array([train[i].label for i in idx])
            trace = forward_with_exits(view, images)
            exit_ce_losses(trace, labels)[0].backward()
            sgd_step(trainable.values(), cosine_lr(epoch, tcfg), tcfg.clip)
        if epoch % 20 == 0:
            best = max(best, float(evaluate(model, test)[0]))
            if best > 0.85:
                break
    assert best > 0.8, f"centralized accuracy only {best:.3f}"


# -- partition ----------------------------------------------------------------


def test_partition_exhaustive_and_disjoint():
    rng = np.random.default_rng(3)
    for trial in range(25):
        n_classes = int(rng.integers(2, 6))
        labels = rng.integers(0, n_classes, size=int(rng.integers(50, 300)))
        num_clients, alpha = int(rng.integers(2, 12)), float(rng.uniform(0.05, 50))
        parts = lda_partition(labels, num_clients, alpha, seed=trial)
        assert len(parts) == num_clients
        flat = sorted(i for p in parts for i in p)
        assert flat == list(range(len(labels)))
        assert all(len(p) >= 1 for p in parts)


def test_partition_near_iid_at_high_alpha():
    per_client_dev = []
    for seed in range(10):
        labels = np.repeat(np.arange(4), 200)
        parts = lda_partition(labels, 10, 1000.0, seed=seed)
        for p in parts:
            hist = np.bincount([labels[i] for i in p], minlength=4)
            expected = len(p) / 4
            per_client_dev.append(np.abs(hist - expected).max() / expected)
    assert float(np.mean(per_client_dev)) < 0.2


def test_partition_highly_skewed_at_low_alpha():
    shares = []
    for seed in range(20):
        labels = np.repeat(np.arange(4), 100)
        parts = lda_partition(labels, 10, 0.01, seed=seed)
        for p in parts:
            hist = np.bincount([labels[i] for i in p], minlength=4)
            shares.append(hist.max() / hist.sum())
    assert float(np.median(shares)) > 0.9


def test_partition_entropy_monotone_in_alpha():
    means = []
    for alpha in (0.1, 1.0, 1000.0):
        vals = []
        for seed in range(20):
            labels = np.repeat(np.arange(4), 100)
            parts = lda_partition(labels, 10, alpha, seed=seed)
            for p in parts:
                hist = np.bincount([labels[i] for i in p], minlength=4)
                vals.append(label_entropy(hist))
        means.append(float(np.mean(vals)))
    assert means[0] <= means[1] <= means[2]


def test_partition_rejects_too_few_examples():
    with pytest.raises(PartitionError):
        lda_partition(np.array([0, 1]), 3, 1.0)


def test_partition_spec_validation():
    with pytest.raises(ConfigError):
        lda_partition(np.array([0, 1]), 0, 1.0)
    with pytest.raises(ConfigError):
        lda_partition(np.array([0, 1]), 2, 0.0)


# -- split ----------------------------------------------------------------------


def test_split_sizes():
    data = synth_dataset(2, 5, image_size=8, rng=np.random.default_rng(4))
    train, test = split_train_test(data, 0.8, np.random.default_rng(5))
    assert len(train) == 8 and len(test) == 2


def test_split_minimum_test_guarantee():
    data = synth_dataset(2, 1, image_size=8, rng=np.random.default_rng(6))
    train, test = split_train_test(data, 0.8, np.random.default_rng(7))
    assert len(train) == 1 and len(test) == 1


def test_split_disjoint_exhaustive():
    data = synth_dataset(3, 7, image_size=8, rng=np.random.default_rng(8))
    data.label = np.arange(len(data))  # each example named by its label
    train, test = split_train_test(data, 0.8, np.random.default_rng(9))
    np.testing.assert_array_equal(np.sort(np.concatenate([train.label, test.label])), data.label)
    for part in (train, test):
        np.testing.assert_array_equal(part.image, data.image[part.label])


def test_split_too_small():
    data = synth_dataset(2, 1, image_size=8, rng=np.random.default_rng(10))
    with pytest.raises(SplitError):
        split_train_test(data[:1], 0.8, np.random.default_rng(11))


# -- disk format ----------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    data = synth_dataset(4, 6, image_size=8, rng=np.random.default_rng(12))
    path = tmp_path / "toy.ds"
    save_dataset(path, data, num_classes=4)
    loaded = load_dataset(path)
    assert len(loaded) == len(data)
    for a, b in zip(data, loaded):
        assert a.label == b.label
        np.testing.assert_array_equal(a.image, b.image)


def test_dataset_truncated_file(tmp_path):
    data = synth_dataset(2, 3, image_size=8, rng=np.random.default_rng(13))
    path = tmp_path / "toy.ds"
    save_dataset(path, data, num_classes=2)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(FormatError, match="expected"):
        load_dataset(path)


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "bad.ds"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
    with pytest.raises(FormatError, match="offset 0"):
        load_dataset(path)


def test_dataset_label_out_of_range(tmp_path):
    data = synth_dataset(2, 2, image_size=8, rng=np.random.default_rng(14))
    path = tmp_path / "toy.ds"
    save_dataset(path, data, num_classes=2)
    blob = bytearray(path.read_bytes())
    blob[28] = 9  # first record's label low byte (magic 8 + header 20)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="label"):
        load_dataset(path)


def test_pixel_scaling_endpoints(tmp_path):
    img = np.zeros((1, 4, 4), dtype=np.float32)
    img[0, 0, 0] = 1.0
    path = tmp_path / "px.ds"
    save_dataset(path, examples(np.stack([img, img]), [0, 1]), num_classes=2)
    loaded = load_dataset(path)
    assert loaded[0].image[0, 0, 0] == 1.0
    assert loaded[0].image[0, 1, 1] == 0.0


def _benchmark_writer():
    """``write_dataset`` of the benchmark harness, a REEFLDS1 writer that shares no code with ``save_dataset``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.write_dataset


@pytest.mark.parametrize("channels", [1, 3])
def test_save_dataset_rewrites_the_bytes_of_an_independent_writer(tmp_path, channels):
    path, again = tmp_path / "bench.ds", tmp_path / "again.ds"
    overrides = {"data.source": "file", "data.path": str(path), "model.num_classes": 3,
                 "data.per_class": 5, "data.image_size": 8, "data.channels": channels}
    _benchmark_writer()(path, overrides, 11)
    save_dataset(again, load_dataset(path), num_classes=3)
    assert again.read_bytes() == path.read_bytes()


def test_partition_manifest(tmp_path):
    path = tmp_path / "manifest.csv"
    write_partition_manifest(path, [[0, 2], [1]])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "client_id,example_index"
    assert lines[1:] == ["0,0", "0,2", "1,1"]
