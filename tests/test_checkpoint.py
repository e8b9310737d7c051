import hashlib
import re
import struct

import numpy as np
import pytest

from reefl.backbone import ModelConfig
from reefl.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    _model_config_blob,
    describe_checkpoint,
    load_checkpoint,
    load_named_tensors,
    save_checkpoint,
)
from reefl.errors import FormatError
from reefl.federation import init_global_model


def make_model(seed=0):
    cfg = ModelConfig(depth=4, dim=8, heads=2, patch_size=4, num_classes=4,
                      image_size=8, image_channels=1, exit_blocks=(2, 4))
    return init_global_model(cfg, np.random.default_rng(seed))


def test_checkpoint_roundtrip(tmp_path):
    model = make_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    want = model.params
    got = loaded.params
    assert set(want) == set(got)
    for name in want:
        np.testing.assert_array_equal(want[name].data, got[name].data, err_msg=name)
    assert loaded.config == model.config


def test_checkpoint_header_follows_config_fields(tmp_path):
    cfg = ModelConfig(depth=4, dim=8, heads=2, patch_size=4, num_classes=4, image_size=8,
                      image_channels=3, exit_blocks=(1, 3, 4), ree_everywhere=False)
    model = init_global_model(cfg, np.random.default_rng(7))
    assert _model_config_blob(model.config) == (
        "depth=4\ndim=8\nheads=2\npatch_size=4\nnum_classes=4\nimage_size=8\n"
        "image_channels=3\nexit_blocks=1,3,4\nree_everywhere=0"
    )
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.params["ree.pos"].shape == (4, 8)


def test_checkpoint_byte_reproducible(tmp_path):
    model = make_model(seed=1)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, model)
    save_checkpoint(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTREEFL" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_named_tensors(path)


def test_checkpoint_truncation(tmp_path):
    model = make_model(seed=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError, match="truncated"):
        load_named_tensors(path)


def test_describe_lists_tensors(tmp_path):
    model = make_model(seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    text = describe_checkpoint(path)
    assert "depth=4" in text and "classifier.weight" in text and "ree.z_meta" in text


# sha256 of the checkpoint of make_model(seed=0): pins the tensor names, their
# order, shapes, the initialization draw order and the float32 encoding
GOLDEN_SHA256 = "030252d7bf81fe9c96ebfe8193aaa793f7a3f1e7e7ef44bf7a9d51d0e635ab84"


def test_checkpoint_bytes_match_golden_digest(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_model(seed=0))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256


def tensor_record(name, data) -> bytes:
    u32 = struct.Struct("<I").pack
    data = np.asarray(data, dtype="<f4")
    out = [u32(len(name.encode())), name.encode(), u32(data.ndim)]
    return b"".join(out + [u32(d) for d in data.shape] + [data.tobytes()])


def write_raw_checkpoint(path, model, tensors):
    """A checkpoint of ``model``'s config blob holding exactly ``tensors``, in their order."""
    blob = _model_config_blob(model.config).encode()
    out = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(blob)), blob]
    path.write_bytes(b"".join(out + [tensor_record(name, data) for name, data in tensors.items()]))


def model_arrays(model):
    return {name: t.data for name, t in model.params.items()}


@pytest.mark.parametrize("name, cut", [("pos_embed", np.s_[:3]), ("ree.pos", np.s_[:, :3])])
def test_load_rejects_misshapen_tensor(tmp_path, name, cut):
    model = make_model(seed=4)
    arrays = model_arrays(model)
    expected = arrays[name].shape
    arrays[name] = arrays[name][cut]
    path = tmp_path / "model.ckpt"
    write_raw_checkpoint(path, model, arrays)
    want = f"tensor {name!r} has shape {arrays[name].shape}, expected {expected}"
    with pytest.raises(FormatError, match=re.escape(want)):
        load_checkpoint(path)


def test_load_rejects_unknown_tensor(tmp_path):
    model = make_model(seed=5)
    arrays = model_arrays(model)
    arrays["block7.wq"] = arrays["block1.wq"]
    path = tmp_path / "model.ckpt"
    write_raw_checkpoint(path, model, arrays)
    with pytest.raises(FormatError, match="unknown tensor 'block7.wq'"):
        load_checkpoint(path)


def test_load_rejects_missing_tensor(tmp_path):
    model = make_model(seed=6)
    arrays = model_arrays(model)
    del arrays["classifier.bias"]
    path = tmp_path / "model.ckpt"
    write_raw_checkpoint(path, model, arrays)
    with pytest.raises(FormatError, match="missing tensor 'classifier.bias'"):
        load_checkpoint(path)


def test_load_rejects_repeated_tensor(tmp_path):
    model = make_model(seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    good = path.read_bytes()
    last = tensor_record("ree.z_meta", model.params["ree.z_meta"].data)
    assert good.endswith(last)  # names are written sorted
    path.write_bytes(good + last)
    for load in (load_named_tensors, load_checkpoint):
        with pytest.raises(FormatError, match=f"repeated tensor 'ree.z_meta' at offset {len(good)}$"):
            load(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_value(tmp_path, value):
    model = make_model(seed=8)
    arrays = model_arrays(model)
    arrays["classifier.bias"] = arrays["classifier.bias"].copy()
    arrays["classifier.bias"][2] = value
    path = tmp_path / "model.ckpt"
    write_raw_checkpoint(path, model, arrays)
    # the value's offset: past the name, its rank and one dim, then two values
    at = path.read_bytes().index(b"classifier.bias") + len("classifier.bias") + 4 + 4 + 4 * 2
    with pytest.raises(FormatError, match=f"tensor 'classifier.bias' holds NaN or Inf at offset {at}$"):
        load_checkpoint(path)
