import os
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import reefl
from reefl.cli import main
from reefl.config import parse_config
from reefl.errors import ConfigError
from reefl.training import TrainConfig


TINY = {
    "model.depth": 4, "model.dim": 8, "model.heads": 2, "model.patch_size": 4,
    "schedule.exit_blocks": "2,4",
    "data.per_class": 8, "data.image_size": 8,
    "federation.num_clients": 4, "federation.sample_fraction": 1.0,
    "federation.total_rounds": 3, "federation.eval_interval": 1,
    "train.batch_size": 8,
}


def tiny_args(out_dir, **extra):
    kw = dict(TINY)
    kw.update(extra)
    kw["output_dir"] = str(out_dir)
    return ["run"] + [f"--{k}={v}" for k, v in kw.items()]


# -- config parsing -----------------------------------------------------------


def test_defaults_match_published_settings():
    cfg = parse_config()
    assert cfg["train.batch_size"] == 32
    assert cfg["train.clip"] == 1.0
    assert cfg["train.zeta"] == 0.2
    assert cfg["train.tau"] == 1.0
    assert cfg["train.ramp_rounds"] == 300
    assert cfg["train.lr0"] == 5e-2
    assert cfg["train.lr_min"] == 1e-3
    assert cfg["train.local_epochs"] == 1
    assert cfg["train.mode"] == "full"


# by type, a valid value other than every train field's default: (config text, parsed value)
NON_DEFAULT = {bool: ("false", False), str: ("frozen", "frozen"), int: ("7", 7), float: ("0.5", 0.5)}


@pytest.mark.parametrize("f", [f for f in fields(TrainConfig) if f.name != "total_rounds"], ids=lambda f: f.name)
def test_every_train_field_is_a_config_key(f):
    raw, value = NON_DEFAULT[type(f.default)]
    assert parse_config()[f"train.{f.name}"] == f.default != value
    got = getattr(parse_config(overrides=[f"train.{f.name}={raw}"]).train_config(), f.name)
    assert got == value and type(got) is type(value)


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("train.lr0=0.02\ntrain.batch_size=16\n")
    cfg = parse_config(path, ["--train.lr0=0.01"])
    assert cfg["train.lr0"] == 0.01
    assert cfg["train.batch_size"] == 16


def test_every_k_expansion():
    cfg = parse_config(overrides=["schedule.every_k=3", "model.depth=12"])
    assert cfg.model_config().exit_blocks == (3, 6, 9, 12)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("train.learning_rate=1\n")
    with pytest.raises(ConfigError, match="train.learning_rate"):
        parse_config(path)
    with pytest.raises(ConfigError, match="nope"):
        parse_config(overrides=["nope=1"])


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="train.batch_size"):
        parse_config(overrides=["train.batch_size=many"])


def test_violated_invariant_rejected():
    with pytest.raises(ConfigError):
        parse_config(overrides=["federation.sample_fraction=0"])
    with pytest.raises(ConfigError):
        parse_config(overrides=["schedule.every_k=5"])  # depth 12 not divisible
    with pytest.raises(ConfigError):
        parse_config(overrides=["data.source=file"])  # missing path


def test_comments_and_blanks_ok(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\n\ntrain.tau=2.0  # inline\n")
    assert parse_config(path)["train.tau"] == 2.0


def test_resolved_text_roundtrip(tmp_path):
    cfg = parse_config(overrides=["train.lr0=0.01"])
    text = cfg.resolved_text()
    path = tmp_path / "resolved.cfg"
    path.write_text(text)
    cfg2 = parse_config(path)
    assert cfg2.values == cfg.values


# -- run command -----------------------------------------------------------------


def test_run_smoke_and_rerun_identical(tmp_path):
    import time

    out1, out2 = tmp_path / "a", tmp_path / "b"
    start = time.time()
    assert main(tiny_args(out1)) == 0
    assert time.time() - start < 60.0
    assert main(tiny_args(out2)) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "checkpoint.ckpt").exists()
    assert (out1 / "config.resolved").exists()
    header = (out1 / "metrics.csv").read_text().splitlines()[0]
    assert header == "round,exit_1_acc,exit_2_acc,mean_acc,train_loss_mean,bytes_up,bytes_down,eta,lr"


def test_run_invalid_config_exit_2_no_outputs(tmp_path, capsys):
    out = tmp_path / "bad"
    code = main(tiny_args(out, **{"federation.sample_fraction": 7}))
    assert code == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_attention_dump_counts(tmp_path):
    out = tmp_path / "run"
    assert main(tiny_args(out)) == 0
    ds = tmp_path / "toy.ds"
    assert main([
        "gen-data", "--output", str(ds), "--classes", "4", "--per-class", "3",
        "--image-size", "8", "--seed", "1",
    ]) == 0
    attn_csv = tmp_path / "attn.csv"
    assert main([
        "attention", "--checkpoint", str(out / "checkpoint.ckpt"),
        "--dataset", str(ds), "--samples", "0,5", "--output", str(attn_csv),
    ]) == 0
    lines = attn_csv.read_text().strip().splitlines()
    assert lines[0] == "sample_id,block,variant,token_index,weight"
    rows = [line.split(",") for line in lines[1:]]
    # ree everywhere: x, m, c per block per sample; 4 patch tokens each
    assert len(rows) == 2 * 4 * 3 * 4
    weights = {}
    for sid, block, variant, _, w in rows:
        weights.setdefault((sid, block, variant), 0.0)
        weights[(sid, block, variant)] += float(w)
    assert all(total <= 1.0 + 1e-5 for total in weights.values())


def test_attention_sample_out_of_range(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(tiny_args(out)) == 0
    ds = tmp_path / "toy.ds"
    main(["gen-data", "--output", str(ds), "--classes", "4", "--per-class", "1", "--image-size", "8"])
    code = main([
        "attention", "--checkpoint", str(out / "checkpoint.ckpt"),
        "--dataset", str(ds), "--samples", "99",
    ])
    assert code == 1
    assert "sample id" in capsys.readouterr().err


def test_inspect_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(tiny_args(out)) == 0
    assert main(["inspect-checkpoint", str(out / "checkpoint.ckpt")]) == 0
    text = capsys.readouterr().out
    assert "depth=4" in text and "ree.pos" in text


def test_gen_data_and_partition(tmp_path):
    ds = tmp_path / "toy.ds"
    assert main(["gen-data", "--output", str(ds), "--classes", "3", "--per-class", "20",
                 "--image-size", "8", "--seed", "3"]) == 0
    manifest = tmp_path / "parts.csv"
    assert main(["partition", "--dataset", str(ds), "--clients", "5",
                 "--alpha", "0.5", "--output", str(manifest)]) == 0
    lines = manifest.read_text().strip().splitlines()
    assert lines[0] == "client_id,example_index"
    assert len(lines) == 1 + 60


# -- malformed inputs end in an error line, never a traceback -----------------------


def run_cli(*args):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ, PYTHONPATH=str(Path(reefl.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "reefl.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def assert_clean_failure(proc, code, message):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0], proc.stderr


def checkpoint_header(blob: bytes) -> bytes:
    return b"REEFLCK1" + struct.pack("<II", 1, len(blob)) + blob  # blob starts at offset 16


def blob_line_without_equals(good):
    return checkpoint_header(b"depth=4\nnonsense\n"), "without '=' at offset 24"


def blob_bad_utf8(good):
    return checkpoint_header(b"depth=4\ndim=\xff8\n"), "config blob is not UTF-8 at offset 28"


def tensor_name_bad_utf8(good):
    at = good.index(b"classifier.")
    return good[:at] + b"\xff" + good[at + 1:], f"tensor name is not UTF-8 at offset {at}"


def tensor_dims_overflow_int64(good):
    (blob_len,) = struct.unpack_from("<I", good, 12)
    start = 16 + blob_len
    tensor = struct.pack("<I", 1) + b"x" + struct.pack("<4I", 3, 2**31, 2**31, 4)
    return good[:start] + tensor, f"truncated tensor 'x' at offset {start + 21}"


@pytest.mark.parametrize("corrupt", [
    blob_line_without_equals, blob_bad_utf8, tensor_name_bad_utf8, tensor_dims_overflow_int64,
])
def test_inspect_malformed_checkpoint_exit_1(tmp_path, corrupt):
    out = tmp_path / "run"
    assert main(tiny_args(out, **{"federation.total_rounds": 1})) == 0
    blob, message = corrupt((out / "checkpoint.ckpt").read_bytes())
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    assert_clean_failure(run_cli("inspect-checkpoint", str(bad)), 1, message)


@pytest.mark.parametrize("key", ["federation.threads", "train.kd_teacher_grad"])
def test_removed_keys_are_rejected(tmp_path, key):
    path = tmp_path / "exp.cfg"
    path.write_text(f"{key}=1\n")
    out = tmp_path / "out"
    proc = run_cli("run", "--config", str(path), f"--output_dir={out}")
    assert_clean_failure(proc, 2, f"unknown config key {key!r}")
    assert not out.exists()


def test_run_non_utf8_config_exit_2(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"train.lr0=0.01\ntrain.tau=\xff\n")
    out = tmp_path / "out"
    proc = run_cli("run", "--config", str(path), f"--output_dir={out}")
    assert_clean_failure(proc, 2, "not UTF-8 text (byte 25)")
    assert not out.exists()


def attention_inputs(tmp_path):
    """A one-round checkpoint and a dataset for the attention command."""
    out = tmp_path / "run"
    assert main(tiny_args(out, **{"federation.total_rounds": 1})) == 0
    ds = tmp_path / "toy.ds"
    assert main(["gen-data", "--output", str(ds), "--classes", "4", "--per-class", "1", "--image-size", "8"]) == 0
    return out / "checkpoint.ckpt", ds


def test_attention_misshapen_checkpoint_exit_1(tmp_path):
    from reefl.checkpoint import load_checkpoint
    from test_checkpoint import write_raw_checkpoint

    ckpt, ds = attention_inputs(tmp_path)
    model = load_checkpoint(ckpt)
    arrays = {name: t.data for name, t in model.params.items()}
    arrays["pos_embed"] = arrays["pos_embed"][:3]
    bad = tmp_path / "bad.ckpt"
    write_raw_checkpoint(bad, model, arrays)
    proc = run_cli("attention", "--checkpoint", str(bad), "--dataset", str(ds), "--samples", "0",
                   "--output", str(tmp_path / "attn.csv"))
    assert_clean_failure(proc, 1, "tensor 'pos_embed' has shape (3, 8), expected (5, 8)")


def test_attention_non_integer_sample_exit_2(tmp_path):
    ckpt, ds = attention_inputs(tmp_path)
    proc = run_cli("attention", "--checkpoint", str(ckpt), "--dataset", str(ds), "--samples", "a,1",
                   "--output", str(tmp_path / "attn.csv"))
    assert_clean_failure(proc, 2, "--samples must be comma-separated integers")
    assert not (tmp_path / "attn.csv").exists()


@pytest.mark.parametrize("override, message", [
    ("model.dim=0", "dim must be >= 1, got 0"),
    ("model.heads=0", "heads must be >= 1, got 0"),
    ("model.patch_size=0", "patch_size must be >= 1, got 0"),
    ("data.channels=0", "image_channels must be >= 1, got 0"),
    ("train.lr0=-1", "lr0 must be >= 0, got -1.0"),
    ("train.lr_min=-1", "lr_min must be >= 0, got -1.0"),
    ("train.eta_max=-1", "eta_max must be >= 0, got -1.0"),
    ("data.noise=inf", "bad value for 'data.noise' (override): inf is not finite"),
    ("train.tau=nan", "bad value for 'train.tau' (override): nan is not finite"),
    ("train.lr0=nan", "bad value for 'train.lr0' (override): nan is not finite"),
    ("data.alpha=nan", "bad value for 'data.alpha' (override): nan is not finite"),
    ("train.clip=inf", "bad value for 'train.clip' (override): inf is not finite"),
])
def test_run_out_of_range_value_exit_2(tmp_path, override, message):
    out = tmp_path / "out"
    proc = run_cli(*tiny_args(out), f"--{override}")
    assert_clean_failure(proc, 2, message)
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--image-size", "-2", "image_size must be >= 1, got -2"),
    ("--image-size", "0", "image_size must be >= 1, got 0"),
    ("--channels", "-1", "channels must be >= 1, got -1"),
    ("--channels", "0", "channels must be >= 1, got 0"),
    ("--noise", "nan", "noise must be finite, got nan"),
])
def test_gen_data_image_without_pixels_exit_2(tmp_path, flag, value, message):
    ds = tmp_path / "empty.ds"
    proc = run_cli("gen-data", "--output", str(ds), flag, value)
    assert_clean_failure(proc, 2, message)
    assert not ds.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_partition_non_finite_alpha_exit_2(tmp_path, alpha):
    ds, manifest = tmp_path / "toy.ds", tmp_path / "parts.csv"
    assert main(["gen-data", "--output", str(ds), "--classes", "3", "--per-class", "4", "--image-size", "8"]) == 0
    proc = run_cli("partition", "--dataset", str(ds), "--clients", "2", "--alpha", alpha, "--output", str(manifest))
    assert_clean_failure(proc, 2, f"Dirichlet concentration must be positive and finite, got {alpha}")
    assert not manifest.exists()


# -- images that do not match the model's shape ---------------------------------------


def test_run_file_dataset_of_other_image_size_exit_1(tmp_path):
    ds = tmp_path / "twelve.ds"
    assert main(["gen-data", "--output", str(ds), "--classes", "4", "--per-class", "8", "--image-size", "12"]) == 0
    proc = run_cli(*tiny_args(tmp_path / "out", **{
        "data.source": "file", "data.path": ds, "data.image_size": 16,
    }))
    assert_clean_failure(proc, 1, "images have [C,H,W] shape (1, 12, 12), but the model expects (1, 16, 16)")
    assert not (tmp_path / "out").exists()


def test_run_file_dataset_of_other_channels_exit_1_no_output(tmp_path):
    ds = tmp_path / "rgb.ds"
    assert main(["gen-data", "--output", str(ds), "--classes", "4", "--per-class", "8",
                 "--image-size", "8", "--channels", "3"]) == 0
    out = tmp_path / "out"
    proc = run_cli(*tiny_args(out, **{"data.source": "file", "data.path": ds}))
    assert_clean_failure(proc, 1, "dataset images have [C,H,W] shape (3, 8, 8), but the model expects (1, 8, 8)")
    assert not out.exists()


def test_attention_dataset_of_other_image_size_exit_1(tmp_path):
    ckpt, _ = attention_inputs(tmp_path)
    ds = tmp_path / "twelve.ds"
    assert main(["gen-data", "--output", str(ds), "--classes", "4", "--per-class", "1", "--image-size", "12"]) == 0
    proc = run_cli("attention", "--checkpoint", str(ckpt), "--dataset", str(ds), "--samples", "0",
                   "--output", str(tmp_path / "attn.csv"))
    assert_clean_failure(proc, 1, "images have [C,H,W] shape (1, 12, 12), but the model expects (1, 8, 8)")
