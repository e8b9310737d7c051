import os
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import reefl
from reefl import cli, federation
from reefl.cli import main
from reefl.config import parse_config
from reefl.errors import ConfigError
from reefl.helper import _blas_threads
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
    # a "#" that neither begins a line nor follows whitespace is part of the value
    cfg = parse_config(overrides=["train.lr0=0.01", "output_dir=runs/exp#1", "data.path=data/a#b.ds"])
    text = cfg.resolved_text()
    path = tmp_path / "resolved.cfg"
    path.write_text(text)
    cfg2 = parse_config(path)
    assert cfg2.values == cfg.values
    assert (cfg2["output_dir"], cfg2["data.path"]) == ("runs/exp#1", "data/a#b.ds")
    # a value that would read back otherwise (cut at " #", or split into lines) is refused
    for value in ("runs/a #1", "runs/a\t#1", "runs/a\nseed=5", "runs/a\rseed=5"):
        with pytest.raises(ConfigError, match="output_dir"):
            parse_config(overrides=[f"output_dir={value}"])
    assert main(["run", "--output_dir=runs/a #1"]) == 2


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


class Stop(BaseException):
    """Not an ``Exception``, as a hook's own stop signal may be, so ``main`` lets it through."""


def stop_in_round(monkeypatch, stop_round, before_stop=lambda: None):
    """Make ``federation.run_round`` call ``before_stop`` and raise ``Stop`` in ``stop_round``."""
    run = federation.run_round

    def stopping_round(state, round_t):
        if round_t == stop_round:
            before_stop()
            raise Stop
        return run(state, round_t)

    monkeypatch.setattr(federation, "run_round", stopping_round)


def test_rows_are_on_disk_while_the_run_goes_on(tmp_path, monkeypatch):
    assert main(tiny_args(tmp_path / "whole", **{"federation.total_rounds": 5})) == 0
    whole = (tmp_path / "whole" / "metrics.csv").read_bytes()
    metrics = tmp_path / "cut" / "metrics.csv"
    seen = []
    stop_in_round(monkeypatch, 4, lambda: seen.append(metrics.read_bytes() if metrics.exists() else None))
    with pytest.raises(Stop):
        main(tiny_args(tmp_path / "cut", **{"federation.total_rounds": 5}))
    assert seen[0] is not None, "no metrics.csv on disk in round 4"
    lines = seen[0].decode().splitlines()
    assert lines[0].startswith("round,") and [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
    assert whole.startswith(seen[0]) and seen[0].endswith(b"\n")
    assert metrics.read_bytes() == seen[0]  # the stopped run leaves its rows as they were


def test_rerun_that_stops_leaves_no_earlier_checkpoint(tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert main(tiny_args(out)) == 0
    assert (out / "checkpoint.ckpt").exists()
    stop_in_round(monkeypatch, 2)
    with pytest.raises(Stop):
        main(tiny_args(out))
    assert not (out / "checkpoint.ckpt").exists()
    assert [line.split(",")[0] for line in (out / "metrics.csv").read_text().splitlines()] == ["round", "1"]


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


def cli_env() -> dict:
    """The environment of a CLI subprocess: this checkout's package, and a
    numpy RuntimeWarning is an error, as it is in this test process."""
    return dict(
        os.environ,
        PYTHONPATH=str(Path(reefl.__file__).resolve().parents[1]),
        PYTHONWARNINGS="error::RuntimeWarning",
    )


def run_cli(*args, stdout=subprocess.PIPE):
    """Run the CLI in a fresh interpreter, as a user would."""
    return subprocess.run(
        [sys.executable, "-m", "reefl.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120,
    )


def assert_clean_failure(proc, code, message):
    """Exit ``code``, and stderr is exactly one ``error:`` line holding ``message``."""
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0], proc.stderr


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


def last_tensor_repeated(good):
    start = good.rindex(struct.pack("<I", len("ree.z_meta")) + b"ree.z_meta")
    return good + good[start:], f"repeated tensor 'ree.z_meta' at offset {len(good)}"


def last_value_inf(good):
    at = len(good) - 4
    return good[:at] + struct.pack("<f", float("inf")), f"tensor 'ree.z_meta' holds NaN or Inf at offset {at}"


@pytest.mark.parametrize("corrupt", [
    blob_line_without_equals, blob_bad_utf8, tensor_name_bad_utf8, tensor_dims_overflow_int64,
    last_tensor_repeated, last_value_inf,
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


def test_run_missing_config_exit_2(tmp_path):
    path = tmp_path / "missing.cfg"
    out = tmp_path / "out"
    proc = run_cli("run", "--config", str(path), f"--output_dir={out}")
    assert_clean_failure(proc, 2, f"cannot read config file {path}: No such file or directory")
    assert not out.exists()


def test_run_non_utf8_config_exit_2(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"train.lr0=0.01\ntrain.tau=\xff\n")
    out = tmp_path / "out"
    proc = run_cli("run", "--config", str(path), f"--output_dir={out}")
    assert_clean_failure(proc, 2, "not UTF-8 text (byte 25)")
    assert not out.exists()


def attention_inputs(tmp_path, **extra):
    """A one-round checkpoint and a dataset for the attention command."""
    out = tmp_path / "run"
    assert main(tiny_args(out, **{"federation.total_rounds": 1, **extra})) == 0
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


def test_attention_overflowing_checkpoint_exit_1(tmp_path):
    # With no evaluation round, a diverging run writes its checkpoint and exits 0.
    ckpt, ds = attention_inputs(tmp_path, **{"train.lr0": 1e30, "federation.eval_interval": 2})
    proc = run_cli("attention", "--checkpoint", str(ckpt), "--dataset", str(ds), "--samples", "0",
                   "--output", str(tmp_path / "attn.csv"))
    assert_clean_failure(proc, 1, "operation produced NaN or Inf")


def test_inspect_checkpoint_into_a_closed_pipe_exits_1_quietly(tmp_path):
    ckpt, _ = attention_inputs(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli("inspect-checkpoint", str(ckpt), stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


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
    ("data.image_size=0", "image_size must be >= 1, got 0"),
    ("federation.num_clients=1", "federation.num_clients=1 is fewer than 2 exits"),
    ("data.split_ratio=1", "data.split_ratio must be in (0, 1)"),
    ("data.alpha=0", "Dirichlet concentration must be positive and finite, got 0.0"),
])
def test_run_out_of_range_value_exit_2(tmp_path, override, message):
    out = tmp_path / "out"
    proc = run_cli(*tiny_args(out), f"--{override}")
    assert_clean_failure(proc, 2, message)
    assert not out.exists()


def test_run_divergence_found_by_evaluation_exit_1(tmp_path):
    # lr0=1e30 drives the weights past what a float32 forward can hold
    # after the first step; the first evaluation is what meets it.
    proc = run_cli(*tiny_args(tmp_path / "out"), "--train.lr0=1e30")
    assert_clean_failure(proc, 1, "non-finite output evaluating the global model after round 1")


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


def test_run_file_dataset_with_more_classes_than_model_exit_2(tmp_path):
    ds = tmp_path / "six.ds"
    assert main(["gen-data", "--output", str(ds), "--classes", "6", "--per-class", "8", "--image-size", "8"]) == 0
    out = tmp_path / "out"
    proc = run_cli(*tiny_args(out, **{"data.source": "file", "data.path": ds, "model.num_classes": 4}))
    assert_clean_failure(proc, 2, "dataset has 6 classes but model.num_classes=4")
    assert not out.exists()


def test_run_file_dataset_bad_label_exit_1(tmp_path):
    ds = tmp_path / "toy.ds"
    assert main(["gen-data", "--output", str(ds), "--classes", "4", "--per-class", "8", "--image-size", "8"]) == 0
    blob = bytearray(ds.read_bytes())
    record = 4 + 8 * 8  # label, then the pixels
    at = 8 + 20 + 2 * record  # the third record, after magic and header
    blob[at] = 9
    ds.write_bytes(bytes(blob))
    out = tmp_path / "out"
    proc = run_cli(*tiny_args(out, **{"data.source": "file", "data.path": ds}))
    assert_clean_failure(proc, 1, f"label 9 >= 4 classes at offset {at}")
    assert not out.exists()


def test_attention_dataset_of_other_image_size_exit_1(tmp_path):
    ckpt, _ = attention_inputs(tmp_path)
    ds = tmp_path / "twelve.ds"
    assert main(["gen-data", "--output", str(ds), "--classes", "4", "--per-class", "1", "--image-size", "12"]) == 0
    proc = run_cli("attention", "--checkpoint", str(ckpt), "--dataset", str(ds), "--samples", "0",
                   "--output", str(tmp_path / "attn.csv"))
    assert_clean_failure(proc, 1, "images have [C,H,W] shape (1, 12, 12), but the model expects (1, 8, 8)")


# -- memory -------------------------------------------------------------------------

# cross_silo's shapes (d=64 on 65 tokens, one client per budget), evaluated every round
WIDE = {
    "model.depth": 8, "model.dim": 64, "model.heads": 4, "model.patch_size": 4,
    "model.num_classes": 4, "schedule.every_k": 2,
    "data.num_classes": 4, "data.per_class": 32, "data.image_size": 32,
    "data.alpha": 100.0, "data.split_ratio": 0.25, "train.batch_size": 4,
    "federation.num_clients": 4, "federation.sample_fraction": 1.0,
    "federation.total_rounds": 3, "federation.eval_interval": 1,
}

# ``reefl run`` as is ("pinned"), or with ``pin_heap`` a no-op ("unpinned"); it
# prints the exit status and the minor page faults taken during ``main`` by
# the run itself and by its helper, which count once the helper is reaped.
COUNT_FAULTS = """
import resource, sys
from reefl import cli
if sys.argv[1] == "unpinned":
    cli.pin_heap = lambda: None
faults = lambda who: resource.getrusage(who).ru_minflt
own, children = faults(resource.RUSAGE_SELF), faults(resource.RUSAGE_CHILDREN)
code = cli.main(sys.argv[2:])
print(code, faults(resource.RUSAGE_SELF) - own, faults(resource.RUSAGE_CHILDREN) - children)
"""


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.fixture(scope="module")
def heap_arms(tmp_path_factory):
    """The same run, unpinned and pinned, each in a fresh interpreter: its
    output directory and its minor faults, {arm: {"run": n, "helper": n}}."""
    if not on_glibc():
        pytest.skip("mallopt is glibc's")
    tmp = tmp_path_factory.mktemp("heap")
    script = tmp / "count_faults.py"
    script.write_text(COUNT_FAULTS)
    faults = {}
    for arm in ("unpinned", "pinned"):
        args = ["run"] + [f"--{k}={v}" for k, v in {**WIDE, "output_dir": tmp / arm}.items()]
        proc = subprocess.run([sys.executable, str(script), arm, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        code, own, helper = (int(v) for v in proc.stdout.split()[-3:])
        assert code == 0, proc.stderr
        faults[arm] = {"run": own, "helper": helper}
    return tmp, faults


helper_forks = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 or _blas_threads() is None,
    reason="one CPU, or no BLAS thread-count setter: no helper starts",
)


@pytest.mark.parametrize("process", ["run", pytest.param("helper", marks=helper_forks)])
def test_pinned_heap_halves_the_page_faults(heap_arms, process):
    _, faults = heap_arms
    assert faults["pinned"][process] <= faults["unpinned"][process] / 2, faults


def test_pinned_heap_keeps_the_bits(heap_arms):
    tmp, _ = heap_arms
    for name in ("metrics.csv", "checkpoint.ckpt"):
        assert (tmp / "pinned" / name).read_bytes() == (tmp / "unpinned" / name).read_bytes(), name


def confstr_raises(monkeypatch):
    def confstr(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "confstr", confstr)


@pytest.mark.parametrize("off_glibc", [confstr_raises, lambda mp: mp.delattr(os, "confstr")],
                         ids=["confstr_raises", "no_confstr"])
def test_run_off_glibc_leaves_malloc_alone(tmp_path, monkeypatch, off_glibc):
    assert main(tiny_args(tmp_path / "pinned")) == 0
    off_glibc(monkeypatch)
    monkeypatch.setattr(cli, "ctypes", None)  # a run that reached for mallopt would fail
    assert main(tiny_args(tmp_path / "off")) == 0
    for name in ("metrics.csv", "checkpoint.ckpt"):
        assert (tmp_path / "off" / name).read_bytes() == (tmp_path / "pinned" / name).read_bytes(), name
