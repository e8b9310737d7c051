"""Command-line front-end: run experiments, dump diagnostics, manage data.

Subcommands: run, attention, inspect-checkpoint, gen-data, partition.
Config values come from an optional key=value file, then from ``run``'s own
options: one per config key, given as ``--train.lr0=0.01`` or ``--train.lr0
0.01``; the other subcommands take none. Exit status: 0 on success, 2 for a
config or usage error, 1 for any other ``ReeflError`` or ``OSError``. A
failure of the program's own prints exactly one ``error:`` line; an argparse
usage error prints a ``usage:`` line before its ``error:`` line. ``run`` may
share its work with one helper process, forked from it in round 1 (see
``federation.wants_helper``); the outputs are the same bits. ``run`` flushes
each evaluated round's ``metrics.csv`` row as the round ends and writes
``checkpoint.ckpt`` after the last, so a failed or killed run keeps
``config.resolved`` and its rows.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import describe_checkpoint, load_checkpoint, save_checkpoint
from .config import REGISTRY, format_value, parse_config
from .data import lda_partition, load_dataset, save_dataset, synth_dataset, write_partition_manifest
from .errors import ConfigError, InputError, ReeflError
from .federation import build_server, run_rounds, wants_helper, write_metrics_csv
from .helper import Helper
from .ree import attention_maps, forward_with_exits

# a run's glibc malloc settings: mallopt's M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3)
TRIM_THRESHOLD = 256 << 20
MMAP_THRESHOLD = 64 << 20


def pin_heap() -> None:
    """Keep freed activations in glibc's heap for the rest of the process and of
    its forked helper, so that no batch faults them in again. Off glibc, a no-op."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-1, TRIM_THRESHOLD)
        mallopt(-3, MMAP_THRESHOLD)


def cmd_run(config_path, overrides) -> int:
    cfg = parse_config(config_path, overrides)
    pin_heap()
    out_dir = Path(cfg["output_dir"])
    state = build_server(cfg)
    # A run that fails while loading or partitioning its data leaves no output directory.
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved").write_text(cfg.resolved_text())
    # An earlier run's model must not sit beside this run's rows if this one stops early.
    (out_dir / "checkpoint.ckpt").unlink(missing_ok=True)
    # Every op's finite guard reports a fault as a typed error; numpy's warnings would only repeat it.
    with np.errstate(all="ignore"), Helper.started(wants_helper(state)) as state.helper:
        last = write_metrics_csv(out_dir / "metrics.csv", run_rounds(state), state.model.config.num_exits)
    save_checkpoint(out_dir / "checkpoint.ckpt", state.model)
    if last is not None:
        accs = " ".join(f"{a:.3f}" for a in last.exit_accuracy)
        print(f"round {last.round_index}: exit accuracies [{accs}] mean {last.exit_accuracy.mean():.3f}")
    print(f"wrote {out_dir / 'metrics.csv'}")
    return 0


def cmd_attention(checkpoint_path, dataset_path, sample_ids, output) -> int:
    model = load_checkpoint(checkpoint_path)
    examples = load_dataset(dataset_path)
    rows = []
    with np.errstate(all="ignore"):  # as in ``cmd_run``
        for sid in sample_ids:
            if not 0 <= sid < len(examples):
                raise InputError(f"sample id {sid} outside dataset of {len(examples)} examples")
            image = examples[sid].image[None]
            trace = forward_with_exits(model, image, modulation=True)
            for block in range(1, model.config.depth + 1):
                for variant, arr in attention_maps(trace, block, model).items():
                    for token_index, weight in enumerate(arr[0]):
                        rows.append((sid, block, variant, token_index, f"{weight:.8f}"))
    with open(output, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sample_id", "block", "variant", "token_index", "weight"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} attention rows to {output}")
    return 0


def cmd_gen_data(args) -> int:
    rng = np.random.default_rng(args.seed)
    examples = synth_dataset(
        args.classes, args.per_class,
        image_size=args.image_size, channels=args.channels,
        noise=args.noise, rng=rng,
    )
    save_dataset(args.output, examples, num_classes=args.classes)
    print(f"wrote {len(examples)} examples to {args.output}")
    return 0


def cmd_partition(args) -> int:
    examples = load_dataset(args.dataset)
    assignment = lda_partition(examples.label, args.clients, args.alpha, seed=args.seed)
    write_partition_manifest(args.output, assignment)
    sizes = sorted(len(p) for p in assignment)
    print(f"wrote manifest for {args.clients} clients to {args.output} (sizes {sizes[0]}..{sizes[-1]})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reefl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each config key is an option of ``run`` alone, matched exactly as in a config file.
    run_p = sub.add_parser("run", help="run a federated experiment", allow_abbrev=False)
    run_p.add_argument("--config", default=None, help="key=value config file")
    for key, (_, default) in REGISTRY.items():
        run_p.add_argument(f"--{key}", dest=key, default=argparse.SUPPRESS, metavar="VALUE",
                           help=f"default: {format_value(default) or '(empty)'}")

    attn_p = sub.add_parser("attention", help="dump per-block attention maps to CSV")
    attn_p.add_argument("--checkpoint", required=True)
    attn_p.add_argument("--dataset", required=True)
    attn_p.add_argument("--samples", required=True, help="comma-separated sample ids")
    attn_p.add_argument("--output", default="attention.csv")

    inspect_p = sub.add_parser("inspect-checkpoint", help="print checkpoint header and tensors")
    inspect_p.add_argument("checkpoint")

    gen_p = sub.add_parser("gen-data", help="write a synthetic dataset file")
    gen_p.add_argument("--output", required=True)
    gen_p.add_argument("--classes", type=int, default=REGISTRY["data.num_classes"][1])
    gen_p.add_argument("--per-class", dest="per_class", type=int, default=REGISTRY["data.per_class"][1])
    gen_p.add_argument("--image-size", dest="image_size", type=int, default=REGISTRY["data.image_size"][1])
    gen_p.add_argument("--channels", type=int, default=REGISTRY["data.channels"][1])
    gen_p.add_argument("--noise", type=float, default=REGISTRY["data.noise"][1])
    gen_p.add_argument("--seed", type=int, default=0)

    part_p = sub.add_parser("partition", help="write a client partition manifest CSV")
    part_p.add_argument("--dataset", required=True)
    part_p.add_argument("--clients", type=int, required=True)
    part_p.add_argument("--alpha", type=float, default=1.0)
    part_p.add_argument("--seed", type=int, default=0)
    part_p.add_argument("--output", default="partition.csv")

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit status, as the module docstring
    says; when stdout's reader has gone (``reefl inspect-checkpoint CKPT |
    head``), the status is 1 and nothing is written to stderr."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            # the given keys, in argv order; parse_config parses and checks each value
            overrides = [f"{key}={value}" for key, value in vars(args).items() if key in REGISTRY]
            code = cmd_run(args.config, overrides)
        elif args.command == "attention":
            try:
                ids = [int(s) for s in args.samples.split(",") if s.strip()]
            except ValueError:
                raise ConfigError(f"--samples must be comma-separated integers, got {args.samples!r}") from None
            code = cmd_attention(args.checkpoint, args.dataset, ids, args.output)
        elif args.command == "inspect-checkpoint":
            print(describe_checkpoint(args.checkpoint))
            code = 0
        elif args.command == "gen-data":
            code = cmd_gen_data(args)
        else:
            code = cmd_partition(args)
        sys.stdout.flush()  # a closed stdout fails here, inside this handler, not at exit
        return code
    except BrokenPipeError:
        # Output that is still buffered goes nowhere, so exiting cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReeflError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
