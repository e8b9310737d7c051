"""Server-side orchestration: budgets, sampling, slicing, aggregation, rounds.

Each round samples clients, hands every one a deep-copied prefix of the
global model plus the shared exit stack, trains them (optionally in
parallel; results are bit-identical either way because every client owns a
private parameter copy and a private RNG stream), then averages the
returned parameters group by group, weighted by the sample count of
exactly the clients whose budget covers that group.
"""
from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .backbone import BackboneConfig, BackboneParams, BlockParams, init_backbone, named_backbone_tensors
from .config import ExperimentConfig
from .data import (
    Example,
    PartitionSpec,
    lda_partition,
    load_dataset,
    split_train_test,
    synth_dataset,
)
from .errors import AggregationError, BudgetError, ConfigError
from .numerics import Tensor, no_grad
from .ree import (
    ClassifierParams,
    ExitSchedule,
    ReeParams,
    forward_with_exits,
    init_classifier,
    init_ree,
    named_classifier_tensors,
    named_ree_tensors,
)
from .training import (
    MODE_FROZEN,
    MODE_FULL,
    RunningEstimate,
    TrainConfig,
    cosine_lr,
    eta_schedule,
    local_train,
    trainable_tensors,
)

BYTES_PER_PARAM = 4  # 32-bit transfer encoding

# rng stream domains, combined with the experiment seed
_D_DATA, _D_PARTITION, _D_SPLIT, _D_MODEL, _D_SAMPLE, _D_TRAIN = range(1, 7)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Deterministic named stream; stands in for hash(seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


@dataclass
class GlobalModel:
    backbone: BackboneParams
    ree: ReeParams
    classifier: ClassifierParams
    schedule: ExitSchedule
    config: BackboneConfig


@dataclass
class SubModelView:
    """Blocks 1..budget plus the shared exit stack, privately copied."""

    backbone: BackboneParams
    ree: ReeParams
    classifier: ClassifierParams
    config: BackboneConfig
    schedule: ExitSchedule
    budget: int


@dataclass
class ClientState:
    id: int
    budget: int
    train: list = field(default_factory=list)
    test: list = field(default_factory=list)
    estimate: RunningEstimate = field(default_factory=RunningEstimate)
    last_train_loss: float = 0.0

    @property
    def num_train(self) -> int:
        return len(self.train)


@dataclass
class RoundReport:
    round_index: int
    sampled: list
    exit_accuracy: Optional[np.ndarray]
    mean_accuracy: Optional[float]
    client_losses: dict
    train_loss_mean: float
    bytes_up: int
    bytes_down: int
    eta: float
    lr: float


def init_global_model(
    config: BackboneConfig, schedule: ExitSchedule, rng: np.random.Generator, dtype=np.float32
) -> GlobalModel:
    if schedule.depth != config.depth:
        raise ConfigError(f"schedule depth {schedule.depth} != backbone depth {config.depth}")
    return GlobalModel(
        backbone=init_backbone(config, rng, dtype=dtype),
        ree=init_ree(config.dim, schedule.pos_rows, rng, dtype=dtype),
        classifier=init_classifier(config.dim, config.num_classes, rng, dtype=dtype),
        schedule=schedule,
        config=config,
    )


def named_global_tensors(model: GlobalModel) -> dict[str, Tensor]:
    out = named_backbone_tensors(model.backbone)
    out.update(named_ree_tensors(model.ree))
    out.update(named_classifier_tensors(model.classifier))
    return out


# -- budgets and sampling ------------------------------------------------------


def assign_budgets(num_clients: int, schedule: ExitSchedule) -> list[int]:
    """Equal-sized budget groups, remainder going to the deepest budgets."""
    exits = schedule.num_exits
    if num_clients < exits:
        raise ConfigError(f"{num_clients} clients cannot cover {exits} budget tiers")
    base, rem = divmod(num_clients, exits)
    budgets = []
    for e, block in enumerate(schedule.exit_blocks):
        size = base + (1 if e >= exits - rem else 0)
        budgets.extend([block] * size)
    return budgets


def sample_clients(pool: list, fraction: float, rng: np.random.Generator) -> list:
    """Uniform sample without replacement of max(1, round(fraction * pool))."""
    if not pool:
        raise ConfigError("cannot sample from an empty client pool")
    if not 0 < fraction <= 1:
        raise ConfigError(f"sample fraction {fraction} outside (0, 1]")
    size = max(1, round(fraction * len(pool)))
    picked = rng.choice(sorted(pool), size=size, replace=False)
    return sorted(int(c) for c in picked)


# -- slicing and aggregation ---------------------------------------------------


def _clone(t: Tensor) -> Tensor:
    out = Tensor(t.data.copy())
    out.requires_grad = t.requires_grad
    return out


def _clone_block(blk: BlockParams) -> BlockParams:
    return BlockParams(**{f: _clone(getattr(blk, f)) for f in blk.__dataclass_fields__})


def slice_submodel(model: GlobalModel, budget: int) -> SubModelView:
    """Deep copy of blocks 1..budget plus all shared components."""
    depth = model.config.depth
    if not 1 <= budget <= depth:
        raise BudgetError(f"budget {budget} outside [1, {depth}]")
    if budget < model.schedule.exit_blocks[0]:
        raise BudgetError(
            f"budget {budget} does not cover the first exit at block {model.schedule.exit_blocks[0]}"
        )
    backbone = BackboneParams(
        patch_embed=_clone(model.backbone.patch_embed),
        pos_embed=_clone(model.backbone.pos_embed),
        class_token=_clone(model.backbone.class_token),
        blocks=[_clone_block(b) for b in model.backbone.blocks[:budget]],
    )
    ree = ReeParams(
        block=_clone_block(model.ree.block),
        z_meta=_clone(model.ree.z_meta),
        pos=_clone(model.ree.pos),
    )
    classifier = ClassifierParams(
        ln_gamma=_clone(model.classifier.ln_gamma),
        ln_beta=_clone(model.classifier.ln_beta),
        weight=_clone(model.classifier.weight),
        bias=_clone(model.classifier.bias),
    )
    return SubModelView(
        backbone=backbone,
        ree=ree,
        classifier=classifier,
        config=model.config,
        schedule=model.schedule,
        budget=budget,
    )


def full_view(model: GlobalModel) -> SubModelView:
    """Read-only full-depth view sharing the global tensors (evaluation)."""
    return SubModelView(
        backbone=model.backbone,
        ree=model.ree,
        classifier=model.classifier,
        config=model.config,
        schedule=model.schedule,
        budget=model.config.depth,
    )


def aggregate(model: GlobalModel, updates: list) -> GlobalModel:
    """Sample-weighted mean per parameter group.

    ``updates`` holds (named params, weight, budget) per client. A block-l
    group is averaged over exactly the clients whose budget covers block l;
    shared groups over all participants. Groups nobody trained keep their
    previous value. Accumulation runs in float64 so that identical inputs
    are a bit-exact fixed point.
    """
    if not updates:
        raise AggregationError("no updates to aggregate")
    global_named = named_global_tensors(model)
    acc: dict[str, np.ndarray] = {}
    weight_sum: dict[str, float] = {}
    for params, weight, budget in updates:
        if weight <= 0:
            raise AggregationError(f"non-positive aggregation weight {weight}")
        for name, tensor in params.items():
            target = global_named.get(name)
            if target is None:
                raise AggregationError(f"update names unknown parameter {name!r}")
            if tensor.shape != target.shape:
                raise AggregationError(
                    f"shape mismatch for {name!r}: {tensor.shape} vs {target.shape}"
                )
            if name.startswith("block"):
                block_index = int(name[5 : name.index(".")])
                if block_index > budget:
                    raise AggregationError(
                        f"update for block {block_index} from a budget-{budget} client"
                    )
            contribution = weight * tensor.data.astype(np.float64, copy=False)
            if name in acc:
                acc[name] += contribution
                weight_sum[name] += weight
            else:
                acc[name] = contribution.copy()
                weight_sum[name] = float(weight)
    for name, total in acc.items():
        target = global_named[name]
        target.data = (total / weight_sum[name]).astype(target.dtype)
    return model


def comm_cost(view: SubModelView, mode: str) -> int:
    """Transfer bytes for one direction: 4 bytes per transferred parameter.

    Frozen mode moves only the shared exit stack (the backbone never leaves
    the server); full mode adds the view's blocks and embeddings.
    """
    if mode not in (MODE_FULL, MODE_FROZEN):
        raise ConfigError(f"unknown comm mode {mode!r}")
    tensors = trainable_tensors(view, mode)
    return BYTES_PER_PARAM * sum(t.data.size for t in tensors.values())


# -- evaluation ------------------------------------------------------------------


def evaluate(
    model: GlobalModel,
    test_set: list,
    modulation: bool = True,
    batch_size: int = 64,
) -> np.ndarray:
    """Top-1 accuracy of every exit over the full test set, full depth."""
    if not test_set:
        raise ConfigError("empty test set")
    view = full_view(model)
    exits = model.schedule.num_exits
    correct = np.zeros(exits, dtype=np.int64)
    with no_grad():
        for start in range(0, len(test_set), batch_size):
            chunk = test_set[start : start + batch_size]
            images = np.stack([ex.image for ex in chunk])
            labels = np.array([ex.label for ex in chunk])
            trace = forward_with_exits(view, images, model.schedule, modulation)
            for e, logits in enumerate(trace.exit_logits):
                correct[e] += int((np.argmax(logits.data, axis=1) == labels).sum())
    return correct / len(test_set)


# -- round loop ------------------------------------------------------------------


@dataclass
class ServerState:
    cfg: ExperimentConfig
    model: GlobalModel
    clients: list
    test_set: list
    train_cfg: TrainConfig
    threads: int = 1
    seed: int = 0


def resolve_threads(cfg_threads: int) -> int:
    if cfg_threads > 0:
        return cfg_threads
    env = os.environ.get("REEFL_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"REEFL_THREADS={env!r} is not an integer") from exc
    return 1


def build_server(cfg: ExperimentConfig) -> ServerState:
    """Materialize data, partition, budgets, and the initial global model."""
    seed = cfg["seed"]
    if cfg["data.source"] == "synthetic":
        examples = synth_dataset(
            cfg["data.num_classes"],
            cfg["data.per_class"],
            image_size=cfg["data.image_size"],
            channels=cfg["data.channels"],
            noise=cfg["data.noise"],
            rng=rng_for(seed, _D_DATA),
        )
        num_classes = cfg["data.num_classes"]
    else:
        examples = load_dataset(cfg["data.path"])
        num_classes = int(max(ex.label for ex in examples)) + 1
        if num_classes > cfg["model.num_classes"]:
            raise ConfigError(
                f"dataset has {num_classes} classes but model.num_classes={cfg['model.num_classes']}"
            )

    labels = [ex.label for ex in examples]
    partition_seed = int(np.random.SeedSequence([seed, _D_PARTITION]).generate_state(1)[0])
    spec = PartitionSpec(cfg["federation.num_clients"], cfg["data.alpha"], seed=partition_seed)
    assignment = lda_partition(labels, spec)

    schedule = cfg.schedule()
    budgets = assign_budgets(cfg["federation.num_clients"], schedule)
    clients = []
    test_set: list[Example] = []
    for cid, indices in enumerate(assignment):
        own = [examples[i] for i in indices]
        train, test = split_train_test(own, cfg["data.split_ratio"], rng_for(seed, _D_SPLIT, cid))
        clients.append(ClientState(id=cid, budget=budgets[cid], train=train, test=test))
        test_set.extend(test)

    model = init_global_model(cfg.backbone_config(), schedule, rng_for(seed, _D_MODEL))
    return ServerState(
        cfg=cfg,
        model=model,
        clients=clients,
        test_set=test_set,
        train_cfg=cfg.train_config(),
        threads=resolve_threads(cfg["federation.threads"]),
        seed=seed,
    )


def run_round(state: ServerState, round_t: int) -> RoundReport:
    cfg = state.cfg
    depth = state.model.config.depth
    pool = [c.id for c in state.clients]
    if cfg["federation.exclude_underbudget"]:
        pool = [cid for cid in pool if state.clients[cid].budget == depth]
        if not pool:
            raise ConfigError("exclude_underbudget left no eligible clients")
    sampled = sample_clients(pool, cfg["federation.sample_fraction"], rng_for(state.seed, _D_SAMPLE, round_t))

    modulation = cfg["schedule.modulation_enabled"]

    def train_one(cid: int):
        client = state.clients[cid]
        view = slice_submodel(state.model, client.budget)
        params, n = local_train(
            client,
            view,
            state.train_cfg,
            round_t,
            rng_for(state.seed, _D_TRAIN, round_t, cid),
            state.model.schedule,
            modulation=modulation,
        )
        return params, n * state.train_cfg.local_epochs, client.budget, comm_cost(view, state.train_cfg.mode)

    if state.threads > 1 and len(sampled) > 1:
        with ThreadPoolExecutor(max_workers=state.threads) as pool_exec:
            results = list(pool_exec.map(train_one, sampled))
    else:
        results = [train_one(cid) for cid in sampled]

    updates = [(params, weight, budget) for params, weight, budget, _ in results]
    per_client_bytes = [cost for _, _, _, cost in results]
    aggregate(state.model, updates)

    accuracy = None
    mean_acc = None
    if round_t % cfg["federation.eval_interval"] == 0:
        accuracy = evaluate(state.model, state.test_set, modulation=modulation)
        mean_acc = float(accuracy.mean())

    client_losses = {cid: state.clients[cid].last_train_loss for cid in sampled}
    return RoundReport(
        round_index=round_t,
        sampled=sampled,
        exit_accuracy=accuracy,
        mean_accuracy=mean_acc,
        client_losses=client_losses,
        train_loss_mean=float(np.mean(list(client_losses.values()))),
        bytes_up=sum(per_client_bytes),
        bytes_down=sum(per_client_bytes),
        eta=eta_schedule(round_t, state.train_cfg),
        lr=cosine_lr(round_t, state.train_cfg),
    )


def write_metrics_csv(path, reports: list, num_exits: int) -> None:
    """One row per evaluated round; fixed column set."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["round"]
            + [f"exit_{e}_acc" for e in range(1, num_exits + 1)]
            + ["mean_acc", "train_loss_mean", "bytes_up", "bytes_down", "eta", "lr"]
        )
        for report in reports:
            if report.exit_accuracy is None:
                continue
            writer.writerow(
                [report.round_index]
                + [f"{a:.6f}" for a in report.exit_accuracy]
                + [
                    f"{report.mean_accuracy:.6f}",
                    f"{report.train_loss_mean:.6f}",
                    report.bytes_up,
                    report.bytes_down,
                    f"{report.eta:.6f}",
                    f"{report.lr:.8f}",
                ]
            )


def run_experiment_with_state(cfg: ExperimentConfig):
    """Full round loop; returns (reports, final server state)."""
    state = build_server(cfg)
    reports = [run_round(state, t) for t in range(1, cfg["federation.total_rounds"] + 1)]
    return reports, state

