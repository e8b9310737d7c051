"""Server-side orchestration: budgets, sampling, slicing, aggregation, rounds.

The model is one flat ``name -> Tensor`` dict (see ``Model``). Each round
samples clients, hands every one a copy of the names its budget covers
(blocks 1..budget plus every non-block name), trains them one after
another, each on its private parameter copy and private RNG stream, then
averages every returned name, weighted by the sample count of exactly the
clients whose budget covers it.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .backbone import MLP_RATIO, ModelConfig, covering_budget, init_backbone
from .config import ExperimentConfig
from .data import (
    Example,
    PartitionSpec,
    lda_partition,
    load_dataset,
    split_train_test,
    synth_dataset,
)
from .errors import AggregationError, BudgetError, ConfigError, InputError
from .numerics import Tensor, no_grad
from .ree import forward_with_exits, init_classifier, init_ree
from .training import (
    MODE_FROZEN,
    MODE_FULL,
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
class Model:
    """Parameters as one insertion-ordered name -> tensor dict.

    The global model has ``budget == config.depth``; a client's sub-model
    holds only the names its budget covers.
    """

    params: dict
    config: ModelConfig
    budget: int


@dataclass
class ClientState:
    id: int
    budget: int
    train: list = field(default_factory=list)
    estimate: Optional[np.ndarray] = None  # per-exit running CE estimate
    last_train_loss: float = 0.0


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


def init_global_model(config: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> Model:
    """Draw the backbone, then the shared exit block, then the classifier."""
    params = init_backbone(config, rng, dtype=dtype)
    params.update(init_ree(config.dim, config.pos_rows, rng, dtype=dtype))
    params.update(init_classifier(config.dim, config.num_classes, rng, dtype=dtype))
    return Model(params, config, config.depth)


# -- budgets and sampling ------------------------------------------------------


def assign_budgets(num_clients: int, exit_blocks: tuple) -> list[int]:
    """Equal-sized budget groups, one per exit block, remainder going to the deepest budgets."""
    exits = len(exit_blocks)
    if num_clients < exits:
        raise ConfigError(f"{num_clients} clients cannot cover {exits} budget tiers")
    base, rem = divmod(num_clients, exits)
    budgets = []
    for e, block in enumerate(exit_blocks):
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


def slice_submodel(model: Model, budget: int) -> Model:
    """Private copies of the names ``budget`` covers: blocks 1..budget plus all shared components."""
    depth, first_exit = model.config.depth, model.config.exit_blocks[0]
    if not 1 <= budget <= depth:
        raise BudgetError(f"budget {budget} outside [1, {depth}]")
    if budget < first_exit:
        raise BudgetError(f"budget {budget} does not cover the first exit at block {first_exit}")
    params = {
        name: Tensor(t.data.copy(), requires_grad=t.requires_grad)
        for name, t in model.params.items()
        if covering_budget(name) <= budget
    }
    return Model(params, model.config, budget)


def aggregate(model: Model, updates: list) -> Model:
    """Sample-weighted mean per parameter name.

    ``updates`` holds (named params, weight, budget) per client. Each name
    is averaged over exactly the clients whose budget covers it: block l
    over budgets >= l, every other name over all participants. Names nobody
    trained keep their previous value. Accumulation runs in float64, per
    name in update order, so that identical inputs are a bit-exact fixed
    point.
    """
    if not updates:
        raise AggregationError("no updates to aggregate")
    global_named = model.params
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
            if covering_budget(name) > budget:
                raise AggregationError(f"update for {name!r} from a budget-{budget} client")
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


def comm_cost(view: Model, mode: str) -> int:
    """Transfer bytes for one direction: 4 bytes per transferred parameter.

    Frozen mode moves only the shared exit stack (the backbone never leaves
    the server); full mode adds the view's blocks and embeddings.
    """
    if mode not in (MODE_FULL, MODE_FROZEN):
        raise ConfigError(f"unknown comm mode {mode!r}")
    return BYTES_PER_PARAM * sum(t.data.size for t in trainable_tensors(view, mode).values())


# -- evaluation ------------------------------------------------------------------


EVAL_BATCH_BYTES = 1 << 20  # half of a 2 MiB per-core L2 cache
EVAL_BATCH_MAX = 64


def eval_batch_size(config: ModelConfig, dtype=np.float32) -> int:
    """Samples per evaluation batch: as many as keep the widest activation
    within ``EVAL_BATCH_BYTES``, between 1 and ``EVAL_BATCH_MAX``.

    One sample's widest activation has ``T * max(MLP_RATIO * d, heads * T)``
    elements for T tokens: the MLP hidden layer or the attention scores.
    """
    t = config.num_tokens
    widest = t * max(MLP_RATIO * config.dim, config.heads * t) * np.dtype(dtype).itemsize
    return max(1, min(EVAL_BATCH_MAX, EVAL_BATCH_BYTES // widest))


def evaluate(
    model: Model,
    test_set: list,
    modulation: bool = True,
    batch_size: int | None = None,
) -> np.ndarray:
    """Top-1 accuracy of every exit over the full test set, full depth.

    Batches default to ``eval_batch_size``: forward-only evaluation holds no
    graph, so its memory peak is the widest activation of one batch, and
    capping that at half the L2 cache keeps large models from setting the
    process's peak. Small models still get 64-sample batches, which amortise
    the per-op overhead. Accuracies do not depend on the batch size, since
    every op treats samples independently.
    """
    if not test_set:
        raise ConfigError("empty test set")
    if batch_size is None:
        batch_size = eval_batch_size(model.config, model.params["patch_embed"].dtype)
    exits = model.config.num_exits
    correct = np.zeros(exits, dtype=np.int64)
    with no_grad():
        for start in range(0, len(test_set), batch_size):
            chunk = test_set[start : start + batch_size]
            images = np.stack([ex.image for ex in chunk])
            labels = np.array([ex.label for ex in chunk])
            trace = forward_with_exits(model, images, modulation)
            for e, logits in enumerate(trace.exit_logits):
                correct[e] += int((np.argmax(logits.data, axis=1) == labels).sum())
    return correct / len(test_set)


# -- round loop ------------------------------------------------------------------


@dataclass
class ServerState:
    cfg: ExperimentConfig
    model: Model
    clients: list
    test_set: list
    train_cfg: TrainConfig


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
        # One file holds one image shape; a mismatch fails here, before any work.
        shape = examples[0].image.shape
        expected = (cfg["data.channels"], cfg["data.image_size"], cfg["data.image_size"])
        if shape != expected:
            raise InputError(
                f"dataset images have [C,H,W] shape {shape}, but the model expects {expected}"
            )
        num_classes = int(max(ex.label for ex in examples)) + 1
        if num_classes > cfg["model.num_classes"]:
            raise ConfigError(
                f"dataset has {num_classes} classes but model.num_classes={cfg['model.num_classes']}"
            )

    labels = [ex.label for ex in examples]
    partition_seed = int(np.random.SeedSequence([seed, _D_PARTITION]).generate_state(1)[0])
    spec = PartitionSpec(cfg["federation.num_clients"], cfg["data.alpha"], seed=partition_seed)
    assignment = lda_partition(labels, spec)

    config = cfg.model_config()
    budgets = assign_budgets(cfg["federation.num_clients"], config.exit_blocks)
    clients = []
    test_set: list[Example] = []
    for cid, indices in enumerate(assignment):
        own = [examples[i] for i in indices]
        train, test = split_train_test(own, cfg["data.split_ratio"], rng_for(seed, _D_SPLIT, cid))
        clients.append(ClientState(id=cid, budget=budgets[cid], train=train))
        test_set.extend(test)

    model = init_global_model(config, rng_for(seed, _D_MODEL))
    return ServerState(cfg=cfg, model=model, clients=clients, test_set=test_set, train_cfg=cfg.train_config())


def run_round(state: ServerState, round_t: int) -> RoundReport:
    cfg, train_cfg = state.cfg, state.train_cfg
    seed, depth = cfg["seed"], state.model.config.depth
    pool = [c.id for c in state.clients]
    if cfg["federation.exclude_underbudget"]:
        pool = [cid for cid in pool if state.clients[cid].budget == depth]
        if not pool:
            raise ConfigError("exclude_underbudget left no eligible clients")
    sampled = sample_clients(pool, cfg["federation.sample_fraction"], rng_for(seed, _D_SAMPLE, round_t))

    modulation = cfg["schedule.modulation_enabled"]
    updates = []
    bytes_moved = 0
    for cid in sampled:
        client = state.clients[cid]
        view = slice_submodel(state.model, client.budget)
        rng = rng_for(seed, _D_TRAIN, round_t, cid)
        params, n = local_train(client, view, train_cfg, round_t, rng, modulation=modulation)
        updates.append((params, n * train_cfg.local_epochs, client.budget))
        bytes_moved += comm_cost(view, train_cfg.mode)
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
        bytes_up=bytes_moved,
        bytes_down=bytes_moved,
        eta=eta_schedule(round_t, train_cfg),
        lr=cosine_lr(round_t, train_cfg),
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


def run_rounds(state: ServerState) -> list[RoundReport]:
    """Every configured round, in order, from a built server."""
    return [run_round(state, t) for t in range(1, state.cfg["federation.total_rounds"] + 1)]
