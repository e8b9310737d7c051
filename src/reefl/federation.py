"""Server-side orchestration: budgets, sampling, slicing, aggregation, rounds.

The model is one flat ``name -> Tensor`` dict (see ``Model``). Each round
samples clients and trains each one on a private copy of the names its
budget covers (blocks 1..budget plus every non-block name) and on its
private RNG stream, then averages every returned name, weighted by the
sample count of exactly the clients whose budget covers it, in sampled
order.

Each client's data is its index selection of one example set (see
``data.examples``), split into a training part, kept on the client, and a
test part; the test set is the clients' test parts concatenated.
Evaluation scores every exit of the global model on slices of it.
When ``reefl run`` has a helper process (see ``wants_helper``), every round
from round 1 on hands it a budget-balanced share of its clients
(``helper_share``) and every evaluation the back half of its test batches;
the bits are the same as in one process. Direct calls of ``evaluate``,
``run_round`` and ``run_rounds`` run in this process. ``run_rounds`` yields
each report as its round ends, for ``write_metrics_csv`` to put on disk.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .backbone import MLP_RATIO, ModelConfig, covering_budget, init_backbone
from .config import ExperimentConfig
from .data import lda_partition, load_dataset, split_train_test, synth_dataset
from .errors import (
    AggregationError, BudgetError, ConfigError, DivergenceError, InputError, NonFiniteError, ReeflError,
)
from .helper import Helper
from .numerics import Tensor
from .ree import count_correct, init_classifier, init_ree
from .training import TrainConfig, cosine_lr, eta_schedule, local_train, trainable_tensors

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
    train: np.recarray  # this client's training examples
    estimate: Optional[np.ndarray] = None  # per-exit running CE estimate
    last_train_loss: float = 0.0


@dataclass
class RoundReport:
    round_index: int
    sampled: list
    exit_accuracy: Optional[np.ndarray]
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
    covered = _covered(model, budget).params
    params = {name: Tensor(t.data.copy(), requires_grad=t.requires_grad) for name, t in covered.items()}
    return Model(params, model.config, budget)


def _covered(model: Model, budget: int) -> Model:
    """The names ``budget`` covers, holding the global tensors, not copies."""
    params = {name: t for name, t in model.params.items() if covering_budget(name) <= budget}
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
    test_set: np.recarray,
    modulation: bool = True,
    batch_size: int | None = None,
    helper: Optional[Helper] = None,
) -> np.ndarray:
    """Top-1 accuracy of every exit over the full test set, full depth.

    Batches default to ``eval_batch_size``: forward-only evaluation holds no
    graph, so its memory peak is the widest activation of one batch, and
    capping that at half the L2 cache keeps large models from setting the
    process's peak. Small models still get 64-sample batches, which amortise
    the per-op overhead. Logits are the same bits at batch sizes 2 to 64; at
    1, numpy's vector-matrix product of a one-row operand may differ.

    Given a ``helper`` and at least two batches, the helper scores the back
    half of the batches while this process scores the front half; the
    batches, and so the accuracies, are the same as without it.
    """
    if not len(test_set):
        raise ConfigError("empty test set")
    if batch_size is None:
        batch_size = eval_batch_size(model.config, model.params["patch_embed"].dtype)
    batches = [test_set[s : s + batch_size] for s in range(0, len(test_set), batch_size)]
    split = (len(batches) + 1) // 2 if helper is not None else len(batches)
    shared = batches[split:]
    if shared:
        helper.submit(count_correct, model, shared, modulation)
    correct = count_correct(model, batches[:split], modulation)
    if shared:
        correct += helper.result()
    return correct / len(test_set)


# -- round loop ------------------------------------------------------------------


@dataclass
class ServerState:
    cfg: ExperimentConfig
    model: Model
    clients: list
    test_set: np.recarray
    train_cfg: TrainConfig
    helper: Optional[Helper] = None  # set by ``reefl run``; see ``wants_helper``


def client_pool(state: ServerState) -> list[int]:
    """The ids that each round samples from."""
    if state.cfg["federation.exclude_underbudget"]:
        return [c.id for c in state.clients if c.budget == state.model.config.depth]
    return [c.id for c in state.clients]


def wants_helper(state: ServerState) -> bool:
    """Whether a helper process would pay for itself in this run, as the
    config alone decides: a second CPU to run on, and either at least two
    evaluations of at least two test batches each, or at least two clients
    per round over at least three rounds (shorter runs stay in one process,
    where a tracer, such as perfbench's, sees every client train)."""
    cfg, model = state.cfg, state.model
    rounds = cfg["federation.total_rounds"]
    batch = eval_batch_size(model.config, model.params["patch_embed"].dtype)
    splits_evaluations = rounds // cfg["federation.eval_interval"] >= 2 and len(state.test_set) > batch
    splits_training = rounds >= 3 and round(cfg["federation.sample_fraction"] * len(client_pool(state))) >= 2
    return len(os.sched_getaffinity(0)) > 1 and (splits_evaluations or splits_training)


def helper_share(clients: list) -> list[bool]:
    """Which of ``clients`` the helper trains: longest first, by ``budget *
    len(train)``, each goes to the side with less such work so far, ties to
    this process. Budgets 2/4/6/8 with equal data split as 8 + 2 here
    against 6 + 4 in the helper."""
    load = [0, 0]
    theirs = [False] * len(clients)
    work = [c.budget * len(c.train) for c in clients]
    for i in sorted(range(len(clients)), key=lambda i: -work[i]):
        theirs[i] = load[1] < load[0]
        load[theirs[i]] += work[i]
    return theirs


def build_server(cfg: ExperimentConfig) -> ServerState:
    """Materialize data, partition, budgets, and the initial global model."""
    seed = cfg["seed"]
    if cfg["data.source"] == "synthetic":
        data = synth_dataset(
            cfg["data.num_classes"],
            cfg["data.per_class"],
            image_size=cfg["data.image_size"],
            channels=cfg["data.channels"],
            noise=cfg["data.noise"],
            rng=rng_for(seed, _D_DATA),
        )
    else:
        data = load_dataset(cfg["data.path"])
        # One file holds one image shape; a mismatch fails here, before any work.
        shape = data.image.shape[1:]
        expected = (cfg["data.channels"], cfg["data.image_size"], cfg["data.image_size"])
        if shape != expected:
            raise InputError(
                f"dataset images have [C,H,W] shape {shape}, but the model expects {expected}"
            )
        num_classes = int(data.label.max()) + 1
        if num_classes > cfg["model.num_classes"]:
            raise ConfigError(
                f"dataset has {num_classes} classes but model.num_classes={cfg['model.num_classes']}"
            )

    partition_seed = int(np.random.SeedSequence([seed, _D_PARTITION]).generate_state(1)[0])
    assignment = lda_partition(data.label, cfg["federation.num_clients"], cfg["data.alpha"], seed=partition_seed)

    config = cfg.model_config()
    budgets = assign_budgets(cfg["federation.num_clients"], config.exit_blocks)
    clients, tests = [], []
    for cid, indices in enumerate(assignment):
        train, test = split_train_test(data[indices], cfg["data.split_ratio"], rng_for(seed, _D_SPLIT, cid))
        clients.append(ClientState(id=cid, budget=budgets[cid], train=train))
        tests.append(test)
    test_set = np.concatenate(tests).view(np.recarray)

    model = init_global_model(config, rng_for(seed, _D_MODEL))
    return ServerState(cfg=cfg, model=model, clients=clients, test_set=test_set, train_cfg=cfg.train_config())


def train_clients(model: Model, clients: list, rngs: list, train_cfg: TrainConfig, round_t: int, modulation: bool):
    """Train each client on its own slice of ``model`` and its own RNG, in
    order; per client, ``(trained tensors, sample count, new estimate,
    last_train_loss)``. The first ``ReeflError`` ends the list in place of
    the client that raised it, and no later client trains. ``run_round``
    calls it for its own share and submits it for the helper's, so that a
    client's step is the same code, and the same bits, in either process."""
    done = []
    for client, rng in zip(clients, rngs):
        try:
            view = slice_submodel(model, client.budget)
            trained, n = local_train(client, view, train_cfg, round_t, rng, modulation)
        except ReeflError as exc:
            return done + [exc]
        done.append((trained, n, client.estimate, client.last_train_loss))
    return done


def run_round(state: ServerState, round_t: int) -> RoundReport:
    cfg, train_cfg = state.cfg, state.train_cfg
    seed, helper = cfg["seed"], state.helper
    pool = client_pool(state)
    sampled = sample_clients(pool, cfg["federation.sample_fraction"], rng_for(seed, _D_SAMPLE, round_t))
    clients = [state.clients[cid] for cid in sampled]
    rngs = [rng_for(seed, _D_TRAIN, round_t, cid) for cid in sampled]
    modulation = cfg["schedule.modulation_enabled"]

    theirs = helper_share(clients) if helper is not None else [False] * len(clients)
    share = [i for i, t in enumerate(theirs) if t]
    mine = [i for i, t in enumerate(theirs) if not t]

    def task(model: Model, side: list) -> tuple:
        """``train_clients``' arguments for the sampled clients at indices ``side``."""
        return model, [clients[i] for i in side], [rngs[i] for i in side], train_cfg, round_t, modulation

    if share:
        deepest = max(clients[i].budget for i in share)
        helper.submit(train_clients, *task(_covered(state.model, deepest), share))
    outcomes = dict(zip(mine, train_clients(*task(state.model, mine))))
    if share:
        outcomes.update(zip(share, helper.result()))
    failed = [outcomes[i] for i in sorted(outcomes) if isinstance(outcomes[i], ReeflError)]
    if failed:
        raise failed[0]  # the error of the first failing client in sampled order, as in one process

    updates = []
    for i, client in enumerate(clients):
        params, n, client.estimate, client.last_train_loss = outcomes[i]
        updates.append((params, n * train_cfg.local_epochs, client.budget))
    aggregate(state.model, updates)
    bytes_moved = sum(comm_cost(_covered(state.model, c.budget), train_cfg.mode) for c in clients)

    accuracy = None
    if round_t % cfg["federation.eval_interval"] == 0:
        try:
            accuracy = evaluate(state.model, state.test_set, modulation=modulation, helper=helper)
        except NonFiniteError as exc:
            raise DivergenceError(
                f"non-finite output evaluating the global model after round {round_t}"
            ) from exc

    return RoundReport(
        round_index=round_t,
        sampled=sampled,
        exit_accuracy=accuracy,
        train_loss_mean=float(np.mean([state.clients[cid].last_train_loss for cid in sampled])),
        bytes_up=bytes_moved,
        bytes_down=bytes_moved,
        eta=eta_schedule(round_t, train_cfg),
        lr=cosine_lr(round_t, train_cfg),
    )


def write_metrics_csv(path, reports: Iterable[RoundReport], num_exits: int) -> Optional[RoundReport]:
    """Write the header, then one row per evaluated round of ``reports`` as
    each arrives, flushing each line so that it is on disk however the run
    ends; the last evaluated report, or None. Fixed column set."""
    last = None
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["round"]
            + [f"exit_{e}_acc" for e in range(1, num_exits + 1)]
            + ["mean_acc", "train_loss_mean", "bytes_up", "bytes_down", "eta", "lr"]
        )
        f.flush()
        for report in reports:
            if report.exit_accuracy is None:
                continue
            writer.writerow(
                [report.round_index]
                + [f"{a:.6f}" for a in report.exit_accuracy]
                + [
                    f"{report.exit_accuracy.mean():.6f}",
                    f"{report.train_loss_mean:.6f}",
                    report.bytes_up,
                    report.bytes_down,
                    f"{report.eta:.6f}",
                    f"{report.lr:.8f}",
                ]
            )
            f.flush()
            last = report
    return last


def run_rounds(state: ServerState) -> Iterator[RoundReport]:
    """Every configured round, in order, from a built server; each report is
    yielded as its round ends. Each round calls this module's ``run_round``
    as it is bound then, so a wrapper set on the module sees every round."""
    for t in range(1, state.cfg["federation.total_rounds"] + 1):
        yield run_round(state, t)
