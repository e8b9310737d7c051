"""The helper process: the same bits, typed failures, no stray processes."""
import ctypes
import itertools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from reefl import federation
from reefl import helper as helper_module
from reefl.cli import main
from reefl.config import parse_config
from reefl.data import synth_dataset
from reefl.errors import DivergenceError, ReeflError
from reefl.federation import (
    build_server, eval_batch_size, evaluate, helper_share, run_round, run_rounds, write_metrics_csv,
)
from reefl.helper import Helper
from test_cli import TINY, Stop, cli_env, stop_in_round
from test_federation import small_model

# TINY with 20% of the data for training: 76 test samples, two evaluation
# batches (64 + 12), one evaluation per round, and four clients per round.
SHARED = {**TINY, "data.per_class": 24, "data.split_ratio": 0.2, "federation.total_rounds": 6}

multi_cpu = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the host has one CPU, where no helper starts"
)


def run_args(out_dir, **extra) -> list[str]:
    kw = {**SHARED, **extra, "output_dir": out_dir}
    return ["run"] + [f"--{k}={v}" for k, v in kw.items()]


def shared_state(**extra):
    return build_server(parse_config(overrides=[f"{k}={v}" for k, v in {**SHARED, **extra}.items()]))


@pytest.fixture
def helper():
    with Helper.started(True) as started:
        if started is None:
            pytest.skip("numpy's BLAS offers no thread-count setter, so no helper starts")
        yield started


def recorded(submit, sent: dict):
    """``submit`` that also appends to ``sent[fn.__name__]`` the size of
    every task's second argument: the batches of an evaluation, the clients
    of a training share."""

    def recording_submit(self, fn, *args):
        sent[fn.__name__].append(len(args[1]))
        submit(self, fn, *args)

    return recording_submit


@pytest.fixture
def started(monkeypatch):
    """The helpers a test starts, and the sizes of the tasks sent, by kind."""
    helpers, sent = [], {"train_clients": [], "count_correct": []}
    init = Helper.__init__

    def recording_init(self, *args):
        init(self, *args)
        helpers.append(self)

    monkeypatch.setattr(Helper, "__init__", recording_init)
    monkeypatch.setattr(Helper, "submit", recorded(Helper.submit, sent))
    return helpers, sent


# -- the same bits -----------------------------------------------------------------


@pytest.mark.parametrize("batch_size, batches", [(14, 3), (10, 4)])
def test_evaluate_with_helper_is_bitwise_equal(helper, monkeypatch, batch_size, batches):
    model = small_model(seed=31)
    data = synth_dataset(4, 10, image_size=8, rng=np.random.default_rng(32))
    sent = {"count_correct": []}
    monkeypatch.setattr(Helper, "submit", recorded(Helper.submit, sent))
    alone = evaluate(model, data, batch_size=batch_size)
    shared = evaluate(model, data, batch_size=batch_size, helper=helper)
    assert sent["count_correct"] == [batches // 2]  # the back half
    assert shared.tobytes() == alone.tobytes()


def test_rounds_with_helper_are_bitwise_equal(helper, monkeypatch):
    sent = {"train_clients": [], "count_correct": []}
    monkeypatch.setattr(Helper, "submit", recorded(Helper.submit, sent))
    alone, shared = shared_state(), shared_state()
    shared.helper = helper
    # from round 2 on, each client's running estimate travels with its task
    reports = [[run_round(state, t) for t in (1, 2, 3)] for state in (alone, shared)]
    assert sent == {"train_clients": [2, 2, 2], "count_correct": [1, 1, 1]}
    for name, t in alone.model.params.items():
        assert t.data.tobytes() == shared.model.params[name].data.tobytes(), name
    for a, b in zip(alone.clients, shared.clients):
        assert a.estimate.tobytes() == b.estimate.tobytes() and a.last_train_loss == b.last_train_loss
    for a, b in zip(*reports):
        assert a.exit_accuracy.tobytes() == b.exit_accuracy.tobytes()
        assert {**vars(a), "exit_accuracy": None} == {**vars(b), "exit_accuracy": None}


def test_helper_updates_are_aggregated_in_sampled_order(helper, monkeypatch):
    handed = []
    aggregate = federation.aggregate

    def recording_aggregate(model, updates):
        handed.append([(budget, weight, list(params)) for params, weight, budget in updates])
        return aggregate(model, updates)

    monkeypatch.setattr(federation, "aggregate", recording_aggregate)
    alone, shared = shared_state(), shared_state()
    shared.helper = helper
    theirs = helper_share(shared.clients)  # every client trains in every round
    assert any(theirs) and theirs != sorted(theirs)  # the helper's clients are not the last sampled
    for state in (alone, shared):
        run_round(state, 1)
    assert len(handed) == 2 and handed[0] == handed[1]
    assert [budget for budget, _, _ in handed[1]] == [c.budget for c in shared.clients]


@pytest.mark.parametrize("first", ["here", "in the helper"])
def test_divergence_in_both_shares_is_the_error_of_one_process(helper, first):
    def poisoned():
        """SHARED with an inf pixel in one training example of a client in each share."""
        state = shared_state()
        theirs = helper_share(state.clients)  # every client trains in every round
        mine = [i for i, t in enumerate(theirs) if not t]
        helpers = [i for i, t in enumerate(theirs) if t]
        for cid in (mine[0], helpers[-1]) if first == "here" else (helpers[0], mine[-1]):
            state.clients[cid].train.image[0, 0, 0, 0] = np.inf
        return state

    with pytest.raises(DivergenceError) as alone:
        run_round(poisoned(), 1)
    state = poisoned()
    state.helper = helper
    with pytest.raises(DivergenceError) as shared:
        run_round(state, 1)
    assert str(shared.value) == str(alone.value)
    state = shared_state()
    state.helper = helper
    run_round(state, 1)  # the helper still serves


@multi_cpu
def test_cli_run_matches_the_run_pinned_to_one_cpu(tmp_path):
    def pin():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    for name, preexec in (("shared", None), ("pinned", pin)):
        # 20 rounds take about a second; the helper trains and evaluates from round 1
        args = run_args(tmp_path / name, **{"federation.total_rounds": 20})
        proc = subprocess.run([sys.executable, "-m", "reefl.cli", *args], preexec_fn=preexec,
                              capture_output=True, text=True, env=cli_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
    for f in ("metrics.csv", "checkpoint.ckpt"):
        assert (tmp_path / "shared" / f).read_bytes() == (tmp_path / "pinned" / f).read_bytes(), f


# -- failures ----------------------------------------------------------------------


def test_overflow_in_the_helpers_half_is_a_divergence_naming_the_round(helper):
    state = shared_state()
    assert len(state.test_set) > eval_batch_size(state.model.config)
    state.test_set.image[-1, 0, 0, 0] = np.inf  # a pixel that overflowed float32
    state.helper = helper
    with pytest.raises(DivergenceError, match="evaluating the global model after round 1$"):
        run_round(state, 1)


@multi_cpu
def test_run_whose_helper_dies_exits_1_with_one_error_line(tmp_path, started, monkeypatch, capsys):
    helpers, _ = started
    run = federation.run_round

    def kill_helper_in_round_2(state, round_t):
        if round_t == 2:
            os.kill(state.helper.pid, signal.SIGKILL)
            os.waitid(os.P_PID, state.helper.pid, os.WEXITED | os.WNOWAIT)  # dead, but left for the run to reap
        return run(state, round_t)

    monkeypatch.setattr(federation, "run_round", kill_helper_in_round_2)
    assert main(run_args(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: helper process ended unexpectedly (exit status -9)\n"
    assert helpers[0].returncode == -signal.SIGKILL


# -- lifetime ----------------------------------------------------------------------


@multi_cpu
def test_no_helper_remains_after_main_returns(tmp_path, started):
    helpers, sent = started
    assert main(run_args(tmp_path / "out")) == 0
    assert len(helpers) == 1 and helpers[0].returncode == 0
    rounds = SHARED["federation.total_rounds"]
    assert sent == {"train_clients": [2] * rounds, "count_correct": [1] * rounds}


@multi_cpu
def test_no_helper_remains_after_a_round_raises(tmp_path, started, monkeypatch):
    helpers, sent = started
    stop_in_round(monkeypatch, 2)
    with pytest.raises(Stop):
        main(run_args(tmp_path / "out"))
    assert sent == {"train_clients": [2], "count_correct": [1]}
    assert len(helpers) == 1 and helpers[0].returncode == -signal.SIGKILL


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:
            continue  # gone while listing
        if stat and int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def _running(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"  # a zombie has exited and waits to be reaped


@multi_cpu
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc to find the helper")
def test_helper_exits_within_2_s_of_its_parent_being_killed(tmp_path):
    args = run_args(tmp_path / "out", **{"federation.total_rounds": 100000})
    parent = subprocess.Popen([sys.executable, "-m", "reefl.cli", *args], env=cli_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (kids := _children(parent.pid)):
            assert parent.poll() is None and time.monotonic() < deadline, "no helper started"
            time.sleep(0.01)
        time.sleep(0.5)  # let the helper get ready and take tasks
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=60)
        killed = time.monotonic()
        while any(_running(pid) for pid in kids):
            assert time.monotonic() - killed < 2.0, "helper outlived its parent by 2 s"
            time.sleep(0.01)
    finally:
        parent.kill()
        parent.wait(timeout=60)


@multi_cpu
def test_killed_run_keeps_whole_rows_equal_to_those_of_a_run_stopped_there(tmp_path):
    long = {"federation.total_rounds": 100000}
    metrics = tmp_path / "killed" / "metrics.csv"
    run = subprocess.Popen([sys.executable, "-m", "reefl.cli", *run_args(tmp_path / "killed", **long)],
                           env=cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not metrics.exists() or metrics.read_bytes().count(b"\n") < 3:  # the header and two rows
            assert run.poll() is None and time.monotonic() < deadline, "no second row"
            time.sleep(0.01)
        run.send_signal(signal.SIGKILL)
        run.wait(timeout=60)
    finally:
        run.kill()
        run.wait(timeout=60)
    # the helper, which holds the file open from its fork, never writes to it
    written = metrics.read_bytes()
    lines = written.decode().splitlines()
    assert written.endswith(b"\r\n") and len({line.count(",") for line in lines}) == 1
    assert lines[0].startswith("round,") and lines.count(lines[0]) == 1
    rounds = len(lines) - 1
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, rounds + 1))
    state = shared_state(**long)
    stopped = tmp_path / "stopped.csv"
    write_metrics_csv(stopped, itertools.islice(run_rounds(state), rounds), state.model.config.num_exits)
    assert stopped.read_bytes() == written


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc to find the helper")
def test_helper_failing_with_another_error_exits_1_and_never_returns(helper, capfd):
    pid = os.getpid()
    helper.submit(int, "x")  # a ValueError, which is no ``ReeflError`` to reply with
    with pytest.raises(ReeflError, match=r"^helper process ended unexpectedly \(exit status 1\)$"):
        helper.result()
    assert os.getpid() == pid and _children(pid) == []
    assert "ValueError" in capfd.readouterr().err  # its traceback


@multi_cpu
def test_output_printed_before_the_fork_appears_once(tmp_path):
    script = tmp_path / "experiment.py"
    script.write_text(f"from reefl.cli import main\nprint('before')\nmain({run_args(str(tmp_path / 'out'))!r})\n")
    # stdout on a pipe is block-buffered, so "before" is still in this process's buffer when it forks
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=cli_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines().count("before") == 1 and proc.stdout.count("wrote ") == 1


def test_script_without_main_guard_runs_once(tmp_path):
    marks = tmp_path / "marks"
    script = tmp_path / "experiment.py"
    script.write_text(
        "from reefl.cli import main\n"
        f"with open({str(marks)!r}, 'a') as f:\n"
        "    f.write('ran\\n')\n"
        f"main({run_args(str(tmp_path / 'out'))!r})\n"
    )
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=cli_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert marks.read_text() == "ran\n"
    assert (tmp_path / "out" / "metrics.csv").exists()


# -- selection ---------------------------------------------------------------------


@pytest.mark.parametrize("extra", [
    # one evaluation, one client per round
    {"federation.total_rounds": 3, "federation.eval_interval": 2, "federation.sample_fraction": 0.25},
    {"data.split_ratio": 0.8, "federation.total_rounds": 2},  # one test batch, two rounds
    {"data.split_ratio": 0.8, "federation.sample_fraction": 0.25},  # one test batch, one client per round
])
def test_no_helper_for_one_evaluation_or_one_batch(tmp_path, started, extra):
    helpers, _ = started
    assert main(run_args(tmp_path / "out", **extra)) == 0
    assert helpers == []


def test_helper_trains_where_evaluation_has_one_batch(tmp_path, started):
    helpers, sent = started
    assert main(run_args(tmp_path / "out", **{"data.split_ratio": 0.8})) == 0
    assert len(helpers) == 1
    assert sent == {"train_clients": [2] * SHARED["federation.total_rounds"], "count_correct": []}


def test_no_helper_on_one_cpu(tmp_path, started, monkeypatch):
    helpers, _ = started
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(run_args(tmp_path / "out")) == 0
    assert helpers == []


@multi_cpu
def test_no_helper_without_a_blas_thread_setter(tmp_path, started, monkeypatch):
    helpers, _ = started
    assert main(run_args(tmp_path / "shared")) == 0
    monkeypatch.setattr(helper_module, "_blas_threads", lambda: None)
    assert main(run_args(tmp_path / "alone")) == 0
    assert len(helpers) == 1  # the first run's
    for f in ("metrics.csv", "checkpoint.ckpt"):
        assert (tmp_path / "shared" / f).read_bytes() == (tmp_path / "alone" / f).read_bytes(), f


def test_this_process_runs_one_blas_thread_while_the_helper_runs():
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get is None:
        pytest.skip("numpy links no scipy-openblas64")
    original = get()
    lib.scipy_openblas_set_num_threads64_(2)  # so that a count left at 1 elsewhere cannot pass for restored
    try:
        with Helper.started(True) as helper:
            helper.submit(abs, -1)  # the first task forks the helper
            assert helper.result() == 1 and get() == 1
        assert get() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(original)


def test_helper_share_is_longest_first_and_balanced():
    def clients(*work):  # (budget, training examples) per client
        return [SimpleNamespace(budget=b, train=[None] * n) for b, n in work]

    # budgets 2/4/6/8 with equal data: 8 + 2 here against 6 + 4 in the helper
    assert helper_share(clients((2, 8), (4, 8), (6, 8), (8, 8))) == [False, True, True, False]
    assert helper_share(clients((8, 1), (2, 10))) == [True, False]  # 8 x 1 is less work than 2 x 10
    assert helper_share(clients((4, 5), (4, 5), (4, 5))) == [False, True, False]  # ties in sampled order
    assert helper_share(clients((4, 5))) == [False]
