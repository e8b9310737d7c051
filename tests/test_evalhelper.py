"""The evaluation helper process: the same bits, typed failures, no stray processes."""
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from reefl import federation
from reefl.cli import main
from reefl.config import parse_config
from reefl.data import Example, synth_dataset
from reefl.errors import DivergenceError, ReeflError
from reefl.evalhelper import EvalHelper
from reefl.federation import build_server, eval_batch_size, evaluate, run_round
from test_cli import TINY, cli_env
from test_federation import small_model

# TINY with 20% of the data for training: 76 test samples, two evaluation
# batches (64 + 12), and one evaluation per round.
SHARED = {**TINY, "data.per_class": 24, "data.split_ratio": 0.2, "federation.total_rounds": 6}

multi_cpu = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the host has one CPU, where no helper starts"
)


def run_args(out_dir, **extra) -> list[str]:
    kw = {**SHARED, **extra, "output_dir": out_dir}
    return ["run"] + [f"--{k}={v}" for k, v in kw.items()]


def wait_ready(helper: EvalHelper) -> None:
    deadline = time.monotonic() + 60
    while not helper.ready():
        assert time.monotonic() < deadline, "helper not ready within 60 s"
        time.sleep(0.01)


@pytest.fixture
def helper():
    with EvalHelper.started(True) as started:
        wait_ready(started)
        yield started


@pytest.fixture
def started(monkeypatch):
    """The helpers a test starts, and the batch count of every task sent;
    each round first waits until the run's helper is ready, so that every
    evaluation of the run uses it."""
    helpers, submits = [], []
    init, submit, run = EvalHelper.__init__, EvalHelper.submit, federation.run_round

    def recording_init(self):
        init(self)
        helpers.append(self)

    def recording_submit(self, model, batches, modulation):
        submits.append(len(batches))
        submit(self, model, batches, modulation)

    def run_when_ready(state, round_t):
        if state.eval_helper is not None:
            wait_ready(state.eval_helper)
        return run(state, round_t)

    monkeypatch.setattr(EvalHelper, "__init__", recording_init)
    monkeypatch.setattr(EvalHelper, "submit", recording_submit)
    monkeypatch.setattr(federation, "run_round", run_when_ready)
    return helpers, submits


# -- the same bits -----------------------------------------------------------------


@pytest.mark.parametrize("batch_size, batches", [(14, 3), (10, 4)])
def test_evaluate_with_helper_is_bitwise_equal(helper, monkeypatch, batch_size, batches):
    model = small_model(seed=31)
    data = synth_dataset(4, 10, image_size=8, rng=np.random.default_rng(32))
    sent = []
    submit = helper.submit

    def recording_submit(model, batches, modulation):
        sent.append(len(batches))
        submit(model, batches, modulation)

    monkeypatch.setattr(helper, "submit", recording_submit)
    alone = evaluate(model, data, batch_size=batch_size)
    shared = evaluate(model, data, batch_size=batch_size, helper=helper)
    assert sent == [batches // 2]  # the back half
    assert shared.tobytes() == alone.tobytes()


@multi_cpu
def test_cli_run_matches_the_run_pinned_to_one_cpu(tmp_path):
    def pin():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    for name, preexec in (("shared", None), ("pinned", pin)):
        # 20 rounds take about a second; the helper is ready after a third of that
        args = run_args(tmp_path / name, **{"federation.total_rounds": 20})
        proc = subprocess.run([sys.executable, "-m", "reefl.cli", *args], preexec_fn=preexec,
                              capture_output=True, text=True, env=cli_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
    for f in ("metrics.csv", "checkpoint.ckpt"):
        assert (tmp_path / "shared" / f).read_bytes() == (tmp_path / "pinned" / f).read_bytes(), f


# -- failures ----------------------------------------------------------------------


def test_overflow_in_the_helpers_half_is_a_divergence_naming_the_round(helper):
    state = build_server(parse_config(overrides=[f"{k}={v}" for k, v in SHARED.items()]))
    assert len(state.test_set) > eval_batch_size(state.model.config)
    last = state.test_set[-1]
    image = last.image.copy()
    image[0, 0, 0] = np.inf  # a pixel that overflowed float32
    state.test_set[-1] = Example(image, last.label)
    state.eval_helper = helper
    with pytest.raises(DivergenceError, match="evaluating the global model after round 1$"):
        run_round(state, 1)


@multi_cpu
def test_run_whose_helper_dies_exits_1_with_one_error_line(tmp_path, started, monkeypatch, capsys):
    helpers, _ = started
    run = federation.run_round

    def kill_helper_in_round_2(state, round_t):
        if round_t == 2:
            state.eval_helper.proc.kill()
            state.eval_helper.proc.wait()
        return run(state, round_t)

    monkeypatch.setattr(federation, "run_round", kill_helper_in_round_2)
    assert main(run_args(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: evaluation helper process ended unexpectedly (exit status -9)\n"
    assert helpers[0].proc.returncode == -signal.SIGKILL


# -- lifetime ----------------------------------------------------------------------


@multi_cpu
def test_no_helper_remains_after_main_returns(tmp_path, started):
    helpers, submits = started
    assert main(run_args(tmp_path / "out")) == 0
    assert len(helpers) == 1 and helpers[0].proc.returncode == 0
    assert submits == [1] * SHARED["federation.total_rounds"]


class Stop(BaseException):
    """Not an ``Exception``, as a hook's own stop signal may be."""


@multi_cpu
def test_no_helper_remains_after_a_round_raises(tmp_path, started, monkeypatch):
    helpers, submits = started
    run = federation.run_round

    def stop_in_round_2(state, round_t):
        if round_t == 2:
            raise Stop
        return run(state, round_t)

    monkeypatch.setattr(federation, "run_round", stop_in_round_2)
    with pytest.raises(Stop):
        main(run_args(tmp_path / "out"))
    assert submits == [1]
    assert len(helpers) == 1 and helpers[0].proc.returncode == -signal.SIGKILL


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
    {"federation.total_rounds": 3, "federation.eval_interval": 2},  # one evaluation
    {"data.split_ratio": 0.8},  # one batch
])
def test_no_helper_for_one_evaluation_or_one_batch(tmp_path, started, extra):
    helpers, _ = started
    assert main(run_args(tmp_path / "out", **extra)) == 0
    assert helpers == []


def test_no_helper_on_one_cpu(tmp_path, started, monkeypatch):
    helpers, _ = started
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(run_args(tmp_path / "out")) == 0
    assert helpers == []
