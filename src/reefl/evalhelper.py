"""A helper process that scores the back half of each evaluation's test batches.

``reefl run`` starts at most one per run (``federation.wants_eval_helper``).
Tasks and replies are pickles over the helper's stdin and stdout: a task
holds the parameter arrays, the ``ModelConfig``, the budget, the helper's
``(images, labels)`` batches and the modulation flag; a reply holds the
per-exit int64 correct counts, or the ``ReeflError`` that scoring raised.
The helper (``python -m reefl.evalhelper``) imports only the forward path,
runs with one BLAS thread, and exits at EOF on stdin, which it also sees
when its parent dies.
"""
from __future__ import annotations

import os
import pickle
import select
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

from .errors import ReeflError

READY = "ready"


class EvalHelper:
    """The parent's handle on one helper process; use ``started``."""

    def __init__(self):
        import subprocess  # here, since most runs start no helper and need not import it

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(Path(__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "reefl.evalhelper"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
        )
        self._ready = False

    @classmethod
    @contextmanager
    def started(cls, wanted: bool):
        """Yield a new helper, or None unless ``wanted``. Leaving normally
        closes its stdin and waits for it to exit; leaving by any exception
        kills it first."""
        if not wanted:
            yield None
            return
        helper = cls()
        with helper.proc:
            try:
                yield helper
            except BaseException:
                helper.proc.kill()
                raise

    def ready(self) -> bool:
        """Whether the helper has signalled that it takes tasks; never blocks."""
        if not self._ready and select.select([self.proc.stdout], [], [], 0)[0]:
            self._ready = self._receive() == READY
        return self._ready

    def submit(self, model, batches: list, modulation: bool) -> None:
        """Send one task; collect its counts with ``result``."""
        arrays = {name: t.data for name, t in model.params.items()}
        try:
            _send(self.proc.stdin, (arrays, model.config, model.budget, batches, modulation))
        except BrokenPipeError:
            self._lost()

    def result(self):
        """The int64 per-exit counts of the task sent last; raises what scoring raised."""
        reply = self._receive()
        if isinstance(reply, ReeflError):
            raise reply
        return reply

    def _receive(self):
        try:
            return pickle.load(self.proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError):
            self._lost()

    def _lost(self):
        self.proc.kill()  # a no-op on a helper that has exited already
        raise ReeflError(f"evaluation helper process ended unexpectedly (exit status {self.proc.wait()})")


def _send(stream, message) -> None:
    stream.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    stream.flush()


def serve() -> None:
    """The helper's side: signal ready, then answer tasks until EOF."""
    import signal

    import numpy as np

    from .numerics import Tensor
    from .ree import count_correct

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupted parent kills its helper itself
    tasks, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # nothing but replies may reach the reply stream
    try:
        _send(replies, READY)
        with np.errstate(all="ignore"):
            while True:
                arrays, config, budget, batches, modulation = pickle.load(tasks)
                try:
                    params = {name: Tensor(a) for name, a in arrays.items()}
                    view = SimpleNamespace(params=params, config=config, budget=budget)
                    _send(replies, count_correct(view, batches, modulation))
                except ReeflError as exc:
                    _send(replies, exc)
    except (EOFError, BrokenPipeError):
        pass  # the parent is done, or gone


if __name__ == "__main__":
    serve()
