"""One helper process per run: it trains a share of each round's sampled
clients and scores the back half of each evaluation's test batches.

``reefl run`` makes at most one, when ``federation.wants_helper`` says so;
its process starts when round 1 first asks whether it is ready. Each task is
a pickled ``(fn, args)`` over the helper's stdin, where ``fn`` is a
module-level function of the simulator (pickled by name), and its one reply
over stdout is ``fn(*args)``, or the ``ReeflError`` that the call raised.

The helper (``python -m reefl.helper``) runs with one BLAS thread and exits
at EOF on stdin, which it also sees when its parent dies. Once the parent
sees it ready, the parent too runs on one BLAS thread until the helper
stops, so that the two processes do not oversubscribe the CPUs. Where
numpy's OpenBLAS offers no thread-count setter, the helper only scores
evaluations.
"""
from __future__ import annotations

import os
import pickle
import select
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import ReeflError

READY = "ready"


class Helper:
    """The parent's handle on one helper process; use ``started``."""

    def __init__(self):
        self.proc = None  # started by the first ``ready`` call, so that set-up neither imports nor starts it
        self._ready = False
        self._restore_blas = None  # set once it is ready, where this process found a BLAS thread setter

    @classmethod
    @contextmanager
    def started(cls, wanted: bool):
        """Yield a new helper, or None unless ``wanted``. Leaving normally
        closes its stdin and waits for its process to exit; leaving by any
        exception, or before it was ever ready, kills the process first.
        Either way this process gets back its BLAS threads."""
        if not wanted:
            yield None
            return
        helper = cls()
        try:
            yield helper
        except BaseException:
            helper._stop(kill=True)
            raise
        helper._stop(kill=not helper._ready)  # a short run need not wait for it to finish starting

    def _stop(self, kill: bool) -> None:
        try:
            if self.proc is not None:
                if kill:
                    self.proc.kill()
                with self.proc:  # closes the pipes, then waits
                    pass
        finally:
            if self._restore_blas is not None:
                self._restore_blas()

    def ready(self) -> bool:
        """Whether the helper has signalled that it takes tasks; never blocks.
        The first call starts its process; the first time it is ready, this
        process switches to one BLAS thread."""
        if self.proc is None:
            import subprocess  # here, since most runs start no helper and need not import it

            env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
            src = str(Path(__file__).resolve().parents[1])
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "reefl.helper"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
            )
        if not self._ready and select.select([self.proc.stdout], [], [], 0)[0]:
            self._ready = self._receive() == READY
            if self._ready:
                self._restore_blas = _one_blas_thread()
        return self._ready

    @property
    def trains(self) -> bool:
        """Whether rounds may hand it clients: it is ready, and this process runs one BLAS thread."""
        return self._restore_blas is not None

    def submit(self, fn, *args) -> None:
        """Send ``fn(*args)`` to the helper; ``result`` collects its reply."""
        try:
            pickle.dump((fn, args), self.proc.stdin, pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except BrokenPipeError:
            self._lost()

    def result(self):
        """The reply to the task sent last; raises the ``ReeflError`` that the task raised."""
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
        raise ReeflError(f"helper process ended unexpectedly (exit status {self.proc.wait()})")


def _one_blas_thread():
    """Set numpy's OpenBLAS to one thread; returns what restores the previous
    count, or None where no thread-count setter is found."""
    import ctypes

    umath = sys.modules.get("numpy._core._multiarray_umath", sys.modules.get("numpy.core._multiarray_umath"))
    try:
        lib = ctypes.CDLL(umath.__file__)  # its handle also finds symbols of the BLAS it links
    except (AttributeError, OSError):
        return None
    for get, set_ in (
        ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
        ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
        ("openblas_get_num_threads", "openblas_set_num_threads"),
    ):
        if hasattr(lib, get) and hasattr(lib, set_):
            getter, setter = getattr(lib, get), getattr(lib, set_)
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            previous = getter()
            setter(1)
            return lambda: setter(previous)
    return None


def serve() -> None:
    """The helper's side: signal ready, then answer tasks until EOF."""
    import signal

    import numpy as np

    from . import federation  # noqa: F401  -- imported before ready, so that no task waits for it

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupted parent kills its helper itself
    tasks, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # nothing but replies may reach the reply stream
    try:
        pickle.dump(READY, replies)
        replies.flush()
        with np.errstate(all="ignore"):
            while True:
                fn, args = pickle.load(tasks)
                try:
                    reply = fn(*args)
                except ReeflError as exc:
                    reply = exc
                pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
                replies.flush()
    except (EOFError, BrokenPipeError):
        pass  # the parent is done, or gone


if __name__ == "__main__":
    serve()
