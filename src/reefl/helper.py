"""One helper process per run: it trains a share of each round's sampled
clients and scores the back half of each evaluation's test batches.

``reefl run`` makes at most one, when ``federation.wants_helper`` says so.
Its process is a ``fork`` of the run, made by the first task (in round 1),
so it takes tasks the moment it exists. Each task is a pickled ``(fn,
args)`` over one pipe, where ``fn`` is a module-level function of the
simulator (pickled by name); its one reply, over another pipe, is
``fn(*args)`` or the ``ReeflError`` that the call raised. The state travels
with every task, as the fork's copy of it is stale after round 1.

Just before it forks, this process switches numpy's OpenBLAS to one thread,
which the helper inherits, and it gets its previous count back when the
helper stops, so that two processes do not oversubscribe the CPUs. Without
an OpenBLAS thread-count setter, no helper is made. The helper exits at EOF
on its task pipe, which it also sees when its parent dies.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from contextlib import contextmanager

import numpy as np

from .errors import ReeflError


class Helper:
    """The parent's handle on one helper process; use ``started``."""

    def __init__(self, blas: tuple):
        self.pid = None  # forked by the first ``submit``, so that set-up-only runs start nothing
        self.returncode = None  # its exit status, once reaped
        self._blas = blas  # numpy's OpenBLAS thread-count getter and setter
        self._restore_blas = None  # set when it is forked

    @classmethod
    @contextmanager
    def started(cls, wanted: bool):
        """Yield a new helper, or None unless ``wanted`` and numpy's OpenBLAS
        offers a thread-count setter. Leaving normally closes its task pipe
        and waits for its process to exit; leaving by any exception kills
        the process first. Either way this process gets back its BLAS
        threads."""
        blas = _blas_threads() if wanted else None
        if blas is None:
            yield None
            return
        helper = cls(blas)
        try:
            yield helper
        except BaseException:
            helper._stop(kill=True)
            raise
        helper._stop(kill=False)

    def _fork(self) -> None:
        """Switch this process to one BLAS thread, then fork the helper."""
        get, set_ = self._blas
        previous = get()
        set_(1)
        self._restore_blas = lambda: set_(previous)
        sys.stdout.flush()  # so that no buffered output is copied into the fork
        sys.stderr.flush()
        task_r, task_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the helper, which leaves by ``os._exit`` only, never into the frames that forked it
            status = 1
            try:
                os.close(task_w)  # so that it sees EOF when its parent dies
                os.close(reply_r)
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupted parent kills its helper itself
                sys.stdout = sys.stderr  # the run's stdout carries the run's own output only
                serve(os.fdopen(task_r, "rb"), os.fdopen(reply_w, "wb"))
                status = 0
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(status)
        os.close(task_r)
        os.close(reply_w)
        self.pid, self._tasks, self._replies = pid, os.fdopen(task_w, "wb"), os.fdopen(reply_r, "rb")

    def _stop(self, kill: bool) -> None:
        try:
            if self.pid is not None and self.returncode is None:
                self._end(kill)
        finally:
            if self._restore_blas is not None:
                self._restore_blas()

    def _end(self, kill: bool) -> int:
        """Close the pipes and reap the process, killed first if ``kill``; its exit status."""
        if kill:
            os.kill(self.pid, signal.SIGKILL)  # it is not reaped yet, so the pid is still its own
        for pipe in (self._tasks, self._replies):
            try:
                pipe.close()
            except OSError:
                pass  # a task left unsent to a helper that is gone
        self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode

    def submit(self, fn, *args) -> None:
        """Send ``fn(*args)`` to the helper, forking it first if need be;
        ``result`` collects its reply."""
        if self.pid is None:
            self._fork()
        try:
            pickle.dump((fn, args), self._tasks, pickle.HIGHEST_PROTOCOL)
            self._tasks.flush()
        except BrokenPipeError:
            self._lost()

    def result(self):
        """The reply to the task sent last; raises the ``ReeflError`` that the task raised."""
        try:
            reply = pickle.load(self._replies)
        except (EOFError, OSError, pickle.UnpicklingError):
            self._lost()
        if isinstance(reply, ReeflError):
            raise reply
        return reply

    def _lost(self):
        raise ReeflError(f"helper process ended unexpectedly (exit status {self._end(kill=True)})")


def _blas_threads():
    """numpy's OpenBLAS thread-count getter and setter, or None where none is found."""
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
            return getter, setter
    return None


def serve(tasks, replies) -> None:
    """Answer each pickled ``(fn, args)`` read from ``tasks`` with a pickled
    reply on ``replies``, until EOF on ``tasks`` or a broken ``replies``."""
    try:
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
