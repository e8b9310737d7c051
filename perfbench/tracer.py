"""Span tracer that times reefl layers from outside the program.

`Tracer.install()` replaces every module binding of each traced public
function (for example `reefl.backbone.matmul`, `reefl.ree.matmul` and the
defining `reefl.numerics.tensor.matmul`) and `Tensor.backward` with a
wrapper that records a span: name, start, end, parent, the round, client
and budget it ran under, a count (bytes, examples or queue slots, per
function) and the phase. `uninstall()` puts every original binding back.
Spans stay in memory until `save()` writes them as one `.npz` file.
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

RUN, VERIFY = 0, 1

NUMERIC_OPS = {
    "matmul": "matmul", "gelu": "gelu", "softmax": "softmax", "log_softmax": "log_softmax",
    "layer_norm": "layer_norm", "cross_entropy": "cross_entropy",
    "add": "elementwise", "sub": "elementwise", "mul": "elementwise",
    "reshape": "movement", "transpose": "movement", "narrow": "movement",
    "concat": "movement", "stack": "movement", "broadcast_to": "movement",
}

# defining module -> traced public functions
TARGETS = {
    "reefl.numerics.tensor": ("matmul", "add", "sub", "mul", "reshape", "transpose",
                              "narrow", "concat", "stack", "broadcast_to"),
    "reefl.numerics.functional": ("gelu", "softmax", "log_softmax", "layer_norm", "cross_entropy"),
    "reefl.backbone": ("tokenize", "block_forward"),
    "reefl.ree": ("ree_forward", "classify_exit", "modulate", "forward_with_exits"),
    "reefl.training": ("local_train", "exit_ce_losses", "kd_loss", "sgd_step"),
    "reefl.federation": ("run_round", "slice_submodel", "aggregate", "evaluate", "comm_cost", "build_server"),
    "reefl.data": ("synth_dataset", "load_dataset", "lda_partition", "split_train_test"),
    "reefl.checkpoint": ("save_checkpoint", "load_checkpoint"),
    "reefl.config": ("parse_config",),
}
BACKWARD = "backward"


def _tensor_bytes(args, out) -> int:
    from reefl.numerics import Tensor

    total = out.data.nbytes
    for arg in args:
        if isinstance(arg, Tensor):
            total += arg.data.nbytes
        elif isinstance(arg, (list, tuple)):
            total += sum(t.data.nbytes for t in arg if isinstance(t, Tensor))
    return total


def _counters():
    """name -> f(args, result) giving the span's count."""
    from reefl.training import all_named_tensors

    counts = {op: _tensor_bytes for op in NUMERIC_OPS}
    counts.update(
        ree_forward=lambda a, out: len(a[0]),
        forward_with_exits=lambda a, out: int(np.asarray(a[1]).shape[0]),
        local_train=lambda a, out: len(a[0].train) * a[2].local_epochs,
        slice_submodel=lambda a, out: sum(t.data.nbytes for t in all_named_tensors(out).values()),
        comm_cost=lambda a, out: int(out),
        evaluate=lambda a, out: len(a[1]),
        save_checkpoint=lambda a, out: os.path.getsize(a[0]),
    )
    return counts


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_ctx: list[tuple] = []  # (round, client, budget, phase)
        self.span_count: list[int] = []
        self._stack = [-1]
        self._ctx = (0, -1, -1, RUN)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, count):
        name_id = len(self.names)
        self.names.append(name)
        span_names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        ctxs, counts, stack, clock = self.span_ctx, self.span_count, self._stack, time.perf_counter
        enter = self._enter_context(name)

        def traced(*args, **kwargs):
            i = len(span_names)
            span_names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            counts.append(0)
            saved = self._ctx
            if enter is not None:
                self._ctx = enter(saved, args)
            ctxs.append(self._ctx)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                self._ctx = saved
            if count is not None:
                counts[i] = count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _enter_context(name: str):
        if name == "run_round":
            return lambda ctx, a: (int(a[1]), ctx[1], ctx[2], ctx[3])
        if name == "local_train":
            return lambda ctx, a: (ctx[0], int(a[0].id), int(a[0].budget), ctx[3])
        return None

    def set_phase(self, phase: int) -> None:
        """Tag spans started from now on with ``phase`` (RUN or VERIFY)."""
        self._ctx = self._ctx[:3] + (phase,)

    def install(self) -> list[tuple[str, str]]:
        """Patch every binding of the traced functions; returns (module, attr) pairs."""
        import importlib

        from reefl.numerics import Tensor

        if self._patched:
            raise RuntimeError("tracer already installed")
        counters = _counters()
        originals = {}
        for module_name, fnames in TARGETS.items():
            module = importlib.import_module(module_name)
            for fname in fnames:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(fn, fname, counters.get(fname)))
        for module in [m for n, m in sorted(sys.modules.items()) if n == "reefl" or n.startswith("reefl.")]:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        backward = Tensor.backward
        self._patched.append((Tensor, BACKWARD, backward))
        Tensor.backward = self._wrap(backward, BACKWARD, None)
        return [(getattr(owner, "__name__", str(owner)), attr) for owner, attr, _ in self._patched]

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def save(self, path) -> None:
        ctx = np.array(self.span_ctx, dtype=np.int64).reshape(-1, 4)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int64),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
            round=ctx[:, 0], client=ctx[:, 1], budget=ctx[:, 2], phase=ctx[:, 3],
            count=np.array(self.span_count, dtype=np.int64),
        )
