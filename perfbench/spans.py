"""In-memory span tracer for the dlgibbs layers.

While installed, every public function of every ``dlgibbs`` module is
replaced, in each module namespace that binds it, by a wrapper that records
one span per call: name, start, end, parent span and operation id.  Callers
look names up in their own module globals at call time (``sampler`` calls
``noncommutation_degree`` through ``dlgibbs.sampler.noncommutation_degree``),
so the wrapper sits exactly where the caller finds the function.  Dense
decompositions that dlgibbs uses (``svd``, ``eigh``, ``eigvalsh``, and
``norm`` with ``ord=2``, which is a full SVD) are also wrapped at
``numpy.linalg``; they are reported under the single name ``linalg.decomp``,
whether the call came through ``dlgibbs.linalg`` or went to numpy directly.

Spans stay in memory until :meth:`Tracer.dump`.  A span's self time is its
duration minus the durations of its direct children; calls are synchronous
and single-threaded, so children never overlap.  :func:`span_cost` measures
what one wrapped call costs over an unwrapped one, in this process.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import time
import types
from collections import defaultdict
from pathlib import Path

DECOMP = "linalg.decomp"
_NUMPY_DECOMPS = ("svd", "eigh", "eigvalsh")
BOHR = "jumps.bohr_decompose"


class Tracer:
    """Records spans for calls into the wrapped functions.

    Span records are tuples ``(op_id, span_id, parent_id, name, start, end,
    outermost)``; ``outermost`` is False when a span of the same name is
    already open, so busy time of a name never counts an interval twice.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.values: dict[tuple[int, str], list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            outer = self._open[name] == 0
            self.spans.append(None)
            self._stack.append(span_id)
            self._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open[name] -= 1
                self._stack.pop()
                self.spans[span_id] = (self._op, span_id, parent, name, start, end, outer)
            if name == BOHR:
                self.values[(self._op, "jumps.bohr_clusters")].append(len(result.frequencies))
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation op_id under a root span named 'op'."""
        self._op = op_id
        try:
            return self.wrap(fn, "op")(*args)
        finally:
            self._op = -1

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every public dlgibbs function and the numpy decompositions."""
        import numpy as np

        import dlgibbs

        modules = [dlgibbs] + [
            importlib.import_module(f"dlgibbs.{m.name}")
            for m in pkgutil.iter_modules(dlgibbs.__path__)
        ]
        wrapped: dict[object, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith("dlgibbs.")
                ):
                    continue
                if obj not in wrapped:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrapped[obj] = self.wrap(obj, name)
                self._patch(mod, attr, wrapped[obj])
        for attr in _NUMPY_DECOMPS:
            self._patch(np.linalg, attr, self.wrap(getattr(np.linalg, attr), DECOMP))
        self._patch(np.linalg, "norm", self._wrap_norm(np.linalg.norm))

    def _wrap_norm(self, norm):
        traced = self.wrap(norm, DECOMP)

        @functools.wraps(norm)
        def dispatch(x, ord=None, *args, **kwargs):
            if ord == 2 and getattr(x, "ndim", 0) == 2:
                return traced(x, ord, *args, **kwargs)
            return norm(x, ord, *args, **kwargs)

        return dispatch

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- accounting ----------------------------------------------------
    def op_totals(self, op_id: int) -> dict[str, float]:
        """Busy seconds, self seconds and call counts of one operation.

        Keys are ``<name>.s``, ``<name>.self_s`` and ``<name>.calls``, plus
        ``jumps.bohr_clusters``, the mean cluster count per Bohr decomposition.
        """
        spans = [s for s in self.spans if s[0] == op_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for _, span_id, _, name, start, end, outer in spans:
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[span_id]
            if outer:
                out[f"{name}.s"] += dur
        for (op, key), vals in self.values.items():
            if op == op_id:
                out[key] = sum(vals) / len(vals)
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every recorded span as JSON."""
        fields = ["op", "span", "parent", "name", "start", "end", "outermost"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call costs over an untraced one, in this process.

    Times ``calls`` calls of a trivial function, wrapped under a root span and
    bare, and takes the median of ``repeats`` paired differences.  Tracing
    overhead per operation is this cost times the operation's span count.
    """
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.wrap(noop, "calibrate")

    def loop(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    diffs = []
    for _ in range(repeats):
        bare = loop(noop)
        traced = tracer.run_op(0, loop, wrapped)
        tracer.spans.clear()
        diffs.append((traced - bare) / calls)
    return max(statistics.median(diffs), 0.0)
