"""Span recorder for the traced run, attached to povmlab from outside.

`Recorder.install` replaces, for the life of the traced phase only:

* every public function of every ``povmlab`` module, at each module's own
  binding (``conditional`` calls ``op_norm`` through its own
  ``from .linalg import op_norm`` name, so patching ``povmlab.linalg`` alone
  would miss it);
* ``ConditionalPOVM.effect`` and the public methods of the report types;
* the ``numpy.linalg`` decompositions the toolkit reaches (``eigh``,
  ``eigvalsh``, ``svd``, ``qr``) and ``norm`` when it takes the matrix
  2-norm, which is an SVD.

A span is the row ``id, parent, op, name, start, end, thread, n, batch`` of a
flat float array, so a long run allocates no Python object per span; ``n``
and ``batch`` give the matrix stack handed to a decomposition and are 0
elsewhere.  Each thread keeps its own parent stack, because the scenario pool
runs checks on worker threads.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
import pkgutil
import threading
import types
import weakref
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "harness", "cli", "scenarios", "serialization", "reporting", "generators",
    "measurement", "signaling", "geometry", "lattice", "conditional", "linalg", "lapack",
)
DECOMPOSITIONS = ("eigh", "eigvalsh", "svd", "qr")
COLUMNS = ("id", "parent", "op", "name", "start_s", "end_s", "thread", "n", "batch")
SMALL_N = 16
# self times are differences of the same clock readings, so on each op they
# add up to its wall time up to float rounding
ACCOUNTING_TOL_S = 1e-6
ROOT = "harness.op"


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s/op"
    if name == "lapack.work_n3":
        return "n3/op"
    if name.endswith(("calls", "builds", "spans_per_op")):
        return "calls/op"
    return "fraction"


class Recorder:
    def __init__(self) -> None:
        self.data = array("d")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = -1
        self._ids = itertools.count(1)
        self._threads = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._seen_lock = threading.Lock()
        self.effect_hits = 0
        self.effect_calls = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.thread = next(self._threads)
        return local.stack

    # -- spans --------------------------------------------------------------

    def begin_op(self, op: int) -> int:
        """Open the root span of an op on the calling thread."""
        self.op = op
        sid = next(self._ids)
        self._stack().append(sid)
        return sid

    def end_op(self, sid: int, start: float, end: float) -> None:
        """Close the root span with the op's own clock readings, so the root
        span's duration is the op's measured wall time."""
        self._stack().pop()
        self.data.extend((sid, 0, self.op, self._name_id(ROOT), start, end,
                          self._local.thread, 0, 0))

    def wrap(self, name: str, fn, sized: bool = False):
        """Return ``fn`` recording one span per call; ``sized`` records the
        shape of the first argument (for decompositions)."""
        rec = self
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else 0
            n = batch = 0
            if sized:
                shape = np.shape(args[0])
                n = shape[-1]
                batch = math.prod(shape[:-2])
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.data.extend((sid, parent, rec.op, name_id, t0, t1,
                                 rec._local.thread, n, batch))

        return wrapper

    def _wrap_norm(self, norm):
        svd_norm = self.wrap("lapack.norm2", norm, sized=True)

        @functools.wraps(norm)
        def wrapper(x, ord=None, axis=None, keepdims=False):
            if ord in (2, -2) and axis is None and np.ndim(x) == 2:
                return svd_norm(x, ord, axis, keepdims)
            return norm(x, ord, axis, keepdims)

        return wrapper

    def _wrap_effect(self, effect):
        """Span plus the cache-hit count: a call is a hit when it returns the
        same object as an earlier call on the same POVM and cells."""
        traced = self.wrap("conditional.ConditionalPOVM.effect", effect)
        rec = self

        @functools.wraps(effect)
        def wrapper(povm, cells):
            if not isinstance(cells, (set, frozenset, list, tuple, range)):
                cells = list(cells)
            out = traced(povm, cells)
            key = frozenset(int(k) for k in cells)
            with rec._seen_lock:
                seen = rec._seen.setdefault(povm, {})
                rec.effect_hits += seen.get(key) is out
                rec.effect_calls += 1
                seen[key] = out
            return out

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import povmlab
        from povmlab.conditional import ConditionalPOVM
        from povmlab.reporting import CheckItem, CheckReport

        modules = [povmlab] + [
            importlib.import_module(f"povmlab.{info.name}")
            for info in pkgutil.iter_modules(povmlab.__path__)
        ]
        wrappers: dict[object, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("povmlab.")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.split(".")[1]
                    wrappers[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                self._patch(mod, attr, wrappers[obj])
        self._patch(ConditionalPOVM, "effect", self._wrap_effect(ConditionalPOVM.effect))
        for cls in (CheckReport, CheckItem):
            for attr, obj in list(vars(cls).items()):
                if not attr.startswith("_") and isinstance(obj, types.FunctionType):
                    self._patch(cls, attr, self.wrap(f"reporting.{cls.__name__}.{attr}", obj))
        for name in DECOMPOSITIONS:
            self._patch(np.linalg, name,
                        self.wrap(f"lapack.{name}", getattr(np.linalg, name), sized=True))
        self._patch(np.linalg, "norm", self._wrap_norm(np.linalg.norm))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_cost_s(self, calls: int = 20000) -> float:
        """Wall time one span adds to a call, measured on an empty function.
        The recorder charges it to the calling layer's self time."""
        def noop():
            return None

        traced = self.wrap("harness.calibration", noop)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        del self.data[-calls * len(COLUMNS):]
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    # -- analysis -----------------------------------------------------------

    def table(self) -> np.ndarray:
        """The spans as a read-only view; record nothing while it is alive."""
        return np.frombuffer(self.data, dtype=float).reshape(-1, len(COLUMNS))

    def self_times(self, spans: np.ndarray) -> np.ndarray:
        """Span duration minus the durations of its direct children, which
        run on the parent's thread and so nest inside it."""
        sid, parent = spans[:, 0].astype(np.int64), spans[:, 1].astype(np.int64)
        dur = spans[:, 5] - spans[:, 4]
        child = np.bincount(parent, weights=dur, minlength=int(sid.max()) + 1)
        return dur - child[sid]

    def check_accounting(self) -> dict:
        """On every op, the self times of the spans on the op's thread (every
        layer, the wait on the scenario pool included) must add up to the op's
        wall time, no self time may be negative, and every span of a pool
        thread must lie inside its op.  Raises AssertionError otherwise."""
        spans = self.table()
        selfs = self.self_times(spans)
        if selfs.min(initial=0.0) < -ACCOUNTING_TOL_S:
            raise AssertionError(f"negative self time {selfs.min():.3e}s")
        ops = spans[:, 2].astype(np.int64)
        is_root = spans[:, 3] == self._name_ids[ROOT]
        roots = spans[is_root]
        first = int(roots[:, 2].min())
        start = np.zeros(int(roots[:, 2].max()) - first + 1)
        end = np.zeros_like(start)
        start[roots[:, 2].astype(np.int64) - first] = roots[:, 4]
        end[roots[:, 2].astype(np.int64) - first] = roots[:, 5]
        main = spans[:, 6] == roots[0, 6]
        summed = np.bincount(ops[main] - first, weights=selfs[main], minlength=len(start))
        gap = np.abs(summed - (end - start))
        if gap.max() > ACCOUNTING_TOL_S:
            op = int(gap.argmax()) + first
            raise AssertionError(f"op {op}: self times miss its wall time by {gap.max():.3e}s")
        pool = spans[~main]
        idx = pool[:, 2].astype(np.int64) - first
        if np.any(pool[:, 4] < start[idx]) or np.any(pool[:, 5] > end[idx]):
            raise AssertionError("a pool-thread span lies outside its op")
        return {"ops": len(roots), "spans": len(spans), "max_gap_s": float(gap.max()),
                "pool_spans": len(pool)}

    def layer_table(self, workers: int) -> dict[str, float]:
        """Per-op layer counts and self times plus the named counters."""
        spans = self.table()
        selfs = self.self_times(spans)
        ids = spans[:, 3].astype(np.int64)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_by = np.bincount(ids, weights=selfs, minlength=k)
        dur_by = np.bincount(ids, weights=spans[:, 5] - spans[:, 4], minlength=k)
        by = {name: i for i, name in enumerate(self.names)}

        def count(name):
            return float(calls[by[name]]) if name in by else 0.0

        def selfsum(name):
            return float(self_by[by[name]]) if name in by else 0.0

        def dursum(name):
            return float(dur_by[by[name]]) if name in by else 0.0

        ops = max(count(ROOT), 1.0)
        layer_of = np.array([name.split(".", 1)[0] for name in self.names])
        table: dict[str, float] = {}
        for layer in LAYERS:
            members = layer_of == layer
            busy = float(self_by[members].sum())
            if layer == "scenarios":
                busy -= selfsum("scenarios.run_scenarios")  # the pool wait, reported apart
            if layer != "harness":
                table[f"{layer}.calls"] = float(calls[members].sum()) / ops
            table[f"{layer}.self_s"] = busy / ops
        # a system built inside another build_* call (alternating starts from
        # sharp) counts once
        builds = np.isin(ids, [i for i, name in enumerate(self.names)
                               if name.startswith("lattice.build_")])
        sid = spans[:, 0].astype(np.int64)
        build_sids = np.zeros(int(sid.max()) + 1, dtype=bool)
        build_sids[sid[builds]] = True
        outer_builds = int((builds & ~build_sids[spans[:, 1].astype(np.int64)]).sum())
        lapack = layer_of[ids] == "lapack"
        n, batch = spans[lapack, 7], np.maximum(spans[lapack, 8], 1)
        decomps = batch.sum()
        table.update({
            "lapack.svd_calls": (count("lapack.svd") + count("lapack.norm2")) / ops,
            "lapack.eigh_calls": count("lapack.eigh") / ops,
            "lapack.eigvalsh_calls": count("lapack.eigvalsh") / ops,
            "lapack.qr_calls": count("lapack.qr") / ops,
            "lapack.small_frac": float(batch[n <= SMALL_N].sum() / decomps) if decomps else 0.0,
            "lapack.work_n3": float((batch * n ** 3).sum()) / ops,
            "linalg.is_hermitian.self_s": selfsum("linalg.is_hermitian") / ops,
            "linalg.op_norm.calls": count("linalg.op_norm") / ops,
            "linalg.eigh_checked.calls": count("linalg.eigh_checked") / ops,
            "conditional.builds": (count("conditional.build_conditional")
                                   + count("conditional.build_conditional_from_unnormalized"))
            / ops,
            "conditional.effect_calls": self.effect_calls / ops,
            "conditional.effect_hit_ratio": (self.effect_hits / self.effect_calls
                                             if self.effect_calls else 0.0),
            "lattice.system_builds": outer_builds / ops,
            "lattice.evolve_calls": count("lattice.heisenberg_evolve") / ops,
            "lattice.effect_of_calls": count("lattice.effect_of") / ops,
            "scenarios.pool_wait_s": selfsum("scenarios.run_scenarios") / ops,
            "scenarios.parallel_efficiency": (
                dursum("scenarios.run_one") / (workers * dursum("scenarios.run_scenarios"))
                if dursum("scenarios.run_scenarios") else 0.0),
            "trace.spans_per_op": len(spans) / ops,
        })
        return table

    def write_spans(self, path) -> None:
        np.savez_compressed(path, spans=self.table(), columns=np.array(COLUMNS),
                            names=np.array(self.names))
