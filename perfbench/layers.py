"""Per-layer tracing from outside the program.

:func:`install` wraps the public entry points of each layer -- module
functions and class methods -- in span recorders. A module function is
rebound in *every* loaded ``repro`` module that holds it, so callers that
imported it by name are wrapped too; a caller the patch misses shows up in
:func:`reconcile`, which compares span counts with the program's own
counters. Spans live in memory (per thread) and are written out once, at the
end of the run. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (layer, module, attribute) for module functions; (layer, module, class,
# method) for methods. Order does not matter.
FUNCTIONS = [
    ("graph", "repro.graph.rmat", "rmat_graph"),
    ("graph", "repro.graph.grid", "grid_graph"),
    ("context", "repro.core.context", "make_context"),
    ("select", "repro.core.buckets", "window_members"),
    ("select", "repro.core.buckets", "next_bucket"),
    ("pushpull", "repro.core.pushpull", "decide_mode"),
    ("long", "repro.core.pruning", "long_phase_push"),
    ("long", "repro.core.pruning", "long_phase_pull"),
    ("relax", "repro.core.relax", "apply_relaxations"),
    ("bf", "repro.core.bellman_ford", "bellman_ford_stage"),
    ("cost", "repro.runtime.costmodel", "evaluate_cost"),
    ("cost", "repro.runtime.costmodel", "simulated_gteps"),
    ("repair", "repro.dynamic.repair", "repair_sssp"),
    ("versioner.apply", "repro.dynamic.updates", "apply_batch"),
]
METHODS = [
    ("graph", "repro.graph.csr", "CSRGraph", "sorted_by_weight"),
    ("classify", "repro.graph.csr", "CSRGraph", "short_edge_offsets"),
    ("select", "repro.core.stepping", "DeltaStepping", "next_step"),
    ("select", "repro.core.stepping", "RadiusStepping", "next_step"),
    ("select", "repro.core.stepping", "RhoStepping", "next_step"),
    ("select", "repro.core.bucket_index", "BucketIndex", "__init__"),
    ("select", "repro.core.bucket_index", "BucketIndex", "members"),
    ("select", "repro.core.bucket_index", "BucketIndex", "min_bucket"),
    ("select", "repro.core.bucket_index", "BucketIndex", "on_relaxed"),
    ("select", "repro.core.bucket_index", "BucketIndex", "on_settled"),
    ("short", "repro.core.delta_stepping", "DeltaSteppingEngine", "_short_phase"),
    ("comm", "repro.runtime.comm", "Communicator", "exchange_by_vertex"),
    ("comm", "repro.runtime.comm", "Communicator", "exchange_by_rank"),
    ("comm", "repro.runtime.comm", "Communicator", "exchange_by_rank_counts"),
    ("comm", "repro.runtime.comm", "Communicator", "allreduce"),
    ("account", "repro.core.context", "ExecutionContext", "charge"),
    ("account", "repro.core.context", "ExecutionContext", "charge_scan"),
    ("account", "repro.core.context", "ExecutionContext", "scan_all_ranks"),
    ("account", "repro.runtime.metrics", "Metrics", "add_compute"),
    ("account", "repro.runtime.metrics", "Metrics", "add_exchange"),
    ("account", "repro.runtime.metrics", "Metrics", "add_allreduce"),
    ("account", "repro.runtime.metrics", "Metrics", "note_phase"),
    ("account", "repro.runtime.metrics", "Metrics", "note_bucket"),
    ("solve", "repro.core.solver", "BatchSolver", "solve"),
    ("admit", "repro.serve.broker", "QueryBroker", "submit"),
    ("serve.solve", "repro.serve.broker", "QueryBroker", "_solve_group"),
    ("cache.get", "repro.serve.cache", "DistanceCache", "get"),
    ("cache.get", "repro.serve.cache", "DistanceCache", "peek"),
    ("cache.evict", "repro.serve.cache", "DistanceCache", "evict_snapshot"),
    ("cache.evict", "repro.serve.cache", "DistanceCache", "_pick_victim"),
    ("events.emit", "repro.serve.events", "WideEventLog", "emit"),
    ("versioner.apply", "repro.dynamic.versioner", "GraphVersioner", "apply"),
]


class _Thread:
    """One thread's span columns, open-span stack and running totals."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.layer = array("h")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[list] = []  # [layer, index, child_seconds]
        self.calls: Counter = Counter()  # outermost spans per layer
        self.self_s: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.counts: Counter = Counter()  # boundary counts (records, ...)


class Recorder:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._lock = threading.Lock()
        self.solves: list[dict] = []  # per-solve span deltas + program counters
        self.fn_layer: dict[str, str] = {}
        self._originals: dict[int, str] = {}  # id(original) -> key
        self.stray: set[str] = set()  # seen by uninstall, reported by reconcile
        self._patched: list[tuple] = []

    # -- recording ------------------------------------------------------
    def _thread(self) -> _Thread:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _Thread(len(self._threads))
                self._threads.append(st)
            self._local.st = st
        return st

    def _layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def wrap(self, fn, layer: str, key: str, after=None):
        lid = self._layer_id(layer)
        self.fn_layer[key] = layer
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = rec._thread()
            stack = st.stack
            parent = stack[-1] if stack else None
            idx = len(st.t0)
            st.layer.append(lid)
            st.parent.append(parent[1] if parent is not None else -1)
            st.t1.append(0.0)
            frame = [lid, idx, 0.0]
            stack.append(frame)
            t0 = clock()
            st.t0.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.t1[idx] = t1
                dur = t1 - t0
                st.self_s[lid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if parent is None or parent[0] != lid:
                    st.calls[lid] += 1
                st.fn_calls[key] += 1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    # -- installation ---------------------------------------------------
    def _hooks(self):
        def relax(args, changed):
            counts = self._thread().counts
            counts["relax.records"] += int(np.asarray(args[1]).size)
            counts["relax.changed"] += int(changed.size)

        def exchange(args, _):
            self._thread().counts["comm.messages"] += int(np.asarray(args[1]).sum())

        def repair(args, res):
            counts = self._thread().counts
            counts["repair.dirty"] += int(res.dirty)
            counts["repair.relax_records"] += int(res.relax_records)
            counts["repair.repaired"] += 0 if res.fallback else 1

        return {
            "repro.core.relax.apply_relaxations": relax,
            "repro.runtime.metrics.Metrics.add_exchange": exchange,
            "repro.dynamic.repair.repair_sssp": repair,
        }

    def _solve_wrapper(self, fn, key: str):
        """``BatchSolver.solve`` additionally records, per solve, the span
        counts taken inside it next to the program's own counters."""
        rec = self

        def measured(solver, *args, **kwargs):
            st = rec._thread()
            before = Counter(st.fn_calls)
            relaxed = st.counts["relax.records"]
            res = fn(solver, *args, **kwargs)
            spans = Counter(st.fn_calls)
            spans.subtract(before)
            m = res.metrics
            rec.solves.append(
                {
                    "root": int(res.root),
                    "fn": {k: v for k, v in spans.items() if v},
                    "summary": m.summary(),
                    "records": len(m.records),
                    "phase_records": _phase_records(m),
                    "relax_records": st.counts["relax.records"] - relaxed,
                    "applied_records": _applied_records(m),
                }
            )
            return res

        # The solve span encloses ``measured``, so the deltas above see
        # every child span of this solve and nothing else.
        return self.wrap(functools.wraps(fn)(measured), "solve", key)

    def install(self) -> None:
        import repro  # noqa: F401 -- loads the package's modules first
        import repro.dynamic  # noqa: F401
        import repro.serve  # noqa: F401

        hooks = self._hooks()
        loaded = [
            m for name, m in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and m is not None
        ]
        for layer, modname, attr in FUNCTIONS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            key = f"{modname}.{attr}"
            wrapped = self.wrap(orig, layer, key, hooks.get(key))
            self._originals[id(orig)] = key
            for m in loaded:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)
                        self._patched.append((m, name, orig))
        for layer, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            orig = cls.__dict__[attr]
            key = f"{modname}.{clsname}.{attr}"
            if key == "repro.core.solver.BatchSolver.solve":
                wrapped = self._solve_wrapper(orig, key)
            else:
                wrapped = self.wrap(orig, layer, key, hooks.get(key))
            setattr(cls, attr, wrapped)
            self._patched.append((cls, attr, orig))

    def stray_bindings(self) -> list[str]:
        """Module-level names in the program still bound to an unwrapped
        original -- callers that would bypass their layer's spans."""
        stray = []
        for name, m in sorted(sys.modules.items()):
            if m is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(m).items()):
                if id(value) in self._originals and value is not None:
                    stray.append(f"{name}.{attr} -> {self._originals[id(value)]}")
        return stray

    def uninstall(self) -> None:
        self.stray.update(self.stray_bindings())
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    # -- results --------------------------------------------------------
    def counts(self) -> Counter:
        total: Counter = Counter()
        for st in self._threads:
            total.update(st.counts)
        return total

    def fn_calls(self) -> Counter:
        total: Counter = Counter()
        for st in self._threads:
            total.update(st.fn_calls)
        return total

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for st in self._threads:
            calls.update(st.calls)
            self_s.update(st.self_s)
        return {
            name: (int(calls[i]), float(self_s[i]))
            for i, name in enumerate(self.layers)
        }

    def write(self, path: Path) -> int:
        """Write every span (thread, layer, parent, start, end) as .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = {k: [] for k in ("thread", "layer", "parent", "t0", "t1")}
        for st in self._threads:
            k = len(st.t0)
            cols["thread"].append(np.full(k, st.tid, dtype=np.int16))
            cols["layer"].append(np.frombuffer(st.layer, dtype=np.int16)[:k])
            cols["parent"].append(np.frombuffer(st.parent, dtype=np.int64)[:k])
            cols["t0"].append(np.frombuffer(st.t0, dtype=np.float64)[:k])
            cols["t1"].append(np.frombuffer(st.t1, dtype=np.float64)[:k])
        arrays = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
        np.savez(path, layers=np.array(self.layers), **arrays)
        return int(arrays["t0"].size)


def _applied_records(metrics) -> int:
    """Relaxation records the program says it applied to distances: every
    short and Bellman-Ford record, push records, and pull *responses*
    (pull requests are counted as relaxations but apply nothing)."""
    total = sum(n for kind, n in metrics.per_phase_relaxations if kind != "long")
    for stats in metrics.per_bucket_stats:
        if stats.get("mode") == "push":
            total += int(stats.get("relaxations", 0))
        elif stats.get("mode") == "pull":
            total += int(stats.get("responses", 0))
    return total


def _phase_records(metrics) -> dict[str, int]:
    out: Counter = Counter()
    for kind, n in metrics.per_phase_relaxations:
        out[kind] += n
    return dict(out)


def reconcile(rec: Recorder) -> list[str]:
    """Per-solve span counts against the program's own counters.

    A layer entry point that some module still calls unwrapped records no
    spans, so its count falls short of what ``Metrics`` says ran.
    """
    problems = [f"unwrapped binding {b}" for b in sorted(rec.stray)]
    long_keys = ("repro.core.pruning.long_phase_push", "repro.core.pruning.long_phase_pull")
    for s in rec.solves:
        fn, summ = s["fn"], s["summary"]
        layer: Counter = Counter()
        for key, n in fn.items():
            layer[rec.fn_layer[key]] += n
        checks = [
            ("short spans == Metrics.short_phases", layer["short"] == summ["short_phases"]),
            ("long spans == Metrics.long_phases",
             sum(fn.get(k, 0) for k in long_keys) == summ["long_phases"]),
            ("push/pull decisions == Metrics.long_phases", layer["pushpull"] == summ["long_phases"]),
            ("Bellman-Ford spans iff the hybrid switch fired",
             (layer["bf"] > 0) == (summ["hybrid_switch_bucket"] >= 0 or summ["degraded"])),
            ("select spans when buckets ran", layer["select"] > 0 or summ["buckets"] == 0),
            ("records through apply_relaxations == records Metrics counts applied",
             s["relax_records"] == s["applied_records"]),
            ("comm spans when traffic was accounted",
             layer["comm"] > 0 or (summ["bytes"] == 0 and summ["allreduces"] == 0)),
            ("account spans when records exist", layer["account"] > 0 or s["records"] == 0),
            ("a cost span per solve", layer["cost"] > 0),
            ("a context span per solve", layer["context"] > 0),
        ]
        for what, ok in checks:
            if not ok:
                problems.append(f"solve of root {s['root']}: {what} fails ({dict(layer)})")
    return problems
