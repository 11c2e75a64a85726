"""The three workloads. Each returns ``(attempted, failed, metrics, info)``.

A run first computes its inputs and the oracle's answer digests in a child
process (:func:`plan`), so none of that memory counts in the measured
process. End-to-end runs (``trace=False``) then time from outside with
tracing off and check every answer outside the timed region. Traced runs
(``trace=True``) run each operation untraced and then traced, require
bit-identical results, reconcile span counts with the program's counters
and report per-layer totals plus the tracing overhead.
"""

from __future__ import annotations

import functools
import gc
import pickle
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path

import numpy as np

import inputs
import layers
from oracle import Answers, Oracle

#: Distinct roots per offline run: enough that most solves of a run use a
#: fresh root, so the quantiles sample the root distribution, not a few
#: roots (the oracle costs one SciPy solve per pool root).
GRAPH = {"rmat-cold": "rmat16", "grid-cold": "grid14"}
POOL = {"rmat16": 96, "grid14": 128}
ROUND = 8  # offline runs stop on a multiple of this many solves
MIN_SOLVES = 104  # so that >= 10 solves lie beyond solve_p90_s
TRACE_SOLVES = 32  # a traced run solves this many pool roots, twice each

SERVE_GRAPH = "rmat14"
SERVE_RATE_QPS = 30.0
SERVE_OPEN_SHARE = 0.6  # of --seconds; backlog rounds fill the rest
MIN_BACKLOG_ROUNDS = 3
ZIPF_S = 1.1
ROOT_UNIVERSE = 64
UPDATES = 6
CHURN = 0.01
REPAIR_HOT_ROOTS = 4
BACKLOG = 192  # requests per backlog round (the queue bound is 256)

#: ``repro serve-bench`` defaults.
BROKER_KW = dict(
    num_ranks=8,
    threads_per_rank=16,
    capacity=256,
    max_batch_size=16,
    flush_interval_s=0.002,
    num_workers=1,
    cache_bytes=64 << 20,
)


class BenchFailure(Exception):
    """The benchmark's own checks failed: print no result, exit non-zero."""


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def measure_setup(build, dispose=None, min_reps: int = 3, min_seconds: float = 2.0):
    """Median wall time of ``build()`` over repeated fresh builds; returns
    ``(median_s, reps, last_result)``. ``dispose`` releases a build's
    result before the next one starts."""
    times = []
    obj = None
    spent = 0.0
    while len(times) < min_reps or spent < min_seconds:
        if obj is not None and dispose is not None:
            dispose(obj)
        obj = None
        gc.collect()
        t0 = time.perf_counter()
        obj = build()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return statistics.median(times), len(times), obj


def settle_heap() -> None:
    """Collect, then move every live object to the permanent generation so
    the harness's own heap (graph, solver, inputs, digests) adds nothing to
    the cyclic collections that run during the measured phase."""
    gc.collect()
    gc.freeze()


def harmonic_mean(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(values.size / np.sum(1.0 / values))


def _same_result(a, b) -> bool:
    return (
        np.array_equal(a.distances, b.distances)
        and a.metrics.summary() == b.metrics.summary()
        and a.cost == b.cost
        and a.gteps == b.gteps
    )


# ----------------------------------------------------------------------
# Inputs and oracle answers, computed in a child process
# ----------------------------------------------------------------------
def plan(name: str, seed: int, trace: bool) -> dict:
    """Everything a run needs that depends on the graph's arcs: roots,
    update batches and the oracle's digest of every answer it may be asked
    to check, keyed by (snapshot index, root). Runs in a child process."""
    import repro

    graph_name = GRAPH.get(name, SERVE_GRAPH)
    graph = inputs.generate(graph_name, repro)
    arcs = inputs.graph_arcs(graph)
    inputs.check_digest(graph_name, arcs)
    out = {"n": arcs.n, "fingerprint": inputs.fingerprint(graph)}
    del graph
    giant = inputs.giant_component(arcs)
    if name in GRAPH:
        roots = inputs.draw_roots(seed, name, giant, POOL[graph_name])
        if trace:
            roots = roots[:TRACE_SOLVES]
        out["roots"] = roots
        out["digests"] = {
            (0, r): h for r, h in Oracle(arcs, repro.INF).digests(roots).items()
        }
        return out
    universe = inputs.draw_roots(seed, f"{name}-universe", giant, ROOT_UNIVERSE)
    digests = {(0, r): h for r, h in Oracle(arcs, repro.INF).digests(universe).items()}
    edge_set = inputs.EdgeSet(arcs)
    del arcs
    batches = []
    for k in range(UPDATES):
        batches.append(edge_set.churn(inputs.rng(seed, "churn", k), CHURN))
        oracle = Oracle(edge_set.arcs(), repro.INF)
        digests.update({(k + 1, r): h for r, h in oracle.digests(universe).items()})
    out.update(universe=universe, batches=batches, digests=digests)
    return out


def plan_in_child(name: str, seed: int, trace: bool) -> dict:
    """Run :func:`plan` in a child process (``run.py --plan``) and wait for it."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--plan", name,
           "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True)
    if proc.returncode != 0:
        raise BenchFailure(
            "the oracle process failed:\n" + proc.stderr.decode(errors="replace")[-2000:]
        )
    return pickle.loads(proc.stdout)


def check_graph(graph, planned: dict) -> None:
    if inputs.fingerprint(graph) != planned["fingerprint"]:
        raise BenchFailure("the measured graph differs from the one the oracle checked")


class SolveTimer:
    """Times every ``BatchSolver.solve`` call from outside, whoever makes
    it, while installed (untraced runs only: the traced run wraps the same
    method itself)."""

    def __init__(self, solver_cls) -> None:
        self.cls = solver_cls
        self.orig = None
        self.samples: list[tuple[float, int, float]] = []  # (s, edges, gteps)

    def install(self) -> None:
        orig = self.orig = self.cls.__dict__["solve"]
        samples = self.samples
        clock = time.perf_counter

        @functools.wraps(orig)
        def timed(solver, *args, **kwargs):
            t0 = clock()
            res = orig(solver, *args, **kwargs)
            samples.append((clock() - t0, res.num_edges, res.gteps))
            return res

        self.cls.solve = timed

    def uninstall(self) -> None:
        self.cls.solve = self.orig


def solve_metrics(times, edges, gteps) -> dict:
    """The solve metrics every workload reports, from outside-timed solves."""
    wall = float(np.sum(times))
    return {
        "solve_p50_s": metric(np.percentile(times, 50), "s"),
        "solve_p90_s": metric(np.percentile(times, 90), "s"),
        "wall_mteps": metric(float(np.sum(edges)) / wall / 1e6, "MTEPS"),
        "sim_gteps": metric(harmonic_mean(gteps), "GTEPS"),
    }


# ----------------------------------------------------------------------
# Offline cold solves
# ----------------------------------------------------------------------
def cold_solves(repro, name: str, seed: int, seconds: float, trace: bool,
                out_dir: Path):
    planned = plan_in_child(name, seed, trace)
    graph_name = GRAPH[name]
    rec = layers.Recorder() if trace else None

    def build():
        graph = inputs.generate(graph_name, repro)
        return graph, repro.BatchSolver(graph)

    if trace:
        rec.install()
        t0 = time.perf_counter()
        graph, solver = build()
        setup_s, reps = time.perf_counter() - t0, 1
        rec.uninstall()
    else:
        setup_s, reps, (graph, solver) = measure_setup(build)
    check_graph(graph, planned)
    roots = planned["roots"]
    pool = len(roots)
    answers = Answers(planned["n"], planned["digests"])
    edges = graph.num_undirected_edges

    attempted = failed = 0
    times: list[float] = []
    gteps: list[float] = []
    if trace:
        traced_s = untraced_s = 0.0
        for start in range(0, TRACE_SOLVES, ROUND):
            chunk = [int(r) for r in roots[start:start + ROUND]]
            plain = {}
            for r in chunk:
                t0 = time.perf_counter()
                plain[r] = solver.solve(r)
                untraced_s += time.perf_counter() - t0
            rec.install()
            try:
                for r in chunk:
                    attempted += 2  # the untraced and the traced solve
                    t0 = time.perf_counter()
                    res = solver.solve(r)
                    traced_s += time.perf_counter() - t0
                    if not _same_result(res, plain[r]):
                        raise BenchFailure(f"traced solve of root {r} differs from untraced")
                    answers.check(0, r, res.distances)
                    gteps.append(res.gteps)
            finally:
                rec.uninstall()
        problems = layers.reconcile(rec)
        if problems:
            raise BenchFailure("reconciliation failed: " + "; ".join(problems[:5]))
        spans = rec.write(out_dir / f"spans-{name}-seed{seed}.npz")
        metrics = layer_metrics(rec, overhead=traced_s / untraced_s)
        info = {"traced_solves": attempted // 2, "spans": spans,
                "overhead": traced_s / untraced_s, "setup_s": setup_s}
        return attempted, failed, metrics, info

    settle_heap()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        root = int(roots[i % pool])
        i += 1
        attempted += 1
        t0 = time.perf_counter()
        try:
            res = solver.solve(root)
        except Exception as exc:  # counted, then reported as failed
            failed += 1
            print(f"solve of root {root} failed: {exc!r}")
        else:
            dt = time.perf_counter() - t0
            answers.check(0, root, res.distances)
            times.append(dt)
            gteps.append(res.gteps)
            del res
        if i % ROUND == 0 and i >= MIN_SOLVES and time.perf_counter() >= deadline:
            break
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
        **solve_metrics(times, [edges] * len(times), gteps),
        # Back-to-back cold solves: the rate one solver answers queries.
        "serve_capacity_qps": metric(len(times) / float(np.sum(times)), "qps"),
    }
    info = {"solves": len(times), "checked": answers.checked, "setup_reps": reps,
            "roots": pool, "edges": edges}
    return attempted, failed, metrics, info


# ----------------------------------------------------------------------
# Live serving
# ----------------------------------------------------------------------
class _Checker:
    """Resolves serving futures in submission order, checks each answer
    against the oracle digest of the snapshot it was answered from, and
    keeps only its latency, so answers do not pile up in memory."""

    def __init__(self, answers: Answers, keep_solved: bool = False) -> None:
        self.answers = answers
        self.solved = {} if keep_solved else None  # root -> solved result
        self.snapshot_index = {0: 0}  # broker snapshot id -> oracle snapshot
        self.pending: deque = deque()
        self.failed = 0
        self.latencies: list[tuple[str, float, float]] = []  # (source, s, late)
        self.sources: Counter = Counter()

    def add(self, root: int, future, late: float) -> None:
        self.pending.append((root, future, late))

    def poll(self, wait: bool = False) -> None:
        """Check the answers at the head of the queue that are ready (all
        of them, waiting for each, with ``wait``)."""
        while self.pending and (wait or self.pending[0][1].done()):
            root, fut, late = self.pending.popleft()
            try:
                res = fut.result()
            except Exception as exc:
                self.failed += 1
                print(f"request for root {root} failed: {exc!r}")
                continue
            if res.root != root:
                raise BenchFailure(f"asked for root {root}, answered root {res.root}")
            self.answers.check(self.snapshot_index[res.snapshot_id], root, res.distances)
            self.latencies.append((res.source, res.latency_s, late))
            self.sources[res.source] += 1
            if self.solved is not None and res.sssp is not None:
                self.solved[root] = res


def _backlog_round(repro, graph, roots, checker):
    """Offer ``roots`` at once to a fresh broker; returns (requests, drain
    seconds, shed, broker). Its answers are checked after the drain."""
    broker = repro.QueryBroker(graph, events=True, **BROKER_KW)
    shed = 0
    try:
        t0 = time.perf_counter()
        for r in roots:
            try:
                checker.add(int(r), broker.submit(int(r)), 0.0)
            except repro.ServiceOverload:
                shed += 1
        broker.drain()
        dt = time.perf_counter() - t0
    finally:
        broker.shutdown(drain=True)
    checker.poll(wait=True)
    return len(roots), dt, shed, broker


def _backlog_stream(seed: int, name: str, universe, k: int):
    return inputs.zipf_backlog(seed, f"{name}-backlog-{k}", universe, ZIPF_S, BACKLOG)


def serve_live(repro, name: str, seed: int, seconds: float, trace: bool,
               out_dir: Path):
    from repro.dynamic import UpdateBatch

    planned = plan_in_child(name, seed, trace)
    rec = layers.Recorder() if trace else None

    def build():
        graph = inputs.generate(SERVE_GRAPH, repro)
        broker = repro.QueryBroker(graph, events=True, **BROKER_KW)
        return graph, broker

    if trace:
        rec.install()
        setup_s, reps, (graph, broker) = 0.0, 1, build()
        broker.shutdown(drain=True)
        rec.uninstall()
    else:
        setup_s, reps, (graph, broker) = measure_setup(
            build, dispose=lambda built: built[1].shutdown(drain=True)
        )
    check_graph(graph, planned)
    universe = planned["universe"]
    checker = _Checker(Answers(planned["n"], planned["digests"]))

    n_req = max(1, int(round(SERVE_RATE_QPS * seconds * SERVE_OPEN_SHARE)))
    schedule = inputs.poisson_schedule(seed, SERVE_RATE_QPS, n_req)
    stream = inputs.zipf_stream(seed, f"{name}-stream", universe, ZIPF_S, n_req)
    batches = [
        UpdateBatch.build(inserts=ins, deletes=dele, reweights=rew)
        for ins, dele, rew in planned["batches"]
    ]
    update_at = {((r + 1) * n_req) // (UPDATES + 1): r for r in range(UPDATES)}

    attempted = failed = 0
    update_s = []
    lateness = []
    timer = None
    if trace:
        # Untraced reference for the backlog: timing and results.
        plain = _Checker(checker.answers, keep_solved=True)
        backlog = _backlog_stream(seed, name, universe, 0)
        _, plain_s, _, _ = _backlog_round(repro, graph, backlog, plain)
        rec.install()
        broker = repro.QueryBroker(graph, events=True, **BROKER_KW)
    else:
        timer = SolveTimer(repro.BatchSolver)
    settle_heap()
    if timer is not None:
        timer.install()  # removed after the backlog rounds
    try:
        t_start = time.perf_counter()
        for i in range(n_req):
            if i in update_at:
                r = update_at[i]
                attempted += 1
                t0 = time.perf_counter()
                try:
                    report = broker.apply_updates(
                        batches[r], repair_hot_roots=REPAIR_HOT_ROOTS
                    )
                except Exception as exc:
                    failed += 1
                    print(f"update batch {r} failed: {exc!r}")
                else:
                    update_s.append(time.perf_counter() - t0)
                    checker.snapshot_index[report["snapshot_id"]] = r + 1
            checker.poll()
            due = t_start + schedule[i]
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            attempted += 1
            root = int(stream[i])
            try:
                checker.add(root, broker.submit(root), sent - due)
            except repro.ServiceOverload:
                failed += 1
            lateness.append(max(0.0, sent - due))
        broker.drain()
        open_s = time.perf_counter() - t_start
    finally:
        broker.shutdown(drain=True)
    checker.poll(wait=True)
    open_report = broker.report()
    lat = list(checker.latencies)
    hits = [s for src, s, _ in lat if src == "cache"]
    cold = [s for src, s, _ in lat if src in ("solve", "coalesced")]
    serving = {
        "hit_p50_s": float(np.percentile(hits, 50)),
        "cold_p50_s": float(np.percentile(cold, 50)),
        "query_p99_s": float(np.percentile([s + late for _, s, late in lat], 99)),
        "update_apply_p50_s": float(np.percentile(update_s, 50)),
    }

    if trace:
        # Backlog: the same root mix as a standing queue to a fresh broker,
        # traced between two untraced rounds.
        settle_heap()
        checker.solved = {}
        n, drain_s, shed, traced_broker = _backlog_round(repro, graph, backlog, checker)
        attempted += n
        failed += shed
        rec.uninstall()
        _, again_s, _, _ = _backlog_round(repro, graph, backlog, _Checker(checker.answers))
        brokers = [broker, traced_broker]
        plain_s = (plain_s + again_s) / 2
        for root, res in plain.solved.items():
            twin = checker.solved.get(root)
            if twin is None or not _same_result(res.sssp, twin.sssp):
                raise BenchFailure(
                    f"traced backlog solve of root {root} differs from untraced"
                )
        failed += checker.failed
        problems = layers.reconcile(rec) + _reconcile_serving(rec, brokers)
        if problems:
            raise BenchFailure("reconciliation failed: " + "; ".join(problems[:5]))
        spans = rec.write(out_dir / f"spans-{name}-seed{seed}.npz")
        metrics = layer_metrics(
            rec, overhead=drain_s / plain_s, brokers=brokers, sources=checker.sources,
        )
        metrics.update({
            "serve.hit_p50_s": metric(serving["hit_p50_s"], "s"),
            "serve.cold_p50_s": metric(serving["cold_p50_s"], "s"),
            "serve.query_p99_s": metric(serving["query_p99_s"], "s"),
            "serve.update_apply_p50_s": metric(serving["update_apply_p50_s"], "s"),
        })
        info = {"requests": attempted, "checked": checker.answers.checked,
                "spans": spans, "overhead": drain_s / plain_s}
        return attempted, failed, metrics, info

    # Backlog rounds, each the same kind of root mix offered at once to a
    # fresh broker with no updates, in whole rounds until the run's time
    # is up: answers over drain time is the service rate.
    drained = drain_s = 0.0
    rounds = 0
    try:
        while rounds < MIN_BACKLOG_ROUNDS or time.perf_counter() - t_start < seconds:
            backlog = _backlog_stream(seed, name, universe, rounds)
            n, dt, shed, _ = _backlog_round(repro, graph, backlog, checker)
            attempted += n
            failed += shed
            drained += n - shed
            drain_s += dt
            rounds += 1
    finally:
        timer.uninstall()
    peak = peak_rss_mib()
    failed += checker.failed
    times, edges, gteps = (list(col) for col in zip(*timer.samples))
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mib": metric(peak, "MiB"),
        **solve_metrics(times, edges, gteps),
        "serve_capacity_qps": metric(drained / drain_s, "qps"),
    }
    info = {
        **{k: round(v, 6) for k, v in serving.items()},
        "requests": n_req, "hits": len(hits), "cold": len(cold),
        "solves": len(times), "backlog_rounds": rounds,
        "checked": checker.answers.checked,
        "updates": len(update_s), "open_s": round(open_s, 3),
        "late_p50_ms": round(1e3 * float(np.percentile(lateness, 50)), 3),
        "late_max_ms": round(1e3 * max(lateness), 3),
        "shed": open_report["shed"], "setup_reps": reps,
        "repairs": open_report["repairs"],
        "repair_fallbacks": open_report["repair_fallbacks"],
    }
    return attempted, failed, metrics, info


def _reconcile_serving(rec, brokers) -> list[str]:
    fn = rec.fn_calls()
    total: Counter = Counter()
    for b in brokers:
        rep = b.report()
        for k in ("offered", "solves", "updates", "repairs", "repair_fallbacks",
                  "wide_events"):
            total[k] += rep.get(k, 0)
    expect = [
        ("repro.serve.broker.QueryBroker.submit", total["offered"]),
        ("repro.serve.cache.DistanceCache.get", total["offered"]),
        ("repro.serve.broker.QueryBroker._solve_group", total["solves"]),
        ("repro.dynamic.versioner.GraphVersioner.apply", total["updates"]),
        ("repro.dynamic.repair.repair_sssp",
         total["repairs"] + total["repair_fallbacks"]),
        ("repro.serve.events.WideEventLog.emit", total["wide_events"]),
        ("repro.core.solver.BatchSolver.solve", total["solves"]),
    ]
    return [
        f"{key}: {fn[key]} spans, program counted {want}"
        for key, want in expect
        if fn[key] != want
    ]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(rec, *, overhead: float, brokers=(), sources=None) -> dict:
    """Per-layer totals of one traced run. ``brokers[0]``, when given, is
    the open-loop broker: queue waits are taken from its events alone (the
    backlog phase queues by construction)."""
    tot = rec.layer_totals()
    summ: Counter = Counter()
    records = 0
    phase: Counter = Counter()
    for s in rec.solves:
        for k, v in s["summary"].items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                summ[k] += v
        records += s["records"]
        phase.update(s["phase_records"])
    c = rec.counts()

    def calls(layer):
        return tot.get(layer, (0, 0.0))[0]

    def self_s(layer):
        return tot.get(layer, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "graph.build_s": (self_s("graph"), "s"),
        "context.calls": (calls("context"), "count"),
        "context.self_s": (self_s("context"), "s"),
        "context.classify_s": (self_s("classify"), "s"),
        "select.calls": (calls("select"), "count"),
        "select.self_s": (self_s("select"), "s"),
        "epochs": (summ["buckets"] + summ["bf_phases"], "count"),
        "short.calls": (calls("short"), "count"),
        "short.self_s": (self_s("short"), "s"),
        "short.records": (phase["short"], "count"),
        "pushpull.calls": (calls("pushpull"), "count"),
        "pushpull.self_s": (self_s("pushpull"), "s"),
        "pushpull.pull_share": (
            ratio(summ["pull_buckets"], summ["pull_buckets"] + summ["push_buckets"]),
            "ratio",
        ),
        "long.calls": (calls("long"), "count"),
        "long.self_s": (self_s("long"), "s"),
        "long.records": (phase["long"], "count"),
        "relax.calls": (calls("relax"), "count"),
        "relax.self_s": (self_s("relax"), "s"),
        "relax.records": (c["relax.records"], "count"),
        "relax.useful_ratio": (ratio(c["relax.changed"], c["relax.records"]), "ratio"),
        "bf.calls": (calls("bf"), "count"),
        "bf.self_s": (self_s("bf"), "s"),
        "comm.calls": (calls("comm"), "count"),
        "comm.self_s": (self_s("comm"), "s"),
        "comm.bytes": (summ["bytes"], "B"),
        "comm.messages": (c["comm.messages"], "count"),
        "account.calls": (calls("account"), "count"),
        "account.self_s": (self_s("account"), "s"),
        "account.records": (records, "count"),
        "cost.calls": (calls("cost"), "count"),
        "cost.self_s": (self_s("cost"), "s"),
        "sim.relaxations": (summ["relaxations"], "count"),
        "solve.calls": (calls("solve"), "count"),
        "solve.self_s": (self_s("solve"), "s"),
        "admit.calls": (calls("admit"), "count"),
        "admit.self_s": (self_s("admit"), "s"),
        "serve.solve.calls": (calls("serve.solve"), "count"),
        "serve.solve.self_s": (self_s("serve.solve"), "s"),
        "cache.get.calls": (calls("cache.get"), "count"),
        "cache.get.self_s": (self_s("cache.get"), "s"),
        "cache.evict.self_s": (self_s("cache.evict"), "s"),
        "events.emit.self_s": (self_s("events.emit"), "s"),
        "versioner.apply.calls": (calls("versioner.apply"), "count"),
        "versioner.apply.self_s": (self_s("versioner.apply"), "s"),
        "repair.calls": (calls("repair"), "count"),
        "repair.self_s": (self_s("repair"), "s"),
        "repair.dirty": (c["repair.dirty"], "count"),
        "repair.relax_records": (c["repair.relax_records"], "count"),
        "repair.useful_ratio": (ratio(c["repair.repaired"], calls("repair")), "ratio"),
        "trace.overhead": (overhead, "ratio"),
    }
    waits, batches, batched, hits, lookups, events = [], 0, 0.0, 0, 0, 0
    for b in brokers:
        rep = b.report()
        batches += rep["batches"]
        batched += rep["mean_batch_size"] * rep["batches"]
        hits += b.cache.stats.hits
        lookups += b.cache.stats.hits + b.cache.stats.misses
        events += b.events.emitted
    for ev in brokers[0].events.events() if brokers else ():
        waits.extend(ev["timing"]["queue_waits_s"])
    sources = sources or Counter()
    m.update({
        "queue.wait_p50_s": (float(np.percentile(waits, 50)) if waits else 0.0, "s"),
        "batch.size_mean": (ratio(batched, batches), "count"),
        "batch.coalesced_share": (
            ratio(sources["coalesced"], sources["coalesced"] + sources["solve"]),
            "ratio",
        ),
        "cache.hit_ratio": (ratio(hits, lookups), "ratio"),
        "events.count": (events, "count"),
        # Serving latencies of the traced open loop; serve_live fills
        # them in.
        "serve.hit_p50_s": (0.0, "s"),
        "serve.cold_p50_s": (0.0, "s"),
        "serve.query_p99_s": (0.0, "s"),
        "serve.update_apply_p50_s": (0.0, "s"),
    })
    return {k: metric(v, u) for k, (v, u) in m.items()}
