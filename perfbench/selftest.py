"""Small-scale self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Each check feeds a known fault to one of the benchmark's gates and requires
the gate to catch it: corrupted distances must fail the oracle, a layer
entry point left unwrapped must fail reconciliation, and a changed graph
must fail its digest and the measured-graph check. Positive controls show each gate passes clean input.
Exits non-zero on the first gate that misses its fault.
"""

from __future__ import annotations

import sys

import numpy as np

from run import load_program

repro = load_program()

import inputs  # noqa: E402 -- on the path once load_program ran
import layers  # noqa: E402
import workloads  # noqa: E402
from oracle import Answers, Oracle, OracleError  # noqa: E402


def expect_failure(what: str, fn) -> None:
    try:
        fn()
    except (OracleError, RuntimeError, workloads.BenchFailure):
        print(f"ok    {what}: caught")
        return
    raise SystemExit(f"FAIL  {what}: the gate let it through")


def oracle_checks() -> None:
    graph = repro.rmat_graph(9, seed=3)
    arcs = inputs.graph_arcs(graph)
    root = int(inputs.giant_component(arcs)[0])
    d = repro.BatchSolver(graph).solve(root).distances
    oracle = Oracle(arcs, repro.INF)
    answers = Answers(arcs.n, {(0, r): h for r, h in oracle.digests([root]).items()})
    answers.check(0, root, d)
    print("ok    oracle accepts the engine's answer")
    reached = np.nonzero((d < repro.INF) & (np.arange(d.size) != root))[0]
    v = int(reached[len(reached) // 2])
    for label, delta in (("raised", 1), ("lowered", -1)):
        bad = d.copy()
        bad[v] += delta
        expect_failure(f"oracle, one distance {label}",
                       lambda b=bad: answers.check(0, root, b))
    bad = d.copy()
    bad[root] = 1
    expect_failure("oracle, d[root] != 0", lambda: answers.check(0, root, bad))
    expect_failure("oracle, answer checked against another snapshot",
                   lambda: answers.check(1, root, d))
    oracle.check_properties(root, d)
    bad = d.copy()
    bad[v] += 1  # its tight in-arc now breaks d[v] <= d[u] + w
    expect_failure("arc property, one distance raised",
                   lambda: oracle.check_properties(root, bad))

    # Zero-weight arcs: the lifted weights keep them (SciPy drops zeros).
    t = np.array([0, 1, 2, 0], dtype=np.int64)
    h = np.array([1, 2, 3, 3], dtype=np.int64)
    w = np.array([0, 0, 5, 9], dtype=np.int64)
    g0 = repro.from_undirected_edges(t, h, w, num_vertices=5)
    want = repro.dijkstra_reference(g0, 0)
    digests = Oracle(inputs.graph_arcs(g0), repro.INF).digests([0])
    Answers(5, {(0, 0): digests[0]}).check(0, 0, want)
    print("ok    oracle handles zero-weight arcs and unreachable vertices")


def reconciliation_checks() -> None:
    graph = repro.rmat_graph(10, seed=3)
    root = int(inputs.giant_component(inputs.graph_arcs(graph))[0])
    solver = repro.BatchSolver(graph)

    rec = layers.Recorder()
    rec.install()
    try:
        solver.solve(root)
    finally:
        rec.uninstall()
    problems = layers.reconcile(rec)
    if problems:
        raise SystemExit(f"FAIL  reconciliation of a fully wrapped solve: {problems}")
    print("ok    reconciliation passes a fully wrapped solve")

    # A caller that imported a name before wrapping keeps the original:
    # the binding scan names it. A caller that hides the original where
    # the scan cannot see it (a closure here) leaves the counters short.
    import repro.core.delta_stepping as engine

    cases = [
        ("long_phase_pull", "binding", "unwrapped binding"),
        ("apply_relaxations", "closure", "records through apply_relaxations"),
        ("long_phase_push", "closure", "long spans"),
        ("decide_mode", "closure", "push/pull decisions"),
    ]
    for name, how, expected in cases:
        rec = layers.Recorder()
        rec.install()
        try:
            original = getattr(engine, name).__wrapped_original__
            if how == "binding":
                setattr(engine, name, original)
            else:
                setattr(engine, name, lambda *a, _f=original, **k: _f(*a, **k))
            solver.solve(root)
        finally:
            rec.uninstall()
        if getattr(engine, name) is not original:
            raise SystemExit(f"FAIL  uninstall did not restore {name}")
        problems = layers.reconcile(rec)
        if not any(expected in p for p in problems):
            raise SystemExit(
                f"FAIL  {name} called through a {how} passed reconciliation: {problems}"
            )
        print(f"ok    reconciliation, {name} called through an unwrapped {how}: caught")


def digest_checks() -> None:
    spec = inputs.GRAPHS["grid14"]
    good = inputs.graph_arcs(inputs.generate("grid14", repro))
    inputs.check_digest("grid14", good)
    print("ok    digest accepts the recorded grid")
    other = repro.grid_graph(spec["rows"], spec["cols"], max_weight=inputs.MAX_WEIGHT,
                             seed=spec["seed"] + 1)
    expect_failure("digest, grid from another generator seed",
                   lambda: inputs.check_digest("grid14", inputs.graph_arcs(other)))
    planned = {"fingerprint": inputs.fingerprint(inputs.generate("grid14", repro))}
    workloads.check_graph(inputs.generate("grid14", repro), planned)
    print("ok    the measured grid matches the oracle's")
    expect_failure("measured graph, grid from another generator seed",
                   lambda: workloads.check_graph(other, planned))


def main() -> int:
    oracle_checks()
    reconciliation_checks()
    digest_checks()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
