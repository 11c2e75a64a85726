"""Reference figures quoted in README.md, outside the benchmark proper.

    python3 perfbench/reference.py

Prints (1) the cProfile cumulative share of the hot functions in one cold
``opt`` solve on each offline graph, and (2) wall time against simulated
time of ``opt`` and ``rho`` on the scale-14 grid -- the case where the two
clocks disagree most. cProfile inflates Python-level call overhead, so its
shares only point at candidates; the benchmark's traced run measures.
"""

from __future__ import annotations

import cProfile
import pstats
import time

from run import load_program

repro = load_program()

import inputs  # noqa: E402

HOT = [
    "apply_relaxations", "long_phase_pull", "long_phase_push", "estimate_models",
    "decide_mode", "_short_phase", "make_context", "short_edge_offsets",
    "evaluate_cost", "exchange_by_vertex", "charge", "next_step",
]


def profile_shares(graph_name: str, seed: int = 1) -> None:
    graph = inputs.generate(graph_name, repro)
    arcs = inputs.graph_arcs(graph)
    root = int(inputs.draw_roots(seed, "reference", inputs.giant_component(arcs), 1)[0])
    solver = repro.BatchSolver(graph)
    solver.solve(root)  # warm
    prof = cProfile.Profile()
    prof.enable()
    solver.solve(root)
    prof.disable()
    stats = pstats.Stats(prof)
    total = stats.total_tt
    shares = {}
    for (_, _, func), (_, _, _, cum, _) in stats.stats.items():
        if func in HOT:
            shares[func] = max(shares.get(func, 0.0), cum / total)
    print(f"{graph_name}: cProfile cumulative share of one cold opt solve "
          f"(root {root}, {total * 1e3:.0f} ms profiled)")
    for func, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {func:22s} {100 * share:5.1f}%")


def wall_vs_simulated(seed: int = 1, roots: int = 4) -> None:
    graph = inputs.generate("grid14", repro)
    arcs = inputs.graph_arcs(graph)
    picks = inputs.draw_roots(seed, "reference", inputs.giant_component(arcs), roots)
    print("grid14: median over roots of wall and simulated time per solve")
    for algorithm in ("opt", "rho"):
        solver = repro.BatchSolver(graph, algorithm=algorithm)
        walls, sims = [], []
        for r in picks:
            t0 = time.perf_counter()
            res = solver.solve(int(r))
            walls.append(time.perf_counter() - t0)
            sims.append(res.cost.total_time)
        walls.sort()
        sims.sort()
        print(f"  {algorithm:4s} wall {1e3 * walls[len(walls) // 2]:8.1f} ms   "
              f"simulated {sims[len(sims) // 2]:.4f} s")


if __name__ == "__main__":
    profile_shares("rmat16")
    profile_shares("grid14")
    wall_vs_simulated()
