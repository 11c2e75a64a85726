"""Benchmark inputs: the fixed graphs, their digests, and the seeded streams.

The graphs come from the program's own generators with fixed generator
seeds; every generated graph is checked against the digest recorded in
``digests.json`` so a change to a generator cannot silently change what is
measured. Everything that varies with ``--seed`` -- roots, the Zipf request
stream, arrival times and edge-update batches -- is drawn here, from NumPy
alone, so no change to the program's workload or churn helpers can change
the inputs either.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

DIGESTS = Path(__file__).with_name("digests.json")

#: Generator coordinates of every benchmark graph (generator seed 1 is the
#: convention of the paper-figure benches in ``benchmarks/common.py``).
GRAPHS = {
    "rmat16": {"family": "rmat1", "scale": 16, "edge_factor": 16, "seed": 1},
    "grid14": {"family": "grid", "rows": 128, "cols": 128, "seed": 1},
    "rmat14": {"family": "rmat1", "scale": 14, "edge_factor": 16, "seed": 1},
}
MAX_WEIGHT = 255


def generate(name: str, repro):
    """Generate graph ``name`` through the program's public generators."""
    spec = GRAPHS[name]
    if spec["family"] == "grid":
        return repro.grid_graph(
            spec["rows"], spec["cols"], max_weight=MAX_WEIGHT, seed=spec["seed"]
        )
    return repro.rmat_graph(
        spec["scale"],
        spec["edge_factor"],
        repro.RMAT1,
        seed=spec["seed"],
        max_weight=MAX_WEIGHT,
    )


# ----------------------------------------------------------------------
# Canonical edge lists and digests
# ----------------------------------------------------------------------
@dataclass
class Arcs:
    """A directed arc list sorted by (tail, head), one arc per pair."""

    n: int
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray


def canonical_arcs(n: int, tails, heads, weights) -> Arcs:
    """Sort arcs by (tail, head, weight) and keep the lightest per pair."""
    t = np.asarray(tails, dtype=np.int64)
    h = np.asarray(heads, dtype=np.int64)
    w = np.asarray(weights, dtype=np.int64)
    order = np.lexsort((w, h, t))
    t, h, w = t[order], h[order], w[order]
    first = np.ones(t.size, dtype=bool)
    first[1:] = (t[1:] != t[:-1]) | (h[1:] != h[:-1])
    return Arcs(n, t[first], h[first], w[first])


def graph_arcs(graph) -> Arcs:
    """The program graph's arcs in canonical order (independent of CSR layout)."""
    n = graph.num_vertices
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    return canonical_arcs(n, tails, graph.adj, graph.weights)


def digest(arcs: Arcs) -> str:
    h = hashlib.sha256()
    h.update(f"arcs-v1 n={arcs.n}".encode())
    for arr in (arcs.tails, arcs.heads, arcs.weights):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def check_digest(name: str, arcs: Arcs) -> None:
    got = digest(arcs)
    want = json.loads(DIGESTS.read_text())[name]
    if got != want:
        raise RuntimeError(
            f"graph {name} does not match its recorded digest "
            f"(got {got[:16]}, want {want[:16]}); the generator changed"
        )


def fingerprint(graph) -> str:
    """Digest of the program graph's raw CSR arrays (no copy), to show that
    the measured process built the same graph the oracle process checked."""
    h = hashlib.sha256()
    for arr in (graph.indptr, graph.adj, graph.weights):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype}:{arr.size}".encode())
        h.update(arr)
    return h.hexdigest()


def recompute_digests(repro) -> dict:
    out = {name: digest(graph_arcs(generate(name, repro))) for name in GRAPHS}
    DIGESTS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return out


# ----------------------------------------------------------------------
# Seeded draws
# ----------------------------------------------------------------------
def rng(seed: int, purpose: str, *extra: int) -> np.random.Generator:
    """An independent stream per (seed, purpose): adding a draw for one
    purpose never shifts another's."""
    salt = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), salt, *extra])


def giant_component(arcs: Arcs) -> np.ndarray:
    """Vertices of the largest connected component (sorted ids)."""
    n = arcs.n
    adj = csr_matrix(
        (np.ones(arcs.tails.size, dtype=np.int8), (arcs.tails, arcs.heads)),
        shape=(n, n),
    )
    _, labels = connected_components(adj, directed=False)
    return np.nonzero(labels == np.bincount(labels).argmax())[0].astype(np.int64)


def draw_roots(seed: int, purpose: str, giant: np.ndarray, count: int) -> np.ndarray:
    """``count`` distinct roots from the giant component, in draw order."""
    return rng(seed, purpose).choice(giant, size=count, replace=False).astype(np.int64)


def zipf_stream(seed: int, purpose: str, universe: np.ndarray, s: float, count: int):
    """``count`` requests over ``universe``; popularity rank = draw order."""
    ranks = np.arange(1, universe.size + 1, dtype=np.float64)
    p = ranks ** (-s)
    return rng(seed, purpose).choice(universe, size=count, p=p / p.sum())


def zipf_backlog(seed: int, purpose: str, universe: np.ndarray, s: float, count: int):
    """``count`` requests whose per-rank counts are the Zipf expectation
    (largest remainders), in a seeded order: every backlog offers the same
    popularity profile, so its service rate does not hinge on how many
    distinct roots one draw happened to hit."""
    ranks = np.arange(1, universe.size + 1, dtype=np.float64)
    want = count * ranks ** (-s) / np.sum(ranks ** (-s))
    counts = np.floor(want).astype(np.int64)
    extra = np.argsort(-(want - counts), kind="stable")[: count - int(counts.sum())]
    counts[extra] += 1
    return rng(seed, purpose).permutation(np.repeat(universe, counts))


def poisson_schedule(seed: int, rate_qps: float, count: int) -> np.ndarray:
    """Scheduled send offsets (seconds from stream start) of an open loop."""
    gaps = rng(seed, "arrivals").exponential(1.0 / rate_qps, size=count)
    return np.cumsum(gaps)


# ----------------------------------------------------------------------
# Edge churn, drawn and applied independently of the program
# ----------------------------------------------------------------------
class EdgeSet:
    """The live undirected edge set ``{u < v: w}`` the benchmark tracks
    alongside the served graph, so every snapshot's oracle graph is built
    here rather than read back from the program."""

    def __init__(self, arcs: Arcs) -> None:
        fwd = arcs.tails < arcs.heads
        self.n = arcs.n
        self.keys = arcs.tails[fwd] * arcs.n + arcs.heads[fwd]
        self.weights = arcs.weights[fwd].copy()

    def arcs(self) -> Arcs:
        u, v = np.divmod(self.keys, self.n)
        return canonical_arcs(
            self.n,
            np.concatenate([u, v]),
            np.concatenate([v, u]),
            np.concatenate([self.weights, self.weights]),
        )

    def churn(self, gen: np.random.Generator, fraction: float):
        """Draw one batch touching ``fraction`` of the edges (a third each
        inserts, deletes, reweights), apply it here, and return it as
        ``(inserts, deletes, reweights)`` arrays."""
        m = self.keys.size
        ops = max(3, int(round(fraction * m)))
        k_ins = ops // 3
        k_del = ops // 3
        k_rew = ops - k_ins - k_del
        picked = gen.choice(m, size=k_del + k_rew, replace=False)
        del_idx, rew_idx = picked[:k_del], picked[k_del:]
        rew_w = gen.integers(1, MAX_WEIGHT + 1, size=k_rew, dtype=np.int64)
        # Vacant pairs: oversample, drop self-loops, present edges and
        # repeats, keep the first k_ins in draw order.
        cand_u = gen.integers(0, self.n, size=4 * k_ins + 16, dtype=np.int64)
        cand_v = gen.integers(0, self.n, size=4 * k_ins + 16, dtype=np.int64)
        lo, hi = np.minimum(cand_u, cand_v), np.maximum(cand_u, cand_v)
        keys = lo * self.n + hi
        pos = np.searchsorted(self.keys, keys).clip(max=m - 1)
        ok = (lo != hi) & (self.keys[pos] != keys)
        _, first = np.unique(keys, return_index=True)
        distinct = np.zeros(keys.size, dtype=bool)
        distinct[first] = True
        ins_keys = keys[ok & distinct][:k_ins]
        if ins_keys.size < k_ins:
            raise RuntimeError("could not place the churn batch's inserts")
        ins_w = gen.integers(1, MAX_WEIGHT + 1, size=k_ins, dtype=np.int64)

        batch = (
            (*np.divmod(ins_keys, self.n), ins_w),
            np.divmod(self.keys[del_idx], self.n),
            (*np.divmod(self.keys[rew_idx], self.n), rew_w),
        )
        weights = self.weights.copy()
        weights[rew_idx] = rew_w
        keep = np.ones(m, dtype=bool)
        keep[del_idx] = False
        keys_all = np.concatenate([self.keys[keep], ins_keys])
        w_all = np.concatenate([weights[keep], ins_w])
        order = np.argsort(keys_all, kind="stable")
        self.keys, self.weights = keys_all[order], w_all[order]
        return batch
