"""The independent correctness oracle: SciPy Dijkstra plus two properties.

SciPy's sparse matrices drop explicit zeros, so weights are lifted to
``w * (n + 1) + 1``: a path of ``h < n + 1`` hops then costs
``d * (n + 1) + h``, the shortest lifted path is a shortest original path,
and ``floor(lifted / (n + 1))`` recovers ``d`` exactly (every value stays
far below 2**53, so float64 holds it exactly).

The oracle runs in a child process before the measured one starts
(:func:`workloads.plan`), so its matrices and answer rows never count in
the measured process's peak memory. For each root it computes the answer,
checks ``d[root] = 0`` and ``d[v] <= d[u] + w`` on every arc of that
answer, and hands the measured process only a digest of it. The measured
process checks each program answer against that digest
(:class:`Answers`): an answer equal to the checked one satisfies both
properties by construction.
"""

from __future__ import annotations

import hashlib

import numpy as np

from inputs import Arcs


class OracleError(AssertionError):
    """An answer disagreed with the oracle or broke a distance property."""


def answer_digest(d: np.ndarray) -> str:
    """Digest of a distance vector (int64, in vertex order)."""
    d = np.ascontiguousarray(d, dtype=np.int64)
    return hashlib.blake2b(d, digest_size=16).hexdigest()


class Oracle:
    def __init__(self, arcs: Arcs, inf: int) -> None:
        from scipy.sparse import csr_matrix

        n = arcs.n
        self.arcs = arcs
        self.inf = np.int64(inf)
        lifted = arcs.weights.astype(np.float64) * (n + 1) + 1.0
        self._matrix = csr_matrix((lifted, (arcs.tails, arcs.heads)), shape=(n, n))

    def distances(self, roots) -> dict[int, np.ndarray]:
        """Exact distances from each root, every row property-checked."""
        from scipy.sparse.csgraph import dijkstra

        roots = sorted({int(r) for r in roots})
        n1 = self.arcs.n + 1
        out = {}
        for start in range(0, len(roots), 16):  # bounded float64 transient
            chunk = roots[start:start + 16]
            raw = np.atleast_2d(dijkstra(self._matrix, directed=True, indices=chunk))
            for root, row in zip(chunk, raw):
                d = np.full(row.size, self.inf, dtype=np.int64)
                finite = np.isfinite(row)
                d[finite] = np.floor(row[finite] / n1).astype(np.int64)
                self.check_properties(root, d)
                out[root] = d
        return out

    def digests(self, roots) -> dict[int, str]:
        return {r: answer_digest(d) for r, d in self.distances(roots).items()}

    def check_properties(self, root: int, d: np.ndarray) -> None:
        """``d[root] = 0`` and ``d[v] <= d[u] + w`` on every arc."""
        if d[root] != 0:
            raise OracleError(f"root {root}: d[root] = {d[root]}, not 0")
        a = self.arcs
        du = d[a.tails]
        reached = du < self.inf
        bad = d[a.heads[reached]] > du[reached] + a.weights[reached]
        if bad.any():
            raise OracleError(
                f"root {root}: {int(bad.sum())} arcs violate d[v] <= d[u] + w"
            )


class Answers:
    """The measured process's side: oracle digests keyed by (snapshot, root)."""

    def __init__(self, n: int, digests: dict) -> None:
        self.n = n
        self.digests = digests
        self.checked = 0

    def check(self, snapshot: int, root: int, d) -> None:
        """Raise :class:`OracleError` unless ``d`` is the oracle's answer."""
        root = int(root)
        d = np.asarray(d)
        if d.shape != (self.n,) or d.dtype != np.int64:
            raise OracleError(f"root {root}: answer has shape {d.shape} {d.dtype}")
        if d[root] != 0:
            raise OracleError(f"root {root}: d[root] = {d[root]}, not 0")
        want = self.digests.get((snapshot, root))
        if want is None:
            raise OracleError(f"root {root}: no oracle answer for snapshot {snapshot}")
        if answer_digest(d) != want:
            raise OracleError(
                f"root {root}: distances differ from Dijkstra on snapshot {snapshot}"
            )
        self.checked += 1
