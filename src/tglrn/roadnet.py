"""Directed sensor graph: binary adjacency, hop distances, k-hop reachability masks.

The adjacency connects consecutively existing sensors and always carries
self-loops. Hop distances are breadth-first shortest path counts on the
directed adjacency (self-loops contribute nothing to path length), and
the k-hop masks mark node pairs within k hops. The nested family of
masks for k = 1..L is what the dynamic graph block prunes against.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "RoadNetwork",
    "build_asp",
    "hop_distances",
    "structure_info",
    "structure_group",
    "load_edges",
]


@dataclass
class RoadNetwork:
    """Directed road network over ``num_nodes`` sensors."""

    num_nodes: int
    edges: list
    a_sp: np.ndarray  # (N, N) binary with unit diagonal

    def __post_init__(self):
        assert self.a_sp.shape == (self.num_nodes, self.num_nodes)


def build_asp(edges, num_nodes):
    """Binary adjacency from a directed edge list, with self-loops added.

    Duplicate edges are deduplicated silently; ids outside [0, N) raise.
    """
    n = int(num_nodes)
    if n <= 0:
        raise DataError(f"build_asp: num_nodes must be positive, got {num_nodes}")
    a = np.zeros((n, n), dtype=np.float64)
    seen = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise DataError(f"build_asp: edge ({i}, {j}) outside node range [0, {n})")
        a[i, j] = 1.0
        seen.add((i, j))
    np.fill_diagonal(a, 1.0)
    return RoadNetwork(num_nodes=n, edges=sorted(seen), a_sp=a)


def hop_distances(net, symmetrize=False):
    """All-pairs (N, N) float64 BFS hop counts over the directed adjacency; unreachable is +inf.

    Self-loops are skipped when expanding, so d[i][i] is always 0. With
    ``symmetrize`` every edge is traversable in both directions.
    """
    n = net.num_nodes
    adj = net.a_sp.copy()
    if symmetrize:
        adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 0.0)
    neighbors = [np.flatnonzero(adj[i]) for i in range(n)]

    d = np.full((n, n), np.inf)
    for src in range(n):
        d[src, src] = 0.0
        frontier = [src]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for v in neighbors[u]:
                    if d[src, v] == np.inf:
                        d[src, v] = depth
                        nxt.append(v)
            frontier = nxt
    return d


def structure_info(dist, k):
    """Binary mask of node pairs whose hop distance is at most k (k >= 1)."""
    if k < 1:
        raise DataError(f"structure_info: k must be >= 1, got {k}")
    return (dist <= k).astype(np.float64)


def structure_group(dist, L):
    """The nested masks S^1 <= ... <= S^L for k = 1..L, as one (L, N, N) float64 array."""
    if L < 1:
        raise DataError(f"structure_group: L must be >= 1, got {L}")
    masks = np.empty((L,) + dist.shape)
    for k in range(1, L + 1):
        masks[k - 1] = structure_info(dist, k)
    return masks


def load_edges(path):
    """Read a directed edge list CSV with header ``from,to``.

    Extra columns (distances, costs) are ignored. Returns 0-based id pairs.
    An id must be a finite whole number: ``3.0`` reads as 3, ``1.5`` or ``inf`` fails.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"load_edges: cannot open {path}: {e}") from None
    edges = []
    for lineno, row in enumerate(rows, start=1):
        if not row or not row[0].strip():
            continue
        first = row[0].strip().lower()
        if lineno == 1 and first in ("from", "source", "src"):
            continue
        if len(row) < 2:
            raise DataError(f"load_edges: line {lineno}: expected at least 2 columns")
        edges.append((_node_id(row[0], lineno), _node_id(row[1], lineno)))
    return edges


def _node_id(cell, lineno):
    try:
        value = float(cell)
    except ValueError:
        value = None
    if value is None or not value.is_integer():  # False for inf and nan too
        raise DataError(f"load_edges: line {lineno}: node id {cell.strip()!r} is not a finite whole number")
    return int(value)
