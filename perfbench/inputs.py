"""Seeded benchmark inputs: a directed sensor graph and a flow series, as CSV.

The generators belong to the benchmark, not to the package under test, so a
change to ``tglrn`` cannot change what the benchmark feeds it. The same seed
always gives the same files.
"""

from __future__ import annotations

import numpy as np

DAY_STEPS = 288  # 5-minute steps per day


def chain_graph(n):
    """Directed chain 0 -> 1 -> ... -> n-1 (the acceptance topology)."""
    return [(i, i + 1) for i in range(n - 1)]


def road_graph(rng, n, n_edges):
    """Road-like directed graph: sensors at random points, local links only.

    A Euclidean minimum spanning tree keeps every sensor connected; the
    shortest remaining pairs are added until ``n_edges`` links exist. Each
    link gets a random direction. Returns (edges, lengths).
    """
    if not n - 1 <= n_edges <= n * (n - 1) // 2:
        raise ValueError(f"road_graph: {n_edges} edges impossible for {n} nodes")
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))

    # Prim's algorithm over the dense distance matrix.
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    link = np.zeros(n, dtype=np.int64)
    pairs = set()
    for _ in range(n - 1):
        cand = np.where(in_tree, np.inf, best)
        v = int(np.argmin(cand))
        pairs.add((min(v, int(link[v])), max(v, int(link[v]))))
        in_tree[v] = True
        closer = dist[v] < best
        best = np.where(closer, dist[v], best)
        link = np.where(closer, v, link)

    iu, ju = np.triu_indices(n, k=1)
    for k in np.argsort(dist[iu, ju], kind="stable"):
        if len(pairs) >= n_edges:
            break
        pairs.add((int(iu[k]), int(ju[k])))

    edges, lengths = [], []
    flip = rng.uniform(size=len(pairs)) < 0.5
    for (i, j), f in zip(sorted(pairs), flip):
        edges.append((j, i) if f else (i, j))
        lengths.append(float(dist[i, j]))
    return edges, lengths


def flows(rng, n, steps, edges, offset, amplitude, coupling, noise_std, regime=0, missing=0.0):
    """Daily sinusoids plus a lag-1 deviation carried along the directed edges.

    dev[t] = noise[t] + c[t] * W dev[t-1], where W averages each sensor's
    upstream neighbours and c[t] is ``coupling``, switched off in every
    other block of ``regime`` steps when ``regime`` > 0.
    ``offset``/``amplitude`` are per-sensor ranges (lo, hi). A ``missing``
    share of cells is zeroed, the ingestion's missing-value sentinel.
    Values stay positive otherwise.
    """
    t = np.arange(steps)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
    level = rng.uniform(*offset, size=n)
    amp = rng.uniform(*amplitude, size=n)
    angle = 2.0 * np.pi * t[:, None] / DAY_STEPS + phase[None, :]
    base = level + amp * np.sin(angle)
    c = np.full(steps, float(coupling))
    if regime > 0:
        c[(t // regime) % 2 == 1] = 0.0

    w = np.zeros((n, n))
    for i, j in edges:
        w[j, i] = 1.0
    indeg = w.sum(axis=1, keepdims=True)
    w = np.divide(w, indeg, out=np.zeros_like(w), where=indeg > 0)

    noise = rng.normal(0.0, noise_std, size=(steps, n))
    dev = np.empty((steps, n))
    dev[0] = noise[0]
    for k in range(1, steps):
        dev[k] = noise[k] + c[k] * (w @ dev[k - 1])
    values = np.maximum(base + dev, 1.0)
    if missing > 0.0:
        values[rng.uniform(size=values.shape) < missing] = 0.0
    return values


def write_edges(path, edges, lengths=None):
    with open(path, "w") as fh:
        fh.write("from,to,cost\n" if lengths is not None else "from,to\n")
        for k, (i, j) in enumerate(edges):
            fh.write(f"{i},{j},{lengths[k]:.6f}\n" if lengths is not None else f"{i},{j}\n")


def write_flows(path, values):
    steps, n = values.shape
    table = np.column_stack([np.arange(steps), values])
    header = "t," + ",".join(f"s{i}" for i in range(n))
    np.savetxt(path, table, fmt=["%d"] + ["%.4f"] * n, delimiter=",", header=header, comments="")
