"""Deterministic graph generators for tests, benchmarks, and the CLI docs.

All randomness comes from explicit integer seeds; nothing here is used by
the algorithms themselves.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .graph import Graph

__all__ = [
    "dumbbell_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "ring_of_cliques",
    "random_connected_graph",
]


def dumbbell_graph() -> Graph:
    """Two unit-weight triangles {0,1,2} and {3,4,5} joined by edge 2-3."""
    u = [0, 0, 1, 3, 3, 4, 2]
    v = [1, 2, 2, 4, 5, 5, 3]
    return Graph.from_edges(6, u, v)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    u = np.arange(n)
    return Graph.from_edges(n, u, (u + 1) % n)


def path_graph(n: int) -> Graph:
    if n < 2:
        raise ParameterError("path needs n >= 2")
    u = np.arange(n - 1)
    return Graph.from_edges(n, u, u + 1)


def star_graph(n: int) -> Graph:
    """Node 0 joined to each of 1..n-1."""
    if n < 2:
        raise ParameterError("star needs n >= 2")
    return Graph.from_edges(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n))


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ParameterError("complete graph needs n >= 2")
    u, v = np.triu_indices(n, k=1)
    return Graph.from_edges(n, u, v)


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """Unit-weight cliques arranged in a ring.

    Clique q owns nodes [q*c, (q+1)*c); one ring edge joins the last node
    of clique q to the first node of clique q+1 (mod num_cliques). With
    c >= 3 each clique has internal volume c*(c-1) plus 2 for its two ring
    endpoints.
    """
    if num_cliques < 3 or clique_size < 2:
        raise ParameterError("need at least 3 cliques of size >= 2")
    k, c = num_cliques, clique_size
    iu, iv = np.triu_indices(c, k=1)
    offs = (np.arange(k) * c)[:, None]
    u = (iu[None, :] + offs).ravel()
    v = (iv[None, :] + offs).ravel()
    ring_u = np.arange(k) * c + (c - 1)
    ring_v = (np.arange(k) * c + c) % (k * c)
    return Graph.from_edges(k * c, np.concatenate([u, ring_u]), np.concatenate([v, ring_v]))


def random_connected_graph(
    n: int,
    seed: int,
    *,
    weighted: bool = True,
    extra_edge_prob: float = 0.3,
) -> Graph:
    """Random spanning tree plus extra edges; weights drawn from [0.5, 2].

    Deterministic for a given (n, seed, weighted, extra_edge_prob).
    """
    if n < 2:
        raise ParameterError("need n >= 2")
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    iu, iv = np.triu_indices(n, k=1)
    coin = rng.random(iu.shape[0]) < extra_edge_prob
    for a, b in zip(iu[coin], iv[coin]):
        edges.add((int(a), int(b)))
    pairs = sorted(edges)
    us = np.array([p[0] for p in pairs])
    vs = np.array([p[1] for p in pairs])
    if weighted:
        ws = rng.uniform(0.5, 2.0, size=us.shape[0])
    else:
        ws = np.ones(us.shape[0])
    return Graph.from_edges(n, us, vs, ws)
