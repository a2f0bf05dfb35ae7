"""Sweep-cut rounding: turn a vertex embedding into a set.

Vertices are visited in decreasing embedding order and every prefix's
objective follows from running sums over the visit order. A sparse
vector sweeps its nonzero support, ranked over that pool alone, in memory
O(vol(pool)) whatever the graph size; a dense vector sweeps every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import Graph, NodeSet, _locate

__all__ = ["SweepProfile", "sweep_cut"]

_OBJECTIVES = ("conductance", "expansion", "cut_over_volume")


@dataclass(frozen=True)
class SweepProfile:
    """Per-prefix record of a sweep: visit order, objective values, winner."""

    order: np.ndarray
    values: np.ndarray
    best_index: int


def _vector_parts(g: Graph, x: object) -> tuple[np.ndarray, np.ndarray | None]:
    """Extract (values, indices-or-None) from an embedding or a plain array."""
    if hasattr(x, "values") and hasattr(x, "n"):
        if x.n != g.n:
            raise ParameterError("embedding is for a different vertex count")
        return np.asarray(x.values, dtype=np.float64), getattr(x, "indices", None)
    vals = np.asarray(x, dtype=np.float64)
    if vals.shape != (g.n,):
        raise ParameterError(f"expected a length-{g.n} vector")
    return vals, None


def sweep_cut(
    g: Graph, x: object, objective: str = "conductance"
) -> tuple[NodeSet, float, SweepProfile]:
    """Best prefix of the decreasing-order sweep of ``x``.

    Ties in value are broken toward the smaller vertex id. Prefixes run
    over the pool: a sparse embedding's nonzero support (pass its
    ``to_dense()`` to sweep every vertex), every vertex of a dense one or
    of a plain array. The prefix equal to the whole vertex set is never a
    candidate, since its cut is empty and every ratio objective
    degenerates there.

    Returns the winning set, its objective value, and the full profile.
    """
    if objective not in _OBJECTIVES:
        raise ParameterError(f"objective must be one of {_OBJECTIVES} (got {objective!r})")
    vals, idx = _vector_parts(g, x)
    if vals.size and not np.all(np.isfinite(vals)):
        raise ParameterError("embedding entries must all be finite")

    if idx is None:
        cand, cand_vals = np.arange(g.n, dtype=np.int64), vals
    else:
        keep = vals != 0.0
        cand, cand_vals = idx[keep], vals[keep]

    if cand.size == 0:
        raise ParameterError("nothing to sweep: candidate pool is empty")

    by_value = np.argsort(-cand_vals, kind="stable")
    order = cand[by_value]
    m = order.size
    limit = m - 1 if m == g.n else m
    if limit == 0:
        raise ParameterError("sweep has no admissible prefix (pool is the whole graph)")

    # Vertex order[k] joins the prefix at step k; its arcs to vertices of
    # earlier rank are the weight that moves from the cut to the inside.
    # Ranks are kept by pool position; the extra last slot, and the vertex
    # left out when the pool is the whole graph, rank at or after every step.
    rank = np.empty(m + 1, dtype=np.int64)
    rank[by_value] = np.arange(m)
    rank[m] = m
    swept = order[:limit]
    arc = g.arcs_of(swept)
    step = np.repeat(np.arange(limit), g.indptr[swept + 1] - g.indptr[swept])
    earlier = rank[_locate(g.indices[arc], cand, g.n)] < step
    inside = np.bincount(step[earlier], weights=g.weights[arc[earlier]], minlength=limit)
    d = g.degrees[swept]
    cut_val = np.cumsum(d - 2.0 * inside)
    vol_s = np.cumsum(d)
    vol_c = g.total_volume - vol_s
    if objective == "conductance":
        num, denom = cut_val, np.minimum(vol_s, vol_c)
    elif objective == "expansion":
        num, denom = cut_val * g.total_volume, vol_s * vol_c
    else:
        num, denom = cut_val, vol_s
    values = np.full(limit, np.inf)
    np.divide(num, denom, out=values, where=denom > 0)

    best = int(np.argmin(values))
    best_set = NodeSet.of(g, order[: best + 1])
    return best_set, float(values[best]), SweepProfile(
        order=order, values=values, best_index=best
    )
