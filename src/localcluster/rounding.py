"""Sweep-cut rounding: turn a vertex embedding into a set.

Vertices are visited in decreasing embedding order and every prefix's
objective follows from running sums over the visit order, so a full
sweep costs O(vol(prefix range) + sorting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import Graph, NodeSet

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
    g: Graph,
    x: object,
    objective: str = "conductance",
    restrict_to_support: bool | None = None,
) -> tuple[NodeSet, float, SweepProfile]:
    """Best prefix of the decreasing-order sweep of ``x``.

    Ties in value are broken toward the smaller vertex id. Prefixes run
    over the candidate pool (the nonzero support when
    ``restrict_to_support``, all vertices otherwise; sparse embeddings
    default to their support, dense ones to everything) except that the
    prefix equal to the whole vertex set is never a candidate, since its
    cut is empty and every ratio objective degenerates there.

    Returns the winning set, its objective value, and the full profile.
    """
    if objective not in _OBJECTIVES:
        raise ParameterError(f"objective must be one of {_OBJECTIVES} (got {objective!r})")
    vals, idx = _vector_parts(g, x)
    if vals.size and not np.all(np.isfinite(vals)):
        raise ParameterError("embedding entries must all be finite")

    if restrict_to_support is None:
        restrict_to_support = idx is not None
    if restrict_to_support:
        if idx is None:
            cand = np.flatnonzero(vals != 0.0)
            cand_vals = vals[cand]
        else:
            keep = vals != 0.0
            cand = idx[keep]
            cand_vals = vals[keep]
    else:
        if idx is None:
            cand = np.arange(g.n, dtype=np.int64)
            cand_vals = vals
        else:
            cand = np.arange(g.n, dtype=np.int64)
            dense = np.zeros(g.n)
            dense[idx] = vals
            cand_vals = dense

    if cand.size == 0:
        raise ParameterError("nothing to sweep: candidate pool is empty")

    order = cand[np.argsort(-cand_vals, kind="stable")]
    m = order.size
    limit = m - 1 if m == g.n else m
    if limit == 0:
        raise ParameterError("sweep has no admissible prefix (pool is the whole graph)")

    # Vertex order[k] joins the prefix at step k; its arcs to vertices of
    # earlier rank are the weight that moves from the cut to the inside.
    swept = order[:limit]
    rank = np.full(g.n, limit, dtype=np.int64)
    rank[swept] = np.arange(limit)
    arc = g.arcs_of(swept)
    step = np.repeat(np.arange(limit), g.indptr[swept + 1] - g.indptr[swept])
    earlier = rank[g.indices[arc]] < step
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
