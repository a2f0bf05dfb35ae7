"""Augmented source/sink graph shared by all flow-based refinement.

The construction is held implicitly as parameters (never as an explicit
node/edge list): scale every graph edge by gamma, attach the source to
node i with weight alpha*h_i, attach node i to the sink with weight
beta*(g_i - h_i). Zero-weight attachments are omitted, which is what
makes strongly-local solving possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ParameterError
from .flownet import RESIDUAL_EPS, CutSolution, FlowNetwork, _checked_min_cut, _dinic
from .graph import Graph, _as_node_array

__all__ = [
    "AugmentedGraphSpec",
    "augmented_cut_value",
    "materialize",
    "solve_maxflow_local",
]


@dataclass(frozen=True)
class AugmentedGraphSpec:
    """Parameters (alpha, beta, gamma, source weights, totals) of the cut graph.

    Parameters
    ----------
    alpha : float
        Source attachment scale, >= 0.
    beta : float
        Sink attachment scale, >= 0; +inf allowed (hard confinement).
    gamma : float
        Scale applied to every original edge, > 0.
    source_weight : mapping node -> weight
        Sparse nonnegative per-node source mass (entries with zero weight
        are dropped); support must be nonempty.
    total_weight : ndarray or None
        Per-node totals whose excess over the source mass is the sink
        mass. None means "use the weighted degrees", the common case;
        keeping it implicit preserves locality.
    """

    alpha: float
    beta: float
    gamma: float
    source_weight: Mapping[int, float]
    total_weight: np.ndarray | None = None

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ParameterError("alpha and beta must be nonnegative")
        if not self.gamma > 0:
            raise ParameterError("gamma must be positive")
        cleaned = {}
        for i, w in self.source_weight.items():
            if w < 0:
                raise ParameterError(f"negative source weight at node {i}")
            if w > 0:
                cleaned[int(i)] = float(w)
        if not cleaned:
            raise ParameterError("source weight support is empty")
        object.__setattr__(self, "source_weight", cleaned)
        # The support in id order, and its masses, for array lookups.
        support = sorted(cleaned)
        object.__setattr__(self, "_support", np.array(support, dtype=np.int64))
        object.__setattr__(self, "_support_mass", np.array([cleaned[i] for i in support]))
        if self.total_weight is not None:
            tw = np.asarray(self.total_weight, dtype=np.float64)
            if np.any(tw < 0):
                raise ParameterError("total weights must be nonnegative")
            object.__setattr__(self, "total_weight", tw)

    def sink_weights(
        self, g: Graph, nodes: np.ndarray, source_mass: np.ndarray | float | None = None
    ) -> np.ndarray:
        """Sink mass of each of ``nodes``: total minus source mass, clipped at 0.

        ``source_mass`` is the nodes' source mass when the caller already
        has it (an array, or 0.0 for nodes outside the support). Raises
        ParameterError naming the first of ``nodes``, in the order given,
        whose source mass exceeds its total.
        """
        if source_mass is None:
            pos = np.searchsorted(self._support, nodes)
            found = self._support.take(pos, mode="clip") == nodes
            source_mass = np.where(found, self._support_mass.take(pos, mode="clip"), 0.0)
        total = (g.degrees if self.total_weight is None else self.total_weight)[nodes]
        z = total - source_mass
        bad = z < -1e-9 * np.maximum(1.0, total)
        if bad.any():
            raise ParameterError(f"source weight exceeds total at node {nodes[bad.argmax()]}")
        return np.maximum(z, 0.0)

    def validate_against(self, g: Graph) -> None:
        if self.total_weight is not None and self.total_weight.shape != (g.n,):
            raise ParameterError("total weight vector length mismatch")
        lo, hi = self._support[0], self._support[-1]
        if lo < 0 or hi >= g.n:
            raise ParameterError(f"source weight node {lo if lo < 0 else hi} out of range")
        self.sink_weights(g, self._support, self._support_mass)


def augmented_cut_value(spec: AugmentedGraphSpec, g: Graph, s: object) -> float:
    """Cut value of ({source} | S) in the augmented graph, computed directly.

    Equals gamma*cut(S) + alpha*sum_{i not in S} h_i + beta*sum_{i in S}
    (g_i - h_i) without materializing anything. Returns +inf when beta is
    infinite and S touches the sink-attachment support.
    """
    from .graph import cut as graph_cut

    spec.validate_against(g)
    arr = _as_node_array(g, s)
    source_term = float(spec._support_mass[~np.isin(spec._support, arr)].sum())
    sink_term = float(spec.sink_weights(g, arr).sum())
    if sink_term > 0.0 and math.isinf(spec.beta):
        return float("inf")
    # An infinite beta with no sink mass adds nothing; inf * 0.0 would be nan.
    sink_part = spec.beta * sink_term if sink_term > 0.0 else 0.0
    return spec.gamma * graph_cut(g, arr) + spec.alpha * source_term + sink_part


def materialize(spec: AugmentedGraphSpec, g: Graph) -> FlowNetwork:
    """Build the explicit flow network: graph nodes 0..n-1, source n, sink n+1."""
    spec.validate_against(g)
    return _subnetwork(spec, g, np.arange(g.n))[0]


def _subnetwork(
    spec: AugmentedGraphSpec, g: Graph, members: np.ndarray
) -> tuple[FlowNetwork, np.ndarray, np.ndarray]:
    """The augmented network on ``members`` (sorted), exterior contracted into the sink.

    The members must include the source support. Member k of the array is
    network node k; the source is len(members) and the sink
    len(members) + 1. An edge from a member to a non-member
    becomes an arc into the sink; those arcs come back as an array of arc
    ids and an array of their outside endpoints.

    Each member contributes, in this order, its source arc, its sink arc
    and one arc per neighbour in CSR order: an arc into the sink for an
    outside neighbour, an undirected edge for an inside neighbour with a
    larger id (the edge is kept once, from its lower end). Arc ids follow
    the members in order.
    """
    m = members.size
    source, sink = m, m + 1
    at = members.searchsorted(spec._support)
    h = np.zeros(m)
    h[at] = spec._support_mass
    z = spec.sink_weights(g, members, h)
    # Only nodes with mass are scaled: alpha * 0.0 and beta * 0.0 are nan
    # at an infinite scale.
    src_cap = spec.alpha * spec._support_mass
    has_src = src_cap > 0.0
    src_k, src_cap = at[has_src], src_cap[has_src]
    has_snk = z > 0.0 if spec.beta > 0.0 else np.zeros(m, dtype=bool)
    snk_k = has_snk.nonzero()[0]
    snk_cap = spec.beta * z[snk_k]

    arcs = g.arcs_of(members)
    row = g.indptr[members + 1].searchsorted(arcs, side="right")
    nbr = g.indices[arcs]
    loc = members.searchsorted(nbr)
    inside = members.take(loc, mode="clip") == nbr
    keep = ~inside | (row < loc)
    row, nbr, loc, inside = row[keep], nbr[keep], loc[keep], inside[keep]
    c = spec.gamma * g.weights[arcs[keep]]

    # Arc ids: member k's source and sink arcs (its lead arcs), then its
    # neighbour arcs, after all arcs of the members before k.
    lead = has_snk.astype(np.int64)
    lead[src_k] += 1
    lead_end = lead.cumsum()
    per_nbr = np.bincount(row, minlength=m)
    nbr_first = lead_end + per_nbr.cumsum() - per_nbr
    nbr_ids = np.arange(row.size) + lead_end[row]
    src_ids = (nbr_first - lead)[src_k]
    snk_ids = nbr_first[snk_k] - 1

    # Row a holds arc pair a: the forward arc 2a, then its reverse 2a + 1.
    head = np.empty((nbr_first[-1] + per_nbr[-1], 2), dtype=np.int64)
    cap = np.zeros(head.shape)
    head[src_ids] = source
    head[src_ids, 0] = src_k
    cap[src_ids, 0] = src_cap
    head[snk_ids] = sink
    head[snk_ids, 1] = snk_k
    cap[snk_ids, 0] = snk_cap
    head[nbr_ids, 0] = np.where(inside, loc, sink)
    head[nbr_ids, 1] = row
    cap[nbr_ids, 0] = c
    cap[nbr_ids, 1] = np.where(inside, c, 0.0)
    net = FlowNetwork.from_arcs(m + 2, source, sink, head.reshape(-1), cap.reshape(-1))
    outside = ~inside
    return net, 2 * nbr_ids[outside], nbr[outside]


def solve_maxflow_local(
    spec: AugmentedGraphSpec,
    g: Graph,
    warm_start: Iterable[int] = (),
) -> tuple[CutSolution, frozenset[int]]:
    """Max-flow on the augmented graph touching only a grown subgraph.

    Starts from the source support plus the warm-start set, contracts
    everything else into the sink (per-edge arcs tagged with their outside
    endpoint), and solves exactly on the subnetwork. The solution extends
    to the full network when the flow entering each outside endpoint fits
    under that node's sink attachment; endpoints where it does not are
    pulled into the subgraph and the solve repeats. On return both the
    flow value and the minimal s-side equal solve_maxflow on the fully
    materialized network.

    Returns the cut solution (graph node ids) and the set of graph nodes
    ever materialized; its size is the touched-node count.
    """
    spec.validate_against(g)
    if math.isinf(spec.alpha):
        raise ParameterError("total source capacity must be finite")

    explored = np.array(sorted(set(spec.source_weight).union(map(int, warm_start))), dtype=np.int64)
    if explored[0] < 0 or explored[-1] >= g.n:
        raise ParameterError("warm-start node out of range")

    while True:
        net, tag_arcs, tag_ends = _subnetwork(spec, g, explored)
        net.freeze()
        flow, reach = _dinic(net)

        if tag_arcs.size and not math.isinf(spec.beta):
            # The flow into each outside endpoint, added in arc order.
            ends, which = np.unique(tag_ends, return_inverse=True)
            inflow = np.bincount(which, weights=net.cap_init[tag_arcs] - net.cap[tag_arcs])
            limit = spec.beta * spec.sink_weights(g, ends, 0.0) + RESIDUAL_EPS * max(1.0, flow)
            violators = ends[inflow > limit]
            if violators.size:
                explored = np.union1d(explored, violators)
                continue

        _checked_min_cut(net, flow, reach)
        s_side = frozenset(explored[reach[: explored.size]].tolist())
        return CutSolution(flow_value=flow, s_side=s_side), frozenset(explored.tolist())
