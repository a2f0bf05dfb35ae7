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
from typing import Iterable, Mapping, Sequence

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
        if self.total_weight is not None:
            tw = np.asarray(self.total_weight, dtype=np.float64)
            if np.any(tw < 0):
                raise ParameterError("total weights must be nonnegative")
            object.__setattr__(self, "total_weight", tw)

    def sink_weight(self, g: Graph, i: int) -> float:
        """Sink mass of node i: total_i minus source mass, clipped at 0."""
        total = float(g.degrees[i]) if self.total_weight is None else float(self.total_weight[i])
        z = total - self.source_weight.get(i, 0.0)
        if z < -1e-9 * max(1.0, total):
            raise ParameterError(f"source weight exceeds total at node {i}")
        return max(z, 0.0)

    def validate_against(self, g: Graph) -> None:
        for i in self.source_weight:
            if not (0 <= i < g.n):
                raise ParameterError(f"source weight node {i} out of range")
            self.sink_weight(g, i)
        if self.total_weight is not None and self.total_weight.shape != (g.n,):
            raise ParameterError("total weight vector length mismatch")


def augmented_cut_value(spec: AugmentedGraphSpec, g: Graph, s: object) -> float:
    """Cut value of ({source} | S) in the augmented graph, computed directly.

    Equals gamma*cut(S) + alpha*sum_{i not in S} h_i + beta*sum_{i in S}
    (g_i - h_i) without materializing anything. Returns +inf when beta is
    infinite and S touches the sink-attachment support.
    """
    from .graph import cut as graph_cut

    spec.validate_against(g)
    arr = _as_node_array(g, s)
    in_s = np.zeros(g.n, dtype=bool)
    in_s[arr] = True

    source_term = sum(w for i, w in spec.source_weight.items() if not in_s[i])
    sink_term = 0.0
    for i in arr:
        z = spec.sink_weight(g, int(i))
        if z > 0.0:
            if math.isinf(spec.beta):
                return float("inf")
            sink_term += z
    # sink_term is only accumulated under a finite beta, but inf * 0.0
    # would still poison the sum, so keep the zero term out of it.
    sink_part = spec.beta * sink_term if sink_term > 0.0 else 0.0
    return spec.gamma * graph_cut(g, arr) + spec.alpha * source_term + sink_part


def materialize(spec: AugmentedGraphSpec, g: Graph) -> FlowNetwork:
    """Build the explicit flow network: graph nodes 0..n-1, source n, sink n+1."""
    spec.validate_against(g)
    return _subnetwork(spec, g, range(g.n))[0]


def _subnetwork(
    spec: AugmentedGraphSpec, g: Graph, members: Sequence[int]
) -> tuple[FlowNetwork, list[tuple[int, int]]]:
    """The augmented network on ``members`` (sorted), exterior contracted into the sink.

    Member k of the list is network node k; the source is len(members) and
    the sink len(members) + 1. An edge from a member to a non-member
    becomes an arc into the sink; those arcs come back as (arc id, outside
    endpoint) pairs.
    """
    local_id = {v: k for k, v in enumerate(members)}
    m = len(members)
    net = FlowNetwork(m + 2, source=m, sink=m + 1)
    alpha, beta, gamma = spec.alpha, spec.beta, spec.gamma
    tagged: list[tuple[int, int]] = []
    for k, v in enumerate(members):
        hv = spec.source_weight.get(v, 0.0)
        if alpha * hv > 0.0:
            net.add_arc(net.source, k, alpha * hv)
        z = spec.sink_weight(g, v)
        if z > 0.0 and beta > 0.0:
            net.add_arc(k, net.sink, beta * z)
        ids, ws = g.neighbors(v)
        for j, w in zip(ids.tolist(), ws.tolist()):
            c = gamma * w
            kj = local_id.get(j)
            if kj is None:
                tagged.append((net.add_arc(k, net.sink, c), j))
            elif v < j:
                net.add_arc(k, kj, c, c)
    return net, tagged


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

    explored = set(spec.source_weight.keys())
    explored.update(int(v) for v in warm_start)
    if not explored:
        raise ParameterError("nothing to explore: empty source support")

    while True:
        members = sorted(explored)
        net, tagged = _subnetwork(spec, g, members)
        net.freeze()
        flow = _dinic(net)

        if math.isinf(spec.beta):
            violators: list[int] = []
        else:
            inflow: dict[int, float] = {}
            for a, j in tagged:
                f = net.arc_flow(a)
                if f > 0.0:
                    inflow[j] = inflow.get(j, 0.0) + f
            scale = max(1.0, flow)
            violators = [
                j
                for j, f in inflow.items()
                if f > spec.beta * spec.sink_weight(g, j) + RESIDUAL_EPS * scale
            ]
        if violators:
            explored.update(violators)
            continue

        reach = _checked_min_cut(net, flow)
        s_side = frozenset(members[k] for k in reach if k != net.source)
        return CutSolution(flow_value=flow, s_side=s_side), frozenset(explored)
