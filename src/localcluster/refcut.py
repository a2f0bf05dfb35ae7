"""Augmented source/sink graph shared by all flow-based refinement.

The construction is held implicitly as parameters (never as an explicit
node/edge list): every graph edge keeps its weight, the source attaches to
each seed node i with capacity alpha*d_i, and every other node attaches
to the sink with capacity beta*d_i. Zero-weight attachments are omitted,
which is what makes strongly-local solving possible. ``materialize``
builds the whole network; ``rescale`` gives a built one new source and
sink scales in place, leaving its edge arcs and its arc structure as
they are.

``solve_maxflow_local`` solves on a grown subset of the nodes, the
members, with everything else contracted into the sink: each member has
one sink arc holding its own attachment and its edges to non-members.
When a round's flow does not extend to the full graph, the offending
outside nodes join and the flow is carried into the grown network
(``_Carry``): every arc keeps its flow, an outside edge that comes inside
takes its share of the sink arc's flow, and a new member's inflow beyond
its own sink arc is surplus. ``_Carry.load`` hands that flow over as a
new array of start residuals with the surplus, and each round, the first
one from ``cap_init``, enters the engine through one call,
``flownet._augment``, which sends the surplus on to the sink or back to
the source, augments from the source and stores the residuals. This
module never writes a network's residuals or touches the engine's lists;
its one tolerance, ``RESIDUAL_EPS``, is the margin of ``_Carry.split``'s
violator test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ParameterError
from .flownet import RESIDUAL_EPS, CutSolution, FlowNetwork, _augment, _checked_min_cut
from .graph import Graph, _as_node_array, _cut, _locate, _sorted_ids

__all__ = [
    "AugmentedGraphSpec",
    "augmented_cut_value",
    "materialize",
    "rescale",
    "solve_maxflow_local",
]


@dataclass(frozen=True, eq=False)
class AugmentedGraphSpec:
    """Parameters (alpha, beta, seed set R) of the cut graph.

    Parameters
    ----------
    alpha : float
        Source scale, >= 0: seed node i is attached to the source with
        capacity alpha*d_i.
    beta : float
        Sink scale, >= 0; +inf allowed (hard confinement): node i outside
        R is attached to the sink with capacity beta*d_i.
    seed : iterable of integer node ids
        The seed set R, nonempty; held as a sorted array of distinct ids.
        Ids that are not integers raise InvalidSetError.
    """

    alpha: float
    beta: float
    seed: np.ndarray

    def __post_init__(self):
        if not (self.alpha >= 0 and self.beta >= 0):  # NaN fails both comparisons
            raise ParameterError("alpha and beta must be nonnegative")
        seed = _sorted_ids(self.seed)
        if not seed.size:
            raise ParameterError("seed set is empty")
        object.__setattr__(self, "seed", seed)

    def validate_against(self, g: Graph) -> None:
        lo, hi = self.seed[0], self.seed[-1]
        if lo < 0 or hi >= g.n:
            raise ParameterError(f"seed node {lo if lo < 0 else hi} out of range")

    def _attachment(self, d: np.ndarray, in_seed: np.ndarray) -> np.ndarray:
        """Terminal capacities of nodes of degree ``d``: alpha*d on the seed, beta*d off it, 0 where d = 0.

        alpha * 0.0 and beta * 0.0 are nan at an infinite scale. An attachment of 0 gets no arc.
        """
        out = np.zeros(d.size)
        mass = d > 0.0
        out[mass] = np.where(in_seed[mass], self.alpha, self.beta) * d[mass]
        return out


def augmented_cut_value(spec: AugmentedGraphSpec, g: Graph, s: object) -> float:
    """Cut value of ({source} | S) in the augmented graph, computed directly.

    Equals cut(S) + alpha*vol(R - S) + beta*vol(S - R) without
    materializing anything. Returns +inf when beta is infinite and S - R
    has volume.
    """
    spec.validate_against(g)
    arr = _as_node_array(g, s)
    source_term = float(g.degrees[np.setdiff1d(spec.seed, arr, assume_unique=True)].sum())
    sink_term = float(g.degrees[np.setdiff1d(arr, spec.seed, assume_unique=True)].sum())
    if sink_term > 0.0 and math.isinf(spec.beta):
        return float("inf")
    # An infinite beta with no sink mass adds nothing; inf * 0.0 would be nan.
    sink_part = spec.beta * sink_term if sink_term > 0.0 else 0.0
    return _cut(g, arr) + spec.alpha * source_term + sink_part


def materialize(spec: AugmentedGraphSpec, g: Graph) -> FlowNetwork:
    """Build the explicit flow network: graph nodes 0..n-1, source n, sink n+1."""
    spec.validate_against(g)
    return _subnetwork(spec, g, np.arange(g.n))[0]


def rescale(net: FlowNetwork, spec: AugmentedGraphSpec, g: Graph) -> None:
    """Give a network from ``materialize`` the terminal capacities of ``spec``, with no flow.

    Source arcs get alpha*d_i and sink arcs beta*d_i; the edge arcs are
    left alone, and so is the arc set. Every attachment that ``spec``
    makes positive must have its arc already, as each does when the
    network was materialized on the same graph and seed at positive alpha
    and beta; otherwise ParameterError. Where every attachment is
    positive the network then equals a fresh ``materialize(spec, g)`` bit
    for bit. An attachment that is zero keeps its arc, at capacity 0,
    where the fresh network omits it: the minimal min cut is the same,
    but a solve may sum its flow in another order.
    """
    spec.validate_against(g)
    if net.num_nodes != g.n + 2:
        raise ParameterError("network was not materialized on this graph")
    pairs = net.head.reshape(-1, 2)
    src = (pairs[:, 1] == net.source).nonzero()[0]
    snk = (pairs[:, 0] == net.sink).nonzero()[0]
    src_node, snk_node = pairs[src, 0], pairs[snk, 1]
    in_seed = np.zeros(g.n, dtype=bool)
    in_seed[spec.seed] = True
    attachment = spec._attachment(g.degrees, in_seed)
    has = np.zeros(g.n, dtype=bool)
    has[src_node] = has[snk_node] = True
    if not in_seed[src_node].all() or in_seed[snk_node].any() or (~has & (attachment > 0.0)).any():
        raise ParameterError("network lacks an attachment of this spec, or has one off its seed")
    net.set_capacities(np.concatenate((2 * src, 2 * snk)), attachment[np.concatenate((src_node, snk_node))])


class _Layout(NamedTuple):
    """Where ``_subnetwork`` put each kind of arc, by arc pair (forward arc 2a).

    The outside edges ("tags") are listed member by member, each member's
    in CSR order: the member's index, the outside endpoint's graph id and
    the edge's capacity.
    """

    src: np.ndarray  # source arcs, in seed order
    snk: np.ndarray  # sink arcs
    snk_member: np.ndarray  # the member index of each sink arc
    own: np.ndarray  # the member's own attachment within each sink arc
    tag_member: np.ndarray
    tag_end: np.ndarray
    tag_cap: np.ndarray
    edges: np.ndarray  # inside edges
    edge_key: np.ndarray  # lo * n + hi for each inside edge, in graph ids


def _subnetwork(spec: AugmentedGraphSpec, g: Graph, members: np.ndarray) -> tuple[FlowNetwork, _Layout]:
    """The augmented network on ``members`` (sorted), exterior contracted into the sink.

    The members must include the seed. Member k of the array is
    network node k; the source is len(members) and the sink
    len(members) + 1. A member's edges to non-members are merged into its
    sink arc, whose capacity is the member's own attachment beta*d plus
    the capacities of those outside edges, added in CSR order.

    Each member contributes, in this order, its source arc, its sink arc
    and one undirected edge per inside neighbour with a larger id, in CSR
    order (the edge is kept once, from its lower end). Arc ids follow the
    members in order.
    """
    m = members.size
    source, sink = m, m + 1
    at = members.searchsorted(spec.seed)
    in_seed = np.zeros(m, dtype=bool)
    in_seed[at] = True
    attachment = spec._attachment(g.degrees[members], in_seed)
    src_k = at[attachment[at] > 0.0]
    src_cap = attachment[src_k]
    own = np.where(in_seed, 0.0, attachment)

    arcs = g.arcs_of(members)
    row = np.arange(m).repeat(g.indptr[members + 1] - g.indptr[members])
    nbr = g.indices[arcs]
    loc = _locate(nbr, members, g.n)
    inside = loc < m
    c = g.weights[arcs]
    outside = ~inside
    tag_row, tag_end, tag_cap = row[outside], nbr[outside], c[outside]
    edge = inside & (row < loc)
    row, loc, c = row[edge], loc[edge], c[edge]

    has_snk = (own > 0.0) | (np.bincount(tag_row, minlength=m) > 0)
    snk_k = has_snk.nonzero()[0]
    snk_own = own[snk_k]
    snk_cap = snk_own + np.bincount(tag_row, weights=tag_cap, minlength=m)[snk_k]

    # Arc ids: member k's source and sink arcs (its lead arcs), then its
    # edges, after all arcs of the members before k.
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
    head[nbr_ids, 0] = loc
    head[nbr_ids, 1] = row
    cap[nbr_ids] = c[:, None]
    net = FlowNetwork(m + 2, source, sink, head.reshape(-1), cap.reshape(-1))
    key = members[row] * g.n + members[loc]
    return net, _Layout(src_ids, snk_ids, snk_k, snk_own, tag_row, tag_end, tag_cap, nbr_ids, key)


def solve_maxflow_local(
    spec: AugmentedGraphSpec,
    g: Graph,
    warm_start: Iterable[int] = (),
) -> tuple[CutSolution, np.ndarray]:
    """Max-flow on the augmented graph touching only a grown subgraph.

    Starts from the seed plus the warm-start set, contracts
    everything else into the sink (one sink arc per member, holding its
    outside edges), and solves exactly on the subnetwork. The flow on each
    sink arc is split greedily: the member's own attachment first, then
    its outside edges in CSR order. The solution extends to the full
    network when the flow that split sends into each outside endpoint fits
    under that node's sink attachment; endpoints where it does not are
    pulled into the subgraph, and the flow is carried into the grown
    network (see ``_Carry``) and augmented from there. On return both the
    flow value and the minimal s-side equal solve_maxflow on the fully
    materialized network.

    Returns the cut solution (graph node ids) and the graph nodes ever
    materialized, both as sorted int64 arrays; the second one's size is
    the touched-node count.
    """
    spec.validate_against(g)
    if math.isinf(spec.alpha):
        raise ParameterError("total source capacity must be finite")

    explored = _sorted_ids(np.concatenate((spec.seed, _sorted_ids(warm_start))))
    if explored[0] < 0 or explored[-1] >= g.n:
        raise ParameterError("warm-start node out of range")

    flow = 0.0
    carry = None
    while True:
        net, lay = _subnetwork(spec, g, explored)
        start, starts, surplus = (net.cap_init, [], []) if carry is None else carry.load(net, lay, g.n)
        flow, reach = _augment(net, start, flow, starts, surplus)

        if lay.tag_end.size and not math.isinf(spec.beta):
            carry = _Carry.split(spec, g, net, lay, explored, flow)
            if carry is not None:
                explored = carry.grown
                continue

        _checked_min_cut(net, flow, reach)
        return CutSolution(flow_value=flow, s_side=explored[reach[: explored.size]]), explored


class _Carry(NamedTuple):
    """A grow round's flow, kept in graph terms so the next round's network can take it over.

    ``split`` reads the flow off a solved network and picks the violators;
    ``load`` gives it as start residuals of the network grown by them.
    Every arc keeps its flow; an outside edge that comes inside takes its
    share of the sink arc's flow; what the grown members cannot pass to
    their sink arcs is their surplus.
    """

    members: np.ndarray  # the members of the solved network
    grown: np.ndarray  # the members with the violators added
    src: np.ndarray  # residual pair of each source arc, in seed order
    sink_flow: np.ndarray  # flow left on each member's sink arc
    edge_key: np.ndarray  # sorted lo * n + hi of each edge that may carry flow ...
    edge_res: np.ndarray  # ... and its residual pair (lo -> hi, hi -> lo)
    violators: np.ndarray
    inflow: np.ndarray  # the flow each violator receives

    @classmethod
    def split(
        cls, spec: AugmentedGraphSpec, g: Graph, net: FlowNetwork, lay: _Layout, members: np.ndarray, flow: float
    ) -> "_Carry | None":
        """Split the sink arcs' flow over their outside edges; None when no endpoint is a violator."""
        res, init = net.cap.reshape(-1, 2), net.cap_init.reshape(-1, 2)
        snk_flow = init[lay.snk, 0] - res[lay.snk, 0]
        beyond_own = np.zeros(members.size)
        beyond_own[lay.snk_member] = np.maximum(snk_flow - lay.own, 0.0)
        # Each outside edge takes what its member's flow beyond the own
        # attachment leaves after the member's earlier outside edges.
        before = lay.tag_cap.cumsum() - lay.tag_cap
        before -= before[lay.tag_member.searchsorted(lay.tag_member)]
        share = np.clip(beyond_own[lay.tag_member] - before, 0.0, lay.tag_cap)
        # An endpoint that receives nothing is never a violator.
        fed = (share > 0.0).nonzero()[0]
        if not fed.size:
            return None
        ends, which = np.unique(lay.tag_end[fed], return_inverse=True)
        inflow = np.bincount(which, weights=share[fed])
        limit = spec.beta * g.degrees[ends] + RESIDUAL_EPS * max(1.0, flow)
        hot = inflow > limit
        if not hot.any():
            return None

        moved = fed[hot[which]]
        sink_flow = np.zeros(members.size)
        sink_flow[lay.snk_member] = snk_flow
        sink_flow -= np.bincount(lay.tag_member[moved], weights=share[moved], minlength=members.size)
        u, j = members[lay.tag_member[moved]], lay.tag_end[moved]
        c, s = lay.tag_cap[moved], share[moved]
        up = u < j
        lo_hi = np.where(up, s, -s)  # flow from the lower id to the higher
        keys = np.concatenate((lay.edge_key, np.where(up, u * g.n + j, j * g.n + u)))
        pairs = np.concatenate((res[lay.edges], np.column_stack((c - lo_hi, c + lo_hi))))
        order = keys.argsort()
        violators = ends[hot]
        return cls(
            members, _sorted_ids(np.concatenate((members, violators))), res[lay.src], sink_flow,
            keys[order], pairs[order], violators, inflow[hot],
        )

    def load(self, net: FlowNetwork, lay: _Layout, n: int) -> tuple[np.ndarray, list[int], list[float]]:
        """The carried flow as residuals of ``net``, built on ``grown`` of an n-node graph.

        Each violator's inflow goes to its sink arc as far as that arc's
        capacity allows. Returns the residuals by arc id, a new array that
        ``net`` does not hold, then the network nodes left with a surplus
        and their surpluses: ``flownet._augment``'s start.
        """
        start = net.cap_init.copy()
        res, init = start.reshape(-1, 2), net.cap_init.reshape(-1, 2)
        res[lay.src] = self.src
        at = _locate(lay.edge_key, self.edge_key, n * n)
        found = at < self.edge_key.size
        res[lay.edges[found]] = self.edge_res[at[found]]

        m = self.grown.size
        snk_cap = np.zeros(m)
        snk_cap[lay.snk_member] = init[lay.snk, 0]
        snk_flow = np.zeros(m)
        snk_flow[self.grown.searchsorted(self.members)] = self.sink_flow
        at = self.grown.searchsorted(self.violators)
        snk_flow[at] = np.minimum(self.inflow, snk_cap[at])
        res[lay.snk, 0] = init[lay.snk, 0] - snk_flow[lay.snk_member]
        res[lay.snk, 1] = snk_flow[lay.snk_member]
        surplus = self.inflow - snk_flow[at]
        left = surplus > 0.0
        return start, at[left].tolist(), surplus[left].tolist()

