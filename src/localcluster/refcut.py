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
A solve holds one residual (``flownet._Residual``), built on the first
round's network, and enters the engine through one call per round,
``flownet._augment``, which sends any surplus on to the sink or back to
the source, augments from the source and leaves the flow in the
residual. When a round's flow does not extend to the full graph, the
offending outside nodes join and ``_Carry.grow`` appends their arcs to
the residual in place (``_Residual.add_nodes`` / ``add_pairs``): every
arc keeps its flow, an outside edge that comes inside takes its capacity
and its share of the flow out of its member's sink arc
(``_Residual.take``), and a new member's inflow beyond its own sink arc
is surplus. A grow round so costs the new members' arcs and a walk over
the members that hold outside edges, not a new network. This module
writes the residual only through those growth methods and reads a flow
only through ``_Residual.back``. Every returned cut is checked
(``flownet._checked_min_cut``) on a network from the checked
``FlowNetwork`` constructor whose members hold the cut's side and the
seed: the first round's, or, when the side left it, one built on the
side and the seed. So the certificate never rests on the residual's
bookkeeping. The one tolerance here, ``RESIDUAL_EPS``, is the margin of
the violator test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ParameterError
from .flownet import RESIDUAL_EPS, CutSolution, FlowNetwork, _augment, _checked_min_cut, _Residual, _run_index
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
    """Where ``_subnetwork`` put the sink arcs, by arc pair (forward arc 2a), and the outside edges.

    The outside edges ("tags") are listed member by member, each member's
    in CSR order: the member's index, the outside endpoint's graph id and
    the edge's capacity.
    """

    snk: np.ndarray  # sink arcs
    snk_member: np.ndarray  # the member index of each sink arc
    own: np.ndarray  # the member's own attachment within each sink arc
    tag_member: np.ndarray
    tag_end: np.ndarray
    tag_cap: np.ndarray


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
    return net, _Layout(snk_ids, snk_k, snk_own, tag_row, tag_end, tag_cap)


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
    pulled into the subgraph, their arcs are added to the residual in
    place, the flow is carried over (see ``_Carry``) and augmented from
    there. The cut is checked on a network built by the checked
    constructor. On return both the flow value and the minimal s-side
    equal solve_maxflow on the fully materialized network.

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

    net, lay = _subnetwork(spec, g, explored)
    res = _Residual(net, net.cap_init)
    flow, reach = _augment(res, 0.0, [], [])
    if lay.tag_end.size and not math.isinf(spec.beta):
        carry = _Carry(spec, g, net, res, explored, lay)
        while (start := carry.grow(flow)) is not None:
            flow, reach = _augment(res, flow, *start)
    if res.num_nodes == net.num_nodes:
        _checked_min_cut(net, flow, reach)
        return CutSolution(flow_value=flow, s_side=explored[reach[: explored.size]]), explored

    # The residual grew in place. The certificate comes from a network the
    # checked constructor built on members that hold the cut's side and the
    # seed, where the cut has its capacity in the whole graph: the first
    # round's network when its members hold the side, else one built on the
    # side and the seed. It never rests on the residual's bookkeeping.
    ids = np.array(carry.ids)
    s_side = np.sort(ids[reach & (ids >= 0)])
    members = explored
    if (_locate(s_side, members, g.n) == members.size).any():
        members = _sorted_ids(np.concatenate((s_side, spec.seed)))
        net, _ = _subnetwork(spec, g, members)
    side = np.zeros(net.num_nodes, dtype=bool)
    side[members.searchsorted(s_side)] = True
    side[net.source], side[net.sink] = reach[res.source], reach[res.sink]
    _checked_min_cut(net, flow, side)
    return CutSolution(flow_value=flow, s_side=s_side), np.sort(ids[ids >= 0])


class _Carry:
    """One local solve's growing residual in graph terms: what each node joined with and where its sink arc is.

    Built on the first round's network and its layout; residual node k
    below the terminals is member k of that network, and each node that
    joins later takes the next id. ``grow`` reads the flow on each sink
    arc (``_Residual.back``), splits what exceeds the member's own
    attachment greedily over its outside edges in CSR order, and pulls in
    every outside endpoint that receives more than its own attachment can
    take, adding its arcs to the residual. Every arc keeps its flow; an
    outside edge that comes inside leaves its member's sink arc with its
    capacity and its share of the flow (``_Residual.take``), and a new
    member's inflow beyond its own sink arc is surplus. A new member's
    block in the residual has room for an arc per neighbour and its sink
    arc; a first-round member's run moves once it gains arcs, and the
    residual keeps each arc's index in its tail's run.
    """

    __slots__ = ("spec", "g", "res", "ids", "node", "snk", "tag_node", "tag_end", "tag_cap", "tagged")

    def __init__(
        self, spec: AugmentedGraphSpec, g: Graph, net: FlowNetwork, res: _Residual, members: np.ndarray, lay: _Layout
    ):
        m = members.size
        self.spec, self.g, self.res = spec, g, res
        self.ids = members.tolist() + [-1, -1]  # graph id of each node, -1 at the terminals
        self.node = dict(zip(self.ids[:m], range(m)))  # node of each member
        self.snk = [-1] * (m + 2)  # index of each node's sink arc in its run
        for k, i in zip(lay.snk_member.tolist(), _run_index(net, 2 * lay.snk)):
            self.snk[k] = i
        # The edges each node joined with (to members too, which are skipped
        # when read), one run of these lists per node, and for each node
        # that has edges outside: the node, its own attachment and its run.
        self.tag_node, self.tag_end, self.tag_cap = lay.tag_member.tolist(), lay.tag_end.tolist(), lay.tag_cap.tolist()
        count = np.bincount(lay.tag_member, minlength=m)
        end = count.cumsum()
        own = np.zeros(m)
        own[lay.snk_member] = lay.own
        k = count.nonzero()[0]
        self.tagged = list(zip(k.tolist(), own[k].tolist(), (end - count)[k].tolist(), end[k].tolist()))

    def grow(self, flow: float) -> tuple[list[int], list[float]] | None:
        """Pull in the violators of a flow of value ``flow`` and carry the flow to them.

        Returns the new nodes left with a surplus and their surpluses,
        ``flownet._augment``'s start, or None when no endpoint is a violator.
        """
        spec, g, res, node, snk = self.spec, self.g, self.res, self.node, self.snk
        tag_node, tag_end, tag_cap, back = self.tag_node, self.tag_end, self.tag_cap, res.back
        inflow: dict[int, float] = {}
        fed, fed_share = [], []  # the outside edges that receive flow, and how much
        for k, own, lo, hi in self.tagged:
            # Each outside edge takes what the member's flow beyond its own
            # attachment leaves after the member's earlier outside edges.
            beyond = back(k, snk[k]) - own
            if beyond > 0.0:
                for i in range(lo, hi):
                    j = tag_end[i]
                    if j not in node:
                        c = tag_cap[i]
                        s = beyond if beyond < c else c
                        inflow[j] = inflow.get(j, 0.0) + s
                        fed.append(i)
                        fed_share.append(s)
                        beyond -= c
                        if beyond <= 0.0:
                            break
        slack = RESIDUAL_EPS * max(1.0, flow)
        beta, degree = spec.beta, g.degrees.item
        violators = sorted(j for j, f in inflow.items() if f > beta * degree(j) + slack)
        if not violators:
            return None

        first = res.num_nodes
        rows = np.array(violators)
        bounds = g.indptr[rows], g.indptr[rows + 1]
        res.add_nodes((bounds[1] - bounds[0] + 1).tolist())  # an arc per neighbour and the sink arc
        node.update(zip(violators, range(first, res.num_nodes)))
        self.ids += violators
        snk += [-1] * len(violators)
        joined = set(violators)
        share = {(tag_node[i], tag_end[i]): s for i, s in zip(fed, fed_share) if tag_end[i] in joined}
        arcs = g.arcs_of(rows)
        nbrs, ws = g.indices[arcs].tolist(), g.weights[arcs].tolist()
        sinks, pairs, taken, starts, surplus = [], [], [], [], []
        lo = 0
        for k, v, hi, own in zip(
            range(first, res.num_nodes), violators, (bounds[1] - bounds[0]).cumsum().tolist(), (beta * g.degrees[rows]).tolist()
        ):
            outside = 0.0
            for j, c in zip(nbrs[lo:hi], ws[lo:hi]):
                kj = node.get(j)
                if kj is None:
                    outside += c
                elif kj < first:
                    s = share.get((kj, v), 0.0)  # the flow from kj to v
                    pairs.append((kj, k, c - s, c + s))
                    taken.append((kj, snk[kj], c, s))
                elif kj > k:  # an edge between two new members, taken in once
                    pairs.append((kj, k, c, c))
            sent = 0.0
            if own > 0.0 or outside > 0.0:
                sent = min(inflow[v], own + outside)
                sinks.append((k, res.sink, own + outside - sent, sent))
                if outside > 0.0:
                    self.tagged.append((k, own, len(tag_end), len(tag_end) + hi - lo))
                    tag_node += [k] * (hi - lo)
                    tag_end += nbrs[lo:hi]
                    tag_cap += ws[lo:hi]
            if inflow[v] > sent:
                starts.append(k)
                surplus.append(inflow[v] - sent)
            lo = hi
        for (k, *_), i in zip(sinks, res.add_pairs(sinks)):
            snk[k] = i
        res.add_pairs(pairs)
        res.take(taken)
        return starts, surplus
