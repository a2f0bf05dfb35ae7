"""Augmented source/sink graph shared by all flow-based refinement.

The construction is held implicitly as parameters (never as an explicit
node/edge list): every graph edge keeps its weight, the source attaches to
each seed node i with capacity alpha*d_i, and every other node attaches
to the sink with capacity beta*d_i. Zero-weight attachments are omitted,
which is what makes strongly-local solving possible. ``materialize``
builds the whole network; ``rescale`` returns one at new source and sink
scales that shares the built one's arcs. A spec holds its seed as a
sorted id array: a seed given as a ``graph.NodeSet`` lends its own array,
so the refinement loop, which builds a spec per round from the one node
set it holds, sorts nothing again.

``solve_maxflow_local`` solves one local flow (``_LocalFlow``) that
starts from the seed: its first round's network holds the seed nodes,
the members, with everything else contracted into the sink. Each member
has one sink arc, which holds its edges to non-members (a seed node has
no sink attachment of its own). The flow holds one residual
(``flownet._Residual``), built on that network, and enters the engine
through one call per round, ``flownet._augment``, which sends any
surplus on to the sink or back to the source, augments from the source
and leaves the flow in the residual. After each round ``_Split`` splits
the flow on each member's sink arc over its outside edges and finds the
outside nodes that take in more than their own attachment can; a row is
split again only when its flow moved, so a round reads the sink arcs and
what the augmentation changed. Those nodes join (``_LocalFlow._join``),
which appends their arcs to the residual in place
(``_Residual.add_nodes`` / ``add_pairs``): every arc keeps its flow, an
outside edge that comes inside takes its capacity and its share of the
flow out of its member's sink arc (``_Residual.take``), and a new
member's inflow beyond its own sink arc is surplus. A flow whose rounds
have no such node never builds the index that joining needs.

Nodes join only through ``_Split``, which exists only at a finite beta,
and the source capacities are finite, so no local network holds an
infinite capacity. The flow outlives its first round: a refinement call
keeps one residual for all its rounds. A later round, at alpha' =
s*alpha with s in (0, 1) and beta/alpha fixed, multiplies the flow on
every arc by s, gives the source arcs alpha'*d and each member's own
attachment beta'*d, and leaves edges and outside edges as they were
(``flownet._augment_scaled``, one call). No capacity falls below s times
what it was, so the scaled flow is feasible, and scaling keeps it
conserving; the round re-splits every row at beta' and augments and
grows as a grow round does. Scaling cannot reach s outside (0, 1) or
another beta/alpha; a round asked for either is an internal error.

This module writes the residual only through those methods and calls
and reads it only through ``_Residual.run``. Every returned cut is
checked by one rule that does not rest on the residual's bookkeeping:
the residual must not reach the sink, and the flow must equal the cut's
capacity in the graph itself (``augmented_cut_value``). The one
tolerance here, ``RESIDUAL_EPS``, is the margin of the violator test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .flownet import (
    RESIDUAL_EPS,
    CutSolution,
    FlowNetwork,
    _augment,
    _augment_scaled,
    _check_cut,
    _Residual,
    _run_index,
)
from .graph import Graph, NodeSet, _locate, _sorted_ids

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
    seed : iterable of integer node ids, or a NodeSet
        The seed set R, nonempty; held as a sorted array of distinct ids,
        a node set's own array as it is. Ids that are not integers raise
        InvalidSetError.
    """

    alpha: float
    beta: float
    seed: np.ndarray

    def __post_init__(self):
        if not (self.alpha >= 0 and self.beta >= 0):  # NaN fails both comparisons
            raise ParameterError("alpha and beta must be nonnegative")
        seed = self.seed.array if isinstance(self.seed, NodeSet) else _sorted_ids(self.seed)
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
    return _augmented_cut(spec, g, NodeSet.of(g, s).array)


def _augmented_cut(spec: AugmentedGraphSpec, g: Graph, arr: np.ndarray) -> float:
    """``augmented_cut_value`` of a sorted, distinct, in-range id array.

    One search of S places both the seed nodes and the heads of S's arcs.
    The few degrees of each terminal term are summed by ``math.fsum`` and
    the cut's many weights by numpy: each way measured faster at its size.
    """
    seed = spec.seed
    if not arr.size:
        return spec.alpha * math.fsum(g.degrees[seed].tolist())
    k = seed.size
    arc = g.arcs_of(arr)
    ids = np.concatenate((seed, g.indices[arc]))
    at = arr.searchsorted(ids)
    found = arr.take(at, mode="clip") == ids
    in_seed = np.zeros(arr.size, dtype=bool)
    in_seed[at[:k][found[:k]]] = True
    source_term = math.fsum(g.degrees[seed[~found[:k]]].tolist())
    sink_term = math.fsum(g.degrees[arr[~in_seed]].tolist())
    if sink_term > 0.0 and math.isinf(spec.beta):
        return float("inf")
    # An infinite beta with no sink mass adds nothing; inf * 0.0 would be nan.
    sink_part = spec.beta * sink_term if sink_term > 0.0 else 0.0
    return float(g.weights[arc][~found[k:]].sum()) + spec.alpha * source_term + sink_part


def materialize(spec: AugmentedGraphSpec, g: Graph) -> FlowNetwork:
    """Build the explicit flow network: graph nodes 0..n-1, source n, sink n+1."""
    spec.validate_against(g)
    return _subnetwork(spec, g, np.arange(g.n))[0]


def rescale(net: FlowNetwork, spec: AugmentedGraphSpec, g: Graph) -> FlowNetwork:
    """The network from ``materialize`` at the terminal capacities of ``spec``, on the same arcs.

    Source arcs get alpha*d_i and sink arcs beta*d_i; the edge arcs keep
    their capacities. The new network shares ``net``'s arcs, and ``net``
    stays as it was. Every attachment that ``spec`` makes positive must
    have its arc already, as each does when the network was materialized
    on the same graph and seed at positive alpha and beta; otherwise
    ParameterError. Where every attachment is positive the result equals
    a fresh ``materialize(spec, g)`` bit for bit. An attachment that is
    zero keeps its arc, at capacity 0, where the fresh network omits it:
    the minimal min cut is the same, but a solve may sum its flow in
    another order.
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
    cap = np.where(net.infinite, math.inf, net.capacity)
    cap[2 * src] = attachment[src_node]
    cap[2 * snk] = attachment[snk_node]
    return net._with_capacities(cap)


class _Layout(NamedTuple):
    """Where ``_subnetwork`` put the sink arcs, by arc pair (forward arc 2a), and the outside edges.

    The outside edges ("tags") are listed member by member, each member's
    in CSR order: the member's index, the outside endpoint's graph id and
    the edge's capacity.
    """

    snk: np.ndarray  # sink arcs
    snk_member: np.ndarray  # the member index of each sink arc
    own: np.ndarray  # the member's own attachment within each sink arc
    snk_deg: np.ndarray  # the degree behind it: beta times this, or 0 on the seed
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
    d = g.degrees[members]
    attachment = spec._attachment(d, in_seed)
    src_k = at[attachment[at] > 0.0]
    src_cap = attachment[src_k]
    own = np.where(in_seed, 0.0, attachment)
    off_seed = np.where(in_seed, 0.0, d)

    # g.arcs_of(members), with each arc's member index from the same row lengths.
    starts = g.indptr[members]
    lengths = g.indptr[members + 1] - starts
    row = np.arange(m).repeat(lengths)
    arcs = (starts - lengths.cumsum() + lengths)[row] + np.arange(row.size)
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
    return net, _Layout(snk_ids, snk_k, snk_own, off_seed[snk_k], tag_row, tag_end, tag_cap)


class LocalSolve(NamedTuple):
    """What ``solve_maxflow_local`` returns."""

    solution: CutSolution  # the cut, in graph node ids
    explored: np.ndarray  # the graph nodes the solve materialized, sorted
    flow: _LocalFlow  # the solve's flow, kept for solving again at smaller scales


def solve_maxflow_local(spec: AugmentedGraphSpec, g: Graph) -> LocalSolve:
    """Max-flow on the augmented graph touching only a grown subgraph.

    Starts from the seed, contracts everything else into the sink (one
    sink arc per member, holding its outside edges), and solves exactly
    on the subnetwork. The flow on each sink arc is split greedily: the
    member's own attachment first, then its outside edges in CSR order
    (``_Split``). The solution extends to the full network when the flow
    that split sends into each outside endpoint fits under that node's
    sink attachment; endpoints where it does not join the subgraph, their
    arcs are added to the residual in place, the flow is carried over
    (``_LocalFlow._join``) and augmented from there. The cut is checked as
    every local cut is: the sink must lie outside the residual reach, and
    the flow must equal the cut's capacity in the whole graph
    (``augmented_cut_value``). On return both the flow value and the
    minimal s-side equal solve_maxflow on the fully materialized network.
    The total source capacity alpha*vol(R) must be finite.

    Returns the cut solution (graph node ids), the graph nodes ever
    materialized, both as sorted int64 arrays (the second one's size is
    the touched-node count), and the flow, which ``_LocalFlow.resolve``
    solves again at smaller scales.
    """
    spec.validate_against(g)
    if not math.isfinite(spec.alpha * float(g.degrees[spec.seed].sum())):  # inf * 0.0 is nan
        raise ParameterError("total source capacity must be finite")
    flow = _LocalFlow(spec, g)
    return LocalSolve(flow.solve(), flow.explored(), flow)


class _LocalFlow:
    """One strongly-local max-flow from the seed: the residual grown from one network, kept across the rounds of a refinement call.

    The first round builds the network on the seed and grows its residual
    as far as the violators ask. ``ids`` holds the graph id of each
    residual node (-1 at the terminals): the seed in order, the source and
    the sink, then each node in the order it joined. A later round, at the
    same seed and at alpha' = s*alpha and beta' = s*beta with s in (0, 1),
    keeps that residual and its flow: the flow on every arc is multiplied
    by s, the source arcs get alpha'*d (s times their capacity), each
    member's own part of its sink arc gets beta'*d, and edges and outside
    edges keep their capacities (``_Residual.scale``). No capacity falls
    below s times what it was, so the scaled flow is feasible, and it
    conserves, as scaling is linear. Each ``_Split`` row is split again at
    beta', and the round augments and grows as a grow round does. Every
    round's cut is checked the same way: the sink must lie outside the
    residual reach, and the flow must equal the cut's capacity in the
    graph (``augmented_cut_value``).

    Joining needs an index of the first round's network in graph terms:
    each member's node (``node``), the index of each node's sink arc in
    the sink's run (``snk``), each node's row of the split (``row``) and
    each tag's outside node (``tag_end``). The first join builds it; a flow
    that never grows never does.
    """

    __slots__ = ("spec", "g", "ids", "sink_deg", "net", "lay", "res", "value", "split", "node", "snk", "row", "tag_end")

    def __init__(self, spec: AugmentedGraphSpec, g: Graph):
        self.spec, self.g = spec, g
        self.ids = np.concatenate((spec.seed, [-1, -1]))
        self.net, self.lay = _subnetwork(spec, g, spec.seed)
        # Each sink arc's degree behind its own attachment, in the sink's run.
        self.sink_deg = self.lay.snk_deg.tolist()
        self.res = _Residual(self.net, self.net.capacity)
        self.value = 0.0  # of the maximum flow the residual holds
        # Only a finite beta can leave an outside node overloaded.
        self.split = _Split(spec, g, self.lay) if self.lay.tag_end.size and not math.isinf(spec.beta) else None
        self.node: dict[int, int] | None = None

    def solve(self) -> CutSolution:
        """The first round: a maximum flow from zero, grown until no outside node is overloaded."""
        return self._grow(*_augment(self.res, 0.0, [], []))

    def resolve(self, spec: AugmentedGraphSpec) -> CutSolution:
        """A later round at ``spec``: the kept flow scaled by s = alpha'/alpha, augmented and grown.

        ``spec`` holds the kept seed. Where scaling cannot reach ``spec``
        it raises AssertionError, an internal error, and leaves the flow
        as it was: s is not in (0, 1), or beta is not s times the kept beta
        (at 1e-9, the roundoff of a fixed beta/alpha; an infinite beta must
        stay infinite). A refinement call never asks for such a round: its
        objective falls, the loop ends once it is 0, and beta/alpha is
        fixed.
        """
        kept = self.spec
        s = spec.alpha / kept.alpha if kept.alpha > 0.0 else math.nan
        if not 0.0 < s < 1.0 or not math.isclose(spec.beta, s * kept.beta, rel_tol=1e-9):
            raise AssertionError(f"a kept flow cannot be scaled to alpha={spec.alpha!r}, beta={spec.beta!r}")
        # Only a member outside the seed with a degree has an own attachment;
        # at an infinite beta no node outside the seed is a member.
        own = [spec.beta * d if d > 0.0 else 0.0 for d in self.sink_deg]
        drop = [kept.beta * d - o if d > 0.0 else 0.0 for d, o in zip(self.sink_deg, own)]
        self.spec = spec
        if self.split is not None:
            self.split.rescale(spec.beta, own)
        return self._grow(*_augment_scaled(self.res, self.value, s, drop))

    def explored(self) -> np.ndarray:
        """The graph nodes the residual holds, sorted."""
        return np.sort(self.ids)[2:]  # the terminals' -1s sort first

    def _grow(self, flow: float, reach: np.ndarray) -> CutSolution:
        """Grow from a maximum ``flow`` with residual reach ``reach`` until no outside node is overloaded; check the cut."""
        res, split = self.res, self.split
        while split is not None and (found := split.violators(res, flow)) is not None:
            flow, reach = _augment(res, flow, *self._join(found))
        self.value = flow
        sink_reached = reach[res.sink]
        reach[res.source] = reach[res.sink] = False  # no graph node
        s_side = self.ids[reach]
        s_side.sort()
        # The cut's capacity comes from the graph, so the check does not
        # rest on the residual's bookkeeping.
        _check_cut(flow, sink_reached, _augmented_cut(self.spec, self.g, s_side))
        return CutSolution(flow_value=flow, s_side=s_side)

    def _join(self, found: list[tuple[int, float]]) -> tuple[list[int], list[float]]:
        """Pull in the violators ``found`` (node, inflow), sorted by node, and carry the flow to them.

        Every arc keeps its flow; an outside edge that comes inside leaves
        its member's sink arc with its capacity and its share of the flow
        (``_Residual.take``), and a new member's inflow beyond its own
        sink arc is surplus. A new member's block in the residual has room
        for an arc per neighbour and its sink arc; a first-round member's
        run moves once it gains arcs, and the residual keeps each arc's
        index in its tail's run. Returns the new nodes left with a surplus
        and their surpluses, ``flownet._augment``'s start.
        """
        if self.node is None:
            m, lay = self.spec.seed.size, self.lay
            self.node = dict(zip(self.spec.seed.tolist(), range(m)))
            self.snk = [-1] * (m + 2)
            for k, i in zip(lay.snk_member.tolist(), _run_index(self.net, 2 * lay.snk)):
                self.snk[k] = i
            self.row = [-1] * (m + 2)
            for r, (k, *_) in enumerate(self.split.rows):
                self.row[k] = r
            self.tag_end = lay.tag_end.tolist()
        g, res, split = self.g, self.res, self.split
        node, snk, row, tag_end = self.node, self.snk, self.row, self.tag_end
        rows, cap, share, moved = split.rows, split.cap, split.share, split.moved
        indptr, indices, weights, degrees, beta = g.indptr, g.indices, g.weights, g.degrees, split.beta
        first = res.num_nodes
        bounds = [(int(indptr[v]), int(indptr[v + 1])) for v, _ in found]
        res.add_nodes([hi - lo + 1 for lo, hi in bounds])  # an arc per neighbour and the sink arc
        new = [v for v, _ in found]
        node.update(zip(new, range(first, res.num_nodes)))
        self.ids = np.concatenate((self.ids, new))
        snk += [-1] * len(new)
        row += [-1] * len(new)
        tags = len(tag_end)
        sinks, pairs, taken, new_rows, starts, surplus = [], [], [], [], [], []
        for k, (v, f), (lo, hi) in zip(range(first, res.num_nodes), found, bounds):
            d = float(degrees[v])
            own = beta * d
            outside, caps = 0.0, []
            for j, c in zip(indices[lo:hi].tolist(), weights[lo:hi].tolist()):
                kj = node.get(j)
                if kj is None:
                    outside += c
                    caps.append(c)
                    tag_end.append(j)
                elif kj < first:
                    # The edge was a tag of kj's row: it leaves kj's sink arc
                    # with the share of the flow it took.
                    r = row[kj]
                    _, _, _, tag_lo, tag_hi = rows[r]
                    i = tag_end.index(v, tag_lo, tag_hi)
                    s = share[i]
                    cap[i] = 0.0
                    moved.add(r)
                    pairs.append((kj, k, c - s, c + s))
                    taken.append((kj, snk[kj], c, s))
                elif kj > k:  # an edge between two new members, taken in once
                    pairs.append((kj, k, c, c))
            sent = 0.0
            if own > 0.0 or outside > 0.0:
                sent = min(f, own + outside)
                if outside > 0.0:
                    row[k] = len(rows) + len(new_rows)
                    new_rows.append((k, len(sinks), own, caps))
                sinks.append((k, res.sink, own + outside - sent, sent))
                self.sink_deg.append(d)
            if f > sent:
                starts.append(k)
                surplus.append(f - sent)
        for (k, *_), i in zip(sinks, res.add_pairs(sinks)):
            snk[k] = i
        res.add_pairs(pairs)
        res.take(taken)
        split.add(new_rows, tag_end[tags:], len(sinks))
        return starts, surplus


class _Split:
    """The greedy split of each member's sink-arc flow over its outside edges, and the inflow it sends each outside node.

    A member's flow beyond its own attachment goes to its outside edges
    ("tags") in CSR order: each takes what is left, up to its capacity.
    The members that have outside edges are the rows, in the order they
    joined (the first round's in id order), and the tags follow row by
    row, so a node's inflow, summed over the tags in order
    (``np.bincount``), is summed in the order of a walk over all the
    members. A walk splits a row again only when the flow on its sink arc
    moved or one of its tags' outside nodes joined. A joined node's tags
    keep their place at capacity 0, which takes nothing and leaves every
    other share as it was. The flows are read from the sink's run
    (``_Residual.run``), where each member's sink arc keeps its place.
    """

    __slots__ = (
        "beta", "degrees", "rows", "row_flow", "row_stop", "moved", "arcs", "cap", "share", "ends", "slot", "slot_of", "limit"
    )

    def __init__(self, spec: AugmentedGraphSpec, g: Graph, lay: _Layout):
        count = np.bincount(lay.tag_member)
        k = count.nonzero()[0]
        pos = lay.snk_member.searchsorted(k)  # every member with a tag has a sink arc
        hi = count.cumsum()[k]
        lo = hi - count[k]
        self.beta, self.degrees = spec.beta, g.degrees
        # Each row's node, its sink arc (by index in the sink's run), own
        # attachment and tags; the flow it was last split at, and the end
        # of the tags that took a share then.
        self.rows = list(zip(k.tolist(), pos.tolist(), lay.own[pos].tolist(), lo.tolist(), hi.tolist()))
        self.row_flow = [math.nan] * k.size
        self.row_stop = lo.tolist()
        self.moved: set[int] = set()  # rows whose tags lost an outside node
        self.arcs = lay.snk.size  # sink arcs so far
        self.cap, self.share = lay.tag_cap.tolist(), [0.0] * lay.tag_end.size
        # Each tag's outside node, by its slot in ``ends``: the first round's
        # nodes sorted, then each node a later row reaches first. ``limit``
        # holds each node's own attachment; ``slot_of`` maps a node to its
        # slot once rows are added.
        self.ends = _sorted_ids(lay.tag_end)
        self.slot = self.ends.searchsorted(lay.tag_end)
        self.slot_of: dict[int, int] | None = None
        self.limit = self.beta * self.degrees[self.ends]

    def violators(self, res: _Residual, flow: float) -> list[tuple[int, float]] | None:
        """The violators of a flow of value ``flow``: each outside node whose inflow exceeds its own attachment.

        Returns (node, inflow) pairs sorted by node, or None when there is
        none.
        """
        flows = res.run(res.sink)
        last, stop, moved, cap, share = self.row_flow, self.row_stop, self.moved, self.cap, self.share
        for r, (_, p, own, lo, hi) in enumerate(self.rows):
            f = flows[p]
            if f == last[r] and r not in moved:
                continue
            last[r] = f
            beyond = f - own
            i = lo
            if beyond > 0.0:
                for i in range(lo, hi):
                    c = cap[i]
                    if beyond <= c:  # then beyond - c <= 0: this tag takes the rest
                        share[i] = beyond
                        break
                    share[i] = c
                    beyond -= c
                i += 1
            if i < stop[r]:
                share[i : stop[r]] = [0.0] * (stop[r] - i)
            stop[r] = i
        moved.clear()
        inflow = np.bincount(self.slot, weights=share, minlength=self.ends.size)
        over = (inflow > self.limit + RESIDUAL_EPS * max(1.0, flow)).nonzero()[0]
        return sorted(zip(self.ends[over].tolist(), inflow[over].tolist())) if over.size else None

    def rescale(self, beta: float, own: list[float]) -> None:
        """Split every row again at sink scale ``beta``, where the i-th sink arc's own attachment is ``own[i]``."""
        self.beta = beta
        self.rows = [(k, p, own[p], lo, hi) for k, p, _, lo, hi in self.rows]
        self.row_flow = [math.nan] * len(self.rows)
        self.limit = beta * self.degrees[self.ends]

    def add(self, rows: list[tuple[int, int, float, list[float]]], ends: list[int], arcs: int) -> None:
        """Take new rows and the ``arcs`` sink arcs added with them.

        Each row is (node, index of its sink arc among the new ones, own
        attachment, tag capacities); ``ends`` lists the tags' outside
        nodes, row by row.
        """
        lo = len(self.share)
        for k, arc, own, caps in rows:
            self.rows.append((k, self.arcs + arc, own, lo, lo + len(caps)))
            self.row_flow.append(math.nan)
            self.row_stop.append(lo)
            self.cap += caps
            lo += len(caps)
        self.arcs += arcs
        self.share += [0.0] * len(ends)
        if self.slot_of is None:
            self.slot_of = dict(zip(self.ends.tolist(), range(self.ends.size)))
        slot_of, first = self.slot_of, len(self.slot_of)
        slots = [slot_of.setdefault(j, len(slot_of)) for j in ends]
        self.slot = np.concatenate((self.slot, np.array(slots, dtype=np.int64)))
        if len(slot_of) > first:  # nodes no tag reached before
            new = np.array(list(slot_of)[first:])
            self.ends = np.concatenate((self.ends, new))
            self.limit = np.concatenate((self.limit, self.beta * self.degrees[new]))
