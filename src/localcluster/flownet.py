"""Max-flow / min-cut engine on real-valued capacities.

A network is a value: arrays over paired arcs (arc 2k is the k-th arc's
forward direction, arc 2k+1 its reverse), the stable CSR permutation
that groups arc ids by tail, and the arcs' capacities. The one
constructor checks the arrays and freezes them, so no solver checks or
freezes a network again, and a solve only reads it. A network at other
capacities on the same arcs (``FlowNetwork._with_capacities``) shares
the arc arrays and is not frozen again. Both engines run on flat Python
lists (``_Residual``), which this module alone writes. The lists of the
arc structure (heads, reverse arcs, each node's run) are taken once per
arc structure, when a residual first needs them; each solve takes only a
capacity list.

``solve_maxflow``, the whole-network solve, runs FIFO push-relabel with
global relabeling and the gap heuristic (Goldberg & Tarjan 1988;
Cherkassky & Goldberg 1997) from zero flow: it saturates the source's
arcs and discharges the excess toward the sink; ``_return_excess`` then
sends what cannot arrive back to the source, so the solve ends with a
flow whose residual reach from the source is the minimal min cut. A
relabel that empties its old label cuts off every node above it at once
(the gap), where those nodes would otherwise climb one label at a time
until the relabel budget ran out and a global relabel cut them off; and
a relabel's scan stops at the first neighbour at the node's own label,
the lowest any valid labeling allows. Where a network's last, certifying
round must saturate thousands of tiny sink arcs, Dinic pays a
whole-network BFS per phase and a dead-end DFS per augmenting path,
while push-relabel saturates them by local pushes; on deep networks (a
3000-node path) Dinic needs one phase per level.

Dinic's blocking flow (``_dinic``) serves the strongly-local solver
(``refcut``), which holds one residual per refinement call and grows it
in place: each node's arcs fill the front of a block of slots, so a grow
round appends its new arcs where they belong, and the solvers scan each
run up to its end, ``end[u]``, never up to the next node's start. The
solver enters through ``_augment``, one call per grow round: it sends the
surplus some nodes start with on to the sink and what cannot arrive back
to the source, then augments from the source, leaving the flow in the
residual. Each phase's level BFS stops once the sink is labeled, and
after each augmentation the DFS resumes at the first arc the push
saturated. The last, failing BFS is the residual reach. ``_dinic`` takes
its terminals as arguments: besides the max flow from the network's
source, it can push from several start nodes, each holding a bounded
supply, to any target node. ``_return_excess`` runs it that way back to
the source, both for the excess push-relabel could not deliver and for a
grow round's surplus; its early-exit BFS measured faster there than a
second, source-ward discharge with its own global relabel. The grow
rounds start from a carried flow and need only a few short augmenting
paths, and push-relabel started from that carried preflow measured
slower there: 1.1-1.2 times Dinic's time on planted 2k-node graphs at
delta 0.1 and 1 and on a ring of 300 five-cliques at delta 0.01, and no
faster on a 3000-node path at delta 0.1.

A refinement call's later rounds enter through ``_augment_scaled``, which
first multiplies the kept maximum flow by s = alpha'/alpha in (0, 1)
(``_Residual.scale``): the source arcs and each sink arc's own
attachment shrink by s and every other capacity stays, so the scaled
flow is feasible and conserving, and the round augments from it.

Capacities are 64-bit floats; every solve finishes with a max-flow =
min-cut duality check at 1e-9 relative tolerance, which substitutes for
the exactness guarantees integer solvers get for free. Infinite
capacities are materialized as a sentinel, 2 * (total finite capacity)
+ 1, that no finite cut can reach; 1 + total, the rule before it, ties
with a finite cut once the total reaches 2**53 and absorbs the 1.
"""

from __future__ import annotations

import copy
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable

import numpy as np

from .errors import ParameterError, UnboundedFlowError
from .graph import _sorted_ids

__all__ = ["FlowNetwork", "CutSolution", "solve_maxflow", "cut_capacity"]

RESIDUAL_EPS = 1e-12
DUALITY_RTOL = 1e-9


class FlowNetwork:
    """Directed flow network with paired arcs and their capacities, checked and frozen when built.

    ``head[a]`` and ``cap[a]`` (+inf allowed) are given for every arc id.
    Arc 2k is the forward direction of the k-th pair and arc 2k+1 its
    reverse, so the reverse of arc ``a`` is ``a ^ 1`` and its tail is
    ``head[a ^ 1]``. Heads that are not integers in [0, num_nodes), arcs
    without a twin or a capacity, self-arcs, and negative or NaN
    capacities raise ParameterError before any work. The network holds
    ``capacity`` (each infinite capacity replaced by the sentinel), the
    ``infinite`` arc mask, and ``order`` / ``first``: arc ids sorted
    stably by tail, so node u's arcs are ``order[first[u]:first[u + 1]]``
    in id order. All of these and ``head`` are read-only, and nothing
    replaces them: a solve only reads the network.
    """

    def __init__(self, num_nodes: int, source: int, sink: int, head: np.ndarray, cap: np.ndarray):
        if not (0 <= source < num_nodes and 0 <= sink < num_nodes) or source == sink:
            raise ParameterError("source/sink out of range or equal")
        head = np.asarray(head)
        if head.size and not np.issubdtype(head.dtype, np.integer):
            raise ParameterError(f"arc heads must be integers (got an array of {head.dtype})")
        # Copies, so the network never shares an array with its caller.
        head = head.astype(np.int64)
        cap = np.array(cap, dtype=np.float64)
        if head.ndim != 1 or head.size % 2 or cap.shape != head.shape:
            raise ParameterError("arcs must come in pairs, each arc with a head and a capacity")
        if head.size and (head.min() < 0 or head.max() >= num_nodes):
            raise ParameterError("arc head out of range")
        if (head[0::2] == head[1::2]).any():
            raise ParameterError("self-arcs are not allowed")
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.head = head
        self.freeze(cap)

    def freeze(self, cap: np.ndarray) -> None:
        """Group the arcs by tail, lock the arc arrays, and take ``cap`` as the capacities.

        Runs once per arc structure, from the constructor.
        """
        tails = _tails(self.head)
        # numpy sorts keys of 16 bits or fewer by radix sort, several times
        # faster than its stable sort of 64-bit keys.
        self.order = np.argsort(tails.astype(np.uint16) if self.num_nodes <= 1 << 16 else tails, kind="stable")
        self.first = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=self.num_nodes), out=self.first[1:])
        for arr in (self.head, self.order, self.first):
            arr.setflags(write=False)
        self._set_initial(cap)

    @cached_property
    def _lists(self) -> tuple:
        """The solvers' arc lists (``_arc_lists``), which depend only on the arcs: taken when a residual first needs them."""
        return _arc_lists(self)

    def _with_capacities(self, cap: np.ndarray) -> FlowNetwork:
        """A network with these arcs and the capacities ``cap`` (+inf allowed), by arc id.

        The new network shares this one's arc arrays and whatever arc lists
        it has taken, so it is not frozen again. ``cap`` goes through
        ``_set_initial``: a capacity it rejects raises there, and this
        network is left as it was either way.
        """
        net = copy.copy(self)
        net._set_initial(np.array(cap, dtype=np.float64))
        return net

    def _set_initial(self, cap: np.ndarray) -> None:
        """Take ``cap`` (a copy no caller holds) as the capacities, each infinite one replaced by the sentinel.

        Every capacity a network holds enters here, so this is its one
        capacity check: each must be nonnegative, and NaN is not. The
        sentinel is 2 * total + 1, the total of the finite capacities
        summed left to right in arc id order. It stays above every finite
        cut even where the total absorbs a unit (from 2**53 on), as
        1 + total does not.
        """
        if not (cap >= 0.0).all():
            raise ParameterError("capacities must be nonnegative")
        infinite = np.isinf(cap)
        if infinite.any():
            cap[infinite] = 2.0 * sum(cap[~infinite].tolist()) + 1.0
        for arr in (cap, infinite):
            arr.setflags(write=False)
        self.infinite, self.capacity = infinite, cap


def _tails(head: np.ndarray) -> np.ndarray:
    """Tail of every arc: the head of its twin."""
    return head.reshape(-1, 2)[:, ::-1].reshape(-1)


@dataclass(frozen=True, eq=False)
class CutSolution:
    """Max-flow value plus the minimal source side (terminals excluded).

    ``s_side`` holds the source side's node ids as a sorted int64 array.
    """

    flow_value: float
    s_side: np.ndarray


def solve_maxflow(net: FlowNetwork) -> CutSolution:
    """Run push-relabel from zero flow to completion and return flow value and minimal s-side.

    The s-side is the sorted array of non-terminal nodes reachable from
    the source in the residual network, which is the inclusion-minimal
    minimum cut regardless of which maximum flow was found. The solve
    runs on a residual of its own and leaves ``net`` as it was.

    Raises
    ------
    UnboundedFlowError
        If every source-sink cut crosses an infinite-capacity arc.
    AssertionError
        If the sink is reachable or the flow value does not match the
        induced cut capacity at 1e-9 relative tolerance (never expected;
        this is the per-solve check), or if excess above that tolerance is
        left that could not be sent back to the source (never expected
        either).
    """
    flow, reach = _push_relabel(_Residual(net, net.capacity), net.source, net.sink)
    _checked_min_cut(net, flow, reach)
    reach[net.source] = False
    return CutSolution(flow_value=flow, s_side=np.flatnonzero(reach))


def _checked_min_cut(net: FlowNetwork, flow: float, reach: np.ndarray) -> None:
    """Check the cut whose source side is ``reach``, the residual reach after a maximum ``flow``.

    The sink must lie outside the reach (a reachable sink means the flow
    is not maximum), the cut must cross no infinite arc, and its capacity
    must equal ``flow`` (the duality check).
    """
    _check_cut(flow, reach[net.sink], _cut_of(net, reach))


def _check_cut(flow: float, sink_reached: bool, cap_sent: float) -> None:
    """The rule of ``_checked_min_cut`` for a cut of capacity ``cap_sent``, however the caller computed it.

    Raises AssertionError when ``sink_reached`` or when ``cap_sent``
    differs from ``flow`` at 1e-9 relative tolerance, and
    UnboundedFlowError when it is infinite.
    """
    if sink_reached:
        raise AssertionError(f"the sink is reachable: flow {flow!r} is not a maximum flow")
    if math.isinf(cap_sent):
        raise UnboundedFlowError("no finite source-sink cut exists")
    if not math.isclose(flow, cap_sent, rel_tol=DUALITY_RTOL, abs_tol=1e-9):
        raise AssertionError(
            f"duality violated: flow {flow!r} vs cut capacity {cap_sent!r}"
        )


def cut_capacity(net: FlowNetwork, s_nodes: Iterable[int]) -> float:
    """Capacity of the cut whose source side is {source} | s_nodes.

    A cut that crosses an infinite arc is +inf,
    which is the right reading for oracle comparisons. Ids that are not
    integers raise InvalidSetError, as on every other query path; ids out
    of range, or the sink, raise ParameterError.
    """
    ids = _sorted_ids(s_nodes)
    if ids.size and (ids.min() < 0 or ids.max() >= net.num_nodes):
        raise ParameterError("cut node out of range")
    side = np.zeros(net.num_nodes, dtype=bool)
    side[ids] = True
    side[net.source] = True
    if side[net.sink]:
        raise ParameterError("sink cannot be on the source side")
    return _cut_of(net, side)


def _cut_of(net: FlowNetwork, side: np.ndarray) -> float:
    """Capacity of the arcs leaving the node mask ``side``; +inf if one of them is infinite."""
    crossing = side[_tails(net.head)] & ~side[net.head]
    if (crossing & net.infinite).any():
        return math.inf
    return float(net.capacity[crossing].sum())


# -- residual lists and Dinic internals ------------------------------------


class _Residual:
    """A network's residual arcs as flat lists, each node's arcs one run of them.

    Node u's arcs are the positions ``first[u]:end[u]``, scanned in that
    order; ``head[p]`` is the head of the arc at position p, ``rev[p]`` the
    position of its twin and ``cap[p]`` its residual. Built on a network,
    the lists are ordered by position in ``net.order``: the runs follow
    one another in node order, each in arc id order. ``head``, ``rev``,
    ``first`` and ``end`` depend only on the arcs, so the network takes
    them once and all its residuals share them; each residual takes its
    own capacity list, from the start residuals ``cap`` (by arc id). The
    lists may serve several solver calls; none of them writes the network.

    A residual can also grow in place, for the strongly-local solver. Its
    first growth call gives it copies of the shared lists, in which each
    node's run fills the front of a block of slots, ``first[u]:limit[u]``.
    ``add_nodes`` appends nodes, each with a block of its own,
    ``add_pairs`` appends arc pairs at the ends of their tails' and heads'
    runs, and ``take`` lowers arcs' capacities and the flow they carry. A
    run that fills its block moves to a new block at the end of the lists,
    with room for as many arcs again plus two, so a caller names an arc by
    its tail and its index in the tail's run, which a move keeps. Only
    these methods and this module's solvers write the lists; a caller
    reads residuals through ``run``, a node's run in order, which at the
    sink are the flows on the arcs into it.
    """

    __slots__ = ("head", "cap", "rev", "first", "end", "limit", "num_nodes", "source", "sink")

    def __init__(self, net: FlowNetwork, cap: np.ndarray):
        self.head, self.rev, self.first, self.end = net._lists
        self.cap = cap[net.order].tolist()
        self.num_nodes, self.source, self.sink = net.num_nodes, net.source, net.sink
        self.limit = None  # each block's end, once the residual grows

    def run(self, v: int) -> list[float]:
        """The residual of each arc of v's run, in run order.

        At a node whose arcs are all twins with no capacity of their own,
        as the sink's are, these are the flows on the arcs into it.
        """
        return self.cap[self.first[v] : self.end[v]]

    def add_nodes(self, widths: list[int]) -> None:
        """Append a node with no arcs and a block of ``widths[k]`` slots for each k; they take the next ids."""
        self._own()
        start = len(self.head)
        ends = list(accumulate(widths, initial=start))
        self.num_nodes += len(widths)
        self.first += ends[:-1]
        self.end += ends[:-1]
        self.limit += ends[1:]
        self._extend(ends[-1] - start)

    def add_pairs(self, pairs: list[tuple[int, int, float, float]]) -> list[int]:
        """Append, for each (u, v, cap_uv, cap_vu), the arc u -> v with residual cap_uv and its twin with cap_vu.

        Returns the index of each arc u -> v in u's run.
        """
        self._own()
        head, cap, rev, first, slot = self.head, self.cap, self.rev, self.first, self._slot
        out = []
        for u, v, cap_uv, cap_vu in pairs:
            p, q = slot(u), slot(v)
            head[p], head[q] = v, u
            cap[p], cap[q] = cap_uv, cap_vu
            rev[p], rev[q] = q, p
            out.append(p - first[u])
        return out

    def take(self, arcs: list[tuple[int, int, float, float]]) -> None:
        """For each (u, i, cap, flow): u's i-th arc loses ``cap`` of its capacity, carrying ``flow`` of its flow.

        Its residual falls by cap - flow and its twin's by ``flow``.
        """
        cap, rev, first = self.cap, self.rev, self.first
        for u, i, lost, flow in arcs:
            p = first[u] + i
            cap[p] -= lost - flow
            cap[rev[p]] -= flow

    def scale(self, s: float, sink_drop: list[float]) -> None:
        """Multiply the flow on every arc by ``s``, 0 < s < 1; the source's arcs' capacities scale with it, and the sink's i-th arc loses ``sink_drop[i]``.

        Every other arc keeps its capacity. No capacity list is needed: the
        two residuals of an arc pair sum to the pair's capacity. At a
        terminal pair the twin's residual is the flow; an edge pair has the
        same capacity both ways, so its flow is half the difference of its
        two residuals.
        """
        head, cap, rev, first, end = self.head, self.cap, self.rev, self.first, self.end
        source, sink = self.source, self.sink
        for p in range(first[source], end[source]):
            cap[p] *= s
            cap[rev[p]] *= s
        for q, lost in zip(range(first[sink], end[sink]), sink_drop):
            f = cap[q]  # the flow into the sink: the twin's residual
            cap[q] = f * s
            cap[rev[q]] += f - cap[q] - lost
        half = 0.5 * (1.0 - s)
        for u in range(self.num_nodes):
            if u == source or u == sink:
                continue
            for p in range(first[u], end[u]):
                q = rev[p]
                v = head[p]
                if p < q and v != source and v != sink:
                    moved = half * (cap[q] - cap[p])  # (1 - s) times the flow along p
                    cap[p] += moved
                    cap[q] -= moved

    def _own(self) -> None:
        """Before the first growth: take copies of the shared lists, in which each node's block is its run."""
        if self.limit is None:
            self.head = list(self.head)
            self.rev = array("q", self.rev.tobytes())
            self.first, self.end = list(self.first), list(self.end)
            self.limit = list(self.end)

    def _extend(self, width: int) -> None:
        self.head += [0] * width
        self.cap += [0.0] * width
        self.rev.frombytes(bytes(8 * width))

    def _slot(self, u: int) -> int:
        """A free position at the end of u's run, which then covers it."""
        p = self.end[u]
        if p == self.limit[u]:
            # Move the run to a new block at the end of the lists.
            head, cap, rev = self.head, self.cap, self.rev
            lo, hi = self.first[u], p
            start = len(head)
            self._extend(2 * (hi - lo) + 2)
            p = start + hi - lo
            head[start:p] = head[lo:hi]
            cap[start:p] = cap[lo:hi]
            rev[start:p] = rev[lo:hi]
            for r in range(start, p):
                rev[rev[r]] = r
            self.first[u], self.limit[u] = start, len(head)
        self.end[u] = p + 1
        return p


def _run_index(net: FlowNetwork, arcs: np.ndarray) -> list[int]:
    """Index of each arc ``arcs`` (by arc id) of ``net`` in its tail's run, in every residual of ``net``."""
    position = np.empty_like(net.order)
    position[net.order] = np.arange(net.order.size)
    return (position[arcs] - net.first[net.head[arcs ^ 1]]).tolist()


def _arc_lists(net: FlowNetwork) -> tuple:
    """``_Residual``'s arc lists of a network's frozen arc structure: head, rev, first and end."""
    order = net.order
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    # Heads as shared node-id objects, gathered from an object array.
    # tolist() of the int array would make one int object per arc, all
    # alive at once while the network's builder still holds its arrays
    # (``freeze`` runs inside the constructor): built that way, the
    # planted benchmark's queries_per_s measured 3-4% lower.
    head = np.array(range(net.num_nodes), dtype=object)[net.head[order]].tolist()
    # Read once per arc of an augmenting path or a retreat, so a view of
    # the array serves; a list would hold an int object per arc.
    rev = memoryview(position[order ^ 1])
    first = net.first.tolist()
    return head, rev, first[:-1], first[1:]


def _augment(res: _Residual, flow: float, starts: list[int], surplus: list[float]) -> tuple[float, np.ndarray]:
    """One grow round of the strongly-local solver: settle the surplus, then augment to a maximum flow.

    ``res`` holds the residuals of a flow of value ``flow`` that conserves
    except at ``starts[k]``, which takes in ``surplus[k]`` more than it
    sends on. Each surplus goes on to the sink as far as it can, by the
    bounded ``_dinic``, and what is left back to the source
    (``_return_excess``); then ``_dinic`` augments from the source. The
    flow is left in ``res``. Returns the flow value after the round and
    the source's residual reach as a node mask; the source and the sink
    are those of the network ``res`` was built on.
    """
    source, sink = res.source, res.sink
    if starts:
        # Measured against the surplus before it moves: _dinic spends the list.
        total = sum(surplus)
        _dinic(res, starts, sink, surplus)
        flow -= _return_excess(res, starts, surplus, source, total)
    pushed, reach = _dinic(res, [source], sink)
    return flow + pushed, reach


def _augment_scaled(res: _Residual, flow: float, s: float, sink_drop: list[float]) -> tuple[float, np.ndarray]:
    """A later round of the strongly-local solver: scale the maximum flow ``res`` holds, then augment again.

    ``res`` holds a maximum flow of value ``flow``; ``_Residual.scale``
    multiplies it by ``s``, with the source's capacities, and lowers the
    sink's arcs by ``sink_drop``. Where no capacity falls below ``s``
    times what it was, as in a refinement call's later rounds, the scaled
    flow is feasible; it conserves, as scaling is linear, so ``_augment``
    goes on from it with no surplus.
    """
    res.scale(s, sink_drop)
    return _augment(res, s * flow, [], [])


def _dinic(
    res: _Residual, sources: list[int], sink: int, supply: list[float] | None = None
) -> tuple[float, np.ndarray]:
    """Push flow from ``sources`` to ``sink`` until no augmenting path is left.

    Without ``supply`` the sources are unbounded: one source gives the
    maximum flow. With it, source k sends at most ``supply[k]``, and the
    list is left holding what each could not send. Returns the amount
    pushed and the residual reach of the sources as a node mask; the flow
    is left in ``res.cap``.
    """
    head, cap, rev, first, end = res.head, res.cap, res.rev, res.first, res.end
    left = [math.inf] * len(sources) if supply is None else supply
    eps = RESIDUAL_EPS
    total = 0.0
    while True:
        starts = [s for s, amount in zip(sources, left) if amount > eps]
        level = _bfs_levels(res, starts, sink)
        if level[sink] < 0:
            break
        ptr = first[:]
        for k, start in enumerate(sources):
            budget = left[k]
            if budget <= eps:
                continue
            path: list[int] = []  # arc positions from the start to u
            u = start
            while True:
                if u == sink:
                    pushed = min(map(cap.__getitem__, path))
                    if pushed > budget:
                        pushed = budget
                    for p in path:
                        cap[p] -= pushed
                        cap[rev[p]] += pushed
                    total += pushed
                    budget -= pushed
                    if budget <= eps:
                        break
                    # Resume at the tail of the first arc the push saturated:
                    # every arc before it still leads on in the level graph.
                    i = 0
                    while cap[path[i]] > eps:
                        i += 1
                    u = head[rev[path[i]]]
                    del path[i:]
                next_level = level[u] + 1
                for p in range(ptr[u], end[u]):
                    if cap[p] > eps and level[head[p]] == next_level:
                        break
                else:
                    if u == start:
                        break
                    level[u] = -1  # dead end for this phase
                    u = head[rev[path.pop()]]
                    ptr[u] += 1
                    continue
                ptr[u] = p
                path.append(p)
                u = head[p]
            left[k] = budget
    return total, np.array(level) >= 0


def _bfs_levels(res: _Residual, sources: list[int], sink: int) -> list[int]:
    """BFS level of every node over residual arcs from ``sources``, -1 where unreached.

    Stops as soon as the sink is labeled; a level list whose sink is -1
    comes from a complete search and is the sources' residual reach.
    """
    head, cap, first, end = res.head, res.cap, res.first, res.end
    eps = RESIDUAL_EPS
    level = [-1] * res.num_nodes
    for s in sources:
        level[s] = 0
    queue = list(sources)
    for u in queue:
        next_level = level[u] + 1
        for p in range(first[u], end[u]):
            if cap[p] > eps:
                w = head[p]
                if level[w] < 0:
                    level[w] = next_level
                    if w == sink:
                        return level
                    queue.append(w)
    return level


# -- push-relabel internals -------------------------------------------------


def _push_relabel(res: _Residual, source: int, sink: int) -> tuple[float, np.ndarray]:
    """Maximum flow from ``source`` to ``sink`` by FIFO push-relabel with global and gap relabeling.

    The source's arcs are saturated, and ``_discharge`` moves the excess
    to the sink while it can; then ``_return_excess`` moves what is left
    back to the source, so ``res.cap`` ends holding a flow. Returns the
    flow value (the source's net outflow) and the source's residual reach
    as a node mask.
    """
    head, cap, rev, first, end = res.head, res.cap, res.rev, res.first, res.end
    n = res.num_nodes
    excess = [0.0] * n
    sent = 0.0
    for p in range(first[source], end[source]):
        c = cap[p]
        if c > 0.0:
            cap[p] = 0.0
            cap[rev[p]] += c
            excess[head[p]] += c
            sent += c
    # Every label starts at 1; an initial global relabel measured slower.
    label = [1] * n
    label[sink] = 0
    label[source] = n
    _discharge(res, excess, label, sink, source)
    starts = [u for u in range(n) if excess[u] > 0.0 and u != sink and u != source]
    flow = sent - _return_excess(res, starts, [excess[u] for u in starts], source, excess[sink])
    level = _bfs_levels(res, [source], sink)
    return flow, np.array(level) >= 0


def _global_labels(res: _Residual, target: int, blocked: int) -> list[int]:
    """Residual distance of every node to ``target``, or ``num_nodes`` where there is none.

    A BFS from ``target`` over reverse residual arcs that never passes
    through ``blocked``, which gets ``num_nodes``.
    """
    head, cap, rev, first, end = res.head, res.cap, res.rev, res.first, res.end
    eps = RESIDUAL_EPS
    n = res.num_nodes
    label = [-1] * n
    label[target] = 0
    label[blocked] = n
    queue = [target]
    for w in queue:
        d = label[w] + 1
        for p in range(first[w], end[w]):
            v = head[p]
            if label[v] < 0 and cap[rev[p]] > eps:
                label[v] = d
                queue.append(v)
    return [n if d < 0 else d for d in label]


def _discharge(res: _Residual, excess: list[float], label: list[int], sink: int, source: int) -> None:
    """Push every excess above ``RESIDUAL_EPS`` to ``sink`` as far as residual paths allow.

    FIFO push-relabel over current-arc pointers. A node whose label
    reaches ``num_nodes`` has no residual path to ``sink`` and keeps its
    excess; so does ``source``, held at that label. The labels stay valid
    (label[u] <= label[v] + 1 on every residual arc u -> v below
    ``num_nodes``), which gives two shortcuts:

    - a relabel of a node at label d finds no residual neighbour below d,
      so its scan stops at the first one at d: the arc and the label a
      full scan picks;
    - when a relabel leaves no node at its old label, no node above that
      label can reach ``sink`` (the gap heuristic), and all of them, the
      relabeled node too, go to ``num_nodes`` at once instead of climbing
      there one relabel at a time. A node cut off while it waits in the
      queue is skipped.

    Labels are set again by a global relabel (``_global_labels``) whenever
    the relabels have charged 6n + m arcs since the last one; each relabel
    charges its node's whole arc run, however early its scan stopped.
    """
    head, cap, rev, first, end = res.head, res.cap, res.rev, res.first, res.end
    eps = RESIDUAL_EPS
    n = res.num_nodes
    budget = 6 * n + len(cap)
    # The sink's label is 0 and the source's n; every other label is in
    # between until the node is cut off from the sink.
    queue = [u for u in range(n) if excess[u] > eps and 0 < label[u] < n]
    while queue:
        ptr = first[:]
        count = [0] * (n + 1)  # nodes per label; count[n] is not kept up
        for d in label:
            count[d] += 1
        work = 0
        for u in queue:
            d = label[u]
            if d == n:
                continue  # cut off by a gap while it waited
            e = excess[u]
            below = d - 1
            p = ptr[u]
            stop = end[u]
            while True:
                for p in range(p, stop):
                    c = cap[p]
                    if c > eps and label[head[p]] == below:
                        v = head[p]
                        delta = e if e < c else c
                        cap[p] = c - delta
                        cap[rev[p]] += delta
                        before = excess[v]
                        excess[v] = before + delta
                        if before <= eps < before + delta and v != sink:
                            queue.append(v)
                        e -= delta
                        if e <= eps:
                            break
                else:
                    # Relabel: one above the lowest residual neighbour.
                    # The labels are valid, so none is below d, and the
                    # first at d is the lowest.
                    start = first[u]
                    work += stop - start
                    low = n
                    for q in range(start, stop):
                        if cap[q] > eps:
                            h = label[head[q]]
                            if h < low:
                                low = h
                                p = q
                                if h == d:
                                    break
                    count[d] -= 1
                    if not count[d]:
                        # A gap at d: u and every node above d are cut off.
                        label[:] = [n if h > d else h for h in label]
                        count[d + 1:n] = [0] * (n - d - 1)
                        d = n
                        break
                    d = low + 1 if low < n else n
                    count[d] += 1
                    if d == n or work > budget:
                        break
                    below = low
                    continue
                break
            excess[u] = e
            label[u] = d
            ptr[u] = p
            if work > budget:
                break
        else:
            return
        label[:] = _global_labels(res, sink, source)
        queue = [u for u in range(n) if excess[u] > eps and 0 < label[u] < n]


def _return_excess(res: _Residual, starts: list[int], amounts: list[float], source: int, scale: float) -> float:
    """Send each start's amount back to ``source`` by the bounded ``_dinic``; returns the amount sent.

    The flow that brought the excess in leaves a residual path back to the
    source, so all of it can go. Raises AssertionError (never expected)
    when more than max(1e-9, DUALITY_RTOL * ``scale``) is left.
    """
    returned, _ = _dinic(res, starts, source, amounts)
    left = math.fsum(amounts)
    if left > max(1e-9, DUALITY_RTOL * scale):
        raise AssertionError(f"excess {left!r} left after returning it to the source")
    return returned
