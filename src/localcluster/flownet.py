"""Max-flow / min-cut engine on real-valued capacities.

A network is a set of arrays over paired arcs (arc 2k is the k-th arc's
forward direction, arc 2k+1 its reverse), plus the stable CSR permutation
that groups arc ids by tail. Both engines run on flat Python lists
(``_Residual``) taken from those arrays once per solve.

``solve_maxflow``, the whole-network solve, runs FIFO push-relabel with
global relabeling (Goldberg & Tarjan 1988; Cherkassky & Goldberg 1997):
it saturates the source's arcs, discharges the excess toward the sink,
then sends what cannot arrive back to the source, so it ends with a flow
whose residual reach from the source is the minimal min cut. Where a
network's last, certifying round must saturate thousands of tiny sink
arcs, Dinic pays a whole-network BFS per phase and a dead-end DFS per
augmenting path, while push-relabel saturates them by local pushes; on
deep networks (a 3000-node path) Dinic needs one phase per level.

Dinic's blocking flow (``_dinic``) serves the strongly-local solver
(``refcut``): each phase's level BFS stops once the sink is labeled, and
after each augmentation the DFS resumes at the first arc the push
saturated. The last, failing BFS is the residual reach. It takes its
terminals as arguments: besides the max flow from the network's source,
it can push from several start nodes, each holding a bounded supply, to
any target node, which clears the surplus a grown network starts with.
Its grow rounds start from a carried flow and need only a few short
augmenting paths, and push-relabel started from that carried preflow
measured slower there: 1.1-1.2 times Dinic's time on planted 2k-node
graphs at delta 0.1 and 1 and on a ring of 300 five-cliques at delta
0.01, and no faster on a 3000-node path at delta 0.1.

Capacities are 64-bit floats; every solve finishes with a max-flow =
min-cut duality check at 1e-9 relative tolerance, which substitutes for
the exactness guarantees integer solvers get for free. Infinite
capacities are materialized as a sentinel (1 + total finite capacity)
that no finite cut can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParameterError, UnboundedFlowError

__all__ = ["FlowNetwork", "CutSolution", "solve_maxflow", "cut_capacity"]

RESIDUAL_EPS = 1e-12
DUALITY_RTOL = 1e-9


class FlowNetwork:
    """Directed flow network with paired arcs.

    Arc 2k is the forward direction of the k-th added arc and arc 2k+1 its
    reverse, so the reverse of arc ``a`` is always ``a ^ 1`` and the tail of
    ``a`` is ``head[a ^ 1]``. Undirected graph edges are added with equal
    capacity in both directions.

    A network is filled either one ``add_arc`` at a time or all at once
    through ``from_arcs``; ``freeze`` then turns ``head`` and ``cap`` into
    arrays and adds ``cap_init`` (the capacities before any flow), the
    ``infinite`` arc mask, and ``order`` / ``first``: arc ids sorted stably
    by tail, so node u's arcs are ``order[first[u]:first[u + 1]]`` in id
    order.
    """

    def __init__(self, num_nodes: int, source: int, sink: int):
        if not (0 <= source < num_nodes and 0 <= sink < num_nodes) or source == sink:
            raise ParameterError("source/sink out of range or equal")
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.head: list[int] | np.ndarray = []
        self.cap: list[float] | np.ndarray = []
        self._frozen = False

    @classmethod
    def from_arcs(cls, num_nodes: int, source: int, sink: int, head: np.ndarray, cap: np.ndarray) -> "FlowNetwork":
        """A network whose paired arcs are given whole: ``head[a]`` and ``cap[a]`` for every arc id."""
        net = cls(num_nodes, source, sink)
        net.head, net.cap = head, cap
        return net

    def add_arc(self, u: int, v: int, cap_fwd: float, cap_rev: float = 0.0) -> int:
        """Add an arc pair u->v / v->u; returns the forward arc id."""
        if self._frozen:
            raise ParameterError("network already frozen")
        if u == v:
            raise ParameterError("self-arcs are not allowed")
        if cap_fwd < 0 or cap_rev < 0 or math.isnan(cap_fwd) or math.isnan(cap_rev):
            raise ParameterError("capacities must be nonnegative")
        a = len(self.head)
        self.head += (v, u)
        self.cap += (float(cap_fwd), float(cap_rev))
        return a

    def freeze(self) -> None:
        """Replace infinite capacities by the sentinel and lock the arc set."""
        if self._frozen:
            return
        head = np.asarray(self.head, dtype=np.int64)
        cap = np.array(self.cap, dtype=np.float64)
        self.infinite = np.isinf(cap)
        if self.infinite.any():
            # Python's float sum, left to right in arc id order.
            cap[self.infinite] = 1.0 + sum(cap[~self.infinite].tolist())
        tails = _tails(head)
        self.order = np.argsort(tails, kind="stable")
        self.first = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=self.num_nodes), out=self.first[1:])
        self.head, self.cap, self.cap_init = head, cap, cap.copy()
        self._frozen = True

    def reset_flow(self) -> None:
        if not self._frozen:
            raise ParameterError("freeze the network before resetting")
        self.cap = self.cap_init.copy()

    def arc_flow(self, a: int) -> float:
        """Net flow routed along forward arc ``a`` since the last reset."""
        return float(self.cap_init[a] - self.cap[a])


def _tails(head: np.ndarray) -> np.ndarray:
    """Tail of every arc: the head of its twin."""
    return head.reshape(-1, 2)[:, ::-1].reshape(-1)


@dataclass(frozen=True)
class CutSolution:
    """Max-flow value plus the minimal source side (terminals excluded)."""

    flow_value: float
    s_side: frozenset[int]


def solve_maxflow(net: FlowNetwork) -> CutSolution:
    """Run push-relabel to completion and return flow value and minimal s-side.

    The s-side is the set of non-terminal nodes reachable from the source
    in the residual network, which is the inclusion-minimal minimum cut
    regardless of which maximum flow was found.

    Raises
    ------
    UnboundedFlowError
        If every source-sink cut crosses an infinite-capacity arc.
    AssertionError
        If the flow value does not match the induced cut capacity at
        1e-9 relative tolerance (never expected; this is the per-solve
        duality check), or if excess above that tolerance is left that
        could not be sent back to the source (never expected either).
    """
    net.freeze()
    res = _Residual(net)
    flow, reach = _push_relabel(res, net.source, net.sink)
    res.store(net)
    _checked_min_cut(net, flow, reach)
    reach[net.source] = False
    return CutSolution(flow_value=flow, s_side=frozenset(np.flatnonzero(reach).tolist()))


def _checked_min_cut(net: FlowNetwork, flow: float, reach: np.ndarray) -> None:
    """Check the cut whose source side is ``reach``, the residual reach after a maximum ``flow``.

    The cut must cross no infinite arc, and its capacity must equal
    ``flow`` (the duality check).
    """
    crossing = reach[_tails(net.head)] & ~reach[net.head]
    if (crossing & net.infinite).any():
        raise UnboundedFlowError("no finite source-sink cut exists")
    cap_sent = float(net.cap_init[crossing].sum())
    if not math.isclose(flow, cap_sent, rel_tol=DUALITY_RTOL, abs_tol=1e-9):
        raise AssertionError(
            f"duality violated: flow {flow!r} vs cut capacity {cap_sent!r}"
        )


def cut_capacity(net: FlowNetwork, s_nodes: Iterable[int], *, true_infinity: bool = True) -> float:
    """Capacity of the cut whose source side is {source} | s_nodes.

    Uses construction-time capacities (ignores any routed flow). With
    ``true_infinity`` the sentinel arcs count as +inf, which is the right
    reading for oracle comparisons.
    """
    net.freeze()
    ids = np.fromiter(s_nodes, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= net.num_nodes):
        raise ParameterError("cut node out of range")
    side = np.zeros(net.num_nodes, dtype=bool)
    side[ids] = True
    side[net.source] = True
    if side[net.sink]:
        raise ParameterError("sink cannot be on the source side")
    crossing = side[_tails(net.head)] & ~side[net.head]
    if true_infinity and (crossing & net.infinite).any():
        return float("inf")
    return float(net.cap_init[crossing].sum())


# -- residual lists and Dinic internals ------------------------------------


class _Residual:
    """A frozen network's residual arcs as flat lists, ordered by position in ``net.order``.

    Each node's arcs are one contiguous run, ``first[u]:end[u]``, and the
    scan order is the arc id order. The lists are taken once and may serve
    several solver calls; ``store`` writes the capacities back.
    """

    __slots__ = ("order", "head", "cap", "rev", "first", "end", "num_nodes")

    def __init__(self, net: FlowNetwork):
        order = net.order
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        self.order = order
        # Read once per arc of an augmenting path or a retreat, so a view of
        # the array serves; a list would hold an int object per arc.
        self.rev = memoryview(position[order ^ 1])
        # Heads as shared node-id objects: tolist() alone would make one int
        # object per arc.
        self.head = list(map(list(range(net.num_nodes)).__getitem__, net.head[order].tolist()))
        self.cap = net.cap[order].tolist()
        self.first = net.first.tolist()
        self.end = self.first[1:]
        self.num_nodes = net.num_nodes

    def store(self, net: FlowNetwork) -> None:
        """Write the residual capacities back into ``net.cap``."""
        net.cap = np.empty(self.order.size)
        net.cap[self.order] = self.cap


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
        level = _bfs_levels(head, cap, first, res.num_nodes, starts, sink)
        if level[sink] < 0:
            break
        ptr = first[:-1]
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


def _bfs_levels(head: list[int], cap: list[float], first: list[int], n: int, sources: list[int], sink: int) -> list[int]:
    """BFS level of every node over residual arcs from ``sources``, -1 where unreached.

    Stops as soon as the sink is labeled; a level list whose sink is -1
    comes from a complete search and is the sources' residual reach.
    """
    eps = RESIDUAL_EPS
    level = [-1] * n
    for s in sources:
        level[s] = 0
    queue = list(sources)
    for u in queue:
        next_level = level[u] + 1
        for p in range(first[u], first[u + 1]):
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
    """Maximum flow from ``source`` to ``sink`` by FIFO push-relabel with global relabeling.

    The source's arcs are saturated, and ``_discharge`` moves the excess
    to the sink while it can; then it moves what is left back to the
    source, so ``res.cap`` ends holding a flow. Returns the flow value (the
    source's net outflow) and the source's residual reach as a node mask.
    Raises AssertionError (never expected) when the return phase leaves
    excess above the duality check's tolerance.
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
    _discharge(res, excess, label, sink, source, global_relabel=False)
    _discharge(res, excess, label, source, sink, global_relabel=True)
    flow = sent - excess[source]
    excess[source] = excess[sink] = 0.0
    left = math.fsum(excess)
    if left > max(1e-9, DUALITY_RTOL * flow):
        raise AssertionError(f"excess {left!r} left after returning it to the source")
    level = _bfs_levels(head, cap, first, n, [source], sink)
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


def _discharge(
    res: _Residual, excess: list[float], label: list[int], target: int, blocked: int, global_relabel: bool
) -> None:
    """Push every excess above ``RESIDUAL_EPS`` to ``target`` as far as residual paths allow.

    FIFO push-relabel over current-arc pointers. A node whose label
    reaches ``num_nodes`` has no residual path to ``target`` and keeps its
    excess; so does ``blocked``, held at that label. Labels are set by a
    global relabel (``_global_labels``) first when ``global_relabel`` is
    set, and again whenever the relabels have scanned 6n + m arcs since
    the last one.
    """
    head, cap, rev, first, end = res.head, res.cap, res.rev, res.first, res.end
    eps = RESIDUAL_EPS
    n = res.num_nodes
    budget = 6 * n + len(cap)
    while True:
        queue = [u for u in range(n) if excess[u] > eps and u != target and u != blocked]
        if not queue:
            return
        if global_relabel:
            label[:] = _global_labels(res, target, blocked)
            queue = [u for u in queue if label[u] < n]
        global_relabel = True
        ptr = first[:-1]
        work = 0
        for u in queue:
            e = excess[u]
            d = label[u]
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
                        if before <= eps < before + delta and v != target:
                            queue.append(v)
                        e -= delta
                        if e <= eps:
                            break
                else:
                    # Relabel: one above the lowest residual neighbour.
                    start = first[u]
                    work += stop - start
                    low = n
                    for q in range(start, stop):
                        if cap[q] > eps:
                            h = label[head[q]]
                            if h < low:
                                low = h
                                p = q
                    d = low + 1 if low < n else n
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
