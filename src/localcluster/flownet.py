"""Max-flow / min-cut engine on real-valued capacities.

Dinic-style blocking flow over an arc-pair residual representation.
Capacities are 64-bit floats; every solve finishes with a max-flow =
min-cut duality check at 1e-9 relative tolerance, which substitutes for
the exactness guarantees integer solvers get for free. Infinite
capacities are materialized as a sentinel (1 + total finite capacity)
that no finite cut can reach.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

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
    """

    def __init__(self, num_nodes: int, source: int, sink: int):
        if not (0 <= source < num_nodes and 0 <= sink < num_nodes) or source == sink:
            raise ParameterError("source/sink out of range or equal")
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.head: list[int] = []
        self.cap: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.cap_init: list[float] = []
        self.infinite_arcs: set[int] = set()
        self._frozen = False

    def add_arc(self, u: int, v: int, cap_fwd: float, cap_rev: float = 0.0) -> int:
        """Add an arc pair u->v / v->u; returns the forward arc id."""
        if self._frozen:
            raise ParameterError("network already frozen")
        if u == v:
            raise ParameterError("self-arcs are not allowed")
        if cap_fwd < 0 or cap_rev < 0 or math.isnan(cap_fwd) or math.isnan(cap_rev):
            raise ParameterError("capacities must be nonnegative")
        a = len(self.head)
        self.head.append(v)
        self.cap.append(float(cap_fwd))
        self.adj[u].append(a)
        self.head.append(u)
        self.cap.append(float(cap_rev))
        self.adj[v].append(a + 1)
        return a

    def freeze(self) -> None:
        """Replace infinite capacities by the sentinel and lock the arc set."""
        if self._frozen:
            return
        finite_total = sum(c for c in self.cap if not math.isinf(c))
        sentinel = 1.0 + finite_total
        for a, c in enumerate(self.cap):
            if math.isinf(c):
                self.cap[a] = sentinel
                self.infinite_arcs.add(a)
        self.cap_init = list(self.cap)
        self._frozen = True

    def reset_flow(self) -> None:
        if not self._frozen:
            raise ParameterError("freeze the network before resetting")
        self.cap = list(self.cap_init)

    def arc_flow(self, a: int) -> float:
        """Net flow routed along forward arc ``a`` since the last reset."""
        return self.cap_init[a] - self.cap[a]


@dataclass(frozen=True)
class CutSolution:
    """Max-flow value plus the minimal source side (terminals excluded)."""

    flow_value: float
    s_side: frozenset[int]


def solve_maxflow(net: FlowNetwork) -> CutSolution:
    """Run Dinic to completion and return flow value and minimal s-side.

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
        duality check).
    """
    net.freeze()
    flow = _dinic(net)
    reach = _checked_min_cut(net, flow)
    return CutSolution(flow_value=flow, s_side=frozenset(v for v in reach if v != net.source))


def _checked_min_cut(net: FlowNetwork, flow: float) -> set[int]:
    """Source side of the minimal min cut after a maximum ``flow`` on ``net``.

    Returns the nodes reachable from the source in the residual network
    (source included), after checking that the cut they induce crosses no
    infinite arc and that its capacity equals ``flow`` (the duality check).
    """
    reach = _residual_reachable(net)
    cap_sent = 0.0
    crosses_infinite = False
    for u in reach:
        for a in net.adj[u]:
            if net.head[a] not in reach:
                cap_sent += net.cap_init[a]
                if a in net.infinite_arcs:
                    crosses_infinite = True
    if crosses_infinite:
        raise UnboundedFlowError("no finite source-sink cut exists")
    if not math.isclose(flow, cap_sent, rel_tol=DUALITY_RTOL, abs_tol=1e-9):
        raise AssertionError(
            f"duality violated: flow {flow!r} vs cut capacity {cap_sent!r}"
        )
    return reach


def cut_capacity(net: FlowNetwork, s_nodes: Iterable[int], *, true_infinity: bool = True) -> float:
    """Capacity of the cut whose source side is {source} | s_nodes.

    Uses construction-time capacities (ignores any routed flow). With
    ``true_infinity`` the sentinel arcs count as +inf, which is the right
    reading for oracle comparisons.
    """
    net.freeze()
    side = set(s_nodes)
    side.add(net.source)
    if net.sink in side:
        raise ParameterError("sink cannot be on the source side")
    total = 0.0
    for u in side:
        for a in net.adj[u]:
            if net.head[a] in side:
                continue
            if true_infinity and a in net.infinite_arcs:
                return float("inf")
            total += net.cap_init[a]
    return total


# -- Dinic internals --------------------------------------------------------


def _dinic(net: FlowNetwork) -> float:
    total = 0.0
    while True:
        level = _bfs_levels(net)
        if level is None:
            break
        ptr = [0] * net.num_nodes
        while True:
            pushed = _augment_once(net, level, ptr)
            if pushed <= 0.0:
                break
            total += pushed
    return total


def _bfs_levels(net: FlowNetwork) -> list[int] | None:
    """Level array of the residual network, or None if the sink is cut off."""
    level = [-1] * net.num_nodes
    level[net.source] = 0
    q = deque([net.source])
    head, cap, adj = net.head, net.cap, net.adj
    while q:
        u = q.popleft()
        lu = level[u]
        for a in adj[u]:
            w = head[a]
            if cap[a] > RESIDUAL_EPS and level[w] < 0:
                level[w] = lu + 1
                q.append(w)
    return level if level[net.sink] >= 0 else None


def _augment_once(net: FlowNetwork, level: list[int], ptr: list[int]) -> float:
    """Find one augmenting path in the level graph and push its bottleneck."""
    head, cap, adj = net.head, net.cap, net.adj
    sink = net.sink
    u = net.source
    path: list[int] = []
    while True:
        if u == sink:
            bottleneck = min(cap[a] for a in path)
            for a in path:
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
            return bottleneck
        arcs = adj[u]
        advanced = False
        while ptr[u] < len(arcs):
            a = arcs[ptr[u]]
            w = head[a]
            if cap[a] > RESIDUAL_EPS and level[w] == level[u] + 1:
                path.append(a)
                u = w
                advanced = True
                break
            ptr[u] += 1
        if advanced:
            continue
        if u == net.source:
            return 0.0
        level[u] = -1  # dead end for this phase
        came_by = path.pop()
        u = head[came_by ^ 1]
        ptr[u] += 1


def _residual_reachable(net: FlowNetwork) -> set[int]:
    seen = {net.source}
    q = deque([net.source])
    head, cap, adj = net.head, net.cap, net.adj
    while q:
        u = q.popleft()
        for a in adj[u]:
            w = head[a]
            if cap[a] > RESIDUAL_EPS and w not in seen:
                seen.add(w)
                q.append(w)
    return seen
