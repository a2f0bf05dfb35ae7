"""Max-flow solver: small hand-checked networks, duality, unbounded detection."""

import contextlib
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcluster import (
    AugmentedGraphSpec,
    FlowNetwork,
    Graph,
    InvalidSetError,
    ParameterError,
    UnboundedFlowError,
    cut_capacity,
    flow_improve,
    materialize,
    solve_maxflow,
)
from localcluster.flownet import (
    DUALITY_RTOL,
    _augment,
    _bfs_levels,
    _checked_min_cut,
    _dinic,
    _push_relabel,
    _Residual,
    _run_index,
)
from localcluster.oracles import brute_min_cut
from localcluster.synth import path_graph, random_connected_graph, ring_of_cliques


def assert_ids(got, want):
    """``got`` is a sorted int64 array of exactly the ids ``want``, in order."""
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.tolist() == list(want)


class ArcRows:
    """A hand-made network's arc pairs, added one at a time; ``build()`` gives the ``FlowNetwork``."""

    def __init__(self, num_nodes, source, sink):
        self.num_nodes, self.source, self.sink = num_nodes, source, sink
        self.head, self.cap = [], []

    def add(self, u, v, cap_fwd, cap_rev=0.0):
        """Add the arc pair u->v / v->u; returns the forward arc id."""
        self.head += (v, u)
        self.cap += (cap_fwd, cap_rev)
        return len(self.head) - 2

    def build(self):
        return FlowNetwork(self.num_nodes, self.source, self.sink, self.head, self.cap)


def arc_residuals(net, res):
    """The residuals ``res`` holds, by arc id of ``net``, the network it was built on; ``res`` has not grown."""
    out = np.empty(net.order.size)
    out[net.order] = res.cap
    return out


def push_relabel_residuals(net):
    """Every arc's residual, by arc id, after the push-relabel flow that ``solve_maxflow`` finds on ``net``."""
    res = _Residual(net, net.capacity)
    _push_relabel(res, net.source, net.sink)
    return arc_residuals(net, res)


def test_single_bottleneck_path():
    # s -> a (cap 2) -> t (cap 1): flow 1, a stays on the source side.
    rows = ArcRows(num_nodes=3, source=0, sink=2)
    rows.add(0, 1, 2.0)
    rows.add(1, 2, 1.0)
    net = rows.build()
    sol = solve_maxflow(net)
    assert sol.flow_value == pytest.approx(1.0)
    assert_ids(sol.s_side, [1])


def test_two_disjoint_paths():
    rows = ArcRows(num_nodes=4, source=0, sink=3)
    rows.add(0, 1, 1.0)
    rows.add(1, 3, 1.0)
    rows.add(0, 2, 3.0)
    rows.add(2, 3, 3.0)
    net = rows.build()
    sol = solve_maxflow(net)
    assert sol.flow_value == pytest.approx(4.0)


def test_minimal_source_side():
    # Both cuts {a} and {} have capacity 1; the solver reports the one
    # reachable in the residual network, which is the smallest s-side.
    rows = ArcRows(num_nodes=3, source=0, sink=2)
    rows.add(0, 1, 1.0)
    rows.add(1, 2, 1.0)
    net = rows.build()
    sol = solve_maxflow(net)
    assert_ids(sol.s_side, [])


def test_flow_value_matches_cut_capacity():
    rows = ArcRows(num_nodes=5, source=0, sink=4)
    rows.add(0, 1, 2.0)
    rows.add(0, 2, 4.0)
    rows.add(1, 3, 3.0)
    rows.add(2, 3, 1.0)
    rows.add(2, 4, 2.0)
    rows.add(3, 4, 5.0)
    net = rows.build()
    sol = solve_maxflow(net)
    assert sol.flow_value == pytest.approx(
        cut_capacity(net, sol.s_side), rel=1e-9
    )


def test_infinite_arc_keeps_endpoint_attached():
    # An infinite arc into the sink forces the cut to pay the finite arc.
    rows = ArcRows(num_nodes=3, source=0, sink=2)
    rows.add(0, 1, 7.0)
    rows.add(1, 2, math.inf)
    net = rows.build()
    sol = solve_maxflow(net)
    assert sol.flow_value == pytest.approx(7.0)
    assert_ids(sol.s_side, [])


def test_unbounded_flow_detected():
    rows = ArcRows(num_nodes=3, source=0, sink=2)
    rows.add(0, 1, math.inf)
    rows.add(1, 2, math.inf)
    net = rows.build()
    with pytest.raises(UnboundedFlowError):
        solve_maxflow(net)


def test_no_path_means_zero_flow():
    rows = ArcRows(num_nodes=4, source=0, sink=3)
    rows.add(0, 1, 5.0)
    rows.add(2, 3, 5.0)
    net = rows.build()
    sol = solve_maxflow(net)
    assert sol.flow_value == 0.0
    assert_ids(sol.s_side, [1])


# Each is a network on 3 nodes, source 0 and sink 2; each bad array used to
# reach the solver unchecked.
MALFORMED = {
    # Truncated to the heads 1, 0, 2, 1 and solved.
    "float heads": ([1.7, 0.2, 2.9, 1.0], [2.0, 0.0, 1.0, 0.0], "integers"),
    "an unpaired arc": ([1, 0, 2], [2.0, 0.0, 1.0], "pairs"),
    "a capacity short": ([1, 0, 2, 1], [2.0, 0.0, 1.0], "pairs"),
    "a head below 0": ([1, 0, -1, 1], [2.0, 0.0, 1.0, 0.0], "out of range"),
    "a head at num_nodes": ([1, 0, 3, 1], [2.0, 0.0, 1.0, 0.0], "out of range"),
    "a head above num_nodes": ([1, 0, 7, 1], [2.0, 0.0, 1.0, 0.0], "out of range"),
    # Solved as if it were not there.
    "a self-arc": ([1, 0, 1, 1], [2.0, 0.0, 1.0, 0.0], "self-arcs"),
    "capacity -1": ([1, 0, 2, 1], [2.0, 0.0, -1.0, 0.0], "nonnegative"),
    # Made the sentinel: the flow came out as 2.
    "capacity -inf": ([1, 0, 2, 1], [2.0, 0.0, -math.inf, 0.0], "nonnegative"),
    "capacity nan": ([1, 0, 2, 1], [2.0, 0.0, math.nan, 0.0], "nonnegative"),
}


@pytest.mark.parametrize("head, cap, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_the_constructor_rejects_malformed_arrays(head, cap, message):
    with pytest.raises(ParameterError, match=message):
        FlowNetwork(3, 0, 2, np.array(head), np.array(cap))


def test_a_network_owns_and_locks_its_arrays():
    head, cap = np.array([1, 0, 2, 1]), np.array([2.0, 0.0, math.inf, 0.0])
    net = FlowNetwork(3, 0, 2, head, cap)
    head[0], cap[0] = 2, 9.0
    assert net.head.tolist() == [1, 0, 2, 1] and net.capacity.tolist() == [2.0, 0.0, 5.0, 0.0]
    for name in ("head", "order", "first", "capacity", "infinite"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(net, name)[0] = 0


def test_bad_terminals_rejected():
    with pytest.raises(ParameterError):
        FlowNetwork(3, 1, 1, [], [])
    with pytest.raises(ParameterError):
        FlowNetwork(3, 0, 3, [], [])


def test_cut_capacity_rejects_sink_on_source_side():
    rows = ArcRows(num_nodes=3, source=0, sink=2)
    rows.add(0, 1, 1.0)
    net = rows.build()
    with pytest.raises(ParameterError):
        cut_capacity(net, {2})
    for bad in ({-1}, {3}):
        with pytest.raises(ParameterError):
            cut_capacity(net, bad)
    # Ids that are not integers are rejected, not truncated to the cut of {1}.
    for bad in ([1.7], np.array([1.7]), np.array([True])):
        with pytest.raises(InvalidSetError):
            cut_capacity(net, bad)


def test_arc_flows_conserve_mass():
    rows = ArcRows(num_nodes=5, source=0, sink=4)
    rows.add(0, 1, 2.0)
    rows.add(0, 2, 2.0)
    rows.add(1, 3, 1.0)
    rows.add(2, 3, 1.0)
    rows.add(3, 4, 3.0)
    net = rows.build()
    sol = solve_maxflow(net)
    assert sol.flow_value == pytest.approx(2.0)
    # Net flow out of every interior node is zero.  Arcs are stored in
    # pairs, so the tail of forward arc a is the head of its twin a^1.
    residual = push_relabel_residuals(net)
    balance = [0.0] * 5
    for a in range(0, len(net.head), 2):
        f = net.capacity[a] - residual[a]
        balance[net.head[a ^ 1]] -= f
        balance[net.head[a]] += f
    assert balance[1] == pytest.approx(0.0)
    assert balance[2] == pytest.approx(0.0)
    assert balance[3] == pytest.approx(0.0)
    assert balance[4] == pytest.approx(sol.flow_value)


def test_against_brute_min_cut_random():
    rng = random.Random(20240915)
    for _ in range(40):
        n = rng.randint(4, 8)
        rows = ArcRows(num_nodes=n, source=0, sink=n - 1)
        arcs = 0
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.45:
                    rows.add(u, v, rng.choice([0.5, 1.0, 2.0, 3.5]))
                    arcs += 1
        if arcs == 0:
            rows.add(0, n - 1, 1.0)
        net = rows.build()
        best_value, best_side = brute_min_cut(net)
        sol = solve_maxflow(net)
        assert sol.flow_value == pytest.approx(best_value, abs=1e-9)
        assert cut_capacity(net, sol.s_side) == pytest.approx(
            best_value, abs=1e-9
        )


# -- the flat-list Dinic and the push-relabel solve against the adjacency-list Dinic --


def reference_dinic(net, by_path=False):
    """Solve a frozen network with per-node arc lists, one blocking flow per phase.

    The blocking flow is one recursive DFS that carries a limit into each
    node and hands what the node sent back over its entry arc once, the
    way ``_dinic`` runs it; with ``by_path`` it is found one augmenting
    path at a time instead, each search restarted from the source.
    Returns (flow value, residual capacity of every arc, s-side), or
    raises what the solver raises.
    """
    from collections import deque

    eps = 1e-12
    head, cap, infinite = net.head.tolist(), net.capacity.tolist(), set(np.flatnonzero(net.infinite).tolist())
    adj = [[] for _ in range(net.num_nodes)]
    for a in range(len(head)):
        adj[head[a ^ 1]].append(a)
    total = 0.0

    def bfs_levels():
        level = [-1] * net.num_nodes
        level[net.source] = 0
        q = deque([net.source])
        while q:
            u = q.popleft()
            for a in adj[u]:
                w = head[a]
                if cap[a] > eps and level[w] < 0:
                    level[w] = level[u] + 1
                    q.append(w)
        return level if level[net.sink] >= 0 else None

    def send(u, rem, level, ptr):
        """Send up to ``rem`` from u toward the sink in the level graph; returns what is left of it."""
        nonlocal total
        arcs = adj[u]
        while ptr[u] < len(arcs):
            a = arcs[ptr[u]]
            w, c = head[a], cap[a]
            if c > eps and level[w] == level[u] + 1:
                lim = c if c < rem else rem
                d = lim if w == net.sink else lim - send(w, lim, level, ptr)
                cap[a] -= d
                cap[a ^ 1] += d
                if w == net.sink:
                    total += d
                rem -= d
                if rem <= eps:
                    return rem
            ptr[u] += 1
        level[u] = -1
        return rem

    def augment_once(level, ptr):
        u, path = net.source, []
        while True:
            if u == net.sink:
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
                if cap[a] > eps and level[w] == level[u] + 1:
                    path.append(a)
                    u = w
                    advanced = True
                    break
                ptr[u] += 1
            if advanced:
                continue
            if u == net.source:
                return 0.0
            level[u] = -1
            came_by = path.pop()
            u = head[came_by ^ 1]
            ptr[u] += 1

    while True:
        level = bfs_levels()
        if level is None:
            break
        ptr = [0] * net.num_nodes
        if not by_path:
            send(net.source, math.inf, level, ptr)
            continue
        while True:
            pushed = augment_once(level, ptr)
            if pushed <= 0.0:
                break
            total += pushed

    reach, q = {net.source}, deque([net.source])
    while q:
        u = q.popleft()
        for a in adj[u]:
            if cap[a] > eps and head[a] not in reach:
                reach.add(head[a])
                q.append(head[a])
    crossing = [a for u in reach for a in adj[u] if head[a] not in reach]
    if any(a in infinite for a in crossing):
        raise UnboundedFlowError("no finite source-sink cut exists")
    cap_sent = sum(net.capacity[a] for a in crossing)
    if not math.isclose(total, cap_sent, rel_tol=1e-9, abs_tol=1e-9):
        raise AssertionError(f"duality violated: flow {total!r} vs cut capacity {cap_sent!r}")
    return total, cap, np.array(sorted(reach - {net.source}), dtype=np.int64)


def _solve_outcome(solve, net):
    try:
        return solve(net)
    except Exception as exc:  # the exception is the outcome being compared
        return type(exc), str(exc)


def _network(n, arcs, source, sink):
    rows = ArcRows(num_nodes=n, source=source, sink=n - 1 if sink is None else sink)
    for u, v, fwd, rev in arcs:
        rows.add(u, v, fwd, rev)
    return rows.build()


def dinic_solve(net):
    """``_dinic`` from the network's source, as a grow round runs it, with the min-cut check."""
    res = _Residual(net, net.capacity)
    flow, reach = _dinic(res, [net.source], net.sink)
    _checked_min_cut(net, flow, reach)
    reach[net.source] = False
    return flow, arc_residuals(net, res).tolist(), np.flatnonzero(reach)


def assert_same_min_cut(net, flow, got_side, want_side):
    """The two s-sides are equal, or both are minimum cuts of capacity ``flow`` at the duality check's tolerance."""
    if not np.array_equal(got_side, want_side):
        for side in (got_side, want_side):
            assert math.isclose(cut_capacity(net, side), flow, rel_tol=DUALITY_RTOL, abs_tol=1e-9)


def assert_dinic_agrees(n, arcs, source=0, sink=None):
    """``_dinic`` equals the reference's blocking flow bit for bit, and the path-at-a-time one in value and cut."""
    net = _network(n, arcs, source, sink)
    want = _solve_outcome(reference_dinic, net)
    got = _solve_outcome(dinic_solve, net)
    by_path = _solve_outcome(lambda net: reference_dinic(net, by_path=True), net)
    if isinstance(want[0], type):
        assert got == want
        assert by_path == want
        return
    assert got[0] == want[0]
    assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()
    assert [net.capacity[a] - got[1][a] for a in range(0, len(net.head), 2)] == [
        net.capacity[a] - want[1][a] for a in range(0, len(net.head), 2)
    ]
    assert_ids(got[2], want[2])
    assert math.isclose(by_path[0], want[0], rel_tol=DUALITY_RTOL, abs_tol=1e-9)
    assert_same_min_cut(net, want[0], by_path[2], want[2])


def assert_maxflow_agrees(n, arcs, source=0, sink=None):
    """``solve_maxflow`` finds a maximum flow and a minimum cut, the reference's s-side where the cut is strict.

    The push-relabel flow may differ from Dinic's arc by arc, so the
    residual is checked to be a flow, and the s-side may differ only where
    both s-sides are minimum cuts at the duality check's tolerance.
    """
    net = _network(n, arcs, source, sink)
    want = _solve_outcome(reference_dinic, net)
    got = _solve_outcome(solve_maxflow, net)
    if isinstance(want[0], type):
        assert got == want
        return
    flow, _, s_side = want
    assert math.isclose(got.flow_value, flow, rel_tol=DUALITY_RTOL, abs_tol=1e-9)

    residual = push_relabel_residuals(net)
    pairs, init = residual.reshape(-1, 2), net.capacity.reshape(-1, 2)
    np.testing.assert_allclose(pairs.sum(axis=1), init.sum(axis=1), rtol=1e-12, atol=0.0)
    assert (residual >= 0.0).all()
    sent = init[:, 0] - pairs[:, 0]  # flow along each forward arc, tail to head
    inflow = np.zeros(n)
    np.add.at(inflow, net.head[0::2], sent)
    np.add.at(inflow, net.head[1::2], -sent)
    inner = np.ones(n, dtype=bool)
    inner[[net.source, net.sink]] = False
    assert np.abs(inflow[inner]).max(initial=0.0) <= 1e-9 * max(1.0, flow)

    assert_same_min_cut(net, flow, got.s_side, s_side)


# 1 + 5e-13 leaves a residual at or below RESIDUAL_EPS after a unit push.
CAPACITIES = [0.0, 1e-13, 2e-12, 0.5, 1.0, 1.0, 1.0 + 5e-13, 2.5, 3.7, math.inf]


@st.composite
def arc_lists(draw):
    n = draw(st.integers(2, 8))
    node = st.integers(0, n - 1)
    # Arcs out of the source and into the sink are drawn more often.
    ends = st.one_of(
        st.tuples(node, node), st.tuples(st.just(0), node), st.tuples(node, st.just(n - 1))
    ).filter(lambda e: e[0] != e[1])
    arcs = draw(
        st.lists(
            st.tuples(ends, st.sampled_from(CAPACITIES), st.sampled_from([0.0] * 4 + CAPACITIES)),
            max_size=30,
        )
    )
    return n, [(u, v, fwd, rev) for (u, v), fwd, rev in arcs]


@settings(max_examples=300)
@given(case=arc_lists())
def test_dinic_matches_the_adjacency_list_dinic(case):
    assert_dinic_agrees(*case)


@settings(max_examples=300)
@given(case=arc_lists())
def test_maxflow_matches_the_adjacency_list_dinic(case):
    assert_maxflow_agrees(*case)


NAMED_NETWORKS = [
    # Parallel arcs, in both directions.
    (4, [(0, 1, 1.0, 0.0), (0, 1, 2.0, 0.0), (1, 3, 2.5, 0.0), (1, 3, 0.5, 1.0), (3, 1, 4.0, 0.0)]),
    # Zero-capacity arcs on every path but one.
    (4, [(0, 1, 0.0, 0.0), (1, 3, 5.0, 0.0), (0, 2, 1.5, 0.0), (2, 3, 0.0, 2.0), (2, 1, 1.0, 0.0)]),
    # Infinite arcs behind a finite bottleneck.
    (4, [(0, 1, math.inf, 0.0), (1, 2, 3.0, 0.0), (2, 3, math.inf, 0.0), (0, 2, 1.0, 0.0)]),
    # Unbounded: an all-infinite path.
    (4, [(0, 1, math.inf, 0.0), (1, 3, math.inf, 0.0), (0, 2, 1.0, 0.0)]),
    # The sink unreachable, and no arcs at all.
    (5, [(0, 1, 2.0, 0.0), (1, 2, 1.0, 0.0), (3, 4, 1.0, 0.0)]),
    (3, []),
    # Terminals that are not the end nodes.
    (5, [(2, 0, 3.0, 1.0), (0, 4, 1.0, 0.0), (2, 4, 0.5, 0.0), (4, 1, 2.0, 0.0)], 2, 1),
    # What node 2 hands back leaves node 1 with 5e-13 to send, at or below
    # RESIDUAL_EPS: node 1 is spent and must not go on over its 2e-12 arc.
    (4, [(1, 2, 1.0, 0.0), (0, 1, 1.0 + 5e-13, 0.0), (2, 3, 2.5, 0.0), (1, 2, 2e-12, 0.0)]),
]


def test_dinic_matches_on_named_networks():
    for case in NAMED_NETWORKS:
        assert_dinic_agrees(*case)


def test_dinic_on_a_path_far_deeper_than_the_recursion_limit():
    # One phase, 19,999 levels deep: a DFS that recursed once per level
    # would raise RecursionError here.
    n = 20_000
    limit = sys.getrecursionlimit()
    assert n > 10 * limit
    rng = random.Random(25)
    arcs = [(u, u + 1, rng.choice([1.5, 2.0, 3.25, 8.0]), rng.choice([0.0, 1.0])) for u in range(n - 2)]
    arcs.append((n - 2, n - 1, 1.75, 0.0))
    net = _network(n, arcs, 0, None)
    flow, _, s_side = dinic_solve(net)
    assert sys.getrecursionlimit() == limit
    want_flow, _, want_side = reference_dinic(net, by_path=True)
    assert flow == want_flow == 1.5
    assert_ids(s_side, want_side)


def test_maxflow_matches_on_named_networks():
    for case in NAMED_NETWORKS:
        assert_maxflow_agrees(*case)
    rows = ArcRows(num_nodes=3, source=0, sink=2)
    rows.add(0, 1, math.inf)
    rows.add(1, 2, math.inf)
    with pytest.raises(UnboundedFlowError):
        solve_maxflow(rows.build())


def test_push_relabel_finds_the_exact_minimum_cut_near_eps():
    # Dinic leaves 5e-13 on each source arc, at or below RESIDUAL_EPS, and
    # reports the s-side {} with cut 2 + 1e-12; the true minimum is {1} at 2.
    arcs = [(0, 1, 1.0 + 5e-13, 0.0)] * 2 + [(1, 2, 0.5, 0.0), (1, 2, 0.5, 0.0), (1, 2, 1.0, 0.0)]
    net = _network(3, arcs, 0, None)
    assert_ids(reference_dinic(net)[2], [])
    sol = solve_maxflow(net)
    assert_ids(sol.s_side, [1])
    assert cut_capacity(net, sol.s_side) == 2.0
    assert_maxflow_agrees(3, arcs)


def test_excess_the_return_phase_cannot_route_raises(monkeypatch):
    from localcluster import flownet

    # Node 1 takes 2 from the source and passes on only 1.
    net = _network(3, [(0, 1, 2.0, 0.0), (1, 2, 1.0, 0.0)], 0, None)
    dinic = flownet._dinic

    def drop_the_return(res, sources, sink, supply=None):
        if sink == net.source:
            return 0.0, None
        return dinic(res, sources, sink, supply)

    monkeypatch.setattr(flownet, "_dinic", drop_the_return)
    with pytest.raises(AssertionError, match="excess"):
        solve_maxflow(net)


def test_leftover_excess_returns_to_the_source_over_many_hops(monkeypatch):
    from localcluster import flownet

    # A path 0 -> 1 -> ... -> 12 at capacity 5 ends in a unit arc to the
    # sink 13: the discharge strands 4 at the far end, 12 hops from the
    # source, and the return must carry it all the way back.
    arcs = [(u, u + 1, 5.0, 0.0) for u in range(12)] + [(12, 13, 1.0, 0.0)]
    net = _network(14, arcs, 0, None)
    calls = []
    return_excess = flownet._return_excess

    def spy(res, starts, amounts, source, scale):
        calls.append((list(starts), list(amounts)))
        return return_excess(res, starts, amounts, source, scale)

    monkeypatch.setattr(flownet, "_return_excess", spy)
    sol = solve_maxflow(net)
    assert calls == [([12], [4.0])]
    flow, _, s_side = reference_dinic(net)
    assert sol.flow_value == flow == 1.0
    assert_ids(s_side, range(1, 13))
    assert_ids(sol.s_side, s_side)
    residual = push_relabel_residuals(net)
    assert [net.capacity[a] - residual[a] for a in range(0, len(net.head), 2)] == [1.0] * 13
    assert_maxflow_agrees(14, arcs)


def assert_discharge_leaves_valid_labels(net):
    """Solve ``net``, checking the labels and excesses each ``_discharge`` leaves.

    Every residual arc u -> v out of a node below label n must have
    label[u] <= label[v] + 1 (the premise of the early-exit relabel and of
    the gap), and every non-terminal that keeps an excess must be at n.
    """
    from localcluster import flownet

    discharge, checked = flownet._discharge, []

    def discharge_and_check(res, excess, label, sink, source):
        discharge(res, excess, label, sink, source)
        n, eps = res.num_nodes, flownet.RESIDUAL_EPS
        for u in range(n):
            if label[u] < n:
                for p in range(res.first[u], res.end[u]):
                    if res.cap[p] > eps:
                        assert label[u] <= label[res.head[p]] + 1, (u, res.head[p], label)
            if u != sink and u != source and excess[u] > eps:
                assert label[u] == n, (u, excess[u], label)
        checked.append(net)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flownet, "_discharge", discharge_and_check)
        try:
            solve_maxflow(net)
        except UnboundedFlowError:
            pass
    assert checked == [net]


@settings(max_examples=300)
@given(case=arc_lists())
def test_discharge_leaves_valid_labels(case):
    n, arcs = case
    assert_discharge_leaves_valid_labels(_network(n, arcs, 0, None))


@settings(max_examples=100)
@given(
    n=st.integers(3, 40),
    graph_seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.1, 1.0, 3.0]),
    beta=st.sampled_from([0.0, 0.05, 0.3, 1.0, math.inf]),
    data=st.data(),
)
def test_discharge_leaves_valid_labels_on_cut_graphs(n, graph_seed, alpha, beta, data):
    g = random_connected_graph(n, graph_seed)
    seed = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    assert_discharge_leaves_valid_labels(materialize(AugmentedGraphSpec(alpha, beta, sorted(seed)), g))


def count_global_relabels(monkeypatch):
    """Spy on ``flownet._global_labels``; returns the list its calls are appended to."""
    from localcluster import flownet

    calls, global_labels = [], flownet._global_labels

    def spy(*args):
        calls.append(args)
        return global_labels(*args)

    monkeypatch.setattr(flownet, "_global_labels", spy)
    return calls


def test_a_gap_cuts_off_the_nodes_behind_the_cut_without_a_global_relabel(monkeypatch):
    # Without the gap heuristic, the nodes behind the minimum cut climb one
    # label at a time until the relabel budget is spent and a second global
    # relabel cuts them off.
    calls = count_global_relabels(monkeypatch)
    res = flow_improve(ring_of_cliques(20, 10), range(13))
    assert len(calls) == 1
    assert res.set_ids == tuple(range(20))
    assert res.history == pytest.approx((0.18333333333333332, 0.017310789049919485), rel=1e-12)


def test_the_relabel_budget_still_runs_a_global_relabel(monkeypatch):
    k = 10
    cells = np.arange(k * k).reshape(k, k)
    u = np.concatenate([cells[:, :-1].ravel(), cells[:-1, :].ravel()])
    v = np.concatenate([cells[:, 1:].ravel(), cells[1:, :].ravel()])
    calls = count_global_relabels(monkeypatch)
    res = flow_improve(Graph.from_edges(k * k, u, v), range(20))
    assert len(calls) == 1
    assert res.set_ids == tuple(range(20))
    assert res.objective == pytest.approx(10 / 66, rel=1e-12)  # cut 10, volume 66


class ReadLog(list):
    """A residual capacity list that logs the position of every read."""

    def __init__(self, values):
        super().__init__(values)
        self.reads = []

    def __getitem__(self, p):
        self.reads.append(p)
        return super().__getitem__(p)


def log_discharge_reads(monkeypatch):
    """Run each ``_discharge`` on a ``ReadLog`` of its capacities; returns the list of (residual, labels, reads) it fills."""
    from localcluster import flownet

    discharge, seen = flownet._discharge, []

    def logged(res, excess, label, sink, source):
        cap = res.cap
        res.cap = ReadLog(cap)
        discharge(res, excess, label, sink, source)
        cap[:] = res.cap
        seen.append((res, list(label), res.cap.reads))
        res.cap = cap

    monkeypatch.setattr(flownet, "_discharge", logged)
    return seen


def run_heads(res, u):
    """The heads of u's arcs, in run order."""
    return [res.head[p] for p in range(res.first[u], res.end[u])]


def test_a_node_at_label_1_reads_only_its_arcs_into_the_sink(monkeypatch):
    # Nodes 1-5 each take 1 from the source 0, are all joined to one
    # another, and can pass it all on to the sink 6 at once, so none leaves
    # label 1 and every read in a node's run is a read of its push scan.
    # Node 1's arc into the sink starts its run, node 2's sits in the
    # middle, node 3 has one at each end (the first at capacity 0), and
    # nodes 4 and 5 end their runs with theirs.
    rows = ArcRows(num_nodes=7, source=0, sink=6)
    rows.add(1, 6, 2.0)
    rows.add(3, 6, 0.0)
    for u in range(1, 6):
        rows.add(0, u, 1.0)
    for u in range(1, 6):
        for v in range(u + 1, 6):
            rows.add(u, v, 1.0, 1.0)
            if (u, v) == (2, 3):
                rows.add(2, 6, 2.0)
    for u in range(3, 6):
        rows.add(u, 6, 2.0)
    net = rows.build()
    seen = log_discharge_reads(monkeypatch)
    calls = count_global_relabels(monkeypatch)
    assert solve_maxflow(net).flow_value == 5.0
    ((res, label, reads),) = seen
    assert calls == [] and label[1:6] == [1] * 5
    assert [run_heads(res, u).index(6) for u in range(1, 6)] == [0, 3, 0, 5, 5]
    into_sink = {u: [p for p in range(res.first[u], res.end[u]) if res.head[p] == 6] for u in range(1, 6)}
    for p in reads:
        (u,) = [u for u in range(7) if res.first[u] <= p < res.end[u]]
        assert u == 6 or p in into_sink[u], (u, p, run_heads(res, u))
    # A push scan reads each arc into the sink once and a push its twin once.
    assert len(reads) <= 2 * sum(map(len, into_sink.values())) == 12


def assert_min_cut_by_brute_force(net):
    """``solve_maxflow`` finds the minimum cut ``brute_min_cut`` finds, with the inclusion-minimal source side, and leaves valid labels."""
    value, side = brute_min_cut(net)
    sol = solve_maxflow(net)
    assert sol.flow_value == pytest.approx(value, rel=DUALITY_RTOL, abs=1e-9)
    assert cut_capacity(net, sol.s_side) == pytest.approx(value, rel=DUALITY_RTOL, abs=1e-9)
    # The minimal min cut lies inside every min cut, the oracle's among them.
    assert set(sol.s_side.tolist()) <= set(side.tolist())
    assert_discharge_leaves_valid_labels(net)
    return sol


def test_arcs_into_the_sink_at_the_start_middle_and_end_of_a_run():
    net = _network(6, [
        (1, 5, 1.0, 0.0), (0, 1, 3.0, 0.0), (0, 2, 2.0, 0.0), (0, 3, 2.0, 0.0), (1, 2, 1.0, 1.0),
        (2, 5, 1.0, 0.0), (2, 3, 1.0, 1.0), (3, 4, 2.0, 0.0), (4, 5, 0.5, 0.0), (3, 5, 1.5, 0.0),
    ], 0, None)
    res = _Residual(net, net.capacity)
    assert [run_heads(res, u) for u in (1, 2, 3)] == [[5, 0, 2], [0, 1, 5, 3], [0, 2, 4, 5]]
    assert assert_min_cut_by_brute_force(net).flow_value == 4.0


@pytest.mark.parametrize("first_cap, second_cap", [(0.0, 1.5), (1.5, 0.0)])
def test_two_parallel_arcs_into_the_sink_one_at_capacity_0(first_cap, second_cap):
    # Node 1 takes 2 from the source and can pass 1.5 to the sink directly
    # and 0.5 more through node 2.
    net = _network(4, [
        (0, 1, 2.0, 0.0), (1, 3, first_cap, 0.0), (1, 3, second_cap, 0.0), (1, 2, 1.0, 0.0),
        (0, 2, 1.0, 0.0), (2, 3, 1.0, 0.0),
    ], 0, None)
    assert assert_min_cut_by_brute_force(net).flow_value == 2.5


def test_a_node_with_no_arc_into_the_sink_that_takes_in_excess():
    # Node 2 takes 2 from the source and has no arc into the sink: it must
    # relabel before it passes anything on. It can deliver 1.5 of it, 0.5
    # through node 1 and 1 through node 3; the rest goes back.
    net = _network(5, [
        (0, 2, 2.0, 0.0), (2, 1, 1.0, 0.0), (2, 3, 1.0, 0.0), (1, 4, 0.5, 0.0), (3, 4, 2.0, 0.0),
        (0, 3, 0.5, 0.0),
    ], 0, None)
    assert 4 not in run_heads(_Residual(net, net.capacity), 2)
    assert assert_min_cut_by_brute_force(net).flow_value == 2.0


def test_arcs_into_the_sink_behind_the_current_arc_after_a_global_relabel(monkeypatch):
    # Found by a search over small grid-like networks: after the one
    # global relabel, node 1 is back at label 1 with its current arc past
    # its first arc into the sink 13 (capacity 0.5, saturated), which the
    # push scan then passes over.
    net = _network(14, [
        (3, 13, 0.0, 0.0), (4, 8, 1.0, 1.0), (0, 2, 3.0, 0.0), (3, 13, 0.0, 0.0), (3, 4, 2.0, 0.0),
        (5, 9, 1.0, 1.0), (5, 13, 0.0, 0.0), (12, 13, 0.1, 0.0), (6, 13, 0.5, 0.0), (0, 7, 1.0, 0.0),
        (11, 13, 0.0, 0.0), (4, 13, 0.5, 0.0), (3, 7, 1.0, 1.0), (9, 10, 2.0, 1.0), (2, 3, 2.0, 0.0),
        (8, 12, 1.0, 1.0), (11, 13, 0.1, 0.0), (11, 12, 1.0, 0.0), (1, 13, 0.5, 0.0), (10, 13, 0.1, 0.0),
        (6, 13, 0.0, 0.0), (5, 6, 1.0, 0.0), (10, 11, 2.0, 0.0), (5, 13, 0.25, 0.0), (1, 13, 1.0, 0.0),
        (2, 6, 1.0, 1.0), (7, 11, 1.0, 1.0), (1, 5, 1.0, 1.0), (6, 10, 1.0, 1.0), (8, 13, 0.1, 0.0),
        (7, 8, 1.0, 0.0), (1, 2, 2.0, 0.0), (6, 7, 1.0, 1.0),
    ], 0, None)
    calls = count_global_relabels(monkeypatch)
    sol = assert_min_cut_by_brute_force(net)
    assert len(calls) == 2  # one in the solve, one in the labels check's solve
    assert sol.flow_value == pytest.approx(reference_dinic(net)[0], rel=1e-12)


def test_sentinel_is_twice_the_finite_total_in_arc_order_plus_one():
    rng = random.Random(5)
    rows = ArcRows(num_nodes=6, source=0, sink=5)
    total = 0.0
    for _ in range(40):
        u, v = rng.sample(range(6), 2)
        fwd, rev = rng.uniform(0.1, 3.0), rng.choice([0.0, rng.uniform(0.1, 3.0)])
        rows.add(u, v, fwd, rev)
        total += fwd
        total += rev
    a = rows.add(1, 5, math.inf)
    net = rows.build()
    assert net.infinite.tolist() == [False] * a + [True, False]
    assert net.capacity[a] == 2.0 * total + 1.0


def test_the_sentinel_dominates_a_finite_total_that_absorbs_a_unit():
    # {source, 1} is a finite cut of 2**53; a sentinel of 1 + 2**53 rounds
    # to 2**53 and ties with it.
    rows = ArcRows(3, source=0, sink=2)
    rows.add(0, 1, math.inf)
    rows.add(1, 2, 2.0**53)
    sol = solve_maxflow(rows.build())
    assert sol.flow_value == 2.0**53
    assert_ids(sol.s_side, [1])


def test_bounded_sources_send_at_most_their_supply():
    # Starts 0 and 1 share the bottleneck 2 -> 3.
    rows = ArcRows(4, source=0, sink=3)
    for u, v, c in ((0, 2, 5.0), (1, 2, 5.0), (2, 3, 4.0)):
        rows.add(u, v, c)
    net = rows.build()
    res = _Residual(net, net.capacity)
    supply = [3.0, 2.0]
    pushed, reach = _dinic(res, [0, 1], net.sink, supply)
    assert pushed == 4.0
    assert supply == [0.0, 1.0]  # start 0 went first and sent all it had
    assert (net.capacity - arc_residuals(net, res))[0::2].tolist() == [3.0, 1.0, 4.0]
    assert reach.tolist() == [True, True, True, False]  # from start 1, the one with supply left


def test_a_bounded_start_sends_flow_back_along_residual_arcs():
    rows = ArcRows(4, source=0, sink=3)
    for u, v, c in ((0, 1, 2.0), (1, 2, 2.0), (2, 3, 1.0)):
        rows.add(u, v, c)
    net = rows.build()
    res = _Residual(net, net.capacity)
    assert _dinic(res, [0], net.sink)[0] == 1.0
    # Node 2 holds 1.5 more than it can pass on; only the 1.0 that came
    # in along 0 -> 1 -> 2 can go back.
    left = [1.5]
    back, _ = _dinic(res, [2], net.source, left)
    assert (back, left) == (1.0, [0.5])
    assert (net.capacity - arc_residuals(net, res))[0::2].tolist() == [0.0, 0.0, 1.0]


def test_the_per_solve_check_rejects_a_flow_that_is_not_maximum():
    # The chain 0 -> 1 -> 2 -> 3 carries no flow yet, so the residual reach
    # holds the sink. No arc leaves that reach, so the cut it names has
    # capacity 0, equal to the flow: only the reachable sink shows that
    # the flow is not maximum.
    rows = ArcRows(4, source=0, sink=3)
    for u, v, c in ((0, 1, 3.0), (1, 2, 1.0), (2, 3, 1.0)):
        rows.add(u, v, c)
    net = rows.build()
    res = _Residual(net, net.capacity)
    reach = np.array(_bfs_levels(res, [net.source], net.sink)) >= 0
    assert reach.all()
    with pytest.raises(AssertionError, match="sink is reachable"):
        _checked_min_cut(net, 0.0, reach)


@pytest.mark.parametrize(
    "c",
    [
        1.0,
        pytest.param(
            1e-13,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the duality check's absolute tolerance of 1e-9 passes any cut below it (ROADMAP item 6)",
            ),
        ),
    ],
)
def test_the_duality_check_rejects_a_zero_flow_across_a_cut_of_capacity_c(c):
    # The chain 0 -> 1 (3c) -> 2 (c) -> 3 (c): the reach {0, 1} names a cut
    # of capacity c, which a flow of 0 does not meet at any scale.
    rows = ArcRows(4, source=0, sink=3)
    for u, v, cap in ((0, 1, 3.0 * c), (1, 2, c), (2, 3, c)):
        rows.add(u, v, cap)
    reach = np.array([True, True, False, False])
    with pytest.raises(AssertionError, match="duality violated"):
        _checked_min_cut(rows.build(), 0.0, reach)


# -- a network is a value: nothing a solve does changes it ------------------------------


def _contents(net):
    """Everything a network holds: its attribute names, each array's dtype, shape and bytes, and its arc lists."""
    out = {"keys": sorted(vars(net))}
    for name, value in vars(net).items():
        if isinstance(value, np.ndarray):
            out[name] = (value.dtype, value.shape, value.tobytes())
        elif name == "_lists":
            out[name] = [list(x) for x in value]
        else:
            out[name] = value
    return out


@contextlib.contextmanager
def every_network_watched():
    """Record each network built or given new capacities while the block runs, with its contents when made.

    Its arc lists are taken as it is made, so a solve that takes them is
    no change. Yields the list of (network, contents) pairs.
    """
    made = []
    init, with_capacities = FlowNetwork.__init__, FlowNetwork._with_capacities

    def record(net):
        net._lists
        made.append((net, _contents(net)))

    def watched_init(net, *args):
        init(net, *args)
        record(net)

    def watched_with_capacities(net, cap):
        out = with_capacities(net, cap)
        record(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FlowNetwork, "__init__", watched_init)
        mp.setattr(FlowNetwork, "_with_capacities", watched_with_capacities)
        yield made


def test_nothing_a_solve_does_changes_its_network():
    from localcluster import local_flow_improve, mqi
    from localcluster.refcut import rescale

    g, seed = ring_of_cliques(12, 6), range(8)
    spec = AugmentedGraphSpec(alpha=0.5, beta=0.2, seed=seed)
    with every_network_watched() as made:
        net = materialize(spec, g)
        first = solve_maxflow(net)
        # A second solve starts from zero flow, as the first did.
        again = solve_maxflow(net)
        assert again.flow_value == first.flow_value
        assert_ids(again.s_side, first.s_side)
        confined = AugmentedGraphSpec(alpha=0.25, beta=math.inf, seed=seed)
        rescaled = rescale(net, confined, g)
        assert rescaled is not net and rescaled.head is net.head and rescaled.infinite.any()
        assert solve_maxflow(rescaled).flow_value == solve_maxflow(materialize(confined, g)).flow_value
        # A capacity that _set_initial rejects raises and leaves the network as it was.
        for bad in (-1.0, -math.inf, math.nan):
            cap = np.array(net.capacity)
            cap[0] = bad
            with pytest.raises(ParameterError, match="nonnegative"):
                net._with_capacities(cap)
        flow_improve(g, seed)
        mqi(g, seed)
        for delta in (0.1, 3.0):  # a whole-network call and a local one that grows
            local_flow_improve(g, seed, delta=delta)
        local_flow_improve(path_graph(300), range(140, 160), delta=0.1)
    assert len(made) >= 8
    for net, contents in made:
        assert _contents(net) == contents


def test_a_network_at_new_capacities_shares_the_arcs_and_solves_at_them():
    rows = ArcRows(3, source=0, sink=2)
    rows.add(0, 1, 2.0)
    rows.add(1, 2, 1.0)
    net = rows.build()
    assert solve_maxflow(net).flow_value == 1.0  # the solve took the network's arc lists
    other = net._with_capacities(np.array([2.0, 0.0, math.inf, 0.0]))
    assert other.capacity.tolist() == [2.0, 0.0, 5.0, 0.0] and other.infinite.tolist() == [False, False, True, False]
    assert all(getattr(other, name) is getattr(net, name) for name in ("head", "order", "first", "_lists"))
    sol = solve_maxflow(other)
    assert sol.flow_value == 2.0
    assert_ids(sol.s_side, [])
    assert net.capacity.tolist() == [2.0, 0.0, 1.0, 0.0] and not net.infinite.any()
    assert solve_maxflow(net).flow_value == 1.0


# -- the growable residual of the strongly-local solver ----------------------------


@st.composite
def grown_networks(draw):
    """A network, then the nodes (with their block widths) and arc pairs to add to its residual.

    A node's first arc added moves its run out of the network's lists, and
    so does every arc beyond a block's room. Capacities are finite and far
    above RESIDUAL_EPS, so the minimal min cut does not depend on the arc
    order.
    """
    n = draw(st.integers(2, 7))
    extra = draw(st.integers(0, 3))
    node = st.integers(0, n + extra - 1)
    caps = st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.7])
    pair = st.tuples(node, node, caps, st.sampled_from([0.0, 0.0, 1.0, 2.5])).filter(lambda a: a[0] != a[1])
    first = draw(st.lists(pair.filter(lambda a: max(a[:2]) < n), max_size=15))
    later = draw(st.lists(pair, max_size=15))
    width = draw(st.lists(st.integers(0, 4), min_size=extra, max_size=extra))
    return n, first, later, width


@settings(max_examples=300)
@given(case=grown_networks())
def test_a_grown_residual_solves_as_the_network_of_all_its_arcs(case):
    """Arcs added to a residual in place, some into full runs that must move,
    solve as a network built with all of them."""
    n, first, later, width = case
    extra = len(width)
    sink = n - 1
    net = _network(n, first, 0, sink)
    shared = [list(x) for x in net._lists]
    res = _Residual(net, net.capacity)
    res.add_nodes(width)
    assert res.num_nodes == n + extra
    for (u, v, fwd, rev), i in zip(later, res.add_pairs(later)):
        p = res.first[u] + i
        assert (res.head[p], res.cap[p], res.cap[res.rev[p]]) == (v, fwd, rev)
    for u in range(res.num_nodes):
        assert res.first[u] <= res.end[u] <= res.limit[u]
        for p in range(res.first[u], res.end[u]):
            assert res.head[res.rev[p]] == u and res.rev[res.rev[p]] == p
    flow, reach = _dinic(res, [0], sink)

    whole = _network(n + extra, first + later, 0, sink)
    want, want_reach = _dinic(_Residual(whole, whole.capacity), [0], sink)
    assert flow == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert reach.tolist() == want_reach.tolist()
    _checked_min_cut(whole, flow, reach)
    assert [list(x) for x in net._lists] == shared  # the network's lists are left as they were


def test_take_moves_capacity_and_flow_off_an_arc():
    # 0 -> 1 (cap 3) -> 2 (cap 2) carries 2. Taking 1.5 of the capacity of
    # 1 -> 2 with 1.5 of its flow leaves it saturated at 0.5.
    rows = ArcRows(3, source=0, sink=2)
    rows.add(0, 1, 3.0)
    rows.add(1, 2, 2.0)
    net = rows.build()
    res = _Residual(net, net.capacity)
    assert _augment(res, 0.0, [], [])[0] == 2.0
    (i,) = _run_index(net, np.array([2]))
    # The sink's run holds the twin of 1 -> 2, whose residual is the flow on it.
    assert (res.cap[res.first[1] + i], res.run(2)) == (0.0, [2.0])
    res.take([(1, i, 1.5, 1.5)])
    assert (res.cap[res.first[1] + i], res.run(2)) == (0.0, [0.5])
    # Node 1 now takes in 1.5 more than it sends on. A new arc 1 -> 2 of
    # capacity 1 passes 1 of it on, and 0.5 goes back to the source.
    res.add_pairs([(1, 2, 1.0, 0.0)])
    flow, reach = _augment(res, 2.0, [1], [1.5])
    assert flow == 1.5
    assert reach.tolist() == [True, True, False]
