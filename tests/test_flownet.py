"""Max-flow solver: small hand-checked networks, duality, unbounded detection."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcluster import (
    FlowNetwork,
    ParameterError,
    UnboundedFlowError,
    cut_capacity,
    solve_maxflow,
)
from localcluster.flownet import DUALITY_RTOL, _checked_min_cut, _dinic, _Residual
from localcluster.oracles import brute_min_cut


def test_single_bottleneck_path():
    # s -> a (cap 2) -> t (cap 1): flow 1, a stays on the source side.
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    net.add_arc(0, 1, 2.0)
    net.add_arc(1, 2, 1.0)
    net.freeze()
    sol = solve_maxflow(net)
    assert sol.flow_value == pytest.approx(1.0)
    assert sol.s_side == frozenset({1})


def test_two_disjoint_paths():
    net = FlowNetwork(num_nodes=4, source=0, sink=3)
    net.add_arc(0, 1, 1.0)
    net.add_arc(1, 3, 1.0)
    net.add_arc(0, 2, 3.0)
    net.add_arc(2, 3, 3.0)
    net.freeze()
    sol = solve_maxflow(net)
    assert sol.flow_value == pytest.approx(4.0)


def test_minimal_source_side():
    # Both cuts {a} and {} have capacity 1; the solver reports the one
    # reachable in the residual network, which is the smallest s-side.
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    net.add_arc(0, 1, 1.0)
    net.add_arc(1, 2, 1.0)
    net.freeze()
    sol = solve_maxflow(net)
    assert sol.s_side == frozenset()


def test_flow_value_matches_cut_capacity():
    net = FlowNetwork(num_nodes=5, source=0, sink=4)
    net.add_arc(0, 1, 2.0)
    net.add_arc(0, 2, 4.0)
    net.add_arc(1, 3, 3.0)
    net.add_arc(2, 3, 1.0)
    net.add_arc(2, 4, 2.0)
    net.add_arc(3, 4, 5.0)
    net.freeze()
    sol = solve_maxflow(net)
    assert sol.flow_value == pytest.approx(
        cut_capacity(net, sol.s_side), rel=1e-9
    )


def test_infinite_arc_keeps_endpoint_attached():
    # An infinite arc into the sink forces the cut to pay the finite arc.
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    net.add_arc(0, 1, 7.0)
    net.add_arc(1, 2, math.inf)
    net.freeze()
    sol = solve_maxflow(net)
    assert sol.flow_value == pytest.approx(7.0)
    assert sol.s_side == frozenset()


def test_unbounded_flow_detected():
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    net.add_arc(0, 1, math.inf)
    net.add_arc(1, 2, math.inf)
    net.freeze()
    with pytest.raises(UnboundedFlowError):
        solve_maxflow(net)


def test_no_path_means_zero_flow():
    net = FlowNetwork(num_nodes=4, source=0, sink=3)
    net.add_arc(0, 1, 5.0)
    net.add_arc(2, 3, 5.0)
    net.freeze()
    sol = solve_maxflow(net)
    assert sol.flow_value == 0.0
    assert sol.s_side == frozenset({1})


def test_bad_capacities_rejected():
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    with pytest.raises(ParameterError):
        net.add_arc(0, 1, -1.0)
    with pytest.raises(ParameterError):
        net.add_arc(0, 1, -math.inf)
    with pytest.raises(ParameterError):
        net.add_arc(0, 1, math.nan)


def test_bad_terminals_rejected():
    with pytest.raises(ParameterError):
        FlowNetwork(num_nodes=3, source=1, sink=1)
    with pytest.raises(ParameterError):
        FlowNetwork(num_nodes=3, source=0, sink=3)


def test_cut_capacity_rejects_sink_on_source_side():
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    net.add_arc(0, 1, 1.0)
    net.freeze()
    with pytest.raises(ParameterError):
        cut_capacity(net, {2})
    for bad in ({-1}, {3}):
        with pytest.raises(ParameterError):
            cut_capacity(net, bad)


def test_arc_flows_conserve_mass():
    net = FlowNetwork(num_nodes=5, source=0, sink=4)
    net.add_arc(0, 1, 2.0)
    net.add_arc(0, 2, 2.0)
    net.add_arc(1, 3, 1.0)
    net.add_arc(2, 3, 1.0)
    net.add_arc(3, 4, 3.0)
    net.freeze()
    sol = solve_maxflow(net)
    assert sol.flow_value == pytest.approx(2.0)
    # Net flow out of every interior node is zero.  Arcs are stored in
    # pairs, so the tail of forward arc a is the head of its twin a^1.
    balance = [0.0] * 5
    for a in range(0, len(net.head), 2):
        f = net.arc_flow(a)
        balance[net.head[a ^ 1]] -= f
        balance[net.head[a]] += f
    assert balance[1] == pytest.approx(0.0)
    assert balance[2] == pytest.approx(0.0)
    assert balance[3] == pytest.approx(0.0)
    assert balance[4] == pytest.approx(sol.flow_value)


def test_reset_flow_reproduces_solution():
    net = FlowNetwork(num_nodes=4, source=0, sink=3)
    net.add_arc(0, 1, 1.0)
    net.add_arc(1, 2, 1.0)
    net.add_arc(2, 3, 1.0)
    net.freeze()
    first = solve_maxflow(net)
    net.reset_flow()
    second = solve_maxflow(net)
    assert first.flow_value == second.flow_value
    assert first.s_side == second.s_side


def test_against_brute_min_cut_random():
    rng = random.Random(20240915)
    for _ in range(40):
        n = rng.randint(4, 8)
        net = FlowNetwork(num_nodes=n, source=0, sink=n - 1)
        arcs = 0
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.45:
                    net.add_arc(u, v, rng.choice([0.5, 1.0, 2.0, 3.5]))
                    arcs += 1
        if arcs == 0:
            net.add_arc(0, n - 1, 1.0)
        net.freeze()
        best_value, best_side = brute_min_cut(net)
        sol = solve_maxflow(net)
        assert sol.flow_value == pytest.approx(best_value, abs=1e-9)
        assert cut_capacity(net, sol.s_side) == pytest.approx(
            best_value, abs=1e-9
        )


# -- the flat-list Dinic and the push-relabel solve against the adjacency-list Dinic --


def reference_dinic(net):
    """Solve a frozen network with per-node arc lists and restarted path searches.

    Returns (flow value, residual capacity of every arc, s-side), or raises
    what the solver raises.
    """
    from collections import deque

    eps = 1e-12
    head, cap, infinite = net.head.tolist(), net.cap_init.tolist(), set(np.flatnonzero(net.infinite).tolist())
    adj = [[] for _ in range(net.num_nodes)]
    for a in range(len(head)):
        adj[head[a ^ 1]].append(a)

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

    total = 0.0
    while True:
        level = bfs_levels()
        if level is None:
            break
        ptr = [0] * net.num_nodes
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
    cap_sent = sum(net.cap_init[a] for a in crossing)
    if not math.isclose(total, cap_sent, rel_tol=1e-9, abs_tol=1e-9):
        raise AssertionError(f"duality violated: flow {total!r} vs cut capacity {cap_sent!r}")
    return total, cap, frozenset(reach - {net.source})


def _solve_outcome(solve, net):
    try:
        return solve(net)
    except Exception as exc:  # the exception is the outcome being compared
        return type(exc), str(exc)


def _network(n, arcs, source, sink):
    net = FlowNetwork(num_nodes=n, source=source, sink=n - 1 if sink is None else sink)
    for u, v, fwd, rev in arcs:
        net.add_arc(u, v, fwd, rev)
    net.freeze()
    return net


def dinic_solve(net):
    """``_dinic`` from the network's source, as a grow round runs it, with the min-cut check."""
    res = _Residual(net)
    flow, reach = _dinic(res, [net.source], net.sink)
    res.store(net)
    _checked_min_cut(net, flow, reach)
    reach[net.source] = False
    return flow, net.cap.tolist(), frozenset(np.flatnonzero(reach).tolist())


def assert_dinic_agrees(n, arcs, source=0, sink=None):
    net = _network(n, arcs, source, sink)
    want = _solve_outcome(reference_dinic, net)
    got = _solve_outcome(dinic_solve, net)
    if isinstance(want[0], type):
        assert got == want
        return
    assert got[0] == want[0]
    assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()
    assert [net.arc_flow(a) for a in range(0, len(net.head), 2)] == [
        net.cap_init[a] - want[1][a] for a in range(0, len(net.head), 2)
    ]
    assert got[2] == want[2]


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

    pairs, init = net.cap.reshape(-1, 2), net.cap_init.reshape(-1, 2)
    np.testing.assert_allclose(pairs.sum(axis=1), init.sum(axis=1), rtol=1e-12, atol=0.0)
    assert (net.cap >= 0.0).all()
    sent = init[:, 0] - pairs[:, 0]  # flow along each forward arc, tail to head
    inflow = np.zeros(n)
    np.add.at(inflow, net.head[0::2], sent)
    np.add.at(inflow, net.head[1::2], -sent)
    inner = np.ones(n, dtype=bool)
    inner[[net.source, net.sink]] = False
    assert np.abs(inflow[inner]).max(initial=0.0) <= 1e-9 * max(1.0, flow)

    if got.s_side != s_side:
        for side in (got.s_side, s_side):
            assert math.isclose(cut_capacity(net, side), flow, rel_tol=DUALITY_RTOL, abs_tol=1e-9)


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
]


def test_dinic_matches_on_named_networks():
    for case in NAMED_NETWORKS:
        assert_dinic_agrees(*case)


def test_maxflow_matches_on_named_networks():
    for case in NAMED_NETWORKS:
        assert_maxflow_agrees(*case)
    with pytest.raises(UnboundedFlowError):
        net = FlowNetwork(num_nodes=3, source=0, sink=2)
        net.add_arc(0, 1, math.inf)
        net.add_arc(1, 2, math.inf)
        solve_maxflow(net)


def test_push_relabel_finds_the_exact_minimum_cut_near_eps():
    # Dinic leaves 5e-13 on each source arc, at or below RESIDUAL_EPS, and
    # reports the s-side {} with cut 2 + 1e-12; the true minimum is {1} at 2.
    arcs = [(0, 1, 1.0 + 5e-13, 0.0)] * 2 + [(1, 2, 0.5, 0.0), (1, 2, 0.5, 0.0), (1, 2, 1.0, 0.0)]
    net = _network(3, arcs, 0, None)
    assert reference_dinic(net)[2] == frozenset()
    sol = solve_maxflow(net)
    assert sol.s_side == frozenset({1})
    assert cut_capacity(net, sol.s_side) == 2.0
    assert_maxflow_agrees(3, arcs)


def test_excess_the_return_phase_cannot_route_raises(monkeypatch):
    from localcluster import flownet

    # Node 1 takes 2 from the source and passes on only 1.
    net = _network(3, [(0, 1, 2.0, 0.0), (1, 2, 1.0, 0.0)], 0, None)
    discharge = flownet._discharge

    def skip_the_return(res, excess, label, target, blocked, global_relabel):
        if target != net.source:
            discharge(res, excess, label, target, blocked, global_relabel)

    monkeypatch.setattr(flownet, "_discharge", skip_the_return)
    with pytest.raises(AssertionError, match="excess"):
        solve_maxflow(net)


def test_sentinel_is_one_plus_the_finite_total_in_arc_order():
    rng = random.Random(5)
    net = FlowNetwork(num_nodes=6, source=0, sink=5)
    total = 0.0
    for _ in range(40):
        u, v = rng.sample(range(6), 2)
        fwd, rev = rng.uniform(0.1, 3.0), rng.choice([0.0, rng.uniform(0.1, 3.0)])
        net.add_arc(u, v, fwd, rev)
        total += fwd
        total += rev
    a = net.add_arc(1, 5, math.inf)
    net.freeze()
    assert net.infinite.tolist() == [False] * a + [True, False]
    assert net.cap_init[a] == 1.0 + total


def test_bounded_sources_send_at_most_their_supply():
    # Starts 0 and 1 share the bottleneck 2 -> 3.
    net = FlowNetwork(4, source=0, sink=3)
    for u, v, c in ((0, 2, 5.0), (1, 2, 5.0), (2, 3, 4.0)):
        net.add_arc(u, v, c)
    net.freeze()
    res = _Residual(net)
    supply = [3.0, 2.0]
    pushed, reach = _dinic(res, [0, 1], net.sink, supply)
    res.store(net)
    assert pushed == 4.0
    assert supply == [0.0, 1.0]  # start 0 went first and sent all it had
    assert [net.arc_flow(a) for a in (0, 2, 4)] == [3.0, 1.0, 4.0]
    assert reach.tolist() == [True, True, True, False]  # from start 1, the one with supply left


def test_a_bounded_start_sends_flow_back_along_residual_arcs():
    net = FlowNetwork(4, source=0, sink=3)
    for u, v, c in ((0, 1, 2.0), (1, 2, 2.0), (2, 3, 1.0)):
        net.add_arc(u, v, c)
    net.freeze()
    res = _Residual(net)
    assert _dinic(res, [0], net.sink)[0] == 1.0
    # Node 2 holds 1.5 more than it can pass on; only the 1.0 that came
    # in along 0 -> 1 -> 2 can go back.
    left = [1.5]
    back, _ = _dinic(res, [2], net.source, left)
    res.store(net)
    assert (back, left) == (1.0, [0.5])
    assert [net.arc_flow(a) for a in (0, 2, 4)] == [0.0, 0.0, 1.0]
