"""Augmented source/sink construction: closed-form cut values, the
materialized network, and the strongly-local solver against the global one."""

import contextlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcluster import (
    AugmentedGraphSpec,
    InvalidSetError,
    ParameterError,
    augmented_cut_value,
    cut,
    cut_capacity,
    materialize,
    relative_conductance,
    solve_maxflow,
    solve_maxflow_local,
)
from localcluster.graph import Graph, NodeSet
from localcluster.refcut import _subnetwork, rescale
from localcluster.synth import path_graph, random_connected_graph, ring_of_cliques, star_graph
from test_flownet import ArcRows, assert_ids, push_relabel_residuals


def _fi_spec(g, seed_ids, alpha=1.0):
    """Sink scale = alpha * volume ratio."""
    vol_r = float(sum(g.degrees[i] for i in seed_ids))
    ratio = vol_r / (g.total_volume - vol_r)
    return AugmentedGraphSpec(alpha=alpha, beta=alpha * ratio, seed=seed_ids)


def _mqi_spec(g, seed_ids, alpha):
    """Confined variant: infinite sink scale outside the seed set."""
    return AugmentedGraphSpec(alpha=alpha, beta=math.inf, seed=seed_ids)


class TestSpecValidation:
    def test_negative_scales_rejected(self):
        with pytest.raises(ParameterError):
            AugmentedGraphSpec(alpha=-1.0, beta=1.0, seed=[0])
        with pytest.raises(ParameterError):
            AugmentedGraphSpec(alpha=1.0, beta=-1.0, seed=[0])

    def test_nan_scales_rejected(self):
        with pytest.raises(ParameterError, match="nonnegative"):
            AugmentedGraphSpec(alpha=math.nan, beta=1.0, seed=[0])
        with pytest.raises(ParameterError, match="nonnegative"):
            AugmentedGraphSpec(alpha=1.0, beta=math.nan, seed=[0])

    def test_infinite_beta_accepted(self):
        spec = AugmentedGraphSpec(alpha=1.0, beta=math.inf, seed=[0])
        assert spec.beta == math.inf

    def test_empty_seed_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            AugmentedGraphSpec(alpha=1.0, beta=1.0, seed=[])

    def test_seed_held_sorted_and_distinct(self):
        spec = AugmentedGraphSpec(alpha=1.0, beta=1.0, seed=(4, 1, 4, 0))
        assert spec.seed.tolist() == [0, 1, 4]

    def test_a_node_set_seed_is_taken_as_it_is(self, monkeypatch):
        from localcluster import refcut

        seed = NodeSet.of(path_graph(5), [4, 1, 0, 1])
        monkeypatch.setattr(refcut, "_sorted_ids", None)  # nothing is sorted again
        spec = AugmentedGraphSpec(alpha=1.5, beta=math.inf, seed=seed)
        monkeypatch.undo()
        public = AugmentedGraphSpec(alpha=1.5, beta=math.inf, seed=[4, 1, 0, 1])
        assert spec.seed is seed.array
        assert (spec.alpha, spec.beta, spec.seed.tolist()) == (public.alpha, public.beta, public.seed.tolist())
        # The scales are still checked.
        with pytest.raises(ParameterError):
            AugmentedGraphSpec(alpha=-1.5, beta=math.inf, seed=seed)

    def test_non_integer_seed_rejected(self):
        # Neither truncated to ints nor parsed as ints.
        for bad in ([0.7, 2.2], ["1"], np.array([0.0, 1.0])):
            with pytest.raises(InvalidSetError, match="integers"):
                AugmentedGraphSpec(alpha=1.0, beta=1.0, seed=bad)

    def test_out_of_range_support(self, triangle):
        for bad in (9, -1):
            spec = AugmentedGraphSpec(alpha=1.0, beta=1.0, seed=[0, bad])
            with pytest.raises(ParameterError, match=f"seed node {bad} out of range"):
                spec.validate_against(triangle)


class TestCutValue:
    def test_empty_set_pays_all_source_mass(self, dumbbell):
        spec = _fi_spec(dumbbell, (0, 1, 2, 3), alpha=2.0)
        vol_r = float(dumbbell.degrees[:4].sum())
        assert augmented_cut_value(spec, dumbbell, ()) == pytest.approx(
            2.0 * vol_r
        )

    def test_full_set_pays_all_sink_mass(self, dumbbell):
        spec = _fi_spec(dumbbell, (0, 1, 2, 3))
        everything = range(dumbbell.n)
        # vol(V) - vol(R) = 14 - 10 = 4, scaled by beta = 2.5.
        assert augmented_cut_value(spec, dumbbell, everything) == pytest.approx(
            2.5 * 4.0
        )

    def test_full_set_infinite_when_confined(self, dumbbell):
        spec = _mqi_spec(dumbbell, (0, 1, 2, 3), alpha=0.2)
        assert augmented_cut_value(spec, dumbbell, range(dumbbell.n)) == math.inf

    def test_dumbbell_left_triangle(self, dumbbell):
        # cut(S)=1, unpaid source mass = degree of node 3 = 3, no sink mass.
        spec = _fi_spec(dumbbell, (0, 1, 2, 3))
        assert augmented_cut_value(spec, dumbbell, (0, 1, 2)) == pytest.approx(4.0)

    def test_confined_set_inside_support_is_finite(self, dumbbell):
        spec = _mqi_spec(dumbbell, (0, 1, 2, 3), alpha=0.2)
        value = augmented_cut_value(spec, dumbbell, (0, 1, 2))
        assert value == pytest.approx(1.0 + 0.2 * 3.0)


class TestMaterialize:
    def test_triangle_attachment_arcs(self, triangle):
        spec = AugmentedGraphSpec(alpha=1.0, beta=1.0, seed=[0])
        net = materialize(spec, triangle)
        assert net.num_nodes == 5
        # One source arc (node 0), two sink arcs (the seed node carries no
        # sink mass), three edges.
        assert len(net.head) == 2 * (1 + 2 + 3)
        assert sorted(net.capacity[0::2].tolist()) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_zero_weight_attachments_omitted(self, triangle):
        # beta = 0: no sink arcs, 1 source + 3 edges; alpha = 0: no source arc.
        net = materialize(AugmentedGraphSpec(alpha=1.0, beta=0.0, seed=[0]), triangle)
        assert len(net.head) == 2 * (1 + 3)
        net = materialize(AugmentedGraphSpec(alpha=0.0, beta=1.0, seed=[0]), triangle)
        assert len(net.head) == 2 * (2 + 3)

    def test_cut_capacity_matches_formula_exhaustively(self):
        g = random_connected_graph(8, seed=71, weighted=True)
        spec = AugmentedGraphSpec(alpha=0.7, beta=1.3, seed=range(4))
        net = materialize(spec, g)
        for mask in range(1 << g.n):
            s = [v for v in range(g.n) if mask >> v & 1]
            direct = augmented_cut_value(spec, g, s)
            assert cut_capacity(net, s) == pytest.approx(direct, rel=1e-12)

    def test_maxflow_equals_min_formula_value(self):
        g = random_connected_graph(8, seed=13, weighted=False)
        spec = _fi_spec(g, (0, 1, 2))
        net = materialize(spec, g)
        sol = solve_maxflow(net)
        best = min(
            augmented_cut_value(spec, g, [v for v in range(g.n) if mask >> v & 1])
            for mask in range(1 << g.n)
        )
        assert sol.flow_value == pytest.approx(best, rel=1e-12)


class TestLocalSolver:
    def test_matches_global_on_random_instances(self):
        rng = random.Random(998)
        for trial in range(30):
            g = random_connected_graph(
                rng.randint(5, 11), seed=rng.randint(0, 10**6), weighted=trial % 2 == 0
            )
            k = rng.randint(1, max(1, g.n // 2))
            seed_ids = sorted(rng.sample(range(g.n), k))
            if trial % 3 == 0:
                spec = _mqi_spec(g, seed_ids, alpha=rng.uniform(0.05, 0.8))
            else:
                vol_r = float(sum(g.degrees[i] for i in seed_ids))
                if vol_r >= g.total_volume:
                    continue
                spec = _fi_spec(g, seed_ids, alpha=rng.uniform(0.1, 2.0))
            net = materialize(spec, g)
            ref = solve_maxflow(net)
            local_sol, explored, _ = solve_maxflow_local(spec, g)
            assert local_sol.flow_value == pytest.approx(ref.flow_value, rel=1e-9)
            assert_ids(local_sol.s_side, ref.s_side)
            assert np.isin(local_sol.s_side, explored).all()
            assert explored.dtype == np.int64 and explored[0] >= 0 and explored[-1] < g.n
            assert (np.diff(explored) > 0).all()

    def test_confined_solver_never_leaves_support(self, dumbbell):
        spec = _mqi_spec(dumbbell, (0, 1, 2, 3), alpha=0.12)
        sol, explored, _ = solve_maxflow_local(spec, dumbbell)
        assert np.isin(sol.s_side, [0, 1, 2, 3]).all()
        assert_ids(explored, [0, 1, 2, 3])

    def test_source_side_grows_with_alpha(self):
        # The retained source volume is monotone in the source scale.
        rng = random.Random(4242)
        for _ in range(10):
            g = random_connected_graph(9, seed=rng.randint(0, 10**6))
            seed_ids = sorted(rng.sample(range(g.n), 4))
            vol_r = float(sum(g.degrees[i] for i in seed_ids))
            if vol_r >= g.total_volume:
                continue
            prev = -1.0
            for alpha in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0):
                spec = _fi_spec(g, seed_ids, alpha=alpha)
                sol, _, _ = solve_maxflow_local(spec, g)
                kept = sum(g.degrees[i] for i in sol.s_side if i in seed_ids)
                assert kept >= prev - 1e-12
                prev = kept

    def test_infinite_source_scale_rejected(self, dumbbell):
        spec = AugmentedGraphSpec(alpha=math.inf, beta=1.0, seed=[0])
        with pytest.raises(ParameterError):
            solve_maxflow_local(spec, dumbbell)

    def test_source_capacities_that_are_not_finite_rejected(self):
        # A path 0-1-2 and node 3 with no edge. A finite alpha whose
        # capacities overflow, and an infinite one on a seed of no degree.
        g = Graph.from_edges(4, [0, 1], [1, 2])
        for alpha, seed in ((1e308, [0, 1]), (math.inf, [3])):
            with pytest.raises(ParameterError, match="total source capacity must be finite"):
                solve_maxflow_local(AugmentedGraphSpec(alpha=alpha, beta=1.0, seed=seed), g)


# -- the array builder against the per-arc loop it replaced ---------------------


def reference_subnetwork(spec, g, members):
    """Add the arcs one member at a time: source arc, sink arc, then inside edges.

    A member's sink arc holds its own attachment plus its outside edges,
    added in CSR order. Returns the network and, per kind of arc, what the
    builder's layout lists: (arc pair, member, own attachment) for sink
    arcs and (member, endpoint, capacity) for outside edges.
    """
    members = [int(v) for v in members]
    local_id = {v: k for k, v in enumerate(members)}
    seed = set(spec.seed.tolist())
    m = len(members)
    rows = ArcRows(m + 2, source=m, sink=m + 1)
    snk, tagged = [], []
    for k, v in enumerate(members):
        dv = float(g.degrees[v])
        if v in seed and spec.alpha * dv > 0.0:
            rows.add(rows.source, k, spec.alpha * dv)
        z = 0.0 if v in seed else dv
        own = spec.beta * z if z > 0.0 else 0.0
        ids, ws = g.neighbors(v)
        outside = [(j, w) for j, w in zip(ids.tolist(), ws.tolist()) if j not in local_id]
        if own > 0.0 or outside:
            out_cap = 0.0
            for j, c in outside:
                out_cap += c
                tagged.append((k, j, c))
            snk.append((rows.add(k, rows.sink, own + out_cap) // 2, k, own))
        for j, w in zip(ids.tolist(), ws.tolist()):
            kj = local_id.get(j)
            if kj is not None and v < j:
                rows.add(k, kj, w, w)
    return rows.build(), (snk, tagged)


def _bits(values, dtype):
    return np.asarray(values, dtype=dtype).tobytes()


def assert_builders_agree(spec, g, members):
    members = np.asarray(sorted(members), dtype=np.int64)
    net, lay = _subnetwork(spec, g, members)
    ref, (snk, tagged) = reference_subnetwork(spec, g, members)
    assert (net.num_nodes, net.source, net.sink) == (ref.num_nodes, ref.source, ref.sink)
    assert _bits(net.head, np.int64) == _bits(ref.head, np.int64)
    assert _bits(net.capacity, np.float64) == _bits(ref.capacity, np.float64)
    assert list(zip(lay.snk.tolist(), lay.snk_member.tolist())) == [(a, k) for a, k, _ in snk]
    assert _bits(lay.own, np.float64) == _bits([own for *_, own in snk], np.float64)
    assert list(zip(lay.tag_member.tolist(), lay.tag_end.tolist())) == [(k, j) for k, j, _ in tagged]
    assert _bits(lay.tag_cap, np.float64) == _bits([c for *_, c in tagged], np.float64)
    for name in ("head", "capacity", "infinite", "order", "first"):
        assert getattr(net, name).tobytes() == getattr(ref, name).tobytes(), name


@st.composite
def builder_cases(draw):
    """A graph, a spec on it and a member set that holds the seed."""
    n = draw(st.integers(2, 14))
    g = random_connected_graph(n, seed=draw(st.integers(0, 10**6)), weighted=draw(st.booleans()))
    seed = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    confined = draw(st.booleans())
    spec = AugmentedGraphSpec(
        alpha=draw(st.sampled_from([0.0, 0.3, 1.0, 2.5])),
        beta=math.inf if confined else draw(st.sampled_from([0.0, 0.7, 3.0])),
        seed=seed,
    )
    extra = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return spec, g, set(seed) | set(extra)


@settings(max_examples=200)
@given(case=builder_cases())
def test_array_builder_matches_the_per_arc_loop(case):
    assert_builders_agree(*case)


def test_array_builder_matches_on_named_cases():
    g = random_connected_graph(10, seed=5, weighted=True)
    spec = _fi_spec(g, (0, 3, 4), alpha=0.8)
    # Every node (materialize).
    assert_builders_agree(spec, g, range(g.n))
    # A member whose neighbours all lie outside.
    far = next(v for v in range(g.n) if not set(g.neighbors(v)[0].tolist()) & {0, 3, 4, v})
    assert_builders_agree(spec, g, {0, 3, 4, far})
    # beta = inf.
    assert_builders_agree(_mqi_spec(g, (0, 3, 4), alpha=0.4), g, {0, 3, 4, 7})
    # Seed members carry no sink mass of their own.
    spec = AugmentedGraphSpec(alpha=1.0, beta=0.5, seed=(0, 4))
    assert_builders_agree(spec, g, {0, 3, 4})
    _, lay = _subnetwork(spec, g, np.array([0, 3, 4]))
    assert lay.snk_member[lay.own > 0.0].tolist() == [1]  # node 3 alone keeps sink mass


# -- the carried-flow local solver against the whole-network solve ---------------


def _kappa_spec(g, seed_ids, alpha, kappa):
    """refine_by_flow's spec: beta = alpha*kappa*ratio."""
    vol_r = float(g.degrees[list(seed_ids)].sum())
    ratio = vol_r / (g.total_volume - vol_r)
    return AugmentedGraphSpec(
        alpha=alpha, beta=math.inf if math.isinf(kappa) else alpha * kappa * ratio, seed=seed_ids
    )


def assert_local_equals_global(spec, g):
    ref = solve_maxflow(materialize(spec, g))
    local = solve_maxflow_local(spec, g)
    assert_local_solution(ref, local.solution, local.explored)


def assert_local_solution(ref, sol, explored):
    """The local solver's ``sol`` and ``explored`` against the whole-network solution ``ref``."""
    assert sol.flow_value == pytest.approx(ref.flow_value, rel=1e-12)
    assert_ids(sol.s_side, ref.s_side)
    assert np.isin(sol.s_side, explored).all()


@st.composite
def local_cases(draw, alphas=(0.02, 0.1, 0.5, 1.0, 3.0), kappas=(1.0 + 1e-6, 1.5, 10.0, math.inf)):
    """A graph and a spec on it at one of ``kappas``, its seed one node up to all nodes but one."""
    n = draw(st.integers(2, 12))
    g = random_connected_graph(n, seed=draw(st.integers(0, 10**6)), weighted=draw(st.booleans()))
    k = draw(st.integers(1, n - 1))
    seed_ids = sorted(draw(st.permutations(range(n)))[:k])
    spec = _kappa_spec(
        g,
        seed_ids,
        alpha=draw(st.sampled_from(alphas)),
        kappa=draw(st.sampled_from(kappas)),
    )
    return spec, g


@settings(max_examples=300)
@given(case=local_cases())
def test_local_solver_matches_the_whole_network_solve(case):
    assert_local_equals_global(*case)


@contextlib.contextmanager
def _surplus_returns():
    """Record the amount each return of excess to the source sends back, while the block runs.

    The whole-network solve returns its excess by the same routine, so
    the block should hold only the local solve.
    """
    from localcluster import flownet

    returned = []
    return_excess = flownet._return_excess

    def spy(res, starts, amounts, source, scale):
        out = return_excess(res, starts, amounts, source, scale)
        returned.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flownet, "_return_excess", spy)
        yield returned


@pytest.mark.parametrize(
    "name, g, seed_ids, alpha, beta",
    [
        # A hub pulled in from one leaf passes its inflow on to the other
        # leaves; each grow round sends what a leaf cannot hold back.
        ("star, seed at a leaf", star_graph(8), [1], 1.0, 1e-3),
        ("star, seeds at three leaves", star_graph(8), [1, 2, 3], 1.0, 1e-2),
        # Attachments far below the unit edges.
        ("path, attachments below the edges", path_graph(12), [5, 6], 1.0, 1e-2),
        # The one node left outside has every neighbour inside.
        ("star, all but the hub", star_graph(8), range(1, 8), 1.0, 1e-3),
        ("path, all but the middle", path_graph(9), [0, 1, 2, 3, 5, 6, 7, 8], 0.5, 0.1),
    ],
)
def test_surplus_goes_back_to_the_source(name, g, seed_ids, alpha, beta):
    spec = AugmentedGraphSpec(alpha=alpha, beta=beta, seed=seed_ids)
    ref = solve_maxflow(materialize(spec, g))
    with _surplus_returns() as returned:
        sol, explored, _ = solve_maxflow_local(spec, g)
    assert_local_solution(ref, sol, explored)
    assert max(returned, default=0.0) > 0.1 * alpha, name


def test_surplus_that_cannot_be_routed_raises(monkeypatch):
    from localcluster import flownet

    dinic = flownet._dinic

    def drop_the_return(res, sources, sink, supply=None):
        if supply is not None and sink == res.source:
            return 0.0, None
        return dinic(res, sources, sink, supply)

    monkeypatch.setattr(flownet, "_dinic", drop_the_return)
    g = star_graph(8)
    spec = AugmentedGraphSpec(alpha=1.0, beta=1e-3, seed=range(1, 8))
    with pytest.raises(AssertionError, match="left after returning it to the source"):
        solve_maxflow_local(spec, g)


def _pairs(res, ids):
    """Every arc pair of a residual in graph terms: (tail, head) -> (residual, twin's residual).

    The terminals are named "s" and "t", and a terminal arc is keyed from
    the source or to the sink. Checks that every twin points back.
    """
    name = {res.source: "s", res.sink: "t"}
    out = {}
    for u in range(res.num_nodes):
        for p in range(res.first[u], res.end[u]):
            q = res.rev[p]
            assert (res.rev[q], res.head[q]) == (p, u)
            key = tuple(name.get(x, ids[x]) for x in (u, res.head[p]))
            if "t" in key or "s" in key:
                keep = key[0] == "s" or key[1] == "t"
            else:
                keep = p < q
            if keep:
                assert key not in out and key[::-1] not in out
                out[key] = (res.cap[p], res.cap[q])
    return out


def _fresh_pairs(spec, g, members):
    """The arc pairs of a fresh ``_subnetwork`` on ``members``: (tail, head) -> (capacity, twin's capacity)."""
    net, _ = _subnetwork(spec, g, members)
    name = {net.source: "s", net.sink: "t"}
    ids = members.tolist()
    heads, caps = net.head.reshape(-1, 2).tolist(), net.capacity.reshape(-1, 2).tolist()
    return {tuple(name.get(x, ids[x] if x < len(ids) else x) for x in (t, h)): tuple(c) for (h, t), c in zip(heads, caps)}


def _members(ids):
    return np.array(sorted(v for v in ids if v >= 0), dtype=np.int64)


def _capacities(spec, g, res, ids):
    """Each of the grown residual's pairs with the capacities a fresh ``_subnetwork`` gives it.

    Returns (tail, head, capacity, twin's capacity, residual, twin's
    residual) per pair. A sink arc whose member has neither outside edges
    nor an own attachment left has no pair in the fresh network; it gets
    capacity 0.
    """
    fresh = _fresh_pairs(spec, g, _members(ids))
    rows = []
    for (u, v), (r, r_twin) in _pairs(res, ids).items():
        if (u, v) in fresh:
            c, c_twin = fresh.pop((u, v))
        elif (v, u) in fresh:
            c_twin, c = fresh.pop((v, u))
        else:
            assert v == "t", (u, v)
            c = c_twin = 0.0
        rows.append((u, v, c, c_twin, r, r_twin))
    assert not fresh, fresh  # every pair of the fresh network is in the residual
    return rows


def _one_grow_round(spec, g):
    """Solve a local flow's first network from the seed, then grow its residual once by hand.

    Returns the first round's network, the local flow, its residual, the
    flow value and what ``_LocalFlow._join`` returned, or None when the
    round has no violator.
    """
    from localcluster.flownet import _augment
    from localcluster.refcut import _LocalFlow

    local = _LocalFlow(spec, g)
    flow, _ = _augment(local.res, 0.0, [], [])
    if local.split is None:  # an infinite beta, or no outside edge
        return None
    found = local.split.violators(local.res, flow)
    if found is None:
        return None
    return local.net, local, local.res, flow, local._join(found)


@settings(max_examples=150)
@given(case=local_cases(alphas=(0.5, 1.0, 3.0), kappas=(1.0 + 1e-6, 1.5)))
def test_carried_flow_is_a_preflow_with_the_reported_surplus(case):
    """One grow round by hand: the flow carried into the grown residual keeps every
    arc pair's capacity, stays within it, and breaks conservation only by the
    surplus ``_join`` reports."""
    grown = _one_grow_round(*case)
    if grown is None:
        return
    spec, g = case
    _, local, res, flow, (starts, surplus) = grown

    rows = _capacities(spec, g, res, local.ids.tolist())
    tol = 1e-12 * max(1.0, sum(c + c_twin for *_, c, c_twin, _, _ in rows))
    excess = {}
    for u, v, c, c_twin, r, r_twin in rows:
        assert r + r_twin == pytest.approx(c + c_twin, abs=tol)
        assert r >= -tol and r_twin >= -tol
        excess[u] = excess.get(u, 0.0) - (c - r)  # flow along u -> v
        excess[v] = excess.get(v, 0.0) + (c - r)
    want = dict.fromkeys(local.node, 0.0)
    want.update((local.ids.tolist()[k], amount) for k, amount in zip(starts, surplus))
    for v, amount in want.items():
        assert excess.get(v, 0.0) == pytest.approx(amount, abs=tol)
    assert -excess["s"] == pytest.approx(flow, rel=1e-12, abs=tol)


@contextlib.contextmanager
def _each_grown_residual_checked(spec, g):
    """While the block runs, check after each grow round that the grown residual's
    capacities before flow equal, pair by pair, those of a network built fresh on
    the members. Yields the list of the residual's node counts after each round."""
    from localcluster import refcut

    join, sizes = refcut._LocalFlow._join, []

    def join_and_compare(local, found):
        start = join(local, found)
        rows = _capacities(spec, g, local.res, local.ids.tolist())
        tol = 1e-12 * max(1.0, sum(c + c_twin for *_, c, c_twin, _, _ in rows))
        for u, v, c, c_twin, r, r_twin in rows:
            assert r + r_twin == pytest.approx(c + c_twin, abs=tol), (u, v)
        sizes.append(local.res.num_nodes)
        return start

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refcut._LocalFlow, "_join", join_and_compare)
        yield sizes


@settings(max_examples=150, deadline=None)
@given(case=local_cases(alphas=(0.5, 1.0, 3.0), kappas=(1.0 + 1e-6, 1.5, 10.0)))
def test_a_grown_residual_holds_the_capacities_of_a_fresh_subnetwork(case):
    with _each_grown_residual_checked(*case):
        assert_local_equals_global(*case)


def test_a_grown_residual_holds_the_capacities_on_named_cases():
    for g, seed_ids, beta in ((star_graph(8), [1, 2, 3], 1e-2), (path_graph(40), [19, 20], 0.05)):
        spec = AugmentedGraphSpec(alpha=1.0, beta=beta, seed=seed_ids)
        with _each_grown_residual_checked(spec, g) as sizes:
            assert_local_equals_global(spec, g)
        assert len(sizes) >= 2, sizes  # the solve grew more than once


def test_a_grow_round_leaves_the_first_network_alone():
    # The hub, pulled in with every neighbour inside, takes in more than
    # its own sink arc holds: the grown residual starts with a surplus.
    g = star_graph(8)
    spec = AugmentedGraphSpec(alpha=1.0, beta=1e-3, seed=range(1, 8))
    net, _, res, flow, (starts, surplus) = _one_grow_round(spec, g)
    assert starts and flow > 0.0
    assert res.num_nodes == net.num_nodes + 1
    assert net.capacity.tobytes() == _subnetwork(spec, g, spec.seed)[0].capacity.tobytes()
    lists = [res.head, res.rev, res.first, res.end]
    assert not any(x is y for x in lists for y in net._lists)


def test_refcut_reaches_a_residual_only_through_its_methods():
    """refcut runs no solver of the engine's and never indexes a residual's lists."""
    import ast
    import inspect

    from localcluster import refcut

    for name in ("_dinic", "_bfs_levels", "_return_excess", "_push_relabel"):
        assert not hasattr(refcut, name), name
    allowed = {"run", "add_nodes", "add_pairs", "take", "num_nodes", "source", "sink"}
    used = set()
    for node in ast.walk(ast.parse(inspect.getsource(refcut))):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in ("res", "_Residual")) or (
                isinstance(owner, ast.Attribute) and owner.attr == "res"
            ):
                used.add(node.attr)
    assert used and used <= allowed, used - allowed


def assert_a_deep_local_solve_takes_rows_in_proportion_to_the_nodes_it_touches(n):
    """``local_flow_improve`` at delta 0.1 on path(n), seeded by its 20 middle nodes.

    Growth adds one or two nodes per round for about a hundred rounds;
    each node's row enters the call's one residual once, and the whole
    refinement call builds one network, its first round's.
    """
    from localcluster import flowcluster, flownet, local_flow_improve, refcut

    rows, networks, solves = [], [], []
    init, add_nodes, subnetwork = flownet._Residual.__init__, flownet._Residual.add_nodes, refcut._subnetwork
    solve = flowcluster.solve_maxflow_local

    def count_rows(res, net, cap):
        rows.append(net.num_nodes - 2)  # the first round's members
        init(res, net, cap)

    def count_nodes(res, widths):
        rows.append(len(widths))
        return add_nodes(res, widths)

    def count_network(spec, g, members):
        networks.append(members.size)
        return subnetwork(spec, g, members)

    def count_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flownet._Residual, "__init__", count_rows)
        mp.setattr(flownet._Residual, "add_nodes", count_nodes)
        mp.setattr(refcut, "_subnetwork", count_network)
        mp.setattr(flowcluster, "solve_maxflow_local", count_solve)
        res = local_flow_improve(path_graph(n), range(n // 2 - 10, n // 2 + 10), delta=0.1)
    touched = res.touched_nodes
    assert 100 < touched < n
    assert sum(rows) <= touched
    assert len(networks) == len(solves) == 1 and sum(networks) <= touched


def test_a_deep_local_solve_takes_rows_in_proportion_to_the_nodes_it_touches():
    assert_a_deep_local_solve_takes_rows_in_proportion_to_the_nodes_it_touches(3000)


def test_a_local_solve_on_path_5000_takes_one_network_and_a_row_per_touched_node():
    assert_a_deep_local_solve_takes_rows_in_proportion_to_the_nodes_it_touches(5000)


# -- the certificate of a grown cut, and solves that never grow ------------------------


@contextlib.contextmanager
def _graph_certificates():
    """Record the side of each cut checked against its capacity in the graph, while the block runs."""
    from localcluster import refcut

    sides = []
    cut = refcut._augmented_cut

    def spy(spec, g, side):
        sides.append(side)
        return cut(spec, g, side)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refcut, "_augmented_cut", spy)
        yield sides


def test_a_grown_cut_is_certified_from_the_graph():
    """The local solve equals the whole-network solve in its side and its flow. Every
    solve checks its cut once, against the cut's capacity in the graph, whether it
    grew or not, also where the side holds nodes that joined after the first round."""
    left_the_first_round = []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=local_cases(alphas=(1.0, 3.0, 10.0), kappas=(1.0 + 1e-6, 1.5)))
    def check(case):
        spec, g = case
        ref = solve_maxflow(materialize(spec, g))
        with _graph_certificates() as sides:
            sol, explored, _ = solve_maxflow_local(spec, g)
        assert sol.flow_value == pytest.approx(ref.flow_value, rel=1e-9)
        assert_ids(sol.s_side, ref.s_side)
        assert len(sides) == 1
        assert_ids(sides[0], sol.s_side)
        if explored.size > spec.seed.size:  # the solve grew
            left_the_first_round.append(not np.isin(sol.s_side, spec.seed).all())

    check()
    assert sum(left_the_first_round) >= 10, left_the_first_round


def _walk_every_member(split, res, flow):
    """The violators of ``_Split.violators`` by a fresh walk over every row, each tag's share
    summed into its node in walk order, skipping the tags of joined nodes (capacity 0)."""
    flows = res.run(res.sink)
    ends = split.ends[split.slot].tolist()
    inflow = {}
    for _, p, own, lo, hi in split.rows:
        beyond = flows[p] - own
        if beyond > 0.0:
            for i in range(lo, hi):
                c = split.cap[i]
                if c == 0.0:
                    continue
                inflow[ends[i]] = inflow.get(ends[i], 0.0) + (beyond if beyond < c else c)
                beyond -= c
                if beyond <= 0.0:
                    break
    slack = 1e-12 * max(1.0, flow)
    over = sorted((j, f) for j, f in inflow.items() if f > split.beta * split.degrees[j] + slack)
    return over or None


@settings(max_examples=150, deadline=None)
@given(case=local_cases(alphas=(0.5, 1.0, 3.0), kappas=(1.0 + 1e-6, 1.5, 10.0)))
def test_the_split_of_what_moved_equals_a_walk_of_every_member(case):
    """A walk that splits again only the rows whose flow moved or whose tags lost
    an outside node finds, bit for bit, the violators and inflows of a walk over
    every member."""
    from localcluster import refcut

    violators = refcut._Split.violators

    def checked(split, res, flow):
        want = _walk_every_member(split, res, flow)
        got = violators(split, res, flow)
        assert got == want
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refcut._Split, "violators", checked)
        assert_local_equals_global(*case)


def _grown_named_case():
    spec = AugmentedGraphSpec(alpha=1.0, beta=0.05, seed=[19, 20])
    return spec, path_graph(40)


@pytest.mark.parametrize(
    "name, broken, message",
    [
        ("a flow below the maximum", lambda flow, reach, res: (0.5 * flow, reach), "duality violated"),
        ("a reachable sink", lambda flow, reach, res: (flow, _with(reach, res.sink, True)), "the sink is reachable"),
        ("a side of every member", lambda flow, reach, res: (flow, _with(~reach | reach, res.sink, False)), "duality violated"),
        ("a side of one seed node", lambda flow, reach, res: (flow, _seed_side(reach, res)), "duality violated"),
    ],
)
def test_a_wrong_grown_cut_raises(name, broken, message):
    """Each grow round's flow or reach is spoiled; the graph-capacity check must refuse the cut."""
    from localcluster import refcut

    spec, g = _grown_named_case()
    augment, rounds = refcut._augment, []

    def spoiled(res, flow, starts, surplus):
        rounds.append(len(starts))
        flow, reach = augment(res, flow, starts, surplus)
        return broken(flow, reach, res) if len(rounds) > 1 else (flow, reach)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refcut, "_augment", spoiled)
        with pytest.raises(AssertionError, match=message):
            solve_maxflow_local(spec, g)
    assert len(rounds) > 2, name  # the solve grew


def _with(mask, at, value):
    mask = mask.copy()
    mask[at] = value
    return mask


def _seed_side(reach, res):
    """The source and one of the first round's members (here the seed, nodes 0 and 1)."""
    mask = np.zeros_like(reach)
    mask[[0, res.source]] = True
    return mask


def _planted(blocks, size, seed):
    """Blocks of ``size`` nodes, in-block edges at 0.3 and cross edges at 0.002, plus a ring; weights in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    n = blocks * size
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < np.where(iu // size == iv // size, 0.3, 0.002)
    ring, after = np.arange(n), (np.arange(n) + 1) % n
    lo, hi = np.concatenate((iu[keep], np.minimum(ring, after))), np.concatenate((iv[keep], np.maximum(ring, after)))
    codes = np.unique(lo * n + hi)
    g = Graph.from_edges(n, codes // n, codes % n, rng.uniform(0.5, 2.0, codes.size))
    seeds = []
    for block in range(4):
        inside = rng.choice(np.arange(block * size, (block + 1) * size), 25, replace=False)
        outside = rng.choice(np.setdiff1d(np.arange(n), np.arange(block * size, (block + 1) * size)), 5, replace=False)
        seeds.append(np.concatenate((inside, outside)))
    return g, seeds


@pytest.mark.parametrize(
    "name, g, seeds, delta",
    [
        # At delta = 1 these seeds grow (so do the ring benchmark's); at 10
        # the first round has no violator.
        ("a ring of cliques", ring_of_cliques(200, 10), [range(10), [*range(30, 42), 29]], 10.0),
        ("planted blocks", *_planted(10, 40, seed=3), 3.0),
    ],
)
def test_a_solve_that_never_grows_builds_no_growth_index(name, g, seeds, delta):
    """A local solve whose first round has no violator decides so from the split
    alone: no node joins, so it builds no growth index. The later rounds of the
    call scale that flow, and every round's cut, the first one's too, is checked
    once against its capacity in the graph."""
    from localcluster import local_flow_improve, refcut

    splits, flows, joins = [], [], []
    split_init, flow_init, join = refcut._Split.__init__, refcut._LocalFlow.__init__, refcut._LocalFlow._join

    def count_split(self, *args):
        splits.append(1)
        split_init(self, *args)

    def keep_flow(self, *args):
        flows.append(self)
        flow_init(self, *args)

    def count_join(self, found):
        joins.append(found)
        return join(self, found)

    with pytest.MonkeyPatch.context() as mp, _graph_certificates() as sides:
        mp.setattr(refcut._Split, "__init__", count_split)
        mp.setattr(refcut._LocalFlow, "__init__", keep_flow)
        mp.setattr(refcut._LocalFlow, "_join", count_join)
        later = 0
        for seed in seeds:
            checked = len(sides)
            res = local_flow_improve(g, seed, delta=delta)
            assert res.touched_nodes < g.n, name  # solved locally
            assert len(sides) - checked == res.iterations, name
            later += res.iterations - 1
    assert len(splits) == len(flows) == len(seeds) and not joins and later, name
    assert all(flow.node is None for flow in flows), name


# -- one local flow per refinement call, scaled between rounds ------------------------


def _kept_rounds(g, seed_ids, kappa, max_iters=50):
    """refine_by_flow's rounds on one kept local flow, whatever the crossover.

    Yields (spec, current set, the kept flow, its solution) per round: the
    first round from ``solve_maxflow_local``, every later one from
    ``_LocalFlow.resolve``, which must not fall back.
    """
    seed = np.asarray(seed_ids, dtype=np.int64)
    vol_r = float(g.degrees[seed].sum())
    eps = kappa * vol_r / (g.total_volume - vol_r)
    obj = cut(g, seed) / vol_r
    current, flow = seed, None
    for _ in range(max_iters):
        spec = AugmentedGraphSpec(alpha=obj, beta=math.inf if math.isinf(eps) else obj * eps, seed=seed)
        if flow is None:
            sol, _, flow = solve_maxflow_local(spec, g)
        else:
            sol = flow.resolve(spec)
        yield spec, current, flow, sol
        if not sol.s_side.size:
            return
        cand = relative_conductance(g, sol.s_side, seed, kappa=kappa)
        if not cand < obj * (1.0 - 1e-12):
            return
        current, obj = sol.s_side, cand


@st.composite
def refine_cases(draw):
    """A graph with 2-12 nodes, a seed of one node up to all nodes but one, and a kappa."""
    n = draw(st.integers(2, 12))
    g = random_connected_graph(n, seed=draw(st.integers(0, 10**6)), weighted=draw(st.booleans()))
    seed_ids = sorted(draw(st.permutations(range(n)))[: draw(st.integers(1, n - 1))])
    return g, seed_ids, draw(st.sampled_from((1.0 + 1e-6, 1.5, 10.0, math.inf)))


def test_every_round_of_a_kept_flow_solves_as_a_fresh_one():
    """Each later round scales the kept flow: right after the scaling, every arc
    pair holds the capacities of a network built fresh on the members at the new
    scales and s times its flow. Each walk of the split finds what a walk of
    every member at the round's scales finds. The round's side and flow value
    equal those of a fresh local solve from the seed and of the whole network."""
    from localcluster import flownet, refcut

    grew_later = []  # per later round: did the kept flow grow in it

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=refine_cases())
    def check(case):
        g, seed_ids, kappa = case
        scale, resolve, violators = flownet._Residual.scale, refcut._LocalFlow.resolve, refcut._Split.violators
        scaled, kept = [], {}

        def checked_violators(split, res, flow):
            got = violators(split, res, flow)
            assert got == _walk_every_member(split, res, flow)
            return got

        def spy_resolve(flow, spec):
            kept.update(flow=flow, spec=flow.spec, next=spec)
            return resolve(flow, spec)

        def checked_scale(res, s, sink_drop):
            ids = kept["flow"].ids.tolist()
            before = _capacities(kept["spec"], g, res, ids)
            scale(res, s, sink_drop)
            after = _capacities(kept["next"], g, res, ids)
            tol = 1e-12 * max(1.0, sum(c + c_twin for *_, c, c_twin, _, _ in before))
            for (u, v, c, _, r, _), (*_, c2, c2_twin, r2, r2_twin) in zip(before, after):
                assert r2 + r2_twin == pytest.approx(c2 + c2_twin, abs=tol), (u, v)
                assert c2 - r2 == pytest.approx(s * (c - r), abs=tol), (u, v)  # the flow along u -> v
                assert r2 >= -tol and r2_twin >= -tol
            scaled.append(s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flownet._Residual, "scale", checked_scale)
            mp.setattr(refcut._LocalFlow, "resolve", spy_resolve)
            mp.setattr(refcut._Split, "violators", checked_violators)
            size, rounds = None, 0
            for spec, current, flow, sol in _kept_rounds(g, seed_ids, kappa):
                ref = solve_maxflow(materialize(spec, g))
                fresh, _, _ = solve_maxflow_local(spec, g)
                assert_ids(sol.s_side, ref.s_side)
                assert_ids(sol.s_side, fresh.s_side)
                assert sol.flow_value == pytest.approx(ref.flow_value, rel=1e-9)
                assert sol.flow_value == pytest.approx(fresh.flow_value, rel=1e-9)
                if size is not None:
                    grew_later.append(flow.ids.size > size)
                size, rounds = flow.ids.size, rounds + 1
        # Every later round scaled the kept flow once, by a factor in (0, 1).
        assert len(scaled) == rounds - 1
        assert all(0.0 < s < 1.0 for s in scaled)

    check()
    assert len(grew_later) >= 30 and sum(grew_later) >= 10, (len(grew_later), sum(grew_later))


@pytest.mark.parametrize(
    "name, kept_beta, alpha, beta",
    [
        # Scaling cannot make a finite sink scale infinite, or the reverse.
        ("an infinite sink scale after a finite one", 0.5, 0.5, math.inf),
        ("a finite sink scale after an infinite one", math.inf, 0.5, 0.25),
        ("another beta/alpha", 0.5, 0.5, 0.1),
        ("s = 1", 0.5, 1.0, 0.5),
        ("s > 1", 0.5, 2.0, 1.0),
        ("s = 0", 0.5, 0.0, 0.0),
    ],
)
def test_a_kept_flow_that_scaling_cannot_reach_is_left_as_it_was(name, kept_beta, alpha, beta):
    # A triangle 0-1-2 with a tail 2-3-4, seed {0, 1}.
    g = Graph.from_edges(5, [0, 0, 1, 2, 3], [1, 2, 2, 3, 4])
    _, _, flow = solve_maxflow_local(AugmentedGraphSpec(alpha=1.0, beta=kept_beta, seed=[0, 1]), g)
    assert not flow.net.infinite.any()  # a flow from the seed holds no sentinel
    before = (flow.spec, flow.value, list(flow.res.cap))
    with pytest.raises(AssertionError, match="cannot be scaled"):
        flow.resolve(AugmentedGraphSpec(alpha=alpha, beta=beta, seed=[0, 1]))
    assert (flow.spec, flow.value, list(flow.res.cap)) == before, name


def test_the_loop_stops_at_a_zero_objective():
    """mqi on a graph of three components reaches objective 0 in its first round,
    and no later round could decrease it: the call stops there, with the one network
    the first round built and no scaled round (which could not scale to alpha = 0)."""
    from localcluster import mqi, refcut

    g = Graph.from_edges(9, [0, 1, 0, 3, 4, 3, 6, 7], [1, 2, 2, 4, 5, 5, 7, 8])
    networks, resolved = [], []
    subnetwork, resolve = refcut._subnetwork, refcut._LocalFlow.resolve

    def count_network(spec, g, members):
        networks.append(spec.alpha)
        return subnetwork(spec, g, members)

    def count_resolve(flow, spec):
        resolved.append(spec.alpha)
        return resolve(flow, spec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refcut, "_subnetwork", count_network)
        mp.setattr(refcut._LocalFlow, "resolve", count_resolve)
        res = mqi(g, [0, 1, 2, 3])
    assert res.set_ids == (0, 1, 2) and res.history == (0.25, 0.0) and res.iterations == 1
    assert networks == [0.25] and resolved == []
    assert res.touched_nodes == 4


# -- one materialized network, re-scaled between solves -------------------------------


def _engine_lists(monkeypatch):
    """Record the residual lists (head, rev, first, cap) each push-relabel solve starts from."""
    from localcluster import flownet

    seen = []
    push_relabel = flownet._push_relabel

    def spy(res, source, sink):
        seen.append((list(res.head), list(res.rev), list(res.first), _bits(res.cap, np.float64)))
        return push_relabel(res, source, sink)

    monkeypatch.setattr(flownet, "_push_relabel", spy)
    return seen


SCALES = [0.02, 0.1, 0.5, 1.0, 3.0]


@st.composite
def rescale_runs(draw):
    """A graph, a seed of 1 to n-1 nodes, and 2-4 (alpha, beta) rounds, the first at positive scales.

    As in refine_by_flow, beta is 0 only where alpha is.
    """
    n = draw(st.integers(2, 14))
    g = random_connected_graph(n, seed=draw(st.integers(0, 10**6)), weighted=draw(st.booleans()))
    seed_ids = sorted(draw(st.permutations(range(n)))[: draw(st.integers(1, n - 1))])
    first = st.tuples(st.sampled_from(SCALES), st.sampled_from(SCALES + [math.inf]))
    later = st.tuples(st.sampled_from([0.0] + SCALES), st.sampled_from(SCALES + [math.inf])) | st.just((0.0, 0.0))
    rounds = [draw(first)] + draw(st.lists(later, min_size=1, max_size=3))
    return g, seed_ids, rounds


@settings(max_examples=300, deadline=None)
@given(case=rescale_runs())
def test_a_rescaled_network_solves_as_a_fresh_one(case):
    g, seed_ids, rounds = case
    with pytest.MonkeyPatch.context() as mp:
        assert_rescaled_solves_match(g, seed_ids, rounds, _engine_lists(mp))


def assert_rescaled_solves_match(g, seed_ids, rounds, seen):
    net = None
    for alpha, beta in rounds:
        spec = AugmentedGraphSpec(alpha=alpha, beta=beta, seed=seed_ids)
        net = materialize(spec, g) if net is None else rescale(net, spec, g)
        got = solve_maxflow(net)
        fresh = materialize(spec, g)
        want = solve_maxflow(fresh)
        assert got.flow_value == want.flow_value
        assert_ids(got.s_side, want.s_side)
        # The solve's residuals: the flow leaves the source.
        residual = push_relabel_residuals(net)
        from_source = net.head[1::2] == net.source
        sent = net.capacity[0::2][from_source] - residual[0::2][from_source]
        assert sent.sum() == pytest.approx(got.flow_value, rel=1e-12, abs=1e-12)
        if alpha > 0.0 and beta > 0.0:  # every terminal arc has positive capacity
            assert seen[-2] == seen[-1]
            assert _bits(residual, np.float64) == _bits(push_relabel_residuals(fresh), np.float64)
            assert _bits(net.capacity, np.float64) == _bits(fresh.capacity, np.float64)
            assert net.infinite.tobytes() == fresh.infinite.tobytes()


def test_rescale_sets_the_sentinel_by_the_rule_of_freeze():
    g = random_connected_graph(9, seed=12)
    net = materialize(AugmentedGraphSpec(alpha=0.5, beta=0.2, seed=range(3)), g)
    solve_maxflow(net)
    rescaled = rescale(net, AugmentedGraphSpec(alpha=0.25, beta=math.inf, seed=range(3)), g)
    finite = rescaled.capacity[~rescaled.infinite].tolist()
    assert rescaled.infinite[0::2].sum() == 6  # one sink arc per node outside the seed
    assert (rescaled.capacity[rescaled.infinite] == 2.0 * sum(finite) + 1.0).all()
    assert not net.infinite.any()  # the network it came from keeps its capacities


def test_rescale_rejects_a_network_that_lacks_an_attachment():
    g = random_connected_graph(6, seed=4)
    net = materialize(AugmentedGraphSpec(alpha=0.0, beta=1.0, seed=[0, 1]), g)
    with pytest.raises(ParameterError):
        rescale(net, AugmentedGraphSpec(alpha=1.0, beta=1.0, seed=[0, 1]), g)
    with pytest.raises(ParameterError):
        rescale(net, AugmentedGraphSpec(alpha=0.0, beta=1.0, seed=[0, 2]), g)
    with pytest.raises(ParameterError):
        rescale(net, AugmentedGraphSpec(alpha=0.0, beta=1.0, seed=[0, 1]), random_connected_graph(7, seed=4))
