"""Augmented source/sink construction: closed-form cut values, the
materialized network, and the strongly-local solver against the global one."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcluster import (
    AugmentedGraphSpec,
    FlowNetwork,
    ParameterError,
    augmented_cut_value,
    cut_capacity,
    materialize,
    solve_maxflow,
    solve_maxflow_local,
)
from localcluster.refcut import _subnetwork
from localcluster.synth import random_connected_graph


def _fi_spec(g, seed_ids, alpha=1.0):
    """Source mass = degrees on the seed set, sink scale = alpha * volume ratio."""
    vol_r = float(sum(g.degrees[i] for i in seed_ids))
    ratio = vol_r / (g.total_volume - vol_r)
    return AugmentedGraphSpec(
        alpha=alpha,
        beta=alpha * ratio,
        gamma=1.0,
        source_weight={int(i): float(g.degrees[i]) for i in seed_ids},
    )


def _mqi_spec(g, seed_ids, alpha):
    """Confined variant: infinite sink scale outside the seed set."""
    totals = np.zeros(g.n)
    for i in seed_ids:
        totals[i] = g.degrees[i]
    # Outside the seed set the total equals the degree, all of it sink mass.
    outside = np.ones(g.n, dtype=bool)
    outside[list(seed_ids)] = False
    totals[outside] = g.degrees[outside]
    return AugmentedGraphSpec(
        alpha=alpha,
        beta=math.inf,
        gamma=1.0,
        source_weight={int(i): float(g.degrees[i]) for i in seed_ids},
        total_weight=totals,
    )


class TestSpecValidation:
    def test_negative_scales_rejected(self):
        with pytest.raises(ParameterError):
            AugmentedGraphSpec(alpha=-1.0, beta=1.0, gamma=1.0, source_weight={0: 1.0})
        with pytest.raises(ParameterError):
            AugmentedGraphSpec(alpha=1.0, beta=-1.0, gamma=1.0, source_weight={0: 1.0})
        with pytest.raises(ParameterError):
            AugmentedGraphSpec(alpha=1.0, beta=1.0, gamma=0.0, source_weight={0: 1.0})

    def test_source_weights_cleaned(self):
        spec = AugmentedGraphSpec(
            alpha=1.0, beta=1.0, gamma=1.0, source_weight={0: 1.0, 1: 0.0}
        )
        assert spec.source_weight == {0: 1.0}
        with pytest.raises(ParameterError):
            AugmentedGraphSpec(alpha=1.0, beta=1.0, gamma=1.0, source_weight={0: -1.0})
        with pytest.raises(ParameterError):
            AugmentedGraphSpec(alpha=1.0, beta=1.0, gamma=1.0, source_weight={0: 0.0})

    def test_source_mass_may_not_exceed_total(self, triangle):
        spec = AugmentedGraphSpec(
            alpha=1.0, beta=1.0, gamma=1.0, source_weight={0: 5.0}
        )
        with pytest.raises(ParameterError):
            spec.validate_against(triangle)

    def test_sink_weights_clip_and_name_the_first_bad_node(self):
        g = random_connected_graph(8, seed=3)
        deg = g.degrees
        spec = AugmentedGraphSpec(
            alpha=1.0, beta=1.0, gamma=1.0,
            source_weight={2: float(deg[2]) * (1.0 + 1e-12), 5: 0.5 * float(deg[5])},
        )
        assert spec.sink_weights(g, np.array([2, 5, 6])).tolist() == [0.0, deg[5] - 0.5 * deg[5], deg[6]]
        bad = AugmentedGraphSpec(
            alpha=1.0, beta=1.0, gamma=1.0, source_weight={1: 2.0 * deg[1], 4: 3.0 * deg[4]}
        )
        with pytest.raises(ParameterError, match="at node 4"):
            bad.sink_weights(g, np.array([4, 1]))
        with pytest.raises(ParameterError, match="at node 1"):
            bad.validate_against(g)

    def test_out_of_range_support(self, triangle):
        spec = AugmentedGraphSpec(
            alpha=1.0, beta=1.0, gamma=1.0, source_weight={9: 1.0}
        )
        with pytest.raises(ParameterError):
            spec.validate_against(triangle)


class TestCutValue:
    def test_empty_set_pays_all_source_mass(self, dumbbell):
        spec = _fi_spec(dumbbell, (0, 1, 2, 3), alpha=2.0)
        total_h = sum(spec.source_weight.values())
        assert augmented_cut_value(spec, dumbbell, ()) == pytest.approx(
            2.0 * total_h
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
        spec = AugmentedGraphSpec(
            alpha=1.0, beta=1.0, gamma=1.0, source_weight={0: 1.0}
        )
        net = materialize(spec, triangle)
        assert net.num_nodes == 5
        # One source arc (node 0), three sink arcs (every node keeps sink
        # mass: 2-1 for node 0, full degree for the others), three edges.
        assert len(net.head) == 2 * (1 + 3 + 3)

    def test_zero_weight_attachments_omitted(self, triangle):
        spec = AugmentedGraphSpec(
            alpha=1.0, beta=1.0, gamma=1.0, source_weight={0: 2.0}
        )
        net = materialize(spec, triangle)
        # Node 0 carries no sink mass now: 1 source + 2 sink + 3 edges.
        assert len(net.head) == 2 * (1 + 2 + 3)

    def test_cut_capacity_matches_formula_exhaustively(self):
        g = random_connected_graph(8, seed=71, weighted=True)
        rng = random.Random(71)
        support = {i: rng.uniform(0.5, 2.0) for i in range(4)}
        spec = AugmentedGraphSpec(
            alpha=0.7, beta=1.3, gamma=0.9, source_weight=support
        )
        net = materialize(spec, g)
        net.freeze()
        for mask in range(1 << g.n):
            s = [v for v in range(g.n) if mask >> v & 1]
            direct = augmented_cut_value(spec, g, s)
            assert cut_capacity(net, s) == pytest.approx(direct, rel=1e-12)

    def test_maxflow_equals_min_formula_value(self):
        g = random_connected_graph(8, seed=13, weighted=False)
        spec = _fi_spec(g, (0, 1, 2))
        net = materialize(spec, g)
        net.freeze()
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
            net.freeze()
            ref = solve_maxflow(net)
            local_sol, explored = solve_maxflow_local(spec, g)
            assert local_sol.flow_value == pytest.approx(ref.flow_value, rel=1e-9)
            assert local_sol.s_side == ref.s_side
            assert local_sol.s_side <= explored
            assert explored <= set(range(g.n))

    def test_confined_solver_never_leaves_support(self, dumbbell):
        spec = _mqi_spec(dumbbell, (0, 1, 2, 3), alpha=0.12)
        sol, explored = solve_maxflow_local(spec, dumbbell)
        assert sol.s_side <= {0, 1, 2, 3}
        assert explored == {0, 1, 2, 3}

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
                sol, _ = solve_maxflow_local(spec, g)
                kept = sum(
                    g.degrees[i] for i in sol.s_side if i in spec.source_weight
                )
                assert kept >= prev - 1e-12
                prev = kept

    def test_warm_start_changes_nothing(self, dumbbell):
        spec = _fi_spec(dumbbell, (0, 1, 2, 3))
        cold, _ = solve_maxflow_local(spec, dumbbell)
        warm, explored = solve_maxflow_local(spec, dumbbell, warm_start=range(6))
        assert warm.flow_value == pytest.approx(cold.flow_value)
        assert warm.s_side == cold.s_side
        assert explored == set(range(6))

    def test_out_of_range_warm_start_rejected(self, dumbbell):
        spec = _fi_spec(dumbbell, (0, 1, 2, 3))
        for bad in ([-1], [dumbbell.n]):
            with pytest.raises(ParameterError):
                solve_maxflow_local(spec, dumbbell, warm_start=bad)

    def test_infinite_source_scale_rejected(self, dumbbell):
        spec = AugmentedGraphSpec(
            alpha=math.inf, beta=1.0, gamma=1.0, source_weight={0: 1.0}
        )
        with pytest.raises(ParameterError):
            solve_maxflow_local(spec, dumbbell)


# -- the array builder against the per-arc loop it replaced ---------------------


def reference_subnetwork(spec, g, members):
    """Add the arcs one member at a time: source arc, sink arc, then neighbours."""
    members = [int(v) for v in members]
    local_id = {v: k for k, v in enumerate(members)}
    m = len(members)
    net = FlowNetwork(m + 2, source=m, sink=m + 1)
    tagged = []
    for k, v in enumerate(members):
        hv = spec.source_weight.get(v, 0.0)
        if spec.alpha * hv > 0.0:
            net.add_arc(net.source, k, spec.alpha * hv)
        total = float(g.degrees[v]) if spec.total_weight is None else float(spec.total_weight[v])
        z = max(total - hv, 0.0)
        if z > 0.0 and spec.beta > 0.0:
            net.add_arc(k, net.sink, spec.beta * z)
        ids, ws = g.neighbors(v)
        for j, w in zip(ids.tolist(), ws.tolist()):
            c = spec.gamma * w
            kj = local_id.get(j)
            if kj is None:
                tagged.append((net.add_arc(k, net.sink, c), j))
            elif v < j:
                net.add_arc(k, kj, c, c)
    return net, tagged


def _bits(values, dtype):
    return np.asarray(values, dtype=dtype).tobytes()


def assert_builders_agree(spec, g, members):
    members = np.asarray(sorted(members), dtype=np.int64)
    net, tag_arcs, tag_ends = _subnetwork(spec, g, members)
    ref, tagged = reference_subnetwork(spec, g, members)
    assert (net.num_nodes, net.source, net.sink) == (ref.num_nodes, ref.source, ref.sink)
    assert _bits(net.head, np.int64) == _bits(ref.head, np.int64)
    assert _bits(net.cap, np.float64) == _bits(ref.cap, np.float64)
    assert list(zip(tag_arcs.tolist(), tag_ends.tolist())) == tagged
    net.freeze()
    ref.freeze()
    for name in ("head", "cap", "cap_init", "infinite", "order", "first"):
        assert getattr(net, name).tobytes() == getattr(ref, name).tobytes(), name


@st.composite
def builder_cases(draw):
    """A graph, a spec on it and a member set that holds the source support."""
    n = draw(st.integers(2, 14))
    g = random_connected_graph(n, seed=draw(st.integers(0, 10**6)), weighted=draw(st.booleans()))
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    # Full degree leaves no sink mass; a zero entry is dropped from the support.
    masses = {
        v: draw(st.sampled_from([1.0, 0.5, 0.25, 0.0])) * float(g.degrees[v]) for v in support
    }
    if not any(masses.values()):
        masses[support[0]] = float(g.degrees[support[0]])
    confined = draw(st.booleans())
    spec = AugmentedGraphSpec(
        alpha=draw(st.sampled_from([0.0, 0.3, 1.0, 2.5])),
        beta=math.inf if confined else draw(st.sampled_from([0.0, 0.7, 3.0])),
        gamma=draw(st.sampled_from([1.0, 0.9])),
        source_weight=masses,
        total_weight=g.degrees.copy() if confined and draw(st.booleans()) else None,
    )
    extra = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return spec, g, set(spec.source_weight) | set(extra)


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
    # beta = inf with explicit totals.
    assert_builders_agree(_mqi_spec(g, (0, 3, 4), alpha=0.4), g, {0, 3, 4, 7})
    # A zero source mass is dropped; full-degree masses omit the sink arcs.
    zero = AugmentedGraphSpec(
        alpha=1.0, beta=0.5, gamma=1.0,
        source_weight={0: float(g.degrees[0]), 3: 0.0, 4: float(g.degrees[4])},
    )
    assert zero.source_weight.keys() == {0, 4}
    assert_builders_agree(zero, g, {0, 3, 4})
    net, tag_arcs, _ = _subnetwork(zero, g, np.array([0, 3, 4]))
    into_sink = 2 * np.flatnonzero(net.head[0::2] == net.sink)
    attached = sorted(set(into_sink.tolist()) - set(tag_arcs.tolist()))
    assert [int(net.head[a ^ 1]) for a in attached] == [1]  # node 3 alone keeps sink mass
