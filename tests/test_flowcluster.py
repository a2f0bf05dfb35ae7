"""Flow-based refinement entry points: fixed-point quality, confinement,
the delta interpolation, and locality of the grow-on-demand variant."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcluster import (
    Graph,
    InvalidSetError,
    ParameterError,
    SeedTooLargeError,
    conductance,
    cut,
    flow_improve,
    local_flow_improve,
    local_flow_improve_scaled,
    mqi,
    refine_by_flow,
    relative_conductance,
    volume,
)
from localcluster.flownet import solve_maxflow
from localcluster.oracles import (
    brute_min_relative_conductance,
    brute_min_subset_ratio,
)
from localcluster.refcut import AugmentedGraphSpec, materialize, solve_maxflow_local
from localcluster.synth import path_graph, random_connected_graph, ring_of_cliques, star_graph
from test_flownet import assert_ids

SEED = (0, 1, 2, 3)


def assert_same_result(a, b):
    """Equal in every field but the run time, history included."""
    assert dataclasses.replace(a, runtime_ms=0.0) == dataclasses.replace(b, runtime_ms=0.0)
    assert a.history == b.history


class TestDumbbell:
    def test_mqi_recovers_left_triangle(self, dumbbell):
        res = mqi(dumbbell, SEED)
        assert res.set_ids == (0, 1, 2)
        assert res.objective == pytest.approx(1.0 / 7.0)
        assert res.objective_name == "cut_over_volume"
        assert res.conductance == pytest.approx(1.0 / 7.0)
        assert res.cut == pytest.approx(1.0)
        assert res.volume == pytest.approx(7.0)

    def test_flow_improve_recovers_left_triangle(self, dumbbell):
        res = flow_improve(dumbbell, SEED)
        assert res.set_ids == (0, 1, 2)
        assert res.objective_name == "seed_relative_conductance"
        assert res.objective == pytest.approx(
            relative_conductance(dumbbell, (0, 1, 2), SEED)
        )

    def test_local_flow_improve_recovers_left_triangle(self, dumbbell):
        res = local_flow_improve(dumbbell, SEED, delta=1.0)
        assert res.set_ids == (0, 1, 2)

    def test_history_strictly_decreasing(self, dumbbell):
        for res in (
            mqi(dumbbell, SEED),
            flow_improve(dumbbell, SEED),
            local_flow_improve(dumbbell, SEED, delta=0.5),
        ):
            assert len(res.history) >= 1
            for earlier, later in zip(res.history, res.history[1:]):
                assert later < earlier

    def test_singleton_seed_is_its_own_fixed_point(self, dumbbell):
        res = mqi(dumbbell, (0,))
        assert res.set_ids == (0,)
        assert res.objective == pytest.approx(1.0)


class TestValidation:
    def test_full_seed_rejected(self, dumbbell):
        everything = tuple(range(dumbbell.n))
        with pytest.raises(SeedTooLargeError):
            mqi(dumbbell, everything)
        with pytest.raises(SeedTooLargeError):
            flow_improve(dumbbell, everything)
        with pytest.raises(SeedTooLargeError):
            local_flow_improve(dumbbell, everything)

    def test_empty_seed_rejected(self, dumbbell):
        with pytest.raises(ParameterError):
            mqi(dumbbell, ())
        with pytest.raises(ParameterError):
            flow_improve(dumbbell, ())
        with pytest.raises(ParameterError):
            local_flow_improve(dumbbell, ())
        with pytest.raises(ParameterError):
            local_flow_improve_scaled(dumbbell, (), kappa=2.0)

    def test_zero_volume_seed_rejected(self):
        g = Graph.from_edges(4, [1, 2], [2, 3])  # node 0 is isolated
        scaled = lambda g, r: local_flow_improve_scaled(g, r, kappa=2.0)  # noqa: E731
        for method in (mqi, flow_improve, local_flow_improve, scaled):
            with pytest.raises(ParameterError):
                method(g, (0,))

    def test_max_iters_positive(self, dumbbell):
        with pytest.raises(ParameterError):
            mqi(dumbbell, SEED, max_iters=0)

    def test_max_iters_must_be_an_integer(self, dumbbell):
        # range(1.5) would escape as a TypeError.
        for method in (mqi, flow_improve, lambda g, r, max_iters: refine_by_flow(g, r, 2.0, max_iters)):
            with pytest.raises(ParameterError, match="max_iters must be an integer"):
                method(dumbbell, SEED, max_iters=1.5)
        assert mqi(dumbbell, SEED, max_iters=np.int64(2)).iterations <= 2

    def test_delta_and_kappa_ranges(self, dumbbell):
        with pytest.raises(ParameterError):
            local_flow_improve(dumbbell, SEED, delta=-0.1)
        # NaN fails every comparison; it is rejected as a delta, not passed
        # on as a NaN kappa.
        with pytest.raises(ParameterError, match=r"delta must be >= 0 \(got nan\)"):
            local_flow_improve(dumbbell, SEED, delta=math.nan)
        with pytest.raises(ParameterError):
            local_flow_improve_scaled(dumbbell, SEED, kappa=0.9)


class TestFixedPoints:
    def test_mqi_matches_exhaustive_subset_search(self):
        rng = random.Random(31406)
        for _ in range(15):
            g = random_connected_graph(rng.randint(5, 10), seed=rng.randint(0, 10**6))
            k = rng.randint(2, g.n - 1)
            seed_ids = sorted(rng.sample(range(g.n), k))
            res = mqi(g, seed_ids)
            _, best = brute_min_subset_ratio(g, seed_ids)
            assert res.objective == pytest.approx(best, abs=1e-9)
            assert set(res.set_ids) <= set(seed_ids)

    def test_flow_improve_matches_exhaustive_search(self):
        rng = random.Random(9034)
        for _ in range(10):
            g = random_connected_graph(rng.randint(5, 9), seed=rng.randint(0, 10**6))
            k = rng.randint(2, g.n - 2)
            seed_ids = sorted(rng.sample(range(g.n), k))
            res = flow_improve(g, seed_ids)
            _, best = brute_min_relative_conductance(g, seed_ids)
            assert res.objective == pytest.approx(best, abs=1e-9)

    def test_flow_improve_never_worse_than_seed(self):
        rng = random.Random(77)
        for _ in range(15):
            g = random_connected_graph(rng.randint(6, 12), seed=rng.randint(0, 10**6))
            seed_ids = sorted(rng.sample(range(g.n), g.n // 2))
            res = flow_improve(g, seed_ids)
            assert res.conductance <= conductance(g, seed_ids) + 1e-12

    def test_result_fields_are_recomputable(self, dumbbell):
        res = flow_improve(dumbbell, SEED)
        assert res.cut == pytest.approx(cut(dumbbell, res.set_ids))
        assert res.volume == pytest.approx(volume(dumbbell, res.set_ids))
        assert res.conductance == pytest.approx(conductance(dumbbell, res.set_ids))
        assert res.iterations <= 50
        assert res.runtime_ms >= 0.0


class TestDeltaInterpolation:
    def test_delta_zero_matches_flow_improve(self):
        rng = random.Random(555)
        for _ in range(10):
            g = random_connected_graph(rng.randint(5, 10), seed=rng.randint(0, 10**6))
            seed_ids = sorted(rng.sample(range(g.n), max(2, g.n // 3)))
            a = local_flow_improve(g, seed_ids, delta=0.0)
            b = flow_improve(g, seed_ids)
            assert a.set_ids == b.set_ids

    def test_huge_delta_matches_mqi(self):
        rng = random.Random(556)
        for _ in range(10):
            g = random_connected_graph(rng.randint(5, 10), seed=rng.randint(0, 10**6))
            seed_ids = sorted(rng.sample(range(g.n), max(2, g.n // 3)))
            a = local_flow_improve(g, seed_ids, delta=1e9)
            b = mqi(g, seed_ids)
            assert a.set_ids == b.set_ids

    def test_kappa_one_is_delta_zero(self, dumbbell):
        a = local_flow_improve_scaled(dumbbell, SEED, kappa=1.0)
        b = flow_improve(dumbbell, SEED)
        assert a.set_ids == b.set_ids

    @staticmethod
    def endpoint_cases(dumbbell, ring20, rng_seed):
        rng = random.Random(rng_seed)
        cases = [(dumbbell, SEED), (ring20, tuple(range(10))), (ring20, (0, 1, 2, 10, 11))]
        for _ in range(8):
            g = random_connected_graph(rng.randint(5, 10), seed=rng.randint(0, 10**6))
            cases.append((g, sorted(rng.sample(range(g.n), max(2, g.n // 3)))))
        return cases

    def test_kappa_one_endpoint_is_flow_improve_in_every_field(self, dumbbell, ring20):
        for g, seed_ids in self.endpoint_cases(dumbbell, ring20, 557):
            full = flow_improve(g, seed_ids)
            assert full.touched_nodes == g.n
            for res in (
                local_flow_improve(g, seed_ids, delta=0.0),
                local_flow_improve_scaled(g, seed_ids, kappa=1.0),
            ):
                assert_same_result(res, full)

    def test_kappa_infinity_endpoint_is_mqi_in_every_field(self, dumbbell, ring20):
        for g, seed_ids in self.endpoint_cases(dumbbell, ring20, 558):
            res = local_flow_improve_scaled(g, seed_ids, kappa=math.inf)
            assert res.objective_name == "cut_over_volume"
            assert_same_result(res, mqi(g, seed_ids))

    def test_volume_bound(self):
        rng = random.Random(873)
        for _ in range(10):
            g = random_connected_graph(rng.randint(6, 12), seed=rng.randint(0, 10**6))
            seed_ids = sorted(rng.sample(range(g.n), g.n // 2))
            vol_r = volume(g, seed_ids)
            if g.total_volume - vol_r <= 0:
                continue
            ratio = vol_r / (g.total_volume - vol_r)
            for delta in (0.5, 1.0, 3.0):
                eps = ratio + delta
                res = local_flow_improve(g, seed_ids, delta=delta)
                bound = vol_r * (1.0 + 2.0 / eps) + cut(g, seed_ids)
                assert res.volume <= bound + 1e-9


class TestLocality:
    def test_planted_clique_is_fixed(self, ring20):
        seed_ids = tuple(range(10))
        for res in (
            mqi(ring20, seed_ids),
            flow_improve(ring20, seed_ids),
            local_flow_improve(ring20, seed_ids, delta=1.0),
        ):
            assert res.set_ids == seed_ids
            assert res.conductance == pytest.approx(2.0 / 92.0)

    def test_local_variant_stays_local(self, ring20):
        seed_ids = tuple(range(10))
        res = local_flow_improve(ring20, seed_ids, delta=1.0)
        assert res.touched_nodes < ring20.n / 4
        full = flow_improve(ring20, seed_ids)
        assert full.touched_nodes == ring20.n

    def test_mqi_touch_is_confined(self, ring20):
        seed_ids = tuple(range(10))
        res = mqi(ring20, seed_ids)
        assert res.touched_nodes <= len(seed_ids)


def _shape_cases(max_n):
    """Long paths, stars and small rings of cliques, with seeds on their hard spots."""
    cases = []
    for n in (6, 9, max_n):
        cases += [(path_graph(n), range(n // 3, 2 * n // 3)), (path_graph(n), range(0, n // 2))]
        cases += [(star_graph(n), range(0, n // 2)), (star_graph(n), range(1, n // 2 + 1))]
    for k, c in ((3, 3), (4, 3), (3, 4)):
        if k * c <= max_n:
            cases += [(ring_of_cliques(k, c), range(c + 1)), (ring_of_cliques(k, c), range(c - 1, 2 * c - 1))]
    return cases + _almost_all_cases()


def _almost_all_cases():
    """Seeds holding every vertex but one: the local solver then runs at a kappa close to 1."""
    graphs = [path_graph(n) for n in (6, 9, 12)] + [star_graph(n) for n in (6, 9, 12)]
    graphs += [random_connected_graph(n, seed=n, weighted=n % 2 == 0) for n in (7, 9, 10, 12)]
    graphs.append(ring_of_cliques(3, 4))
    # Left out: vertex 0 (a path's end, a star's hub, a ring endpoint of a
    # clique) and a middle vertex (inside a clique for the ring).
    return [(g, [v for v in range(g.n) if v != left]) for g in graphs for left in (0, g.n // 2)]


class TestAdversarialShapes:
    @pytest.mark.parametrize("g, seed", _shape_cases(14))
    def test_mqi_matches_exhaustive_subset_search(self, g, seed):
        res = mqi(g, seed)
        _, best = brute_min_subset_ratio(g, seed)
        assert res.objective == pytest.approx(best, abs=1e-9)
        assert set(res.set_ids) <= set(seed)

    @pytest.mark.parametrize("g, seed", _shape_cases(12))
    def test_flow_improve_matches_exhaustive_search(self, g, seed):
        res = flow_improve(g, seed)
        _, best = brute_min_relative_conductance(g, seed)
        assert res.objective == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("g, seed", _shape_cases(12))
    @pytest.mark.parametrize("delta", [0.1, 1.0])
    def test_local_flow_improve_matches_exhaustive_search(self, g, seed, delta):
        res = local_flow_improve(g, seed, delta=delta)
        vol_r = volume(g, seed)
        kappa = 1.0 + delta / (vol_r / (g.total_volume - vol_r))
        _, best = brute_min_relative_conductance(g, seed, kappa=kappa)
        assert res.objective == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("n", [200, 400])
    def test_local_solve_equals_global_solve_on_long_paths(self, n):
        # Growth on a path adds at most one node at each end per round; at
        # alpha = 0.1, delta = 0 the n = 400 solve explores 208 nodes.
        g = path_graph(n)
        seed_ids = range(n // 2 - 10, n // 2 + 10)
        vol_r = volume(g, seed_ids)
        ratio = vol_r / (g.total_volume - vol_r)
        for alpha, delta in ((0.02, 0.1), (0.1, 0.0), (0.1, 3.0), (0.5, 0.1)):
            spec = AugmentedGraphSpec(alpha=alpha, beta=alpha * (ratio + delta), seed=seed_ids)
            ref = solve_maxflow(materialize(spec, g))
            sol, explored, _ = solve_maxflow_local(spec, g)
            assert sol.flow_value == pytest.approx(ref.flow_value, rel=1e-12)
            assert_ids(sol.s_side, ref.s_side)
            assert np.isin(sol.s_side, explored).all()


class TestDeepShapes:
    """Deep networks, where the whole-graph max-flow must not pay one search per augmenting path."""

    def test_flow_improve_on_a_long_path(self):
        res = flow_improve(path_graph(3000), range(1490, 1510))
        assert res.set_ids == tuple(range(1490, 1510))
        assert res.objective == 0.05

    def test_flow_improve_on_a_ring_of_small_cliques(self):
        res = flow_improve(ring_of_cliques(300, 5), range(8))
        assert res.set_ids == tuple(range(10))
        assert res.objective == 0.057221302187745134


class TestCrossover:
    @staticmethod
    def crossover_kappa(g, seed):
        """The kappa at which the volume bound vol(R)(1 + 2/epsilon) + cut(R) equals vol(V)."""
        vol_r, cut_r = volume(g, seed), cut(g, seed)
        ratio = vol_r / (g.total_volume - vol_r)
        return 2.0 / (ratio * ((g.total_volume - cut_r) / vol_r - 1.0))

    @pytest.mark.parametrize(
        "g, seed", [(ring_of_cliques(4, 3), range(4)), (random_connected_graph(12, seed=3), range(4))]
    )
    def test_whole_graph_solve_from_the_bound_on(self, g, seed):
        kappa = self.crossover_kappa(g, seed)
        at = refine_by_flow(g, seed, kappa * (1.0 - 1e-9))
        assert at.touched_nodes == g.n
        best_set, best = brute_min_relative_conductance(g, seed, kappa=kappa * (1.0 - 1e-9))
        assert at.set_ids == best_set.ids
        assert at.objective == pytest.approx(best, abs=1e-9)
        below = refine_by_flow(g, seed, kappa * (1.0 + 1e-9))
        assert below.touched_nodes < g.n
        assert below.set_ids == at.set_ids


def relabel(g, perm):
    """The graph with vertex v renamed perm[v]."""
    tail = np.arange(g.n).repeat(np.diff(g.indptr))
    once = tail < g.indices
    return Graph.from_edges(g.n, perm[tail[once]], perm[g.indices[once]], g.weights[once])


@st.composite
def relabeled_cases(draw):
    n = draw(st.integers(2, 12))
    g = random_connected_graph(n, seed=draw(st.integers(0, 10**6)), weighted=draw(st.booleans()))
    k = draw(st.integers(1, n - 1))
    seed_ids = sorted(draw(st.permutations(range(n)))[:k])
    return g, seed_ids, np.array(draw(st.permutations(range(n))))


@settings(max_examples=100)
@given(case=relabeled_cases())
def test_relabeling_the_vertices_relabels_the_answer(case):
    g, seed_ids, perm = case
    h = relabel(g, perm)
    methods = {
        "mqi": mqi,
        "flow_improve": flow_improve,
        "local_flow_improve(delta=0.1)": lambda g, r: local_flow_improve(g, r, delta=0.1),
        "local_flow_improve(delta=1)": lambda g, r: local_flow_improve(g, r, delta=1.0),
    }
    for name, method in methods.items():
        a, b = method(g, seed_ids), method(h, perm[seed_ids])
        assert b.set_ids == tuple(sorted(perm[list(a.set_ids)].tolist())), name
        assert b.iterations == a.iterations, name
        assert b.objective == pytest.approx(a.objective, rel=1e-12), name


def test_refine_by_flow_hands_on_node_sets(ring20, monkeypatch):
    # The seed is one clique and two nodes of the next, so each call
    # accepts a candidate; kappa = 1 solves the whole network, the others
    # solve locally.
    from localcluster import flowcluster, graph
    from localcluster.graph import NodeSet
    from localcluster.results import ClusterResult

    passed = {"relative_conductance": [], "of_set": []}
    score = flowcluster.relative_conductance
    build = ClusterResult.of_set.__func__
    sort = graph._sorted_ids
    normalized = []

    def spy_score(g, s, r, kappa=1.0):
        # The seed comes as the node set the call made, and the candidate as
        # the node set of the sorted array the max-flow returned.
        passed["relative_conductance"] += [s, r]
        return score(g, s, r, kappa=kappa)

    def spy_build(cls, g, set_ids, *args, **kwargs):
        passed["of_set"].append(set_ids)
        return build(cls, g, set_ids, *args, **kwargs)

    def spy_sort(s):
        normalized.append(1)
        return sort(s)

    monkeypatch.setattr(flowcluster, "relative_conductance", spy_score)
    monkeypatch.setattr(ClusterResult, "of_set", classmethod(spy_build))
    monkeypatch.setattr(graph, "_sorted_ids", spy_sort)
    for kappa in (1.0, 5.0, math.inf):
        assert len(refine_by_flow(ring20, range(12), kappa).history) == 2
    # Each call scores one candidate (two sets; the seed's own objective is
    # cut(R)/vol(R), taken without the functional), builds one result, and
    # sorts only the seed it was handed.
    assert len(passed["relative_conductance"]) == 6 and len(passed["of_set"]) == 3
    assert len(normalized) == 3
    for name, sets in passed.items():
        for ns in sets:
            assert isinstance(ns, NodeSet) and ns.graph is ring20, name
            ids = ns.array
            assert ids.dtype == np.int64 and not ids.flags.writeable, name
            assert (np.diff(ids) > 0).all(), name
    # A plain argument is still checked.
    with pytest.raises(InvalidSetError):
        refine_by_flow(ring20, [0, ring20.n], 1.0)
