"""The reference implementations get their own sanity layer: frozen
hand-checked values, agreement with naive recomputation, and cap hygiene."""

import itertools
import math
import random

import numpy as np
import pytest

from localcluster import (
    OracleCapError,
    ParameterError,
    SeedTooLargeError,
    UnboundedFlowError,
    conductance,
    expansion,
    relative_conductance,
)
from localcluster.oracles import (
    brute_min_conductance,
    brute_min_cut,
    brute_min_expansion,
    brute_min_relative_conductance,
    brute_min_subset_ratio,
    dense_eig_smallest,
    dense_laplacian,
    dense_nnq_prox,
    dense_normalized_laplacian,
    dense_solve,
)
from localcluster.graph import NodeSet
from localcluster.synth import random_connected_graph, ring_of_cliques
from test_flownet import ArcRows


class TestBruteSetSearch:
    def test_dumbbell_conductance(self, dumbbell):
        best, value = brute_min_conductance(dumbbell)
        assert isinstance(best, NodeSet)
        assert best.ids == (0, 1, 2)
        assert value == pytest.approx(1.0 / 7.0)

    def test_dumbbell_expansion(self, dumbbell):
        best, value = brute_min_expansion(dumbbell)
        assert best.ids == (0, 1, 2)
        assert value == pytest.approx(2.0 / 7.0)

    def test_cycle_ties_break_lexicographically(self, c4):
        best, value = brute_min_conductance(c4)
        assert value == pytest.approx(0.5)
        assert best.ids == (0, 1)

    def test_complete_graph_prefers_balanced_pairs(self, k4):
        best, value = brute_min_conductance(k4)
        assert value == pytest.approx(2.0 / 3.0)
        assert best.ids == (0, 1)

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(1873)
        for _ in range(6):
            g = random_connected_graph(rng.randint(4, 9), seed=rng.randint(0, 10**6))
            naive = min(
                conductance(g, s)
                for k in range(1, g.n)
                for s in itertools.combinations(range(g.n), k)
            )
            _, value = brute_min_conductance(g)
            assert value == pytest.approx(naive, abs=1e-12)
            naive_exp = min(
                expansion(g, s)
                for k in range(1, g.n)
                for s in itertools.combinations(range(g.n), k)
            )
            _, value = brute_min_expansion(g)
            assert value == pytest.approx(naive_exp, abs=1e-12)

    def test_relative_conductance_search(self, dumbbell):
        best, value = brute_min_relative_conductance(dumbbell, (0, 1, 2, 3))
        assert best.ids == (0, 1, 2)
        assert value == pytest.approx(1.0 / 7.0)

    def test_relative_conductance_agrees_with_direct(self):
        rng = random.Random(404)
        for _ in range(4):
            g = random_connected_graph(rng.randint(4, 7), seed=rng.randint(0, 10**6))
            r = sorted(rng.sample(range(g.n), g.n // 2))
            if not r:
                continue
            naive = min(
                relative_conductance(g, s, r)
                for k in range(1, g.n + 1)
                for s in itertools.combinations(range(g.n), k)
            )
            _, value = brute_min_relative_conductance(g, r)
            assert value == pytest.approx(naive, abs=1e-12)

    def test_relative_conductance_never_picks_the_whole_vertex_set(self):
        # The seed holds all vertices but one, so V's denominator vol(R) -
        # ratio * vol(V - R) is 0; summed up vertex by vertex it lands a
        # rounding error above the tolerance, and V's cut is 0.
        g = random_connected_graph(12, seed=12, weighted=True)
        r = range(1, 12)
        best, value = brute_min_relative_conductance(g, r)
        assert len(best.ids) < g.n
        assert value == relative_conductance(g, best.ids, r) < math.inf

    def test_relative_conductance_full_seed_rejected(self, dumbbell):
        with pytest.raises(SeedTooLargeError):
            brute_min_relative_conductance(dumbbell, range(6))

    def test_subset_ratio_search(self, dumbbell):
        best, value = brute_min_subset_ratio(dumbbell, (0, 1, 2, 3))
        assert best.ids == (0, 1, 2)
        assert value == pytest.approx(1.0 / 7.0)

    def test_subset_ratio_stays_inside_seed(self, dumbbell):
        best, _ = brute_min_subset_ratio(dumbbell, (3, 4, 5))
        assert set(best.ids) <= {3, 4, 5}

    def test_caps(self):
        big = ring_of_cliques(3, 6)  # 18 nodes
        with pytest.raises(OracleCapError):
            brute_min_conductance(big)
        with pytest.raises(OracleCapError):
            brute_min_expansion(big)
        mid = random_connected_graph(13, seed=5)
        with pytest.raises(OracleCapError):
            brute_min_relative_conductance(mid, range(6))
        wide = ring_of_cliques(4, 6)  # 24 nodes, seed of 21
        with pytest.raises(OracleCapError):
            brute_min_subset_ratio(wide, range(21))


class TestBruteMinCut:
    def test_simple_network(self):
        rows = ArcRows(num_nodes=3, source=0, sink=2)
        rows.add(0, 1, 2.0)
        rows.add(1, 2, 1.0)
        net = rows.build()
        value, side = brute_min_cut(net)
        assert value == pytest.approx(1.0)
        assert side.dtype == np.int64 and side.tolist() == [1]

    def test_all_infinite_cuts_rejected(self):
        rows = ArcRows(num_nodes=3, source=0, sink=2)
        rows.add(0, 1, math.inf)
        rows.add(1, 2, math.inf)
        net = rows.build()
        with pytest.raises(UnboundedFlowError):
            brute_min_cut(net)

    def test_cap(self):
        rows = ArcRows(num_nodes=20, source=0, sink=19)
        for v in range(1, 19):
            rows.add(0, v, 1.0)
            rows.add(v, 19, 1.0)
        net = rows.build()
        with pytest.raises(OracleCapError):
            brute_min_cut(net)


class TestDenseAlgebra:
    def test_laplacian_row_sums_vanish(self, dumbbell):
        lap = dense_laplacian(dumbbell)
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.allclose(lap, lap.T)

    def test_normalized_laplacian_spectrum_bounds(self, dumbbell):
        vals = np.linalg.eigvalsh(dense_normalized_laplacian(dumbbell))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] <= 2.0 + 1e-12

    def test_eig_smallest_plain_and_deflated(self, c4):
        lap = dense_laplacian(c4)
        lam, vec = dense_eig_smallest(lap)
        assert lam == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(vec, vec[0])
        lam2, _ = dense_eig_smallest(lap, deflate=np.ones(4))
        assert lam2 == pytest.approx(2.0, abs=1e-12)

    def test_eig_validation(self):
        with pytest.raises(ParameterError):
            dense_eig_smallest(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(OracleCapError):
            dense_eig_smallest(np.eye(65))
        with pytest.raises(ParameterError):
            dense_eig_smallest(np.eye(3), deflate=np.ones(2))

    def test_solve(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(dense_solve(np.eye(3), b), b)
        with pytest.raises(ParameterError):
            dense_solve(np.zeros((2, 2)), np.ones(2))

    def test_nnq_prox_analytic(self):
        # min (1/2)||x||^2 - [2,0]'x + [1,1]'x over x >= 0 has the
        # closed form x = max(0, b - w) coordinatewise.
        x = dense_nnq_prox(np.eye(2), np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert np.allclose(x, [1.0, 0.0], atol=1e-9)

    def test_nnq_prox_prohibitive_shrinkage_is_zero(self):
        x = dense_nnq_prox(np.eye(3), np.ones(3), np.full(3, 5.0))
        assert np.allclose(x, 0.0)

    def test_nnq_prox_requires_positive_definite(self):
        with pytest.raises(ParameterError):
            dense_nnq_prox(np.zeros((2, 2)), np.ones(2), np.ones(2))
