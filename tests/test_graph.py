"""Graph container, set functionals, and the synthetic generators."""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from localcluster import (
    ClusterResult,
    Graph,
    GraphFormatError,
    InvalidSetError,
    NodeSet,
    ParameterError,
    conductance,
    cut,
    expansion,
    laplacian_apply,
    relative_conductance,
    volume,
)
from localcluster.errors import SeedTooLargeError
from localcluster.synth import (
    complete_graph,
    cycle_graph,
    dumbbell_graph,
    path_graph,
    random_connected_graph,
    ring_of_cliques,
)


def test_dumbbell_shape(dumbbell):
    assert dumbbell.n == 6
    assert dumbbell.edge_count == 7
    assert dumbbell.degrees.tolist() == [2, 2, 3, 3, 2, 2]
    assert dumbbell.total_volume == 14.0


def test_dumbbell_core_values(dumbbell):
    s = [0, 1, 2]
    assert cut(dumbbell, s) == 1.0
    assert volume(dumbbell, s) == 7.0
    assert conductance(dumbbell, s) == pytest.approx(1 / 7)
    assert expansion(dumbbell, s) == pytest.approx(2 / 7)


def test_volume_of_seed_superset(dumbbell):
    assert volume(dumbbell, [0, 1, 2, 3]) == 10.0
    assert cut(dumbbell, [0, 1, 2, 3]) == 2.0


def test_cut_symmetry_and_complement(dumbbell):
    s = [0, 1, 2]
    comp = [3, 4, 5]
    assert cut(dumbbell, s) == cut(dumbbell, comp)
    assert conductance(dumbbell, s) == conductance(dumbbell, comp)
    assert volume(dumbbell, s) + volume(dumbbell, comp) == dumbbell.total_volume


def test_c4_pair(c4):
    assert conductance(c4, [0, 1]) == pytest.approx(0.5)
    assert expansion(c4, [0, 1]) == pytest.approx(1.0)


def test_k4_singleton(k4):
    assert conductance(k4, [0]) == pytest.approx(1.0)


def test_relative_conductance_dumbbell(dumbbell):
    r = [0, 1, 2, 3]
    assert relative_conductance(dumbbell, [0, 1, 2], r) == pytest.approx(1 / 7)
    # whole graph: denominator vol(R) - ratio*vol(R^c) = 10 - 2.5*4 = 0
    assert relative_conductance(dumbbell, list(range(6)), r) == math.inf


def test_relative_conductance_negative_denominator(dumbbell):
    # S = {0,1,2,4}: vol(S∩R)=7, vol(S\R)=2, ratio=2.5, kappa=2
    # denominator 7 - 2.5*2*2 = -3 -> infinity, not an error
    val = relative_conductance(dumbbell, [0, 1, 2, 4], [0, 1, 2, 3], kappa=2.0)
    assert val == math.inf


def test_relative_conductance_kappa_validation(dumbbell):
    with pytest.raises(ParameterError):
        relative_conductance(dumbbell, [0], [0, 1], kappa=0.5)


def test_relative_conductance_kappa_infinite(dumbbell):
    r = [0, 1, 2, 3]
    inside = relative_conductance(dumbbell, [0, 1], r, kappa=math.inf)
    assert inside == pytest.approx(cut(dumbbell, [0, 1]) / volume(dumbbell, [0, 1]))
    outside = relative_conductance(dumbbell, [0, 4], r, kappa=math.inf)
    assert outside == math.inf


def test_relative_conductance_seed_covers_graph(dumbbell):
    with pytest.raises(SeedTooLargeError):
        relative_conductance(dumbbell, [0], list(range(6)))


def test_set_validation(dumbbell):
    with pytest.raises(InvalidSetError):
        cut(dumbbell, [0, 99])
    with pytest.raises(InvalidSetError):
        volume(dumbbell, [-1])


def test_nodeset_carries_stats(dumbbell):
    ns = NodeSet.of(dumbbell, [2, 0, 1])
    assert ns.ids == (0, 1, 2)
    assert ns.cut_value == 1.0
    assert ns.volume == 7.0
    assert 1 in ns and 5 not in ns
    assert len(ns) == 3


def test_result_builder_recomputes_fields(dumbbell):
    res = ClusterResult.of_set(
        dumbbell, (0, 1, 2), "x", 0.5, touched_nodes=6, iterations=1, t0=time.perf_counter()
    )
    assert (res.conductance, res.cut, res.volume) == (1.0 / 7.0, 1.0, 7.0)
    assert res.runtime_ms >= 0.0
    empty = ClusterResult.of_set(dumbbell, (), "x", 0.5, touched_nodes=0, iterations=1, t0=0.0)
    assert (empty.set_ids, empty.conductance, empty.cut, empty.volume) == ((), math.inf, 0.0, 0.0)


def test_from_edges_rejects_self_loops_and_duplicates():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(2, np.array([0]), np.array([0]))
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, np.array([0, 1]), np.array([1, 0]))


def test_from_edges_rejects_nonpositive_weight():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(2, np.array([0]), np.array([1]), np.array([0.0]))
    with pytest.raises(GraphFormatError):
        Graph.from_edges(2, np.array([0]), np.array([1]), np.array([-2.0]))


def test_neighbors_sorted(dumbbell):
    nbr, ws = dumbbell.neighbors(2)
    assert nbr.tolist() == [0, 1, 3]
    assert ws.tolist() == [1.0, 1.0, 1.0]
    assert dumbbell.edge_weight(2, 3) == 1.0
    assert not dumbbell.has_edge(0, 5)


def test_laplacian_apply_matches_dense(dumbbell):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6)
    dense = np.diag(dumbbell.degrees).astype(float)
    for u in range(6):
        nbr, ws = dumbbell.neighbors(u)
        dense[u, nbr] -= ws
    assert np.allclose(laplacian_apply(dumbbell, x), dense @ x, atol=1e-12)


def test_laplacian_apply_length_check(dumbbell):
    with pytest.raises(ParameterError):
        laplacian_apply(dumbbell, np.zeros(5))


# -- generators ---------------------------------------------------------------


def test_generators_basic_shapes():
    assert cycle_graph(5).degrees.tolist() == [2] * 5
    assert path_graph(4).degrees.tolist() == [1, 2, 2, 1]
    assert complete_graph(6).degrees.tolist() == [5] * 6
    assert dumbbell_graph().n == 6


def test_ring_of_cliques_arithmetic(ring20):
    assert ring20.n == 200
    assert ring20.total_volume == 1840.0
    clique = list(range(10))
    assert volume(ring20, clique) == 92.0
    assert cut(ring20, clique) == 2.0
    assert conductance(ring20, clique) == pytest.approx(2 / 92)


def test_ring_of_cliques_validation():
    with pytest.raises(ParameterError):
        ring_of_cliques(2, 10)
    with pytest.raises(ParameterError):
        ring_of_cliques(5, 1)


def test_random_connected_graph_deterministic():
    a = random_connected_graph(12, seed=4)
    b = random_connected_graph(12, seed=4)
    assert a.indptr.tolist() == b.indptr.tolist()
    assert a.indices.tolist() == b.indices.tolist()
    assert a.weights.tolist() == b.weights.tolist()
    assert a.is_connected()


# -- property tests -----------------------------------------------------------


@given(seed=st.integers(0, 10_000), n=st.integers(2, 16))
def test_conductance_expansion_sandwich(seed, n):
    """expansion/2 <= conductance <= expansion for every nontrivial set."""
    g = random_connected_graph(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    size = int(rng.integers(1, n))
    s = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
    phi = conductance(g, s)
    psi = expansion(g, s)
    assert psi / 2 - 1e-12 <= phi <= psi + 1e-12


@given(seed=st.integers(0, 10_000), n=st.integers(2, 16))
def test_complement_identities(seed, n):
    g = random_connected_graph(n, seed=seed, weighted=True)
    rng = np.random.default_rng(seed + 2)
    size = int(rng.integers(1, n))
    s = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
    comp = sorted(set(range(n)) - set(s))
    assert cut(g, s) == pytest.approx(cut(g, comp), abs=1e-12)
    assert volume(g, s) + volume(g, comp) == pytest.approx(g.total_volume)
    assert conductance(g, s) == pytest.approx(conductance(g, comp))


@given(seed=st.integers(0, 10_000), n=st.integers(2, 16))
def test_laplacian_quadratic_form_nonnegative(seed, n):
    g = random_connected_graph(n, seed=seed, weighted=True)
    rng = np.random.default_rng(seed + 3)
    x = rng.standard_normal(n)
    quad = float(x @ laplacian_apply(g, x))
    assert quad >= -1e-10
    ones = np.ones(n)
    assert np.allclose(laplacian_apply(g, ones), 0.0, atol=1e-12)
