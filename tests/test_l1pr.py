"""Shrunken diffusion solver: frozen small-graph values, optimality
residuals, order independence, locality, and the dense mirror."""

import numpy as np
import pytest

from localcluster import (
    DegenerateResultError,
    ParameterError,
    conductance,
    cut,
    kkt_residual,
    l1_pagerank,
    l1pr_cluster,
    seed_distribution,
    volume,
)
from localcluster.oracles import dense_nnq_prox
from localcluster.synth import random_connected_graph

# Diffusion from node 0 at alpha=0.15, epsilon=1e-3, solved to 1e-10.
DUMBBELL_X = {
    0: 0.19215111452617084,
    1: 0.096913019350757551,
    2: 0.074789996848405524,
    3: 0.021554088625423309,
    4: 0.0098765346376549368,
    5: 0.0098765345117606575,
}


def _dense_reference(g, seed, alpha, epsilon):
    """Quadratic-program mirror of the push solver's objective."""
    gamma = (1.0 - alpha) / 2.0
    from localcluster.oracles import dense_laplacian

    h = np.zeros(g.n)
    for i, w in seed.items():
        h[i] = w
    q = gamma * dense_laplacian(g) + alpha * np.diag(g.degrees)
    return dense_nnq_prox(q, alpha * h, epsilon * g.degrees)


def test_dumbbell_frozen_solution(dumbbell):
    vec, touched = l1_pagerank(dumbbell, {0: 1.0}, alpha=0.15, epsilon=1e-3)
    assert touched == 6
    dense = vec.to_dense()
    for i, want in DUMBBELL_X.items():
        assert dense[i] == pytest.approx(want, abs=1e-8)
    assert kkt_residual(dumbbell, {0: 1.0}, 0.15, 1e-3, vec) <= 1e-10


def test_matches_dense_quadratic_program(dumbbell):
    vec, _ = l1_pagerank(dumbbell, {0: 1.0}, alpha=0.15, epsilon=1e-3)
    ref = _dense_reference(dumbbell, {0: 1.0}, 0.15, 1e-3)
    assert np.allclose(vec.to_dense(), ref, atol=1e-6)


def test_matches_dense_on_random_graphs():
    rng = np.random.default_rng(7204)
    for _ in range(8):
        n = int(rng.integers(5, 12))
        g = random_connected_graph(n, seed=int(rng.integers(0, 10**6)))
        v = int(rng.integers(0, n))
        alpha = float(rng.uniform(0.05, 0.5))
        epsilon = float(rng.uniform(1e-4, 5e-3))
        vec, _ = l1_pagerank(g, {v: 1.0}, alpha=alpha, epsilon=epsilon)
        ref = _dense_reference(g, {v: 1.0}, alpha, epsilon)
        assert np.allclose(vec.to_dense(), ref, atol=1e-6)
        assert kkt_residual(g, {v: 1.0}, alpha, epsilon, vec) <= 1e-10


def test_push_order_does_not_change_the_solution(dumbbell):
    fifo, _ = l1_pagerank(dumbbell, {0: 1.0}, alpha=0.15, epsilon=1e-3)
    lifo, _ = l1_pagerank(dumbbell, {0: 1.0}, alpha=0.15, epsilon=1e-3, order="lifo")
    assert np.allclose(fifo.to_dense(), lifo.to_dense(), atol=1e-8)


def test_prohibitive_shrinkage_gives_zero(dumbbell):
    # With epsilon*d_i dominating alpha*h_i everywhere no push ever fires.
    vec, touched = l1_pagerank(dumbbell, {0: 1.0}, alpha=0.15, epsilon=10.0)
    assert vec.support().size == 0
    assert touched <= 1
    with pytest.raises(DegenerateResultError):
        l1pr_cluster(dumbbell, {0: 1.0}, alpha=0.15, epsilon=10.0)


def test_mass_shrinks_as_epsilon_grows(dumbbell):
    masses = []
    for eps in (1e-4, 1e-3, 1e-2, 1e-1):
        vec, _ = l1_pagerank(dumbbell, {0: 1.0}, alpha=0.15, epsilon=eps)
        masses.append(float(vec.values.sum()))
    assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))


def test_seed_forms_are_equivalent(dumbbell):
    from_dict, _ = l1_pagerank(dumbbell, {2: 0.5, 3: 0.5}, alpha=0.2, epsilon=1e-3)
    arr = np.zeros(6)
    arr[2] = arr[3] = 0.5
    from_array, _ = l1_pagerank(dumbbell, arr, alpha=0.2, epsilon=1e-3)
    assert np.allclose(from_dict.to_dense(), from_array.to_dense(), atol=1e-12)
    dist = seed_distribution(dumbbell, (2, 3))
    from_dist, _ = l1_pagerank(dumbbell, dist, alpha=0.2, epsilon=1e-3)
    assert np.allclose(from_dict.to_dense(), from_dist.to_dense(), atol=1e-12)


def test_parameter_validation(dumbbell):
    seed = {0: 1.0}
    for bad_alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ParameterError):
            l1_pagerank(dumbbell, seed, alpha=bad_alpha, epsilon=1e-3)
    with pytest.raises(ParameterError):
        l1_pagerank(dumbbell, seed, alpha=0.15, epsilon=0.0)
    with pytest.raises(ParameterError):
        l1_pagerank(dumbbell, seed, alpha=0.15, epsilon=1e-3, order="random")


def test_seed_mass_validation(dumbbell):
    with pytest.raises(ParameterError):
        l1_pagerank(dumbbell, {0: 0.5}, alpha=0.15, epsilon=1e-3)
    with pytest.raises(ParameterError):
        l1_pagerank(dumbbell, {0: 1.5, 1: -0.5}, alpha=0.15, epsilon=1e-3)
    with pytest.raises(ParameterError):
        l1_pagerank(dumbbell, {9: 1.0}, alpha=0.15, epsilon=1e-3)
    with pytest.raises(ParameterError):
        l1_pagerank(dumbbell, np.ones(5), alpha=0.15, epsilon=1e-3)


def test_cluster_recovers_the_triangle(dumbbell):
    res = l1pr_cluster(dumbbell, {0: 1.0}, alpha=0.15, epsilon=1e-3)
    assert res.set_ids == (0, 1, 2)
    assert res.objective == pytest.approx(1.0 / 7.0)
    assert res.touched_nodes == 6
    assert res.iterations > 0


def test_cluster_recomputes_fields_and_keeps_its_vector(ring20):
    res = l1pr_cluster(ring20, {0: 1.0}, alpha=0.15, epsilon=1e-3)
    assert res.conductance == conductance(ring20, res.set_ids)
    assert res.cut == cut(ring20, res.set_ids)
    assert res.volume == volume(ring20, res.set_ids)
    vec, _ = l1_pagerank(ring20, {0: 1.0}, alpha=0.15, epsilon=1e-3)
    assert np.array_equal(res.vector.indices, vec.indices)
    assert np.array_equal(res.vector.values, vec.values)


def test_support_stays_near_the_seed_clique(ring20):
    # One clique has volume 92 out of 1840; a mild epsilon keeps the
    # diffusion within the adjacent cliques.
    vec, touched = l1_pagerank(ring20, {0: 1.0}, alpha=0.15, epsilon=1e-3)
    assert vec.support().size <= 30
    assert touched <= 40
    res = l1pr_cluster(ring20, {0: 1.0}, alpha=0.15, epsilon=1e-3)
    assert set(res.set_ids) == set(range(10))
    assert res.conductance == pytest.approx(2.0 / 92.0)
