"""Shrunken diffusion solver: frozen small-graph values, optimality
residuals, order independence, locality, and the dense mirror."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcluster import (
    DegenerateResultError,
    EmbeddingVector,
    ParameterError,
    conductance,
    cut,
    kkt_residual,
    l1_pagerank,
    l1pr_cluster,
    seed_distribution,
    volume,
)
from localcluster.graph import Graph
from localcluster.oracles import dense_nnq_prox
from localcluster.synth import random_connected_graph, ring_of_cliques
from test_flowcluster import relabel

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


@st.composite
def relabeled_diffusions(draw):
    n = draw(st.integers(2, 14))
    g = random_connected_graph(n, seed=draw(st.integers(0, 10**6)), weighted=draw(st.booleans()))
    k = draw(st.integers(1, min(n, 4)))
    ids = draw(st.permutations(range(n)))[:k]
    mass = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    seed = {i: w / sum(mass) for i, w in zip(ids, mass)}
    alpha = draw(st.sampled_from([0.01, 0.05, 0.15, 0.5]))
    epsilon = draw(st.sampled_from([1e-5, 1e-4, 1e-3, 1e-2]))
    return g, seed, alpha, epsilon, np.array(draw(st.permutations(range(n))))


@settings(max_examples=100)
@given(case=relabeled_diffusions())
def test_push_order_does_not_change_the_solution(case):
    # Relabeling the vertices reorders every neighbour list, and reversing
    # the seed dict reorders the first queue, so the FIFO pushes run in
    # another order; the minimizer only moves with its vertices.
    g, seed, alpha, epsilon, perm = case
    vec, _ = l1_pagerank(g, seed, alpha, epsilon)
    moved = {int(perm[i]): w for i, w in reversed(seed.items())}
    got, _ = l1_pagerank(relabel(g, perm), moved, alpha, epsilon)
    want = np.zeros(g.n)
    want[perm] = vec.to_dense()
    assert np.abs(got.to_dense() - want).max() <= 1e-8


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


@pytest.mark.parametrize("solve", [l1_pagerank, l1pr_cluster])
def test_parameter_validation(dumbbell, solve):
    seed = {0: 1.0}
    for bad_alpha in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(ParameterError):
            solve(dumbbell, seed, alpha=bad_alpha, epsilon=1e-3)
    for bad_epsilon in (0.0, -1e-3, math.nan):
        with pytest.raises(ParameterError):
            solve(dumbbell, seed, alpha=0.15, epsilon=bad_epsilon)


def test_kkt_residual_checks_its_parameters_as_the_solver_does():
    g = ring_of_cliques(5, 4)
    h = {0: 1.0}
    x, _ = l1_pagerank(g, h, alpha=0.15, epsilon=1e-3)
    bad = [(a, 1e-3) for a in (0.0, 1.0, -0.1, 2.0, math.nan)] + [(0.15, e) for e in (0.0, -1.0, math.nan)]
    for alpha, epsilon in bad:
        with pytest.raises(ParameterError) as solver:
            l1_pagerank(g, h, alpha=alpha, epsilon=epsilon)
        with pytest.raises(ParameterError) as check:
            kkt_residual(g, h, alpha, epsilon, x)
        assert str(check.value) == str(solver.value), (alpha, epsilon)


def test_seed_mass_validation(dumbbell):
    with pytest.raises(ParameterError):
        l1_pagerank(dumbbell, {0: 0.5}, alpha=0.15, epsilon=1e-3)
    with pytest.raises(ParameterError):
        l1_pagerank(dumbbell, {0: 1.5, 1: -0.5}, alpha=0.15, epsilon=1e-3)
    with pytest.raises(ParameterError):
        l1_pagerank(dumbbell, {9: 1.0}, alpha=0.15, epsilon=1e-3)
    with pytest.raises(ParameterError):
        l1_pagerank(dumbbell, np.ones(5), alpha=0.15, epsilon=1e-3)


@pytest.mark.parametrize(
    "call",
    [
        lambda g, h: l1_pagerank(g, h, 0.15, 1e-3),
        lambda g, h: l1pr_cluster(g, h, 0.15, 1e-3),
        lambda g, h: kkt_residual(g, h, 0.15, 1e-3, l1_pagerank(g, {0: 1.0}, 0.15, 1e-3)[0]),
    ],
    ids=["l1_pagerank", "l1pr_cluster", "kkt_residual"],
)
def test_nan_seed_mass_rejected(call):
    # NaN fails both w < 0 and the w > 0 filter: it was once dropped, and
    # the rest of the seed solved as if it were all of it.
    g = random_connected_graph(6, seed=1)
    for seed in ({0: 1.0, 1: math.nan}, np.array([1.0, math.nan, 0.0, 0.0, 0.0, 0.0])):
        with pytest.raises(ParameterError, match="NaN seed mass at node 1"):
            call(g, seed)


@pytest.mark.parametrize("solve", [l1_pagerank, l1pr_cluster])
def test_seed_mass_on_a_zero_degree_node_rejected(solve):
    # Vertex 3 is isolated. Its mass once made an inf vector, which
    # l1pr_cluster reported as non-finite embedding entries.
    g = Graph.from_edges(4, [0, 1], [1, 2])
    for seed in ({3: 1.0}, np.array([0.5, 0.0, 0.0, 0.5])):
        with pytest.raises(ParameterError, match="zero degree"):
            solve(g, seed, alpha=0.15, epsilon=1e-3)


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


# -- the vectorized KKT residual against the per-node loop it replaced ----------


def reference_kkt_residual(g, h, alpha, epsilon, x):
    """The per-node loop: each checked node's Laplacian term summed over its neighbour list."""
    seed = dict(h)
    ids, vals = x.nonzeros()
    if np.any(vals < 0):
        return float("inf")
    gamma = (1.0 - alpha) / 2.0
    xv = {int(i): float(v) for i, v in zip(ids, vals)}
    check = set(seed)
    check.update(xv)
    for i in list(xv):
        nbr, _ = g.neighbors(i)
        check.update(int(j) for j in nbr)
    worst = 0.0
    for i in check:
        d_i = float(g.degrees[i])
        nbr, ws = g.neighbors(i)
        lap = d_i * xv.get(i, 0.0) - sum(
            float(w) * xv.get(int(j), 0.0) for j, w in zip(nbr, ws) if int(j) in xv
        )
        grad = gamma * lap + alpha * d_i * xv.get(i, 0.0) - alpha * seed.get(i, 0.0)
        if xv.get(i, 0.0) > 0.0:
            viol = abs(grad + epsilon * d_i)
        else:
            viol = max(0.0, -(grad + epsilon * d_i))
        worst = max(worst, viol / d_i)
    return worst


@st.composite
def kkt_cases(draw):
    """A graph, a seed mass, alpha and epsilon, and a solved, perturbed or arbitrary vector."""
    n = draw(st.integers(2, 14))
    g = random_connected_graph(n, seed=draw(st.integers(0, 10**6)), weighted=draw(st.booleans()))
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    h = seed_distribution(g, seeds)
    alpha = draw(st.sampled_from([0.01, 0.15, 0.5, 0.9]))
    epsilon = draw(st.sampled_from([1e-6, 1e-4, 1e-3, 1e-2]))
    kind = draw(st.sampled_from(["solved", "perturbed", "arbitrary"]))
    if kind == "arbitrary":
        support = sorted(draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)))
        vals = [draw(st.floats(0.0, 1.0)) for _ in support]
        x = EmbeddingVector(n=n, values=vals, indices=support)
    else:
        x, _ = l1_pagerank(g, h, alpha=alpha, epsilon=epsilon)
        if kind == "perturbed":
            x = EmbeddingVector(n=n, values=x.to_dense() * draw(st.sampled_from([0.9, 1.0 + 1e-9, 1.1])))
    return g, h, alpha, epsilon, x


@settings(max_examples=300)
@given(case=kkt_cases())
def test_kkt_residual_matches_the_per_node_loop(case):
    assert kkt_residual(*case) == reference_kkt_residual(*case)


def test_kkt_residual_named_cases():
    g = random_connected_graph(9, seed=41, weighted=True)
    h = {2: 1.0}
    # A negative entry is never optimal.
    neg = EmbeddingVector(n=g.n, values=[0.3, -1e-12], indices=[2, 5])
    assert kkt_residual(g, h, 0.15, 1e-3, neg) == math.inf == reference_kkt_residual(g, h, 0.15, 1e-3, neg)
    # The empty vector violates only at the seed: its gradient there is -alpha.
    empty = EmbeddingVector(n=g.n, values=[], indices=[])
    want = (0.15 - 1e-3 * g.degrees[2]) / g.degrees[2]
    assert kkt_residual(g, h, 0.15, 1e-3, empty) == reference_kkt_residual(g, h, 0.15, 1e-3, empty)
    assert kkt_residual(g, h, 0.15, 1e-3, empty) == pytest.approx(want, rel=1e-12)
    # A seed outside the support is still checked.
    far = next(v for v in range(g.n) if v != 2 and not g.has_edge(v, 2))
    off = EmbeddingVector(n=g.n, values=[0.2], indices=[far])
    got = kkt_residual(g, h, 0.15, 1e-3, off)
    assert got == reference_kkt_residual(g, h, 0.15, 1e-3, off)
    assert got >= (0.15 - 1e-3 * g.degrees[2]) / g.degrees[2]
