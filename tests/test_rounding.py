"""Sweep-cut rounding: ordering, candidate pools, and objective tracking."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localcluster import (
    EmbeddingVector,
    Graph,
    ParameterError,
    conductance,
    expansion,
    sweep_cut,
)
from localcluster import rounding
from localcluster.synth import random_connected_graph, ring_of_cliques, star_graph
from test_flowcluster import relabel


def test_path_indicator_profile(p4):
    # Sweeping the indicator of {0,1,2} visits 0,1,2 then 3; conductance
    # along the prefixes is 1, 1/3, 1 and the middle prefix wins.
    best, value, profile = sweep_cut(p4, np.array([1.0, 1.0, 1.0, 0.0]))
    assert profile.order.tolist() == [0, 1, 2, 3]
    assert profile.values.tolist() == pytest.approx([1.0, 1.0 / 3.0, 1.0])
    assert profile.best_index == 1
    assert best.ids == (0, 1)
    assert value == pytest.approx(1.0 / 3.0)


def test_ties_break_toward_smaller_id(c4):
    best, _, profile = sweep_cut(c4, np.array([3.0, 5.0, 3.0, 5.0]))
    assert profile.order.tolist() == [1, 3, 0, 2]
    # {1,3} is a worst cut of the 4-cycle; {1} and {1,3,0} both hit 1/2,
    # and the earlier prefix is reported.
    assert profile.best_index == 0
    assert best.ids == (1,)


def test_full_vertex_prefix_excluded(c4):
    _, _, profile = sweep_cut(c4, np.array([4.0, 3.0, 2.0, 1.0]))
    assert len(profile.values) == 3


def test_sparse_defaults_to_support(dumbbell):
    vec = EmbeddingVector(
        n=6, values=np.array([0.5, 0.4, 0.3]), indices=np.array([0, 1, 2])
    )
    best, value, profile = sweep_cut(dumbbell, vec)
    assert profile.order.tolist() == [0, 1, 2]
    assert len(profile.values) == 3
    assert best.ids == (0, 1, 2)
    assert value == pytest.approx(1.0 / 7.0)


def test_sparse_densified_on_request(dumbbell):
    vec = EmbeddingVector(
        n=6, values=np.array([0.5, 0.4, 0.3]), indices=np.array([0, 1, 2])
    )
    _, _, profile = sweep_cut(dumbbell, vec.to_dense())
    assert len(profile.order) == 6
    assert len(profile.values) == 5


def test_dense_restricted_on_request(dumbbell):
    x = np.array([0.5, 0.4, 0.3, 0.0, 0.0, 0.0])
    support = np.flatnonzero(x)
    _, _, profile = sweep_cut(dumbbell, EmbeddingVector(n=6, values=x[support], indices=support))
    assert profile.order.tolist() == [0, 1, 2]


def test_zero_entries_never_join_a_restricted_sweep(dumbbell):
    vec = EmbeddingVector(
        n=6, values=np.array([0.5, 0.0, 0.3]), indices=np.array([0, 1, 2])
    )
    _, _, profile = sweep_cut(dumbbell, vec)
    assert profile.order.tolist() == [0, 2]


def test_objective_expansion(dumbbell):
    best, value, _ = sweep_cut(
        dumbbell, np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), objective="expansion"
    )
    assert best.ids == (0, 1, 2)
    assert value == pytest.approx(expansion(dumbbell, (0, 1, 2)))
    assert value == pytest.approx(2.0 / 7.0)


def test_objective_cut_over_volume(dumbbell):
    # Unbalanced denominator: the whole near-side prefix {0,1,2} wins with
    # cut 1 over volume 7 even though conductance would agree here.
    best, value, _ = sweep_cut(
        dumbbell,
        np.array([3.0, 2.0, 1.0, 0.0, 0.0, 0.0]),
        objective="cut_over_volume",
    )
    assert best.ids == (0, 1, 2)
    assert value == pytest.approx(1.0 / 7.0)


def test_best_value_matches_recomputation(dumbbell):
    best, value, _ = sweep_cut(dumbbell, np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]))
    assert value == pytest.approx(conductance(dumbbell, best.ids))


def test_unknown_objective_rejected(dumbbell):
    with pytest.raises(ParameterError):
        sweep_cut(dumbbell, np.zeros(6) + 1.0, objective="sparsity")


def test_non_finite_entries_rejected(dumbbell):
    with pytest.raises(ParameterError):
        sweep_cut(dumbbell, np.array([1.0, math.nan, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ParameterError):
        sweep_cut(dumbbell, np.array([1.0, math.inf, 0.0, 0.0, 0.0, 0.0]))


def test_wrong_length_rejected(dumbbell):
    with pytest.raises(ParameterError):
        sweep_cut(dumbbell, np.ones(5))


def test_empty_pool_rejected(dumbbell):
    empty = EmbeddingVector(
        n=6, values=np.zeros(0), indices=np.zeros(0, dtype=np.int64)
    )
    with pytest.raises(ParameterError):
        sweep_cut(dumbbell, empty)


def test_single_vertex_pool_rejected_on_tiny_graph():
    from localcluster.synth import path_graph

    g = path_graph(2)
    # A dense vector's pool is the whole graph; only {first} is admissible.
    _, value, profile = sweep_cut(g, np.array([1.0, 0.0]))
    assert len(profile.values) == 1
    assert value == pytest.approx(1.0)
    # Restricting to support of an all-vertices support behaves the same.
    vec = EmbeddingVector(n=2, values=np.array([1.0, 0.5]), indices=np.array([0, 1]))
    _, _, profile = sweep_cut(g, vec)
    assert len(profile.values) == 1


# -- the vectorized sweep against the per-vertex loop it replaced ----------------


def reference_sweep(g, vals, idx, objective, restrict):
    """Visit the pool one vertex at a time, updating cut and volume."""
    if restrict:
        keep = vals != 0.0
        cand = np.flatnonzero(keep) if idx is None else idx[keep]
        cand_vals = vals[keep]
    else:
        cand = np.arange(g.n)
        cand_vals = vals
        if idx is not None:
            cand_vals = np.zeros(g.n)
            cand_vals[idx] = vals
    order = cand[np.argsort(-cand_vals, kind="stable")]
    limit = order.size - 1 if order.size == g.n else order.size
    in_s = np.zeros(g.n, dtype=bool)
    values = []
    cut_val = vol_s = 0.0
    for v in order[:limit]:
        nbr, ws = g.neighbors(v)
        d_v = float(g.degrees[v])
        cut_val += d_v - 2.0 * float(ws[in_s[nbr]].sum())
        vol_s += d_v
        in_s[v] = True
        vol_c = g.total_volume - vol_s
        if objective == "conductance":
            denom = min(vol_s, vol_c)
            values.append(cut_val / denom if denom > 0 else math.inf)
        elif objective == "expansion":
            denom = vol_s * vol_c
            values.append(cut_val * g.total_volume / denom if denom > 0 else math.inf)
        else:
            values.append(cut_val / vol_s)
    return order, np.array(values)


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 24),
    integer_weights=st.booleans(),
    objective=st.sampled_from(["conductance", "expansion", "cut_over_volume"]),
    pool=st.sampled_from(["dense", "restricted", "sparse", "sparse_densified"]),
)
def test_sweep_matches_the_per_vertex_loop(seed, n, integer_weights, objective, pool):
    rng = np.random.default_rng(seed)
    base = random_connected_graph(n, seed=seed, weighted=False)
    w = rng.integers(1, 5, base.weights.size) if integer_weights else rng.uniform(0.1, 3.0, base.weights.size)
    src = np.repeat(np.arange(n), np.diff(base.indptr))
    fwd = src < base.indices
    g = Graph.from_edges(n, src[fwd], base.indices[fwd], w[fwd])
    # Few distinct values, so ties and zeros occur.
    x = rng.integers(-2, 4, n).astype(float) * rng.choice([1.0, 0.5], n)
    if not np.any(x):
        x[0] = 1.0
    if pool.startswith("sparse"):
        idx = np.flatnonzero(rng.random(n) < 0.6)
        vec, vals = EmbeddingVector(n=n, values=x[idx], indices=idx), x[idx]
    else:
        idx, vec, vals = None, x, x
    restrict = pool in ("restricted", "sparse")
    # The pool follows the representation: dense vectors sweep every
    # vertex, sparse ones their nonzero support.
    if pool == "restricted":
        support = np.flatnonzero(x)
        vec = EmbeddingVector(n=n, values=x[support], indices=support)
    elif pool == "sparse_densified":
        vec = vec.to_dense()

    order, want = reference_sweep(g, vals, idx, objective, restrict)
    if want.size == 0:
        with pytest.raises(ParameterError):
            sweep_cut(g, vec, objective)
        return
    best, value, profile = sweep_cut(g, vec, objective)
    assert profile.order.tolist() == order.tolist()
    if integer_weights:
        assert np.array_equal(profile.values, want)
        assert profile.best_index == int(np.argmin(want))
        assert value == want.min()
    else:
        np.testing.assert_allclose(profile.values, want, rtol=1e-12)
        assert value == pytest.approx(want.min(), rel=1e-12)
    assert best.ids == tuple(sorted(order[: profile.best_index + 1].tolist()))


@st.composite
def relabeled_sweeps(draw):
    """A graph, distinct nonzero values dense or on a random support, an objective and a permutation."""
    n = draw(st.integers(2, 12))
    g = random_connected_graph(n, seed=draw(st.integers(0, 10**6)), weighted=draw(st.booleans()))
    values = draw(st.lists(st.floats(-1e3, 1e3).filter(bool), min_size=n, max_size=n, unique=True))
    support = None
    if draw(st.booleans()):
        support = np.sort(draw(st.permutations(range(n)))[: draw(st.integers(1, n))])
    objective = draw(st.sampled_from(["conductance", "expansion", "cut_over_volume"]))
    return g, np.array(values), support, objective, np.array(draw(st.permutations(range(n))))


def _embedding(n, values, support, perm):
    """The vector with vertex v's value moved to perm[v]: dense, or sparse on perm[support]."""
    if support is None:
        moved = np.empty(n)
        moved[perm] = values
        return moved
    ids = perm[support]
    order = np.argsort(ids)
    return EmbeddingVector(n=n, values=values[support][order], indices=ids[order])


@settings(max_examples=200)
@given(case=relabeled_sweeps())
def test_relabeling_the_vertices_relabels_the_sweep(case):
    g, values, support, objective, perm = case
    best, value, profile = sweep_cut(g, _embedding(g.n, values, support, np.arange(g.n)), objective)
    # A near-tie between the best prefix and the runner-up may flip with
    # the summation order, which relabeling changes.
    ranked = np.sort(profile.values)
    assume(ranked.size < 2 or not ranked[1] - ranked[0] < 1e-9 * ranked[1])
    moved, moved_value, moved_profile = sweep_cut(relabel(g, perm), _embedding(g.n, values, support, perm), objective)
    assert moved_profile.order.tolist() == perm[profile.order].tolist()
    np.testing.assert_allclose(moved_profile.values, profile.values, rtol=1e-12)
    assert moved.ids == tuple(sorted(perm[list(best.ids)].tolist()))
    assert moved_value == pytest.approx(value, rel=1e-12)


# -- the chunked sums against the formula that gathered every arc at once ------


def unchunked_sweep(g, x, objective):
    """The sweep with every arc of the pool gathered at once: (set ids, value, order, values, best index)."""
    if isinstance(x, EmbeddingVector):
        keep = x.values != 0.0
        cand, cand_vals = x.indices[keep], x.values[keep]
    else:
        cand, cand_vals = np.arange(g.n, dtype=np.int64), x
    by_value = np.argsort(-cand_vals, kind="stable")
    order = cand[by_value]
    m = order.size
    limit = m - 1 if m == g.n else m
    rank = np.empty(m + 1, dtype=np.int64)
    rank[by_value] = np.arange(m)
    rank[m] = m
    swept = order[:limit]
    # Every arc leaving the swept rows, row by row, and its head's position in cand (m if absent).
    starts = g.indptr[swept]
    lengths = g.indptr[swept + 1] - starts
    step = np.repeat(np.arange(limit), lengths)
    arc = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(step.size)
    head = g.indices[arc]
    at = np.searchsorted(cand, head)
    at[cand[np.minimum(at, m - 1)] != head] = m
    earlier = rank[at] < step
    inside = np.bincount(step[earlier], weights=g.weights[arc[earlier]], minlength=limit)
    d = g.degrees[swept]
    cut_val = np.cumsum(d - 2.0 * inside)
    vol_s = np.cumsum(d)
    vol_c = g.total_volume - vol_s
    if objective == "conductance":
        num, denom = cut_val, np.minimum(vol_s, vol_c)
    elif objective == "expansion":
        num, denom = cut_val * g.total_volume, vol_s * vol_c
    else:
        num, denom = cut_val, vol_s
    values = np.full(limit, np.inf)
    np.divide(num, denom, out=values, where=denom > 0)
    best = int(np.argmin(values))
    return tuple(sorted(order[: best + 1].tolist())), float(values[best]), order, values, best


def assert_sweeps_equal(g, x, objective):
    best, value, profile = sweep_cut(g, x, objective)
    ids, want_value, order, values, best_index = unchunked_sweep(g, x, objective)
    assert profile.order.tolist() == order.tolist()
    assert profile.values.tobytes() == values.tobytes()
    assert profile.best_index == best_index
    assert value == want_value
    assert best.ids == ids


@settings(max_examples=150)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(3, 40),
    weighted=st.booleans(),
    objective=st.sampled_from(["conductance", "expansion", "cut_over_volume"]),
    sparse=st.booleans(),
    chunk=st.integers(1, 64),
)
def test_chunked_sums_equal_the_unchunked_formula(seed, n, weighted, objective, sparse, chunk):
    # A chunk bound of a few arcs puts chunk edges everywhere, and rows
    # longer than a chunk take one chunk each.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, seed=seed, weighted=weighted)
    x = rng.integers(-2, 4, n) * rng.uniform(0.5, 2.0, n)
    if sparse:
        idx = np.flatnonzero(rng.random(n) < 0.7)
        assume(np.any(x[idx]))
        x = EmbeddingVector(n=n, values=x[idx], indices=idx)
    with mock.patch.object(rounding, "CHUNK_ARCS", chunk):
        assert_sweeps_equal(g, x, objective)


@pytest.mark.parametrize("objective", ["conductance", "expansion", "cut_over_volume"])
@pytest.mark.parametrize("pool", ["dense", "sparse"])
def test_a_pool_spanning_several_chunks_sums_as_one(objective, pool):
    g = ring_of_cliques(2000, 10)
    rng = np.random.default_rng(2000)
    x = np.exp(-(((np.arange(g.n) - g.n / 3) / 3000.0) ** 2)) + 1e-3 * rng.random(g.n)
    if pool == "sparse":
        idx = np.flatnonzero(rng.random(g.n) < 0.8)
        x = EmbeddingVector(n=g.n, values=x[idx], indices=idx)
        assert np.diff(g.indptr)[idx].sum() > 2 * rounding.CHUNK_ARCS
    else:
        assert g.indices.size > 2 * rounding.CHUNK_ARCS
    assert_sweeps_equal(g, x, objective)


def test_a_row_longer_than_a_chunk_is_one_chunk():
    g = star_graph(rounding.CHUNK_ARCS + 100)
    x = np.random.default_rng(3).random(g.n)
    x[0] = 0.5
    assert_sweeps_equal(g, x, "conductance")


def test_the_dense_sweeps_temporaries_are_bounded_by_n_and_the_chunk():
    # 6,000 nodes and 714,100 arcs: gathering every arc at once takes about
    # 23 MB above the inputs; the chunked sweep about 3 MB.
    g = ring_of_cliques(50, 120)
    x = np.random.default_rng(5).random(g.n)
    tracemalloc.start()
    try:
        sweep_cut(g, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.indices.size > 10 * rounding.CHUNK_ARCS
    assert peak <= 256 * g.n + 64 * rounding.CHUNK_ARCS
