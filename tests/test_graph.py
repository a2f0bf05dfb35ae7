"""Graph container, set functionals, and the synthetic generators."""

import contextlib
import io
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    flow_improve,
    l1pr_cluster,
    laplacian_apply,
    local_flow_improve,
    mqi,
    relative_conductance,
    spectral_mqi_cluster,
    volume,
)
from localcluster import flowcluster, graph, oracles, refcut, results, rounding, spectral, synth
from localcluster.errors import SeedTooLargeError
from localcluster.graph import _locate
from localcluster.io import load_edge_list
from localcluster.oracles import dense_laplacian
from localcluster.synth import (
    complete_graph,
    cycle_graph,
    dumbbell_graph,
    path_graph,
    random_connected_graph,
    ring_of_cliques,
    star_graph,
)
from test_io import edge_list_texts


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


def test_relative_conductance_of_node_sets(dumbbell):
    r = [0, 1, 2, 3]
    seed = NodeSet.of(dumbbell, r)
    for s in ([0, 1, 2], [0, 1, 2, 4], []):
        # A solver's sorted int64 array becomes a node set without a copy.
        ids = np.array(s, dtype=np.int64)
        side = NodeSet._sorted(dumbbell, ids)
        assert np.shares_memory(side.array, ids) or not ids.size
        with _counting("_sorted_ids", graph) as sorted_:
            got = relative_conductance(dumbbell, side, seed, kappa=2.0)
        assert not sorted_
        assert got == relative_conductance(dumbbell, s[::-1], r, kappa=2.0)
    # A plain argument is still checked.
    with pytest.raises(InvalidSetError):
        relative_conductance(dumbbell, [0, 6], seed)


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
    # Ids that are not integers are rejected, not truncated.
    for bad in ([2.7], [np.float64(2.0)], ["1"], np.array([0.5, 1.0]), np.array(["1"])):
        with pytest.raises(InvalidSetError):
            volume(dumbbell, bad)
        with pytest.raises(InvalidSetError):
            NodeSet.of(dumbbell, bad)
    assert volume(dumbbell, [np.int32(0), np.int64(1)]) == volume(dumbbell, np.array([0, 1], np.uint8))
    # The empty set, whatever the dtype.
    for empty in ([], (), np.array([]), np.array([], dtype=str)):
        assert volume(dumbbell, empty) == 0.0
        assert NodeSet.of(dumbbell, empty).ids == ()


def test_nodeset_carries_stats(dumbbell):
    ns = NodeSet.of(dumbbell, [2, 0, 1])
    assert ns.ids == (0, 1, 2)
    assert 1 in ns and 5 not in ns
    assert len(ns) == 3


@contextlib.contextmanager
def _counting(name, *modules):
    """Count the calls of ``graph.<name>`` from ``modules``, by default every module that imports it.

    ``_counting("_sorted_ids", graph)`` counts the normalizations: ``NodeSet.of``
    is the only caller of ``_sorted_ids`` in ``graph``.
    """
    original = getattr(graph, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with contextlib.ExitStack() as stack:
        for mod in modules or (graph, results, rounding, spectral, flowcluster, refcut, oracles):
            if getattr(mod, name, None) is original:
                stack.enter_context(mock.patch.object(mod, name, counted))
        yield calls


def test_each_set_is_normalized_and_cut_once():
    ids = tuple(range(6, 26))
    g = ring_of_cliques(20, 5)
    with _counting("_sorted_ids", graph) as normalized, _counting("_cut") as cuts:
        ClusterResult.of_set(g, ids, "x", 0.5, touched_nodes=6, iterations=1, t0=0.0)
    assert (len(normalized), len(cuts)) == (1, 1)
    with _counting("_sorted_ids", graph) as normalized, _counting("_cut") as cuts:
        NodeSet.of(g, ids)
    assert (len(normalized), len(cuts)) == (1, 0)
    with _counting("_cut") as cuts:
        l1pr_cluster(g, {0: 1.0}, alpha=0.15, epsilon=1e-3)
    assert len(cuts) == 1

    # The seed is two cliques and two nodes of a third. mqi and
    # local_flow_improve(delta=1) solve locally, flow_improve and
    # local_flow_improve(delta=1e-6) on the whole network.
    seed = list(range(12))
    flows = {
        "mqi": (mqi, True),
        "flow_improve": (flow_improve, False),
        "local_flow_improve(delta=1)": (lambda g, r: local_flow_improve(g, r, delta=1.0), True),
        "local_flow_improve(delta=1e-6)": (lambda g, r: local_flow_improve(g, r, delta=1e-6), False),
    }
    score = flowcluster.relative_conductance
    for name, (method, local) in flows.items():
        scored = []

        def spy(g, s, r, kappa=1.0):
            scored.append(s)
            return score(g, s, r, kappa=kappa)

        with mock.patch.object(flowcluster, "relative_conductance", spy):
            with _counting("_sorted_ids", graph) as normalized, _counting("_cut") as cuts:
                res = method(g, seed)
        assert (res.touched_nodes < g.n) == local, name
        assert len(normalized) == 1, name
        # Once for the seed and once for each candidate scored; the result
        # reads the cut its set keeps.
        assert scored and len(cuts) == 1 + len(scored), name

    # A node set of the same graph passes through every public call as it is.
    r, s = NodeSet.of(g, seed), NodeSet.of(g, range(5, 15))
    calls = {
        **{name: (lambda method=method: method(g, r)) for name, (method, _) in flows.items()},
        "relative_conductance": lambda: relative_conductance(g, s, r, kappa=2.0),
        "cut": lambda: cut(g, s),
        "volume": lambda: volume(g, s),
        "conductance": lambda: conductance(g, s),
        "expansion": lambda: expansion(g, s),
        "of_set": lambda: ClusterResult.of_set(g, s, "x", 0.5, touched_nodes=6, iterations=1, t0=0.0),
        "NodeSet.of": lambda: NodeSet.of(g, s),
        "augmented_cut_value": lambda: refcut.augmented_cut_value(
            refcut.AugmentedGraphSpec(alpha=1.0, beta=0.5, seed=r), g, s
        ),
        "seed_distribution": lambda: spectral.seed_distribution(g, r),
        "correlation_seed": lambda: spectral.correlation_seed(g, r),
        "spectral_mqi": lambda: spectral.spectral_mqi(g, r),
    }
    for name, call in calls.items():
        with _counting("_sorted_ids", graph) as normalized:
            call()
        assert not normalized, name


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


def test_from_edges_needs_a_vertex():
    with pytest.raises(GraphFormatError, match="at least one vertex"):
        Graph.from_edges(0, [], [])


def test_from_edges_rejects_nonpositive_weight():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(2, np.array([0]), np.array([1]), np.array([0.0]))
    with pytest.raises(GraphFormatError):
        Graph.from_edges(2, np.array([0]), np.array([1]), np.array([-2.0]))


@st.composite
def edge_rows(draw):
    """Distinct undirected edges of a small graph, rows shuffled, endpoints swapped at random."""
    n = draw(st.integers(1, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    rows = [(b, a) if draw(st.booleans()) else (a, b) for a, b in draw(st.permutations(chosen))]
    weight = st.sampled_from([0.5, 1.0, 2.0, 3.25, 1e-3, 7e5])
    weights = draw(st.lists(weight, min_size=len(rows), max_size=len(rows)))
    return n, rows, weights


def neighbour_list_oracle(n, rows, weights):
    """CSR arrays from a dict of sorted neighbour lists."""
    nbrs = {v: [] for v in range(n)}
    for (a, b), w in zip(rows, weights):
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    arcs = [sorted(nbrs[v]) for v in range(n)]
    indptr = np.cumsum([0] + [len(row) for row in arcs])
    indices = [j for row in arcs for j, _ in row]
    ws = [w for row in arcs for _, w in row]
    return indptr, np.array(indices, dtype=np.int64), np.array(ws, dtype=np.float64)


@given(case=edge_rows())
def test_from_edges_matches_neighbour_list_oracle(case):
    n, rows, weights = case
    u = [a for a, _ in rows]
    v = [b for _, b in rows]
    g = Graph.from_edges(n, u, v, weights)
    indptr, indices, ws = neighbour_list_oracle(n, rows, weights)
    assert g.indptr.tolist() == indptr.tolist()
    assert g.indices.tobytes() == indices.tobytes()
    assert g.weights.tobytes() == ws.tobytes()


@given(case=edge_rows(), data=st.data())
def test_from_edges_names_the_first_duplicate(case, data):
    n, rows, weights = case
    if not rows:
        return
    repeats = data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
    extra = [(b, a) if data.draw(st.booleans()) else (a, b) for a, b in repeats]
    all_rows = data.draw(st.permutations(rows + extra))
    a, b = min((min(p), max(p)) for p in repeats)
    with pytest.raises(GraphFormatError) as exc:
        Graph.from_edges(n, [p[0] for p in all_rows], [p[1] for p in all_rows])
    assert str(exc.value) == f"duplicate edge ({a}, {b})"


@given(case=edge_rows(), data=st.data())
def test_edges_in_increasing_order_build_what_any_order_builds(case, data):
    """Rows strictly increasing in (min, max), as the loader gives them, skip the
    sort and build the arrays of the shuffled rows bit for bit; sorted rows that
    repeat an edge still name it."""
    n, rows, weights = case
    shuffled = Graph.from_edges(n, [a for a, _ in rows], [b for _, b in rows], weights)
    ordered = sorted(((min(p), max(p)), w) for p, w in zip(rows, weights))
    g = Graph.from_edges(n, [a for (a, _), _ in ordered], [b for (_, b), _ in ordered], [w for _, w in ordered])
    for name in ("indptr", "indices", "weights"):
        assert getattr(g, name).tobytes() == getattr(shuffled, name).tobytes(), name
    if ordered:
        k = data.draw(st.integers(0, len(ordered) - 1))
        twice = ordered[: k + 1] + ordered[k:]
        with pytest.raises(GraphFormatError, match=rf"duplicate edge \({ordered[k][0][0]}, {ordered[k][0][1]}\)"):
            Graph.from_edges(n, [a for (a, _), _ in twice], [b for (_, b), _ in twice])


class TestRawAdjacencyErrors:
    """Graph(indptr, indices, weights) names the first fault it finds.

    Rows are checked in vertex order, and within a row the self-loop check
    comes before the sortedness check, so the lowest faulty id is reported.
    """

    @staticmethod
    def rejects(indptr, indices, weights=None):
        if weights is None:
            weights = np.ones(len(indices))
        arrays = (np.array(indptr), np.array(indices), np.array(weights, dtype=float))
        with pytest.raises(GraphFormatError) as exc:
            Graph(*arrays)
        # A rejected graph leaves the caller's arrays as it found them.
        assert all(a.flags.writeable for a in arrays)
        return str(exc.value)

    def test_malformed_offsets(self):
        msg = "malformed adjacency offsets"
        assert self.rejects([1, 2, 2], [1, 0]) == msg
        assert self.rejects([0, 1, 3], [1, 0]) == msg
        assert self.rejects([0, 2, 1, 2], [1, 2]) == msg

    def test_self_loop_at_lowest_vertex(self):
        # Vertices 1 and 2 both loop; 1 is reported.
        assert self.rejects([0, 2, 4, 6], [1, 2, 0, 1, 0, 2]) == "self-loop at vertex 1"

    def test_self_loop_checked_before_sortedness(self):
        # Row 1 is [1, 0]: unsorted and looping; the loop is reported.
        assert self.rejects([0, 1, 3], [1, 1, 0]) == "self-loop at vertex 1"

    def test_lowest_vertex_wins_over_check_order(self):
        # Row 0 is unsorted, row 1 loops: vertex 0 comes first.
        msg = self.rejects([0, 2, 4, 6], [2, 1, 0, 1, 0, 1])
        assert msg == "neighbor list of vertex 0 not strictly sorted"

    def test_unsorted_row(self):
        msg = self.rejects([0, 2, 4, 6], [1, 2, 0, 2, 1, 0])
        assert msg == "neighbor list of vertex 2 not strictly sorted"

    def test_repeated_neighbor(self):
        msg = self.rejects([0, 2, 3, 4], [1, 1, 0, 0])
        assert msg == "neighbor list of vertex 0 not strictly sorted"

    def test_asymmetric_structure(self):
        assert self.rejects([0, 1, 2, 3], [1, 2, 0]) == "adjacency is not symmetric"

    def test_asymmetric_weights(self):
        msg = self.rejects([0, 1, 2], [1, 0], [1.0, 2.0])
        assert msg == "adjacency is not symmetric"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -2.0])
@pytest.mark.parametrize("entry", ["from_edges", "raw arrays"])
def test_weights_must_be_finite_and_positive_at_both_entries(entry, bad):
    with pytest.raises(GraphFormatError) as exc:
        if entry == "from_edges":
            Graph.from_edges(3, [0, 1], [1, 2], [1.0, bad])
        else:
            Graph(np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]), np.array([1.0, 1.0, bad, bad]))
    assert str(exc.value) == "edge weights must be finite and strictly positive"


# -- from_edges skips Graph(...)'s checks; they must pass on what it builds -----


def assert_raw_entry_agrees(g: Graph):
    """Graph(...) with every check accepts the arrays g holds and derives the same fields."""
    raw = Graph(g.indptr, g.indices, g.weights)
    for name in ("indptr", "indices", "weights", "degrees"):
        a, b = getattr(g, name), getattr(raw, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert raw.total_volume == g.total_volume


@given(case=edge_rows(), weighted=st.booleans())
def test_raw_entry_accepts_what_from_edges_builds(case, weighted):
    n, rows, weights = case
    u = [a for a, _ in rows]
    v = [b for _, b in rows]
    assert_raw_entry_agrees(Graph.from_edges(n, u, v, weights if weighted else None))


SYNTH_GRAPHS = {
    "dumbbell_graph": st.builds(dumbbell_graph),
    "cycle_graph": st.builds(cycle_graph, st.integers(3, 40)),
    "path_graph": st.builds(path_graph, st.integers(2, 40)),
    "star_graph": st.builds(star_graph, st.integers(2, 40)),
    "complete_graph": st.builds(complete_graph, st.integers(2, 12)),
    "ring_of_cliques": st.builds(ring_of_cliques, st.integers(3, 9), st.integers(2, 6)),
    "random_connected_graph": st.builds(
        random_connected_graph,
        st.integers(2, 25),
        st.integers(0, 2**32),
        weighted=st.booleans(),
        extra_edge_prob=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
    ),
}


@pytest.mark.parametrize("generator", synth.__all__)
@settings(max_examples=20)
@given(data=st.data())
def test_raw_entry_accepts_every_synth_graph(generator, data):
    assert_raw_entry_agrees(data.draw(SYNTH_GRAPHS[generator]))


@given(text=edge_list_texts())
def test_raw_entry_accepts_what_the_loader_builds(text):
    # Disconnected inputs count too: the loader's connectivity check is
    # made to pass, so every text that parses yields its graph.
    with mock.patch.object(Graph, "is_connected", return_value=True):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                g, _ = load_edge_list(io.StringIO(text))
            except GraphFormatError:
                return
    assert_raw_entry_agrees(g)


def test_trailing_isolated_vertex():
    g = Graph.from_edges(4, [0, 1], [1, 2])
    assert g.degrees.tolist() == [1.0, 2.0, 1.0, 0.0]
    assert g.unreachable_witness() == (0, 3)
    assert laplacian_apply(g, np.array([1.0, 2.0, 4.0, 8.0])).tolist() == [-1.0, -1.0, 2.0, 0.0]


def test_trailing_isolated_vertex_after_a_wide_row():
    # The last non-empty row holds two arcs; its degree must cover both.
    g = Graph.from_edges(4, [0, 1], [2, 2], [1.0, 2.0])
    assert g.degrees.tolist() == [1.0, 2.0, 3.0, 0.0]
    assert laplacian_apply(g, np.ones(4)).tolist() == [0.0, 0.0, 0.0, 0.0]


def reference_witness(g: Graph):
    """Search from vertex 0, one vertex at a time (depth first; any order finds the same set)."""
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in g.neighbors(v)[0].tolist():
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    missing = [v for v in range(g.n) if v not in seen]
    return (0, missing[0]) if missing else None


@st.composite
def graphs_with_components(draw):
    """1-4 random connected pieces (some single vertices) under shuffled ids."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    seed = draw(st.integers(0, 10_000))
    us, vs, base = [], [], 0
    for k, size in enumerate(sizes):
        if size > 1:
            piece = random_connected_graph(size, seed=seed + k, weighted=False)
            src = np.repeat(np.arange(size), np.diff(piece.indptr))
            fwd = src < piece.indices
            us.append(src[fwd] + base)
            vs.append(piece.indices[fwd] + base)
        base += size
    ids = np.random.default_rng(seed).permutation(base)
    u = ids[np.concatenate(us)] if us else np.zeros(0, dtype=np.int64)
    v = ids[np.concatenate(vs)] if vs else np.zeros(0, dtype=np.int64)
    return Graph.from_edges(base, u, v)


@given(g=graphs_with_components())
def test_witness_matches_reference_search(g):
    want = reference_witness(g)
    assert g.unreachable_witness() == want
    assert g.unreachable_witness() == want
    assert g.is_connected() == (want is None)


def test_witness_is_computed_once(monkeypatch, dumbbell):
    calls = []
    roots = Graph._component_roots
    monkeypatch.setattr(Graph, "_component_roots", lambda g: calls.append(1) or roots(g))
    for _ in range(3):
        assert dumbbell.is_connected()
    assert dumbbell.unreachable_witness() is None
    assert len(calls) == 1


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


@given(data=st.data(), n=st.integers(1, 40))
def test_locate_matches_a_dictionary(data, n):
    """Every path of the lookup (all of [0, n), a table, a search) gives the
    position in the sorted array, or its length for an absent id."""
    within = np.array(data.draw(st.sets(st.integers(0, n - 1)).map(sorted)), dtype=np.int64)
    ids = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n)), dtype=np.int64)
    where = {v: k for k, v in enumerate(within.tolist())}
    got = _locate(ids, within, n)
    assert got.tolist() == [where.get(v, within.size) for v in ids.tolist()]


@st.composite
def graphs_and_sets(draw):
    """A random connected graph, unit or real weighted, and two id lists for S and R.

    Each list is empty, every vertex, one vertex, or any ids in any order
    with repeats.
    """
    n = draw(st.integers(2, 14))
    weighted = draw(st.booleans())
    g = random_connected_graph(n, seed=draw(st.integers(0, 10**6)), weighted=weighted)
    ids = st.integers(0, n - 1)
    sets = st.one_of(
        st.just([]), st.just(list(range(n))), st.lists(ids, min_size=1, max_size=1), st.lists(ids, max_size=2 * n)
    )
    return g, weighted, draw(sets), draw(sets)


@settings(max_examples=200)
@given(case=graphs_and_sets())
def test_set_functionals_match_the_dense_laplacian(case):
    """cut is the indicator's Laplacian quadratic form, volume its degree sum,
    and relative_conductance their ratio as the docstring defines it."""
    g, weighted, s, r = case
    lap = dense_laplacian(g)
    d = np.diag(lap)
    x_s, x_r = np.zeros(g.n), np.zeros(g.n)
    x_s[s], x_r[r] = 1.0, 1.0

    def same(got, want):
        if weighted:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        else:
            assert got == want

    # x'Lx summed edge by edge, as sum_ij -L_ij (x_i - x_j)^2 / 2: no term
    # cancels another, so real weights agree to a relative 1e-12.
    cut_s = float(np.sum(-lap * np.subtract.outer(x_s, x_s) ** 2) / 2.0)
    same(cut(g, s), cut_s)
    same(volume(g, s), float(d @ x_s))
    vol_r = float(d @ x_r)
    vol_rc = float(d.sum()) - vol_r
    for kappa in (1.0, 2.5, math.inf):
        if set(r) == set(range(g.n)):
            with pytest.raises(SeedTooLargeError):
                relative_conductance(g, s, r, kappa)
            continue
        got = relative_conductance(g, s, r, kappa)
        vol_in, vol_out = float(d @ (x_s * x_r)), float(d @ (x_s * (1.0 - x_r)))
        if math.isinf(kappa):
            denom = vol_in if vol_out == 0.0 else -math.inf
        else:
            denom = vol_in - vol_r / vol_rc * kappa * vol_out
        if not s or denom <= 1e-12:
            assert got == math.inf
        else:
            same(got, cut_s / denom)


# -- memory of local queries --------------------------------------------------

# Traced peak of each local query on the 100k-node ring over the same query
# on the 10k-node ring: at most 1.01 measured. Length-n masks in cut and
# relative_conductance and a length-n rank in sweep_cut made it 3.5 to 9.
LOCAL_PEAK_GROWTH = 1.25

LOCAL_QUERIES = {
    "conductance": lambda g: conductance(g, range(13)),
    "relative_conductance": lambda g: relative_conductance(g, range(13), range(13)),
    "mqi": lambda g: mqi(g, range(13)),
    "local_flow_improve": lambda g: local_flow_improve(g, range(13), delta=1.0),
    "l1pr_cluster": lambda g: l1pr_cluster(g, {0: 1.0}, alpha=0.15, epsilon=1e-4),
    "spectral_mqi_cluster": lambda g: spectral_mqi_cluster(g, range(13)),
}


def _traced_peak(call):
    call()  # anything a first call builds and keeps is not the query's work
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(LOCAL_QUERIES))
def test_local_query_memory_does_not_grow_with_the_graph(name, big_ring):
    small = ring_of_cliques(1_000, 10)
    query = LOCAL_QUERIES[name]
    small_peak = _traced_peak(lambda: query(small))
    big_peak = _traced_peak(lambda: query(big_ring))
    assert big_peak <= LOCAL_PEAK_GROWTH * small_peak, (big_peak, small_peak)
