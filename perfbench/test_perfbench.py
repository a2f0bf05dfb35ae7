"""Tests of the benchmark itself: span arithmetic, unwrapping, generators.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracer import Span, Tracer, install, query_layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: the union is [1, 6]
        Span("a.child", 2.0, 3.0, parent=1),
        Span("c", 9.0, 12.0, parent=0),  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_on_a_hand_built_tree():
    spans = [
        Span("query.flow", 0.0, 1.0),
        Span("flowcluster.refine_by_flow", 0.0, 0.9, parent=0, data={"rounds": 3, "accepted": 2}),
        Span("refcut.solve_maxflow_local", 0.1, 0.5, parent=1, data={"explored": 7}),
        Span("flownet.freeze", 0.1, 0.2, parent=2, data={"arcs": 10}),
        Span("flownet.freeze", 0.3, 0.4, parent=2, data={"arcs": 12}),
        Span("graph.cut", 0.5, 0.6, parent=1),
        Span("flownet.solve_maxflow", 0.6, 0.8, parent=1),
        Span("flownet.freeze", 0.6, 0.7, parent=6, data={"arcs": 100}),
        Span("query.fiedler", 1.0, 2.0),
        Span("spectral.mov_solve", 1.0, 1.5, parent=8),
        Span("spectral.fiedler", 1.0, 1.2, parent=9),
        Span("spectral.fiedler", 1.5, 1.9, parent=8),
    ]
    m = query_layer_metrics(spans)
    assert m["flowcluster.refine_self_ms"] == pytest.approx(1e3 * (0.9 - 0.4 - 0.1 - 0.2))
    assert m["flowcluster.rounds"] == 3
    assert m["flowcluster.accept_frac"] == pytest.approx(2 / 3)
    assert m["refcut.local_solves"] == 1
    assert m["refcut.grow_rounds"] == 2
    assert m["refcut.arcs_built"] == 22
    assert m["refcut.grow_useful_frac"] == pytest.approx(0.5)
    assert m["refcut.explored_nodes"] == 7
    assert m["flownet.networks_built"] == 3
    assert m["flownet.arcs_built"] == 122
    assert m["flownet.global_solves"] == 1
    assert m["graph.set_functional_calls"] == 1
    assert m["spectral.fiedler_calls"] == 2
    assert m["spectral.fiedler_per_query"] == pytest.approx(2.0)
    assert m["spectral.mov_solves"] == 1


def _namespaces():
    """(namespaces the tracer wraps names in, namespaces it must leave alone)."""
    from localcluster import cli, flowcluster, flownet, graph, io, refcut, rounding, solvers, spectral

    return [cli, flowcluster, io, rounding, spectral, graph.Graph, flownet.FlowNetwork], [
        flownet,
        graph,
        refcut,
        solvers,
    ]


def test_uninstall_restores_every_original_object():
    from localcluster import flowcluster
    from localcluster.synth import ring_of_cliques

    wrapped, untouched = _namespaces()
    everything = wrapped + untouched
    before = [dict(vars(ns)) for ns in everything]
    tracer = Tracer()
    install(tracer)
    assert {id(ns) for ns, _, _ in tracer._saved} == {id(ns) for ns in wrapped}
    g = ring_of_cliques(6, 5)
    flowcluster.mqi(g, list(range(7)))
    recorded = len(tracer.spans)
    assert recorded > 0
    tracer.uninstall()

    for ns, saved in zip(everything, before):
        now = vars(ns)
        assert now.keys() == saved.keys()
        assert all(now[k] is saved[k] for k in saved), ns
    flowcluster.mqi(g, list(range(7)))
    assert len(tracer.spans) == recorded


def _read_all(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["planted2k-flow", "planted2k-spectral"])
def test_generators_are_deterministic_per_seed(tmp_path, workload):
    gen.generate(workload, 5, tmp_path / "a")
    gen.generate(workload, 5, tmp_path / "b")
    gen.generate(workload, 6, tmp_path / "c")
    a, b, c = (_read_all(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert any(a[k] != c[k] for k in a if k.endswith(".el"))


def test_ring_inputs_are_deterministic_per_seed():
    x = gen.ring_vector(np.random.default_rng(3))
    assert np.array_equal(x, gen.ring_vector(np.random.default_rng(3)))
    assert not np.array_equal(x, gen.ring_vector(np.random.default_rng(4)))
    assert np.all(x > 0)
    assert gen.ring_seed_set(0) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 99_999]


def test_planted_generator_shape():
    n, u, v, w = gen.planted_partition(np.random.default_rng(0))
    assert n == gen.PLANTED_BLOCKS * gen.PLANTED_BLOCK_SIZE
    assert np.all(u < v)
    assert np.unique(u * n + v).size == u.size
    assert np.all((w >= 0.5) & (w <= 2.0))
    ring = set(zip(u.tolist(), v.tolist()))
    assert all((i, i + 1) in ring for i in range(n - 1)) and (0, n - 1) in ring
