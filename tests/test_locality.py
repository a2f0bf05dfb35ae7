"""Locality checked from outside the solvers.

A strongly-local method reads only the rows of a region it can name: the
seed set R for ``mqi`` and ``spectral_mqi_cluster``, the diffusion's
support and the seeds for ``l1_pagerank`` and ``l1pr_cluster``. Each
method runs twice: on a clean graph, and on a copy whose rows outside
that region hold NaN weights and heads out of range. Degrees and the
total volume stay clean, as any node's may be read. A read of a poisoned
row raises or turns a number to NaN, so the two runs agree only if the
method kept to its region.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from localcluster import (
    ClusterError,
    Graph,
    l1_pagerank,
    l1pr_cluster,
    mqi,
    seed_distribution,
    spectral_mqi_cluster,
)
from localcluster.synth import path_graph, random_connected_graph, ring_of_cliques


def _poisoned(g: Graph, region: np.ndarray) -> Graph:
    """A copy of ``g`` whose rows outside ``region`` hold NaN weights and heads n."""
    keep = np.zeros(g.n, dtype=bool)
    keep[region] = True
    clean = np.repeat(keep, np.diff(g.indptr))
    p = Graph.__new__(Graph)
    p.n, p.indptr, p.degrees, p.total_volume, p._unreached = g.n, g.indptr, g.degrees, g.total_volume, None
    p.indices = np.where(clean, g.indices, g.n)
    p.weights = np.where(clean, g.weights, np.nan)
    return p


@st.composite
def graphs_and_seeds(draw):
    """A ring of cliques, a sparse random graph or a path, a seed grown from one node, and a diffusion's alpha and epsilon."""
    shape = draw(st.sampled_from(["ring", "random", "path"]))
    if shape == "ring":
        g = ring_of_cliques(draw(st.integers(3, 100)), draw(st.integers(2, 10)))
    elif shape == "random":
        n = draw(st.integers(8, 120))
        g = random_connected_graph(n, draw(st.integers(0, 2**16)), extra_edge_prob=draw(st.sampled_from([0.01, 0.03])))
    else:
        g = path_graph(draw(st.integers(4, 200)))
    # Breadth first from one node, to a drawn size.
    size = draw(st.integers(1, 15))
    seed = [draw(st.integers(0, g.n - 1))]
    for v in seed:
        if len(seed) >= size:
            break
        seed += [u for u in g.neighbors(v)[0].tolist() if u not in seed][: size - len(seed)]
    return g, np.array(seed[:size]), draw(st.sampled_from([0.15, 0.05])), draw(st.sampled_from([1e-2, 1e-3]))


def _flow(g, r, alpha, epsilon):
    res = mqi(g, r)
    return res, np.asarray(r), res.touched_nodes < g.n


def _spectral(g, r, alpha, epsilon):
    res = spectral_mqi_cluster(g, r)
    return res, np.asarray(r), len(r) < g.n


def _diffusion(g, r, alpha, epsilon):
    vec, touched = l1_pagerank(g, seed_distribution(g, r), alpha, epsilon)
    return (vec.indices.tolist(), vec.values.tolist(), touched), np.union1d(vec.support(), r), True


def _diffusion_swept(g, r, alpha, epsilon):
    res = l1pr_cluster(g, seed_distribution(g, r), alpha, epsilon)
    return res, np.union1d(res.vector.support(), r), True


def _answer(out):
    if isinstance(out, tuple):
        return out
    return (out.set_ids, out.objective, out.history, out.touched_nodes, out.iterations, out.cut, out.volume)


@pytest.mark.parametrize("method", [_flow, _spectral, _diffusion, _diffusion_swept])
@given(case=graphs_and_seeds())
def test_a_local_method_reads_only_its_region(method, case):
    g, r, alpha, epsilon = case
    try:
        out, region, local = method(g, r, alpha, epsilon)
    except ClusterError:  # no answer to compare (a seed that covers the graph, an empty diffusion)
        return
    if local:
        assert _answer(method(_poisoned(g, region), r, alpha, epsilon)[0]) == _answer(out)
