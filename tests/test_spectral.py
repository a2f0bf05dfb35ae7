"""Eigenpair solvers, the seed-confined variant, and the seed-biased
resolvent family, all cross-checked against the dense oracles."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localcluster import (
    ConvergenceError,
    EmbeddingVector,
    ParameterError,
    UnattainableCorrelationError,
    correlation_seed,
    fiedler,
    laplacian_apply,
    mov_correlate,
    mov_solve,
    seed_distribution,
    spectral_mqi,
    spectral_mqi_cluster,
    sweep_cut,
)
from localcluster import spectral
from localcluster.graph import Graph
from localcluster.oracles import (
    dense_eig_smallest,
    dense_laplacian,
    dense_mov_solve,
    dense_normalized_laplacian,
)
from localcluster.solvers import MatvecBudget, conjugate_gradient
from localcluster.synth import complete_graph, random_connected_graph
from test_flowcluster import relabel

DUMBBELL_LAMBDA2 = 0.20466635455687243
DUMBBELL_LAMBDA_R = 0.12084713039410419
# Vertex 3 is isolated: degree zero.
WITH_ISOLATED = Graph.from_edges(4, [0, 1], [1, 2])


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    return abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))


class TestEmbeddingVector:
    def test_dense_roundtrip(self):
        vec = EmbeddingVector(n=3, values=np.array([1.0, 0.0, -2.0]))
        assert not vec.is_sparse
        assert vec.to_dense().tolist() == [1.0, 0.0, -2.0]
        assert vec.support().tolist() == [0, 2]

    def test_sparse_roundtrip(self):
        vec = EmbeddingVector(
            n=5, values=np.array([2.0, 0.0]), indices=np.array([1, 3])
        )
        assert vec.is_sparse
        assert vec.to_dense().tolist() == [0.0, 2.0, 0.0, 0.0, 0.0]
        assert vec.support().tolist() == [1]
        ids, vals = vec.nonzeros()
        assert ids.tolist() == [1] and vals.tolist() == [2.0]

    def test_validation(self):
        with pytest.raises(ParameterError):
            EmbeddingVector(n=3, values=np.zeros(2))
        with pytest.raises(ParameterError):
            EmbeddingVector(n=3, values=np.zeros(2), indices=np.array([0]))
        with pytest.raises(ParameterError):
            EmbeddingVector(n=3, values=np.zeros(2), indices=np.array([1, 0]))
        with pytest.raises(ParameterError):
            EmbeddingVector(n=3, values=np.zeros(2), indices=np.array([1, 1]))
        with pytest.raises(ParameterError):
            EmbeddingVector(n=3, values=np.zeros(2), indices=np.array([1, 3]))

    @pytest.mark.parametrize(
        "indices",
        [np.array([1.5, 3.2]), [1.5, 3.2], np.array([1.0, 3.0]), [1.0, 3.0], np.array([False, True]), [False, True]],
        ids=["float array", "float list", "whole floats", "whole-float list", "bool array", "bool list"],
    )
    def test_non_integer_indices_rejected(self, indices):
        # Each would pass as integers once truncated: [1, 3] or [0, 1].
        with pytest.raises(ParameterError, match="sparse indices must be integers"):
            EmbeddingVector(n=5, values=np.ones(2), indices=indices)

    def test_an_empty_index_list_is_valid(self):
        vec = EmbeddingVector(n=3, values=[], indices=[])
        assert vec.indices.dtype == np.int64 and vec.indices.size == 0
        assert vec.to_dense().tolist() == [0.0, 0.0, 0.0]


class TestSeedHelpers:
    def test_seed_distribution_point_mass(self, dumbbell):
        assert seed_distribution(dumbbell, 4) == {4: 1.0}

    def test_seed_distribution_degree_weighted(self, dumbbell):
        dist = seed_distribution(dumbbell, (2, 3))
        assert dist == {2: 0.5, 3: 0.5}
        dist = seed_distribution(dumbbell, (0, 2))
        assert dist[0] == pytest.approx(2.0 / 5.0)
        assert dist[2] == pytest.approx(3.0 / 5.0)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_seed_distribution_validation(self, dumbbell):
        with pytest.raises(ParameterError):
            seed_distribution(dumbbell, ())
        with pytest.raises(ParameterError):
            seed_distribution(dumbbell, 17)

    def test_correlation_seed_is_degree_orthogonal(self, dumbbell):
        z = correlation_seed(dumbbell, (0, 1, 2))
        assert float(dumbbell.degrees @ z) == pytest.approx(0.0, abs=1e-12)
        assert float(z @ (dumbbell.degrees * z)) == pytest.approx(1.0)

    @pytest.mark.parametrize("seeds", [[3], 3])
    def test_seed_distribution_rejects_a_zero_volume_seed(self, seeds):
        with pytest.raises(ParameterError, match="zero volume"):
            seed_distribution(WITH_ISOLATED, seeds)

    @pytest.mark.parametrize("seeds", [[3], [0, 1, 2]])
    def test_correlation_seed_rejects_a_side_of_zero_volume(self, seeds):
        with pytest.raises(ParameterError, match="positive volume"):
            correlation_seed(WITH_ISOLATED, seeds)

    def test_correlation_seed_rejects_trivial_sets(self, dumbbell):
        with pytest.raises(ParameterError):
            correlation_seed(dumbbell, ())
        with pytest.raises(ParameterError):
            correlation_seed(dumbbell, range(6))


class TestFiedler:
    def test_cycle_normalized(self, c4):
        lam, _ = fiedler(c4)
        assert lam == pytest.approx(1.0, abs=1e-9)

    def test_cycle_unnormalized(self, c4):
        lam, _ = fiedler(c4, normalized=False)
        assert lam == pytest.approx(2.0, abs=1e-9)

    def test_complete_graphs(self, k4):
        lam, _ = fiedler(k4)
        assert lam == pytest.approx(4.0 / 3.0, abs=1e-9)
        lam, _ = fiedler(complete_graph(2))
        assert lam == pytest.approx(2.0, abs=1e-9)

    def test_dumbbell_frozen_value(self, dumbbell):
        lam, vec = fiedler(dumbbell)
        assert lam == pytest.approx(DUMBBELL_LAMBDA2, abs=1e-9)
        assert np.linalg.norm(vec.values) == pytest.approx(1.0)
        assert vec.values[int(np.argmax(np.abs(vec.values)))] > 0
        assert vec.kind == "fiedler"

    def test_generalized_eigen_residual(self, dumbbell):
        from localcluster import laplacian_apply

        lam, vec = fiedler(dumbbell, tol=1e-12)
        x = vec.values
        res = laplacian_apply(dumbbell, x) - lam * dumbbell.degrees * x
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(dumbbell.degrees * x)

    def test_sweep_of_fiedler_finds_the_bottleneck(self, dumbbell):
        _, vec = fiedler(dumbbell)
        best, value, _ = sweep_cut(dumbbell, vec)
        assert set(best.ids) in ({0, 1, 2}, {3, 4, 5})
        assert value == pytest.approx(1.0 / 7.0)

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = random.Random(60601)
        for _ in range(8):
            g = random_connected_graph(rng.randint(4, 12), seed=rng.randint(0, 10**6))
            lam, vec = fiedler(g)
            sqrt_d = np.sqrt(g.degrees)
            lam_ref, y_ref = dense_eig_smallest(
                dense_normalized_laplacian(g), deflate=sqrt_d
            )
            assert lam == pytest.approx(lam_ref, abs=1e-8)
            assert _cos(vec.values, y_ref / sqrt_d) == pytest.approx(1.0, abs=1e-7)

    def test_unnormalized_matches_dense_oracle_on_random_graphs(self):
        rng = random.Random(70702)
        for _ in range(8):
            g = random_connected_graph(
                rng.randint(4, 12), seed=rng.randint(0, 10**6), weighted=rng.random() < 0.5
            )
            lam, vec = fiedler(g, normalized=False)
            lam_ref, x_ref = dense_eig_smallest(dense_laplacian(g), deflate=np.ones(g.n))
            assert lam == pytest.approx(lam_ref, abs=1e-8)
            assert _cos(vec.values, x_ref) == pytest.approx(1.0, abs=1e-7)

    def test_validation(self, dumbbell):
        for tol in (0.0, math.nan):
            with pytest.raises(ParameterError):
                fiedler(dumbbell, tol=tol)
        two_parts = Graph.from_edges(4, [0, 2], [1, 3])
        with pytest.raises(ParameterError):
            fiedler(two_parts)


class TestSeedConfined:
    def test_whole_graph_gives_ground_state(self, dumbbell):
        lam, vec = spectral_mqi(dumbbell, range(6))
        assert lam == 0.0
        sqrt_d = np.sqrt(dumbbell.degrees)
        assert vec.values == pytest.approx(sqrt_d / np.linalg.norm(sqrt_d))

    def test_singleton(self, dumbbell):
        lam, vec = spectral_mqi(dumbbell, (4,))
        assert lam == 1.0
        assert vec.indices.tolist() == [4]
        assert vec.values.tolist() == [1.0]

    def test_dumbbell_triangle_frozen(self, dumbbell):
        lam, vec = spectral_mqi(dumbbell, (0, 1, 2))
        assert lam == pytest.approx(DUMBBELL_LAMBDA_R, abs=1e-9)
        assert vec.indices.tolist() == [0, 1, 2]
        assert np.all(vec.values > 0)
        assert vec.values[0] == pytest.approx(vec.values[1], abs=1e-8)

    def test_matches_dense_submatrix(self):
        rng = random.Random(2210)
        for _ in range(8):
            g = random_connected_graph(rng.randint(5, 12), seed=rng.randint(0, 10**6))
            k = rng.randint(2, g.n - 1)
            r = sorted(rng.sample(range(g.n), k))
            lam, vec = spectral_mqi(g, r)
            sub = dense_normalized_laplacian(g)[np.ix_(r, r)]
            lam_ref, _ = dense_eig_smallest(sub)
            assert lam == pytest.approx(lam_ref, abs=1e-8)
            # The bottom eigenvalue can be degenerate, so instead of
            # comparing directions check the residual under the dense
            # submatrix, which certifies membership in the eigenspace.
            res = sub @ vec.values - lam * vec.values
            assert np.linalg.norm(res) <= 1e-7

    @pytest.mark.xfail(
        strict=True,
        raises=ConvergenceError,
        reason="inverse iteration stalls where the submatrix's lambda_1/lambda_2 is 0.997 "
        "(ROADMAP item 9: a block eigensolver)",
    )
    def test_converges_on_a_nearly_degenerate_submatrix(self):
        # 1 of 3,000 small random cases; the relabeling property below
        # meets such cases at random.
        g = random_connected_graph(9, seed=167, weighted=True)
        r = [0, 1, 4, 5, 6, 8]
        lam, vec = spectral_mqi(g, r)
        sub = dense_normalized_laplacian(g)[np.ix_(r, r)]
        assert lam == pytest.approx(dense_eig_smallest(sub)[0], abs=1e-8)
        assert np.linalg.norm(sub @ vec.values - lam * vec.values) <= 1e-7

    def test_cluster_rounds_to_the_triangle(self, dumbbell):
        res = spectral_mqi_cluster(dumbbell, (0, 1, 2))
        assert res.set_ids == (0, 1, 2)
        assert res.objective == pytest.approx(1.0 / 7.0)
        assert res.objective_name == "cut_over_volume"
        assert res.history == (pytest.approx(DUMBBELL_LAMBDA_R),)
        assert res.iterations == 1

    def test_cluster_counts_the_seed_and_its_neighbours(self, dumbbell):
        # The triangle and vertex 3, the one neighbour outside it.
        assert spectral_mqi_cluster(dumbbell, (0, 1, 2)).touched_nodes == 4

    @pytest.mark.parametrize("seeds", [[2, 3], [3]])
    def test_zero_degree_seed_rejected(self, seeds):
        # [2, 3] once ran the whole matvec budget; [3] returned lambda = 1.
        for solve in (spectral_mqi, spectral_mqi_cluster):
            with pytest.raises(ParameterError, match="zero degree"):
                solve(WITH_ISOLATED, seeds)

    def test_empty_seed_rejected(self, dumbbell):
        with pytest.raises(ParameterError):
            spectral_mqi(dumbbell, ())

    def test_tol_validation(self, dumbbell):
        # NaN passes a `tol <= 0` check and then never converges.
        for solve in (spectral_mqi, spectral_mqi_cluster):
            for tol in (0.0, -1.0, math.nan):
                with pytest.raises(ParameterError):
                    solve(dumbbell, (0, 1, 2), tol=tol)


def reference_apply_sub(g, r, y):
    """Zero-pad y to length n, apply the whole normalized Laplacian, read back R's rows."""
    inv_sqrt_d = 1.0 / np.sqrt(g.degrees)
    pad = np.zeros(g.n)
    pad[r] = y
    return (inv_sqrt_d * laplacian_apply(g, inv_sqrt_d * pad))[r]


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 24),
    weighted=st.booleans(),
    shape=st.sampled_from(["random", "alternate", "lone_vertex", "all_but_one"]),
)
def test_restricted_product_matches_the_padded_product(seed, n, weighted, shape):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, seed=seed, weighted=weighted)
    if shape == "random":
        r = np.sort(rng.choice(n, int(rng.integers(1, n)), replace=False))
    elif shape == "alternate":
        r = np.arange(int(rng.integers(0, 2)), n, 2)
    elif shape == "lone_vertex":
        # A vertex of R whose neighbours all lie outside R.
        v = int(rng.integers(0, n))
        others = np.setdiff1d(np.arange(n), np.append(g.neighbors(v)[0], v))
        r = np.union1d([v], others[rng.random(others.size) < 0.5])
    else:
        r = np.delete(np.arange(n), int(rng.integers(0, n)))
    y = rng.standard_normal(r.size)

    apply_sub, s = spectral._scaled_laplacian(g, rows=r)
    got = apply_sub(y)
    assert np.array_equal(got, reference_apply_sub(g, r, y))
    assert np.array_equal(s, np.sqrt(g.degrees[r]))
    # rtol 1e-12 against the size of the terms summed, so that a row
    # whose terms cancel is not held to a relative bound it cannot meet.
    sub = dense_normalized_laplacian(g)[np.ix_(r, r)]
    assert np.all(np.abs(got - sub @ y) <= 1e-12 * (np.abs(sub) @ np.abs(y)))
    # The product allocates its own output: a second call does not change the first.
    again = apply_sub(-y)
    assert np.array_equal(got, reference_apply_sub(g, r, y))
    assert np.array_equal(again, reference_apply_sub(g, r, -y))


class TestResolventSolve:
    def test_matches_dense_mirror(self):
        rng = random.Random(88)
        for _ in range(8):
            g = random_connected_graph(rng.randint(4, 10), seed=rng.randint(0, 10**6))
            z = np.array([rng.uniform(-1, 1) for _ in range(g.n)])
            if np.allclose(z - z.mean(), 0):
                continue
            rho = rng.choice([0.0, 0.05, 0.3, 1.7])
            x = mov_solve(g, z, rho).values
            x_ref = dense_mov_solve(g, z, rho)
            assert _cos(x, x_ref) == pytest.approx(1.0, abs=1e-8)

    def test_large_rho_returns_the_seed_direction(self, dumbbell):
        z = correlation_seed(dumbbell, (0, 1, 2))
        x = mov_solve(dumbbell, z, 1e8).values
        assert _cos(x, z) == pytest.approx(1.0, abs=1e-6)

    def test_rho_near_lower_limit_returns_fiedler_direction(self, dumbbell):
        _, vec = fiedler(dumbbell)
        z = correlation_seed(dumbbell, (0, 1, 2))
        x = mov_solve(dumbbell, z, -DUMBBELL_LAMBDA2 * (1.0 - 1e-5), tol=1e-7).values
        assert _cos(x, vec.values) >= 0.999

    def test_rho_below_limit_rejected(self, dumbbell):
        z = correlation_seed(dumbbell, (0, 1, 2))
        with pytest.raises(ParameterError):
            mov_solve(dumbbell, z, -DUMBBELL_LAMBDA2)
        with pytest.raises(ParameterError):
            mov_solve(dumbbell, z, -5.0)

    def test_non_finite_rho_rejected(self, dumbbell):
        # Either would run the whole matvec budget before failing.
        z = correlation_seed(dumbbell, (0, 1, 2))
        for rho in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="rho must be finite"):
                mov_solve(dumbbell, z, rho)

    def test_tol_validation(self, dumbbell):
        # NaN would pass the residual check `rel > tol` unseen.
        z = correlation_seed(dumbbell, (0, 1, 2))
        for tol in (0.0, math.nan):
            with pytest.raises(ParameterError):
                mov_solve(dumbbell, z, 0.1, tol=tol)

    def test_constant_seed_rejected(self, dumbbell):
        with pytest.raises(ParameterError):
            mov_solve(dumbbell, np.ones(6), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_seed_rejected(self, dumbbell, bad):
        # Each once ran the whole matvec budget and then raised ConvergenceError.
        z = correlation_seed(dumbbell, (0, 1, 2))
        z[4] = bad
        with pytest.raises(ParameterError, match="finite"):
            mov_solve(dumbbell, z, 0.5)
        with pytest.raises(ParameterError, match="finite"):
            mov_correlate(dumbbell, z, kappa=0.96)

    def test_conjugate_gradient_stops_at_a_nan_curvature(self):
        budget = MatvecBudget()
        with pytest.raises(ParameterError, match="not finite"):
            conjugate_gradient(lambda v: 2.0 * v, np.array([1.0, math.nan]), rel_tol=1e-10, budget=budget)
        assert budget.used == 1

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [0, 2], [1, 3])
        with pytest.raises(ParameterError):
            mov_solve(g, np.array([1.0, -1.0, 0.0, 0.0]), 0.5)

    def test_same_bytes_at_one_and_two_blas_threads(self):
        """mov_solve on 20,000 nodes returns the same bytes at one and at two BLAS threads.

        Each solve runs in a fresh interpreter, since BLAS reads its thread
        count when numpy loads. On a machine with one CPU, BLAS runs one
        thread either way, and this test passes without checking anything.
        """
        code = (
            "import hashlib, sys\n"
            "from localcluster.spectral import correlation_seed, mov_solve\n"
            "from localcluster.synth import ring_of_cliques\n"
            "g = ring_of_cliques(2000, 10)\n"
            "x = mov_solve(g, correlation_seed(g, range(10)), 0.05).values\n"
            "sys.stdout.write(hashlib.sha256(x.tobytes()).hexdigest())\n"
        )
        src = str(Path(spectral.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            )
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
            )
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert digests[0] == digests[1]


class TestCorrelationTargeting:
    def test_hits_requested_correlation(self, dumbbell):
        z = correlation_seed(dumbbell, (0, 1, 2))
        x, rho = mov_correlate(dumbbell, z, kappa=0.96)
        v = x.values
        corr = float(z @ (dumbbell.degrees * v)) ** 2 / float(
            v @ (dumbbell.degrees * v)
        )
        assert corr == pytest.approx(0.96, abs=1e-4)
        assert rho == pytest.approx(0.0682660, abs=1e-3)

    def test_perfect_alignment_endpoint(self, dumbbell):
        z = correlation_seed(dumbbell, (0, 1, 2))
        x, rho = mov_correlate(dumbbell, z, kappa=1.0)
        v = x.values
        corr = float(z @ (dumbbell.degrees * v)) ** 2 / float(
            v @ (dumbbell.degrees * v)
        )
        assert corr == pytest.approx(1.0, abs=1e-4)
        assert rho > 1.0

    def test_unattainably_low_correlation(self, dumbbell):
        # The triangle seed is already close to the Fiedler direction, so
        # even the rho -> -lambda2 end stays highly correlated and 0.5 is
        # out of reach.
        z = correlation_seed(dumbbell, (0, 1, 2))
        with pytest.raises(UnattainableCorrelationError) as exc:
            mov_correlate(dumbbell, z, kappa=0.5)
        assert 0.9 < exc.value.low_end < exc.value.high_end <= 1.0 + 1e-12

    def test_one_fiedler_solve_per_call(self, dumbbell, monkeypatch):
        calls = []
        original = spectral.fiedler

        def counting_fiedler(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "fiedler", counting_fiedler)
        z = correlation_seed(dumbbell, (0, 1, 2))
        mov_correlate(dumbbell, z, kappa=0.96)
        assert len(calls) == 1
        with pytest.raises(UnattainableCorrelationError):
            mov_correlate(dumbbell, z, kappa=0.5)
        assert len(calls) == 2

    def test_kappa_validation(self, dumbbell):
        z = correlation_seed(dumbbell, (0, 1, 2))
        for bad in (0.0, -0.5, 1.01, math.nan):
            with pytest.raises(ParameterError):
                mov_correlate(dumbbell, z, kappa=bad)

    def test_tol_validation(self, dumbbell):
        # NaN tolerance can never be met.
        z = correlation_seed(dumbbell, (0, 1, 2))
        for tol in (0.0, math.nan):
            with pytest.raises(ParameterError):
                mov_correlate(dumbbell, z, kappa=0.96, tol=tol)


@st.composite
def relabeled_spectral_cases(draw):
    n = draw(st.integers(4, 15))
    g = random_connected_graph(n, seed=draw(st.integers(0, 10**6)), weighted=draw(st.booleans()))
    seed_ids = sorted(draw(st.permutations(range(n)))[: draw(st.integers(1, n - 1))])
    return g, seed_ids, np.array(draw(st.permutations(range(n))))


@settings(max_examples=100, deadline=None)
@given(case=relabeled_spectral_cases())
def test_relabeling_the_vertices_relabels_the_spectral_answers(case):
    g, seed_ids, perm = case
    h = relabel(g, perm)
    moved_seed = perm[seed_ids]
    try:
        lam, moved_lam = fiedler(g)[0], fiedler(h)[0]
    except ConvergenceError:
        # Inverse iteration stalls where lambda_2 / lambda_3 is near 1
        # (0.982-0.992 on 16 of 4,800 small random graphs), a defect of the
        # eigensolver, not of relabeling (ROADMAP item 9).
        assume(False)
    assert moved_lam == pytest.approx(lam, rel=1e-8)

    x = mov_solve(g, correlation_seed(g, seed_ids), 0.05).values
    y = mov_solve(h, correlation_seed(h, moved_seed), 0.05).values
    np.testing.assert_allclose(y[perm], x, rtol=1e-7, atol=1e-12)

    a = spectral_mqi_cluster(g, seed_ids)
    # Entries equal within rounding sweep in id order, which relabeling
    # changes, and a near-tie between the best prefix and the runner-up
    # may flip with the summation order.
    ids, vals = a.vector.nonzeros()
    swept = vals / np.sqrt(g.degrees[ids])
    ranked = np.sort(swept)
    assume(not (np.diff(ranked) <= 1e-9 * ranked[1:]).any())
    _, _, profile = sweep_cut(g, EmbeddingVector(n=g.n, values=swept, indices=ids), "cut_over_volume")
    ranked = np.sort(profile.values)
    assume(ranked.size < 2 or not ranked[1] - ranked[0] < 1e-9 * ranked[1])
    b = spectral_mqi_cluster(h, moved_seed)
    assert b.set_ids == tuple(sorted(perm[list(a.set_ids)].tolist()))
    assert b.objective == pytest.approx(a.objective, rel=1e-12)
