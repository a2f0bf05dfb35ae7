"""Eigenpair solvers, the seed-confined variant, and the seed-biased
resolvent family, all cross-checked against the dense oracles."""

import math
import random

import numpy as np
import pytest

from localcluster import (
    ConvergenceError,
    EmbeddingVector,
    ParameterError,
    UnattainableCorrelationError,
    correlation_seed,
    fiedler,
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
    dense_mov_solve,
    dense_normalized_laplacian,
)
from localcluster.synth import complete_graph, random_connected_graph

DUMBBELL_LAMBDA2 = 0.20466635455687243
DUMBBELL_LAMBDA_R = 0.12084713039410419


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

    def test_validation(self, dumbbell):
        with pytest.raises(ParameterError):
            fiedler(dumbbell, tol=0.0)
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

    def test_cluster_rounds_to_the_triangle(self, dumbbell):
        res = spectral_mqi_cluster(dumbbell, (0, 1, 2))
        assert res.set_ids == (0, 1, 2)
        assert res.objective == pytest.approx(1.0 / 7.0)
        assert res.objective_name == "cut_over_volume"
        assert res.history == (pytest.approx(DUMBBELL_LAMBDA_R),)
        assert res.iterations == 1

    def test_empty_seed_rejected(self, dumbbell):
        with pytest.raises(ParameterError):
            spectral_mqi(dumbbell, ())


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

    def test_constant_seed_rejected(self, dumbbell):
        with pytest.raises(ParameterError):
            mov_solve(dumbbell, np.ones(6), 0.5)

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [0, 2], [1, 3])
        with pytest.raises(ParameterError):
            mov_solve(g, np.array([1.0, -1.0, 0.0, 0.0]), 0.5)


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
        for bad in (0.0, -0.5, 1.01):
            with pytest.raises(ParameterError):
                mov_correlate(dumbbell, z, kappa=bad)
