"""Acceptance gate: one test per shipping criterion.

Each test records a single summary line on success, and the run's
terminal summary replays them as a checklist. Tolerances are stated
inline next to every assert; the random corpora are all explicitly
seeded, so failures reproduce.
"""

import math
import random
import time

import numpy as np
import pytest

from localcluster import (
    UnattainableCorrelationError,
    conductance,
    correlation_seed,
    cut,
    fiedler,
    flow_improve,
    kkt_residual,
    l1_pagerank,
    l1pr_cluster,
    local_flow_improve,
    mov_correlate,
    mov_solve,
    mqi,
    spectral_mqi_cluster,
    sweep_cut,
    volume,
)
from localcluster.flownet import cut_capacity, solve_maxflow
from localcluster.oracles import (
    brute_min_conductance,
    brute_min_cut,
    brute_min_relative_conductance,
    brute_min_subset_ratio,
    dense_laplacian,
    dense_mov_solve,
    dense_nnq_prox,
)
from localcluster.synth import random_connected_graph
from test_flowcluster import relabel
from test_flownet import ArcRows


def _instances(count, n_lo, n_hi, master_seed, min_seed=1, margin=1):
    """Seeded stream of (graph, seed_ids) pairs with a proper seed set."""
    rng = random.Random(master_seed)
    out = []
    while len(out) < count:
        g = random_connected_graph(
            rng.randint(n_lo, n_hi),
            seed=rng.randint(0, 10**6),
            weighted=rng.random() < 0.5,
        )
        k = rng.randint(min_seed, max(min_seed, g.n - margin))
        seed_ids = sorted(rng.sample(range(g.n), k))
        if volume(g, seed_ids) < g.total_volume:
            out.append((g, seed_ids))
    return out


def test_criterion_01_mqi_matches_exhaustive_subset_search(criterion_report):
    t0 = time.perf_counter()
    cases = _instances(200, 4, 12, master_seed=101)
    for g, seed_ids in cases:
        res = mqi(g, seed_ids)
        _, best = brute_min_subset_ratio(g, seed_ids)
        assert res.objective == pytest.approx(best, abs=1e-9)
        assert set(res.set_ids) <= set(seed_ids)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    criterion_report(
        f"criterion 01 PASS: mqi equals exhaustive subset search on "
        f"{len(cases)} instances within 1e-9 ({elapsed:.1f}s)"
    )


def test_criterion_02_flow_improve_matches_exhaustive_search(criterion_report):
    cases = _instances(60, 4, 9, master_seed=202, margin=2)
    for g, seed_ids in cases:
        res = flow_improve(g, seed_ids)
        _, best = brute_min_relative_conductance(g, seed_ids)
        assert res.objective == pytest.approx(best, abs=1e-9)
    criterion_report(
        f"criterion 02 PASS: flow_improve equals exhaustive "
        f"seed-relative search on {len(cases)} instances within 1e-9"
    )


def test_criterion_03_maxflow_duality_and_exhaustive_cuts(criterion_report):
    rng = random.Random(303)
    checked = 0
    for _ in range(60):
        n = rng.randint(4, 9)
        rows = ArcRows(num_nodes=n, source=0, sink=n - 1)
        arcs = 0
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    cap = math.inf if rng.random() < 0.05 else rng.uniform(0.1, 4.0)
                    rows.add(u, v, cap)
                    arcs += 1
        if arcs == 0:
            rows.add(0, n - 1, 1.0)
        net = rows.build()
        try:
            best, _ = brute_min_cut(net)
        except Exception:
            continue
        sol = solve_maxflow(net)
        assert sol.flow_value == pytest.approx(best, rel=1e-9, abs=1e-9)
        assert cut_capacity(net, sol.s_side) == pytest.approx(
            sol.flow_value, rel=1e-9, abs=1e-9
        )
        checked += 1
    assert checked >= 50
    criterion_report(
        f"criterion 03 PASS: max-flow equals exhaustive min-cut and its "
        f"own cut certificate on {checked} networks within 1e-9"
    )


def test_criterion_04_cheeger_sandwich_and_sweep_guarantee(criterion_report):
    rng = random.Random(404)
    count = 0
    for _ in range(40):
        g = random_connected_graph(rng.randint(4, 12), seed=rng.randint(0, 10**6))
        lam2, vec = fiedler(g)
        _, phi_star = brute_min_conductance(g)
        assert lam2 / 2.0 <= phi_star + 1e-9
        assert phi_star <= math.sqrt(2.0 * lam2) + 1e-9
        _, phi_sweep, _ = sweep_cut(g, vec)
        assert phi_sweep <= math.sqrt(2.0 * lam2) + 1e-9
        assert phi_sweep >= phi_star - 1e-12
        count += 1
    criterion_report(
        f"criterion 04 PASS: lambda2/2 <= phi* <= sqrt(2*lambda2) and the "
        f"rounded vector meets the same upper bound on {count} graphs"
    )


def test_criterion_05_volume_bound_of_the_local_variant(big_ring, criterion_report):
    cases = _instances(40, 5, 12, master_seed=505, min_seed=2, margin=2)
    checked = 0
    for g, seed_ids in cases:
        vol_r = volume(g, seed_ids)
        ratio = vol_r / (g.total_volume - vol_r)
        for delta in (0.5, 1.0, 3.0):
            eps = ratio + delta
            res = local_flow_improve(g, seed_ids, delta=delta)
            bound = vol_r * (1.0 + 2.0 / eps) + cut(g, seed_ids)
            assert res.volume <= bound + 1e-9
            checked += 1
    seed_ids = list(range(10))
    res = local_flow_improve(big_ring, seed_ids, delta=1.0)
    vol_r = volume(big_ring, seed_ids)
    eps = vol_r / (big_ring.total_volume - vol_r) + 1.0
    assert res.volume <= vol_r * (1.0 + 2.0 / eps) + cut(big_ring, seed_ids) + 1e-9
    criterion_report(
        f"criterion 05 PASS: output volume within the stated bound on "
        f"{checked} small runs and the 100k-node ring"
    )


def test_criterion_06_delta_interpolation_endpoints(criterion_report):
    cases = _instances(55, 4, 10, master_seed=606, min_seed=2, margin=2)
    for g, seed_ids in cases:
        assert (
            local_flow_improve(g, seed_ids, delta=0.0).set_ids
            == flow_improve(g, seed_ids).set_ids
        )
        assert (
            local_flow_improve(g, seed_ids, delta=1e9).set_ids
            == mqi(g, seed_ids).set_ids
        )
    criterion_report(
        f"criterion 06 PASS: delta=0 reproduces flow_improve and "
        f"delta=1e9 reproduces mqi on {len(cases)} instances (set equality)"
    )


def test_criterion_07_diffusion_optimality_and_order_independence(criterion_report):
    rng = random.Random(707)
    perm_rng = np.random.default_rng(7070)
    count = 0
    for _ in range(40):
        n = rng.randint(4, 12)
        g = random_connected_graph(n, seed=rng.randint(0, 10**6))
        v = rng.randrange(n)
        alpha = rng.uniform(0.05, 0.5)
        epsilon = rng.uniform(1e-4, 5e-3)
        vec, _ = l1_pagerank(g, {v: 1.0}, alpha=alpha, epsilon=epsilon)
        assert kkt_residual(g, {v: 1.0}, alpha, epsilon, vec) <= 1e-6

        gamma = (1.0 - alpha) / 2.0
        h = np.zeros(n)
        h[v] = 1.0
        q = gamma * dense_laplacian(g) + alpha * np.diag(g.degrees)
        ref = dense_nnq_prox(q, alpha * h, epsilon * g.degrees)
        assert np.max(np.abs(vec.to_dense() - ref)) <= 1e-6

        # A relabeling reorders every neighbour list, and so the pushes.
        perm = perm_rng.permutation(n)
        moved, _ = l1_pagerank(relabel(g, perm), {int(perm[v]): 1.0}, alpha=alpha, epsilon=epsilon)
        assert np.max(np.abs(moved.to_dense()[perm] - vec.to_dense())) <= 1e-8
        count += 1
    criterion_report(
        f"criterion 07 PASS: diffusion meets first-order conditions at "
        f"1e-6, matches the dense program at 1e-6, and is update-order "
        f"independent at 1e-8 under a vertex relabeling on {count} instances"
    )


def test_criterion_08_strong_locality_on_the_large_ring(big_ring, criterion_report):
    t0 = time.perf_counter()
    vec, touched = l1_pagerank(big_ring, {0: 1.0}, alpha=0.15, epsilon=1e-3)
    diffusion_s = time.perf_counter() - t0
    assert diffusion_s < 5.0
    assert touched < 0.05 * big_ring.n

    res = l1pr_cluster(big_ring, {0: 1.0}, alpha=0.15, epsilon=1e-3)
    assert set(res.set_ids) == set(range(10))
    assert res.conductance == pytest.approx(2.0 / 92.0, abs=1e-12)

    t0 = time.perf_counter()
    flow_res = local_flow_improve(big_ring, range(10), delta=1.0)
    flow_s = time.perf_counter() - t0
    assert flow_s < 5.0
    assert flow_res.touched_nodes < 0.05 * big_ring.n
    assert flow_res.set_ids == tuple(range(10))

    spec_res = spectral_mqi_cluster(big_ring, range(13))
    assert spec_res.set_ids == tuple(range(10))
    assert spec_res.conductance == pytest.approx(2.0 / 92.0, abs=1e-12)
    assert spec_res.touched_nodes < 0.05 * big_ring.n
    criterion_report(
        f"criterion 08 PASS: on the 100k-node ring the diffusion touched "
        f"{touched} nodes in {diffusion_s * 1e3:.0f}ms, the local flow "
        f"refinement touched {flow_res.touched_nodes} in {flow_s * 1e3:.0f}ms "
        f"and the seed-confined eigenvector read {spec_res.touched_nodes}, "
        f"all recovering the planted clique exactly"
    )


def test_criterion_09_refinement_loop_is_monotone_and_bounded(criterion_report):
    cases = _instances(50, 4, 11, master_seed=909, min_seed=2, margin=2)
    for g, seed_ids in cases:
        for res in (
            mqi(g, seed_ids),
            flow_improve(g, seed_ids),
            local_flow_improve(g, seed_ids, delta=0.7),
        ):
            assert res.iterations <= 50
            for earlier, later in zip(res.history, res.history[1:]):
                assert later < earlier * (1.0 - 1e-12)
    criterion_report(
        f"criterion 09 PASS: every refinement history is strictly "
        f"decreasing and terminates within 50 rounds on {len(cases)} "
        f"instances, three methods each"
    )


def test_criterion_10_resolvent_family_against_dense_and_its_limits(dumbbell, criterion_report):
    rng = random.Random(1010)
    dense_checked = 0
    for _ in range(25):
        g = random_connected_graph(rng.randint(4, 10), seed=rng.randint(0, 10**6))
        z = np.array([rng.uniform(-1.0, 1.0) for _ in range(g.n)])
        if np.allclose(z - z.mean(), 0.0):
            continue
        rho = rng.choice([0.0, 0.03, 0.4, 2.0])
        x = mov_solve(g, z, rho).values
        x_ref = dense_mov_solve(g, z, rho)
        assert abs(abs(float(x @ x_ref)) - 1.0) <= 1e-8
        dense_checked += 1

    targeted = 0
    unattainable = 0
    for _ in range(15):
        g = random_connected_graph(rng.randint(4, 10), seed=rng.randint(0, 10**6))
        k = rng.randint(1, g.n - 1)
        r = sorted(rng.sample(range(g.n), k))
        z = correlation_seed(g, r)
        kappa = rng.uniform(0.3, 0.99)
        try:
            x, _rho = mov_correlate(g, z, kappa)
        except UnattainableCorrelationError as exc:
            # Honest refusal: the requested value must lie outside the
            # bracket the solver reported.
            assert not (exc.low_end <= kappa <= exc.high_end) and not (
                exc.high_end <= kappa <= exc.low_end
            )
            unattainable += 1
            continue
        v = x.values
        corr = float(z @ (g.degrees * v)) ** 2 / float(v @ (g.degrees * v))
        assert corr == pytest.approx(kappa, abs=1e-4)
        targeted += 1
    assert targeted >= 5

    lam2, f_vec = fiedler(dumbbell)
    z = correlation_seed(dumbbell, (0, 1, 2))
    x = mov_solve(dumbbell, z, -lam2 * (1.0 - 1e-5), tol=1e-7).values
    cos = abs(float(x @ f_vec.values))
    assert cos >= 0.999
    criterion_report(
        f"criterion 10 PASS: resolvent solves align with the dense mirror "
        f"at 1e-8 on {dense_checked} instances, correlation targeting hit "
        f"1e-4 on {targeted} (with {unattainable} honestly unattainable), "
        f"and the shift limit reaches the Fiedler direction (cos={cos:.6f})"
    )
