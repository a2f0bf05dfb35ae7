"""What each workload asks of the program, and how each answer is certified.

A workload is a list of library queries (each one clustering call from a
seed, including its sweep) plus a list of CLI commands, built from the
files ``gen.py`` wrote. Queries call the package through module
attributes looked up at call time, so the tracer's wrappers see them.

Every answer is certified after the timed interval, against values
recomputed with the graph's own set functionals; a CLI command must
print the set its library query returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from localcluster import flowcluster, rounding, spectral
from localcluster import graph as lgraph
from localcluster import io as lio

RTOL = 1e-9
KKT_TOL = 1e-6
RESIDUAL_TOL = 1e-9
CORRELATION_TOL = 1e-4  # mov_correlate's default tol


class CertificateError(Exception):
    """An answer failed its certificate."""


@dataclass
class Query:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    set_of: Callable[[Any], tuple[int, ...]]


@dataclass
class CliCall:
    argv: list[str]
    query: int  # index of the library query whose set the command must print


@dataclass
class Plan:
    queries: list[Query]
    label_maps: list[lio.LabelMap]  # one per query: the map of the graph it ran on
    cli: list[CliCall]


@dataclass
class GraphInput:
    """One loaded graph of a workload and its seed sets (internal ids)."""

    g: lgraph.Graph
    lm: lio.LabelMap
    file: str
    seed_files: list[str]
    seed_sets: list[np.ndarray]


@dataclass(frozen=True)
class Workload:
    setup_reps: int  # loads per graph file; setup_s is their median
    # At least ten samples beyond the 90th percentile, and every query a CLI
    # call is checked against.
    min_queries: int
    plan: Callable[[list[GraphInput], dict, Path], Plan]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CertificateError(message)


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def _result_ids(res) -> tuple[int, ...]:
    return res.set_ids


def _swept_ids(out) -> tuple[int, ...]:
    return out[-2].ids


def _check_fields(g, res) -> None:
    s = res.set_ids
    _require(len(s) > 0, "empty result set")
    _require(_close(res.conductance, lgraph.conductance(g, s)), "conductance field is wrong")
    _require(_close(res.cut, lgraph.cut(g, s)), "cut field is wrong")
    _require(_close(res.volume, lgraph.volume(g, s)), "volume field is wrong")


def _check_history(res) -> None:
    h = res.history
    _require(all(b < a for a, b in zip(h, h[1:])), "objective history is not strictly decreasing")
    _require(_close(h[-1], res.objective), "history does not end at the objective")


def _check_sweep(g, node_set, value: float) -> None:
    _require(_close(value, lgraph.conductance(g, node_set.ids)), "sweep value is not the set's conductance")


# -- flow refinement ------------------------------------------------------------


def mqi_query(g, r: np.ndarray) -> Query:
    members = set(r.tolist())

    def check(res) -> None:
        _check_fields(g, res)
        s = res.set_ids
        _require(set(s) <= members, "mqi output leaves the seed set")
        _require(_close(res.objective, lgraph.cut(g, s) / lgraph.volume(g, s)), "mqi objective is wrong")
        _check_history(res)

    return Query("mqi", lambda: flowcluster.mqi(g, r), check, _result_ids)


def flow_improve_query(g, r: np.ndarray) -> Query:
    def check(res) -> None:
        _check_fields(g, res)
        want = lgraph.relative_conductance(g, res.set_ids, r)
        _require(_close(res.objective, want), "flow_improve objective is wrong")
        _check_history(res)

    return Query("flow_improve", lambda: flowcluster.flow_improve(g, r), check, _result_ids)


def local_flow_improve_query(g, r: np.ndarray, delta: float) -> Query:
    vol_r = lgraph.volume(g, r)
    ratio = vol_r / (g.total_volume - vol_r)
    kappa = 1.0 + delta / ratio
    volume_bound = vol_r * (1.0 + 2.0 / (ratio + delta)) + lgraph.cut(g, r)

    def check(res) -> None:
        _check_fields(g, res)
        want = lgraph.relative_conductance(g, res.set_ids, r, kappa=kappa)
        _require(_close(res.objective, want), "local_flow_improve objective is wrong")
        _require(res.volume <= volume_bound + 1e-9, "local_flow_improve breaks its volume bound")
        _check_history(res)

    return Query(
        f"local_flow_improve(delta={delta:g})",
        lambda: flowcluster.local_flow_improve(g, r, delta=delta),
        check,
        _result_ids,
    )


# -- diffusion and spectral -----------------------------------------------------


def l1pr_query(g, r: np.ndarray, alpha: float, epsilon: float) -> Query:
    h = spectral.seed_distribution(g, r)

    def check(res) -> None:
        _check_fields(g, res)
        _require(_close(res.objective, res.conductance), "l1pr sweep value is not the set's conductance")
        vec, _ = spectral.l1_pagerank(g, h, alpha, epsilon)
        _require(spectral.kkt_residual(g, h, alpha, epsilon, vec) <= KKT_TOL, "l1_pagerank KKT residual too large")
        _require(set(res.set_ids) <= set(vec.support().tolist()), "l1pr set leaves the diffusion's support")

    return Query(
        f"l1pr_cluster(alpha={alpha:g},epsilon={epsilon:g})",
        lambda: spectral.l1pr_cluster(g, h, alpha, epsilon),
        check,
        _result_ids,
    )


def spectral_mqi_query(g, r: np.ndarray) -> Query:
    members = set(r.tolist())

    def check(res) -> None:
        _check_fields(g, res)
        s = res.set_ids
        _require(set(s) <= members, "spectral_mqi output leaves the seed set")
        _require(_close(res.objective, lgraph.cut(g, s) / lgraph.volume(g, s)), "spectral_mqi objective is wrong")

    return Query("spectral_mqi_cluster", lambda: spectral.spectral_mqi_cluster(g, r), check, _result_ids)


def sweep_query(g, x: np.ndarray) -> Query:
    def check(out) -> None:
        node_set, value, _ = out
        _check_sweep(g, node_set, value)

    return Query("sweep_cut(dense)", lambda: rounding.sweep_cut(g, x), check, lambda out: out[0].ids)


def _relative_residual(g, x: np.ndarray, shift: float, b: np.ndarray) -> float:
    """|| (L + shift*D) x - c b || / || c b || for the best scale c."""
    ax = lgraph.laplacian_apply(g, x) + shift * (g.degrees * x)
    c = float(b @ ax) / float(b @ b)
    return float(np.linalg.norm(ax - c * b)) / abs(c * float(np.linalg.norm(b)))


def fiedler_query(g) -> Query:
    def call():
        lam, vec = spectral.fiedler(g)
        node_set, value, _ = rounding.sweep_cut(g, vec)
        return lam, vec, node_set, value

    def check(out) -> None:
        lam, vec, node_set, value = out
        x = vec.values
        res = float(np.linalg.norm(lgraph.laplacian_apply(g, x) - lam * g.degrees * x))
        _require(res <= RESIDUAL_TOL * float(np.linalg.norm(g.degrees * x)), "fiedler residual too large")
        _check_sweep(g, node_set, value)

    return Query("fiedler+sweep", call, check, _swept_ids)


def mov_solve_query(g, r: np.ndarray, rho: float) -> Query:
    z = spectral.correlation_seed(g, r)

    def call():
        vec = spectral.mov_solve(g, z, rho)
        node_set, value, _ = rounding.sweep_cut(g, vec)
        return vec, node_set, value

    def check(out) -> None:
        vec, node_set, value = out
        rel = _relative_residual(g, vec.values, rho, g.degrees * z)
        _require(rel <= RESIDUAL_TOL, f"mov_solve residual {rel:.2e} too large")
        _check_sweep(g, node_set, value)

    return Query(f"mov_solve(rho={rho:g})+sweep", call, check, _swept_ids)


def mov_correlate_query(g, r: np.ndarray, kappa: float) -> Query:
    z = spectral.correlation_seed(g, r)

    def call():
        vec, rho = spectral.mov_correlate(g, z, kappa)
        node_set, value, _ = rounding.sweep_cut(g, vec)
        return vec, node_set, value

    def check(out) -> None:
        vec, node_set, value = out
        x, d = vec.values, g.degrees
        corr = float(z @ (d * x)) ** 2 / (float(z @ (d * z)) * float(x @ (d * x)))
        _require(abs(corr - kappa) <= CORRELATION_TOL, f"mov_correlate reached {corr:.6f}, not {kappa}")
        _check_sweep(g, node_set, value)

    return Query(f"mov_correlate(kappa={kappa:g})+sweep", call, check, _swept_ids)


# -- the workloads ----------------------------------------------------------------


def ring_plan(inputs: list[GraphInput], manifest: dict, work: Path) -> Plan:
    (s,) = inputs
    g = s.g
    queries: list[Query] = []
    for r in s.seed_sets:
        queries += [
            mqi_query(g, r),
            local_flow_improve_query(g, r, 1.0),
            l1pr_query(g, r, 0.15, 1e-3),
            l1pr_query(g, r, 0.01, 1e-6),
            spectral_mqi_query(g, r),
        ]
    x = lio.read_vector_csv(work / manifest["vector"], s.lm).to_dense()
    queries.append(sweep_query(g, x))
    queries.append(mov_solve_query(g, s.seed_sets[0], 0.05))
    seed = s.seed_files[0]
    cli = [
        CliCall(["local-flow-improve", "--graph", s.file, "--seed-set", seed, "--delta", "1"], 1),
        CliCall(
            ["l1pr", "--graph", s.file, "--seed-set", seed, "--alpha", "0.15", "--epsilon", "1e-3",
             "--sweep", "--vector-out", "l1pr_out.csv"],
            2,
        ),
        CliCall(["sweep", "--graph", s.file, "--vector-in", manifest["vector"]], len(queries) - 2),
    ]
    # Each command twice: a CLI call takes seconds, and three samples give
    # too rough a median.
    return Plan(queries, [s.lm] * len(queries), cli + cli)


FLOW_CLI_CALLS = 8


def flow_plan(inputs: list[GraphInput], manifest: dict, work: Path) -> Plan:
    # local_flow_improve(delta=0) is left out only because a single query on
    # 2k nodes runs for more than 5 minutes; delta=0.1 stays although it
    # builds more arcs than the global solve. delta=3 and delta=0.3 put two
    # more kinds beside delta=1, so the median query falls among three
    # overlapping kinds, not in the gap between the fast and the slow ones.
    # Seed sets take turns across the graphs, so that whatever prefix of the
    # list a run covers samples every graph evenly.
    queries: list[Query] = []
    label_maps: list[lio.LabelMap] = []
    for j in range(len(inputs[0].seed_sets)):
        for s in inputs:
            r = s.seed_sets[j]
            queries += [
                mqi_query(s.g, r),
                flow_improve_query(s.g, r),
                local_flow_improve_query(s.g, r, 1.0),
                local_flow_improve_query(s.g, r, 3.0),
                local_flow_improve_query(s.g, r, 0.3),
                local_flow_improve_query(s.g, r, 0.1),
            ]
            label_maps += [s.lm] * 6
    cli = [
        CliCall(["flow-improve", "--graph", s.file, "--seed-set", s.seed_files[0]], 6 * k + 1)
        for k, s in enumerate(inputs[:FLOW_CLI_CALLS])
    ]
    return Plan(queries, label_maps, cli)


def spectral_plan(inputs: list[GraphInput], manifest: dict, work: Path) -> Plan:
    queries: list[Query] = []
    label_maps: list[lio.LabelMap] = []
    cli: list[CliCall] = []
    for k, s in enumerate(inputs):
        (r,) = s.seed_sets
        base = len(queries)
        queries += [
            fiedler_query(s.g),
            mov_solve_query(s.g, r, 0.05),
            mov_correlate_query(s.g, r, 0.3),
            mov_correlate_query(s.g, r, 0.7),
            spectral_mqi_query(s.g, r),
            l1pr_query(s.g, r, 0.01, 1e-6),
        ]
        cli += [
            CliCall(["spectral", "--graph", s.file, "--sweep"], base),
            CliCall(
                ["spectral-mqi", "--graph", s.file, "--seed-set", s.seed_files[0], "--sweep",
                 "--vector-out", f"smqi_{k}.csv"],
                base + 4,
            ),
        ]
        label_maps += [s.lm] * (len(queries) - base)
    return Plan(queries, label_maps, cli)


WORKLOADS = {
    "ring100k-local": Workload(setup_reps=3, min_queries=100, plan=ring_plan),
    "planted2k-flow": Workload(setup_reps=3, min_queries=100, plan=flow_plan),
    "planted2k-spectral": Workload(setup_reps=2, min_queries=12, plan=spectral_plan),
}
