"""Seed-set refinement by repeated min-cut solves on the augmented graph.

The flow methods are one family. Each minimizes the seed-relative
conductance

    relative_conductance(S, R, kappa)
        = cut(S) / (vol(S & R) - kappa * ratio * vol(S - R)),

ratio = vol(R)/vol(R^c), and they differ only in the leave-the-seed
penalty kappa in [1, inf]:

* ``flow_improve``, kappa = 1: seed-relative conductance over the whole
  graph, solved to global optimality.
* ``mqi``, kappa = inf: confined to subsets of R, where the objective is
  cut(S)/vol(S).
* ``local_flow_improve``, kappa = 1 + delta/ratio, and
  ``local_flow_improve_scaled``, kappa given: in between, solved strongly
  locally.

``refine_by_flow`` runs the one loop they all call. Each round solves the
augmented min-cut at alpha = the current set's objective, beta =
alpha*epsilon with epsilon = kappa*ratio, and gamma = 1, and accepts the
s-side only on strict objective decrease (relative tolerance 1e-12), which
rules out floating-point cycling. The accepted objective is the next
alpha. An empty s-side ends the loop with the previous set.

The solver follows from the output volume bound vol(S) <= vol(R)*(1 +
2/epsilon) + cut(R). Below vol(V), the grow-on-demand local max-flow
touches only a neighbourhood of R. Where the bound reaches vol(V), as it
always does at kappa = 1, growing cannot save work and the network is
built whole. Past the crossover the local solver measured far slower than
the whole-graph solve: on a planted 2k-node graph's 8 seed sets at kappa =
1 + 1e-12 it touched all nodes but one, in about 31 grow rounds per
solve, and took 6.6 s against 0.62 s; at delta = 1e-3, 1e-4 and 1e-6 the
crossover took those seed sets from 5.1-7.0 s to 0.67-0.79 s.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import ParameterError, SeedTooLargeError
from .flownet import solve_maxflow
from .graph import Graph, _as_node_array, relative_conductance
from .refcut import AugmentedGraphSpec, materialize, solve_maxflow_local
from .results import ClusterResult

__all__ = [
    "refine_by_flow",
    "mqi",
    "flow_improve",
    "local_flow_improve",
    "local_flow_improve_scaled",
]

ACCEPT_RTOL = 1e-12
DEFAULT_MAX_ITERS = 50


def _seed_ratio(g: Graph, r: object) -> tuple[np.ndarray, float, float]:
    """The seed as a node array, vol(R) and vol(R)/vol(R^c); rejects seeds with no ratio."""
    r_arr = _as_node_array(g, r)
    if r_arr.size == 0:
        raise ParameterError("seed set is empty")
    vol_r = float(g.degrees[r_arr].sum())
    vol_rc = g.total_volume - vol_r
    if vol_rc <= 0.0:
        raise SeedTooLargeError("seed set covers the whole graph")
    if vol_r <= 0.0:
        raise ParameterError("seed set has zero volume")
    return r_arr, vol_r, vol_r / vol_rc


def refine_by_flow(
    g: Graph,
    r: object,
    kappa: float,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ClusterResult:
    """Minimize relative_conductance(., R, kappa) from the seed set R.

    Returns the final set with its objective history. The objective is
    strictly decreasing across accepted iterations and the loop always
    terminates: at a rejection, at an empty s-side, or at ``max_iters``.
    Where the output volume bound vol(R)*(1 + 2/epsilon) + cut(R), with
    epsilon = kappa*ratio, reaches vol(V), which it always does at kappa =
    1, every round solves the fully materialized network and
    ``touched_nodes`` is n. Below it the rounds solve strongly locally,
    warm-started from the current set: the solver grows its subgraph on
    demand and carries its flow from one grow round to the next. The
    objective is named ``"cut_over_volume"`` at kappa = inf and
    ``"seed_relative_conductance"`` otherwise.
    """
    if max_iters < 1:
        raise ParameterError("max_iters must be >= 1")
    if not kappa >= 1.0:
        raise ParameterError(f"kappa must be >= 1 (got {kappa})")
    t0 = time.perf_counter()
    r_arr, vol_r, ratio = _seed_ratio(g, r)
    eps = kappa * ratio

    source = {int(v): float(g.degrees[v]) for v in r_arr}
    current = frozenset(source)
    obj = relative_conductance(g, r_arr, r_arr, kappa=kappa)
    if math.isinf(obj):
        raise ParameterError("seed-relative conductance of the seed is not finite")
    # The seed's objective is cut(R)/vol(R), so this is the output volume
    # bound vol(R)(1 + 2/eps) + cut(R) against vol(V).
    whole = vol_r * (1.0 + 2.0 / eps + obj) >= g.total_volume
    history = [obj]
    touched: set[int] = set(current)
    iterations = 0

    for _ in range(max_iters):
        # 0 * inf is nan, so at kappa = inf beta stays inf even where alpha is 0.
        beta = math.inf if math.isinf(eps) else obj * eps
        spec = AugmentedGraphSpec(alpha=obj, beta=beta, gamma=1.0, source_weight=source)
        if whole:
            sol = solve_maxflow(materialize(spec, g))
        else:
            sol, explored = solve_maxflow_local(spec, g, warm_start=current)
            touched.update(explored)
        iterations += 1
        candidate = sol.s_side
        if not candidate:
            break
        cand_obj = relative_conductance(g, candidate, r_arr, kappa=kappa)
        if not cand_obj < obj * (1.0 - ACCEPT_RTOL):
            break
        current, obj = candidate, cand_obj
        history.append(obj)

    return ClusterResult.of_set(
        g,
        sorted(current),
        "cut_over_volume" if math.isinf(kappa) else "seed_relative_conductance",
        obj,
        touched_nodes=g.n if whole else len(touched),
        iterations=iterations,
        t0=t0,
        history=tuple(history),
    )


def mqi(g: Graph, r: object, max_iters: int = DEFAULT_MAX_ITERS) -> ClusterResult:
    """Best cut-to-volume subset of the seed set: refine_by_flow at kappa = inf.

    Every node outside R is hard-wired to the sink, so the output always
    stays inside R; at the fixed point no nonempty subset of R has smaller
    cut(S)/vol(S).
    """
    return refine_by_flow(g, r, math.inf, max_iters)


def flow_improve(g: Graph, r: object, max_iters: int = DEFAULT_MAX_ITERS) -> ClusterResult:
    """Globally optimal seed-relative conductance: refine_by_flow at kappa = 1.

    The fixed point minimizes cut(S)/(vol(S & R) - ratio*vol(S - R)) over
    every S in the graph, so the output's plain conductance never exceeds
    the seed's.
    """
    return refine_by_flow(g, r, 1.0, max_iters)


def local_flow_improve(
    g: Graph,
    r: object,
    delta: float = 1.0,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ClusterResult:
    """Strongly-local interpolation between flow_improve and mqi.

    ``delta`` >= 0 sets the leave-R penalty epsilon = vol(R)/vol(R^c) +
    delta, that is kappa = 1 + delta/ratio. delta=0 is flow_improve;
    very large delta reproduces mqi's output. The output volume obeys
    vol(S) <= vol(R) * (1 + 2/epsilon) + cut(R). Where that bound reaches
    vol(V), at a small enough delta, the solve is not local: the network
    is built whole and ``touched_nodes`` is n.
    """
    if delta < 0:
        raise ParameterError(f"delta must be >= 0 (got {delta})")
    r_arr, _, ratio = _seed_ratio(g, r)
    return refine_by_flow(g, r_arr, 1.0 + delta / ratio, max_iters)


def local_flow_improve_scaled(
    g: Graph,
    r: object,
    kappa: float,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ClusterResult:
    """local_flow_improve parametrized directly by the penalty scale kappa >= 1."""
    return refine_by_flow(g, r, kappa, max_iters)
