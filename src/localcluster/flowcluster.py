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
  ``local_flow_improve_scaled``, kappa given: in between. They are solved
  strongly locally only below the crossover set out below; where the
  output volume bound reaches vol(V), the network is built whole, as for
  ``flow_improve``.

``refine_by_flow`` runs the one loop they all call. Each round solves the
augmented min-cut of ``refcut`` (source to R at alpha*d_i, the rest to the
sink at beta*d_i) at alpha = the current set's objective and beta =
alpha*epsilon with epsilon = kappa*ratio, and accepts the s-side only on
strict objective decrease (relative tolerance 1e-12), which rules out
floating-point cycling. The accepted objective is the next
alpha. An empty s-side ends the loop with the previous set.

The solver follows from the output volume bound vol(S) <= vol(R)*(1 +
2/epsilon) + cut(R). Below vol(V), the grow-on-demand local max-flow
touches only a neighbourhood of R, and a call keeps one local flow for
all its rounds: the first round builds its network and grows its
residual; each later one, at alpha' = s*alpha (0 < s < 1, epsilon
fixed), scales that flow by s and augments and grows from there
(``refcut._LocalFlow.resolve``). Where the bound reaches vol(V), as it
always does at kappa = 1, growing cannot save work and the network is
built whole, once per call: between rounds only alpha and beta change,
so each later round solves, from zero flow, a network at the new source
and sink scales that shares the first one's arcs (``refcut.rescale``). Past
the crossover the local solver measured far slower than the whole-graph
solve: on a planted 2k-node graph's 8 seed sets at kappa = 1 + 1e-12 it
touched all nodes but one, in about 31 grow rounds per solve, and took
6.6 s against 0.62 s; at delta = 1e-3, 1e-4 and 1e-6 the
crossover took those seed sets from 5.1-7.0 s to 0.67-0.79 s.
"""

from __future__ import annotations

import math
import operator
import time

import numpy as np

from .errors import ParameterError
from .flownet import solve_maxflow
from .graph import SET_FUNCTIONAL_TOL, Graph, _as_node_array, _cut, _Seed, _seed_of, _sorted_ids, relative_conductance
from .refcut import AugmentedGraphSpec, materialize, rescale, solve_maxflow_local
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


def _seed_ratio(g: Graph, r: object) -> _Seed:
    """The seed normalized once, with vol(R) and vol(R)/vol(R^c); rejects seeds with no ratio.

    A seed this function made is returned as it is.
    """
    if isinstance(r, _Seed):
        return r
    r_arr = _as_node_array(g, r)
    if r_arr.size == 0:
        raise ParameterError("seed set is empty")
    seed = _seed_of(g, r_arr)
    if seed.volume <= 0.0:
        raise ParameterError("seed set has zero volume")
    return seed


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
    1, every round solves the fully materialized network: the first round
    builds it, and each later one solves a copy at the new source and sink
    scales that shares its arcs (``refcut.rescale``); ``touched_nodes`` is n. Below it the rounds solve
    strongly locally on one residual: the first round, warm-started from
    R, builds the call's one network and grows its subgraph on demand,
    carrying its flow from one grow round to the next. Each later round
    keeps that residual and its maximum flow, multiplied by s = alpha'/alpha
    in (0, 1): the source arcs and each member's own sink attachment scale
    by s as well, and edges keep their capacities, so the scaled flow is
    feasible and conserving; the round augments and grows from it. Every
    local cut is checked against its capacity in the graph, with the sink
    outside the residual reach. A round that scaling cannot reach (s
    outside (0, 1), which happens once the objective reaches 0) builds
    afresh, warm-started from the current set. ``touched_nodes`` counts
    the nodes of the residuals the call held. ``r`` may also be the
    ``_Seed`` that ``local_flow_improve`` normalized, so that R is
    normalized once per call. The current set, each round's s-side and
    the explored nodes are sorted int64 arrays throughout, the form the
    set functionals and the result builder take. The objective is named ``"cut_over_volume"`` at
    kappa = inf and ``"seed_relative_conductance"`` otherwise.
    """
    try:
        max_iters = operator.index(max_iters)
    except TypeError:
        raise ParameterError(f"max_iters must be an integer (got {max_iters!r})") from None
    if max_iters < 1:
        raise ParameterError("max_iters must be >= 1")
    if not kappa >= 1.0:
        raise ParameterError(f"kappa must be >= 1 (got {kappa})")
    t0 = time.perf_counter()
    seed = _seed_ratio(g, r)
    r_arr, vol_r = seed.ids, seed.volume
    eps = kappa * seed.ratio

    current = r_arr
    # The seed's objective is cut(R)/vol(R) at every kappa, as
    # relative_conductance computes it for S = R, so this is the output
    # volume bound vol(R)(1 + 2/eps) + cut(R) against vol(V).
    if not vol_r > SET_FUNCTIONAL_TOL:
        raise ParameterError("seed-relative conductance of the seed is not finite")
    obj = _cut(g, r_arr) / vol_r
    whole = vol_r * (1.0 + 2.0 / eps + obj) >= g.total_volume
    history = [obj]
    iterations = 0
    net = None
    flows = []  # the local flows the rounds ran on: one, unless a round could not scale the kept one

    for _ in range(max_iters):
        # 0 * inf is nan, so at kappa = inf beta stays inf even where alpha is 0.
        beta = math.inf if math.isinf(eps) else obj * eps
        spec = AugmentedGraphSpec(alpha=obj, beta=beta, seed=r_arr)
        if whole:
            if net is None:
                net = materialize(spec, g)
            else:
                net = rescale(net, spec, g)
            sol = solve_maxflow(net)
        else:
            sol = flows[-1].resolve(spec) if flows else None
            if sol is None:
                sol, _, kept = solve_maxflow_local(spec, g, warm_start=current)
                flows.append(kept)
        iterations += 1
        candidate = sol.s_side
        if not candidate.size:
            break
        cand_obj = relative_conductance(g, candidate, seed, kappa=kappa)
        if not cand_obj < obj * (1.0 - ACCEPT_RTOL):
            break
        current, obj = candidate, cand_obj
        history.append(obj)

    return ClusterResult.of_set(
        g,
        current,
        "cut_over_volume" if math.isinf(kappa) else "seed_relative_conductance",
        obj,
        touched_nodes=g.n if whole else _sorted_ids(np.concatenate([f.explored() for f in flows])).size,
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
    if not delta >= 0:  # NaN fails the comparison
        raise ParameterError(f"delta must be >= 0 (got {delta})")
    seed = _seed_ratio(g, r)
    return refine_by_flow(g, seed, 1.0 + delta / seed.ratio, max_iters)


def local_flow_improve_scaled(
    g: Graph,
    r: object,
    kappa: float,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ClusterResult:
    """local_flow_improve parametrized directly by the penalty scale kappa >= 1."""
    return refine_by_flow(g, r, kappa, max_iters)
