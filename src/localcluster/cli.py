"""Command-line front end.

One job per invocation: load a graph, run one algorithm, emit JSON on
stdout (or --out) and optional vector CSVs. Logs and warnings go to
stderr so output stays pipeable. Exit codes: 0 success, 1 usage or
parameter range, 2 input data, 3 convergence, 4 infeasible or
degenerate instance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Callable

from . import io as gio
from .errors import (
    ConvergenceError,
    InfeasibleError,
    InputError,
    ParameterError,
)
from .flowcluster import (
    flow_improve,
    local_flow_improve,
    local_flow_improve_scaled,
    mqi,
)
from .graph import Graph, NodeSet, conductance, expansion
from .oracles import (
    brute_min_conductance,
    brute_min_expansion,
    brute_min_relative_conductance,
    brute_min_subset_ratio,
)
from .results import ClusterResult
from .rounding import sweep_cut
from .spectral import (
    EmbeddingVector,
    _correlation,
    correlation_seed,
    fiedler,
    l1_pagerank,
    l1pr_cluster,
    mov_correlate,
    mov_solve,
    seed_distribution,
    spectral_mqi,
    spectral_mqi_cluster,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_INFEASIBLE = 4

# Each error class the CLI reports, and its exit code.
_EXIT_CODES = {
    ParameterError: EXIT_USAGE,
    InputError: EXIT_INPUT,
    OSError: EXIT_INPUT,
    ConvergenceError: EXIT_CONVERGENCE,
    InfeasibleError: EXIT_INFEASIBLE,
}

# brute --target, and the objective name its result carries.
_BRUTE_TARGETS = {
    "conductance": "conductance",
    "expansion": "expansion",
    "relative-conductance": "seed_relative_conductance",
    "subset-ratio": "cut_over_volume",
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions (exit code 1)."""

    def error(self, message: str):
        raise ParameterError(message)


def _number(kind: type, ok: Callable[[float], bool], rule: str) -> Callable[[str], float]:
    """An argparse ``type``: parse with ``kind``, then accept only values where ``ok`` holds.

    Each ``ok`` is a comparison that must hold, so NaN fails every rule.
    """

    def parse(text: str):
        x = kind(text)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return x

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="localcluster", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, run: Callable, seed: bool | None, **kwargs) -> argparse.ArgumentParser:
        """A subcommand running ``run``; ``seed`` says whether its seed flags
        are required (True), optional (False) or absent (None)."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--graph", required=True, help="edge-list file")
        p.add_argument("--out", help="write result JSON here instead of stdout")
        if seed is not None:
            group = p.add_mutually_exclusive_group(required=seed)
            group.add_argument("--seed-set", help="file of seed labels, one per line")
            group.add_argument("--seed-node", help="single seed label")
        return p

    positive = _number(float, lambda x: x > 0, "positive")
    kappa = _number(float, lambda x: x >= 1, "at least 1")
    max_iters = dict(type=_number(int, lambda k: k >= 1, "at least 1"), default=50)
    objective = dict(choices=("conductance", "expansion"), default="conductance")

    p = add("spectral", _cmd_spectral, None, help="global eigenvector embedding, optionally swept")
    p.add_argument("--unnormalized", action="store_true")
    p.add_argument("--tol", type=positive)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--objective", **objective)
    p.add_argument("--vector-out")

    p = add("sweep", _cmd_sweep, None, help="round a stored vector by threshold sweep")
    p.add_argument("--vector-in", required=True, help="node,value CSV to sweep")
    p.add_argument("--objective", **objective)

    p = add("mqi", _cmd_mqi, True, help="flow refinement strictly inside the seed set")
    p.add_argument("--max-iters", **max_iters)

    p = add("flow-improve", _cmd_flow_improve, True, help="global seed-relative flow refinement")
    p.add_argument("--max-iters", **max_iters)

    p = add(
        "local-flow-improve", _cmd_local_flow_improve, True,
        help="strongly-local seed-relative refinement",
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--delta", type=_number(float, lambda x: x >= 0, "nonnegative"), default=1.0,
        help="locality strength >= 0 (default 1.0)",
    )
    group.add_argument("--kappa", type=kappa, help="direct exterior penalty >= 1")
    p.add_argument("--max-iters", **max_iters)

    p = add(
        "spectral-mqi", _cmd_spectral_mqi, True, help="seed-confined eigenvector, optionally swept"
    )
    p.add_argument("--tol", type=positive)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--vector-out")

    p = add("mov", _cmd_mov, True, help="seed-correlated resolvent embedding")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--rho", type=_number(float, math.isfinite, "finite"), help="resolvent shift (> -lambda2)"
    )
    group.add_argument(
        "--corr", type=_number(float, lambda x: 0 < x <= 1, "in (0, 1]"),
        help="target squared seed correlation in (0, 1]",
    )
    p.add_argument("--tol", type=positive)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--objective", **objective)
    p.add_argument("--vector-out")

    p = add("l1pr", _cmd_l1pr, True, help="strongly-local l1-regularized diffusion")
    p.add_argument("--alpha", type=_number(float, lambda x: 0 < x < 1, "in (0, 1)"), required=True)
    p.add_argument("--epsilon", type=positive, required=True)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--vector-out")

    p = add("brute", _cmd_brute, False, help="exhaustive reference optimizers (tiny graphs only)")
    p.add_argument("--target", choices=_BRUTE_TARGETS, required=True)
    p.add_argument(
        "--kappa", type=kappa, default=1.0, help="exterior penalty for relative-conductance"
    )

    p = add("eval", _cmd_eval, True, help="recompute objectives for a stored set")
    p.add_argument("--objective", **objective)

    return parser


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _write_vector(args: argparse.Namespace, lm: gio.LabelMap, vec: EmbeddingVector) -> None:
    if args.vector_out:
        gio.write_vector_csv(vec, lm, args.vector_out)


def _load_seed(args: argparse.Namespace, g: Graph, lm: gio.LabelMap) -> NodeSet:
    if args.seed_node is not None:
        return NodeSet.of(g, [lm.internal(args.seed_node)])
    return gio.load_seed_set(args.seed_set, lm, g)


def _swept(args: argparse.Namespace, g: Graph, vec: EmbeddingVector, t0: float) -> ClusterResult:
    """The best prefix of ``vec``'s sweep under --objective."""
    node_set, value, profile = sweep_cut(g, vec, objective=args.objective)
    return ClusterResult.of_set(
        g, node_set, args.objective, value, touched_nodes=int(profile.order.size),
        iterations=1, t0=t0,
    )


# Each handler returns what the command prints: a ClusterResult, or a
# summary dict. Vector CSVs are written by the handler itself.


def _cmd_spectral(args: argparse.Namespace, g: Graph, lm: gio.LabelMap) -> ClusterResult | dict:
    t0 = time.perf_counter()
    lam, vec = fiedler(g, normalized=not args.unnormalized, tol=args.tol or 1e-10)
    _write_vector(args, lm, vec)
    return _swept(args, g, vec, t0) if args.sweep else {"lambda2": lam}


def _cmd_sweep(args: argparse.Namespace, g: Graph, lm: gio.LabelMap) -> ClusterResult:
    t0 = time.perf_counter()
    return _swept(args, g, gio.read_vector_csv(args.vector_in, lm), t0)


def _cmd_mqi(args: argparse.Namespace, g: Graph, lm: gio.LabelMap) -> ClusterResult:
    return mqi(g, _load_seed(args, g, lm), max_iters=args.max_iters)


def _cmd_flow_improve(args: argparse.Namespace, g: Graph, lm: gio.LabelMap) -> ClusterResult:
    return flow_improve(g, _load_seed(args, g, lm), max_iters=args.max_iters)


def _cmd_local_flow_improve(args: argparse.Namespace, g: Graph, lm: gio.LabelMap) -> ClusterResult:
    seed = _load_seed(args, g, lm)
    if args.kappa is not None:
        return local_flow_improve_scaled(g, seed, kappa=args.kappa, max_iters=args.max_iters)
    return local_flow_improve(g, seed, delta=args.delta, max_iters=args.max_iters)


def _cmd_spectral_mqi(args: argparse.Namespace, g: Graph, lm: gio.LabelMap) -> ClusterResult | dict:
    seed = _load_seed(args, g, lm)
    if args.sweep:
        result = spectral_mqi_cluster(g, seed, tol=args.tol or 1e-8)
        _write_vector(args, lm, result.vector)
        return result
    lam, vec = spectral_mqi(g, seed, tol=args.tol or 1e-10)
    _write_vector(args, lm, vec)
    return {"lambda_r": lam}


def _cmd_mov(args: argparse.Namespace, g: Graph, lm: gio.LabelMap) -> ClusterResult | dict:
    t0 = time.perf_counter()
    z = correlation_seed(g, _load_seed(args, g, lm))
    if args.rho is not None:
        rho, vec = args.rho, mov_solve(g, z, args.rho, tol=args.tol or 1e-10)
    else:
        vec, rho = mov_correlate(g, z, args.corr, tol=args.tol or 1e-4)
    _write_vector(args, lm, vec)
    if args.sweep:
        return _swept(args, g, vec, t0)
    return {"rho": rho, "correlation": _correlation(g, z, vec.values)}


def _cmd_l1pr(args: argparse.Namespace, g: Graph, lm: gio.LabelMap) -> ClusterResult | dict:
    h = seed_distribution(g, _load_seed(args, g, lm))
    if args.sweep:
        result = l1pr_cluster(g, h, args.alpha, args.epsilon)
        _write_vector(args, lm, result.vector)
        return result
    vec, touched = l1_pagerank(g, h, args.alpha, args.epsilon)
    _write_vector(args, lm, vec)
    return {"touched_nodes": touched, "support_size": int(vec.support().size)}


def _cmd_brute(args: argparse.Namespace, g: Graph, lm: gio.LabelMap) -> ClusterResult:
    t0 = time.perf_counter()
    if args.target == "conductance":
        node_set, value = brute_min_conductance(g)
    elif args.target == "expansion":
        node_set, value = brute_min_expansion(g)
    elif args.target == "relative-conductance":
        seed = _load_seed(args, g, lm)
        node_set, value = brute_min_relative_conductance(g, seed, kappa=args.kappa)
    else:
        node_set, value = brute_min_subset_ratio(g, _load_seed(args, g, lm))
    return ClusterResult.of_set(
        g, node_set, _BRUTE_TARGETS[args.target], value, touched_nodes=g.n, iterations=1, t0=t0
    )


def _cmd_eval(args: argparse.Namespace, g: Graph, lm: gio.LabelMap) -> ClusterResult:
    t0 = time.perf_counter()
    seed = _load_seed(args, g, lm)
    value = conductance(g, seed) if args.objective == "conductance" else expansion(g, seed)
    return ClusterResult.of_set(
        g, seed, args.objective, value, touched_nodes=len(seed), iterations=1, t0=t0
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point. Returns the process exit code instead of calling exit."""
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # --help
            return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
        # The one rule that depends on another flag's value.
        if args.subcommand == "brute" and args.target in ("relative-conductance", "subset-ratio"):
            if args.seed_set is None and args.seed_node is None:
                raise ParameterError(f"brute --target {args.target} requires a seed")
        try:
            g, lm = gio.load_edge_list(args.graph)
        except OSError as exc:
            raise InputError(f"cannot read graph file: {exc}") from exc
        output = args.run(args, g, lm)
        if isinstance(output, ClusterResult):
            gio.write_result(output, lm, sys.stdout if args.out is None else args.out)
        else:
            _write_json(output, args.out)
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in _EXIT_CODES)
