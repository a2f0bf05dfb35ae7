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
import sys
import time
from dataclasses import dataclass

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

__all__ = ["JobConfig", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_INFEASIBLE = 4

_BRUTE_TARGETS = ("conductance", "expansion", "relative-conductance", "subset-ratio")


@dataclass
class JobConfig:
    """Validated invocation: which algorithm, on what, with what knobs."""

    subcommand: str
    graph: str
    seed_set: str | None = None
    seed_node: str | None = None
    alpha: float | None = None
    epsilon: float | None = None
    rho: float | None = None
    corr: float | None = None
    delta: float | None = None
    kappa: float | None = None
    tol: float | None = None
    max_iters: int = 50
    objective: str = "conductance"
    unnormalized: bool = False
    sweep: bool = False
    out: str | None = None
    vector_out: str | None = None
    vector_in: str | None = None
    target: str | None = None


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions (exit code 1)."""

    def error(self, message: str):
        raise ParameterError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="localcluster", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--graph", required=True, help="edge-list file")
        p.add_argument("--out", help="write result JSON here instead of stdout")
        return p

    def add_seed_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed-set", help="file of seed labels, one per line")
        p.add_argument("--seed-node", help="single seed label")

    p = add("spectral", help="global eigenvector embedding, optionally swept")
    p.add_argument("--unnormalized", action="store_true")
    p.add_argument("--tol", type=float)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--objective", choices=("conductance", "expansion"), default="conductance")
    p.add_argument("--vector-out")

    p = add("sweep", help="round a stored vector by threshold sweep")
    p.add_argument("--vector-in", required=True, help="node,value CSV to sweep")
    p.add_argument("--objective", choices=("conductance", "expansion"), default="conductance")

    p = add("mqi", help="flow refinement strictly inside the seed set")
    add_seed_flags(p)
    p.add_argument("--max-iters", type=int, default=50)

    p = add("flow-improve", help="global seed-relative flow refinement")
    add_seed_flags(p)
    p.add_argument("--max-iters", type=int, default=50)

    p = add("local-flow-improve", help="strongly-local seed-relative refinement")
    add_seed_flags(p)
    p.add_argument("--delta", type=float, help="locality strength >= 0 (default 1.0)")
    p.add_argument("--kappa", type=float, help="direct exterior penalty >= 1 (overrides --delta)")
    p.add_argument("--max-iters", type=int, default=50)

    p = add("spectral-mqi", help="seed-confined eigenvector, optionally swept")
    add_seed_flags(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--vector-out")

    p = add("mov", help="seed-correlated resolvent embedding")
    add_seed_flags(p)
    p.add_argument("--rho", type=float, help="resolvent shift (> -lambda2)")
    p.add_argument("--corr", type=float, help="target squared seed correlation in (0, 1]")
    p.add_argument("--tol", type=float)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--objective", choices=("conductance", "expansion"), default="conductance")
    p.add_argument("--vector-out")

    p = add("l1pr", help="strongly-local l1-regularized diffusion")
    add_seed_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--vector-out")

    p = add("brute", help="exhaustive reference optimizers (tiny graphs only)")
    add_seed_flags(p)
    p.add_argument("--target", choices=_BRUTE_TARGETS, required=True)
    p.add_argument("--kappa", type=float, help="exterior penalty for relative-conductance")

    p = add("eval", help="recompute objectives for a stored set")
    add_seed_flags(p)
    p.add_argument("--objective", choices=("conductance", "expansion"), default="conductance")

    return parser


def _validate(cfg: JobConfig) -> None:
    """Range-check every parameter before any file is opened."""
    if cfg.seed_set is not None and cfg.seed_node is not None:
        raise ParameterError("--seed-set and --seed-node are mutually exclusive")
    needs_seed = cfg.subcommand in (
        "mqi",
        "flow-improve",
        "local-flow-improve",
        "spectral-mqi",
        "mov",
        "l1pr",
        "eval",
    )
    if needs_seed and cfg.seed_set is None and cfg.seed_node is None:
        raise ParameterError(f"{cfg.subcommand} requires --seed-set or --seed-node")

    if cfg.alpha is not None and not (0.0 < cfg.alpha < 1.0):
        raise ParameterError(f"--alpha must be in (0, 1), got {cfg.alpha}")
    if cfg.epsilon is not None and cfg.epsilon <= 0:
        raise ParameterError(f"--epsilon must be positive, got {cfg.epsilon}")
    if cfg.tol is not None and cfg.tol <= 0:
        raise ParameterError(f"--tol must be positive, got {cfg.tol}")
    if cfg.delta is not None and cfg.delta < 0:
        raise ParameterError(f"--delta must be nonnegative, got {cfg.delta}")
    if cfg.kappa is not None and not (cfg.kappa >= 1.0):
        raise ParameterError(f"--kappa must be at least 1, got {cfg.kappa}")
    if cfg.corr is not None and not (0.0 < cfg.corr <= 1.0):
        raise ParameterError(f"--corr must be in (0, 1], got {cfg.corr}")
    if cfg.max_iters < 1:
        raise ParameterError(f"--max-iters must be at least 1, got {cfg.max_iters}")
    if cfg.subcommand == "mov":
        if (cfg.rho is None) == (cfg.corr is None):
            raise ParameterError("mov needs exactly one of --rho or --corr")
    if cfg.subcommand == "local-flow-improve":
        if cfg.delta is not None and cfg.kappa is not None:
            raise ParameterError("--delta and --kappa are mutually exclusive")
    if cfg.subcommand == "brute":
        if cfg.target in ("relative-conductance", "subset-ratio") and (
            cfg.seed_set is None and cfg.seed_node is None
        ):
            raise ParameterError(f"brute --target {cfg.target} requires a seed")
        if cfg.rho is not None or cfg.corr is not None:
            raise ParameterError("brute takes no spectral flags")


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_result(result: ClusterResult, lm: gio.LabelMap, out: str | None) -> None:
    if out is None:
        gio.write_result(result, lm, sys.stdout)
    else:
        gio.write_result(result, lm, out)


def _load_seed(cfg: JobConfig, g: Graph, lm: gio.LabelMap) -> NodeSet:
    if cfg.seed_node is not None:
        return NodeSet.of(g, [lm.internal(cfg.seed_node)])
    assert cfg.seed_set is not None
    return gio.load_seed_set(cfg.seed_set, lm, g)


def _cmd_spectral(cfg: JobConfig, g: Graph, lm: gio.LabelMap) -> int:
    t0 = time.perf_counter()
    lam, vec = fiedler(g, normalized=not cfg.unnormalized, tol=cfg.tol or 1e-10)
    if cfg.vector_out:
        gio.write_vector_csv(vec, lm, cfg.vector_out)
    if not cfg.sweep:
        _emit_json({"lambda2": lam}, cfg.out)
        return EXIT_OK
    node_set, value, _ = sweep_cut(g, vec, objective=cfg.objective)
    result = ClusterResult.of_set(
        g, node_set.ids, cfg.objective, value, touched_nodes=g.n, iterations=1, t0=t0
    )
    _emit_result(result, lm, cfg.out)
    return EXIT_OK


def _cmd_sweep(cfg: JobConfig, g: Graph, lm: gio.LabelMap) -> int:
    t0 = time.perf_counter()
    vec = gio.read_vector_csv(cfg.vector_in, lm)
    node_set, value, profile = sweep_cut(g, vec, objective=cfg.objective)
    result = ClusterResult.of_set(
        g, node_set.ids, cfg.objective, value, touched_nodes=int(profile.order.size),
        iterations=1, t0=t0,
    )
    _emit_result(result, lm, cfg.out)
    return EXIT_OK


def _cmd_flow(cfg: JobConfig, g: Graph, lm: gio.LabelMap) -> int:
    seed = _load_seed(cfg, g, lm)
    if cfg.subcommand == "mqi":
        result = mqi(g, seed, max_iters=cfg.max_iters)
    elif cfg.subcommand == "flow-improve":
        result = flow_improve(g, seed, max_iters=cfg.max_iters)
    elif cfg.kappa is not None:
        result = local_flow_improve_scaled(g, seed, kappa=cfg.kappa, max_iters=cfg.max_iters)
    else:
        delta = 1.0 if cfg.delta is None else cfg.delta
        result = local_flow_improve(g, seed, delta=delta, max_iters=cfg.max_iters)
    _emit_result(result, lm, cfg.out)
    return EXIT_OK


def _cmd_spectral_mqi(cfg: JobConfig, g: Graph, lm: gio.LabelMap) -> int:
    seed = _load_seed(cfg, g, lm)
    if cfg.sweep:
        result = spectral_mqi_cluster(g, seed, tol=cfg.tol or 1e-8)
        if cfg.vector_out:
            gio.write_vector_csv(result.vector, lm, cfg.vector_out)
        _emit_result(result, lm, cfg.out)
        return EXIT_OK
    lam, vec = spectral_mqi(g, seed, tol=cfg.tol or 1e-10)
    if cfg.vector_out:
        gio.write_vector_csv(vec, lm, cfg.vector_out)
    _emit_json({"lambda_r": lam}, cfg.out)
    return EXIT_OK


def _cmd_mov(cfg: JobConfig, g: Graph, lm: gio.LabelMap) -> int:
    t0 = time.perf_counter()
    seed = _load_seed(cfg, g, lm)
    z = correlation_seed(g, seed)
    if cfg.rho is not None:
        rho = cfg.rho
        vec = mov_solve(g, z, rho, tol=cfg.tol or 1e-10)
    else:
        assert cfg.corr is not None
        vec, rho = mov_correlate(g, z, cfg.corr, tol=cfg.tol or 1e-4)
    if cfg.vector_out:
        gio.write_vector_csv(vec, lm, cfg.vector_out)
    if not cfg.sweep:
        v = vec.values
        achieved = float(z @ (g.degrees * v)) ** 2 / float(v @ (g.degrees * v))
        _emit_json({"rho": rho, "correlation": achieved}, cfg.out)
        return EXIT_OK
    node_set, value, _ = sweep_cut(g, vec, objective=cfg.objective)
    result = ClusterResult.of_set(
        g, node_set.ids, cfg.objective, value, touched_nodes=g.n, iterations=1, t0=t0
    )
    _emit_result(result, lm, cfg.out)
    return EXIT_OK


def _cmd_l1pr(cfg: JobConfig, g: Graph, lm: gio.LabelMap) -> int:
    assert cfg.alpha is not None and cfg.epsilon is not None
    if cfg.seed_node is not None:
        h: dict[int, float] = {lm.internal(cfg.seed_node): 1.0}
    else:
        seed = _load_seed(cfg, g, lm)
        h = seed_distribution(g, seed)
    if cfg.sweep:
        result = l1pr_cluster(g, h, cfg.alpha, cfg.epsilon)
        if cfg.vector_out:
            gio.write_vector_csv(result.vector, lm, cfg.vector_out)
        _emit_result(result, lm, cfg.out)
        return EXIT_OK
    vec, touched = l1_pagerank(g, h, cfg.alpha, cfg.epsilon)
    if cfg.vector_out:
        gio.write_vector_csv(vec, lm, cfg.vector_out)
    _emit_json(
        {"touched_nodes": touched, "support_size": int(vec.support().size)}, cfg.out
    )
    return EXIT_OK


def _cmd_brute(cfg: JobConfig, g: Graph, lm: gio.LabelMap) -> int:
    t0 = time.perf_counter()
    if cfg.target == "conductance":
        node_set, value = brute_min_conductance(g)
        name = "conductance"
    elif cfg.target == "expansion":
        node_set, value = brute_min_expansion(g)
        name = "expansion"
    elif cfg.target == "relative-conductance":
        seed = _load_seed(cfg, g, lm)
        node_set, value = brute_min_relative_conductance(g, seed, kappa=cfg.kappa or 1.0)
        name = "seed_relative_conductance"
    else:
        seed = _load_seed(cfg, g, lm)
        node_set, value = brute_min_subset_ratio(g, seed)
        name = "cut_over_volume"
    result = ClusterResult.of_set(
        g, node_set.ids, name, value, touched_nodes=g.n, iterations=1, t0=t0
    )
    _emit_result(result, lm, cfg.out)
    return EXIT_OK


def _cmd_eval(cfg: JobConfig, g: Graph, lm: gio.LabelMap) -> int:
    t0 = time.perf_counter()
    seed = _load_seed(cfg, g, lm)
    value = (
        conductance(g, seed) if cfg.objective == "conductance" else expansion(g, seed)
    )
    result = ClusterResult.of_set(
        g, seed.ids, cfg.objective, value, touched_nodes=len(seed), iterations=1, t0=t0
    )
    _emit_result(result, lm, cfg.out)
    return EXIT_OK


_HANDLERS = {
    "spectral": _cmd_spectral,
    "sweep": _cmd_sweep,
    "mqi": _cmd_flow,
    "flow-improve": _cmd_flow,
    "local-flow-improve": _cmd_flow,
    "spectral-mqi": _cmd_spectral_mqi,
    "mov": _cmd_mov,
    "l1pr": _cmd_l1pr,
    "brute": _cmd_brute,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point. Returns the process exit code instead of calling exit."""
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # --help and version paths
            return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
        cfg = JobConfig(**{k.replace("-", "_"): v for k, v in vars(args).items()})
        _validate(cfg)
        try:
            g, lm = gio.load_edge_list(cfg.graph)
        except OSError as exc:
            raise InputError(f"cannot read graph file: {exc}") from exc
        return _HANDLERS[cfg.subcommand](cfg, g, lm)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
