"""Spans recorded from outside the program, and the per-layer metrics built from them.

A Tracer replaces chosen public names (module attributes and class
attributes) with wrappers that record one span per call: name, start,
end and parent. ``uninstall`` puts the original objects back, so an
untraced run calls exactly the functions it would call without the
benchmark. Spans stay in memory until the run ends.

Each wrapped name is the one a module looks up when it calls into
another module (``flowcluster.solve_maxflow_local``,
``spectral.laplacian_apply``, ``Graph.from_edges``, ...), so a span marks
a layer boundary. Counts come only from values the program already
returns (``ClusterResult.iterations``, the explored set of a local
solve, the arcs of a frozen network, ``SweepProfile``).
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "install",
    "self_times",
    "query_layer_metrics",
    "setup_layer_metrics",
    "cli_layer_metrics",
    "unit_of",
]

SET_FUNCTIONALS = ("cut", "volume", "conductance", "relative_conductance")

# Solver entry points the CLI calls, by the module that defines them. A
# command that calls more than one of them at top level solves more than once.
FLOW_SOLVERS = ("mqi", "flow_improve", "local_flow_improve", "local_flow_improve_scaled")
SPECTRAL_SOLVERS = (
    "fiedler",
    "spectral_mqi",
    "spectral_mqi_cluster",
    "mov_solve",
    "mov_correlate",
    "l1_pagerank",
    "l1pr_cluster",
)
CLI_SOLVERS = FLOW_SOLVERS + SPECTRAL_SOLVERS


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    data: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; wraps and unwraps the names it is given."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        note: Callable[[tuple, Any], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper around it.

        ``note(args, result)`` may return counts to store on the span; it
        runs after the span has closed, so its cost is not timed.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note is not None:
                tracer.spans[idx].data.update(note(args, result))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped name back to its original object, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap every cross-module name the per-layer metrics need."""
    from localcluster import cli, flowcluster, flownet, io, rounding, spectral
    from localcluster.graph import Graph

    for attr in ("load_edge_list", "write_result", "write_vector_csv", "read_vector_csv"):
        tracer.wrap(io, attr, f"io.{attr}")
    tracer.wrap(Graph, "from_edges", "graph.from_edges")
    tracer.wrap(Graph, "is_connected", "graph.is_connected")
    for mod in (flowcluster, spectral):
        for attr in SET_FUNCTIONALS:
            if hasattr(mod, attr):
                tracer.wrap(mod, attr, f"graph.{attr}")
    tracer.wrap(spectral, "laplacian_apply", "graph.laplacian_apply")

    tracer.wrap(flowcluster, "solve_maxflow", "flownet.solve_maxflow")
    tracer.wrap(
        flownet.FlowNetwork, "freeze", "flownet.freeze", lambda a, r: {"arcs": len(a[0].head) // 2}
    )
    tracer.wrap(flowcluster, "materialize", "refcut.materialize")
    tracer.wrap(
        flowcluster,
        "solve_maxflow_local",
        "refcut.solve_maxflow_local",
        lambda a, r: {"explored": len(r[1])},
    )
    tracer.wrap(
        flowcluster,
        "refine_by_flow",
        "flowcluster.refine_by_flow",
        lambda a, r: {"rounds": r.iterations, "accepted": len(r.history) - 1},
    )
    for attr in FLOW_SOLVERS:
        tracer.wrap(flowcluster, attr, f"flowcluster.{attr}")
        tracer.wrap(cli, attr, f"flowcluster.{attr}")

    tracer.wrap(spectral, "conjugate_gradient", "solvers.conjugate_gradient")
    tracer.wrap(spectral, "smallest_eigenpair", "solvers.smallest_eigenpair")
    l1pr_note = lambda a, r: {"pushes": r.iterations, "touched": r.touched_nodes}
    for attr in SPECTRAL_SOLVERS:
        note = l1pr_note if attr == "l1pr_cluster" else None
        tracer.wrap(spectral, attr, f"spectral.{attr}", note)
        tracer.wrap(cli, attr, f"spectral.{attr}", note)

    sweep_note = lambda a, r: {"prefixes": int(r[2].values.size)}
    for owner in (spectral, rounding, cli):
        tracer.wrap(owner, "sweep_cut", "rounding.sweep_cut", sweep_note)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_frac") or "_per_" in metric:
        return "ratio"
    return "count"


# -- span arithmetic ----------------------------------------------------------


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    kids = children_of(spans)
    out = []
    for i, s in enumerate(spans):
        pieces = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in kids[i]
        )
        covered = 0.0
        reach = s.start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _ancestors(spans: list[Span], i: int) -> Iterator[int]:
    p = spans[i].parent
    while p >= 0:
        yield p
        p = spans[p].parent


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def query_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer work and time over one traced pass of the query list.

    Times are totals over the pass in ms; counts are totals over the pass.
    Root spans are the benchmark's own ``query.*`` spans.
    """
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def count(name: str) -> int:
        return len(by.get(name, ()))

    def total_ms(*names: str) -> float:
        return _ms(sum(spans[i].duration for n in names for i in by.get(n, ())))

    def total(name: str, key: str) -> int:
        return sum(spans[i].data.get(key, 0) for i in by.get(name, ()))

    own = self_times(spans)
    kids = children_of(spans)
    functionals = [f"graph.{f}" for f in SET_FUNCTIONALS]
    local = set(by.get("refcut.solve_maxflow_local", ()))
    grow = [i for i in by.get("flownet.freeze", ()) if any(a in local for a in _ancestors(spans, i))]
    rounds = total("flowcluster.refine_by_flow", "rounds")
    fiedler_roots = {
        next(a for a in [i, *_ancestors(spans, i)] if spans[a].parent < 0)
        for i in by.get("spectral.fiedler", ())
    }
    l1pr = by.get("spectral.l1pr_cluster", ())
    l1pr_ms = _ms(
        sum(
            spans[i].duration
            - sum(spans[c].duration for c in kids[i] if spans[c].name == "rounding.sweep_cut")
            for i in l1pr
        )
    )
    pushes = total("spectral.l1pr_cluster", "pushes")
    touched = total("spectral.l1pr_cluster", "touched")
    return {
        "graph.set_functional_calls": sum(count(n) for n in functionals),
        "graph.set_functional_ms": total_ms(*functionals),
        "graph.matvecs": count("graph.laplacian_apply"),
        "graph.matvec_ms": total_ms("graph.laplacian_apply"),
        "flownet.global_solves": count("flownet.solve_maxflow"),
        "flownet.global_solve_ms": total_ms("flownet.solve_maxflow"),
        "flownet.networks_built": count("flownet.freeze"),
        "flownet.arcs_built": total("flownet.freeze", "arcs"),
        "refcut.materialize_ms": total_ms("refcut.materialize"),
        "refcut.local_solves": len(local),
        "refcut.local_solve_ms": total_ms("refcut.solve_maxflow_local"),
        "refcut.grow_rounds": len(grow),
        "refcut.grow_useful_frac": _ratio(len(local), len(grow)),
        "refcut.arcs_built": sum(spans[i].data.get("arcs", 0) for i in grow),
        "refcut.explored_nodes": total("refcut.solve_maxflow_local", "explored"),
        "flowcluster.refine_self_ms": _ms(sum(own[i] for i in by.get("flowcluster.refine_by_flow", ()))),
        "flowcluster.rounds": rounds,
        "flowcluster.accept_frac": _ratio(total("flowcluster.refine_by_flow", "accepted"), rounds),
        "solvers.cg_calls": count("solvers.conjugate_gradient"),
        "solvers.cg_ms": total_ms("solvers.conjugate_gradient"),
        "solvers.eigen_calls": count("solvers.smallest_eigenpair"),
        "solvers.eigen_ms": total_ms("solvers.smallest_eigenpair"),
        "spectral.fiedler_calls": count("spectral.fiedler"),
        "spectral.fiedler_ms": total_ms("spectral.fiedler"),
        "spectral.fiedler_per_query": _ratio(count("spectral.fiedler"), len(fiedler_roots)),
        "spectral.mov_solves": count("spectral.mov_solve"),
        "spectral.l1pr_ms": l1pr_ms,
        "spectral.l1pr_pushes": pushes,
        "spectral.l1pr_touched": touched,
        "spectral.pushes_per_touched": _ratio(pushes, touched),
        "rounding.sweeps": count("rounding.sweep_cut"),
        "rounding.sweep_ms": total_ms("rounding.sweep_cut"),
        "rounding.sweep_prefixes": total("rounding.sweep_cut", "prefixes"),
    }


def setup_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Split of one ``load_edge_list`` call, as medians over the traced loads."""
    parse, build, connected = [], [], []
    own = self_times(spans)
    for i, s in enumerate(spans):
        if s.name == "io.load_edge_list":
            parse.append(own[i])
        elif s.name == "graph.from_edges":
            build.append(s.duration)
        elif s.name == "graph.is_connected":
            connected.append(s.duration)
    return {
        "io.parse_ms": _ms(statistics.median(parse)),
        "graph.build_ms": _ms(statistics.median(build)),
        "graph.is_connected_ms": _ms(statistics.median(connected)),
    }


def cli_layer_metrics(commands: list[tuple[float, list[Span]]]) -> dict[str, float]:
    """Per-command split of traced CLI children.

    ``commands`` holds (import seconds, spans) per command; each span list
    has one root ``cli.main`` span. ``io.*`` values are totals over the
    workload's commands, ``cli.*`` values are means per command.
    """
    k = len(commands)
    load = emit = read = solve = 0.0
    imports = 0.0
    solves: list[int] = []
    for import_s, spans in commands:
        imports += import_s
        kids = children_of(spans)
        root = next(i for i, s in enumerate(spans) if s.name == "cli.main")
        top = [spans[c] for c in kids[root]]
        for s in spans:
            if s.name == "io.load_edge_list":
                load += s.duration
            elif s.name in ("io.write_result", "io.write_vector_csv"):
                emit += s.duration
            elif s.name == "io.read_vector_csv":
                read += s.duration
        solve += sum(s.duration for s in top if s.name.split(".")[-1] in (*CLI_SOLVERS, "sweep_cut"))
        n_solvers = sum(1 for s in top if s.name.split(".")[-1] in CLI_SOLVERS)
        if n_solvers:
            solves.append(n_solvers)
    return {
        "io.emit_ms": _ms(emit),
        "io.read_vector_ms": _ms(read),
        "cli.import_ms": _ms(imports / k),
        "cli.load_ms": _ms(load / k),
        "cli.solve_ms": _ms(solve / k),
        "cli.emit_ms": _ms(emit / k),
        "cli.solves_per_command": _ratio(sum(solves), len(solves)),
    }
