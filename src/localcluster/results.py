"""Result value object shared by the clustering entry points and the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .graph import Graph, NodeSet, _conductance

if TYPE_CHECKING:
    from .spectral import EmbeddingVector

__all__ = ["ClusterResult"]


@dataclass(frozen=True)
class ClusterResult:
    """Output set plus the numbers needed to reproduce and audit a run.

    ``objective`` is the value of ``objective_name`` on the returned set;
    ``conductance``, ``cut`` and ``volume`` always come from the graph's
    own set functionals, so results can be cross-checked independently of
    the algorithm.
    ``history`` holds the accepted per-iteration objective values for
    iterative methods; ``vector`` is the embedding a swept method rounded,
    when it has one. Neither is compared or serialized.
    """

    set_ids: tuple[int, ...]
    objective_name: str
    objective: float
    conductance: float
    cut: float
    volume: float
    touched_nodes: int
    iterations: int
    runtime_ms: float
    history: tuple[float, ...] = field(default=(), compare=False)
    vector: EmbeddingVector | None = field(default=None, compare=False, repr=False)

    @classmethod
    def of_set(
        cls,
        g: Graph,
        set_ids: Iterable[int],
        objective_name: str,
        objective: float,
        *,
        touched_nodes: int,
        iterations: int,
        t0: float,
        history: tuple[float, ...] = (),
        vector: EmbeddingVector | None = None,
    ) -> "ClusterResult":
        """Build a result for ``set_ids`` on ``g``, timed from ``time.perf_counter() == t0``.

        ``set_ids`` passes through ``NodeSet.of``, and its cut and volume
        are the ones the node set keeps, summed here unless it already
        holds them; an empty set gets conductance inf, cut 0 and volume 0.
        ``set_ids`` is stored sorted and without repeats.
        """
        s = NodeSet.of(g, set_ids)
        return cls(
            set_ids=s.ids,
            objective_name=objective_name,
            objective=objective,
            conductance=_conductance(g, s.cut, s.volume),
            cut=s.cut,
            volume=s.volume,
            touched_nodes=touched_nodes,
            iterations=iterations,
            runtime_ms=(time.perf_counter() - t0) * 1e3,
            history=history,
            vector=vector,
        )
