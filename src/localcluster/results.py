"""Result value object shared by the clustering entry points and the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .graph import Graph, conductance, cut, volume

if TYPE_CHECKING:
    from .spectral import EmbeddingVector

__all__ = ["ClusterResult"]


@dataclass(frozen=True)
class ClusterResult:
    """Output set plus the numbers needed to reproduce and audit a run.

    ``objective`` is the value of ``objective_name`` on the returned set;
    ``conductance``, ``cut`` and ``volume`` are always recomputed from the
    graph so results can be cross-checked independently of the algorithm.
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

        Recomputes conductance, cut and volume from the graph; an empty set
        gets inf, 0 and 0.
        """
        ids = tuple(set_ids)
        arr = np.array(ids, dtype=np.int64)
        return cls(
            set_ids=ids,
            objective_name=objective_name,
            objective=objective,
            conductance=conductance(g, arr),
            cut=cut(g, arr),
            volume=volume(g, arr),
            touched_nodes=touched_nodes,
            iterations=iterations,
            runtime_ms=(time.perf_counter() - t0) * 1e3,
            history=history,
            vector=vector,
        )
