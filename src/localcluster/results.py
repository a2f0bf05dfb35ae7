"""Result value object shared by the clustering entry points and the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .graph import Graph, _as_node_array, _conductance, _cut

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
        gets inf, 0 and 0. ``set_ids`` is stored sorted and without repeats.
        """
        arr = _as_node_array(g, set_ids)
        cut_s = _cut(g, arr)
        vol_s = float(g.degrees[arr].sum())
        return cls(
            set_ids=tuple(arr.tolist()),
            objective_name=objective_name,
            objective=objective,
            conductance=_conductance(g, cut_s, vol_s),
            cut=cut_s,
            volume=vol_s,
            touched_nodes=touched_nodes,
            iterations=iterations,
            runtime_ms=(time.perf_counter() - t0) * 1e3,
            history=history,
            vector=vector,
        )
