"""Immutable weighted graph and the cut/volume/conductance algebra.

Everything downstream (flow refinement, spectral solvers, rounding,
oracles) consumes the representation defined here: compressed adjacency
with sorted neighbor lists, weighted degrees, and pure set functionals.

A vertex set has one form, ``NodeSet``: a read-only sorted array of
distinct ids and the graph they were checked against. ``NodeSet.of`` is
the one check, made once per set a caller hands in; a node set of the
same graph passes through it as it is. The set functionals take a node
set or anything ``of`` takes, and read the volume and cut a set keeps
once it has summed them.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphFormatError, InvalidSetError, ParameterError, SeedTooLargeError

__all__ = [
    "Graph",
    "NodeSet",
    "volume",
    "cut",
    "conductance",
    "expansion",
    "relative_conductance",
    "laplacian_apply",
]

# Comparisons on cut/volume arithmetic (denominator signs, tie detection)
# happen at this tolerance throughout the package.
SET_FUNCTIONAL_TOL = 1e-12


class Graph:
    """Undirected weighted graph in compressed sparse adjacency form.

    Neighbor lists are sorted by vertex id, weights are finite, strictly
    positive 64-bit floats, and the structure is immutable after
    construction. Instances are safe to share across threads.

    Parameters
    ----------
    indptr, indices, weights : ndarray
        Standard CSR-style arrays. Every undirected edge (i, j, w) must
        appear as both (i -> j, w) and (j -> i, w). All of this is checked;
        :meth:`from_edges` checks only its rows.
    """

    __slots__ = ("n", "indptr", "indices", "weights", "degrees", "total_volume", "_unreached")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        n = indptr.shape[0] - 1
        if n < 1:
            raise GraphFormatError("graph needs at least one vertex")
        if indices.shape != weights.shape:
            raise GraphFormatError("adjacency index/weight arrays disagree in length")
        if indptr[0] != 0 or indptr[-1] != indices.shape[0] or np.any(np.diff(indptr) < 0):
            raise GraphFormatError("malformed adjacency offsets")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphFormatError("neighbor id out of range")
        _check_weights(weights)
        # Before _fill freezes the arrays, which may be the caller's own.
        _check_rows(indptr, indices, weights)
        self._fill(indptr, indices, weights)

    def _fill(self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> None:
        """Set every field from CSR arrays already known to be valid; they become read-only."""
        self.n = indptr.shape[0] - 1
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.degrees = _row_reduce(np.add, indptr, weights, 0.0)
        self.total_volume = float(self.degrees.sum())
        # Smallest id outside vertex 0's component, 0 when connected;
        # None until unreachable_witness first runs.
        self._unreached: int | None = None

        for arr in (self.indptr, self.indices, self.weights, self.degrees):
            arr.setflags(write=False)

    @classmethod
    def from_edges(
        cls,
        n: int,
        u: Sequence[int] | np.ndarray,
        v: Sequence[int] | np.ndarray,
        w: Sequence[float] | np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from one row per undirected edge, in any order and orientation.

        Only the rows are checked: ids in range, no self-loops, finite
        positive weights, and no duplicate (u, v) pair, naming the smallest
        (min, max) one; summing duplicates is an ingest policy and lives in
        the loader. The m edges are sorted once, unless they come strictly
        increasing as the loader gives them, and every row is written in
        place from them, symmetric and sorted by construction.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if w is None:
            w = np.ones(u.shape[0])
        w = np.asarray(w, dtype=np.float64)
        if not (u.shape == v.shape == w.shape):
            raise GraphFormatError("edge arrays disagree in length")
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise GraphFormatError("edge endpoint out of range")
        if n < 1:
            raise GraphFormatError("graph needs at least one vertex")
        if np.any(u == v):
            raise GraphFormatError("self-loops are not allowed")
        _check_weights(w)
        g = cls.__new__(cls)
        g._fill(*_place_arcs(n, np.minimum(u, v), np.maximum(u, v), w))
        return g

    # -- accessors ---------------------------------------------------------

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted neighbor ids of v and the matching edge weights."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    @property
    def edge_count(self) -> int:
        return self.indices.shape[0] // 2

    def has_edge(self, u: int, v: int) -> bool:
        ids, _ = self.neighbors(u)
        k = int(np.searchsorted(ids, v))
        return k < ids.shape[0] and ids[k] == v

    def edge_weight(self, u: int, v: int) -> float:
        ids, ws = self.neighbors(u)
        k = int(np.searchsorted(ids, v))
        if k < ids.shape[0] and ids[k] == v:
            return float(ws[k])
        return 0.0

    def arcs_of(self, rows: np.ndarray) -> np.ndarray:
        """Positions in ``indices``/``weights`` of the arcs leaving ``rows``, row by row."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        ends = lengths.cumsum()
        return (starts - ends + lengths).repeat(lengths) + np.arange(ends[-1] if ends.size else 0)

    def is_connected(self) -> bool:
        return self.unreachable_witness() is None

    def unreachable_witness(self) -> tuple[int, int] | None:
        """None if connected, else (0, smallest id not reachable from 0).

        Computed once per graph and cached.
        """
        if self._unreached is None:
            self._unreached = int(np.argmax(self._component_roots() != 0))
        return (0, self._unreached) if self._unreached else None

    def _component_roots(self) -> np.ndarray:
        """The smallest vertex id of each vertex's connected component.

        Min-label propagation with pointer jumping: every round each vertex
        and its parent take the smallest grandparent seen across the
        vertex's arcs, then parent pointers are followed to their roots.
        Parents only decrease and stay inside the component, so the fixed
        point gives every component its minimum id. Hooking the parent, not
        only the vertex, is what keeps the round count small when ids are
        scattered along long paths (10 rounds, not thousands, on a shuffled
        100k-vertex ring of cliques).
        """
        parent = np.arange(self.n)
        while True:
            grand = parent[parent]
            low = _row_reduce(np.minimum, self.indptr, grand[self.indices], self.n)
            hooked = np.minimum(parent, low)
            np.minimum.at(hooked, parent, low)
            while True:
                jumped = hooked[hooked]
                if np.array_equal(jumped, hooked):
                    break
                hooked = jumped
            if np.array_equal(hooked, parent):
                return parent
            parent = hooked


def _check_rows(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> None:
    src = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    loops = src == indices
    unsorted = np.zeros(src.shape, dtype=bool)
    unsorted[1:] = (src[1:] == src[:-1]) & (indices[1:] <= indices[:-1])
    bad = loops | unsorted
    if bad.any():
        # Rows are checked in vertex order, the self-loop check first.
        v = int(src[np.argmax(bad)])
        if loops[indptr[v] : indptr[v + 1]].any():
            raise GraphFormatError(f"self-loop at vertex {v}")
        raise GraphFormatError(f"neighbor list of vertex {v} not strictly sorted")
    # Rows are strictly sorted, so the arcs are already in (src, dst)
    # order, and a stable sort by dst lists them in (dst, src) order:
    # arc k's reverse is arc rev[k] exactly when the arc set is symmetric.
    rev = np.argsort(indices, kind="stable")
    ok = (
        np.array_equal(src, indices[rev])
        and np.array_equal(indices, src[rev])
        and np.array_equal(weights, weights[rev])
    )
    if not ok:
        raise GraphFormatError("adjacency is not symmetric")


def _check_weights(w: np.ndarray) -> None:
    # NaN fails both comparisons.
    if not np.all((w > 0) & (w < np.inf)):
        raise GraphFormatError("edge weights must be finite and strictly positive")


def _place_arcs(
    n: int, lo: np.ndarray, hi: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays of the undirected edges (lo[e], hi[e], w[e]), lo[e] < hi[e].

    Each row is written in place as its smaller neighbours, then its larger
    ones. The edges in (lo, hi) order list every vertex's larger neighbours
    in order; a stable sort of them by hi lists every vertex's smaller ones
    in order. Edges that come strictly increasing in (lo, hi), as the
    loader gives them, are in that order already and hold no duplicate;
    others are sorted first.
    """
    key = lo * n + hi  # fits int64 while n < 3e9
    order = None if (key[1:] > key[:-1]).all() else np.argsort(key, kind="stable")
    del key
    if order is not None:
        lo, hi, w = lo[order], hi[order], w[order]
        dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if np.any(dup):
            k = int(np.argmax(dup))
            raise GraphFormatError(f"duplicate edge ({lo[k]}, {hi[k]})")

    up = np.bincount(lo, minlength=n)  # larger neighbours per vertex
    down = np.bincount(hi, minlength=n)  # smaller neighbours per vertex
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(up + down, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    weights = np.empty(indptr[-1])
    # Row v starts after the edges with lo < v or hi < v. In (lo, hi) order,
    # edge e follows the edges with lo < lo[e] and the larger neighbours of
    # lo[e] listed before it, so it lands at #(hi <= lo[e]) + e; in hi
    # order, the t-th edge lands at #(lo < hi) + t.
    at = np.cumsum(down)[lo] + np.arange(lo.size)
    indices[at] = hi
    weights[at] = w
    order = np.argsort(hi, kind="stable")
    at = (np.cumsum(up) - up)[hi[order]] + np.arange(hi.size)
    indices[at] = lo[order]
    weights[at] = w[order]
    return indptr, indices, weights


def _row_reduce(op: np.ufunc, indptr: np.ndarray, arc_values: np.ndarray, empty: float) -> np.ndarray:
    """``op`` reduced over each row's slice of an arc array; ``empty`` for empty rows.

    Only the non-empty rows' offsets reach ``reduceat``: an offset equal to
    the arc count (a trailing empty row) is out of its range.
    """
    out = np.full(indptr.shape[0] - 1, empty, dtype=arc_values.dtype)
    starts = indptr[:-1]
    nonempty = starts < indptr[1:]
    if arc_values.size:
        out[nonempty] = op.reduceat(arc_values, starts[nonempty])
    return out


class NodeSet:
    """Sorted, distinct vertex ids of one graph, checked once.

    :meth:`of` makes the node set of whatever a caller hands in: it checks
    the ids against the graph once, and a set already made for that graph
    passes through it as it is. ``array`` holds the ids as a read-only int64 array and ``graph``
    the graph they were checked against. The set's volume and cut are
    summed the first time they are read and kept. ``ids`` is the tuple of
    the ids as ints.
    """

    @classmethod
    def of(cls, g: Graph, members: Iterable[int]) -> "NodeSet":
        """The node set of ``members`` on ``g``: ``members`` itself when it is a node set of ``g``.

        Anything else is sorted and its repeats dropped. Ids that are not
        integers, or that lie outside [0, n), raise InvalidSetError; an
        empty input of any dtype is the empty set.
        """
        if isinstance(members, NodeSet) and members.graph is g:
            return members
        arr = _sorted_ids(members)
        if arr.size and (arr[0] < 0 or arr[-1] >= g.n):
            bad = arr[0] if arr[0] < 0 else arr[-1]
            raise InvalidSetError(f"vertex id {bad} out of range for n={g.n}")
        return cls._sorted(g, arr)

    @classmethod
    def _sorted(cls, g: Graph, ids: np.ndarray) -> "NodeSet":
        """The node set of an int64 array a solver holds sorted, distinct and in range; nothing is checked or copied."""
        ns = cls.__new__(cls)
        ns.array, ns.graph = ids.view(), g
        ns.array.setflags(write=False)
        return ns

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @cached_property
    def volume(self) -> float:
        """Sum of the weighted degrees over the set."""
        return float(self.graph.degrees[self.array].sum())

    @cached_property
    def cut(self) -> float:
        """Total weight of the edges with exactly one endpoint in the set."""
        return _cut(self.graph, self.array)

    def __len__(self) -> int:
        return self.array.size

    def __iter__(self):
        return iter(self.array.tolist())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeSet) and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(self.ids)

    def __repr__(self) -> str:
        return f"NodeSet(ids={self.ids})"


def _sorted_ids(s: object) -> np.ndarray:
    """The distinct integer ids of a set-like argument, sorted; no range check.

    Ids that are not integers raise InvalidSetError; an empty input of any
    dtype is the empty set.
    """
    if isinstance(s, np.ndarray):
        if s.size and not np.issubdtype(s.dtype, np.integer):
            raise InvalidSetError(f"vertex ids must be integers (got an array of {s.dtype})")
        arr = s.astype(np.int64, copy=False)
    else:
        try:
            arr = np.fromiter(map(operator.index, s), np.int64)
        except TypeError as exc:
            raise InvalidSetError(f"vertex ids must be integers ({exc})") from None
    # Sort, then drop repeats: np.unique's hash table (numpy >= 2.3) is up to
    # 15 times slower on id arrays of a few hundred or more.
    arr = np.sort(arr, axis=None)
    if arr.size:
        arr = arr[np.concatenate(([True], arr[1:] != arr[:-1]))]
    return arr


def _locate(ids: np.ndarray, within: np.ndarray, n: int) -> np.ndarray:
    """Each id's position in ``within``, or ``within.size`` where it is absent.

    ``within`` is sorted, distinct and, like ``ids``, in [0, n). Memory is
    O(len(ids)) whatever n is: all n values give back ``ids`` itself (do not
    write to it), n <= 8 per id a position table over [0, n), which is
    faster than searching ``within``, and the rest a search.
    """
    if within.size == n:
        return ids
    if n <= 8 * ids.size:
        table = np.full(n, within.size)
        table[within] = np.arange(within.size)
        return table[ids]
    at = within.searchsorted(ids)
    if within.size:
        at[within.take(at, mode="clip") != ids] = within.size
    return at


def volume(g: Graph, s: object) -> float:
    """Sum of weighted degrees over the set."""
    return NodeSet.of(g, s).volume


def cut(g: Graph, s: object) -> float:
    """Total weight of edges with exactly one endpoint in the set.

    Work is O(vol(S) log |S|) and memory O(vol(S)), whatever the graph size.
    """
    return NodeSet.of(g, s).cut


def _cut(g: Graph, arr: np.ndarray) -> float:
    """``cut`` of a sorted, distinct, in-range id array: the sum behind ``NodeSet.cut``."""
    if arr.size == 0 or arr.size == g.n:
        return 0.0
    arc = g.arcs_of(arr)
    return float(g.weights[arc][_locate(g.indices[arc], arr, g.n) == arr.size].sum())


def conductance(g: Graph, s: object) -> float:
    """cut(S) / min(vol(S), vol(S^c)); +inf on an empty side."""
    s = NodeSet.of(g, s)
    return _conductance(g, s.cut, s.volume)


def _conductance(g: Graph, cut_s: float, vol_s: float) -> float:
    """Conductance of a set from its cut and volume."""
    denom = min(vol_s, g.total_volume - vol_s)
    if denom <= 0.0:
        return float("inf")
    return cut_s / denom


def expansion(g: Graph, s: object) -> float:
    """cut(S) * vol(V) / (vol(S) * vol(S^c)); +inf on an empty side."""
    s = NodeSet.of(g, s)
    vol_s = s.volume
    vol_c = g.total_volume - vol_s
    if vol_s <= 0.0 or vol_c <= 0.0:
        return float("inf")
    return s.cut * g.total_volume / (vol_s * vol_c)


def _volume_ratio(r: NodeSet) -> float:
    """vol(R)/vol(R^c) from R's volume; SeedTooLargeError when R^c has no volume."""
    vol_rc = r.graph.total_volume - r.volume
    if vol_rc <= 0.0:
        raise SeedTooLargeError("seed set covers the whole graph")
    return r.volume / vol_rc


def relative_conductance(g: Graph, s: object, r: object, kappa: float = 1.0) -> float:
    """Conductance of S measured relative to a reference seed set R.

    Returns cut(S) / (vol(S & R) - ratio * kappa * vol(S - R)) where
    ratio = vol(R)/vol(R^c). The value is +inf whenever the denominator is
    not strictly positive (at tolerance), so the functional is always
    well-defined. kappa=1 is the plain seed-relative conductance; raising
    kappa penalizes leaving R harder, and kappa=+inf confines finite values
    to subsets of R, where the functional reduces to cut(S)/vol(S). S and
    R pass through ``NodeSet.of``: node sets of ``g`` are taken as they
    are, R's ratio comes from its volume, and S's cut is kept on S.

    Raises
    ------
    ParameterError
        If kappa < 1.
    SeedTooLargeError
        If R has an empty complement (the penalty ratio is undefined).
    """
    if not kappa >= 1.0:
        raise ParameterError(f"kappa must be >= 1 (got {kappa})")
    r = NodeSet.of(g, r)
    ratio = _volume_ratio(r)
    s = NodeSet.of(g, s)
    if not len(s):
        return float("inf")

    s_arr = s.array
    in_r = _locate(s_arr, r.array, g.n) < len(r)
    vol_s_in = float(g.degrees[s_arr[in_r]].sum())
    vol_s_out = float(g.degrees[s_arr[~in_r]].sum())

    if np.isinf(kappa):
        denom = vol_s_in if vol_s_out == 0.0 else -float("inf")
    else:
        denom = vol_s_in - ratio * kappa * vol_s_out
    if denom <= SET_FUNCTIONAL_TOL:
        return float("inf")
    return s.cut / denom


def laplacian_apply(g: Graph, x: np.ndarray) -> np.ndarray:
    """Apply the graph Laplacian: (Lx)_i = d_i x_i - sum_j c_ij x_j."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise ParameterError(f"vector length {x.shape} does not match n={g.n}")
    return g.degrees * x - _row_reduce(np.add, g.indptr, g.weights * x[g.indices], 0.0)
