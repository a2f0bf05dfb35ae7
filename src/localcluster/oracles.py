"""Independent reference implementations for testing.

Everything here is deliberately slow and simple: exhaustive set
enumeration (Gray-code order so each step flips one vertex) and dense
numpy linear algebra. Hard size caps keep accidental misuse from
hanging a test run; exceeding a cap raises OracleCapError rather than
silently grinding.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConvergenceError,
    OracleCapError,
    ParameterError,
    UnboundedFlowError,
)
from .flownet import FlowNetwork, cut_capacity
from .graph import (
    SET_FUNCTIONAL_TOL,
    Graph,
    NodeSet,
    _volume_ratio,
    conductance,
    cut,
    expansion,
    relative_conductance,
    volume,
)

__all__ = [
    "brute_min_conductance",
    "brute_min_expansion",
    "brute_min_relative_conductance",
    "brute_min_subset_ratio",
    "brute_min_cut",
    "dense_laplacian",
    "dense_normalized_laplacian",
    "dense_eig_smallest",
    "dense_solve",
    "dense_nnq_prox",
    "dense_mov_solve",
]

MAX_CONDUCTANCE_NODES = 16
MAX_REL_COND_NODES = 12
MAX_SUBSET_SEED = 20
MAX_CUT_FREE_NODES = 16
MAX_DENSE_DIM = 64
_TIE_TOL = 1e-12


class _GrayWalk:
    """Single-flip walk through all subsets, with running cut and volumes.

    ``slots`` lists the vertices the bitmask ranges over; membership and
    the cut value live on the full graph so partial-universe walks (over
    a seed set, say) still measure true graph quantities.
    """

    def __init__(self, g: Graph, slots: np.ndarray):
        self.g = g
        self.slots = slots
        self.member = np.zeros(g.n, dtype=bool)
        self.cut_value = 0.0
        self.volume = 0.0
        self.size = 0

    def flip(self, k: int) -> None:
        """Advance from subset index k-1 to k (Gray order)."""
        v = int(self.slots[(k & -k).bit_length() - 1])
        nbr, ws = self.g.neighbors(v)
        w_in = float(ws[self.member[nbr]].sum())
        d_v = float(self.g.degrees[v])
        if self.member[v]:
            self.member[v] = False
            self.cut_value -= d_v - 2.0 * w_in
            self.volume -= d_v
            self.size -= 1
        else:
            self.member[v] = True
            self.cut_value += d_v - 2.0 * w_in
            self.volume += d_v
            self.size += 1

    def ids(self) -> tuple[int, ...]:
        return tuple(int(v) for v in np.flatnonzero(self.member))


def _take_if_better(
    value: float,
    walk: _GrayWalk,
    best: tuple[float, tuple[int, ...] | None],
) -> tuple[float, tuple[int, ...] | None]:
    best_value, best_ids = best
    if best_ids is None or value < best_value - _TIE_TOL:
        return value, walk.ids()
    if value <= best_value + _TIE_TOL:
        ids = walk.ids()
        if ids < best_ids:
            return min(value, best_value), ids
    return best


def _enumerate_nontrivial(g: Graph, score) -> tuple[float, tuple[int, ...]]:
    walk = _GrayWalk(g, np.arange(g.n, dtype=np.int64))
    best: tuple[float, tuple[int, ...] | None] = (math.inf, None)
    for k in range(1, 1 << g.n):
        walk.flip(k)
        if 0 < walk.size < g.n:
            best = _take_if_better(score(walk), walk, best)
    assert best[1] is not None
    return best  # type: ignore[return-value]


def brute_min_conductance(g: Graph) -> tuple[NodeSet, float]:
    """Exact minimum conductance over nontrivial sets. Ties go to the
    lexicographically smallest sorted vertex tuple."""
    if g.n > MAX_CONDUCTANCE_NODES:
        raise OracleCapError(f"conductance oracle capped at {MAX_CONDUCTANCE_NODES} nodes")
    if g.n < 2:
        raise ParameterError("need at least two vertices")
    total = g.total_volume

    def score(w: _GrayWalk) -> float:
        denom = min(w.volume, total - w.volume)
        return w.cut_value / denom if denom > 0 else math.inf

    best = NodeSet.of(g, _enumerate_nontrivial(g, score)[1])
    return best, conductance(g, best)


def brute_min_expansion(g: Graph) -> tuple[NodeSet, float]:
    """Exact minimum of cut * vol(V) / (vol * vol_complement)."""
    if g.n > MAX_CONDUCTANCE_NODES:
        raise OracleCapError(f"expansion oracle capped at {MAX_CONDUCTANCE_NODES} nodes")
    if g.n < 2:
        raise ParameterError("need at least two vertices")
    total = g.total_volume

    def score(w: _GrayWalk) -> float:
        denom = w.volume * (total - w.volume)
        return w.cut_value * total / denom if denom > 0 else math.inf

    best = NodeSet.of(g, _enumerate_nontrivial(g, score)[1])
    return best, expansion(g, best)


def brute_min_relative_conductance(
    g: Graph, r: object, kappa: float = 1.0
) -> tuple[NodeSet, float]:
    """Exact minimum seed-relative conductance over all nonempty sets.

    The whole vertex set scores +inf and is skipped: its denominator is
    vol(R) * (1 - kappa) <= 0 exactly, although the running volume sums
    can leave it a rounding error above zero when R holds almost all the
    volume.
    """
    if g.n > MAX_REL_COND_NODES:
        raise OracleCapError(f"relative-conductance oracle capped at {MAX_REL_COND_NODES} nodes")
    if not (kappa >= 1.0):
        raise ParameterError(f"kappa must be at least 1 (got {kappa})")
    r = NodeSet.of(g, r)
    if not len(r):
        raise ParameterError("seed set is empty")
    ratio = _volume_ratio(r)
    in_r = np.zeros(g.n, dtype=bool)
    in_r[r.array] = True

    walk = _GrayWalk(g, np.arange(g.n, dtype=np.int64))
    vol_in = 0.0
    best: tuple[float, tuple[int, ...] | None] = (math.inf, None)
    for k in range(1, 1 << g.n):
        before = walk.volume
        walk.flip(k)
        flipped = int(walk.slots[(k & -k).bit_length() - 1])
        if in_r[flipped]:
            vol_in += walk.volume - before
        vol_out = walk.volume - vol_in
        if walk.size in (0, g.n):
            continue
        if math.isinf(kappa):
            denom = vol_in if vol_out <= SET_FUNCTIONAL_TOL else -1.0
        else:
            denom = vol_in - ratio * kappa * vol_out
        value = walk.cut_value / denom if denom > SET_FUNCTIONAL_TOL else math.inf
        best = _take_if_better(value, walk, best)
    assert best[1] is not None
    best_set = NodeSet.of(g, best[1])
    return best_set, relative_conductance(g, best_set, r, kappa=kappa)


def brute_min_subset_ratio(g: Graph, r: object) -> tuple[NodeSet, float]:
    """Exact minimum of cut/vol over nonempty subsets of the seed set."""
    r_arr = NodeSet.of(g, r).array
    if r_arr.size == 0:
        raise ParameterError("seed set is empty")
    if r_arr.size > MAX_SUBSET_SEED:
        raise OracleCapError(f"subset-ratio oracle capped at seed size {MAX_SUBSET_SEED}")

    walk = _GrayWalk(g, r_arr)
    best: tuple[float, tuple[int, ...] | None] = (math.inf, None)
    for k in range(1, 1 << r_arr.size):
        walk.flip(k)
        if walk.size > 0:
            best = _take_if_better(walk.cut_value / walk.volume, walk, best)
    assert best[1] is not None
    best_set = NodeSet.of(g, best[1])
    return best_set, cut(g, best_set) / volume(g, best_set)


def brute_min_cut(net: FlowNetwork) -> tuple[float, np.ndarray]:
    """Exact minimum source-sink cut by subset enumeration.

    Returns (capacity, source side excluding the terminals as a sorted
    int64 array), ties broken toward the lexicographically smallest sorted
    node tuple. Raises UnboundedFlowError when every cut crosses an
    infinite arc.
    """
    free = [v for v in range(net.num_nodes) if v not in (net.source, net.sink)]
    if len(free) > MAX_CUT_FREE_NODES:
        raise OracleCapError(f"min-cut oracle capped at {MAX_CUT_FREE_NODES} free nodes")
    best_value = math.inf
    best_ids: tuple[int, ...] | None = None
    for mask in range(1 << len(free)):
        side = [free[i] for i in range(len(free)) if mask >> i & 1]
        value = cut_capacity(net, side)
        if math.isinf(value):
            continue
        ids = tuple(side)
        if best_ids is None or value < best_value - _TIE_TOL:
            best_value, best_ids = value, ids
        elif value <= best_value + _TIE_TOL and ids < best_ids:
            best_value, best_ids = min(value, best_value), ids
    if best_ids is None:
        raise UnboundedFlowError("no finite source-sink cut exists")
    return best_value, np.array(best_ids, dtype=np.int64)


# -- dense linear algebra ------------------------------------------------------


def dense_laplacian(g: Graph) -> np.ndarray:
    adj = np.zeros((g.n, g.n))
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    adj[rows, g.indices] = g.weights
    return np.diag(g.degrees) - adj


def dense_normalized_laplacian(g: Graph) -> np.ndarray:
    inv_sqrt = 1.0 / np.sqrt(g.degrees)
    return dense_laplacian(g) * np.outer(inv_sqrt, inv_sqrt)


def dense_eig_smallest(
    matrix: np.ndarray, deflate: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of a symmetric matrix, optionally on the
    orthogonal complement of one vector. The eigenvector comes back unit
    norm with its largest-magnitude entry positive."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ParameterError("matrix must be square")
    if matrix.shape[0] > MAX_DENSE_DIM:
        raise OracleCapError(f"dense oracle capped at {MAX_DENSE_DIM} rows")
    if not np.allclose(matrix, matrix.T, atol=1e-12):
        raise ParameterError("matrix must be symmetric")
    if deflate is not None:
        d = np.asarray(deflate, dtype=np.float64).reshape(-1, 1)
        if d.shape[0] != matrix.shape[0]:
            raise ParameterError("deflation vector length mismatch")
        q, _ = np.linalg.qr(d, mode="complete")
        basis = q[:, 1:]
        sub = basis.T @ matrix @ basis
        vals, vecs = np.linalg.eigh(sub)
        vec = basis @ vecs[:, 0]
    else:
        vals, vecs = np.linalg.eigh(matrix)
        vec = vecs[:, 0]
    vec = vec / np.linalg.norm(vec)
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    return float(vals[0]), vec


def dense_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape[0] > MAX_DENSE_DIM:
        raise OracleCapError(f"dense oracle capped at {MAX_DENSE_DIM} rows")
    try:
        return np.linalg.solve(matrix, np.asarray(rhs, dtype=np.float64))
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"dense solve failed: {exc}") from exc


def dense_nnq_prox(
    q: np.ndarray,
    b: np.ndarray,
    w: np.ndarray,
    tol: float = 1e-10,
    max_iters: int = 200_000,
) -> np.ndarray:
    """Minimize (1/2) x'Qx - b'x + w'x subject to x >= 0.

    Projected gradient with fixed step 1/lambda_max(Q), run until the
    first-order conditions hold entrywise within ``tol``. Q must be
    positive definite.
    """
    q = np.asarray(q, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if b.size > MAX_DENSE_DIM:
        raise OracleCapError(f"dense oracle capped at {MAX_DENSE_DIM} rows")
    eigs = np.linalg.eigvalsh(q)
    if eigs[0] <= 0:
        raise ParameterError("Q must be positive definite")
    step = 1.0 / float(eigs[-1])
    x = np.zeros_like(b)
    worst = math.inf
    for _ in range(max_iters):
        grad = q @ x - b + w
        worst = float(np.max(np.where(x > 0, np.abs(grad), np.maximum(0.0, -grad))))
        if worst <= tol:
            return x
        x = np.maximum(0.0, x - step * grad)
    raise ConvergenceError(
        f"projected gradient stalled above tol ({worst:.3e})", achieved=worst
    )


def dense_mov_solve(g: Graph, z: np.ndarray, rho: float) -> np.ndarray:
    """Dense mirror of the seed-biased resolvent solve (unit 2-norm)."""
    if g.n > MAX_DENSE_DIM:
        raise OracleCapError(f"dense oracle capped at {MAX_DENSE_DIM} rows")
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (g.n,):
        raise ParameterError("seed vector length mismatch")
    d = g.degrees
    z = z - float(d @ z) / g.total_volume
    if float(np.abs(z).max(initial=0.0)) == 0.0:
        raise ParameterError("seed vector is constant")
    rhs = (rho if rho != 0.0 else 1.0) * (d * z)

    sqrt_d = np.sqrt(d)
    system = dense_normalized_laplacian(g) + rho * np.eye(g.n)
    u = (sqrt_d / np.linalg.norm(sqrt_d)).reshape(-1, 1)
    q, _ = np.linalg.qr(u, mode="complete")
    basis = q[:, 1:]
    reduced = basis.T @ system @ basis
    rhs_y = basis.T @ (rhs / sqrt_d)
    y = basis @ dense_solve(reduced, rhs_y)
    x = y / sqrt_d
    return x / np.linalg.norm(x)
