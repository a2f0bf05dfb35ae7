"""Spectral relaxations: global Fiedler pair, seed-confined Dirichlet
eigenproblem, seed-correlated resolvent solves, and the l1-regularized
diffusion with its strongly-local push solver.

All dense work happens in the oracles module; everything here is
operator-based and, for the push solver, touches only the nodes whose
residual ever becomes active.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateResultError,
    ParameterError,
    UnattainableCorrelationError,
)
from .graph import Graph, NodeSet, _gather, _row_reduce, _sorted_ids, laplacian_apply
from .results import ClusterResult
from .rounding import sweep_cut
from .solvers import MatvecBudget, _BudgetExceeded, _dot, _norm, conjugate_gradient, smallest_eigenpair

__all__ = [
    "EmbeddingVector",
    "fiedler",
    "spectral_mqi",
    "spectral_mqi_cluster",
    "mov_solve",
    "mov_correlate",
    "l1_pagerank",
    "l1pr_cluster",
    "kkt_residual",
    "seed_distribution",
    "correlation_seed",
]


@dataclass(frozen=True)
class EmbeddingVector:
    """Real vector over the vertices, dense or sparse.

    ``indices is None`` means dense (``values`` has length n); otherwise
    ``values[k]`` belongs to vertex ``indices[k]`` and everything else is
    zero. ``kind`` records which solver produced it.
    """

    n: int
    values: np.ndarray
    indices: np.ndarray | None = None
    kind: str = "generic"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if self.indices is None:
            if values.shape != (self.n,):
                raise ParameterError("dense vector length mismatch")
        else:
            idx = np.asarray(self.indices)
            if idx.size and not np.issubdtype(idx.dtype, np.integer):  # bool is not an integer type
                raise ParameterError(f"sparse indices must be integers (got dtype {idx.dtype})")
            idx = idx.astype(np.int64, copy=False)
            if idx.shape != values.shape:
                raise ParameterError("sparse index/value length mismatch")
            if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= self.n):
                raise ParameterError("sparse indices must be sorted, unique, in range")
            object.__setattr__(self, "indices", idx)

    @property
    def is_sparse(self) -> bool:
        return self.indices is not None

    def to_dense(self) -> np.ndarray:
        if self.indices is None:
            return self.values.copy()
        out = np.zeros(self.n)
        out[self.indices] = self.values
        return out

    def support(self) -> np.ndarray:
        """Vertex ids with nonzero value, ascending."""
        if self.indices is None:
            return np.flatnonzero(self.values != 0.0)
        return self.indices[self.values != 0.0]

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, values) over the support, ascending ids."""
        if self.indices is None:
            ids = np.flatnonzero(self.values != 0.0)
            return ids, self.values[ids]
        keep = self.values != 0.0
        return self.indices[keep], self.values[keep]


# -- seed helpers ------------------------------------------------------------


def seed_distribution(g: Graph, seeds: object) -> dict[int, float]:
    """Degree-weighted probability mass on a seed set (sums to one).

    A single int gives the point mass e_v. A seed of zero volume has no
    such mass and raises ParameterError.
    """
    if isinstance(seeds, (int, np.integer)):
        v = int(seeds)
        if not (0 <= v < g.n):
            raise ParameterError(f"seed node {v} out of range")
        seeds = [v]
    seeds = NodeSet.of(g, seeds)
    if not len(seeds):
        raise ParameterError("seed set is empty")
    total = seeds.volume
    if total == 0.0:
        raise ParameterError("seed set has zero volume")
    return {int(v): float(g.degrees[v]) / total for v in seeds.array}


def correlation_seed(g: Graph, r: object) -> np.ndarray:
    """Signed seed indicator, degree-orthogonal to constants, D-normalized.

    The seed and its complement must each have positive volume: otherwise
    the indicator has no component left after orthogonalization, and
    ParameterError is raised.
    """
    r = NodeSet.of(g, r)
    arr = r.array
    if arr.size == 0 or arr.size == g.n:
        raise ParameterError("seed set must be a nonempty proper subset")
    z = np.zeros(g.n)
    z[arr] = 1.0
    if not ((g.degrees[arr] > 0.0).any() and (g.degrees[z == 0.0] > 0.0).any()):
        raise ParameterError("seed set and its complement must each have positive volume")
    z -= r.volume / g.total_volume
    scale = math.sqrt(_dot(z, g.degrees * z))
    return z / scale


# -- the degree-scaled Laplacian -----------------------------------------------


def _scaled_laplacian(
    g: Graph, normalized: bool = True, rows: np.ndarray | None = None
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """The operator y -> S^-1 L S^-1 y and S's diagonal, which spans its null space.

    S = sqrt(D), or the identity when not normalized. Given sorted
    ``rows``, the operator is its principal submatrix on them (S is
    restricted too), whose products read only those rows' arcs: O(vol(rows))
    work, with the arithmetic of the whole-graph product on a vector that
    is zero outside ``rows``.
    """
    d = g.degrees if rows is None else g.degrees[rows]
    s = np.sqrt(d) if normalized else np.ones(d.shape[0])
    inv = 1.0 / s
    if rows is None:
        return lambda y: inv * laplacian_apply(g, inv * y), s

    # Each arc's head as a position in rows; heads outside rows read the
    # zero in the last slot of ``ext``.
    arcs, _, _, slot, indptr = _gather(g, rows, rows)
    weights = g.weights[arcs]
    ext = np.zeros(rows.size + 1)

    def apply(y: np.ndarray) -> np.ndarray:
        x = inv * y
        ext[:-1] = x
        return inv * (d * x - _row_reduce(np.add, indptr, weights * ext[slot], 0.0))

    return apply, s


def _deflation(s: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The orthogonal projector onto the complement of ``s``."""
    u = s / _norm(s)
    return lambda y: y - _dot(u, y) * u


# -- Fiedler pair ------------------------------------------------------------


def fiedler(g: Graph, normalized: bool = True, tol: float = 1e-10) -> tuple[float, EmbeddingVector]:
    """Second-smallest eigenpair of the (normalized) Laplacian.

    Normalized mode minimizes x'Lx / x'Dx over vectors degree-orthogonal
    to constants and satisfies ||Lx - lambda2*Dx|| <= tol * ||Dx|| on
    return; the unnormalized flag swaps D for the identity. The entry of
    largest magnitude is made positive.
    """
    if not tol > 0:  # NaN fails too
        raise ParameterError("tol must be positive")
    if g.n < 2:
        raise ParameterError("need at least two vertices")
    if not g.is_connected():
        raise ParameterError("graph must be connected")

    apply_a, s = _scaled_laplacian(g, normalized)

    def residual_fn(lam: float, y: np.ndarray, a_y: np.ndarray) -> float:
        return _norm(s * (a_y - lam * y)) / _norm(s * y)

    lam, y, _ = smallest_eigenpair(
        apply_a, g.n, tol=tol, residual_fn=residual_fn, project=_deflation(s)
    )
    x = (1.0 / s) * y
    x = x / _norm(x)
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    return lam, EmbeddingVector(n=g.n, values=x, kind="fiedler")


# -- seed-confined (Dirichlet) eigenproblem ----------------------------------


def spectral_mqi(g: Graph, r: object, tol: float = 1e-10) -> tuple[float, EmbeddingVector]:
    """Smallest eigenpair of the normalized-Laplacian principal submatrix on R.

    The eigenvector is reported in the submatrix's own coordinates
    (zero-padded outside R) with nonnegative entries; for R = V that is
    the square-root-degree direction with eigenvalue 0, for a singleton
    it is e_v with eigenvalue 1. Strongly local: the solve reads only the
    arcs of R's vertices. The degree scaling needs every node of R to have
    positive degree; a zero-degree node raises ParameterError.
    """
    if not tol > 0:  # NaN fails too
        raise ParameterError("tol must be positive")
    r_arr = NodeSet.of(g, r).array
    if r_arr.size == 0:
        raise ParameterError("seed set is empty")
    if (g.degrees[r_arr] == 0.0).any():
        raise ParameterError("seed set holds a node of zero degree")

    if r_arr.size == g.n:
        sqrt_d = np.sqrt(g.degrees)
        return 0.0, EmbeddingVector(n=g.n, values=sqrt_d / _norm(sqrt_d), kind="dirichlet")
    if r_arr.size == 1:
        return 1.0, EmbeddingVector(
            n=g.n, values=np.ones(1), indices=r_arr.copy(), kind="dirichlet"
        )

    apply_sub, _ = _scaled_laplacian(g, rows=r_arr)
    lam, y, res = smallest_eigenpair(apply_sub, r_arr.size, tol=tol)
    y = np.abs(y)
    y /= _norm(y)
    a_y = apply_sub(y)
    lam = _dot(y, a_y)
    if _norm(a_y - lam * y) > 10 * tol:
        raise ConvergenceError("sign-fixed eigenvector lost accuracy", achieved=_norm(a_y - lam * y))
    return lam, EmbeddingVector(n=g.n, values=y, indices=r_arr.copy(), kind="dirichlet")


def spectral_mqi_cluster(g: Graph, r: object, tol: float = 1e-8) -> ClusterResult:
    """Round the seed-confined eigenvector to a set inside R.

    The sweep orders by degree-rescaled entries (values / sqrt(d)), which
    is the ordering the Dirichlet variant of the sweep-cut guarantee
    speaks about: the best prefix S satisfies
    cut(S)/vol(S) <= sqrt(2 * lambda_R). The result's ``vector`` is the
    eigenvector before rescaling, as ``spectral_mqi`` returns it. The
    seed-confined operator reads R's rows, and ``touched_nodes`` counts R
    plus the heads those rows name (every vertex when R = V).
    """
    t0 = time.perf_counter()
    lam, vec = spectral_mqi(g, r, tol=tol)
    # The eigenvector is indexed by R itself, and is dense only when R = V.
    r_arr = vec.indices
    touched = g.n if r_arr is None else _sorted_ids(np.concatenate((r_arr, _gather(g, r_arr, r_arr)[2]))).size
    ids, vals = vec.nonzeros()
    if ids.size == 0:
        raise DegenerateResultError("eigenvector has empty support")
    rescaled = vals / np.sqrt(g.degrees[ids])
    sweep_vec = EmbeddingVector(n=g.n, values=rescaled, indices=ids, kind="dirichlet")
    node_set, value, _profile = sweep_cut(g, sweep_vec, objective="cut_over_volume")
    return ClusterResult.of_set(
        g, node_set, "cut_over_volume", value, touched_nodes=touched, iterations=1, t0=t0,
        history=(lam,), vector=vec,
    )


# -- seed-correlated resolvent solves ----------------------------------------


def _orthogonalize_seed(g: Graph, z: np.ndarray) -> np.ndarray:
    """``z`` less its degree-weighted mean; rejects a vector of the wrong length, not finite, or constant."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (g.n,):
        raise ParameterError("seed vector length mismatch")
    if not np.isfinite(z).all():
        raise ParameterError("seed vector entries must all be finite")
    z = z - _dot(g.degrees, z) / g.total_volume
    if float(np.abs(z).max(initial=0.0)) == 0.0:
        raise ParameterError("seed vector is constant; no direction left after orthogonalization")
    return z


def mov_solve(g: Graph, z: np.ndarray, rho: float, tol: float = 1e-10) -> EmbeddingVector:
    """Seed-biased relaxation: unit-norm multiple of (L + rho*D)^+ D z.

    ``z`` is degree-orthogonalized against constants first. For rho != 0
    the prenormalization system is (L + rho*D) x = rho*D*z; at rho = 0 the
    pseudo-inverse on the deflated space is used, so the parameter passes
    through zero continuously. Requires a finite rho > -lambda2; below
    that the operator loses definiteness and a parameter error is raised.
    """
    if not tol > 0:  # NaN fails too
        raise ParameterError("tol must be positive")
    if not math.isfinite(rho):
        raise ParameterError(f"rho must be finite (got {rho})")
    if not g.is_connected():
        raise ParameterError("graph must be connected")
    z = _orthogonalize_seed(g, z)

    if rho < 0:
        lam2, _ = fiedler(g, tol=1e-8)
        if rho <= -lam2 + max(1e-12, 1e-7 * lam2):
            raise ParameterError(
                f"rho={rho} is out of range; need rho > -lambda2 = {-lam2:.6g}"
            )
    return _mov_solve(g, z, rho, tol)


def _mov_solve(g: Graph, z: np.ndarray, rho: float, tol: float) -> EmbeddingVector:
    """The solve of mov_solve, without its checks.

    Assumes ``g`` is connected, ``z`` is degree-orthogonal to constants,
    rho > -lambda2 and tol > 0.
    """
    rhs = (rho if rho != 0.0 else 1.0) * (g.degrees * z)
    # (L + rho*D) x = rhs on the degree-orthogonal complement of 1, solved
    # as (S^-1 L S^-1 + rho) y = S^-1 rhs with x = S^-1 y.
    apply_l, s = _scaled_laplacian(g)
    inv = 1.0 / s
    try:
        y = conjugate_gradient(
            lambda v: apply_l(v) + rho * v, inv * rhs, rel_tol=max(1e-15, 0.01 * tol),
            budget=MatvecBudget(), project=_deflation(s),
        )
    except _BudgetExceeded:
        raise ConvergenceError("matvec budget exhausted in resolvent solve") from None

    x_hat = inv * y
    res = laplacian_apply(g, x_hat) + rho * (g.degrees * x_hat) - rhs
    rel = _norm(res) / _norm(rhs)
    if rel > tol:
        raise ConvergenceError(f"resolvent residual {rel:.3e} above tol", achieved=rel)

    nrm = _norm(x_hat)
    if nrm == 0.0:
        raise DegenerateResultError("resolvent solve returned the zero vector")
    return EmbeddingVector(n=g.n, values=x_hat / nrm, kind="mov")


def mov_correlate(
    g: Graph, z: np.ndarray, kappa: float, tol: float = 1e-4
) -> tuple[EmbeddingVector, float]:
    """Find rho so the solve's squared degree-correlation with z hits kappa.

    ``z`` is degree-orthogonalized and D-normalized internally; the
    correlation (z' D x)^2 is measured with x rescaled to unit degree
    norm (x' D x = 1), which keeps it in (0, 1] by Cauchy-Schwarz and
    makes kappa = 1 the perfect-alignment limit. Bisects rho over
    (-lambda2, inf), at most 100 steps, declaring success when
    |(z' D x)^2 - kappa| <= tol. If kappa lies outside what the bracket
    ends achieve, raises UnattainableCorrelationError carrying both end
    correlations.
    """
    if not (0.0 < kappa <= 1.0):
        raise ParameterError(f"kappa must be in (0, 1] (got {kappa})")
    if not tol > 0:  # NaN fails too
        raise ParameterError("tol must be positive")
    z = _orthogonalize_seed(g, z)
    z = z / math.sqrt(_dot(z, g.degrees * z))

    # mov_solve orthogonalizes its seed before solving; do that once here.
    z_solve = _orthogonalize_seed(g, z)
    lam2, _ = fiedler(g, tol=1e-8)

    def corr_at(rho: float) -> tuple[float, EmbeddingVector]:
        # The bisection only needs the correlation to 1e-4, so the inner
        # solves run at a looser tolerance than mov_solve's default. With
        # the bracket floor below, the operator gap at the low end is at
        # least 1e-8, which caps the CG-attainable relative residual near
        # 4e-8 in double precision; 1e-7 clears that on every graph. That
        # floor also lies above mov_solve's rho limit, so the solves skip
        # mov_solve's range check, which would recompute lambda2.
        x = _mov_solve(g, z_solve, rho, 1e-7)
        return _correlation(g, z, x.values), x

    # The absolute floor keeps the shifted operator solvable when lambda2
    # itself is tiny (large graphs with narrow bottlenecks).
    lo = -lam2 + max(1e-8, 1e-4 * lam2)
    c_lo, x_lo = corr_at(lo)
    hi = 1.0
    c_hi, x_hi = corr_at(hi)
    grow = 0
    while c_hi < kappa and grow < 60:
        hi *= 2.0
        c_hi, x_hi = corr_at(hi)
        grow += 1

    if abs(c_lo - kappa) <= tol:
        return x_lo, lo
    if abs(c_hi - kappa) <= tol:
        return x_hi, hi
    if not (min(c_lo, c_hi) <= kappa <= max(c_lo, c_hi)):
        raise UnattainableCorrelationError(
            f"correlation {kappa} unattainable; bracket achieves "
            f"[{min(c_lo, c_hi):.6g}, {max(c_lo, c_hi):.6g}]",
            low_end=c_lo,
            high_end=c_hi,
        )

    increasing = c_hi >= c_lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        c_mid, x_mid = corr_at(mid)
        if abs(c_mid - kappa) <= tol:
            return x_mid, mid
        if (c_mid < kappa) == increasing:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError("correlation bisection did not meet tolerance in 100 steps")


def _correlation(g: Graph, z: np.ndarray, v: np.ndarray) -> float:
    """Squared degree-correlation (z' D v)^2 / (v' D v) of ``v`` with a D-normalized ``z``."""
    return _dot(z, g.degrees * v) ** 2 / _dot(v, g.degrees * v)


# -- l1-regularized diffusion -------------------------------------------------

# The push solver's stopping tolerance: at exit no node's residual exceeds
# (epsilon + PUSH_TOL) * d, so the first-order conditions hold within
# PUSH_TOL per unit degree.
PUSH_TOL = 1e-10


def _as_seed_mass(g: Graph, h: object) -> dict[int, float]:
    if isinstance(h, Mapping):
        items = {int(i): float(w) for i, w in h.items()}
    else:
        arr = np.asarray(h, dtype=np.float64)
        if arr.shape != (g.n,):
            raise ParameterError("seed mass length mismatch")
        items = {int(i): float(arr[i]) for i in np.flatnonzero(arr)}
    for i, w in items.items():
        if not (0 <= i < g.n):
            raise ParameterError(f"seed node {i} out of range")
        if not w >= 0:  # NaN fails it too
            raise ParameterError(f"negative or NaN seed mass at node {i}")
        if w > 0 and g.degrees[i] == 0.0:
            raise ParameterError(f"seed mass at node {i}, which has zero degree")
    items = {i: w for i, w in items.items() if w > 0}
    total = sum(items.values())
    if not items or abs(total - 1.0) > 1e-9:
        raise ParameterError("seed mass must be nonnegative and sum to one")
    return items


def l1_pagerank(g: Graph, h: object, alpha: float, epsilon: float) -> tuple[EmbeddingVector, int]:
    """Strongly-local nonnegative diffusion with l1 shrinkage.

    Minimizes the seed-anchored quadratic
    (alpha/2) sum_i h_i (1 - x_i)^2 + (gamma/2) sum_{ij} c_ij (x_i - x_j)^2
    + (alpha/2) sum_i (d_i - h_i) x_i^2 + epsilon * sum_i d_i x_i over
    x >= 0, with gamma = (1 - alpha)/2. Solved by coordinate-exact pushes
    on a FIFO queue of optimality violations: work stays proportional to
    the volume the solution actually reaches. At exit the first-order
    conditions hold within ``PUSH_TOL`` per unit degree, so any sweep or
    thresholding downstream sees (up to that tolerance) the unique
    minimizer, whatever order the pushes ran in.

    Returns the sparse solution vector and the touched-node count (nodes
    whose residual entry was ever created).
    """
    vec, touched, _pushes = _l1pr_push(g, h, alpha, epsilon)
    return vec, touched


def _check_l1pr_parameters(alpha: float, epsilon: float) -> None:
    """The diffusion's parameters: alpha in (0, 1) and epsilon > 0; NaN fails both."""
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must be in (0, 1) (got {alpha})")
    if not epsilon > 0:
        raise ParameterError("epsilon must be positive")


def _l1pr_push(g: Graph, h: object, alpha: float, epsilon: float) -> tuple[EmbeddingVector, int, int]:
    """Push solve of ``l1_pagerank`` and ``l1pr_cluster``: vector, touched nodes, pushes.

    A node waits in the queue exactly while its residual exceeds
    (epsilon + PUSH_TOL) * d: only its own push lowers it, to epsilon * d.
    So a neighbour joins the queue when a push carries its residual across
    that limit, and every node popped has a positive step.

    Each pop reads the popped node's row once, as three Python lists: its
    neighbours, its arc weights and each neighbour's limit
    (epsilon + PUSH_TOL) * d_j. Only popped rows are read, and no row is
    kept from one pop to the next.
    """
    _check_l1pr_parameters(alpha, epsilon)
    seed = _as_seed_mass(g, h)
    gamma = (1.0 - alpha) / 2.0
    coeff = gamma + alpha
    limit = epsilon + PUSH_TOL  # per unit degree
    degrees = g.degrees
    indptr, indices, weights = g.indptr, g.indices, g.weights

    x: dict[int, float] = {}
    resid: dict[int, float] = {i: alpha * w for i, w in seed.items()}
    queue = deque(i for i, r_i in resid.items() if r_i > limit * degrees[i])

    pushes = 0
    while queue:
        i = queue.popleft()
        d_i = float(degrees[i])
        step = (resid[i] - epsilon * d_i) / (coeff * d_i)
        x[i] = x.get(i, 0.0) + step
        resid[i] = epsilon * d_i
        pushes += 1
        row = slice(indptr[i], indptr[i + 1])
        nbrs = indices[row]
        for j, w, limit_j in zip(nbrs.tolist(), weights[row].tolist(), (limit * degrees[nbrs]).tolist()):
            before = resid.get(j, 0.0)
            r_j = before + gamma * w * step
            resid[j] = r_j
            if before <= limit_j < r_j:
                queue.append(j)

    if x:
        ids = np.array(sorted(x), dtype=np.int64)
        vals = np.array([x[i] for i in ids])
    else:
        ids = np.empty(0, dtype=np.int64)
        vals = np.empty(0)
    vec = EmbeddingVector(n=g.n, values=vals, indices=ids, kind="l1pr")
    return vec, len(resid), pushes


def kkt_residual(g: Graph, h: object, alpha: float, epsilon: float, x: EmbeddingVector) -> float:
    """Worst per-unit-degree violation of the diffusion's optimality system.

    Zero belongs to the solution set iff this is 0; the push solver
    guarantees it is below ``PUSH_TOL`` on exit. Only the seed, the support
    and the support's neighbours can violate it, so only they are checked,
    reading the support's arcs once. ``alpha`` and ``epsilon`` are checked
    as ``l1_pagerank`` checks them, and an ``x`` for another vertex count
    raises ParameterError, as in ``sweep_cut``.
    """
    _check_l1pr_parameters(alpha, epsilon)
    if x.n != g.n:
        raise ParameterError("embedding is for a different vertex count")
    seed = _as_seed_mass(g, h)
    ids, vals = x.nonzeros()
    if np.any(vals < 0):
        return float("inf")
    gamma = (1.0 - alpha) / 2.0
    arcs, row, nbr, slot, _ = _gather(g, ids, ids)
    seed_ids = np.fromiter(seed, dtype=np.int64, count=len(seed))
    check = _sorted_ids(np.concatenate((seed_ids, ids, nbr[slot == ids.size])))
    xc = np.zeros(check.size)
    xc[check.searchsorted(ids)] = vals
    sc = np.zeros(check.size)
    sc[check.searchsorted(seed_ids)] = np.fromiter(seed.values(), dtype=np.float64, count=len(seed))
    # Sum_j w_ij x_j at each checked i, gathered over the arcs leaving the
    # support: the graph is symmetric, and the arcs into i arrive in the
    # order of i's neighbour list.
    near = np.bincount(check.searchsorted(nbr), weights=vals[row] * g.weights[arcs], minlength=check.size)
    d = g.degrees[check]
    lap = d * xc - near
    grad = gamma * lap + alpha * d * xc - alpha * sc
    slack = grad + epsilon * d
    viol = np.where(xc > 0.0, np.abs(slack), np.maximum(0.0, -slack))
    return float((viol / d).max(initial=0.0))


def l1pr_cluster(g: Graph, h: object, alpha: float, epsilon: float) -> ClusterResult:
    """Diffuse from the seed mass, then sweep the support for the best cut.

    The result's ``vector`` is the diffusion vector, as ``l1_pagerank``
    returns it.
    """
    t0 = time.perf_counter()
    vec, touched, pushes = _l1pr_push(g, h, alpha, epsilon)
    if vec.support().size == 0:
        raise DegenerateResultError(
            "diffusion collapsed to zero (epsilon too large for this seed)"
        )
    node_set, value, _profile = sweep_cut(g, vec, objective="conductance")
    return ClusterResult.of_set(
        g, node_set, "conductance", value, touched_nodes=touched, iterations=pushes, t0=t0,
        vector=vec,
    )
