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
from typing import Mapping

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateResultError,
    ParameterError,
    UnattainableCorrelationError,
)
from .graph import Graph, _as_node_array, laplacian_apply
from .results import ClusterResult
from .rounding import sweep_cut
from .solvers import MatvecBudget, _BudgetExceeded, conjugate_gradient, smallest_eigenpair

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
            idx = np.asarray(self.indices, dtype=np.int64)
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

    A single int gives the point mass e_v.
    """
    if isinstance(seeds, (int, np.integer)):
        v = int(seeds)
        if not (0 <= v < g.n):
            raise ParameterError(f"seed node {v} out of range")
        return {v: 1.0}
    arr = _as_node_array(g, seeds)
    if arr.size == 0:
        raise ParameterError("seed set is empty")
    total = float(g.degrees[arr].sum())
    return {int(v): float(g.degrees[v]) / total for v in arr}


def correlation_seed(g: Graph, r: object) -> np.ndarray:
    """Signed seed indicator, degree-orthogonal to constants, D-normalized."""
    arr = _as_node_array(g, r)
    if arr.size == 0 or arr.size == g.n:
        raise ParameterError("seed set must be a nonempty proper subset")
    z = np.zeros(g.n)
    z[arr] = 1.0
    z -= float(g.degrees[arr].sum()) / g.total_volume
    scale = math.sqrt(float(z @ (g.degrees * z)))
    return z / scale


# -- Fiedler pair ------------------------------------------------------------


def fiedler(g: Graph, normalized: bool = True, tol: float = 1e-10) -> tuple[float, EmbeddingVector]:
    """Second-smallest eigenpair of the (normalized) Laplacian.

    Normalized mode minimizes x'Lx / x'Dx over vectors degree-orthogonal
    to constants and satisfies ||Lx - lambda2*Dx|| <= tol * ||Dx|| on
    return; the unnormalized flag swaps D for the identity. The entry of
    largest magnitude is made positive.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    if g.n < 2:
        raise ParameterError("need at least two vertices")
    if not g.is_connected():
        raise ParameterError("graph must be connected")

    budget = MatvecBudget()
    if normalized:
        sqrt_d = np.sqrt(g.degrees)
        inv_sqrt_d = 1.0 / sqrt_d
        u = sqrt_d / np.linalg.norm(sqrt_d)

        def apply_a(y: np.ndarray) -> np.ndarray:
            return inv_sqrt_d * laplacian_apply(g, inv_sqrt_d * y)

        def project(y: np.ndarray) -> np.ndarray:
            return y - (u @ y) * u

        def residual_fn(lam: float, y: np.ndarray, a_y: np.ndarray) -> float:
            num = float(np.linalg.norm(sqrt_d * (a_y - lam * y)))
            den = float(np.linalg.norm(sqrt_d * y))
            return num / den

        lam, y, _ = smallest_eigenpair(
            apply_a, g.n, tol=tol, residual_fn=residual_fn, project=project, budget=budget
        )
        x = inv_sqrt_d * y
    else:
        u = np.full(g.n, 1.0 / math.sqrt(g.n))

        def apply_a(y: np.ndarray) -> np.ndarray:
            return laplacian_apply(g, y)

        def project(y: np.ndarray) -> np.ndarray:
            return y - (u @ y) * u

        lam, x, _ = smallest_eigenpair(
            apply_a, g.n, tol=tol, project=project, budget=budget
        )

    x = x / np.linalg.norm(x)
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    return lam, EmbeddingVector(n=g.n, values=x, kind="fiedler")


# -- seed-confined (Dirichlet) eigenproblem ----------------------------------


def spectral_mqi(g: Graph, r: object, tol: float = 1e-10) -> tuple[float, EmbeddingVector]:
    """Smallest eigenpair of the normalized-Laplacian principal submatrix on R.

    The eigenvector is reported in the submatrix's own coordinates
    (zero-padded outside R) with nonnegative entries; for R = V that is
    the square-root-degree direction with eigenvalue 0, for a singleton
    it is e_v with eigenvalue 1.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    r_arr = _as_node_array(g, r)
    if r_arr.size == 0:
        raise ParameterError("seed set is empty")

    if r_arr.size == g.n:
        sqrt_d = np.sqrt(g.degrees)
        return 0.0, EmbeddingVector(n=g.n, values=sqrt_d / np.linalg.norm(sqrt_d), kind="dirichlet")
    if r_arr.size == 1:
        return 1.0, EmbeddingVector(
            n=g.n, values=np.ones(1), indices=r_arr.copy(), kind="dirichlet"
        )

    sqrt_d = np.sqrt(g.degrees)
    inv_sqrt_d = 1.0 / sqrt_d
    pad = np.zeros(g.n)

    def apply_sub(y: np.ndarray) -> np.ndarray:
        pad[r_arr] = y
        full = inv_sqrt_d * laplacian_apply(g, inv_sqrt_d * pad)
        out = full[r_arr]
        pad[r_arr] = 0.0
        return out

    lam, y, res = smallest_eigenpair(apply_sub, r_arr.size, tol=tol)
    y = np.abs(y)
    y /= np.linalg.norm(y)
    a_y = apply_sub(y)
    lam = float(y @ a_y)
    if float(np.linalg.norm(a_y - lam * y)) > 10 * tol:
        raise ConvergenceError(
            "sign-fixed eigenvector lost accuracy", achieved=float(np.linalg.norm(a_y - lam * y))
        )
    return lam, EmbeddingVector(n=g.n, values=y, indices=r_arr.copy(), kind="dirichlet")


def spectral_mqi_cluster(
    g: Graph,
    r: object,
    tol: float = 1e-8,
    objective: str = "cut_over_volume",
) -> ClusterResult:
    """Round the seed-confined eigenvector to a set inside R.

    The sweep orders by degree-rescaled entries (values / sqrt(d)), which
    is the ordering the Dirichlet variant of the sweep-cut guarantee
    speaks about: the best prefix S satisfies
    cut(S)/vol(S) <= sqrt(2 * lambda_R). The result's ``vector`` is the
    eigenvector before rescaling, as ``spectral_mqi`` returns it.
    """
    t0 = time.perf_counter()
    lam, vec = spectral_mqi(g, r, tol=tol)
    ids, vals = vec.nonzeros()
    if ids.size == 0:
        raise DegenerateResultError("eigenvector has empty support")
    rescaled = vals / np.sqrt(g.degrees[ids])
    sweep_vec = EmbeddingVector(n=g.n, values=rescaled, indices=ids, kind="dirichlet")
    node_set, value, _profile = sweep_cut(g, sweep_vec, objective=objective)
    return ClusterResult.of_set(
        g, node_set.ids, objective, value, touched_nodes=g.n, iterations=1, t0=t0,
        history=(lam,), vector=vec,
    )


# -- seed-correlated resolvent solves ----------------------------------------


def _deflated_resolvent_solve(
    g: Graph, rhs_x: np.ndarray, rho: float, cg_rel_tol: float, budget: MatvecBudget
) -> np.ndarray:
    """Solve (L + rho*D) x = rhs on the degree-orthogonal complement of 1."""
    sqrt_d = np.sqrt(g.degrees)
    inv_sqrt_d = 1.0 / sqrt_d
    u = sqrt_d / np.linalg.norm(sqrt_d)

    def apply_a(y: np.ndarray) -> np.ndarray:
        return inv_sqrt_d * laplacian_apply(g, inv_sqrt_d * y) + rho * y

    def project(y: np.ndarray) -> np.ndarray:
        return y - (u @ y) * u

    rhs_y = inv_sqrt_d * rhs_x
    y = conjugate_gradient(apply_a, rhs_y, rel_tol=cg_rel_tol, budget=budget, project=project)
    return inv_sqrt_d * y


def _orthogonalize_seed(g: Graph, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (g.n,):
        raise ParameterError("seed vector length mismatch")
    z = z - float(g.degrees @ z) / g.total_volume
    if float(np.abs(z).max(initial=0.0)) == 0.0:
        raise ParameterError("seed vector is constant; no direction left after orthogonalization")
    return z


def mov_solve(g: Graph, z: np.ndarray, rho: float, tol: float = 1e-10) -> EmbeddingVector:
    """Seed-biased relaxation: unit-norm multiple of (L + rho*D)^+ D z.

    ``z`` is degree-orthogonalized against constants first. For rho != 0
    the prenormalization system is (L + rho*D) x = rho*D*z; at rho = 0 the
    pseudo-inverse on the deflated space is used, so the parameter passes
    through zero continuously. Requires rho > -lambda2; below that the
    operator loses definiteness and a parameter error is raised.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
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
    budget = MatvecBudget()
    try:
        x_hat = _deflated_resolvent_solve(g, rhs, rho, max(1e-15, 0.01 * tol), budget)
    except _BudgetExceeded:
        raise ConvergenceError("matvec budget exhausted in resolvent solve") from None

    res = laplacian_apply(g, x_hat) + rho * (g.degrees * x_hat) - rhs
    rel = float(np.linalg.norm(res)) / float(np.linalg.norm(rhs))
    if rel > tol:
        raise ConvergenceError(f"resolvent residual {rel:.3e} above tol", achieved=rel)

    nrm = float(np.linalg.norm(x_hat))
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
    if tol <= 0:
        raise ParameterError("tol must be positive")
    z = _orthogonalize_seed(g, z)
    z = z / math.sqrt(float(z @ (g.degrees * z)))

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
        v = x.values
        c = float(z @ (g.degrees * v)) ** 2 / float(v @ (g.degrees * v))
        return c, x

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


# -- l1-regularized diffusion -------------------------------------------------


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
        if w < 0:
            raise ParameterError(f"negative seed mass at node {i}")
    items = {i: w for i, w in items.items() if w > 0}
    total = sum(items.values())
    if not items or abs(total - 1.0) > 1e-9:
        raise ParameterError("seed mass must be nonnegative and sum to one")
    return items


def l1_pagerank(
    g: Graph,
    h: object,
    alpha: float,
    epsilon: float,
    tol: float = 1e-10,
    order: str = "fifo",
) -> tuple[EmbeddingVector, int]:
    """Strongly-local nonnegative diffusion with l1 shrinkage.

    Minimizes the seed-anchored quadratic
    (alpha/2) sum_i h_i (1 - x_i)^2 + (gamma/2) sum_{ij} c_ij (x_i - x_j)^2
    + (alpha/2) sum_i (d_i - h_i) x_i^2 + epsilon * sum_i d_i x_i over
    x >= 0, with gamma = (1 - alpha)/2. Solved by coordinate-exact pushes
    on a queue of optimality violations: work stays proportional to the
    volume the solution actually reaches. At exit the first-order
    conditions hold within ``tol`` per unit degree, so any sweep or
    thresholding downstream sees (up to tol) the unique minimizer no
    matter the update order ('fifo' or 'lifo').

    Returns the sparse solution vector and the touched-node count (nodes
    whose residual entry was ever created).
    """
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must be in (0, 1) (got {alpha})")
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if tol <= 0:
        raise ParameterError("tol must be positive")
    if order not in ("fifo", "lifo"):
        raise ParameterError("order must be 'fifo' or 'lifo'")
    seed = _as_seed_mass(g, h)
    vec, touched, _pushes = _l1pr_push(g, seed, alpha, epsilon, tol, order)
    return vec, touched


def _l1pr_push(
    g: Graph,
    seed: dict[int, float],
    alpha: float,
    epsilon: float,
    tol: float,
    order: str,
) -> tuple[EmbeddingVector, int, int]:
    gamma = (1.0 - alpha) / 2.0
    coeff = gamma + alpha
    degrees = g.degrees
    indptr, indices, weights = g.indptr, g.indices, g.weights

    x: dict[int, float] = {}
    resid: dict[int, float] = {i: alpha * w for i, w in seed.items()}
    fifo = order == "fifo"
    queue: deque[int] = deque()
    queued: set[int] = set()
    for i in resid:
        if resid[i] > (epsilon + tol) * degrees[i]:
            queue.append(i)
            queued.add(i)

    pushes = 0
    while queue:
        i = queue.popleft() if fifo else queue.pop()
        queued.discard(i)
        d_i = degrees[i]
        r_i = resid[i]
        slack = r_i - epsilon * d_i
        if slack <= tol * d_i:
            continue
        step = slack / (coeff * d_i)
        x[i] = x.get(i, 0.0) + step
        resid[i] = epsilon * d_i
        pushes += 1
        for k in range(indptr[i], indptr[i + 1]):
            j = int(indices[k])
            r_j = resid.get(j, 0.0) + gamma * float(weights[k]) * step
            resid[j] = r_j
            if r_j > (epsilon + tol) * degrees[j] and j not in queued:
                queue.append(j)
                queued.add(j)

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
    guarantees it is below its ``tol`` on exit.
    """
    seed = _as_seed_mass(g, h)
    ids, vals = x.nonzeros()
    if np.any(vals < 0):
        return float("inf")
    gamma = (1.0 - alpha) / 2.0
    xv: dict[int, float] = {int(i): float(v) for i, v in zip(ids, vals)}

    check: set[int] = set(seed)
    check.update(xv)
    for i in list(xv):
        nbr, _ = g.neighbors(i)
        check.update(int(j) for j in nbr)

    worst = 0.0
    for i in check:
        d_i = float(g.degrees[i])
        nbr, ws = g.neighbors(i)
        lap = d_i * xv.get(i, 0.0) - sum(
            float(w) * xv.get(int(j), 0.0) for j, w in zip(nbr, ws) if int(j) in xv
        )
        grad = gamma * lap + alpha * d_i * xv.get(i, 0.0) - alpha * seed.get(i, 0.0)
        if xv.get(i, 0.0) > 0.0:
            viol = abs(grad + epsilon * d_i)
        else:
            viol = max(0.0, -(grad + epsilon * d_i))
        worst = max(worst, viol / d_i)
    return worst


def l1pr_cluster(g: Graph, h: object, alpha: float, epsilon: float) -> ClusterResult:
    """Diffuse from the seed mass, then sweep the support for the best cut.

    The result's ``vector`` is the diffusion vector, as ``l1_pagerank``
    returns it.
    """
    t0 = time.perf_counter()
    seed = _as_seed_mass(g, h)
    vec, touched, pushes = _l1pr_push(g, seed, alpha, epsilon, 1e-10, "fifo")
    if vec.support().size == 0:
        raise DegenerateResultError(
            "diffusion collapsed to zero (epsilon too large for this seed)"
        )
    node_set, value, _profile = sweep_cut(g, vec, objective="conductance")
    return ClusterResult.of_set(
        g, node_set.ids, "conductance", value, touched_nodes=touched, iterations=pushes, t0=t0,
        vector=vec,
    )
