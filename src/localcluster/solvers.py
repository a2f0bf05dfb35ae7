"""Conjugate gradients and deflated inverse iteration.

These are the only linear solvers in the package. They work on operator
callbacks (no matrices are formed), count matrix-vector products against
a shared budget, and raise ConvergenceError with the residual actually
achieved when the budget runs out.

Every inner product and norm of a length-n vector goes through ``_dot``
and ``_norm``, numpy's own pairwise sum: a BLAS dot product splits the sum
over threads, so its last bits, and every output downstream of it, would
depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ParameterError

__all__ = ["MatvecBudget", "conjugate_gradient", "smallest_eigenpair"]

MATVEC_CAP = 1_000_000
EIGEN_CG_REL_TOL = 1e-12
EIGEN_MAX_OUTER = 1000


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors, summed the same way at any BLAS thread count."""
    return float(np.add.reduce(a * b))


def _norm(a: np.ndarray) -> float:
    """Euclidean norm of a vector, summed the same way at any BLAS thread count."""
    return math.sqrt(_dot(a, a))


class MatvecBudget:
    """Shared counter for matrix-vector products, capped at ``MATVEC_CAP``."""

    def __init__(self):
        self.used = 0

    def spend(self, k: int = 1) -> None:
        self.used += k
        if self.used > MATVEC_CAP:
            raise _BudgetExceeded()


class _BudgetExceeded(Exception):
    pass


def conjugate_gradient(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    *,
    rel_tol: float,
    budget: MatvecBudget,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A.

    ``project``, when given, restricts the iteration to a subspace (used
    for deflating known null directions); it must be an orthogonal
    projector commuting with the operator on its range. Raises
    ParameterError if the operator turns out indefinite on the subspace,
    or if the curvature p'Ap is NaN, as a non-finite ``b`` makes it.
    """
    r = b.astype(np.float64, copy=True)
    if project is not None:
        r = project(r)
    x = np.zeros_like(r)
    b_norm = _norm(r)
    if b_norm == 0.0:
        return x
    p = r.copy()
    rs = _dot(r, r)
    while True:
        ap = apply_a(p)
        budget.spend()
        if project is not None:
            ap = project(ap)
        p_ap = _dot(p, ap)
        if not p_ap > 0.0:  # NaN fails too
            raise ParameterError(
                f"curvature {p_ap!r}: the operator is not positive definite on the search space, or b is not finite"
            )
        step = rs / p_ap
        x += step * p
        r -= step * ap
        rs_new = _dot(r, r)
        if np.sqrt(rs_new) <= rel_tol * b_norm:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new


def smallest_eigenpair(
    apply_a: Callable[[np.ndarray], np.ndarray],
    n: int,
    *,
    tol: float,
    residual_fn: Callable[[float, np.ndarray, np.ndarray], float] | None = None,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, np.ndarray, float]:
    """Smallest eigenpair of a symmetric PD operator by inverse iteration.

    Each outer step solves A z = y by CG and renormalizes, at most
    ``EIGEN_MAX_OUTER`` times. Convergence is judged by
    ``residual_fn(lam, y, a_y)`` (defaults to the plain eigen-residual
    norm), compared against ``tol``. Returns (eigenvalue, unit
    eigenvector, achieved residual).

    Deterministic: the start vector comes from a fixed-seed generator.
    """
    budget = MatvecBudget()
    if residual_fn is None:
        residual_fn = lambda lam, y, a_y: _norm(a_y - lam * y)

    y = np.random.default_rng(0).standard_normal(n)
    if project is not None:
        y = project(y)
    nrm = _norm(y)
    if nrm == 0.0:
        raise ParameterError("projector annihilated the start vector")
    y /= nrm

    res = float("inf")
    try:
        for _ in range(EIGEN_MAX_OUTER):
            z = conjugate_gradient(
                apply_a, y, rel_tol=EIGEN_CG_REL_TOL, budget=budget, project=project
            )
            nz = _norm(z)
            if nz == 0.0:
                raise ConvergenceError("inverse iteration collapsed to zero", achieved=res)
            y = z / nz
            if project is not None:
                y = project(y)
                y /= _norm(y)
            a_y = apply_a(y)
            budget.spend()
            lam = _dot(y, a_y)
            res = residual_fn(lam, y, a_y)
            if res <= tol:
                return lam, y, res
    except _BudgetExceeded:
        raise ConvergenceError(
            f"matvec budget exhausted ({MATVEC_CAP}); residual {res:.3e}", achieved=res
        ) from None
    raise ConvergenceError(
        f"no convergence in {EIGEN_MAX_OUTER} inverse-iteration steps; residual {res:.3e}",
        achieved=res,
    )
