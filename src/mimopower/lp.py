"""Dense two-phase revised simplex for small minimization LPs.

Problem form:  min c^T x  s.t.  A x <= b,  x >= 0.

Duals follow the Lagrangian sign convention: y >= 0 multiplies (A x - b),
so at an optimum the reduced costs satisfy c + A^T y >= 0 and strong
duality reads c^T x + b^T y = 0. Bland's rule makes the solve cycle-free
and deterministic: the same LP with the same basis hint gives bit-identical
outputs. The reported x and duals come from a fresh factorization of the
optimal basis read in sorted column order, so they depend on the optimal
basis set and not on the pivot path that reached it; a hint that leads to
the same optimal basis gives the same bits as a cold solve. Rows are
equilibrated by their largest absolute entry before solving; duals are
reported in the original scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
_REFRESH_EVERY = 100  # rebuild the basis inverse from scratch this often


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min c^T x subject to a_ub @ x <= b_ub and x >= 0."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        a = np.asarray(self.a_ub, dtype=float)
        if a.size == 0 and a.ndim != 2:
            a = a.reshape(0, c.size)
        b = np.atleast_1d(np.asarray(self.b_ub, dtype=float)) if np.size(self.b_ub) else np.zeros(0)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_ub", a)
        object.__setattr__(self, "b_ub", b)
        if a.ndim != 2 or a.shape != (b.size, c.size):
            raise ValueError("a_ub must be (len(b_ub), len(c))")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("LP data must be finite")

    @property
    def num_vars(self) -> int:
        return self.c.size

    @property
    def num_rows(self) -> int:
        return self.b_ub.size


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    iterations: int = 0
    # For infeasible problems: y >= 0 with A^T y >= 0 and b^T y < 0.
    infeasibility_certificate: np.ndarray | None = None
    # For optimal simplex solves: the basic columns in sorted order, indexed
    # as the ``basis`` hint of ``solve``.
    basis: np.ndarray | None = None


@dataclass
class LpVerification:
    """Normalized residual report for an optimal solution."""

    max_primal_residual: float
    max_dual_residual: float
    duality_gap: float
    max_complementarity: float

    @property
    def worst(self) -> float:
        return max(
            self.max_primal_residual,
            self.max_dual_residual,
            self.duality_gap,
            self.max_complementarity,
        )


def _simplex(a, rhs, cost, basis, b_inv):
    """Minimize ``cost`` over a z = rhs, z >= 0, from a feasible ``basis`` with
    inverse ``b_inv``.

    Bland's rule: the entering variable is the smallest-index column with
    a negative reduced cost; ratio-test ties break on the smallest basic
    variable index. Returns (status, basis, b_inv, pivots).
    """
    max_pivots = 10_000 + 50 * sum(a.shape)
    enter_tol = FEAS_TOL * (1.0 + np.abs(cost))
    in_basis = np.zeros(a.shape[1], dtype=bool)
    in_basis[basis] = True
    pivots = 0
    since_refresh = 0
    while True:
        y = b_inv.T @ cost[basis]
        reduced = cost - a.T @ y
        eligible = np.flatnonzero(~in_basis & (reduced < -enter_tol))
        if eligible.size == 0:
            return "optimal", basis, b_inv, pivots
        j = int(eligible[0])

        d = b_inv @ a[:, j]
        xb = b_inv @ rhs
        rows = np.flatnonzero(d > PIVOT_TOL)
        if rows.size == 0:
            return "unbounded", basis, b_inv, pivots
        ratios = np.maximum(xb[rows], 0.0) / d[rows]
        theta = ratios.min()
        ties = rows[ratios == theta]
        leave = int(ties[np.argmin(basis[ties])])

        in_basis[basis[leave]] = False
        in_basis[j] = True
        basis[leave] = j
        piv_row = b_inv[leave] / d[leave]
        b_inv = b_inv - np.outer(d, piv_row)
        b_inv[leave] = piv_row

        pivots += 1
        since_refresh += 1
        if since_refresh >= _REFRESH_EVERY:
            b_inv = np.linalg.inv(a[:, basis])
            since_refresh = 0
        if pivots > max_pivots:
            raise RuntimeError("simplex pivot limit exceeded (numerical cycling?)")


def solve(lp: LinearProgram, basis=None) -> LpSolution:
    """Solve the LP, returning the primal vertex, exact basis duals and status.

    Infeasible problems carry a Farkas-style certificate: a row combination
    y >= 0 with A^T y >= 0 and b^T y < 0. Unbounded problems report the
    status only.

    ``basis`` is an optional hint: m column indices into the structural
    columns (0..n-1) and the row slacks (n..n+m-1). When that basis matrix is
    nonsingular and its vertex is primal feasible (no tolerance), phase 1 is
    skipped and phase 2 starts there; otherwise the hint is ignored and the
    solve runs cold. A hint outside that index range raises ValueError.
    """
    m, n = lp.num_rows, lp.num_vars
    if n == 0:
        # x = [] is the only point: feasible iff no row reads 0 <= b with b < 0.
        bad = np.flatnonzero(lp.b_ub < 0.0)
        if bad.size:
            cert = np.zeros(m)
            cert[bad[0]] = 1.0
            return LpSolution(status=LpStatus.INFEASIBLE, infeasibility_certificate=cert)
        return LpSolution(status=LpStatus.OPTIMAL, x=np.zeros(0), objective=0.0, duals=np.zeros(m))

    # Row equilibration by the largest |entry|; all-zero rows keep scale 1.
    scale = np.abs(lp.a_ub).max(axis=1, initial=0.0) if m else np.zeros(0)
    scale = np.where(scale == 0.0, 1.0, scale)
    a_s = lp.a_ub / scale[:, None]
    b_s = lp.b_ub / scale

    sign = np.where(b_s < 0.0, -1.0, 1.0)
    a_w = a_s * sign[:, None]
    b_w = b_s * sign
    art_rows = np.flatnonzero(sign < 0.0)
    n_art = art_rows.size

    # Columns: n structural, m slacks (diagonal = sign), artificials last.
    a_std = np.zeros((m, n + m + n_art))
    a_std[:, :n] = a_w
    a_std[np.arange(m), n + np.arange(m)] = sign
    a_std[art_rows, n + m + np.arange(n_art)] = 1.0
    a2 = a_std[:, : n + m]
    total_iters = 0

    warm = None if basis is None else _feasible_basis(a2, b_w, basis)
    if warm is not None:
        basis, b_inv = warm
    else:
        basis = n + np.arange(m)
        basis[art_rows] = n + m + np.arange(n_art)
        b_inv = np.eye(m)

    # Phase 1: drive artificials to zero.
    if warm is None and n_art:
        cost1 = np.zeros(n + m + n_art)
        cost1[n + m :] = 1.0
        status, basis, b_inv, pivots = _simplex(a_std, b_w, cost1, basis, b_inv)
        total_iters += pivots
        if status != "optimal":
            raise RuntimeError("phase-1 simplex cannot be unbounded")
        xb = b_inv @ b_w
        infeas = float(cost1[basis] @ xb)
        if infeas > FEAS_TOL * (1.0 + float(np.abs(b_w).max(initial=0.0))):
            y1 = b_inv.T @ cost1[basis]
            cert = np.maximum(-(sign * y1) / scale, 0.0)
            return LpSolution(
                status=LpStatus.INFEASIBLE,
                iterations=total_iters,
                infeasibility_certificate=cert,
            )
        basis, b_inv = _purge_artificials(a_std, basis, b_inv, n + m)

    # Phase 2 on structural + slack columns only.
    cost2 = np.concatenate([lp.c, np.zeros(m)])
    status, basis, b_inv, pivots = _simplex(a2, b_w, cost2, basis, b_inv)
    total_iters += pivots
    if status == "unbounded":
        return LpSolution(status=LpStatus.UNBOUNDED, iterations=total_iters)

    # Fresh factorization of the basis in canonical (sorted) order plus
    # iterative refinement: binding-row residuals at the reported vertex must
    # sit at machine level, not at cond(B) * eps.
    basis = np.sort(basis)
    b_mat = a2[:, basis]
    xb = _refined_solve(b_mat, b_w)
    y_eq = _refined_solve(b_mat.T, cost2[basis])
    x_full = np.zeros(n + m)
    x_full[basis] = np.maximum(xb, 0.0)
    x = x_full[:n]
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective=float(lp.c @ x),
        duals=-(sign * y_eq) / scale,
        iterations=total_iters,
        basis=basis,
    )


def _feasible_basis(a2, b_w, basis):
    """(basis, inverse) of a primal-feasible hint over the structural and slack
    columns ``a2``, or None when the hint is singular or infeasible."""
    basis = np.array(basis, dtype=int)
    if basis.shape != (a2.shape[0],) or np.any((basis < 0) | (basis >= a2.shape[1])):
        raise ValueError(f"basis must hold {a2.shape[0]} column indices below {a2.shape[1]}")
    try:
        b_inv = np.linalg.inv(a2[:, basis])
    except np.linalg.LinAlgError:
        return None
    if not np.all(b_inv @ b_w >= 0.0):
        return None
    return basis, b_inv


def _refined_solve(mat, rhs):
    if rhs.size == 0:
        return np.zeros(0)
    x = np.linalg.solve(mat, rhs)
    for _ in range(2):
        x = x + np.linalg.solve(mat, rhs - mat @ x)
    return x


def _purge_artificials(a_std, basis, b_inv, n_real):
    """Pivot zero-valued artificial variables out of the phase-1 basis.

    An exchange always exists: the artificial of row r has column e_r, so
    b_inv[pos, r] is 1 up to rounding at its basis position, and row r's
    slack (column +-e_r) cannot be basic beside it, which makes the slack a
    candidate. Every row has a slack, so no row is ever redundant.
    """
    for pos in np.flatnonzero(basis >= n_real):
        vals = b_inv[pos] @ a_std[:, :n_real]
        in_basis = np.zeros(n_real, dtype=bool)
        in_basis[basis[basis < n_real]] = True
        j = int(np.flatnonzero(~in_basis & (np.abs(vals) > PIVOT_TOL))[0])
        d = b_inv @ a_std[:, j]
        piv_row = b_inv[pos] / d[pos]
        b_inv = b_inv - np.outer(d, piv_row)
        b_inv[pos] = piv_row
        basis[pos] = j
    return basis, b_inv


def verify(lp: LinearProgram, sol: LpSolution) -> LpVerification:
    """Normalized optimality residuals for an Optimal solution.

    Primal violations are scaled by (1 + max|b|), dual violations by
    (1 + max|c|), the duality gap |c^T x + b^T y| and the complementary
    slackness max_j |y_j (b_j - (A x)_j)| by (1 + |c^T x|).
    """
    if sol.status != LpStatus.OPTIMAL:
        raise ValueError("verify requires an Optimal solution")
    x, y = sol.x, sol.duals
    ax = lp.a_ub @ x
    obj = float(lp.c @ x)
    p_scale = 1.0 + float(np.abs(lp.b_ub).max(initial=0.0))
    d_scale = 1.0 + float(np.abs(lp.c).max(initial=0.0))
    o_scale = 1.0 + abs(obj)

    primal = max(
        float(np.maximum(ax - lp.b_ub, 0.0).max(initial=0.0)),
        float(np.maximum(-x, 0.0).max(initial=0.0)),
    )
    dual = max(
        float(np.maximum(-y, 0.0).max(initial=0.0)),
        float(np.maximum(-(lp.c + lp.a_ub.T @ y), 0.0).max(initial=0.0)),
    )
    gap = abs(obj + float(lp.b_ub @ y))
    compl = float(np.abs(y * (lp.b_ub - ax)).max(initial=0.0))
    return LpVerification(
        max_primal_residual=primal / p_scale,
        max_dual_residual=dual / d_scale,
        duality_gap=gap / o_scale,
        max_complementarity=compl / o_scale,
    )


def format_lp(lp: LinearProgram) -> str:
    """Plain-text normalized dump: cost row first, then inequality rows."""
    lines = ["min " + " ".join(repr(float(v)) for v in lp.c)]
    for row, rhs in zip(lp.a_ub, lp.b_ub):
        lines.append(" ".join(repr(float(v)) for v in row) + " <= " + repr(float(rhs)))
    return "\n".join(lines) + "\n"
