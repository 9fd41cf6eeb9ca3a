"""Dense revised simplex (dual, then primal) for small minimization LPs.

Problem form:  min c^T x  s.t.  A x <= b,  x >= 0.

Duals follow the Lagrangian sign convention: y >= 0 multiplies (A x - b),
so at an optimum the reduced costs satisfy c + A^T y >= 0 and strong
duality reads c^T x + b^T y = 0. A solve starts from a basis hint or the
all-slack basis and raises each cost to its price there, which makes the
start dual feasible (the costs are max(c, 0) at the all-slack basis). A
dual simplex from it reaches a primal-feasible basis or a Farkas
certificate with no phase 1; Bland's primal simplex then optimizes the true
costs. Dual degeneracy can make the dual simplex cycle; its ``max_pivots``
guard turns that into a RuntimeError. Every rule breaks its last ties by
index, so the same LP with the same basis hint gives bit-identical outputs.
The reported x and duals come from a fresh factorization of the optimal
basis read in sorted column order, so they depend on the optimal basis set
and not on the pivot path that reached it; a hint that leads to the same
optimal basis gives the same bits as a cold solve. Rows are equilibrated by
their largest absolute entry before solving; duals are in the original scaling.
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
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
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
    """Minimize ``cost`` over a z = rhs, z >= 0, from a primal-feasible
    ``basis`` with inverse ``b_inv``.

    Bland's rule: the entering variable is the smallest-index column with
    a negative reduced cost; ratio-test ties break on the smallest basic
    variable index. Returns (status, basis, b_inv, pivots).
    """
    max_pivots = 10_000 + 50 * sum(a.shape)
    enter_tol = FEAS_TOL * (1.0 + np.abs(cost))
    in_basis = np.zeros(a.shape[1], dtype=bool)
    in_basis[basis] = True
    pivots = 0
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

        pivots += 1
        b_inv = _pivot(a, basis, b_inv, in_basis, leave, j, d, pivots)
        if pivots > max_pivots:
            raise RuntimeError("simplex pivot limit exceeded (numerical cycling?)")


def _pivot(a, basis, b_inv, in_basis, leave, j, d, pivots):
    """Put column j (``d`` = b_inv @ a[:, j]) in place of basis[leave] and
    return the new inverse, refactored from scratch every _REFRESH_EVERY
    pivots."""
    in_basis[basis[leave]] = False
    in_basis[j] = True
    basis[leave] = j
    if pivots % _REFRESH_EVERY == 0:
        try:
            return np.linalg.inv(a[:, basis])
        except np.linalg.LinAlgError as e:
            raise RuntimeError(f"singular basis at the refactor after pivot {pivots}") from e
    piv_row = b_inv[leave] / d[leave]
    b_inv = b_inv - np.outer(d, piv_row)
    b_inv[leave] = piv_row
    return b_inv


def _dual_simplex(a, rhs, cost, basis, b_inv):
    """Drive a dual-feasible ``basis`` (inverse ``b_inv``) of a z = rhs, z >= 0
    to a primal-feasible one, keeping it dual feasible for ``cost``.

    The leaving row has the most negative basic value, if that is below
    -FEAS_TOL * (1 + max|rhs|); the entering column wins the dual ratio
    test, ties going to the largest |alpha| (a small pivot lets the inverse
    drift), then to the lowest column index. Returns
    (basis, b_inv, pivots, row): ``row`` is None at a primal-feasible basis,
    else the position whose row of ``b_inv`` proves a z = rhs, z >= 0 empty.
    """
    max_pivots = 10_000 + 50 * sum(a.shape)
    leave_tol = FEAS_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
    in_basis = np.zeros(a.shape[1], dtype=bool)
    in_basis[basis] = True
    pivots = 0
    while True:
        xb = b_inv @ rhs
        if xb.size == 0 or xb.min() >= -leave_tol:
            return basis, b_inv, pivots, None
        leave = int(np.argmin(xb))
        alpha = b_inv[leave] @ a
        eligible = np.flatnonzero(~in_basis & (alpha < -PIVOT_TOL))
        if eligible.size == 0:
            return basis, b_inv, pivots, leave
        y = b_inv.T @ cost[basis]
        reduced = np.maximum(cost[eligible] - a[:, eligible].T @ y, 0.0)
        ratios = reduced / -alpha[eligible]
        ties = eligible[ratios == ratios.min()]
        j = int(ties[np.argmin(alpha[ties])])

        pivots += 1
        b_inv = _pivot(a, basis, b_inv, in_basis, leave, j, b_inv @ a[:, j], pivots)
        if pivots > max_pivots:
            raise RuntimeError("dual simplex pivot limit exceeded (numerical cycling?)")


def solve(lp: LinearProgram, basis=None) -> LpSolution:
    """Solve the LP, returning the primal vertex, exact basis duals and status.

    Infeasible problems carry a Farkas-style certificate: a row combination
    y >= 0 with A^T y >= 0 and b^T y < 0. Unbounded problems report the
    status only.

    ``basis`` is an optional hint: m column indices into the structural
    columns (0..n-1) and the row slacks (n..n+m-1). The simplex starts from
    the hint unless it is singular or inverts inaccurately, else from the
    all-slack basis. A hint outside that index range raises ValueError. A
    basis that turns singular mid-solve raises RuntimeError.
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
    b_s = lp.b_ub / scale

    # Columns: n structural, then m row slacks.
    a2 = np.hstack([lp.a_ub / scale[:, None], np.eye(m)])
    cost = np.concatenate([lp.c, np.zeros(m)])
    start = None if basis is None else _invert_hint(a2, basis)
    basis, b_inv = start or (n + np.arange(m), np.eye(m))
    # Costs raised to their prices at the start basis make it dual feasible.
    dual_cost = np.maximum(cost, a2.T @ (b_inv.T @ cost[basis]))
    dual_cost[basis] = cost[basis]
    basis, b_inv, total_iters, row = _dual_simplex(a2, b_s, dual_cost, basis, b_inv)
    if row is not None:
        return LpSolution(
            status=LpStatus.INFEASIBLE,
            iterations=total_iters,
            infeasibility_certificate=np.maximum(b_inv[row], 0.0) / scale,
        )

    # Bland's primal simplex with the true costs from a primal-feasible basis.
    status, basis, b_inv, pivots = _simplex(a2, b_s, cost, basis, b_inv)
    total_iters += pivots
    if status == "unbounded":
        return LpSolution(status=LpStatus.UNBOUNDED, iterations=total_iters)

    # Fresh factorization of the basis in canonical (sorted) order plus
    # iterative refinement: binding-row residuals at the reported vertex must
    # sit at machine level, not at cond(B) * eps.
    basis = np.sort(basis)
    b_mat = a2[:, basis]
    xb = _refined_solve(b_mat, b_s)
    y_eq = _refined_solve(b_mat.T, cost[basis])
    x_full = np.zeros(n + m)
    x_full[basis] = np.maximum(xb, 0.0)
    x = x_full[:n]
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective=float(lp.c @ x),
        duals=-y_eq / scale,
        iterations=total_iters,
        basis=basis,
    )


def _invert_hint(a2, basis):
    """(basis, inverse) of a hint over the structural and slack columns
    ``a2``, or None when the hint is singular or its inverse is inaccurate,
    ||B^-1 B - I||_inf > FEAS_TOL."""
    basis = np.array(basis, dtype=int)
    if basis.shape != (a2.shape[0],) or ((basis < 0) | (basis >= a2.shape[1])).any():
        raise ValueError(f"basis must hold {a2.shape[0]} column indices below {a2.shape[1]}")
    b_mat = a2[:, basis]
    try:
        b_inv = np.linalg.inv(b_mat)
    except np.linalg.LinAlgError:
        return None
    # the inf-norm: the largest absolute row sum
    accurate = np.abs(b_inv @ b_mat - np.eye(basis.size)).sum(axis=1).max(initial=0.0) <= FEAS_TOL
    return (basis, b_inv) if accurate else None


def _refined_solve(mat, rhs):
    if rhs.size == 0:
        return np.zeros(0)
    try:
        x = np.linalg.solve(mat, rhs)
        for _ in range(2):
            x = x + np.linalg.solve(mat, rhs - mat @ x)
    except np.linalg.LinAlgError as e:
        raise RuntimeError("singular optimal basis in the final refined solve") from e
    return x


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
