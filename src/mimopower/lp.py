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
optimal basis gives the same bits as a cold solve. That vertex is read on
first use: an optimal ``LpSolution`` holds the equilibrated data and its
own copy of the basis, and x, the objective and the duals are
``functools.cached_property``s whose first read stores all three, so a
caller that needs only the status and the basis pays for no readout. One
kernel, ``read_vertices``, does every readout: it reads a stack of
solutions with equal row counts in one stacked refined solve for x and one
for the duals, with the bits each would get alone; a first read is a stack
of one, and a vertex already read is not read again. It also returns each
basic solution before x clips it at zero, which lets a caller test a basis
without the simplex: ``at_basis`` is the solution ``solve`` returns when
the simplex stops at its hint with no pivot, and since the vertex depends
on the basis alone, it has the same bits whenever that claim holds. Rows
are equilibrated by their largest absolute entry before solving; duals are
in the original scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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
    """min c^T x subject to a_ub @ x <= b_ub and x >= 0, over at least one variable."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        a = np.asarray(self.a_ub, dtype=float)
        b = np.atleast_1d(np.asarray(self.b_ub, dtype=float))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_ub", a)
        object.__setattr__(self, "b_ub", b)
        if c.size == 0:
            raise ValueError("an LP needs at least one variable")
        if a.ndim != 2 or a.shape != (b.size, c.size):
            raise ValueError("a_ub must be (len(b_ub), len(c))")
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("LP data must be finite")


def read_vertices(sols):
    """Read x, the objective and the duals of the optimal solves ``sols``
    with equal row counts that have not been read yet, and store them on
    each solution as its first read would; a vertex read once is never
    solved again. Returns the basic values of the solutions read, one row
    each in basis order, before x clips them at zero: a row with a
    negative entry is not a feasible vertex, which is how a caller tests
    a basis that ``at_basis`` claims.

    Each vertex is a fresh factorization of its basis in canonical (sorted)
    order plus iterative refinement, since binding-row residuals at the
    reported vertex must sit at machine level, not at cond(B) * eps. The
    bases are stacked into one (k, m, m) array, so the k vertices take one
    ``_refined_solve`` for x and one for the duals; LAPACK solves each matrix
    of a stack as it solves that matrix alone, so the bits do not depend on
    the stack."""
    sols = [sol for sol in sols if "x" not in sol.__dict__]
    if not sols:
        return []
    a2s, bases, rhs, costs, scales, cs = zip(*(sol._vertex for sol in sols))
    b_mat = np.stack([a2[:, basis] for a2, basis in zip(a2s, bases)])
    xb = _refined_solve(b_mat, np.stack(rhs))
    y_eq = _refined_solve(b_mat.transpose(0, 2, 1), np.stack([cost[basis] for cost, basis in zip(costs, bases)]))
    for sol, a2, basis, xb_k, y_k, scale, c in zip(sols, a2s, bases, xb, y_eq, scales, cs):
        x_full = np.zeros(a2.shape[1])
        x_full[basis] = np.maximum(xb_k, 0.0)
        x = x_full[: c.size]
        sol.__dict__.update(x=x, objective=float(c @ x), duals=-y_k / scale)
    return xb


@dataclass
class LpSolution:
    status: LpStatus
    iterations: int = 0
    # For infeasible problems: y >= 0 with A^T y >= 0 and b^T y < 0.
    infeasibility_certificate: np.ndarray | None = None
    # For optimal simplex solves: the basic columns in sorted order, indexed
    # as the ``basis`` hint of ``solve``.
    basis: np.ndarray | None = None
    # What ``solve`` leaves for the readout of an optimal vertex: the
    # equilibrated columns, its own copy of ``basis``, the equilibrated
    # right-hand side, the costs, the row scales and the LP's c.
    _vertex = None

    # The vertex: the first read of any of x, the objective and the duals
    # stores all three (``read_vertices``); None unless the solve is OPTIMAL.
    @cached_property
    def x(self) -> np.ndarray | None:
        return self._read("x")

    @cached_property
    def objective(self) -> float | None:
        return self._read("objective")

    @cached_property
    def duals(self) -> np.ndarray | None:
        return self._read("duals")

    def _read(self, name):
        if self._vertex is not None:
            read_vertices([self])
        return self.__dict__.get(name)


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
    -FEAS_TOL. A column may enter when its alpha is below -PIVOT_TOL times
    the row's largest |alpha| (at least 1): a pivot at roundoff level of its
    row leaves a numerically singular basis. The entering column wins the
    dual ratio test, ties going to the largest |alpha| (a small pivot lets
    the inverse drift), then to the lowest column index. Returns
    (basis, b_inv, pivots, row): ``row`` is None at a primal-feasible basis,
    else the position whose row of ``b_inv`` proves a z = rhs, z >= 0 empty.
    """
    max_pivots = 10_000 + 50 * sum(a.shape)
    in_basis = np.zeros(a.shape[1], dtype=bool)
    in_basis[basis] = True
    pivots = 0
    while True:
        xb = b_inv @ rhs
        # absolute on the equilibrated rows: scaled by max|rhs|, one large
        # right-hand side would leave rows with tiny ones unmet
        if xb.size == 0 or xb.min() >= -FEAS_TOL:
            return basis, b_inv, pivots, None
        leave = int(np.argmin(xb))
        alpha = b_inv[leave] @ a
        eligible = np.flatnonzero(~in_basis & (alpha < -PIVOT_TOL * max(1.0, np.abs(alpha).max())))
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
    m, n = lp.a_ub.shape
    a2, b_s, cost, scale = _equilibrated(lp)
    start = None if basis is None else _invert_hint(a2, basis)
    basis, b_inv = start or (n + np.arange(m), np.eye(m))
    # Costs raised to their prices at the start basis make it dual feasible.
    dual_cost = np.maximum(cost, a2.T @ (b_inv.T @ cost[basis]))
    dual_cost[basis] = cost[basis]
    basis, b_inv, total_iters, row = _dual_simplex(a2, b_s, dual_cost, basis, b_inv)
    if row is not None:
        # entries at roundoff level of the row's largest are dust, not weights
        cert = np.maximum(b_inv[row], 0.0)
        cert[cert <= 1e-12 * cert.max()] = 0.0
        return LpSolution(
            status=LpStatus.INFEASIBLE,
            iterations=total_iters,
            infeasibility_certificate=cert / scale,
        )

    # Bland's primal simplex with the true costs from a primal-feasible basis.
    status, basis, b_inv, pivots = _simplex(a2, b_s, cost, basis, b_inv)
    total_iters += pivots
    if status == "unbounded":
        return LpSolution(status=LpStatus.UNBOUNDED, iterations=total_iters)

    return _optimal(lp, basis, total_iters, a2, b_s, cost, scale)


def at_basis(lp: LinearProgram, basis) -> LpSolution:
    """The solution ``solve(lp, basis=basis)`` returns when the simplex stops
    at the hint with no pivot: OPTIMAL at the sorted ``basis``, its vertex
    unread. That is a claim, not a solve: it holds when the basic values
    ``read_vertices`` returns for it clear zero and no nonbasic reduced cost
    is negative, each by more than the simplex's tolerance, and the caller
    tests both."""
    return _optimal(lp, basis, 0, *_equilibrated(lp))


def _optimal(lp, basis, iterations, a2, b_s, cost, scale):
    """An OPTIMAL solution at ``basis`` whose vertex is read on first use,
    or with others (``read_vertices``), from ``lp``'s equilibrated data."""
    basis = np.sort(basis)
    sol = LpSolution(status=LpStatus.OPTIMAL, iterations=iterations, basis=basis)
    sol._vertex = (a2, basis.copy(), b_s, cost, scale, lp.c)
    return sol


def _equilibrated(lp):
    """(a2, b_s, cost, scale): the rows of ``lp`` divided by their largest
    |entry| (an all-zero row keeps scale 1), with the n structural columns
    then the m row slacks in a2, and the costs of both in cost."""
    m, n = lp.a_ub.shape
    scale = np.abs(lp.a_ub).max(axis=1, initial=0.0)
    scale = np.where(scale == 0.0, 1.0, scale)
    a2 = np.zeros((m, n + m))
    np.divide(lp.a_ub, scale[:, None], out=a2[:, :n])
    a2.ravel()[n :: n + m + 1] = 1.0  # the slack identity: a2[i, n + i]
    cost = np.zeros(n + m)
    cost[:n] = lp.c
    return a2, lp.b_ub / scale, cost, scale


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
    resid = b_inv @ b_mat
    resid.ravel()[:: basis.size + 1] -= 1.0  # less the identity
    accurate = np.abs(resid).sum(axis=1).max(initial=0.0) <= FEAS_TOL
    return (basis, b_inv) if accurate else None


def _refined_solve(mat, rhs):
    """Solve each (m, m) matrix of the stack ``mat`` against its row of
    ``rhs`` (k, m), with two steps of iterative refinement."""
    rhs = rhs[..., None]  # (k, m, 1): numpy 2 reads a 2-D b as one matrix
    try:
        x = np.linalg.solve(mat, rhs)
        for _ in range(2):
            x = x + np.linalg.solve(mat, rhs - mat @ x)
    except np.linalg.LinAlgError as e:
        raise RuntimeError("singular optimal basis in the final refined solve") from e
    return x[..., 0]


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
