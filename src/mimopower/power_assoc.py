"""Total transmit power minimization and the induced BS-user association.

The QoS-constrained power minimization is a linear program in the stacked
power variables. Variables are laid out user-major: index t*L + i holds the
power BS i spends on user t, matching the per-user power vectors. Row k of
the LP encodes user k's SINR constraint,

    sum_t c_k^T rho_t - b_k^T rho_k + noise_dl <= 0,
    c_k[i] = beta[i,k],   b_k[i] = M * gamma[i,k] / xi_hat[k],

and the last L rows cap each BS at its peak power. The optimal duals
(lambda per QoS row, mu per power row) yield the association rule: user t
is served only by BSs attaining min_i (1 + sum_k lambda_k beta[i,k] + mu_i)
/ b_t[i], where the minimum equals lambda_t.

An (L, K) bool mask restricts the association: ``build_lp(..., allowed)``
deletes the columns of the disallowed (BS, user) pairs, which fixes those
powers at zero and keeps the remaining columns in user-major order. The
max-SNR baseline is the mask with one True per user, at its strongest BS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelStats, NetworkScenario
from .lp import LinearProgram, LpSolution, LpStatus
from .lp import solve as lp_solve
from .se import PowerAllocation, QosTargets

# rho[i, t] > SERVING_THRESHOLD_SCALE * pmax[i] counts BS i as serving user t;
# nonbasic simplex variables are exact zeros, the margin only guards dust.
SERVING_THRESHOLD_SCALE = 1e-6
# Relative tolerance of association_rule_check's dual-ratio comparisons.
ASSOCIATION_RULE_TOL = 1e-6


def _b_mat(stats: ChannelStats, targets: QosTargets, scenario: NetworkScenario) -> np.ndarray:
    """(K, L) matrix whose row k is b_k; zero rows where xi_hat == 0."""
    if np.any(targets.xi_hat < 0.0):
        raise ValueError("SINR thresholds must be nonnegative")
    m_gamma = scenario.num_antennas * stats.gamma.T  # (K, L)
    with np.errstate(divide="ignore"):
        return np.where(targets.xi_hat[:, None] > 0.0, m_gamma / targets.xi_hat[:, None], 0.0)


def build_lp(
    stats: ChannelStats,
    targets: QosTargets,
    scenario: NetworkScenario,
    allowed: np.ndarray | None = None,
) -> LinearProgram:
    """The K + L row LP over the user-major power variables.

    Users with a zero SINR threshold get an all-zero (vacuous) QoS row so the
    row layout stays fixed. ``allowed`` is an optional (L, K) bool mask:
    the columns of disallowed (BS, user) pairs are deleted, and the rest keep
    their user-major order.
    """
    L, K = stats.beta.shape
    active = targets.xi_hat > 0.0
    # qos[k, t, i] = beta[i, k] - [t == k] * b_k[i], the coefficient of rho[i, t] in row k
    qos = np.broadcast_to(stats.beta.T[:, None, :], (K, K, L)).copy()
    qos[np.arange(K), np.arange(K)] -= _b_mat(stats, targets, scenario)
    qos[~active] = 0.0  # vacuous constraint: 0 <= 0
    a = np.vstack([qos.reshape(K, K * L), np.tile(np.eye(L), K)])
    b = np.concatenate([np.where(active, -scenario.noise_dl, 0.0), scenario.pmax])
    if allowed is not None:
        a = a[:, np.asarray(allowed, dtype=bool).T.ravel()]
    return LinearProgram(c=np.ones(a.shape[1]), a_ub=a, b_ub=b)


@dataclass(frozen=True)
class AssociationMap:
    """Serving BS sets per user, derived by thresholding the allocation."""

    serving_sets: tuple
    joint_flags: np.ndarray

    @classmethod
    def from_allocation(cls, alloc: PowerAllocation, pmax: np.ndarray) -> "AssociationMap":
        thr = SERVING_THRESHOLD_SCALE * np.asarray(pmax, dtype=float)
        sets = tuple(
            tuple(np.flatnonzero(alloc.rho[:, t] > thr).tolist())
            for t in range(alloc.rho.shape[1])
        )
        return cls(serving_sets=sets, joint_flags=np.array([len(s) >= 2 for s in sets]))

    @property
    def joint_fraction(self) -> float:
        return float(self.joint_flags.mean())


@dataclass
class PowerMinResult:
    """Outcome of one power-minimization solve; infeasibility is a status, not an error."""

    status: LpStatus
    allocation: PowerAllocation | None = None
    association: AssociationMap | None = None
    qos_duals: np.ndarray | None = None  # lambda, one per user
    power_duals: np.ndarray | None = None  # mu, one per BS
    objective: float | None = None
    lp_solution: LpSolution | None = None

    @property
    def feasible(self) -> bool:
        return self.status == LpStatus.OPTIMAL

    def to_json_dict(self) -> dict:
        out = {"status": self.status.value}
        if self.feasible:
            out.update(
                {
                    "objective_w": self.objective,
                    "rho": self.allocation.rho.tolist(),
                    "lambda": self.qos_duals.tolist(),
                    "mu": self.power_duals.tolist(),
                    "serving_sets": [list(s) for s in self.association.serving_sets],
                }
            )
        return out


def _result_from_lp(sol: LpSolution, rho: np.ndarray, scenario: NetworkScenario) -> PowerMinResult:
    K = scenario.num_users
    alloc = PowerAllocation(rho)
    return PowerMinResult(
        status=sol.status,
        allocation=alloc,
        association=AssociationMap.from_allocation(alloc, scenario.pmax),
        qos_duals=sol.duals[:K].copy(),
        power_duals=sol.duals[K:].copy(),
        objective=sol.objective,
        lp_solution=sol,
    )


def solve_power_min(
    stats: ChannelStats, targets: QosTargets, scenario: NetworkScenario
) -> PowerMinResult:
    """Jointly optimal power allocation and association for fixed SE targets."""
    sol = lp_solve(build_lp(stats, targets, scenario))
    if sol.status != LpStatus.OPTIMAL:
        return PowerMinResult(status=sol.status, lp_solution=sol)
    rho = sol.x.reshape(scenario.num_users, scenario.num_bs).T
    return _result_from_lp(sol, rho, scenario)


def max_snr_assignment(beta: np.ndarray) -> np.ndarray:
    """Strongest-average-signal BS per user; ties resolve to the lowest index."""
    return np.argmax(beta, axis=0)


def solve_max_snr(
    stats: ChannelStats, targets: QosTargets, scenario: NetworkScenario
) -> PowerMinResult:
    """Baseline: each user may only buy power from its strongest BS.

    Same cost and rows as the optimal problem with all other variables fixed
    at zero, so its feasible set is a subset of the optimal one.
    """
    L, K = stats.beta.shape
    allowed = np.zeros((L, K), dtype=bool)
    allowed[max_snr_assignment(stats.beta), np.arange(K)] = True
    sol = lp_solve(build_lp(stats, targets, scenario, allowed))
    if sol.status != LpStatus.OPTIMAL:
        return PowerMinResult(status=sol.status, lp_solution=sol)
    rho = np.zeros((L, K))
    rho.T[allowed.T] = sol.x
    return _result_from_lp(sol, rho, scenario)


@dataclass
class AssociationCheck:
    """Dual-based association consistency report.

    ``violations`` lists (user, bs, relative gap) for serving BSs that miss
    the minimum of the dual ratio, plus (user, -1, gap) entries when the
    minimum disagrees with lambda_user.
    """

    passed: bool
    max_rel_gap: float
    violations: list = field(default_factory=list)


def association_rule_check(
    stats: ChannelStats,
    targets: QosTargets,
    scenario: NetworkScenario,
    alloc: PowerAllocation,
    qos_duals: np.ndarray,
    power_duals: np.ndarray,
) -> AssociationCheck:
    """Check each served user against the dual association rule.

    For user t, every BS with positive power must attain (within relative
    ASSOCIATION_RULE_TOL) the minimum over i of
    (1 + sum_k lambda_k beta[i,k] + mu_i) / b_t[i], and that minimum must
    equal lambda_t. Users with a zero SINR threshold pass vacuously.
    """
    b_mat = _b_mat(stats, targets, scenario)
    K = stats.beta.shape[1]
    lam = np.asarray(qos_duals, dtype=float)
    mu = np.asarray(power_duals, dtype=float)
    price = 1.0 + stats.beta @ lam + mu  # per BS: 1 + sum_k lambda_k beta[i,k] + mu_i
    thr = SERVING_THRESHOLD_SCALE * scenario.pmax
    violations = []
    max_gap = 0.0
    for t in range(K):
        if targets.xi_hat[t] <= 0.0:
            continue
        ratio = price / b_mat[t]
        rmin = float(ratio.min())
        for i in np.flatnonzero(alloc.rho[:, t] > thr):
            gap = (ratio[i] - rmin) / rmin
            max_gap = max(max_gap, gap)
            if gap > ASSOCIATION_RULE_TOL:
                violations.append((t, int(i), gap))
        lam_gap = abs(rmin - lam[t]) / max(lam[t], rmin)
        max_gap = max(max_gap, lam_gap)
        if lam_gap > ASSOCIATION_RULE_TOL:
            violations.append((t, -1, lam_gap))
    return AssociationCheck(passed=not violations, max_rel_gap=max_gap, violations=violations)
