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

Association is an (L, K) bool mask ``allowed`` of the (BS, user) pairs that
may carry power; the LP has no columns for the others. No mask is the joint
optimum, and the max-SNR baseline is the one-hot ``max_snr_mask``. The rule
holds for any mask, with the minimum taken over the BSs it allows. A solve
reports the association it found as a second (L, K) mask, ``serving``: the
pairs whose power exceeds SERVING_THRESHOLD_SCALE times the BS's cap.

Only the own-power entries beta - b_k and the right-hand side depend on the
targets and the antenna count. A ``PowerMinTemplate`` holds the rest of the
LP for one drop and mask and writes those per solve; ``build_lp`` and
``solve_power_min`` use a fresh one, a max-min bisection one per bracket.

``solve_power_min`` starts the simplex from a given basis, or else from
max-SNR association within the mask; at that basis its duals are the rule's
lambda with mu = 0, so the primal simplex's pivots are the moves to the
optimal association. From a guess that exceeds a cap, the dual simplex first
pivots back inside the caps. A guess never decides anything: only the simplex
proves optimality or infeasibility (the dual simplex's Farkas certificate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelStats, NetworkScenario
from .lp import LinearProgram, LpStatus
from .lp import solve as lp_solve
from .se import PowerAllocation, QosTargets

# rho[i, t] > SERVING_THRESHOLD_SCALE * pmax[i] counts BS i as serving user t;
# nonbasic simplex variables are exact zeros, the margin only guards dust.
SERVING_THRESHOLD_SCALE = 1e-6
# Relative tolerance of association_rule_check's dual-ratio comparisons.
ASSOCIATION_RULE_TOL = 1e-6


def _b_mat(stats: ChannelStats, targets: QosTargets, scenario: NetworkScenario) -> np.ndarray:
    """(K, L) matrix whose row k is b_k; zero rows where xi_hat == 0."""
    if (targets.xi_hat < 0.0).any():
        raise ValueError("SINR thresholds must be nonnegative")
    m_gamma = scenario.num_antennas * stats.gamma.T  # (K, L)
    xi_hat = targets.xi_hat[:, None]
    return np.divide(m_gamma, xi_hat, out=np.zeros_like(m_gamma), where=xi_hat > 0.0)


class PowerMinTemplate:
    """The power-min LP of one drop (``stats``) and one (L, K) mask
    ``allowed``, less the parts the targets and the scenario set.

    Those are the K own-power entries beta[i, k] - b_k[i] of the QoS rows,
    which hold beta[i, k] here, and the right-hand side. ``lp`` writes them
    into a copy, so the template serves any targets and antenna count.
    Users with a zero SINR threshold get an all-zero (vacuous) QoS row so
    the row layout stays fixed. The columns of disallowed (BS, user) pairs
    are deleted and the rest keep their user-major order; None allows every
    pair, and a mask of any other shape raises ValueError.
    """

    def __init__(self, stats: ChannelStats, allowed=None):
        L, K = stats.beta.shape
        if allowed is None:
            allowed = np.ones((L, K), dtype=bool)
        elif np.shape(allowed) != (L, K):
            raise ValueError(f"allowed must be an (L, K) = {(L, K)} mask, got {np.shape(allowed)}")
        self.stats = stats
        self.mask = np.array(allowed, dtype=bool)
        # a[r, t, i] is the coefficient of rho[i, t] in row r: beta[i, r] in
        # QoS row r < K, and 1 in cap row K + i
        a = np.empty((K + L, K, L))
        a[:K] = stats.beta.T[:, None, :]
        a[K:] = np.eye(L)[:, None, :]
        self.a = a.reshape(K + L, K * L)[:, self.mask.T.ravel()]
        # the masked columns are mask.T's True entries: column j is rho[bss[j], users[j]]
        users, bss = np.nonzero(self.mask.T)
        self._own = (users, np.arange(users.size))  # its own-power entry in a
        self._b_index = (users, bss)  # and in _b_mat
        self.c = np.ones(users.size)

    def lp(self, targets: QosTargets, scenario: NetworkScenario) -> LinearProgram:
        """The K + L row LP over the masked user-major power variables."""
        K = self.stats.beta.shape[1]
        active = targets.xi_hat > 0.0
        a = self.a.copy()
        a[self._own] -= _b_mat(self.stats, targets, scenario)[self._b_index]
        a[:K][~active] = 0.0  # vacuous constraint: 0 <= 0
        b = np.concatenate([np.where(active, -scenario.noise_dl, 0.0), scenario.pmax])
        return LinearProgram(c=self.c, a_ub=a, b_ub=b)

    def solve(self, targets: QosTargets, scenario: NetworkScenario, basis=None) -> PowerMinResult:
        """``solve_power_min`` of this drop and mask."""
        lp = self.lp(targets, scenario)
        if basis is None:
            basis = _max_snr_basis(self.stats, targets, self.mask)
        sol = lp_solve(lp, basis=basis)
        if sol.status != LpStatus.OPTIMAL:
            return PowerMinResult(status=sol.status, allowed=self.mask)
        rho = np.zeros(self.mask.shape)
        rho.T[self.mask.T] = sol.x
        K = scenario.num_users
        return PowerMinResult(
            status=sol.status,
            allowed=self.mask,
            allocation=PowerAllocation(rho),
            serving=rho > SERVING_THRESHOLD_SCALE * scenario.pmax[:, None],
            qos_duals=sol.duals[:K].copy(),
            power_duals=sol.duals[K:].copy(),
            objective=sol.objective,
            basis=sol.basis,
        )


def build_lp(
    stats: ChannelStats,
    targets: QosTargets,
    scenario: NetworkScenario,
    allowed: np.ndarray | None = None,
) -> LinearProgram:
    """The K + L row LP over the user-major power variables of the (BS,
    user) pairs the (L, K) mask ``allowed`` grants, every pair for None (see
    ``PowerMinTemplate``)."""
    return PowerMinTemplate(stats, allowed).lp(targets, scenario)


@dataclass
class PowerMinResult:
    """Outcome of one power-minimization solve; infeasibility is a status, not an error."""

    status: LpStatus
    allowed: np.ndarray  # the (L, K) bool mask the solve was restricted to
    allocation: PowerAllocation | None = None
    serving: np.ndarray | None = None  # (L, K) bool: BS i serves user t
    qos_duals: np.ndarray | None = None  # lambda, one per user
    power_duals: np.ndarray | None = None  # mu, one per BS
    objective: float | None = None
    basis: np.ndarray | None = None  # the LP's optimal basis, sorted (see lp.solve)

    @property
    def feasible(self) -> bool:
        return self.status == LpStatus.OPTIMAL

    @property
    def joint_fraction(self) -> float:
        """Share of users served by two or more BSs."""
        return float((self.serving.sum(axis=0) >= 2).mean())

    def to_json_dict(self) -> dict:
        out = {"status": self.status.value}
        if self.feasible:
            out.update(
                {
                    "objective_w": self.objective,
                    "rho": self.allocation.rho.tolist(),
                    "lambda": self.qos_duals.tolist(),
                    "mu": self.power_duals.tolist(),
                    "serving_sets": [np.flatnonzero(col).tolist() for col in self.serving.T],
                }
            )
        return out


def solve_power_min(
    stats: ChannelStats,
    targets: QosTargets,
    scenario: NetworkScenario,
    allowed=None,
    basis=None,
) -> PowerMinResult:
    """Minimum-power allocation and association for fixed SE targets, each
    user drawing power only from the BSs the (L, K) mask ``allowed`` grants
    it; None allows every BS, the jointly optimal association.

    ``basis`` is the simplex's start hint (see ``lp.solve``), such as the
    ``basis`` of an earlier result under the same mask; None starts from
    max-SNR association."""
    return PowerMinTemplate(stats, allowed).solve(targets, scenario, basis)


def _max_snr_basis(stats: ChannelStats, targets: QosTargets, mask: np.ndarray):
    """Basis guess: each user's strongest (largest beta) allowed column plus
    every cap row's slack, or None when a user has a zero target or no allowed BS."""
    if not ((targets.xi_hat > 0.0).all() and mask.any(axis=0).all()):
        return None
    L, K = mask.shape
    serving = max_snr_mask(np.where(mask, stats.beta, 0.0))
    # masked user-major layout: the structural columns are mask.T's True entries
    return np.concatenate([np.flatnonzero(serving.T[mask.T]), mask.sum() + K + np.arange(L)])


def max_snr_mask(beta: np.ndarray) -> np.ndarray:
    """(L, K) mask of each user's strongest-average-signal BS; ties go to the lowest index."""
    return np.arange(beta.shape[0])[:, None] == np.argmax(beta, axis=0)


def solve_max_snr(
    stats: ChannelStats, targets: QosTargets, scenario: NetworkScenario
) -> PowerMinResult:
    """Baseline: each user may only buy power from its strongest BS, so its
    feasible set is a subset of the joint problem's."""
    return solve_power_min(stats, targets, scenario, max_snr_mask(stats.beta))


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
    result: PowerMinResult,
) -> AssociationCheck:
    """Check each served user of a feasible solve against the dual association rule.

    For user t, every BS with positive power must attain (within relative
    ASSOCIATION_RULE_TOL) the minimum of (1 + sum_k lambda_k beta[i,k] + mu_i)
    / b_t[i] over the BSs i that ``result.allowed`` grants t, and that
    minimum must equal lambda_t. Users with a zero SINR threshold pass
    vacuously.
    """
    b_mat = _b_mat(stats, targets, scenario)
    lam = result.qos_duals
    price = 1.0 + stats.beta @ lam + result.power_duals  # per BS
    active = targets.xi_hat > 0.0
    # Inactive users have b_t = 0: their ratios are inf and masked out below.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(result.allowed, price[:, None] / b_mat.T, np.inf)  # (L, K)
        rmin = ratio.min(axis=0)
        gap = (ratio - rmin) / rmin
        lam_gap = np.abs(rmin - lam) / np.maximum(lam, rmin)
    serving = active & result.serving
    max_gap = max(gap.max(where=serving, initial=0.0), lam_gap.max(where=active, initial=0.0))
    bad_bs = serving & (gap > ASSOCIATION_RULE_TOL)
    bad_lam = active & (lam_gap > ASSOCIATION_RULE_TOL)
    violations = []
    for t in np.flatnonzero(bad_bs.any(axis=0) | bad_lam):
        violations += [(int(t), int(i), float(gap[i, t])) for i in np.flatnonzero(bad_bs[:, t])]
        if bad_lam[t]:
            violations.append((int(t), -1, float(lam_gap[t])))
    return AssociationCheck(passed=not violations, max_rel_gap=max_gap, violations=violations)
