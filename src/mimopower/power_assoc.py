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

Every SE target is positive (``QosTargets`` rejects any other), so every
user needs power. Association is an (L, K) bool mask ``allowed`` of the
(BS, user) pairs that may carry power; it grants every user at least one
BS, and the LP has no columns for the others. No mask is the joint optimum,
and the max-SNR baseline is the one-hot ``max_snr_mask``. The rule holds
for any mask, with the minimum taken over the BSs it allows. A solve
reports the association it found as a second (L, K) mask, ``serving``: the
pairs whose power exceeds SERVING_THRESHOLD_SCALE times the BS's cap.

The drop fixes beta, gamma, the noise and the caps; a cell adds only the
targets and the antenna count M, through the own-power entries beta - b_k.
A ``DropLp`` holds the rest of the LP of one drop and mask, and
``build_lp`` writes those entries into a copy per solve. ``build_lp`` and
``solve_power_min`` take a ``DropLp``, the targets and M, and are the only
LP builder and the only solve: sweeps, ``drop`` and max-min probes all call
them.

``solve_power_min`` starts the simplex from ``DropLp.basis``. A new
``DropLp`` sets it to max-SNR association within the mask; at that basis
the duals are the rule's lambda with mu = 0, so the primal simplex's pivots
are the moves to the optimal association. From a guess that exceeds a cap,
the dual simplex first pivots back inside the caps. Only max-min probes
move it (see ``maxmin``). ``power_min_at_basis`` claims the result that
the simplex gives when it stops at ``DropLp.basis`` with no pivot, without
running it; a claim decides nothing until its caller tests it. The sweep
tests it at the max-SNR basis: the sign of the basic solution decides a
max-SNR cell, and ``rule_reduced_costs``, the rule multiplied out into the
joint LP's reduced costs at the max-SNR duals, decides whether the joint
optimum is that same basis (see ``harness.solve_drop``). Every other
verdict is the simplex's: an optimum, or infeasibility with the dual
simplex's Farkas certificate.

A ``PowerMinResult`` reads through its ``LpSolution``: the duals, the
objective and the basis are the solution's, and the allocation and the
``serving`` mask are ``functools.cached_property``s of its x, so a solve
whose caller reads only its status and basis (a max-min probe) reads no
vertex; a caller with many results reads their vertices in one stack first
(``lp.read_vertices``). An infeasible simplex result keeps its Farkas
certificate; one decided at the max-SNR basis has none and no solution.

``association_rule_check`` checks all the published solves of a drop as
one stack, with the terms ``rule_reduced_costs`` shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelStats, NetworkScenario
from .lp import LinearProgram, LpSolution, LpStatus, at_basis
from .lp import solve as lp_solve
from .se import PowerAllocation, QosTargets

# rho[i, t] > SERVING_THRESHOLD_SCALE * pmax[i] counts BS i as serving user t;
# nonbasic simplex variables are exact zeros, the margin only guards dust.
SERVING_THRESHOLD_SCALE = 1e-6
# Relative tolerance of association_rule_check's dual-ratio comparisons.
ASSOCIATION_RULE_TOL = 1e-6


def _b_mat(stats: ChannelStats, targets: QosTargets, num_antennas: int) -> np.ndarray:
    """(K, L) matrix whose row k is b_k."""
    return num_antennas * stats.gamma.T / targets.xi_hat[:, None]


class DropLp:
    """The power-min LP of one drop, ``stats`` on ``scenario`` (whose
    antenna count is not read), under one (L, K) mask ``allowed``, with the
    max-min probe outcomes and the basis they carry.

    The K own-power entries beta[i, k] - b_k[i] of the QoS rows hold
    beta[i, k] here, with gamma[i, k] kept as one vector over those columns;
    ``build_lp`` writes them into a copy, so one object serves any targets
    and antenna count. The right-hand side ``b`` (-noise_dl per QoS row,
    then the caps) is read-only. The columns of disallowed (BS, user) pairs
    are deleted and the rest keep their user-major order; None allows every
    pair. A scenario of another (L, K) than ``stats``, a mask of any other
    shape, or one that leaves some user without a BS, raises ValueError.

    ``basis`` is where every solve of this object starts the simplex. It
    starts as max-SNR association within the mask: each user's strongest
    (largest beta) allowed column plus every cap row's slack. A feasible
    max-min probe replaces it with its own optimal basis.

    ``feasible`` and ``infeasible`` are the max-min probe outcomes, a
    feasibility bracket keyed by the s-vectors s = M / xi_hat (see
    ``maxmin``). Only the minimal feasible and the maximal infeasible
    s-vectors are kept; with uniform weights every s has equal entries, so
    each list holds at most one vector. Entries never contradict: a probe
    the stored ones decide is answered, not recorded. A caller that knows
    part of the bracket in advance records it (the sweep records the
    max-SNR one, see ``maxmin.max_snr_scale``).
    """

    def __init__(self, stats: ChannelStats, scenario: NetworkScenario, allowed=None):
        L, K = stats.beta.shape
        if (scenario.num_bs, scenario.num_users) != (L, K):
            raise ValueError(f"the scenario's (L, K) = {(scenario.num_bs, scenario.num_users)} is not the stats' {(L, K)}")
        if allowed is None:
            allowed = np.ones((L, K), dtype=bool)
        elif np.shape(allowed) != (L, K):
            raise ValueError(f"allowed must be an (L, K) = {(L, K)} mask, got {np.shape(allowed)}")
        self.stats, self.scenario = stats, scenario
        self.mask = np.array(allowed, dtype=bool)
        if not self.mask.any(axis=0).all():
            raise ValueError("allowed must grant every user at least one BS")
        # column j is rho[bss[j], users[j]] (mask.T's True entries, user-major):
        # beta[bss[j], r] in QoS row r < K, and 1 in cap row K + bss[j]
        users, bss = np.nonzero(self.mask.T)
        self.a = np.vstack([stats.beta[bss].T, np.eye(L)[:, bss]])
        self._own = (users, np.arange(users.size))  # its own-power entry in a
        self._gamma = stats.gamma[bss, users]  # and gamma[i, k] there
        self.c = np.ones(users.size)
        self.b = np.concatenate([np.full(K, -scenario.noise_dl), scenario.pmax])
        self.b.flags.writeable = False
        strongest = max_snr_mask(np.where(self.mask, stats.beta, 0.0))
        self.basis = np.r_[np.flatnonzero(strongest.T[self.mask.T]), users.size + K + np.arange(L)]
        self.feasible, self.infeasible = [], []

    def lookup(self, s: np.ndarray) -> bool | None:
        """True if s dominates a feasible entry, False if an infeasible entry
        dominates s, None if no entry decides it."""
        if any((s >= f).all() for f in self.feasible):
            return True
        if any((s <= g).all() for g in self.infeasible):
            return False
        return None

    def record(self, s: np.ndarray, feasible: bool) -> None:
        if feasible:
            self.feasible = [f for f in self.feasible if not (f >= s).all()] + [s]
        else:
            self.infeasible = [g for g in self.infeasible if not (g <= s).all()] + [s]


def build_lp(lp: DropLp, targets: QosTargets, num_antennas: int) -> LinearProgram:
    """The K + L row LP of ``lp``'s drop and mask over its masked user-major
    power variables, with the own-power entries of ``targets`` and
    ``num_antennas`` written into a copy of its template. Targets not of
    length K raise ValueError."""
    if targets.xi_hat.shape != lp.stats.beta.shape[1:]:
        raise ValueError(f"targets must be one per user, {lp.stats.beta.shape[1:]}, got {targets.xi_hat.shape}")
    a = lp.a.copy()
    a[lp._own] -= num_antennas * lp._gamma / targets.xi_hat[lp._own[0]]
    return LinearProgram(c=lp.c, a_ub=a, b_ub=lp.b)


@dataclass
class PowerMinResult:
    """Outcome of one power-minimization solve; infeasibility is a status, not an error.

    The allocation, the ``serving`` mask, the duals, the objective and the
    basis read through ``solution`` (see the module docstring); all are None
    unless the solve is OPTIMAL. The duals are views of ``solution.duals``,
    which the package never writes through."""

    status: LpStatus
    allowed: np.ndarray  # the (L, K) bool mask the solve was restricted to
    targets: QosTargets  # the targets and the antenna count solved at;
    num_antennas: int  # the checks read them, the JSON does not
    solution: LpSolution | None = None  # build_lp's program solved, or read at a basis
    pmax: np.ndarray | None = None  # the per-BS caps, which set the serving threshold

    @cached_property
    def allocation(self) -> PowerAllocation | None:
        if not self.feasible:
            return None
        rho = np.zeros(self.allowed.shape)
        rho.T[self.allowed.T] = self.solution.x
        return PowerAllocation(rho)

    @cached_property
    def serving(self) -> np.ndarray | None:  # (L, K) bool: BS i serves user t
        return self.allocation.rho > SERVING_THRESHOLD_SCALE * self.pmax[:, None] if self.feasible else None

    @property
    def qos_duals(self) -> np.ndarray | None:  # lambda, one per user
        return self.solution.duals[: self.allowed.shape[1]] if self.feasible else None

    @property
    def power_duals(self) -> np.ndarray | None:  # mu, one per BS
        return self.solution.duals[self.allowed.shape[1] :] if self.feasible else None

    @property
    def objective(self) -> float | None:
        return self.solution.objective if self.feasible else None

    @property
    def basis(self) -> np.ndarray | None:  # the LP's optimal basis, sorted (see lp.solve)
        return self.solution.basis if self.feasible else None

    @property
    def infeasibility_certificate(self) -> np.ndarray | None:
        """The Farkas certificate of an infeasible solve (see ``lp.solve``),
        a row weighting of ``build_lp``'s program; None otherwise."""
        return None if self.solution is None else self.solution.infeasibility_certificate

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


def solve_power_min(lp: DropLp, targets: QosTargets, num_antennas: int) -> PowerMinResult:
    """Minimum-power allocation and association for fixed SE targets and
    antenna count on ``lp``'s drop, each user drawing power only from the
    BSs its mask grants.

    The simplex starts from ``lp.basis`` (see ``lp.solve``)."""
    sol = lp_solve(build_lp(lp, targets, num_antennas), basis=lp.basis)
    return PowerMinResult(sol.status, lp.mask, targets, num_antennas, sol, lp.scenario.pmax)


def power_min_at_basis(lp: DropLp, targets: QosTargets, num_antennas: int) -> PowerMinResult:
    """The result ``solve_power_min`` returns when the simplex stops at
    ``lp.basis`` with no pivot (``lp.at_basis``), its vertex unread: a claim
    that the caller tests on that vertex before it keeps it."""
    sol = at_basis(build_lp(lp, targets, num_antennas), lp.basis)
    return PowerMinResult(sol.status, lp.mask, targets, num_antennas, sol, lp.scenario.pmax)


def max_snr_mask(beta: np.ndarray) -> np.ndarray:
    """(L, K) mask of each user's strongest-average-signal BS; ties go to the lowest index."""
    return np.arange(beta.shape[0])[:, None] == np.argmax(beta, axis=0)


# Its only user is perfbench's LAYERS list, which wraps it by name; it goes
# when the benchmark stops wrapping functions (ROADMAP item 5).
def solve_max_snr(
    stats: ChannelStats, targets: QosTargets, scenario: NetworkScenario
) -> PowerMinResult:
    """Baseline: each user may only buy power from its strongest BS, so its
    feasible set is a subset of the joint problem's."""
    return solve_power_min(DropLp(stats, scenario, max_snr_mask(stats.beta)), targets, scenario.num_antennas)


def association_rule_check(stats: ChannelStats, results) -> list:
    """Check each served user of the feasible solves ``results`` of one drop
    (``stats``) against the dual association rule at the targets and the
    antenna count each was solved at. Returns one list of violations per
    result; an empty list is a pass.

    For user t, every BS with positive power must attain (within relative
    ASSOCIATION_RULE_TOL) the minimum of (1 + sum_k lambda_k beta[i,k] + mu_i)
    / b_t[i] over the BSs i that ``result.allowed`` grants t, and that
    minimum must equal lambda_t. A serving BS i off the minimum is listed as
    (t, i, relative gap), a minimum off lambda_t as (t, -1, relative gap).
    Disallowed pairs have ratio inf, and every user has a finite minimum
    because the mask grants it a BS. The results are checked as one stack.
    """
    price, b_t, lam = _rule_terms(stats, results)
    allowed = np.stack([res.allowed for res in results])
    ratio = np.where(allowed, price[:, :, None] / b_t, np.inf)  # (n, L, K)
    rmin = ratio.min(axis=1)  # (n, K)
    gap = (ratio - rmin[:, None, :]) / rmin[:, None, :]
    lam_gap = np.abs(rmin - lam) / np.maximum(lam, rmin)
    bad_bs = np.stack([res.serving for res in results]) & (gap > ASSOCIATION_RULE_TOL)
    bad_lam = lam_gap > ASSOCIATION_RULE_TOL
    violations = [[] for _ in results]
    for j, t in zip(*np.nonzero(bad_bs.any(axis=1) | bad_lam)):
        violations[j] += [(int(t), int(i), float(gap[j, i, t])) for i in np.flatnonzero(bad_bs[j, :, t])]
        if bad_lam[j, t]:
            violations[j].append((int(t), -1, float(lam_gap[j, t])))
    return violations


def rule_reduced_costs(stats: ChannelStats, results) -> np.ndarray:
    """(n, L, K): the association rule multiplied out at the duals of each
    feasible result of ``results`` on the drop ``stats``, r[i, t] =
    1 + sum_k lambda_k beta[i, k] + mu_i - lambda_t b_t[i] at the targets
    and the antenna count the result was solved at. That is the reduced
    cost of the power column (i, t) of the drop's joint LP at those duals,
    so a basis whose duals leave every nonbasic r nonnegative is optimal for
    the joint LP too: the rule holds at every (BS, user) pair, not only
    at those the result's mask allows."""
    price, b_t, lam = _rule_terms(stats, results)
    return price[:, :, None] - lam[:, None, :] * b_t


def _rule_terms(stats: ChannelStats, results):
    """The stacked terms of the rule at ``results``: each BS's price
    1 + sum_k lambda_k beta[i, k] + mu_i (n, L), b_t[i] (n, L, K) and
    lambda (n, K)."""
    b_t = np.stack([_b_mat(stats, res.targets, res.num_antennas).T for res in results])
    lam = np.stack([res.qos_duals for res in results])
    mu = np.stack([res.power_duals for res in results])
    return 1.0 + lam @ stats.beta.T + mu, b_t, lam
