"""Differential test of ``lp.solve`` against HiGHS on the sweep's own LPs.

HiGHS gets each LP with its rows divided by their largest |entry|, the
equilibration ``lp.solve`` applies itself: the raw QoS rows hold entries near
1e-12 beside the cap rows' ones, and on them HiGHS's absolute tolerances
misjudge feasibility.
"""

import numpy as np
import pytest
from oracles import assert_farkas_certificate

from mimopower.harness import DEFAULT_NUM_USERS, default_scenario, iter_drops
from mimopower.lp import LpStatus
from mimopower.lp import solve as lp_solve
from mimopower.maxmin import FeasibilityBracket, solve_max_min
from mimopower.power_assoc import _max_snr_basis, build_lp, max_snr_mask
from mimopower.se import QosTargets

optimize = pytest.importorskip("scipy.optimize")

# linprog's status codes
_HIGHS_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


def highs(lp):
    """(status, objective) of the row-equilibrated LP under HiGHS."""
    scale = np.abs(lp.a_ub).max(axis=1, initial=0.0)
    scale = np.where(scale == 0.0, 1.0, scale)
    res = optimize.linprog(
        lp.c, A_ub=lp.a_ub / scale[:, None], b_ub=lp.b_ub / scale, bounds=(0, None), method="highs"
    )
    return _HIGHS_STATUS[res.status], res.fun


def test_simplex_agrees_with_highs_on_a_sweep():
    """Every LP of a 2-drop sweep (M 50..200, joint and max-SNR, SE 1.0 and
    every max-min probe), solved cold, from the max-SNR guess and from the
    basis a shared bracket carries: the statuses agree with HiGHS, optimal
    objectives match to 1e-9 relative and every certificate is valid."""
    k = DEFAULT_NUM_USERS
    seen = {status: 0 for status in LpStatus}
    for _, scn0, stats in iter_drops(default_scenario(50, k, rng_seed=4), 4, 2):
        for mask in (np.ones(stats.beta.shape, dtype=bool), max_snr_mask(stats.beta)):
            bracket = FeasibilityBracket()
            for m in (50, 100, 150, 200):
                scn = scn0.with_antennas(m)
                probes = solve_max_min(stats, scn, allowed=mask, bracket=bracket).trace
                for xi in [1.0] + [p.candidate for p in probes]:
                    targets = QosTargets.uniform(xi, k, scn)
                    lp = build_lp(stats, targets, scn, mask)
                    status, objective = highs(lp)
                    seen[status] += 1
                    for hint in (None, _max_snr_basis(stats, targets, mask), bracket.basis):
                        sol = lp_solve(lp, basis=hint)
                        assert sol.status == status
                        if status == LpStatus.OPTIMAL:
                            assert sol.objective == pytest.approx(objective, rel=1e-9, abs=0.0)
                        else:
                            assert_farkas_certificate(lp.a_ub, lp.b_ub, sol.infeasibility_certificate)
    assert seen[LpStatus.OPTIMAL] and seen[LpStatus.INFEASIBLE]
