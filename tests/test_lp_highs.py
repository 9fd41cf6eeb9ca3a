"""Differential tests of ``lp.solve`` against HiGHS: on the sweep's own LPs,
and a property test on random sparse ones.

HiGHS gets each LP with its rows divided by their largest |entry|, the
equilibration ``lp.solve`` applies itself: the raw QoS rows hold entries near
1e-12 beside the cap rows' ones, and on them HiGHS's absolute tolerances
misjudge feasibility. HiGHS runs without presolve, which calls some random
LPs infeasible that have a feasible x = 0 and an improving ray.
"""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import assert_farkas_certificate, dinkelbach_lp, sparse_lps

from mimopower.harness import DEFAULT_NUM_USERS, default_scenario, iter_drops
from mimopower.lp import LpStatus
from mimopower.lp import solve as lp_solve
from mimopower.maxmin import solve_max_min
from mimopower.power_assoc import DropLp, _max_snr_basis, build_lp, max_snr_mask
from mimopower.se import QosTargets

optimize = pytest.importorskip("scipy.optimize")

# linprog's status codes
_HIGHS_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


def highs(lp):
    """(status, objective) of the row-equilibrated LP under HiGHS."""
    scale = np.abs(lp.a_ub).max(axis=1, initial=0.0)
    scale = np.where(scale == 0.0, 1.0, scale)
    res = optimize.linprog(
        lp.c,
        A_ub=lp.a_ub / scale[:, None],
        b_ub=lp.b_ub / scale,
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
    return _HIGHS_STATUS[res.status], res.fun


@given(st.integers(0, 2**32 - 1))
def test_simplex_agrees_with_highs_on_random_lps(seed):
    """The first 40 LPs of ``sparse_lps(seed)``: the statuses agree with
    HiGHS, optima match to 1e-9 relative (1e-12 absolute, for optima that
    are roundoff around 0) and every certificate is valid."""
    for lp in islice(sparse_lps(seed), 40):
        status, objective = highs(lp)
        sol = lp_solve(lp)
        assert sol.status == status
        if status == LpStatus.OPTIMAL:
            assert sol.objective == pytest.approx(objective, rel=1e-9, abs=1e-12)
        elif status == LpStatus.INFEASIBLE:
            assert_farkas_certificate(lp.a_ub, lp.b_ub, sol.infeasibility_certificate)


def test_simplex_agrees_with_highs_on_a_sweep():
    """Every LP of a 2-drop sweep (M 50..200, joint and max-SNR, SE 1.0 and
    every max-min probe), solved cold, from the max-SNR guess and from the
    basis a shared bracket carries: the statuses agree with HiGHS, optimal
    objectives match to 1e-9 relative and every certificate is valid."""
    k = DEFAULT_NUM_USERS
    seen = {status: 0 for status in LpStatus}
    for _, scn0, stats in iter_drops(default_scenario(50, k, rng_seed=4), 4, 2):
        for mask in (np.ones(stats.beta.shape, dtype=bool), max_snr_mask(stats.beta)):
            bracket = DropLp(stats, mask)
            for m in (50, 100, 150, 200):
                scn = scn0.with_antennas(m)
                probes = solve_max_min(bracket, scn).trace
                for xi in [1.0] + [p.candidate for p in probes]:
                    targets = QosTargets.uniform(xi, scn)
                    lp = build_lp(DropLp(stats, mask), targets, scn)
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


def test_dinkelbach_step_matches_highs():
    """Step 1 of Dinkelbach's max-min iteration at seed 17, drop 0, M=100,
    an LP whose costs are zero but for the level's: the simplex's optimum is
    HiGHS's to 1e-9 relative."""
    _, scn0, stats = next(iter_drops(default_scenario(50, 20, rng_seed=17), 17, 1))
    scn = scn0.with_antennas(100)
    lp = dinkelbach_lp(stats, scn, lp_solve(dinkelbach_lp(stats, scn)).x)
    status, objective = highs(lp)
    sol = lp_solve(lp)
    assert status == sol.status == LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(objective, rel=1e-9, abs=0.0)
