"""Differential tests of ``lp.solve`` against HiGHS: on the sweep's own LPs,
and a property test on random sparse ones.

HiGHS gets each LP with its rows divided by their largest |entry|, the
equilibration ``lp.solve`` applies itself: the raw QoS rows hold entries near
1e-12 beside the cap rows' ones, and on them HiGHS's absolute tolerances
misjudge feasibility. HiGHS runs without presolve, which calls some random
LPs infeasible that have a feasible x = 0 and an improving ray.
"""

import dataclasses
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import assert_farkas_certificate, dinkelbach_lp, edge_scenarios, row_excess, sparse_lps

from mimopower.channel import channel_stats
from mimopower.harness import DEFAULT_NUM_USERS, default_scenario, iter_drops
from mimopower.lp import LpStatus
from mimopower.lp import solve as lp_solve
from mimopower.lp import verify
from mimopower.maxmin import auto_upper_bound, solve_max_min
from mimopower.power_assoc import DropLp, build_lp, max_snr_mask
from mimopower.se import QosTargets

optimize = pytest.importorskip("scipy.optimize")

# linprog's status codes
_HIGHS_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


def highs(lp):
    """(status, objective, row excess of its point) of the row-equilibrated
    LP under HiGHS; the status is None where HiGHS gives up (its model
    status "unknown", which it reports on a few random LPs)."""
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
    excess = row_excess(lp, res.x) if res.x is not None else 0.0
    return _HIGHS_STATUS.get(res.status), res.fun, excess


@given(st.integers(0, 2**32 - 1))
def test_simplex_agrees_with_highs_on_random_lps(seed):
    """The first 40 LPs of ``sparse_lps(seed)``: the statuses agree with
    HiGHS, optima match to 1e-9 relative (1e-12 absolute, for optima that
    are roundoff around 0) and every certificate is valid. Where HiGHS
    gives up there is no reference, and only the certificate is checked."""
    for lp in islice(sparse_lps(seed), 40):
        status, objective, _ = highs(lp)
        sol = lp_solve(lp)
        if status is None:
            status, objective = sol.status, sol.objective
        assert sol.status == status
        if status == LpStatus.OPTIMAL:
            assert sol.objective == pytest.approx(objective, rel=1e-9, abs=1e-12)
        elif status == LpStatus.INFEASIBLE:
            assert_farkas_certificate(lp.a_ub, lp.b_ub, sol.infeasibility_certificate)


def test_simplex_agrees_with_highs_on_a_sweep():
    """Every LP of a 2-drop sweep (M 50..200, joint and max-SNR, SE 1.0 and
    every max-min probe), solved cold, from a fresh ``DropLp``'s max-SNR
    basis and from the basis a shared ``DropLp``'s bisections carry: the
    statuses agree with HiGHS, optimal objectives match to 1e-9 relative
    and every certificate is valid."""
    k = DEFAULT_NUM_USERS
    seen = {status: 0 for status in LpStatus}
    for _, scn0, stats in iter_drops(default_scenario(50, k, rng_seed=4), 4, 2):
        for mask in (np.ones(stats.beta.shape, dtype=bool), max_snr_mask(stats.beta)):
            fresh, shared = DropLp(stats, scn0, mask), DropLp(stats, scn0, mask)
            for m in (50, 100, 150, 200):
                probes = solve_max_min(shared, m).trace
                for xi in [1.0] + [p.candidate for p in probes]:
                    targets = QosTargets.uniform(xi, scn0)
                    lp = build_lp(shared, targets, m)
                    status, objective, _ = highs(lp)
                    seen[status] += 1
                    for hint in (None, fresh.basis, shared.basis):
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
    scn = dataclasses.replace(scn0, num_antennas=100)
    lp = dinkelbach_lp(stats, scn, lp_solve(dinkelbach_lp(stats, scn)).x)
    status, objective, _ = highs(lp)
    sol = lp_solve(lp)
    assert status == sol.status == LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(objective, rel=1e-9, abs=0.0)


def test_simplex_agrees_with_highs_on_power_min_edge_cases():
    """Each edge scenario at SE 1.0, at its joint max-min level (to 1e-6,
    where a cap binds) and at 0.999x and 1.001x ``auto_upper_bound``; joint
    and max-SNR, each cold and from the max-SNR guess: the statuses agree
    with HiGHS and every certificate is valid. Every optimum meets its
    equilibrated rows to 1e-12 and passes ``verify``; it matches HiGHS's to
    1e-9 relative wherever HiGHS's own point meets them too, and otherwise
    HiGHS's lower value comes from a violated row (the 10 m users' max-min
    level, whose rows span eight decades)."""
    seen = {status: 0 for status in LpStatus}
    binding_caps = 0
    for name, scn in edge_scenarios():
        stats = channel_stats(scn, np.random.default_rng(5))
        K = scn.num_users
        top = solve_max_min(DropLp(stats, scn), scn.num_antennas, delta=1e-6).xi_lower
        bound = auto_upper_bound(DropLp(stats, scn), np.ones(K), scn.num_antennas)
        for xi in (1.0, top, 0.999 * bound, 1.001 * bound):
            targets = QosTargets.uniform(xi, scn)
            for mask in (np.ones(stats.beta.shape, dtype=bool), max_snr_mask(stats.beta)):
                drop_lp = DropLp(stats, scn, mask)
                lp = build_lp(drop_lp, targets, scn.num_antennas)
                status, objective, excess = highs(lp)
                seen[status] += 1
                for hint in (None, drop_lp.basis):
                    sol = lp_solve(lp, basis=hint)
                    assert sol.status == status, (name, xi)
                    if status == LpStatus.OPTIMAL:
                        assert row_excess(lp, sol.x) <= 1e-12, (name, xi)
                        assert verify(lp, sol).worst <= 1e-9, (name, xi)
                        if excess <= 1e-12:
                            assert sol.objective == pytest.approx(objective, rel=1e-9, abs=0.0), (name, xi)
                        else:
                            assert sol.objective >= objective, (name, xi)
                        binding_caps += int((sol.duals[K:] > 0.0).any())
                    else:
                        assert_farkas_certificate(lp.a_ub, lp.b_ub, sol.infeasibility_certificate)
    assert seen[LpStatus.OPTIMAL] and seen[LpStatus.INFEASIBLE]
    assert binding_caps
