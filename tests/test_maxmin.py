import json
import re
from dataclasses import asdict

import numpy as np
import pytest
from conftest import random_drop, single_cell

from mimopower import power_assoc
from mimopower.channel import ChannelStats
from mimopower.harness import DEFAULT_NUM_USERS, default_scenario, iter_drops
from mimopower.lp import LpSolution, LpStatus
from mimopower.maxmin import (
    FeasibilityBracket,
    auto_upper_bound,
    expected_iterations,
    solve_max_min,
)
from mimopower.power_assoc import PowerMinTemplate, max_snr_mask, solve_power_min
from mimopower.se import QosTargets, qos_to_threshold, se_mrt_all, spectral_efficiency


class TestAutoUpperBound:
    def test_vanishing_estimation_quality_gives_zero(self):
        scn, stats = single_cell(num_antennas=100)
        dead = ChannelStats(beta=stats.beta, gamma=np.full_like(stats.beta, 1e-300))
        assert auto_upper_bound(dead, scn, np.ones(1)) < 1e-250

    def test_doubling_weights_halves_bound(self, small_scenario, small_stats):
        w = np.ones(6)
        b1 = auto_upper_bound(small_stats, small_scenario, w)
        b2 = auto_upper_bound(small_stats, small_scenario, 2 * w)
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_bound_exceeds_achievable_level(self, small_scenario, small_stats):
        bound = auto_upper_bound(small_stats, small_scenario, np.ones(6))
        res = solve_max_min(small_stats, small_scenario)
        assert bound > res.xi_lower

    def test_noise_dominated_single_user_is_tight(self):
        # with a channel weak enough that own-beam interference is negligible,
        # the interference-free bound coincides with the full-power optimum
        scn, stats = single_cell(num_antennas=64, beta=1e-17)
        m, beta, gamma = 64, stats.beta[0, 0], stats.gamma[0, 0]
        sinr_full = m * 40.0 * gamma / (40.0 * beta + scn.noise_dl)
        xi_star = float(spectral_efficiency(sinr_full, scn.coherence_length, scn.pilot_length))
        bound = auto_upper_bound(stats, scn, np.ones(1))
        assert bound == pytest.approx(xi_star, rel=5e-3)
        assert bound > xi_star  # still a strict upper bound
        res = solve_max_min(stats, scn, delta=1e-6)
        assert res.xi_lower <= xi_star <= res.xi_upper


class TestBisection:
    def test_iteration_count_matches_formula(self):
        for seed in range(5):
            scn, stats = random_drop(seed, num_antennas=100, num_users=6)
            res = solve_max_min(stats, scn)
            bound = auto_upper_bound(stats, scn, np.ones(6))
            assert res.iterations == expected_iterations(bound, 0.01)
            assert res.xi_upper - res.xi_lower <= 0.01

    def test_interval_monotone_and_consistent(self):
        scn, stats = random_drop(11, num_antennas=100, num_users=6)
        res = solve_max_min(stats, scn)
        lowers = [p.lower for p in res.trace]
        uppers = [p.upper for p in res.trace]
        assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(uppers, uppers[1:]))
        # bisection history respects feasibility monotonicity
        feas = [p.candidate for p in res.trace if p.feasible]
        infeas = [p.candidate for p in res.trace if not p.feasible]
        if feas and infeas:
            assert max(feas) < min(infeas)

    def test_returned_allocation_meets_lower_bound(self):
        scn, stats = random_drop(12, num_antennas=100, num_users=6)
        res = solve_max_min(stats, scn)
        se = se_mrt_all(stats, res.last_feasible.allocation, scn)
        assert np.all(se >= res.xi_lower - 1e-9)
        # with unit weights the worst user sits inside the final interval
        assert res.xi_lower - 1e-9 <= se.min() <= res.xi_upper + 1e-9

    def test_single_user_power_constraint_binds(self):
        scn, stats = single_cell(num_antennas=64, beta=2e-13)
        res = solve_max_min(stats, scn, delta=0.01)
        m, beta, gamma = 64, stats.beta[0, 0], stats.gamma[0, 0]
        sinr_full = m * 40.0 * gamma / (40.0 * beta + scn.noise_dl)
        xi_star = float(
            spectral_efficiency(sinr_full, scn.coherence_length, scn.pilot_length)
        )
        # the full-power optimum sits in the final interval
        assert res.xi_lower <= xi_star + 1e-12 <= res.xi_upper + 1e-12

        def rho_needed(xi):
            xh = qos_to_threshold(xi, scn.coherence_length, scn.pilot_length)
            room = m * gamma - xh * beta
            return xh * scn.noise_dl / room if room > 0 else np.inf

        # the delta-window brackets the power constraint: the lower level is
        # exactly affordable, the upper level would exceed pmax
        rho = res.last_feasible.allocation.rho
        assert rho[0, 0] == pytest.approx(rho_needed(res.xi_lower), rel=1e-9)
        assert rho[0, 0] <= 40.0 + 1e-9
        assert rho_needed(res.xi_upper) > 40.0

    def test_max_snr_probe_mode(self):
        scn, stats = random_drop(14, num_antennas=100, num_users=6)
        opt = solve_max_min(stats, scn)
        snr = solve_max_min(stats, scn, allowed=max_snr_mask(stats.beta))
        assert opt.xi_lower >= snr.xi_lower - 0.01 - 1e-12
        assert np.array_equal(snr.last_feasible.allowed, max_snr_mask(stats.beta))

    def test_all_false_mask_gives_level_zero(self, small_scenario, small_stats):
        res = solve_max_min(small_stats, small_scenario, allowed=np.zeros((4, 6), dtype=bool))
        assert res.xi_lower == 0.0 and res.last_feasible is None
        assert not any(p.feasible for p in res.trace)

    def test_trace_is_json_lines_ready(self):
        scn, stats = random_drop(15, num_antennas=64, num_users=4)
        res = solve_max_min(stats, scn, delta=0.2)
        lines = [json.dumps(asdict(p)) for p in res.trace]
        assert len(lines) == res.iterations
        parsed = json.loads(lines[0])
        assert {"iteration", "candidate", "feasible", "lower", "upper"} <= parsed.keys()

    def test_config_validation(self, small_scenario, small_stats):
        with pytest.raises(ValueError):
            solve_max_min(small_stats, small_scenario, delta=0.0)
        with pytest.raises(ValueError, match="weights"):
            solve_max_min(small_stats, small_scenario, weights=np.zeros(6))

    def test_expected_iterations_formula(self):
        assert expected_iterations(1.0, 2.0) == 0
        assert expected_iterations(1.0, 1.0) == 0
        assert expected_iterations(1.0, 0.25) == 2
        assert expected_iterations(10.0, 0.01) == 10


def count_lp_solves(monkeypatch) -> list:
    """Patch the LP solve behind solve_power_min; the returned list grows by
    one entry per solve."""
    calls = []
    real = power_assoc.lp_solve

    def counting(lp, basis=None):
        calls.append(lp)
        return real(lp, basis=basis)

    monkeypatch.setattr(power_assoc, "lp_solve", counting)
    return calls


def assert_same_result(a, b):
    assert a.trace == b.trace
    assert (a.xi_lower, a.xi_upper, a.iterations) == (b.xi_lower, b.xi_upper, b.iterations)
    assert (a.last_feasible is None) == (b.last_feasible is None)
    if a.last_feasible is not None:
        assert np.array_equal(a.last_feasible.allocation.rho, b.last_feasible.allocation.rho)
        assert np.array_equal(a.last_feasible.qos_duals, b.last_feasible.qos_duals)
        assert np.array_equal(a.last_feasible.power_duals, b.last_feasible.power_duals)


class TestFeasibilityBracket:
    def test_componentwise_dominance(self):
        bracket = FeasibilityBracket()
        assert bracket.lookup(np.array([1.0, 1.0])) is None
        bracket.record(np.array([2.0, 1.0]), True)
        bracket.record(np.array([1.0, 0.5]), False)
        assert bracket.lookup(np.array([2.0, 3.0])) is True
        assert bracket.lookup(np.array([0.5, 0.5])) is False
        assert bracket.lookup(np.array([3.0, 0.9])) is None  # dominates neither way
        # a smaller feasible s supersedes the entries it dominates
        bracket.record(np.array([1.5, 1.0]), True)
        assert len(bracket.feasible) == 1 and bracket.lookup(np.array([1.5, 1.0])) is True

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "weighted"])
    def test_shared_bracket_agrees_with_direct_solves(self, uniform, monkeypatch):
        antennas = (50, 100, 150, 200)
        k = DEFAULT_NUM_USERS
        w = np.ones(k) if uniform else np.linspace(0.5, 2.0, k)
        calls = count_lp_solves(monkeypatch)
        shared_solves = probes = 0
        base = default_scenario(antennas[0], k, rng_seed=5)
        for _, scn0, stats in iter_drops(base, 5, 3):
            for allowed in (None, max_snr_mask(stats.beta)):
                bracket = FeasibilityBracket()
                for m in antennas:
                    scn = scn0.with_antennas(m)
                    before = len(calls)
                    shared = solve_max_min(stats, scn, w, allowed=allowed, bracket=bracket)
                    shared_solves += len(calls) - before
                    probes += shared.iterations
                    for p in shared.trace:
                        targets = QosTargets.from_se(
                            w * p.candidate, scn.coherence_length, scn.pilot_length
                        )
                        assert solve_power_min(stats, targets, scn, allowed).feasible == p.feasible
                    assert_same_result(shared, solve_max_min(stats, scn, w, allowed=allowed))
        # the shared brackets answered some probes without an LP
        assert shared_solves < probes

    def test_carried_basis_hints_match_cold_solves(self, monkeypatch):
        """Every probe LP of three drops, joint and max-SNR, with a bracket
        shared across antenna counts: started from the bracket's basis, it
        gives the bits of a cold ``solve_power_min`` (max-SNR start) when
        optimal and its status when infeasible, in fewer pivots in total."""
        pivots = []
        real_lp, real_probe = power_assoc.lp_solve, PowerMinTemplate.solve

        def counting(lp, basis=None):
            sol = real_lp(lp, basis=basis)
            pivots.append(sol.iterations)
            return sol

        probes = []

        def recording(template, targets, scenario, basis=None):
            res = real_probe(template, targets, scenario, basis=basis)
            args = (template.stats, targets, scenario, template.mask)
            probes.append((args, basis, res, pivots[-1]))
            return res

        monkeypatch.setattr(power_assoc, "lp_solve", counting)
        monkeypatch.setattr(PowerMinTemplate, "solve", recording)
        k = DEFAULT_NUM_USERS
        for _, scn0, stats in iter_drops(default_scenario(50, k, rng_seed=8), 8, 3):
            for allowed in (None, max_snr_mask(stats.beta)):
                bracket = FeasibilityBracket()
                for m in (50, 100, 150, 200):
                    solve_max_min(stats, scn0.with_antennas(m), allowed=allowed, bracket=bracket)
        monkeypatch.setattr(PowerMinTemplate, "solve", real_probe)
        hinted_pivots = cold_pivots = hinted = infeasible = 0
        for args, basis, res, used in probes:
            cold = solve_power_min(*args)
            hinted_pivots += used
            cold_pivots += pivots[-1]
            hinted += basis is not None
            assert res.status == cold.status
            if not cold.feasible:
                infeasible += 1
                continue
            assert np.array_equal(res.allocation.rho, cold.allocation.rho)
            assert np.array_equal(res.qos_duals, cold.qos_duals)
            assert np.array_equal(res.power_duals, cold.power_duals)
            assert res.objective == cold.objective and np.array_equal(res.basis, cold.basis)
        assert hinted and infeasible
        assert hinted_pivots < cold_pivots

    def test_bracket_is_bound_to_its_first_drop_and_mask(self, small_scenario, small_stats):
        mask = max_snr_mask(small_stats.beta)
        bracket = FeasibilityBracket()
        first = solve_max_min(small_stats, small_scenario, allowed=mask, bracket=bracket)
        # an int copy of the mask is the same mask as a bool array
        again = solve_max_min(small_stats, small_scenario, allowed=mask.astype(int), bracket=bracket)
        assert_same_result(first, again)
        for other in (None, ~mask):
            with pytest.raises(ValueError, match="one association mask"):
                solve_max_min(small_stats, small_scenario, allowed=other, bracket=bracket)
        joint = FeasibilityBracket()
        solve_max_min(small_stats, small_scenario, bracket=joint)
        solve_max_min(small_stats, small_scenario, allowed=np.ones(mask.shape, int), bracket=joint)
        with pytest.raises(ValueError, match="one association mask"):
            solve_max_min(small_stats, small_scenario, allowed=mask, bracket=joint)
        other_drop = ChannelStats(beta=small_stats.beta, gamma=small_stats.gamma / 2.0)
        with pytest.raises(ValueError, match="one drop"):
            solve_max_min(other_drop, small_scenario, bracket=joint)

    def test_repeat_call_solves_one_lp(self, monkeypatch):
        scn, stats = random_drop(21, num_antennas=100, num_users=6)
        bracket = FeasibilityBracket()
        first = solve_max_min(stats, scn, bracket=bracket)
        assert first.last_feasible is not None
        calls = count_lp_solves(monkeypatch)
        second = solve_max_min(stats, scn, bracket=bracket)
        assert len(calls) == 1  # only the re-solve at the final lower level
        assert_same_result(first, second)

    def test_infeasible_resolve_raises(self, monkeypatch):
        scn, stats = random_drop(21, num_antennas=100, num_users=6)
        bracket = FeasibilityBracket()
        level = solve_max_min(stats, scn, bracket=bracket).xi_lower
        monkeypatch.setattr(power_assoc, "lp_solve", lambda lp, basis=None: LpSolution(LpStatus.INFEASIBLE))
        pattern = rf"^max-min level {re.escape(repr(level))} .* infeasible$"
        with pytest.raises(RuntimeError, match=pattern):
            solve_max_min(stats, scn, bracket=bracket)
