import json

import numpy as np
import pytest
from conftest import random_drop, single_cell
from oracles import assert_farkas_certificate, power_min_lp_rows

from mimopower import power_assoc
from mimopower.channel import ChannelStats
from mimopower.harness import (
    DEFAULT_NUM_USERS,
    check_solution_invariants,
    default_scenario,
    iter_drops,
)
from mimopower.lp import LpSolution, LpStatus
from mimopower.lp import solve as lp_solve
from mimopower.maxmin import FeasibilityBracket, solve_max_min
from mimopower.power_assoc import (
    PowerMinResult,
    PowerMinTemplate,
    _b_mat,
    _max_snr_basis,
    association_rule_check,
    build_lp,
    max_snr_mask,
    solve_max_snr,
    solve_power_min,
)
from mimopower.se import PowerAllocation, QosTargets


def targets_for(scenario, xi=1.0):
    return QosTargets.uniform(xi, scenario.num_users, scenario)


class TestBuildLp:
    def test_shape_contract(self, small_scenario, small_stats):
        lp = build_lp(small_stats, targets_for(small_scenario), small_scenario)
        assert lp.num_vars == 4 * 6
        assert lp.num_rows == 6 + 4
        np.testing.assert_array_equal(lp.c, np.ones(24))

    def test_single_cell_specialization(self):
        scn, stats = single_cell(num_antennas=100)
        targets = targets_for(scn, 1.0)
        lp = build_lp(stats, targets, scn)
        b_expect = 100 * stats.gamma[0, 0] / targets.xi_hat[0]
        assert lp.num_vars == 1 and lp.num_rows == 2
        assert lp.a_ub[0, 0] == pytest.approx(stats.beta[0, 0] - b_expect, rel=1e-15)
        assert lp.b_ub[0] == -scn.noise_dl
        assert lp.a_ub[1, 0] == 1.0 and lp.b_ub[1] == 40.0

    def test_b_vector_ties_to_estimation_quality(self, small_scenario, small_stats):
        targets = targets_for(small_scenario, 1.3)
        b_mat = _b_mat(small_stats, targets, small_scenario)
        np.testing.assert_allclose(
            b_mat * targets.xi_hat[:, None],
            small_scenario.num_antennas * small_stats.gamma.T,
            rtol=1e-15,
        )

    def test_negative_threshold_rejected(self, small_scenario, small_stats):
        good = targets_for(small_scenario)
        xi_hat = good.xi_hat.copy()
        xi_hat[2] = -0.1
        bad = QosTargets(xi=good.xi, xi_hat=xi_hat)
        result = PowerMinResult(
            status=LpStatus.OPTIMAL,
            allowed=np.ones((4, 6), dtype=bool),
            allocation=PowerAllocation(np.ones((4, 6))),
            qos_duals=np.ones(6),
            power_duals=np.zeros(4),
        )
        with pytest.raises(ValueError, match="nonnegative"):
            build_lp(small_stats, bad, small_scenario)
        with pytest.raises(ValueError, match="nonnegative"):
            association_rule_check(small_stats, bad, small_scenario, result)

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_and_mask_match_references(self, seed):
        scn, stats = random_drop(seed, num_antennas=80, num_users=7)
        rng = np.random.default_rng(seed)
        xi = rng.uniform(0.2, 2.0, scn.num_users)
        xi[rng.random(scn.num_users) < 0.3] = 0.0  # some zero-target users
        targets = QosTargets.from_se(xi, scn.coherence_length, scn.pilot_length)
        full = build_lp(stats, targets, scn)
        a_ref, b_ref = power_min_lp_rows(
            stats.beta, stats.gamma, targets.xi_hat, scn.num_antennas, scn.noise_dl, scn.pmax
        )
        assert np.array_equal(full.a_ub, a_ref) and np.array_equal(full.b_ub, b_ref)
        one_hot = max_snr_mask(stats.beta)
        for mask in (one_hot, rng.random(stats.beta.shape) < 0.5, np.ones_like(one_hot)):
            lp = build_lp(stats, targets, scn, allowed=mask)
            assert np.array_equal(lp.a_ub, full.a_ub[:, mask.T.ravel()])
            assert np.array_equal(lp.b_ub, full.b_ub)
            assert np.array_equal(lp.c, full.c[mask.T.ravel()])

    def test_mask_must_be_l_by_k(self, small_scenario, small_stats):
        targets = targets_for(small_scenario)
        every_user_on_bs0 = np.zeros((6, 4), dtype=bool)
        every_user_on_bs0[:, 0] = True
        for mask in (every_user_on_bs0, np.ones((4, 5), dtype=bool)):
            with pytest.raises(ValueError, match=r"\(L, K\) = \(4, 6\)"):
                PowerMinTemplate(small_stats, mask)
            with pytest.raises(ValueError, match=r"\(L, K\) = \(4, 6\)"):
                build_lp(small_stats, targets, small_scenario, allowed=mask)
            with pytest.raises(ValueError, match=r"\(L, K\) = \(4, 6\)"):
                solve_max_min(small_stats, small_scenario, allowed=mask)
            with pytest.raises(ValueError, match=r"\(L, K\) = \(4, 6\)"):
                solve_power_min(small_stats, targets, small_scenario, mask)

    def test_int_mask_equals_bool_mask(self, small_scenario, small_stats):
        targets = targets_for(small_scenario, 0.5)
        mask = max_snr_mask(small_stats.beta)
        by_bool = solve_power_min(small_stats, targets, small_scenario, mask)
        by_int = solve_power_min(small_stats, targets, small_scenario, mask.astype(int))
        assert by_bool.feasible and by_int.allowed.dtype == bool
        assert np.array_equal(by_int.allocation.rho, by_bool.allocation.rho)
        assert np.array_equal(by_int.qos_duals, by_bool.qos_duals)

    def test_all_false_mask(self, small_scenario, small_stats):
        none = np.zeros((4, 6), dtype=bool)
        targets = targets_for(small_scenario)
        assert build_lp(small_stats, targets, small_scenario, none).num_vars == 0
        res = solve_power_min(small_stats, targets, small_scenario, none)
        assert res.status == LpStatus.INFEASIBLE
        zero = QosTargets.from_se(
            np.zeros(6), small_scenario.coherence_length, small_scenario.pilot_length
        )
        res = solve_power_min(small_stats, zero, small_scenario, none)
        assert res.feasible and res.objective == 0.0
        assert np.array_equal(res.allocation.rho, np.zeros((4, 6)))

    @pytest.mark.parametrize("seed", range(3))
    def test_reused_template_matches_loop_oracle(self, seed):
        """One template per mask serves every LP of a sequence of targets at
        each antenna count, zero-target users before all-active targets: each
        LP is the loop-form oracle's on the mask's columns, so no LP leaks
        state (such as a zeroed row) into the next."""
        base, stats = random_drop(seed, num_antennas=50, num_users=7)
        rng = np.random.default_rng(seed)
        shape = stats.beta.shape
        masks = (None, max_snr_mask(stats.beta), rng.random(shape) < 0.5, np.zeros(shape, bool))
        templates = [PowerMinTemplate(stats, mask) for mask in masks]
        partly_zero = rng.uniform(0.2, 2.0, shape[1])
        partly_zero[[0, 3, 4]] = 0.0
        sequence = (partly_zero, rng.uniform(0.2, 2.0, shape[1]), np.zeros(shape[1]), np.ones(shape[1]))
        for m in (50, 100, 150, 200):
            scn = base.with_antennas(m)
            for xi in sequence:
                targets = QosTargets.from_se(xi, scn.coherence_length, scn.pilot_length)
                a_ref, b_ref = power_min_lp_rows(
                    stats.beta, stats.gamma, targets.xi_hat, m, scn.noise_dl, scn.pmax
                )
                for mask, template in zip(masks, templates):
                    cols = np.ones(a_ref.shape[1], bool) if mask is None else mask.T.ravel()
                    lp = template.lp(targets, scn)
                    assert np.array_equal(lp.c, np.ones(cols.sum()))
                    assert np.array_equal(lp.a_ub, a_ref[:, cols])
                    assert np.array_equal(lp.b_ub, b_ref)
        assert templates[-1].lp(targets, scn).num_vars == 0

    def test_zero_thresholds_give_zero_optimum(self, small_scenario, small_stats):
        targets = QosTargets.from_se(
            np.zeros(6), small_scenario.coherence_length, small_scenario.pilot_length
        )
        lp = build_lp(small_stats, targets, small_scenario)
        assert lp.num_rows == 10  # row count unchanged
        np.testing.assert_array_equal(lp.a_ub[:6], np.zeros((6, 24)))
        res = solve_power_min(small_stats, targets, small_scenario)
        assert res.feasible and res.objective == 0.0
        assert not res.serving.any()


class TestSingleUserAnalytic:
    def test_interior_optimum_matches_stationarity(self):
        scn, stats = single_cell(num_antennas=120, beta=3e-13)
        targets = targets_for(scn, 1.2)
        res = solve_power_min(stats, targets, scn)
        b = 120 * stats.gamma[0, 0] / targets.xi_hat[0]
        beta = stats.beta[0, 0]
        assert res.feasible
        assert res.allocation.rho[0, 0] == pytest.approx(scn.noise_dl / (b - beta), rel=1e-9)
        assert res.qos_duals[0] == pytest.approx(1.0 / (b - beta), rel=1e-9)
        assert res.power_duals[0] == pytest.approx(0.0, abs=1e-12)

    def test_self_coupling_exceeding_gain_is_infeasible(self):
        # b <= beta makes the QoS row unsatisfiable for any rho >= 0
        scn, stats = single_cell(num_antennas=1, gamma=1e-14, beta=2e-13)
        targets = targets_for(scn, 1.0)
        assert 1 * stats.gamma[0, 0] / targets.xi_hat[0] <= stats.beta[0, 0]
        res = solve_power_min(stats, targets, scn)
        assert res.status == LpStatus.INFEASIBLE
        assert not res.feasible

    def test_association_rule_identity(self):
        scn, stats = single_cell(num_antennas=120, beta=3e-13)
        targets = targets_for(scn, 1.2)
        res = solve_power_min(stats, targets, scn)
        report = association_rule_check(stats, targets, scn, res)
        assert report.passed
        assert report.max_rel_gap < 1e-12


class TestDegenerateSplit:
    def test_identical_bs_resolve_to_single_server(self):
        scn, stats = single_cell(num_antennas=100, beta=3e-13)
        from dataclasses import replace

        scn2 = replace(
            scn,
            num_bs=2,
            bs_positions=np.array([[0.0, 0.0], [1.0, 0.0]]),
            pmax=np.array([40.0, 40.0]),
        )
        stats2 = ChannelStats(
            beta=np.vstack([stats.beta, stats.beta]), gamma=np.vstack([stats.gamma, stats.gamma])
        )
        targets = targets_for(scn2, 1.0)
        res = solve_power_min(stats2, targets, scn2)
        assert res.feasible
        positive = res.allocation.rho[:, 0] > 0
        assert positive.sum() == 1  # a vertex, not an interior split
        b = 100 * stats2.gamma[0, 0] / targets.xi_hat[0]
        total = res.allocation.rho.sum()
        assert total == pytest.approx(scn2.noise_dl / (b - stats2.beta[0, 0]), rel=1e-9)


class TestMaxSnr:
    def test_assignment_breaks_ties_low(self):
        beta = np.array([[2.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(max_snr_mask(beta), [[True, False], [False, True]])

    def test_single_bs_equals_optimal(self):
        scn, stats = single_cell(num_antennas=100, num_users=3, rng_seed=4)
        targets = targets_for(scn, 0.8)
        a = solve_power_min(stats, targets, scn)
        b = solve_max_snr(stats, targets, scn)
        assert a.feasible and b.feasible
        assert a.objective == pytest.approx(b.objective, rel=1e-9)

    def test_restriction_never_beats_optimum(self):
        for seed in range(8):
            scn, stats = random_drop(seed, num_antennas=100, num_users=8)
            targets = targets_for(scn, 1.0)
            opt = solve_power_min(stats, targets, scn)
            snr = solve_max_snr(stats, targets, scn)
            if snr.feasible:
                assert opt.feasible  # feasible-set inclusion
                assert opt.objective <= snr.objective * (1 + 1e-9)
                best = max_snr_mask(stats.beta)
                assert np.array_equal(snr.allowed, best)
                assert not np.any(snr.serving & ~best)

    def test_rule_checked_over_the_mask(self):
        scn, stats = random_drop(3, num_antennas=100, num_users=8)
        targets = targets_for(scn, 1.0)
        snr = solve_max_snr(stats, targets, scn)
        assert snr.feasible
        report = association_rule_check(stats, targets, scn, snr)
        assert report.passed, report.violations
        snr.qos_duals[2] *= 1.0 + 1e-3
        report = association_rule_check(stats, targets, scn, snr)
        assert not report.passed
        assert (2, -1) in {(t, i) for t, i, _ in report.violations}


class TestSolutionContracts:
    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_drops_meet_all_invariants(self, seed):
        scn, stats = random_drop(seed, num_antennas=120, num_users=10)
        targets = targets_for(scn, 1.0)
        res = solve_power_min(stats, targets, scn)
        if not res.feasible:
            pytest.skip("infeasible drop")
        # power caps, QoS attainment and binding, association rule over the mask
        for solved in (res, solve_max_snr(stats, targets, scn)):
            if solved.feasible:
                check_solution_invariants(stats, targets, scn, solved)
                # duals are sign-correct
                assert np.all(solved.qos_duals >= -1e-12)
                assert np.all(solved.power_duals >= -1e-12)

    def test_vacuous_user_passes_rule_check(self, small_scenario, small_stats):
        xi = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        targets = QosTargets.from_se(
            xi, small_scenario.coherence_length, small_scenario.pilot_length
        )
        res = solve_power_min(small_stats, targets, small_scenario)
        assert res.feasible
        assert not res.serving[:, [1, 3, 5]].any()
        report = association_rule_check(small_stats, targets, small_scenario, res)
        assert report.passed

    def test_result_record_is_json_ready(self, small_scenario, small_stats):
        targets = targets_for(small_scenario, 1.0)
        res = solve_power_min(small_stats, targets, small_scenario)
        record = json.loads(json.dumps(res.to_json_dict()))
        assert record["status"] == "optimal"
        assert len(record["rho"]) == 4 and len(record["rho"][0]) == 6
        assert len(record["lambda"]) == 6 and len(record["mu"]) == 4
        assert len(record["serving_sets"]) == 6

    def test_serving_threshold(self, monkeypatch):
        scn, stats = random_drop(0, num_antennas=100, num_users=2)
        # user-major powers: user 0 gets 1 W from BS 0; user 1 gets 1e-9 W
        # from BS 0, which against its 40 W cap is dust, and real power from BSs 1, 2
        x = np.array([1.0, 0.0, 0.0, 0.0, 1e-9, 0.5, 1e-3, 0.0])
        sol = LpSolution(LpStatus.OPTIMAL, x=x, objective=float(x.sum()), duals=np.zeros(6))
        monkeypatch.setattr(power_assoc, "lp_solve", lambda lp, basis=None: sol)
        res = solve_power_min(stats, targets_for(scn), scn)
        assert np.array_equal(res.serving, [[True, False], [False, True], [False, True], [False, False]])
        assert res.to_json_dict()["serving_sets"] == [[0], [1, 2]]
        assert res.joint_fraction == 0.5


def assert_same_solution(lp, a, b):
    """Bit-equal optima; infeasible solves need only valid certificates,
    which depend on where the dual simplex started."""
    assert a.status == b.status
    if a.status == LpStatus.OPTIMAL:
        assert np.array_equal(a.x, b.x) and np.array_equal(a.duals, b.duals)
        assert a.objective == b.objective and np.array_equal(a.basis, b.basis)
    elif a.status == LpStatus.INFEASIBLE:
        for sol in (a, b):
            assert_farkas_certificate(lp.a_ub, lp.b_ub, sol.infeasibility_certificate)


class TestPolicyWarmStart:
    def test_warm_and_cold_solves_agree(self):
        """Every LP of three drops, joint and max-SNR, at SE 1.0 and at every
        max-min probe level: the max-SNR basis hint, the basis a shared
        feasibility bracket carries, the cold solve's own optimal basis (as
        given and permuted), a singular hint and a primal-infeasible hint all
        give the cold solve's bits. The hint puts each user on its max-SNR
        BS, and the simplex moves some joint optima off it."""
        antennas, k = (50, 100, 150, 200), DEFAULT_NUM_USERS
        rng = np.random.default_rng(0)
        cold_pivots = warm_pivots = guesses = carried = optimal = infeasible = moved = 0
        for _, scn0, stats in iter_drops(default_scenario(antennas[0], k, rng_seed=3), 3, 3):
            best = max_snr_mask(stats.beta)
            masks = (np.ones(stats.beta.shape, dtype=bool), best)
            brackets = (FeasibilityBracket(), FeasibilityBracket())
            for m in antennas:
                scn = scn0.with_antennas(m)
                for mask, bracket in zip(masks, brackets):
                    probes = solve_max_min(stats, scn, allowed=mask, bracket=bracket).trace
                    for xi in [1.0] + [p.candidate for p in probes]:
                        targets = QosTargets.uniform(xi, k, scn)
                        lp = build_lp(stats, targets, scn, mask)
                        guess = _max_snr_basis(stats, targets, mask)
                        # (user, BS) of each structural column of the guess
                        pairs = np.argwhere(mask.T)[guess[:k]]
                        assert np.array_equal(pairs, np.argwhere(best.T))
                        cold, warm = lp_solve(lp), lp_solve(lp, basis=guess)
                        assert_same_solution(lp, cold, warm)
                        assert_same_solution(lp, cold, lp_solve(lp, basis=bracket.basis))
                        cold_pivots += cold.iterations
                        warm_pivots += warm.iterations
                        guesses += guess is not None
                        carried += bracket.basis is not None
                        if cold.status == LpStatus.INFEASIBLE:
                            infeasible += 1
                            continue
                        optimal += 1
                        serving = solve_power_min(stats, targets, scn, mask).serving
                        moved += not np.array_equal(serving, best)
                        for hint in (cold.basis, rng.permutation(cold.basis)):
                            again = lp_solve(lp, basis=hint)
                            assert again.iterations == 0
                            assert_same_solution(lp, cold, again)
                        singular = cold.basis.copy()
                        singular[1] = singular[0]
                        all_slacks = lp.num_vars + np.arange(lp.num_rows)  # QoS slacks < 0
                        for hint in (singular, all_slacks):
                            fallback = lp_solve(lp, basis=hint)
                            assert fallback.iterations == cold.iterations
                            assert_same_solution(lp, cold, fallback)
        assert optimal and infeasible and guesses and carried and moved
        assert warm_pivots < cold_pivots  # the max-SNR hints were taken

    def test_no_guess_without_targets_or_allowed_bs(self, small_scenario, small_stats):
        targets = targets_for(small_scenario)
        mask = np.ones(small_stats.beta.shape, dtype=bool)
        assert _max_snr_basis(small_stats, targets, mask) is not None
        zero = QosTargets(xi=np.r_[0.0, targets.xi[1:]], xi_hat=np.r_[0.0, targets.xi_hat[1:]])
        assert _max_snr_basis(small_stats, zero, mask) is None
        # banning user 0's strongest BS puts it on its second strongest
        strongest, second = np.argsort(small_stats.beta[:, 0])[[-1, -2]]
        mask[strongest, 0] = False
        guess = _max_snr_basis(small_stats, targets, mask)
        assert tuple(np.argwhere(mask.T)[guess[0]]) == (0, second)
        mask[:, 0] = False
        assert _max_snr_basis(small_stats, targets, mask) is None
