import collections
import dataclasses
import json

import numpy as np
import pytest
from conftest import random_drop, single_cell, with_fields
from oracles import assert_farkas_certificate, max_snr_power_min, power_min_lp_rows

from mimopower import lp as lp_module
from mimopower import power_assoc
from mimopower.channel import ChannelStats
from mimopower.harness import (
    DECIDE_BAND,
    DEFAULT_NUM_USERS,
    HarnessInvariantError,
    check_solution_invariants,
    default_scenario,
    iter_drops,
    solve_drop,
)
from mimopower.lp import LpSolution, LpStatus
from mimopower.lp import solve as lp_solve
from mimopower.maxmin import DEFAULT_DELTA, solve_max_min
from mimopower.power_assoc import (
    DropLp,
    _b_mat,
    association_rule_check,
    build_lp,
    max_snr_mask,
    rule_reduced_costs,
    solve_power_min,
)
from mimopower.se import PowerAllocation, QosTargets, se_mrt_all


def targets_for(scenario, xi=1.0):
    return QosTargets.uniform(xi, scenario)


class TestBuildLp:
    def test_shape_contract(self, small_scenario, small_stats):
        lp = build_lp(DropLp(small_stats, small_scenario), targets_for(small_scenario), 64)
        assert lp.a_ub.shape == (6 + 4, 4 * 6)
        np.testing.assert_array_equal(lp.c, np.ones(24))

    def test_single_cell_specialization(self):
        scn, stats = single_cell(num_antennas=100)
        targets = targets_for(scn, 1.0)
        lp = build_lp(DropLp(stats, scn), targets, 100)
        b_expect = 100 * stats.gamma[0, 0] / targets.xi_hat[0]
        assert lp.a_ub.shape == (2, 1)
        assert lp.a_ub[0, 0] == pytest.approx(stats.beta[0, 0] - b_expect, rel=1e-15)
        assert lp.b_ub[0] == -scn.noise_dl
        assert lp.a_ub[1, 0] == 1.0 and lp.b_ub[1] == 40.0

    def test_b_vector_ties_to_estimation_quality(self, small_scenario, small_stats):
        targets = targets_for(small_scenario, 1.3)
        b_mat = _b_mat(small_stats, targets, small_scenario.num_antennas)
        np.testing.assert_allclose(
            b_mat * targets.xi_hat[:, None],
            small_scenario.num_antennas * small_stats.gamma.T,
            rtol=1e-15,
        )

    def test_negative_threshold_rejected(self, small_scenario):
        good = targets_for(small_scenario)
        xi_hat = good.xi_hat.copy()
        xi_hat[2] = -0.1
        with pytest.raises(ValueError, match="^SE targets must be positive$"):
            QosTargets(xi=good.xi, xi_hat=xi_hat)

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_and_mask_match_references(self, seed):
        scn, stats = random_drop(seed, num_antennas=80, num_users=7)
        rng = np.random.default_rng(seed)
        xi = rng.uniform(0.2, 2.0, scn.num_users)
        targets = QosTargets.from_se(xi, scn.coherence_length, scn.pilot_length)
        full = build_lp(DropLp(stats, scn), targets, scn.num_antennas)
        a_ref, b_ref = power_min_lp_rows(
            stats.beta, stats.gamma, targets.xi_hat, scn.num_antennas, scn.noise_dl, scn.pmax
        )
        assert np.array_equal(full.a_ub, a_ref) and np.array_equal(full.b_ub, b_ref)
        one_hot = max_snr_mask(stats.beta)
        for mask in (one_hot, (rng.random(stats.beta.shape) < 0.5) | one_hot, np.ones_like(one_hot)):
            lp = build_lp(DropLp(stats, scn, mask), targets, scn.num_antennas)
            assert np.array_equal(lp.a_ub, full.a_ub[:, mask.T.ravel()])
            assert np.array_equal(lp.b_ub, full.b_ub)
            assert np.array_equal(lp.c, full.c[mask.T.ravel()])

    def test_mask_must_be_l_by_k(self, small_scenario, small_stats):
        every_user_on_bs0 = np.zeros((6, 4), dtype=bool)
        every_user_on_bs0[:, 0] = True
        for mask in (every_user_on_bs0, np.ones((4, 5), dtype=bool)):
            with pytest.raises(ValueError, match=r"\(L, K\) = \(4, 6\)"):
                DropLp(small_stats, small_scenario, mask)
        user_3_unserved = np.ones((4, 6), dtype=bool)
        user_3_unserved[:, 3] = False
        with pytest.raises(ValueError, match="^allowed must grant every user at least one BS$"):
            DropLp(small_stats, small_scenario, user_3_unserved)

    def test_lp_and_targets_must_fit_the_drop(self, small_scenario, small_stats):
        """A scenario of another (L, K) than the stats, 8 users or 3 BSs
        against a 4-BS, 6-user drop, raises ValueError naming both shapes, and
        so do 8 users' targets on the drop's LP, whichever solve builds it.
        The right-hand side every LP of the drop shares is read-only."""
        eight_users = default_scenario(64, num_users=8, rng_seed=7)
        bs = small_scenario.bs_positions
        three_bs = dataclasses.replace(small_scenario, num_bs=3, bs_positions=bs[:3], pmax=small_scenario.pmax[:3])
        for scn, shape in ((eight_users, r"\(4, 8\)"), (three_bs, r"\(3, 6\)")):
            with pytest.raises(ValueError, match=rf"^the scenario's \(L, K\) = {shape} is not the stats' \(4, 6\)$"):
                DropLp(small_stats, scn)
        lp, targets = DropLp(small_stats, small_scenario), targets_for(eight_users)
        assert not lp.b.flags.writeable and build_lp(lp, targets_for(small_scenario), 64).b_ub is lp.b
        for solve in (build_lp, solve_power_min, power_assoc.power_min_at_basis):
            with pytest.raises(ValueError, match=r"^targets must be one per user, \(6,\), got \(8,\)$"):
                solve(lp, targets, 64)

    def test_int_mask_equals_bool_mask(self, small_scenario, small_stats):
        targets = targets_for(small_scenario, 0.5)
        mask = max_snr_mask(small_stats.beta)
        by_bool = solve_power_min(DropLp(small_stats, small_scenario, mask), targets, 64)
        by_int = solve_power_min(DropLp(small_stats, small_scenario, mask.astype(int)), targets, 64)
        assert by_bool.feasible and by_int.allowed.dtype == bool
        assert np.array_equal(by_int.allocation.rho, by_bool.allocation.rho)
        assert np.array_equal(by_int.qos_duals, by_bool.qos_duals)

    def test_all_false_mask(self, small_scenario, small_stats):
        with pytest.raises(ValueError, match="^allowed must grant every user at least one BS$"):
            DropLp(small_stats, small_scenario, np.zeros((4, 6), dtype=bool))

    @pytest.mark.parametrize("seed", range(3))
    def test_reused_template_matches_loop_oracle(self, seed):
        """One template per mask serves every LP of a sequence of targets at
        each antenna count: each LP is the loop-form oracle's on the mask's
        columns, so no LP leaks state (such as its own-power entries) into
        the next."""
        base, stats = random_drop(seed, num_antennas=50, num_users=7)
        rng = np.random.default_rng(seed)
        shape = stats.beta.shape
        one_hot = max_snr_mask(stats.beta)
        masks = (None, one_hot, (rng.random(shape) < 0.5) | one_hot)
        templates = [DropLp(stats, base, mask) for mask in masks]
        sequence = (rng.uniform(0.2, 2.0, shape[1]), rng.uniform(0.2, 2.0, shape[1]), np.ones(shape[1]))
        for m in (50, 100, 150, 200):
            for xi in sequence:
                targets = QosTargets.from_se(xi, base.coherence_length, base.pilot_length)
                a_ref, b_ref = power_min_lp_rows(
                    stats.beta, stats.gamma, targets.xi_hat, m, base.noise_dl, base.pmax
                )
                for mask, template in zip(masks, templates):
                    cols = np.ones(a_ref.shape[1], bool) if mask is None else mask.T.ravel()
                    lp = build_lp(template, targets, m)
                    assert np.array_equal(lp.c, np.ones(cols.sum()))
                    assert np.array_equal(lp.a_ub, a_ref[:, cols])
                    assert np.array_equal(lp.b_ub, b_ref)


class TestSingleUserAnalytic:
    def test_interior_optimum_matches_stationarity(self):
        scn, stats = single_cell(num_antennas=120, beta=3e-13)
        targets = targets_for(scn, 1.2)
        res = solve_power_min(DropLp(stats, scn), targets, 120)
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
        res = solve_power_min(DropLp(stats, scn), targets, 1)
        assert res.status == LpStatus.INFEASIBLE
        assert not res.feasible

    def test_association_rule_identity(self, monkeypatch):
        scn, stats = single_cell(num_antennas=120, beta=3e-13)
        targets = targets_for(scn, 1.2)
        res = solve_power_min(DropLp(stats, scn), targets, 120)
        monkeypatch.setattr(power_assoc, "ASSOCIATION_RULE_TOL", 1e-12)
        assert association_rule_check(stats, [res]) == [[]]


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
        res = solve_power_min(DropLp(stats2, scn2), targets, 100)
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

    def test_fixed_point_oracle_agrees_with_every_max_snr_cell(self):
        """Every max-SNR power-min cell ``solve_drop`` solves on 30 seed-17
        drops at M 50..200: the LP's verdict is the fixed point's
        (``oracles.max_snr_power_min``), and each feasible objective is
        sum(p*) to 1e-12 relative. It prints how far the cell closest to its
        feasibility boundary is from it."""
        base = default_scenario(50, DEFAULT_NUM_USERS, rng_seed=17)
        targets = QosTargets.uniform(1.0, base)
        antennas = (50, 100, 150, 200)
        verdicts, worst, closest = [], 0.0, np.inf
        for d, scn0, stats in iter_drops(base, 17, 30):
            cells = solve_drop(stats, scn0, antennas, "powermin", d, targets, DEFAULT_DELTA)
            for m, (_, snr) in zip(antennas, cells):
                p, margin = max_snr_power_min(stats, dataclasses.replace(scn0, num_antennas=m), targets)
                verdicts.append((snr.feasible, p is not None and margin >= 0.0))
                closest = min(closest, abs(margin))
                if snr.feasible:
                    worst = max(worst, abs(snr.objective - p.sum()) / p.sum())
        feasible = sum(lp for lp, _ in verdicts)
        print(f"max-SNR fixed point: {len(verdicts)} cells, {feasible} feasible, objectives to {worst:.1e}, closest cell {closest:.1%} from its boundary")
        assert all(lp == fixed for lp, fixed in verdicts)
        assert 0 < feasible < len(verdicts) and worst <= 1e-12

    def test_single_bs_equals_optimal(self):
        scn, stats = single_cell(num_antennas=100, num_users=3, rng_seed=4)
        targets = targets_for(scn, 0.8)
        a = solve_power_min(DropLp(stats, scn), targets, 100)
        b = solve_power_min(DropLp(stats, scn, max_snr_mask(stats.beta)), targets, 100)
        assert a.feasible and b.feasible
        assert a.objective == pytest.approx(b.objective, rel=1e-9)

    def test_restriction_never_beats_optimum(self):
        for seed in range(8):
            scn, stats = random_drop(seed, num_antennas=100, num_users=8)
            targets = targets_for(scn, 1.0)
            opt = solve_power_min(DropLp(stats, scn), targets, 100)
            snr = solve_power_min(DropLp(stats, scn, max_snr_mask(stats.beta)), targets, 100)
            if snr.feasible:
                assert opt.feasible  # feasible-set inclusion
                assert opt.objective <= snr.objective * (1 + 1e-9)
                best = max_snr_mask(stats.beta)
                assert np.array_equal(snr.allowed, best)
                assert not np.any(snr.serving & ~best)

    def test_rule_checked_over_the_mask(self):
        scn, stats = random_drop(3, num_antennas=100, num_users=8)
        targets = targets_for(scn, 1.0)
        snr = solve_power_min(DropLp(stats, scn, max_snr_mask(stats.beta)), targets, 100)
        assert snr.feasible
        assert association_rule_check(stats, [snr]) == [[]]
        snr.qos_duals[2] *= 1.0 + 1e-3
        [violations] = association_rule_check(stats, [snr])
        assert (2, -1) in {(t, i) for t, i, _ in violations}

    def test_serving_bs_off_the_minimum_is_listed(self):
        scn, stats = random_drop(3, num_antennas=100, num_users=8)
        targets = targets_for(scn, 1.0)
        res = solve_power_min(DropLp(stats, scn), targets, 100)
        assert res.feasible
        assert association_rule_check(stats, [res]) == [[]]
        price = 1.0 + stats.beta @ res.qos_duals + res.power_duals
        ratio = price[:, None] / _b_mat(stats, targets, scn.num_antennas).T
        gap = ratio / ratio.min(axis=0) - 1.0
        # the runner-up pair: the smallest gap of a BS that serves nobody
        i, t = np.unravel_index(np.argmin(np.where(res.serving, np.inf, gap)), gap.shape)
        assert not res.serving[i, t] and gap[i, t] > power_assoc.ASSOCIATION_RULE_TOL
        res.serving[i, t] = True
        [violations] = association_rule_check(stats, [res])
        assert [(u, b) for u, b, _ in violations] == [(t, i)]
        assert violations[0][2] == pytest.approx(gap[i, t], rel=1e-9)


def record_simplex_solutions(monkeypatch) -> list:
    """Patch the simplex behind every power-min solve; the returned list
    grows by each solve's LpSolution."""
    solutions = []
    real = power_assoc.lp_solve

    def recording(program, basis=None):
        solutions.append(real(program, basis=basis))
        return solutions[-1]

    monkeypatch.setattr(power_assoc, "lp_solve", recording)
    return solutions


def basis_decisions(stats, scn0, antennas, cells, targets, simplex) -> list:
    """How ``solve_drop`` settled each (joint, max-SNR) pair of ``cells``:
    "simplex", or the status a cell was decided at its max-SNR basis. Each
    decided cell is checked against ``lp.solve`` of the same program from
    the same hint, with no pivot: the same status and, when OPTIMAL, the
    bits of the sorted basis, x, the duals and the objective."""
    solved = {id(sol) for sol in simplex}
    decisions = []
    for m, pair in zip(antennas, cells):
        how = []
        for mask, res in zip((None, max_snr_mask(stats.beta)), pair):
            if id(res.solution) in solved:
                how.append("simplex")
                continue
            how.append(res.status.value)
            drop_lp = DropLp(stats, scn0, mask)
            ref = lp_module.solve(build_lp(drop_lp, targets, m), basis=drop_lp.basis)
            assert ref.status == res.status, (m, mask is None)
            if ref.status == LpStatus.OPTIMAL:
                assert ref.iterations == 0 and np.array_equal(ref.basis, res.basis)
                assert np.array_equal(ref.x, res.solution.x) and np.array_equal(ref.duals, res.solution.duals)
                assert ref.objective == res.objective
        decisions.append(tuple(how))
    return decisions


class TestMaxSnrBasisDecisions:
    """``solve_drop`` decides power-min cells at the max-SNR basis where the
    sign of the basic solution and the association rule settle them; each
    such verdict must be the simplex's, bit for bit."""

    def test_rule_reduced_costs_are_the_joint_lp_reduced_costs(self):
        """r[i, t] of ``rule_reduced_costs`` at a joint optimum's duals is
        c + A^T y of ``build_lp``'s program at column (i, t), to roundoff:
        nonnegative, and zero where the power is basic."""
        base = default_scenario(100, DEFAULT_NUM_USERS, rng_seed=17)
        targets = QosTargets.uniform(1.0, base)
        checked = 0
        for _, scn, stats in iter_drops(base, 17, 5):
            res = solve_power_min(DropLp(stats, scn), targets, 100)
            if not res.feasible:
                continue
            program = build_lp(DropLp(stats, scn), targets, 100)
            expected = program.c + program.a_ub.T @ res.solution.duals  # user-major columns
            reduced = rule_reduced_costs(stats, [res])[0]
            np.testing.assert_allclose(reduced.T.ravel(), expected, rtol=0.0, atol=1e-9)
            assert reduced.min() >= -1e-9 and np.abs(reduced.T.ravel()[res.basis[res.basis < reduced.size]]).max() <= 1e-9
            checked += 1
        assert checked

    @pytest.mark.parametrize("target_se", [1.0, 2.0])
    def test_basis_decisions_are_the_simplex_verdicts(self, target_se, monkeypatch):
        """30 seed-17 drops and 10 drops each of seeds 1-3, M 50..200: every
        cell decided without the simplex matches ``lp.solve`` (see
        ``basis_decisions``), every max-SNR verdict is the fixed point's
        (``oracles.max_snr_power_min``), and the sweep holds rule-decided
        joint cells, rule failures and infeasible max-SNR cells."""
        antennas = (50, 100, 150, 200)
        simplex = record_simplex_solutions(monkeypatch)
        decisions = collections.Counter()
        for seed, num_drops in ((17, 30), (1, 10), (2, 10), (3, 10)):
            base = default_scenario(antennas[0], DEFAULT_NUM_USERS, rng_seed=seed)
            targets = QosTargets.uniform(target_se, base)
            for d, scn0, stats in iter_drops(base, seed, num_drops):
                simplex.clear()
                cells = solve_drop(stats, scn0, antennas, "powermin", d, targets, DEFAULT_DELTA)
                decisions.update(basis_decisions(stats, scn0, antennas, cells, targets, simplex))
                for m, (_, snr) in zip(antennas, cells):
                    p, margin = max_snr_power_min(stats, dataclasses.replace(scn0, num_antennas=m), targets)
                    assert snr.feasible == (p is not None and margin >= 0.0)
        print(f"SE {target_se}: (joint, max-SNR) decisions {dict(decisions)}")
        assert decisions[("optimal", "optimal")] and decisions[("simplex", "optimal")]
        assert decisions[("simplex", "infeasible")]

    @pytest.mark.parametrize("slack", [-1e-4, -5e-10, 5e-10, 1e-4])
    def test_a_cell_at_its_cap_is_left_to_the_simplex(self, slack, monkeypatch):
        """A feasible max-SNR cell (seed 17, M = 100) whose most loaded BS
        has its cap moved to that BS's load at p* plus ``slack``: a slack
        inside ``DECIDE_BAND`` leaves both cells to the simplex, which
        accepts a cap slack down to -lp.FEAS_TOL; outside it the sign of the
        slack decides the max-SNR cell, as ``lp.solve`` does."""
        base = default_scenario(100, DEFAULT_NUM_USERS, rng_seed=17)
        targets = QosTargets.uniform(1.0, base)
        d, scn, stats = next(
            (d, scn, stats)
            for d, scn, stats in iter_drops(base, 17, 30)
            if max_snr_power_min(stats, scn, targets)[1] > 0.05
        )
        p, _ = max_snr_power_min(stats, scn, targets)
        load = np.bincount(np.argmax(stats.beta, axis=0), weights=p, minlength=scn.num_bs)
        pmax = scn.pmax.copy()
        pmax[np.argmax(load)] = load.max() + slack
        scn = dataclasses.replace(scn, pmax=pmax)
        simplex = record_simplex_solutions(monkeypatch)
        cells = solve_drop(stats, scn, (100,), "powermin", d, targets, DEFAULT_DELTA)
        [(joint, snr)] = basis_decisions(stats, scn, (100,), cells, targets, simplex)
        if abs(slack) < DECIDE_BAND:
            assert (joint, snr) == ("simplex", "simplex")
        else:
            assert snr == ("optimal" if slack > 0 else "infeasible")

class TestSolutionContracts:
    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_drops_meet_all_invariants(self, seed):
        scn, stats = random_drop(seed, num_antennas=120, num_users=10)
        targets = targets_for(scn, 1.0)
        res = solve_power_min(DropLp(stats, scn), targets, 120)
        if not res.feasible:
            pytest.skip("infeasible drop")
        # power caps, QoS attainment and binding, association rule over the mask
        snr = solve_power_min(DropLp(stats, scn, max_snr_mask(stats.beta)), targets, 120)
        published = [(mask, solved) for mask, solved in (("joint", res), ("max_snr", snr)) if solved.feasible]
        check_solution_invariants(stats, scn, published)
        for _, solved in published:
            # duals are sign-correct
            assert np.all(solved.qos_duals >= -1e-12)
            assert np.all(solved.power_duals >= -1e-12)

    def test_se_shortfall_above_1e9_is_caught(self, small_scenario, small_stats):
        # powers scaled by 1 - 1e-7 keep the caps and miss the SE targets by
        # 4.1e-8: the SE floor, not the binding check, names the fault
        res = solve_power_min(DropLp(small_stats, small_scenario), targets_for(small_scenario, 0.5), 64)
        assert res.feasible
        check_solution_invariants(small_stats, small_scenario, [("joint", res)])
        short = with_fields(res, allocation=PowerAllocation(res.allocation.rho * (1.0 - 1e-7)))
        se = se_mrt_all(small_stats, short.allocation, small_scenario)
        assert 1e-9 < (res.targets.xi - se).max() < 1e-7
        with pytest.raises(HarnessInvariantError, match="^M=64, joint: achieved SE fell below its target$"):
            check_solution_invariants(small_stats, small_scenario, [("joint", short)])

    def test_joint_user_without_a_binding_cap_is_caught(self, small_scenario, small_stats):
        # at SE 0.5 every cap slack is basic, so each user has one serving BS;
        # a second one for user 0 breaks both basis bounds, and moving user
        # 1's BS to user 0 keeps the pair count and breaks the joint bound
        res = solve_power_min(DropLp(small_stats, small_scenario), targets_for(small_scenario, 0.5), 64)
        assert res.feasible and np.isin(24 + 6 + np.arange(4), res.basis).all()
        assert (res.serving.sum(axis=0) == 1).all()
        check_solution_invariants(small_stats, small_scenario, [("joint", res)])
        second = np.flatnonzero(~res.serving[:, 0])[0]
        added = res.serving.copy()
        added[second, 0] = True
        moved = added.copy()
        moved[:, 1] = False
        for serving in (added, moved):
            edited = with_fields(res, serving=serving)
            with pytest.raises(HarnessInvariantError, match="^M=64, joint: joint transmission beyond the binding caps"):
                check_solution_invariants(small_stats, small_scenario, [("joint", edited)])

    def test_result_record_is_json_ready(self, small_scenario, small_stats):
        targets = targets_for(small_scenario, 1.0)
        res = solve_power_min(DropLp(small_stats, small_scenario), targets, 64)
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
        sol = with_fields(LpSolution(LpStatus.OPTIMAL), x=x, objective=float(x.sum()), duals=np.zeros(6))
        monkeypatch.setattr(power_assoc, "lp_solve", lambda lp, basis=None: sol)
        res = solve_power_min(DropLp(stats, scn), targets_for(scn), 100)
        assert np.array_equal(res.serving, [[True, False], [False, True], [False, True], [False, False]])
        assert res.to_json_dict()["serving_sets"] == [[0], [1, 2]]
        assert res.joint_fraction == 0.5

    def test_infeasible_result_keeps_its_farkas_certificate(self):
        """An infeasible solve's certificate proves ``build_lp``'s program
        empty; the JSON record stays the bare status, and a feasible solve
        has no certificate."""
        base = default_scenario(50, DEFAULT_NUM_USERS, rng_seed=17)
        targets = QosTargets.uniform(1.0, base)
        infeasible = feasible = 0
        for _, scn, stats in iter_drops(base, 17, 6):
            for mask in (None, max_snr_mask(stats.beta)):
                res = solve_power_min(DropLp(stats, scn, mask), targets, 50)
                if res.feasible:
                    feasible += 1
                    assert res.infeasibility_certificate is None
                    continue
                infeasible += 1
                program = build_lp(DropLp(stats, scn, mask), targets, 50)
                assert_farkas_certificate(program.a_ub, program.b_ub, res.infeasibility_certificate)
                assert res.to_json_dict() == {"status": "infeasible"}
        assert feasible and infeasible


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


class TestStartBasis:
    def test_warm_and_cold_solves_agree(self):
        """Every LP of three drops, joint and max-SNR, at SE 1.0 and at every
        max-min probe level: a fresh ``DropLp``'s max-SNR basis, the basis a
        ``DropLp`` shared by the bisections carries, the cold solve's own
        optimal basis (as given and permuted), a singular hint and a
        primal-infeasible hint all give the cold solve's bits. The max-SNR
        basis puts each user on its max-SNR BS, and the simplex moves some
        joint optima off it."""
        antennas, k = (50, 100, 150, 200), DEFAULT_NUM_USERS
        rng = np.random.default_rng(0)
        cold_pivots = warm_pivots = carried = optimal = infeasible = moved = 0
        for _, scn0, stats in iter_drops(default_scenario(antennas[0], k, rng_seed=3), 3, 3):
            best = max_snr_mask(stats.beta)
            masks = (np.ones(stats.beta.shape, dtype=bool), best)
            shared_lps = tuple(DropLp(stats, scn0, mask) for mask in masks)
            for m in antennas:
                for mask, shared in zip(masks, shared_lps):
                    probes = solve_max_min(shared, m).trace
                    for xi in [1.0] + [p.candidate for p in probes]:
                        targets = QosTargets.uniform(xi, scn0)
                        lp = build_lp(DropLp(stats, scn0, mask), targets, m)
                        guess = DropLp(stats, scn0, mask).basis
                        # (user, BS) of each structural column of the guess
                        pairs = np.argwhere(mask.T)[guess[:k]]
                        assert np.array_equal(pairs, np.argwhere(best.T))
                        cold, warm = lp_solve(lp), lp_solve(lp, basis=guess)
                        assert_same_solution(lp, cold, warm)
                        assert_same_solution(lp, cold, lp_solve(lp, basis=shared.basis))
                        cold_pivots += cold.iterations
                        warm_pivots += warm.iterations
                        carried += not np.array_equal(shared.basis, guess)
                        if cold.status == LpStatus.INFEASIBLE:
                            infeasible += 1
                            continue
                        optimal += 1
                        serving = solve_power_min(DropLp(stats, scn0, mask), targets, m).serving
                        moved += not np.array_equal(serving, best)
                        for hint in (cold.basis, rng.permutation(cold.basis)):
                            again = lp_solve(lp, basis=hint)
                            assert again.iterations == 0
                            assert_same_solution(lp, cold, again)
                        singular = cold.basis.copy()
                        singular[1] = singular[0]
                        all_slacks = lp.a_ub.shape[1] + np.arange(lp.a_ub.shape[0])  # QoS slacks < 0
                        for hint in (singular, all_slacks):
                            fallback = lp_solve(lp, basis=hint)
                            assert fallback.iterations == cold.iterations
                            assert_same_solution(lp, cold, fallback)
        assert optimal and infeasible and carried and moved
        assert warm_pivots < cold_pivots  # the max-SNR hints were taken

    def test_power_min_does_not_depend_on_history(self):
        """A power-min solve at SE 1 on a ``DropLp`` whose bisections moved
        its basis gives, bit for bit, the result of a solve on a fresh one."""
        k = DEFAULT_NUM_USERS
        feasible = moved = 0
        for _, scn0, stats in iter_drops(default_scenario(50, k, rng_seed=3), 3, 3):
            for mask in (None, max_snr_mask(stats.beta)):
                shared = DropLp(stats, scn0, mask)
                for m in (50, 100, 150, 200):
                    solve_max_min(shared, m)
                    fresh = DropLp(stats, scn0, mask)
                    moved += not np.array_equal(shared.basis, fresh.basis)
                    targets = QosTargets.uniform(1.0, scn0)
                    after = solve_power_min(shared, targets, m)
                    clean = solve_power_min(fresh, targets, m)
                    assert after.status == clean.status
                    if not clean.feasible:
                        continue
                    feasible += 1
                    assert np.array_equal(after.allocation.rho, clean.allocation.rho)
                    assert np.array_equal(after.qos_duals, clean.qos_duals)
                    assert np.array_equal(after.power_duals, clean.power_duals)
                    assert after.objective == clean.objective
                    assert np.array_equal(after.basis, clean.basis)
        assert feasible and moved

    def test_start_basis_for_every_accepted_mask(self, small_scenario, small_stats):
        """The start basis exists for every mask ``DropLp`` accepts; a zero
        target or a user with no allowed BS is rejected before any solve."""
        targets = targets_for(small_scenario)
        mask = np.ones(small_stats.beta.shape, dtype=bool)
        start = DropLp(small_stats, small_scenario, mask).basis
        assert np.array_equal(start[6:], 24 + 6 + np.arange(4))  # every cap slack
        with pytest.raises(ValueError, match="^SE targets must be positive$"):
            QosTargets(xi=np.r_[0.0, targets.xi[1:]], xi_hat=np.r_[0.0, targets.xi_hat[1:]])
        # banning user 0's strongest BS puts it on its second strongest
        strongest, second = np.argsort(small_stats.beta[:, 0])[[-1, -2]]
        mask[strongest, 0] = False
        start = DropLp(small_stats, small_scenario, mask).basis
        assert tuple(np.argwhere(mask.T)[start[0]]) == (0, second)
        mask[:, 0] = False
        with pytest.raises(ValueError, match="^allowed must grant every user at least one BS$"):
            DropLp(small_stats, small_scenario, mask)
