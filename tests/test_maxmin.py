import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from conftest import max_snr_lp_feasible, random_drop, record_max_snr_bisections, single_cell, with_fields
from oracles import max_min_sinr

from mimopower import harness, maxmin, power_assoc
from mimopower import lp as lp_module
from mimopower.channel import ChannelStats
from mimopower.harness import (
    DEFAULT_NUM_USERS,
    SweepSpec,
    check_solution_invariants,
    default_scenario,
    iter_drops,
    run_sweep,
    solve_drop,
)
from mimopower.lp import LpSolution, LpStatus
from mimopower.maxmin import (
    DEFAULT_DELTA,
    MIN_DELTA,
    auto_upper_bound,
    expected_iterations,
    max_snr_scale,
    solve_max_min,
)
from mimopower.power_assoc import DropLp, PowerMinResult, max_snr_mask, solve_power_min
from mimopower.se import PowerAllocation, QosTargets, se_mrt_all, spectral_efficiency


class TestAutoUpperBound:
    def test_vanishing_estimation_quality_gives_zero(self):
        scn, stats = single_cell(num_antennas=100)
        dead = ChannelStats(beta=stats.beta, gamma=np.full_like(stats.beta, 1e-300))
        assert auto_upper_bound(DropLp(dead, scn), np.ones(1), 100) < 1e-250

    def test_doubling_weights_halves_bound(self, small_scenario, small_stats):
        w = np.ones(6)
        b1 = auto_upper_bound(DropLp(small_stats, small_scenario), w, 64)
        b2 = auto_upper_bound(DropLp(small_stats, small_scenario), 2 * w, 64)
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_bound_exceeds_achievable_level(self, small_scenario, small_stats):
        lp = DropLp(small_stats, small_scenario)
        bound, res = auto_upper_bound(lp, np.ones(6), 64), solve_max_min(lp, 64)
        assert bound > res.xi_lower

    def test_noise_dominated_single_user_is_tight(self):
        # with a channel weak enough that own-beam interference is negligible,
        # the interference-free bound coincides with the full-power optimum
        scn, stats = single_cell(num_antennas=64, beta=1e-17)
        m, beta, gamma = 64, stats.beta[0, 0], stats.gamma[0, 0]
        sinr_full = m * 40.0 * gamma / (40.0 * beta + scn.noise_dl)
        xi_star = float(spectral_efficiency(sinr_full, scn.coherence_length, scn.pilot_length))
        bound = auto_upper_bound(DropLp(stats, scn), np.ones(1), m)
        assert bound == pytest.approx(xi_star, rel=5e-3)
        assert bound > xi_star  # still a strict upper bound
        res = solve_max_min(DropLp(stats, scn), m, delta=1e-6)
        assert res.xi_lower <= xi_star <= res.xi_upper


class TestBisection:
    def test_iteration_count_matches_formula(self):
        for seed in range(5):
            scn, stats = random_drop(seed, num_antennas=100, num_users=6)
            res = solve_max_min(DropLp(stats, scn), 100)
            bound = auto_upper_bound(DropLp(stats, scn), np.ones(6), 100)
            assert res.iterations == expected_iterations(bound, 0.01)
            assert res.xi_upper - res.xi_lower <= 0.01

    @pytest.mark.parametrize("delta", [1.0, 0.1, 0.01, 1e-4])
    def test_probe_count_is_expected_iterations(self, delta):
        scn, stats = random_drop(3, num_antennas=100, num_users=6)
        upper0 = auto_upper_bound(DropLp(stats, scn), np.ones(6), 100)
        res = solve_max_min(DropLp(stats, scn), 100, delta=delta)
        assert res.iterations == len(res.trace) == expected_iterations(upper0, delta) > 0
        assert res.xi_upper - res.xi_lower <= delta

    def test_delta_at_or_above_the_bound_probes_nothing(self, monkeypatch):
        scn, stats = random_drop(3, num_antennas=100, num_users=6)
        upper0 = auto_upper_bound(DropLp(stats, scn), np.ones(6), 100)
        solves = count_lp_solves(monkeypatch)
        for delta in (upper0, 2.0 * upper0):
            res = solve_max_min(DropLp(stats, scn), 100, delta=delta)
            assert res.iterations == 0 and res.trace == []
            assert res.xi_lower == 0.0 and res.xi_upper == upper0
            assert res.last_feasible is None
        assert solves == []

    def test_interval_monotone_and_consistent(self):
        scn, stats = random_drop(11, num_antennas=100, num_users=6)
        res = solve_max_min(DropLp(stats, scn), 100)
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
        res = solve_max_min(DropLp(stats, scn), 100)
        se = se_mrt_all(stats, res.last_feasible.allocation, scn)
        assert np.all(se >= res.xi_lower - 1e-9)
        # with unit weights the worst user sits inside the final interval
        assert res.xi_lower - 1e-9 <= se.min() <= res.xi_upper + 1e-9

    def test_single_user_power_constraint_binds(self):
        scn, stats = single_cell(num_antennas=64, beta=2e-13)
        res = solve_max_min(DropLp(stats, scn), 64, delta=0.01)
        m, beta, gamma = 64, stats.beta[0, 0], stats.gamma[0, 0]
        sinr_full = m * 40.0 * gamma / (40.0 * beta + scn.noise_dl)
        xi_star = float(
            spectral_efficiency(sinr_full, scn.coherence_length, scn.pilot_length)
        )
        # the full-power optimum sits in the final interval
        assert res.xi_lower <= xi_star + 1e-12 <= res.xi_upper + 1e-12

        def rho_needed(xi):
            xh = QosTargets.from_se(xi, scn.coherence_length, scn.pilot_length).xi_hat[0]
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
        opt = solve_max_min(DropLp(stats, scn), 100)
        snr = solve_max_min(DropLp(stats, scn, max_snr_mask(stats.beta)), 100)
        assert opt.xi_lower >= snr.xi_lower - 0.01 - 1e-12
        assert np.array_equal(snr.last_feasible.allowed, max_snr_mask(stats.beta))

    def test_weighted_allocation_passes_the_invariant_checks(self):
        """A weighted bisection's published allocation is checked at its own
        targets w * xi_lower, which it carries, under both masks."""
        scn, stats = random_drop(5, num_antennas=100, num_users=DEFAULT_NUM_USERS)
        weights = np.linspace(0.5, 2.0, scn.num_users)
        for name, mask in (("joint", None), ("max_snr", max_snr_mask(stats.beta))):
            res = solve_max_min(DropLp(stats, scn, mask), 100, weights=weights)
            assert res.last_feasible is not None
            assert np.array_equal(res.last_feasible.targets.xi, weights * res.xi_lower)
            check_solution_invariants(stats, scn, [(name, res.last_feasible)])

    def test_trace_is_json_lines_ready(self):
        scn, stats = random_drop(15, num_antennas=64, num_users=4)
        res = solve_max_min(DropLp(stats, scn), 64, delta=0.2)
        lines = [json.dumps(asdict(p)) for p in res.trace]
        assert len(lines) == res.iterations
        parsed = json.loads(lines[0])
        assert {"iteration", "candidate", "feasible", "lower", "upper"} <= parsed.keys()

    def test_config_validation(self, small_scenario, small_stats):
        lp = DropLp(small_stats, small_scenario)
        for delta in (0.0, np.nan):
            with pytest.raises(ValueError, match="delta must be positive"):
                solve_max_min(lp, 64, delta=delta)
        with pytest.raises(ValueError, match="delta must be finite"):
            solve_max_min(lp, 64, delta=np.inf)
        with pytest.raises(ValueError, match="delta must be at least 1e-09 bit/symbol"):
            solve_max_min(lp, 64, delta=0.5 * MIN_DELTA)
        for weights in (np.zeros(6), np.r_[np.ones(5), np.nan], np.ones(8), np.ones(1)):
            with pytest.raises(ValueError, match=r"^weights must be strictly positive, one per user \(6\)$"):
                solve_max_min(lp, 64, weights=weights)

    def test_expected_iterations_formula(self):
        assert expected_iterations(1.0, 2.0) == 0
        assert expected_iterations(1.0, 1.0) == 0
        assert expected_iterations(1.0, 0.25) == 2
        assert expected_iterations(10.0, 0.01) == 10


def count_lp_solves(monkeypatch) -> list:
    """Patch the LP solve behind every power-min solve; the returned list grows by
    one entry per solve."""
    calls = []
    real = power_assoc.lp_solve

    def counting(lp, basis=None):
        calls.append(lp)
        return real(lp, basis=basis)

    monkeypatch.setattr(power_assoc, "lp_solve", counting)
    return calls


def count_vertex_reads(monkeypatch) -> list:
    """Patch the refined solve behind every vertex readout; the returned list
    grows by the number of vertices of each stacked refined solve, two
    entries per readout (x, then the duals)."""
    calls = []
    real = lp_module._refined_solve

    def counting(mat, rhs):
        calls.append(len(rhs))
        return real(mat, rhs)

    monkeypatch.setattr(lp_module, "_refined_solve", counting)
    return calls


def record_lp_solutions(monkeypatch) -> list:
    """Patch the LP solve behind every power-min solve; the returned list
    grows by each solve's LpSolution."""
    solutions = []
    real = power_assoc.lp_solve

    def recording(lp, basis=None):
        solutions.append(real(lp, basis=basis))
        return solutions[-1]

    monkeypatch.setattr(power_assoc, "lp_solve", recording)
    return solutions


class TestVertexReadout:
    """A probe pays for its verdict only: no probe reads a vertex."""

    def test_a_bisection_reads_only_its_published_vertex(self, monkeypatch):
        """Every bisection of a small sweep, both masks, through ``solve_drop``:
        the probes read no vertex, and each drop reads exactly one per
        published allocation, that of the last OPTIMAL LP (the last feasible
        probe, or the re-solve at a level the bracket answered), all in one
        stacked readout."""
        reads = count_vertex_reads(monkeypatch)
        solutions = record_lp_solutions(monkeypatch)
        answers = []  # the bracket's answer to each probe, None for an LP
        real_lookup = DropLp.lookup

        def lookup(lp, s):
            answers.append(real_lookup(lp, s))
            return answers[-1]

        monkeypatch.setattr(DropLp, "lookup", lookup)
        published = feasible_lps = resolves = 0
        real_max_min = maxmin.solve_max_min

        def bisection(lp, num_antennas, weights=None, delta=DEFAULT_DELTA):
            nonlocal published, feasible_lps, resolves
            first, answered = len(solutions), len(answers)
            res = real_max_min(lp, num_antennas, weights, delta)
            assert reads == []  # no probe read its vertex
            optimal = [sol for sol in solutions[first:] if sol.status == LpStatus.OPTIMAL]
            feasible_lps += len(optimal)
            if res.last_feasible is not None:
                published += 1
                assert res.last_feasible.solution is optimal[-1]
                last = max(i for i, p in enumerate(res.trace) if p.feasible)
                resolves += answers[answered + last] is True
            return res

        monkeypatch.setattr(harness, "solve_max_min", bisection)
        base = default_scenario(50, DEFAULT_NUM_USERS, rng_seed=17)
        for d, scn0, stats in iter_drops(base, 17, 3):
            before = published
            solve_drop(stats, scn0, (50, 100, 150, 200), "maxmin", d, None, DEFAULT_DELTA)
            assert reads == [published - before] * 2  # one stack: x, then the duals
            reads.clear()
        # every cell published both allocations, some from a re-solve, and
        # some feasible LP's vertex went unread
        assert published == 2 * 3 * 4 and resolves and feasible_lps > published

    def test_a_level_zero_bisection_reads_no_vertex(self, monkeypatch):
        # at M = 10 this drop's max-min level is below half its upper bound,
        # so the one probe a delta of 0.6 times the bound makes is infeasible
        _, scn, stats = next(iter_drops(default_scenario(10, rng_seed=17), 17, 1))
        reads = count_vertex_reads(monkeypatch)
        solves = count_lp_solves(monkeypatch)
        lp = DropLp(stats, scn)
        res = solve_max_min(lp, 10, delta=0.6 * auto_upper_bound(lp, np.ones(scn.num_users), 10))
        assert res.last_feasible is None and res.xi_lower == 0.0
        assert len(solves) == 1 and reads == []

    def test_a_powermin_cell_reads_one_vertex_per_feasible_solve(self, monkeypatch):
        """Each drop reads its max-SNR cells at their basis in one stacked
        readout, which decides them, then the vertices of its other feasible
        results, and only those, in one more: the first stack's OPTIMAL
        verdicts are not read again."""
        reads = count_vertex_reads(monkeypatch)
        solutions = record_lp_solutions(monkeypatch)
        base = default_scenario(50, DEFAULT_NUM_USERS, rng_seed=17)
        targets = QosTargets.uniform(1.0, base)
        feasible = infeasible = read_again = 0
        for d, scn0, stats in iter_drops(base, 17, 4):
            cells = solve_drop(stats, scn0, (50, 200), "powermin", d, targets, DEFAULT_DELTA)
            n = sum(res.feasible for pair in cells for res in pair)
            decided = [snr for _, snr in cells if snr.feasible and not any(snr.solution is s for s in solutions)]
            rest = n - len(decided)
            assert reads == [len(cells)] * 2 + [rest] * 2 * (rest > 0)
            reads.clear()
            feasible += n
            infeasible += 2 * len(cells) - n
            read_again += rest
        assert feasible and infeasible and read_again


def test_stacked_readout_has_the_bits_of_the_first_read(monkeypatch):
    """Every optimal solve of a small seed-17 sweep, both modes, and every
    program a power-min cell was read at without the simplex, solved from
    its hint and read in stacks of 1, 2 and 8 by ``lp.read_vertices``
    (joint and max-SNR LPs mixed): x, the duals and the objective have the
    bits of the solution's first read on its own, and the stack stores them
    as that read. A vertex read once is not solved again."""
    solves = []
    real, real_at_basis = power_assoc.lp_solve, power_assoc.at_basis

    def recording(program, basis=None):
        solves.append((program, None if basis is None else np.array(basis)))
        return real(program, basis=basis)

    def recording_at_basis(program, basis):
        solves.append((program, np.array(basis)))
        return real_at_basis(program, basis)

    monkeypatch.setattr(power_assoc, "lp_solve", recording)
    monkeypatch.setattr(power_assoc, "at_basis", recording_at_basis)
    for mode in ("powermin", "maxmin"):
        run_sweep(SweepSpec((50, 100, 150, 200), mode, num_drops=5, rng_seed=17))
    monkeypatch.undo()

    def fresh():
        sols = (lp_module.solve(program, basis=basis) for program, basis in solves)
        return [sol for sol in sols if sol.status == LpStatus.OPTIMAL]

    first = [(sol.x, sol.duals, sol.objective) for sol in fresh()]
    assert len(first) > 80
    for k in (1, 2, 8):
        sols = fresh()
        for i in range(0, len(sols), k):
            lp_module.read_vertices(sols[i : i + k])
        for (x, duals, objective), sol in zip(first, sols, strict=True):
            assert np.array_equal(sol.x, x) and np.array_equal(sol.duals, duals)
            assert sol.objective == objective
    reads = count_vertex_reads(monkeypatch)
    stored = [(sol.x, sol.duals) for sol in sols]
    lp_module.read_vertices(sols[:8])
    assert reads == [] and all(sol.x is x and sol.duals is y for sol, (x, y) in zip(sols, stored))


def test_lazy_fields_are_cached_and_keep_what_is_set(monkeypatch):
    """The lazy fields, each a ``functools.cached_property``: a result read
    twice gives the same ``allocation`` and ``serving`` objects and only the
    first read solves; a field set before the first read is kept, by
    ``read_vertices`` too; an infeasible result reads None for every vertex
    field. ``qos_duals`` and ``power_duals`` are views of
    ``solution.duals``, and the package never writes through them: with
    every vertex read-only, sweeps in both modes run."""
    base = default_scenario(200, DEFAULT_NUM_USERS, rng_seed=17)
    _, scn, stats = next(iter_drops(base, 17, 1))
    lp, targets = DropLp(stats, scn), QosTargets.uniform(1.0, base)
    reads = count_vertex_reads(monkeypatch)
    res = solve_power_min(lp, targets, 200)
    assert res.feasible and reads == []
    allocation, serving = res.allocation, res.serving
    assert reads == [1, 1]
    assert res.allocation is allocation and res.serving is serving and reads == [1, 1]
    assert np.shares_memory(res.qos_duals, res.solution.duals)
    assert np.shares_memory(res.power_duals, res.solution.duals)

    injected = PowerAllocation(np.zeros_like(allocation.rho))
    edited = with_fields(solve_power_min(lp, targets, 200), allocation=injected)
    lp_module.read_vertices([edited.solution])
    assert edited.allocation is injected and np.array_equal(edited.solution.x, res.solution.x)
    x = np.ones_like(res.solution.x)
    kept = with_fields(solve_power_min(lp, targets, 200).solution, x=x)
    reads.clear()
    lp_module.read_vertices([kept])
    assert kept.x is x and reads == []

    infeasible = solve_power_min(lp, QosTargets.uniform(8.0, base), 200)
    for bad in (infeasible, PowerMinResult(LpStatus.INFEASIBLE, lp.mask, targets, 200)):
        assert bad.status == LpStatus.INFEASIBLE
        assert [bad.allocation, bad.serving, bad.qos_duals, bad.power_duals, bad.objective, bad.basis] == [None] * 6
    sol = infeasible.solution
    assert [sol.x, sol.objective, sol.duals] == [None] * 3 and reads == []

    real = lp_module.read_vertices

    def read_only(sols):
        basic = real(sols)
        for sol in sols:
            sol.x.flags.writeable = sol.duals.flags.writeable = False
        return basic

    monkeypatch.setattr(lp_module, "read_vertices", read_only)
    monkeypatch.setattr(harness, "read_vertices", read_only)
    for mode in ("powermin", "maxmin"):
        run_sweep(SweepSpec((50, 200), mode, num_drops=3, rng_seed=17))


def assert_same_result(a, b):
    assert a.trace == b.trace
    assert (a.xi_lower, a.xi_upper, a.iterations) == (b.xi_lower, b.xi_upper, b.iterations)
    assert (a.last_feasible is None) == (b.last_feasible is None)
    if a.last_feasible is not None:
        assert np.array_equal(a.last_feasible.allocation.rho, b.last_feasible.allocation.rho)
        assert np.array_equal(a.last_feasible.qos_duals, b.last_feasible.qos_duals)
        assert np.array_equal(a.last_feasible.power_duals, b.last_feasible.power_duals)


class TestProbeOutcomes:
    """The probe outcomes and carried basis a DropLp keeps for its bisections."""

    def test_componentwise_dominance(self, small_scenario, small_stats):
        lp = DropLp(small_stats, small_scenario)
        assert lp.lookup(np.array([1.0, 1.0])) is None
        lp.record(np.array([2.0, 1.0]), True)
        lp.record(np.array([1.0, 0.5]), False)
        assert lp.lookup(np.array([2.0, 3.0])) is True
        assert lp.lookup(np.array([0.5, 0.5])) is False
        assert lp.lookup(np.array([3.0, 0.9])) is None  # dominates neither way
        # a smaller feasible s supersedes the entries it dominates
        lp.record(np.array([1.5, 1.0]), True)
        assert len(lp.feasible) == 1 and lp.lookup(np.array([1.5, 1.0])) is True

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
                lp = DropLp(stats, scn0, allowed)
                for m in antennas:
                    before = len(calls)
                    shared = solve_max_min(lp, m, w)
                    shared_solves += len(calls) - before
                    probes += shared.iterations
                    for p in shared.trace:
                        targets = QosTargets.from_se(
                            w * p.candidate, scn0.coherence_length, scn0.pilot_length
                        )
                        assert solve_power_min(DropLp(stats, scn0, allowed), targets, m).feasible == p.feasible
                    assert_same_result(shared, solve_max_min(DropLp(stats, scn0, allowed), m, w))
        # the shared brackets answered some probes without an LP
        assert shared_solves < probes

    def test_seeded_max_snr_answers_agree_with_lp_solves(self, monkeypatch):
        """A small seed-17 maxmin sweep through ``solve_drop``: the max-SNR
        DropLp of each drop starts with one feasible and one infeasible
        entry, both within lp.FEAS_TOL + 1e-9 relative of 1 / c*, where c*
        is its max-min SINR at M = 1 (``oracles.max_min_sinr``, Dinkelbach's
        method), and ``max_snr_scale`` is 1 / c* to 1e-9. Every probe its
        DropLp answered without an LP, on either side, has the verdict of an
        LP solve of a fresh DropLp."""
        antennas = (50, 100, 150, 200)
        base = default_scenario(antennas[0], DEFAULT_NUM_USERS, rng_seed=17)
        bisections = record_max_snr_bisections(monkeypatch)
        for d, scn0, stats in iter_drops(base, 17, 4):
            solve_drop(stats, scn0, antennas, "maxmin", d, None, DEFAULT_DELTA)
        monkeypatch.undo()
        assert len(bisections) == 4 * len(antennas)
        verdicts, bad = [], []
        for i, (stats, scn, (feasible, infeasible), answered) in enumerate(bisections):
            if i % len(antennas) == 0:  # the drop's first max-SNR bisection sees only the seed
                s_star = 1.0 / max_min_sinr(stats, replace(scn, num_antennas=1), max_snr_mask(stats.beta))
                assert max_snr_scale(DropLp(stats, scn, max_snr_mask(stats.beta))) == pytest.approx(s_star, rel=1e-9)
                assert len(feasible) == len(infeasible) == 1 and (infeasible[0] < feasible[0]).all()
                np.testing.assert_allclose(np.r_[feasible, infeasible], s_star, rtol=lp_module.FEAS_TOL + 1e-9)
            verdicts += [verdict for _, verdict in answered]
            bad += [(i, c, v) for c, v in answered if max_snr_lp_feasible(stats, scn, c) != v]
        assert bad == [] and True in verdicts and False in verdicts

    def test_max_snr_scale_needs_a_one_hot_mask(self, small_scenario, small_stats):
        with pytest.raises(ValueError, match="^max_snr_scale needs a one-hot mask$"):
            max_snr_scale(DropLp(small_stats, small_scenario))

    def test_carried_basis_hints_match_cold_solves(self, monkeypatch):
        """Every probe LP of three drops, joint and max-SNR, with a DropLp
        shared across antenna counts: started from its carried basis, it
        gives the bits of a ``solve_power_min`` on a fresh DropLp (max-SNR
        start) when optimal and its status when infeasible, in fewer pivots
        in total."""
        pivots = []
        real_lp = power_assoc.lp_solve

        def counting(lp, basis=None):
            sol = real_lp(lp, basis=basis)
            pivots.append(sol.iterations)
            return sol

        probes = []

        def recording(lp, targets, num_antennas):
            res = solve_power_min(lp, targets, num_antennas)
            args = (DropLp(lp.stats, lp.scenario, lp.mask), targets, num_antennas)
            probes.append((args, lp.basis, res, pivots[-1]))
            return res

        monkeypatch.setattr(power_assoc, "lp_solve", counting)
        monkeypatch.setattr(maxmin, "solve_power_min", recording)
        k = DEFAULT_NUM_USERS
        for _, scn0, stats in iter_drops(default_scenario(50, k, rng_seed=8), 8, 3):
            for allowed in (None, max_snr_mask(stats.beta)):
                lp = DropLp(stats, scn0, allowed)
                for m in (50, 100, 150, 200):
                    solve_max_min(lp, m)
        hinted_pivots = cold_pivots = hinted = infeasible = 0
        for args, basis, res, used in probes:
            cold = solve_power_min(*args)
            hinted_pivots += used
            cold_pivots += pivots[-1]
            hinted += not np.array_equal(basis, args[0].basis)
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

    def test_int_mask_is_the_bool_mask(self, small_scenario, small_stats):
        mask = max_snr_mask(small_stats.beta)
        by_int = DropLp(small_stats, small_scenario, mask.astype(int))
        assert by_int.mask.dtype == bool and np.array_equal(by_int.mask, mask)
        first = solve_max_min(DropLp(small_stats, small_scenario, mask), 64)
        assert_same_result(first, solve_max_min(by_int, 64))
        joint = DropLp(small_stats, small_scenario, np.ones(mask.shape, int))
        assert np.array_equal(joint.mask, DropLp(small_stats, small_scenario).mask)

    def test_repeat_call_solves_one_lp(self, monkeypatch):
        scn, stats = random_drop(21, num_antennas=100, num_users=6)
        lp = DropLp(stats, scn)
        first = solve_max_min(lp, 100)
        assert first.last_feasible is not None
        calls = count_lp_solves(monkeypatch)
        second = solve_max_min(lp, 100)
        assert len(calls) == 1  # only the re-solve at the final lower level
        assert_same_result(first, second)

    def test_infeasible_resolve_raises(self, monkeypatch):
        scn, stats = random_drop(21, num_antennas=100, num_users=6)
        lp = DropLp(stats, scn)
        level = solve_max_min(lp, 100).xi_lower
        monkeypatch.setattr(power_assoc, "lp_solve", lambda lp, basis=None: LpSolution(LpStatus.INFEASIBLE))
        pattern = rf"^max-min level {re.escape(repr(level))} .* infeasible$"
        with pytest.raises(RuntimeError, match=pattern):
            solve_max_min(lp, 100)


def test_sweep_cells_agree_with_the_exact_max_min_level():
    """With uniform weights a drop's max-min SINR under a mask is M c*, where
    c* is its max-min SINR at M = 1 (``oracles.max_min_sinr``, Dinkelbach's
    method). On every cell of a small sweep, both masks, solved through the
    sweep's own pipeline: the bisection's final interval holds SE(M c*), its
    lower end is within delta of it, and power-min at SE 1 is feasible
    exactly when M c* >= xi_hat."""
    base = default_scenario(50, DEFAULT_NUM_USERS, rng_seed=17)
    targets = QosTargets.uniform(1.0, base)
    feasible = infeasible = 0
    antennas = (50, 100, 150, 200)
    for d, scn0, stats in iter_drops(base, 17, 8):
        masks = (None, max_snr_mask(stats.beta))
        c_star = [max_min_sinr(stats, replace(scn0, num_antennas=1), mask) for mask in masks]
        maxmin_cells = solve_drop(stats, scn0, antennas, "maxmin", d, None, DEFAULT_DELTA)
        powermin_cells = solve_drop(stats, scn0, antennas, "powermin", d, targets, DEFAULT_DELTA)
        for m, bisections, verdicts in zip(antennas, maxmin_cells, powermin_cells):
            scn = replace(scn0, num_antennas=m)
            for c, mm, pm in zip(c_star, bisections, verdicts):
                se = float(spectral_efficiency(m * c, scn.coherence_length, scn.pilot_length))
                assert mm.xi_lower - 1e-9 <= se <= mm.xi_upper + 1e-9, (d, m)
                assert mm.xi_lower >= se - DEFAULT_DELTA, (d, m)
                assert pm.feasible == (m * c >= targets.xi_hat[0]), (d, m)
                feasible += pm.feasible
                infeasible += not pm.feasible
    assert feasible and infeasible
