"""Acceptance suite: every criterion prints one PASS/FAIL line (run with -s).

The heavyweight sweeps are shared module-scoped fixtures so the whole suite
stays well inside its runtime targets.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from conftest import max_snr_lp_feasible, single_cell
from oracles import brute_force_lp_min, random_feasible_lp

from mimopower.harness import (
    SweepSpec,
    default_scenario,
    iter_drops,
    run_sweep,
    validate_closed_form,
)
from mimopower.lp import FEAS_TOL, LinearProgram, LpStatus, solve, verify
from mimopower.maxmin import auto_upper_bound, expected_iterations, max_snr_scale, solve_max_min
from mimopower.power_assoc import DropLp, max_snr_mask, solve_power_min
from mimopower.se import QosTargets, sinr_threshold

ANTENNAS = (50, 100, 150, 200)


def report(num, desc, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def drops_200():
    """200 default drops at every antenna count through the sweep pipeline.

    harness.solve_drop checks every cell for criteria 4-6 (association rule,
    SE margin, binding QoS rows, power caps, feasible-set inclusion) and
    raises HarnessInvariantError naming the first cell that fails.
    """
    return run_sweep(SweepSpec(ANTENNAS, "powermin", 1.0, 200, rng_seed=11, num_users=20))


def feasible_cells(result):
    """Feasible joint solves, read back from the published bad-service rows."""
    drops = table_metric(result, "num_drops")
    bad = table_metric(result, "bad_service_prob_optimal")
    return sum(round(n * (1.0 - p)) for n, p in zip(drops, bad))


def table_metric(result, name):
    """The published results.csv value of ``name`` at each antenna count."""
    rows = {(m, metric): value for m, metric, value in result.table}
    return [rows[(m, name)] for m in ANTENNAS]


@pytest.fixture(scope="module")
def maxmin_500():
    spec = SweepSpec(
        antenna_counts=ANTENNAS, mode="maxmin", num_drops=500, rng_seed=17, num_users=20
    )
    return run_sweep(spec, traces=True)


@pytest.fixture(scope="module")
def powermin_500():
    spec = SweepSpec(
        antenna_counts=ANTENNAS, mode="powermin", target_se=1.0, num_drops=500, rng_seed=17,
        num_users=20,
    )
    return run_sweep(spec)


def test_criterion_1_closed_form_validation():
    t0 = time.perf_counter()
    records = validate_closed_form(num_scenarios=20, num_samples=100_000, rng_seed=0, rel_tol=0.01)
    elapsed = time.perf_counter() - t0
    worst = max(r["rel_error"] for r in records)
    within_cap = all(r["passed"] for r in records)
    within_band = all(
        abs(r["monte_carlo_sinr"] - r["closed_form_sinr"]) <= 3.0 * r["monte_carlo_stderr"]
        for r in records
    )
    report(
        1,
        "Monte-Carlo SINR matches closed form within 1% on 20 scenarios",
        within_cap and within_band and elapsed < 60.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_lp_vs_brute_force():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_obj_err = worst_resid = 0.0
    for _ in range(100):
        a, b, c = random_feasible_lp(rng, max_vars=12, max_rows=4)
        lp = LinearProgram(c=c, a_ub=a, b_ub=b)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        ref_obj, _ = brute_force_lp_min(a, b, c)
        err = abs(sol.objective - ref_obj) / (1.0 + abs(ref_obj))
        worst_obj_err = max(worst_obj_err, err)
        worst_resid = max(worst_resid, verify(lp, sol).worst)
    elapsed = time.perf_counter() - t0
    report(
        2,
        "simplex matches vertex enumeration on 100 random LPs",
        worst_obj_err <= 1e-9 and worst_resid <= 1e-8 and elapsed < 10.0,
        f"obj err {worst_obj_err:.2e}, residual {worst_resid:.2e}, {elapsed:.1f} s",
    )


def test_criterion_3_analytic_single_user():
    scn, stats = single_cell(num_antennas=150, beta=2.5e-13)
    targets = QosTargets.uniform(1.5, scn)
    res = solve_power_min(DropLp(stats, scn), targets, 150)
    b = 150 * stats.gamma[0, 0] / targets.xi_hat[0]
    beta = stats.beta[0, 0]
    rho_err = abs(res.allocation.rho[0, 0] - scn.noise_dl / (b - beta)) / (scn.noise_dl / (b - beta))
    lam_err = abs(res.qos_duals[0] - 1.0 / (b - beta)) * (b - beta)
    report(
        3,
        "single-user optimum matches the hand-derived stationarity solution",
        res.feasible and rho_err <= 1e-9 and lam_err <= 1e-9,
        f"rho err {rho_err:.2e}, lambda err {lam_err:.2e}",
    )


def test_criterion_4_association_rule_on_sweep(drops_200):
    feasible = feasible_cells(drops_200)
    report(
        4,
        "association rule holds on every feasible drop of a 200-drop sweep",
        feasible > 0,
        f"{feasible} feasible solves",
    )


def test_criterion_5_qos_attainment(drops_200):
    feasible = feasible_cells(drops_200)
    report(
        5,
        "every feasible drop meets its SE targets with binding QoS rows",
        feasible > 0,
        f"{feasible} feasible solves",
    )


def test_criterion_6_feasible_set_inclusion(drops_200, powermin_500):
    feasible = feasible_cells(drops_200) + feasible_cells(powermin_500)
    report(
        6,
        "no drop anywhere has max-SNR feasible but joint optimization infeasible",
        feasible > 0,
        f"{feasible} feasible solves",
    )


def test_criterion_6_seeded_bracket_on_maxmin_sweep(maxmin_500):
    """The max-SNR bisections of the sweep start from the Perron root s*
    (``max_snr_scale``), so their probes outside s* (1 +- lp.FEAS_TOL) take
    no LP. Per drop, the traced probe of that kind nearest s* on each side is
    re-solved as an LP of a fresh DropLp, which must give its verdict."""
    traces = {}
    for line in maxmin_500.traces:
        rec = json.loads(line)
        traces.setdefault(rec["drop"], []).append((rec["num_antennas"], rec["max_snr"]))
    base = default_scenario(ANTENNAS[0], 20, rng_seed=17)
    resolved, closest, bad = 0, np.inf, []
    for d, scn0, stats in iter_drops(base, 17, 500):
        s_star = max_snr_scale(DropLp(stats, scn0, max_snr_mask(stats.beta)))
        probes = [(m, p["candidate"], p["feasible"]) for m, trace in traces[d] for p in trace]
        ms, cs, _ = np.array(probes).T
        dist = ms / sinr_threshold(cs, scn0.coherence_length, scn0.pilot_length) / s_star - 1.0
        closest = min(closest, np.abs(dist).min())
        for side in (dist >= FEAS_TOL, dist <= -FEAS_TOL):
            if side.any():
                i = np.flatnonzero(side)[np.argmin(np.abs(dist[side]))]
                m, c, verdict = probes[i]
                resolved += 1
                if max_snr_lp_feasible(stats, dataclasses.replace(scn0, num_antennas=m), c) != verdict:
                    bad.append((d, m, c, verdict))
    report(
        6,
        "the max-SNR probes the Perron seed answered nearest s* agree with LP solves",
        resolved > 0 and not bad,
        f"{resolved} re-solved, closest probe {closest:.1e} from s* relative, {len(bad)} disagree {bad[:3]}",
    )


def test_criterion_7_trend_reproduction(maxmin_500, powermin_500):
    t0 = time.perf_counter()
    # (a) single-BS association fraction in max-min mode
    singles = table_metric(maxmin_500, "single_bs_fraction_optimal")
    ok_a = all(v >= 0.90 for v in singles)
    report(
        "7a",
        "single-BS association fraction >= 0.90 in max-min mode",
        ok_a,
        ", ".join(f"M={m}: {v:.3f}" for m, v in zip(ANTENNAS, singles)),
    )
    # (b) mean max-min SE nondecreasing in M
    mean_xi = table_metric(maxmin_500, "mean_maxmin_se_optimal")
    ok_b = all(a <= b + 1e-12 for a, b in zip(mean_xi, mean_xi[1:]))
    report("7b", "mean max-min SE nondecreasing in antennas", ok_b,
           ", ".join(f"{v:.3f}" for v in mean_xi))
    # (c) joint association beats max-SNR by a 0-20% relative gain
    mean_xi_snr = table_metric(maxmin_500, "mean_maxmin_se_max_snr")
    gains = [opt / snr - 1.0 for opt, snr in zip(mean_xi, mean_xi_snr)]
    ok_c = all(0.0 < g <= 0.20 for g in gains)
    report("7c", "max-min SE gain over max-SNR inside the 0-20% band", ok_c,
           ", ".join(f"{100*g:.1f}%" for g in gains))
    # (d) bad-service probability trends
    bad_opt = table_metric(powermin_500, "bad_service_prob_optimal")
    bad_snr = table_metric(powermin_500, "bad_service_prob_max_snr")
    ok_d = (
        all(a >= b - 1e-12 for a, b in zip(bad_opt, bad_opt[1:]))
        and all(a >= b - 1e-12 for a, b in zip(bad_snr, bad_snr[1:]))
        and all(o <= s for o, s in zip(bad_opt, bad_snr))
    )
    report("7d", "bad-service probability nonincreasing in M and lower when optimal", ok_d,
           "opt " + "/".join(f"{v:.3f}" for v in bad_opt) + " vs max-SNR "
           + "/".join(f"{v:.3f}" for v in bad_snr))
    print(f"criterion 7 aggregate checks took {time.perf_counter() - t0:.2f} s")


def test_power_trend_nonincreasing_in_antennas(powermin_500):
    # statistical harness invariant on the same 500-drop sweep: mean optimal
    # transmit power (over drops feasible for both methods) falls with M
    assert all(n > 0 for n in table_metric(powermin_500, "num_both_feasible"))
    means = table_metric(powermin_500, "mean_total_power_w_optimal")
    assert all(a >= b for a, b in zip(means, means[1:])), means
    print(
        "harness invariant: mean optimal power vs antennas "
        + " -> ".join(f"{v:.2f} W" for v in means)
    )


def test_criterion_8_bisection_contract():
    mismatches = []
    base = default_scenario(ANTENNAS[0], 20, rng_seed=23)
    for d, scn0, stats in iter_drops(base, 23, 50):
        lp = DropLp(stats, scn0)
        res = solve_max_min(lp, 100)
        bound = auto_upper_bound(lp, np.ones(scn0.num_users), 100)
        expected = expected_iterations(bound, 0.01)
        lowers = [p.lower for p in res.trace]
        uppers = [p.upper for p in res.trace]
        ok = (
            res.iterations == expected
            and res.xi_upper - res.xi_lower <= 0.01
            and 0.0 <= res.xi_lower <= res.xi_upper
            and all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))
            and all(a >= b - 1e-15 for a, b in zip(uppers, uppers[1:]))
        )
        if not ok:
            mismatches.append(d)
    report(
        8,
        "bisection terminates in exactly ceil(log2(range/delta)) iterations",
        not mismatches,
        "50 drops, delta 0.01",
    )
