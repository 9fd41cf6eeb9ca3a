"""Monte-Carlo experiment harness: drops, sweeps, metrics, and file output.

Defaults reproduce the reference deployment: 4 BSs on the corners of a
1 km x 1 km square, 20 uniformly dropped users (10 m exclusion), 20 MHz
bandwidth, 200-symbol coherence blocks with 20 pilot symbols, 7 dB
log-normal shadowing, -96 dBm noise, 40 W peak power per BS, and pilot
sequences of 2e-7 J total energy (0.2 W per symbol at 20 MHz).

Per-drop randomness comes from a stream seeded by (sweep seed, drop index),
so results are independent of evaluation order; antenna sweeps reuse the
same drops, which makes the monotone-in-M trends hold drop by drop.

A drop is one pipeline, ``solve_drop``, which the sweeps and ``drop`` share:
it solves every (antenna count, mask) cell of the drop, reads every published
vertex in stacked readouts and checks all of them in one vectorized
``check_solution_invariants`` call. A cell is an antenna count passed with
the drop's ``DropLp``, not a copy of its scenario. In powermin mode the max-SNR basis
decides most cells with no simplex: one stacked readout of the drop's
max-SNR cells settles each of them by the sign of its basic solution, and
the association rule at their duals settles the joint cells whose optimum
is that basis; the simplex solves the rest. A cell then keeps only the
scalars its outputs read: no solver result outlives its drop.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .channel import (
    ChannelStats,
    NetworkScenario,
    _count,
    channel_stats,
    dbm_to_watt,
    load_scenario,
    pairwise_distances_km,
    sample_user_positions,
    scenario_to_json_dict,
)
from .maxmin import DEFAULT_DELTA, check_delta, max_snr_scale, solve_max_min
from .mc_oracle import McConfig, estimate_sinr_terms
from .lp import FEAS_TOL, LpStatus, read_vertices
from .power_assoc import (
    DropLp,
    PowerMinResult,
    association_rule_check,
    max_snr_mask,
    power_min_at_basis,
    rule_reduced_costs,
    solve_power_min,
)
from .se import PowerAllocation, QosTargets, sinr_mrt_all, spectral_efficiency

DEFAULT_BANDWIDTH_HZ = 20e6
DEFAULT_PILOT_ENERGY_J = 2e-7
DEFAULT_NOISE_DBM = -96.0
DEFAULT_PMAX_W = 40.0
DEFAULT_SHADOW_STD_DB = 7.0
DEFAULT_COHERENCE_LENGTH = 200
DEFAULT_TARGET_SE = 1.0
DEFAULT_NUM_USERS = 20
MIN_BS_USER_DIST_KM = 0.01


# check_solution_invariants' per-BS cap gate, in W. It coincides with
# lp.FEAS_TOL, the simplex's feasibility tolerance, on the cap rows, which
# equilibration leaves unscaled (their entries are 1): an optimum the simplex
# accepts may exceed a cap by FEAS_TOL W, and roundoff then takes it past
# this gate. maxmin.MIN_DELTA exists for this: a finer bisection converges
# onto that tolerance.
CAP_GATE_W = 1e-9

# A power-min cell is decided at its max-SNR basis without the simplex only
# when every basic value of the readout clears zero by this much (in W: the
# basic variables are powers and cap slacks) and every reduced cost clears
# it times 1 + |c|. Inside the band the simplex's own tolerances (FEAS_TOL
# on basic values, FEAS_TOL (1 + |c|) on reduced costs) or its roundoff
# could decide otherwise, so the simplex decides.
DECIDE_BAND = 100 * FEAS_TOL


class HarnessInvariantError(RuntimeError):
    """A consistency check failed; indicates a solver or model bug.

    ``drop``, ``num_antennas``, ``mode`` and ``mask`` ("joint" or "max_snr")
    say where, each None when not known; the message starts with those that
    are known, so a failure in a long sweep can be replayed from them."""

    def __init__(self, problem: str, drop=None, num_antennas=None, mode=None, mask=None):
        self.problem, self.drop, self.num_antennas, self.mode, self.mask = problem, drop, num_antennas, mode, mask
        super().__init__(_located(problem, drop, num_antennas, mode, mask))


def _located(problem: str, drop=None, num_antennas=None, mode=None, mask=None) -> str:
    """``problem`` after the parts of its place that are known."""
    where = [f"drop {drop}"] if drop is not None else []
    where += [f"M={num_antennas}"] if num_antennas is not None else []
    where += [part for part in (mode, mask) if part is not None]
    return ", ".join(where) + ": " + problem if where else problem


def default_scenario(
    num_antennas: int, num_users: int = DEFAULT_NUM_USERS, rng_seed: int = 0
) -> NetworkScenario:
    """Reference deployment with freshly sampled user positions.

    Other deployments come in as scenario JSON (``channel.load_scenario``).
    """
    if not 1 <= num_users < DEFAULT_COHERENCE_LENGTH:
        raise ValueError(
            f"num_users must be 1 to {DEFAULT_COHERENCE_LENGTH - 1}, one pilot symbol each in the "
            f"{DEFAULT_COHERENCE_LENGTH}-symbol coherence block, got {num_users}"
        )
    pilot_length = num_users  # one orthogonal pilot symbol per user
    bs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rng = np.random.default_rng(rng_seed)
    users = sample_user_positions(num_users, bs, rng, MIN_BS_USER_DIST_KM)
    noise_w = float(dbm_to_watt(DEFAULT_NOISE_DBM))
    # DEFAULT_PILOT_ENERGY_J is the energy of the whole pilot sequence.
    p = DEFAULT_PILOT_ENERGY_J / (pilot_length * (1.0 / DEFAULT_BANDWIDTH_HZ))
    return NetworkScenario(
        num_bs=4,
        num_users=num_users,
        num_antennas=num_antennas,
        bs_positions=bs,
        user_positions=users,
        coherence_length=DEFAULT_COHERENCE_LENGTH,
        pilot_length=pilot_length,
        pilot_power=np.full(num_users, p),
        noise_ul=noise_w,
        noise_dl=noise_w,
        pmax=np.full(4, DEFAULT_PMAX_W),
        shadow_std_db=DEFAULT_SHADOW_STD_DB,
        rng_seed=rng_seed,
    )


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which antenna counts, how many drops, and which mode."""

    antenna_counts: tuple
    mode: str = "powermin"  # or "maxmin"
    target_se: float = DEFAULT_TARGET_SE
    num_drops: int = 200
    rng_seed: int = 0
    scenario_path: str | None = None
    num_users: int = DEFAULT_NUM_USERS
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        for name, convert in (("antenna_counts", lambda ms: tuple(map(_count, ms))), ("num_drops", _count)):
            try:
                object.__setattr__(self, name, convert(getattr(self, name)))
            except ValueError as e:
                raise ValueError(f"{name}: {e}") from e
        if not self.antenna_counts:
            raise ValueError("antenna_counts must be nonempty")
        if min(self.antenna_counts) < 1:
            raise ValueError(f"antenna_counts must all be >= 1, got {self.antenna_counts}")
        if len(set(self.antenna_counts)) < len(self.antenna_counts):
            raise ValueError(f"antenna_counts must not repeat a count, got {self.antenna_counts}")
        if self.num_drops < 1:
            raise ValueError("num_drops must be >= 1")
        if self.mode not in ("powermin", "maxmin"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class SweepResult:
    """A sweep's outputs: the results.csv table, the config.json record and,
    for a traced maxmin sweep, the traces.jsonl lines (else empty)."""

    table: list  # (num_antennas, metric, value) rows
    config: dict
    traces: list


def check_solution_invariants(stats: ChannelStats, scenario: NetworkScenario, published) -> None:
    """Re-assert the optimality contracts on a drop's published solves, all
    at once: ``published`` holds (mask, result) pairs of feasible solves of
    the drop ``stats`` on ``scenario`` (whose own antenna count is not
    read), ``mask`` naming the association ("joint" or "max_snr"). Each
    result is checked at the targets and the antenna count it was solved
    at: per-BS caps to CAP_GATE_W, every SE within 1e-9 of
    its target, every QoS row binding to 1e-8 relative, the dual
    association rule, and (exactly) joint transmission only where a cap
    binds: nonbasic powers are exact zeros and each user needs a basic one,
    so the users served by two or more BSs are at most the nonbasic cap
    slacks, and the serving pairs at most the basic powers. The first
    failing solve raises
    HarnessInvariantError with its antenna count and mask, naming the first
    of those checks it fails."""
    if not published:
        return
    masks, results = zip(*published)
    m = tuple(res.num_antennas for res in results)
    alloc = PowerAllocation(np.stack([res.allocation.rho for res in results]))  # (n, L, K)
    xi = np.stack([res.targets.xi for res in results])
    xi_hat = np.stack([res.targets.xi_hat for res in results])
    cap = alloc.per_bs_power() - scenario.pmax
    cap_bad = (cap > CAP_GATE_W).any(axis=1)
    sinr = sinr_mrt_all(stats, alloc, scenario, num_antennas=m)
    se = spectral_efficiency(sinr, scenario.coherence_length, scenario.pilot_length)
    se_bad = (se < xi - 1e-9).any(axis=1)
    binding = np.abs(sinr / xi_hat - 1.0).max(axis=1)
    bases = np.stack([res.basis for res in results])
    serving = np.stack([res.serving for res in results])
    # the basis indexes n powers, then K QoS and L cap slacks
    n = np.stack([res.allowed for res in results]).sum(axis=(1, 2))
    tight_caps = scenario.num_bs - np.count_nonzero(bases >= (n + scenario.num_users)[:, None], axis=1)
    joint = np.count_nonzero(serving.sum(axis=1) >= 2, axis=1)
    joint_bad = (joint > tight_caps) | (serving.sum(axis=(1, 2)) > np.count_nonzero(bases < n[:, None], axis=1))
    violations = association_rule_check(stats, results)
    failed = cap_bad | se_bad | (binding > 1e-8) | joint_bad | np.array([bool(v) for v in violations])
    if not failed.any():
        return
    j = int(np.argmax(failed))
    if cap_bad[j]:
        problem = f"per-BS power cap violated by {cap[j].max():.3e} W"
    elif se_bad[j]:
        problem = "achieved SE fell below its target"
    elif binding[j] > 1e-8:
        problem = f"a QoS constraint is not binding (rel. residual {binding[j]:.3e})"
    elif joint_bad[j]:
        problem = (
            f"joint transmission beyond the binding caps: {joint[j]} joint users, "
            f"{tight_caps[j]} cap slacks nonbasic, basis {bases[j].tolist()}"
        )
    else:
        problem = f"association rule violated: {violations[j][:5]}"
    raise HarnessInvariantError(problem, num_antennas=m[j], mask=masks[j])


def iter_drops(base: NetworkScenario, seed: int, num_drops: int):
    """Yield (d, scenario, stats) per drop: fresh user positions and shadowing
    from a stream seeded by (seed, d), every other field taken from ``base``."""
    for d in range(num_drops):
        rng = np.random.default_rng([seed, d])
        positions = sample_user_positions(
            base.num_users, base.bs_positions, rng, MIN_BS_USER_DIST_KM
        )
        scn0 = replace(base, user_positions=positions)
        yield d, scn0, channel_stats(scn0, rng)


# The association masks of a drop's solves, in the order of each cell's pair.
MASKS = ("joint", "max_snr")


def solve_drop(
    stats: ChannelStats,
    scn0: NetworkScenario,
    antenna_counts,
    mode: str,
    drop_index: int,
    targets: QosTargets | None,
    delta: float,
) -> list:
    """Solve and check every cell of one drop: each antenna count of
    ``antenna_counts`` on the drop's scenario ``scn0``, with both association
    methods, one (joint, max-SNR) ``DropLp`` pair for all of them.

    Returns one (joint result, max-SNR result) pair per antenna count, in
    order: PowerMinResults in powermin mode, MaxMinResults in maxmin mode.
    Power-min solves at ``targets``, which depend on the SE target, K, tau_c
    and tau_p alone, so the caller builds them once for all its drops;
    maxmin ignores them. In powermin mode the max-SNR basis decides most
    cells before any simplex runs (``_decided_at_max_snr``); the simplex
    solves the rest. In maxmin mode the max-SNR ``DropLp`` starts with
    the entries ``maxmin.max_snr_scale`` gives, s* (1 + lp.FEAS_TOL) feasible
    and s* (1 - lp.FEAS_TOL) infeasible, so its probes outside that band
    take no LP; each published max-SNR level is still re-solved as an LP.

    Once every cell is solved, the published allocations (the feasible
    power-min results, or each bisection's ``last_feasible``) that are not
    read yet have their vertices read in one stacked readout
    (``lp.read_vertices``), the power-min objectives are compared, and one
    ``check_solution_invariants`` call checks them all. A failed check
    raises HarnessInvariantError naming the drop, the mode and, when known,
    the antenna count and mask; any other RuntimeError is re-raised with its
    type and a message naming the drop, the mode and the antenna count
    being solved, if any.
    """
    lps = DropLp(stats, scn0), DropLp(stats, scn0, max_snr_mask(stats.beta))
    if mode == "maxmin":
        s_star = np.full(scn0.num_users, max_snr_scale(lps[1]))
        lps[1].record(s_star * (1.0 + FEAS_TOL), True)
        lps[1].record(s_star * (1.0 - FEAS_TOL), False)
    cells, published = [], []
    m = None  # the antenna count being solved or compared
    try:
        decided = _decided_at_max_snr(lps, targets, antenna_counts) if mode == "powermin" else {}
        for m in antenna_counts:
            if mode == "powermin":
                opt, snr = (res or solve_power_min(lp, targets, m) for res, lp in zip(decided[m], lps))
                if snr.feasible and not opt.feasible:
                    raise HarnessInvariantError("max-SNR feasible but joint optimization infeasible")
                solves = (opt, snr)
            elif mode == "maxmin":
                opt, snr = (solve_max_min(lp, m, delta=delta) for lp in lps)
                if opt.xi_lower < snr.xi_lower - delta - 1e-12:
                    raise HarnessInvariantError("joint max-min level fell below the max-SNR level")
                solves = (opt.last_feasible, snr.last_feasible)
            else:
                raise ValueError(f"unknown mode {mode!r}")
            cells.append((opt, snr))
            published += [(mask, res) for mask, res in zip(MASKS, solves) if res is not None and res.feasible]
        m = None
        read_vertices([res.solution for _, res in published])
        if mode == "powermin":
            for m, (opt, snr) in zip(antenna_counts, cells):
                if snr.feasible and opt.objective > snr.objective * (1.0 + 1e-9):
                    raise HarnessInvariantError("optimal objective exceeds the max-SNR objective")
            m = None
        check_solution_invariants(stats, scn0, published)
    except HarnessInvariantError as e:
        raise HarnessInvariantError(e.problem, drop_index, e.num_antennas or m, mode, e.mask) from e
    except RuntimeError as e:
        raise type(e)(_located(str(e), drop_index, m, mode)) from e
    return cells


def _decided_at_max_snr(lps, targets: QosTargets, antenna_counts) -> dict:
    """The power-min results of a drop that its max-SNR basis decides, as a
    (joint, max-SNR) pair per antenna count, None where the simplex must
    decide. ``lps`` is the drop's (joint, max-SNR) ``DropLp`` pair, whose
    bases both hold max-SNR association: each user's strongest power column
    and every cap slack.

    The max-SNR cells are read at that basis in one stacked readout
    (``lp.read_vertices``). There the QoS rows read p = D (F p + v) (see
    ``maxmin.max_snr_scale``), so the basic solution is the least fixed
    point p* = (I - D F)^-1 D v and the caps' slacks at it. If every basic
    value is positive, rho(DF) < 1 and lambda > 0, so the basis is optimal
    and the cell is OPTIMAL at the vertex that readout stored. If one is
    negative, either rho(DF) >= 1 or p* exceeds a cap, which every feasible
    p dominates: the cell is INFEASIBLE, with no Farkas certificate. The
    joint LP has the same basic columns, so its basic values and duals are
    the max-SNR cell's; when the rule's reduced costs at those duals
    (``power_assoc.rule_reduced_costs``) are positive at every off-max-SNR
    pair, the joint cell is OPTIMAL at that basis too, its vertex read from
    its own program. Every such result has the bits the simplex gives,
    which stops there with no pivot. A cell inside ``DECIDE_BAND``, a joint
    cell whose max-SNR cell is not decided OPTIMAL, and one whose rule fails
    are left to the simplex."""
    joint_lp, snr_lp = lps
    claims = [power_min_at_basis(snr_lp, targets, m) for m in antenna_counts]
    lows = np.min(read_vertices([res.solution for res in claims]), axis=1)
    reduced = rule_reduced_costs(snr_lp.stats, claims)[:, ~snr_lp.mask]
    # the band times 1 + |c|: every power column costs 1
    rule_holds = (reduced >= 2.0 * DECIDE_BAND).all(axis=1)
    decided = {}
    for m, res, low, holds in zip(antenna_counts, claims, lows, rule_holds):
        if low >= DECIDE_BAND:
            decided[m] = (power_min_at_basis(joint_lp, targets, m) if holds else None, res)
        elif low <= -DECIDE_BAND:
            decided[m] = (None, PowerMinResult(LpStatus.INFEASIBLE, snr_lp.mask, targets, m))
        else:
            decided[m] = (None, None)
    return decided


def checked_targets(scenario: NetworkScenario, target_se: float, delta: float) -> QosTargets:
    """The uniform targets at ``target_se``, after checking it and ``delta``
    (ValueError): a run checks both settings, whichever mode it solves."""
    targets = QosTargets.uniform(target_se, scenario)
    check_delta(delta)
    return targets


def run_sweep(spec: SweepSpec, traces: bool = False) -> SweepResult:
    """Run the sweep: per drop, sample users and shadowing once, then solve
    and check every antenna count on the same realization (``solve_drop``).
    A cell leaves only its table row and, traced in maxmin mode, its
    traces.jsonl line. Both settings are checked before the first drop
    (``checked_targets``), as config.json records them."""
    if spec.scenario_path is not None:
        base = load_scenario(spec.scenario_path)
    else:
        base = default_scenario(spec.antenna_counts[0], spec.num_users, rng_seed=spec.rng_seed)
    targets = checked_targets(base, spec.target_se, spec.delta)
    rows: dict[int, list[tuple]] = {m: [] for m in spec.antenna_counts}
    lines = []
    for d, scn0, stats in iter_drops(base, spec.rng_seed, spec.num_drops):
        cells = solve_drop(stats, scn0, spec.antenna_counts, spec.mode, d, targets, spec.delta)
        for m, (opt, snr) in zip(spec.antenna_counts, cells):
            if spec.mode == "powermin":
                rows[m].append((opt.objective, snr.objective, opt.joint_fraction if opt.feasible else None))
            else:
                last = opt.last_feasible
                rows[m].append((opt.xi_lower, snr.xi_lower, last.joint_fraction if last else 0.0))
            if traces and spec.mode == "maxmin":
                rec = {"num_antennas": m, "drop": d, "optimal": _trace(opt), "max_snr": _trace(snr)}
                lines.append(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n")
    config = {"spec": asdict(spec), "base_scenario": scenario_to_json_dict(base)}
    return SweepResult(table=aggregate_table(spec, rows), config=config, traces=lines)


def _mean(values) -> float | None:
    vals = list(values)
    return float(np.mean(vals)) if vals else None


def aggregate_table(spec: SweepSpec, cell_rows: dict) -> list:
    """Long-format rows (num_antennas, metric, value) from ``cell_rows``, each
    antenna count's (joint, max-SNR, joint fraction) cells in drop order;
    empty metrics are omitted. An infeasible power-min solve leaves None in
    its place, the joint one also as the fraction; a level-0 max-min cell
    serves nobody, so its fraction is 0. Transmit powers average only over
    drops where both association methods are feasible, like for like.
    """
    rows = []
    for m in spec.antenna_counts:
        cells = cell_rows[m]
        n = len(cells)
        rows.append((m, "num_drops", n))
        if spec.mode == "powermin":
            rows.append((m, "bad_service_prob_optimal", sum(o is None for o, _, _ in cells) / n))
            rows.append((m, "bad_service_prob_max_snr", sum(s is None for _, s, _ in cells) / n))
            both = [(o, s) for o, s, _ in cells if o is not None and s is not None]
            rows.append((m, "num_both_feasible", len(both)))
            rows.append((m, "mean_total_power_w_optimal", _mean(o for o, _ in both)))
            rows.append((m, "mean_total_power_w_max_snr", _mean(s for _, s in both)))
        else:
            rows.append((m, "mean_maxmin_se_optimal", _mean(o for o, _, _ in cells)))
            rows.append((m, "mean_maxmin_se_max_snr", _mean(s for _, s, _ in cells)))
        frac = _mean(f for _, _, f in cells if f is not None)
        rows.append((m, "joint_tx_fraction_optimal", frac))
        if spec.mode == "maxmin":
            rows.append((m, "single_bs_fraction_optimal", 1.0 - frac))
    return [(m, name, v) for (m, name, v) in rows if v is not None]


def results_csv(table: list) -> str:
    """The results.csv text of a result table: a header, then one
    ``num_antennas,metric,value`` row per entry, values in repr form."""
    lines = ["num_antennas,metric,value"]
    for m, name, value in table:
        lines.append(f"{m},{name},{value!r}")
    return "\n".join(lines) + "\n"


def emit_results(result: SweepResult, out_dir) -> tuple:
    """Write results.csv (one row per antenna-count/metric) plus a config.json
    sidecar carrying the sweep spec, base scenario and seed, and a traced
    maxmin sweep's per-probe traces.jsonl; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    files = {
        "results.csv": [results_csv(result.table)],
        "config.json": [json.dumps(result.config, indent=2, sort_keys=True, allow_nan=False), "\n"],
        "traces.jsonl": result.traces,  # empty unless traced
    }
    paths = []
    for name, chunks in files.items():
        if chunks:
            paths.append(os.path.join(out_dir, name))
            with open(paths[-1], "w") as fh:
                fh.writelines(chunks)
    return tuple(paths)


def _trace(mm) -> list:
    return [dict(vars(p)) for p in mm.trace]


def _bisection_record(mm) -> dict:
    return {
        "xi_lower": mm.xi_lower,
        "xi_upper": mm.xi_upper,
        "iterations": mm.iterations,
        "solution": mm.last_feasible.to_json_dict() if mm.last_feasible else {"status": "zero-level"},
        "trace": _trace(mm),
    }


def run_drop(scenario: NetworkScenario, mode: str = "powermin", target_se: float = DEFAULT_TARGET_SE, delta: float = DEFAULT_DELTA) -> dict:
    """Solve a single drop on the scenario as given, with the sweep's checks and
    both settings checked in either mode. Returns the JSON record; in maxmin
    mode its top level is the joint bisection and ``max_snr`` the max-SNR one."""
    targets = checked_targets(scenario, target_se, delta)
    [(opt, snr)] = solve_drop(channel_stats(scenario), scenario, (scenario.num_antennas,), mode, 0, targets, delta)
    if mode == "powermin":
        return {
            "mode": mode,
            "target_se": target_se,
            "optimal": opt.to_json_dict(),
            "max_snr": snr.to_json_dict(),
        }
    return {"mode": mode, "delta": delta, **_bisection_record(opt), "max_snr": _bisection_record(snr)}


# --- closed-form validation ------------------------------------------------

def random_validation_scenario(index: int, rng_seed: int = 0):
    """Small random scenario plus allocation for oracle-vs-closed-form checks.

    Sizes stay small (L <= 4, K <= 8, M in {16, 64}) and geometry compact, so
    pilot SNRs keep the Monte-Carlo moments well conditioned.
    """
    rng = np.random.default_rng([rng_seed, index])
    L = int(rng.integers(1, 5))
    K = int(rng.integers(1, 9))
    M = 16 if index % 2 == 0 else 64
    side = 0.4
    bs = rng.uniform(0.0, side, size=(L, 2))
    users = rng.uniform(0.0, side, size=(K, 2))
    # keep every BS-user distance >= 20 m by redrawing offending users
    while (bad := pairwise_distances_km(bs, users).min(axis=0) < 0.02).any():
        users[bad] = rng.uniform(0.0, side, size=(int(bad.sum()), 2))
    noise = float(dbm_to_watt(DEFAULT_NOISE_DBM))
    scenario = NetworkScenario(
        num_bs=L,
        num_users=K,
        num_antennas=M,
        bs_positions=bs,
        user_positions=users,
        coherence_length=DEFAULT_COHERENCE_LENGTH,
        pilot_length=20,
        pilot_power=np.full(K, 0.2),
        noise_ul=noise,
        noise_dl=noise,
        pmax=np.full(L, DEFAULT_PMAX_W),
        shadow_std_db=4.0,
        rng_seed=int(rng.integers(0, 2**31)),
    )
    stats = channel_stats(scenario, rng)
    alloc = PowerAllocation(rng.uniform(0.05, 2.0, size=(L, K)))
    user = int(rng.integers(0, K))
    return scenario, stats, alloc, user


def validate_closed_form(
    num_scenarios: int = 20,
    num_samples: int = 100_000,
    rng_seed: int = 0,
    rel_tol: float = 0.01,
) -> list:
    """Compare the sampling oracle against the closed-form SINR of
    ``sinr_mrt_all``, the one the per-solve checks use.

    Returns one record per scenario with both values and the relative error;
    a record passes when the error is within ``rel_tol``. Zero scenarios, or a
    ``rel_tol`` not positive and finite, raise ValueError: no error would count.
    """
    if num_scenarios < 1:
        raise ValueError(f"validation needs at least one scenario, got {num_scenarios}")
    if not (rel_tol > 0.0 and np.isfinite(rel_tol)):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")

    records = []
    for idx in range(num_scenarios):
        scenario, stats, alloc, user = random_validation_scenario(idx, rng_seed)
        cfg = McConfig(num_samples=num_samples, rng_seed=rng_seed + 1000 + idx)
        est = estimate_sinr_terms(stats, alloc, scenario, user, cfg)
        closed = float(sinr_mrt_all(stats, alloc, scenario)[user])
        rel_err = abs(est.sinr - closed) / closed
        records.append(
            {
                "scenario": idx,
                "num_bs": scenario.num_bs,
                "num_users": scenario.num_users,
                "num_antennas": scenario.num_antennas,
                "user": user,
                "closed_form_sinr": closed,
                "monte_carlo_sinr": est.sinr,
                "monte_carlo_stderr": est.sinr_stderr,
                "rel_error": rel_err,
                "passed": bool(rel_err <= rel_tol),
            }
        )
    return records
