"""Monte-Carlo experiment harness: drops, sweeps, metrics, and file output.

Defaults reproduce the reference deployment: 4 BSs on the corners of a
1 km x 1 km square, 20 uniformly dropped users (10 m exclusion), 20 MHz
bandwidth, 200-symbol coherence blocks with 20 pilot symbols, 7 dB
log-normal shadowing, -96 dBm noise, 40 W peak power per BS, and pilot
sequences of 2e-7 J total energy (0.2 W per symbol at 20 MHz).

Per-drop randomness comes from a stream seeded by (sweep seed, drop index),
so results are independent of evaluation order; antenna sweeps reuse the
same drops, which makes the monotone-in-M trends hold drop by drop. A cell
keeps only the scalars its outputs read: no solver result outlives it.
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
from .maxmin import DEFAULT_DELTA, check_delta, solve_max_min
from .mc_oracle import McConfig, estimate_sinr_terms
from .power_assoc import DropLp, PowerMinResult, association_rule_check, max_snr_mask, solve_power_min
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


class HarnessInvariantError(RuntimeError):
    """A per-drop consistency check failed; indicates a solver or model bug."""


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


def check_solution_invariants(
    stats: ChannelStats, scenario: NetworkScenario, result: PowerMinResult
) -> None:
    """Re-assert the optimality contracts on a feasible solve at the targets
    it was solved at, ``result.targets`` (raises HarnessInvariantError):
    per-BS caps to CAP_GATE_W, every SE within 1e-9 of its target, every QoS
    row binding to 1e-8 relative, the dual association rule, and (exactly)
    joint transmission only where a cap binds: nonbasic powers are exact
    zeros and each user needs a basic one, so the users served by two or
    more BSs are at most the nonbasic cap slacks, and the serving pairs at
    most the basic powers."""
    alloc, targets = result.allocation, result.targets
    cap = alloc.per_bs_power() - scenario.pmax
    if (cap > CAP_GATE_W).any():
        raise HarnessInvariantError(f"per-BS power cap violated by {cap.max():.3e} W")
    sinr = sinr_mrt_all(stats, alloc, scenario)
    se = spectral_efficiency(sinr, scenario.coherence_length, scenario.pilot_length)
    if (se < targets.xi - 1e-9).any():
        raise HarnessInvariantError("achieved SE fell below its target")
    binding = np.abs(sinr / targets.xi_hat - 1.0)
    if binding.max() > 1e-8:
        raise HarnessInvariantError(
            f"a QoS constraint is not binding (rel. residual {binding.max():.3e})"
        )
    n = result.allowed.sum()  # the basis indexes n powers, then K QoS and L cap slacks
    tight_caps = scenario.num_bs - np.count_nonzero(result.basis >= n + scenario.num_users)
    joint = np.count_nonzero(result.serving.sum(axis=0) >= 2)
    if joint > tight_caps or result.serving.sum() > np.count_nonzero(result.basis < n):
        raise HarnessInvariantError(
            f"joint transmission beyond the binding caps: {joint} joint users, "
            f"{tight_caps} cap slacks nonbasic, basis {result.basis.tolist()}"
        )
    violations = association_rule_check(stats, scenario, result)
    if violations:
        raise HarnessInvariantError(f"association rule violated: {violations[:5]}")


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


def drop_lps(stats: ChannelStats) -> tuple:
    """The (joint, max-SNR) ``DropLp`` pair that every cell of the drop solves."""
    return DropLp(stats), DropLp(stats, max_snr_mask(stats.beta))


def solve_cell(
    lps: tuple,
    scenario: NetworkScenario,
    mode: str,
    drop_index: int,
    targets: QosTargets | None,
    delta: float,
) -> tuple:
    """Solve one (drop, antenna count) cell with both association methods,
    the drop's ``drop_lps`` pair, and check every per-cell invariant.

    Returns (joint result, max-SNR result): PowerMinResults in powermin
    mode, MaxMinResults in maxmin mode. Power-min solves at ``targets``,
    which depend on the SE target, K, tau_c and tau_p alone, so the caller
    builds them once for all its cells; maxmin ignores them. The published
    allocations, the feasible power-min pair or each bisection's
    ``last_feasible``, all go through ``check_solution_invariants`` at their
    own targets. A failed check raises HarnessInvariantError, and any
    RuntimeError is re-raised with its type and a message naming the cell.
    Each solve starts from its ``DropLp``'s basis, max-SNR association until
    a max-min probe moves it; bisections also use and extend probe outcomes.
    """
    try:
        if mode == "powermin":
            opt, snr = (solve_power_min(lp, targets, scenario) for lp in lps)
            if snr.feasible and not opt.feasible:
                raise HarnessInvariantError("max-SNR feasible but joint optimization infeasible")
            if snr.feasible and opt.objective > snr.objective * (1.0 + 1e-9):
                raise HarnessInvariantError("optimal objective exceeds the max-SNR objective")
            published = (opt, snr)
        elif mode == "maxmin":
            opt, snr = (solve_max_min(lp, scenario, delta=delta) for lp in lps)
            if opt.xi_lower < snr.xi_lower - delta - 1e-12:
                raise HarnessInvariantError("joint max-min level fell below the max-SNR level")
            published = (opt.last_feasible, snr.last_feasible)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        for res in published:
            if res is not None and res.feasible:
                check_solution_invariants(lps[0].stats, scenario, res)
    except RuntimeError as e:
        raise type(e)(f"drop {drop_index}, M={scenario.num_antennas}, {mode}: {e}") from e
    return opt, snr


def checked_targets(scenario: NetworkScenario, target_se: float, delta: float) -> QosTargets:
    """The uniform targets at ``target_se``, after checking it and ``delta``
    (ValueError): a run checks both settings, whichever mode it solves."""
    targets = QosTargets.uniform(target_se, scenario)
    check_delta(delta)
    return targets


def run_sweep(spec: SweepSpec, traces: bool = False) -> SweepResult:
    """Run the sweep: per drop, sample users and shadowing once, then solve
    every antenna count on the same realization with the drop's one
    ``DropLp`` per association mask. A cell leaves only its table row and,
    traced in maxmin mode, its traces.jsonl line. Both settings are checked
    before the first drop (``checked_targets``), as config.json records them."""
    if spec.scenario_path is not None:
        base = load_scenario(spec.scenario_path)
    else:
        base = default_scenario(spec.antenna_counts[0], spec.num_users, rng_seed=spec.rng_seed)
    targets = checked_targets(base, spec.target_se, spec.delta)
    rows: dict[int, list[tuple]] = {m: [] for m in spec.antenna_counts}
    lines = []
    for d, scn0, stats in iter_drops(base, spec.rng_seed, spec.num_drops):
        lps = drop_lps(stats)
        for m in spec.antenna_counts:
            opt, snr = solve_cell(lps, replace(scn0, num_antennas=m), spec.mode, d, targets, spec.delta)
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
    opt, snr = solve_cell(drop_lps(channel_stats(scenario)), scenario, mode, 0, targets, delta)
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
