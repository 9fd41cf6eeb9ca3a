"""Monte-Carlo experiment harness: drops, sweeps, metrics, and file output.

Defaults reproduce the reference deployment: 4 BSs on the corners of a
1 km x 1 km square, 20 uniformly dropped users (10 m exclusion), 20 MHz
bandwidth, 200-symbol coherence blocks with 20 pilot symbols, 7 dB
log-normal shadowing, -96 dBm noise, 40 W peak power per BS, and pilot
sequences of 2e-7 J total energy (0.2 W per symbol at 20 MHz).

Per-drop randomness comes from a stream seeded by (sweep seed, drop index),
so results are independent of evaluation order; antenna sweeps reuse the
same drops, which makes the monotone-in-M trends hold drop by drop. A cell's
two results, joint and max-SNR, are its only record: every output reads them.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .channel import (
    ChannelStats,
    NetworkScenario,
    channel_stats,
    dbm_to_watt,
    load_scenario,
    sample_user_positions,
    scenario_to_json_dict,
)
from .maxmin import DEFAULT_DELTA, FeasibilityBracket, solve_max_min
from .mc_oracle import McConfig, estimate_sinr_terms
from .power_assoc import PowerMinResult, association_rule_check, max_snr_mask, solve_power_min
from .se import PowerAllocation, QosTargets, se_mrt_all, sinr_mrt_all, spectral_efficiency

DEFAULT_BANDWIDTH_HZ = 20e6
DEFAULT_PILOT_ENERGY_J = 2e-7
DEFAULT_NOISE_DBM = -96.0
DEFAULT_PMAX_W = 40.0
DEFAULT_SHADOW_STD_DB = 7.0
DEFAULT_COHERENCE_LENGTH = 200
DEFAULT_TARGET_SE = 1.0
DEFAULT_NUM_USERS = 20
MIN_BS_USER_DIST_KM = 0.01


class HarnessInvariantError(RuntimeError):
    """A per-drop consistency check failed; indicates a solver or model bug."""


def default_scenario(
    num_antennas: int, num_users: int = DEFAULT_NUM_USERS, rng_seed: int = 0
) -> NetworkScenario:
    """Reference deployment with freshly sampled user positions.

    Other deployments come in as scenario JSON (``channel.load_scenario``).
    """
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
    collect_traces: bool = False

    def __post_init__(self):
        object.__setattr__(self, "antenna_counts", tuple(int(m) for m in self.antenna_counts))
        if not self.antenna_counts:
            raise ValueError("antenna_counts must be nonempty")
        if len(set(self.antenna_counts)) < len(self.antenna_counts):
            raise ValueError(f"antenna_counts must not repeat a count, got {self.antenna_counts}")
        if self.num_drops < 1:
            raise ValueError("num_drops must be >= 1")
        if self.mode not in ("powermin", "maxmin"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class SweepResult:
    """A sweep's cells and table. ``drops`` maps each antenna count to its
    cells' (joint, max-SNR) results in drop order (``solve_cell``'s pairs);
    the table, traces.jsonl and the exit code are all read from them."""

    spec: SweepSpec
    drops: dict
    table: list  # (num_antennas, metric, value) rows
    config: dict

    @property
    def any_feasible(self) -> bool:
        """Whether some joint power-min solve was feasible (powermin sweeps)."""
        return any(opt.feasible for cells in self.drops.values() for opt, _ in cells)


def check_solution_invariants(
    stats: ChannelStats,
    targets: QosTargets,
    scenario: NetworkScenario,
    result: PowerMinResult,
) -> None:
    """Re-assert the optimality contracts on a feasible solve (raises on failure)."""
    alloc = result.allocation
    cap = alloc.per_bs_power() - scenario.pmax
    if (cap > 1e-9).any():
        raise HarnessInvariantError(f"per-BS power cap violated by {cap.max():.3e} W")
    sinr = sinr_mrt_all(stats, alloc, scenario)
    se = spectral_efficiency(sinr, scenario.coherence_length, scenario.pilot_length)
    if (se < targets.xi - 1e-6).any():
        raise HarnessInvariantError("achieved SE fell below its target")
    active = targets.xi_hat > 0.0
    binding = np.abs(sinr[active] / targets.xi_hat[active] - 1.0)
    if binding.size and binding.max() > 1e-8:
        raise HarnessInvariantError(
            f"an active QoS constraint is not binding (rel. residual {binding.max():.3e})"
        )
    report = association_rule_check(stats, targets, scenario, result)
    if not report.passed:
        raise HarnessInvariantError(f"association rule violated: {report.violations[:5]}")


def iter_drops(base: NetworkScenario, seed: int, num_drops: int):
    """Yield (d, scenario, stats) per drop: fresh user positions and shadowing
    from a stream seeded by (seed, d), every other field taken from ``base``."""
    for d in range(num_drops):
        rng = np.random.default_rng([seed, d])
        positions = sample_user_positions(
            base.num_users, base.bs_positions, rng, MIN_BS_USER_DIST_KM
        )
        scn0 = base.with_users(positions)
        yield d, scn0, channel_stats(scn0, rng)


def solve_cell(
    stats: ChannelStats,
    scenario: NetworkScenario,
    mode: str,
    drop_index: int,
    target_se: float,
    delta: float,
    brackets: tuple = (None, None),
) -> tuple:
    """Solve one (drop, antenna count) cell with both association methods
    and check every per-cell invariant.

    Returns (joint result, max-SNR result): PowerMinResults in powermin
    mode, MaxMinResults in maxmin mode. A failed check raises
    HarnessInvariantError, and any RuntimeError is re-raised with its type
    and a message naming the cell. ``brackets`` are the joint and
    max-SNR ``FeasibilityBracket``s of the drop's maxmin bisections; None
    gives a bisection a fresh one.
    """
    try:
        if mode == "powermin":
            targets = QosTargets.uniform(target_se, scenario.num_users, scenario)
            opt = solve_power_min(stats, targets, scenario)
            snr = solve_power_min(stats, targets, scenario, max_snr_mask(stats.beta))
            if snr.feasible and not opt.feasible:
                raise HarnessInvariantError("max-SNR feasible but joint optimization infeasible")
            for res in (opt, snr):
                if res.feasible:
                    check_solution_invariants(stats, targets, scenario, res)
            if snr.feasible and opt.objective > snr.objective * (1.0 + 1e-9):
                raise HarnessInvariantError("optimal objective exceeds the max-SNR objective")
        elif mode == "maxmin":
            opt = solve_max_min(stats, scenario, delta=delta, bracket=brackets[0])
            snr = solve_max_min(
                stats, scenario, delta=delta, allowed=max_snr_mask(stats.beta), bracket=brackets[1]
            )
            if opt.xi_lower < snr.xi_lower - delta - 1e-12:
                raise HarnessInvariantError("joint max-min level fell below the max-SNR level")
            for mm in (opt, snr):
                if mm.last_feasible is not None:
                    se = se_mrt_all(stats, mm.last_feasible.allocation, scenario)
                    if (se < mm.xi_lower - 1e-9).any():
                        raise HarnessInvariantError("achieved SE fell below the max-min lower bound")
                    # xi_lower is exactly the candidate of the last feasible probe
                    targets = QosTargets.uniform(mm.xi_lower, scenario.num_users, scenario)
                    check_solution_invariants(stats, targets, scenario, mm.last_feasible)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    except RuntimeError as e:
        raise type(e)(f"drop {drop_index}, M={scenario.num_antennas}, {mode}: {e}") from e
    return opt, snr


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the sweep: per drop, sample users and shadowing once, then solve
    every antenna count on the same realization, the maxmin bisections of
    one drop sharing a feasibility bracket per association mask."""
    if spec.scenario_path is not None:
        base = load_scenario(spec.scenario_path)
    else:
        base = default_scenario(spec.antenna_counts[0], spec.num_users, rng_seed=spec.rng_seed)
    drops: dict[int, list[tuple]] = {m: [] for m in spec.antenna_counts}
    for d, scn0, stats in iter_drops(base, spec.rng_seed, spec.num_drops):
        brackets = (FeasibilityBracket(), FeasibilityBracket())
        for m in spec.antenna_counts:
            scn = scn0.with_antennas(m)
            drops[m].append(solve_cell(stats, scn, spec.mode, d, spec.target_se, spec.delta, brackets))
    # collect_traces picks the files written, not their contents
    spec_fields = {k: v for k, v in asdict(spec).items() if k != "collect_traces"}
    config = {"spec": spec_fields, "base_scenario": scenario_to_json_dict(base)}
    return SweepResult(spec=spec, drops=drops, table=aggregate_table(spec, drops), config=config)


def _mean(values) -> float | None:
    vals = list(values)
    return float(np.mean(vals)) if vals else None


def aggregate_table(spec: SweepSpec, drops: dict) -> list:
    """Long-format rows (num_antennas, metric, value); empty metrics are omitted.

    Transmit powers average only over drops where both association methods
    are feasible, so the comparison is like for like. A level-0 max-min
    cell has no feasible solve and serves nobody: its joint fraction is 0.
    """
    rows = []
    for m in spec.antenna_counts:
        cells = drops[m]
        n = len(cells)
        rows.append((m, "num_drops", n))
        if spec.mode == "powermin":
            rows.append((m, "bad_service_prob_optimal", sum(not o.feasible for o, _ in cells) / n))
            rows.append((m, "bad_service_prob_max_snr", sum(not s.feasible for _, s in cells) / n))
            both = [(o, s) for o, s in cells if o.feasible and s.feasible]
            rows.append((m, "num_both_feasible", len(both)))
            rows.append((m, "mean_total_power_w_optimal", _mean(o.objective for o, _ in both)))
            rows.append((m, "mean_total_power_w_max_snr", _mean(s.objective for _, s in both)))
            frac = _mean(o.joint_fraction for o, _ in cells if o.feasible)
            rows.append((m, "joint_tx_fraction_optimal", frac))
        else:
            rows.append((m, "mean_maxmin_se_optimal", _mean(o.xi_lower for o, _ in cells)))
            rows.append((m, "mean_maxmin_se_max_snr", _mean(s.xi_lower for _, s in cells)))
            frac = _mean(o.last_feasible.joint_fraction if o.last_feasible else 0.0 for o, _ in cells)
            rows.append((m, "joint_tx_fraction_optimal", frac))
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
    sidecar carrying the sweep spec, base scenario and seed; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w") as fh:
        fh.write(results_csv(result.table))
    json_path = os.path.join(out_dir, "config.json")
    with open(json_path, "w") as fh:
        json.dump(result.config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths = [csv_path, json_path]
    spec = result.spec
    if spec.mode == "maxmin" and spec.collect_traces:
        trace_path = os.path.join(out_dir, "traces.jsonl")
        with open(trace_path, "w") as fh:
            for d in range(spec.num_drops):
                for m in spec.antenna_counts:
                    opt, snr = result.drops[m][d]
                    rec = {"num_antennas": m, "drop": d, "optimal": _trace(opt), "max_snr": _trace(snr)}
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
        paths.append(trace_path)
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
    """Solve a single drop on the scenario as given, with the sweep's checks;
    returns the full JSON record. In maxmin mode the top level holds the
    joint bisection and ``max_snr`` the max-SNR one."""
    opt, snr = solve_cell(channel_stats(scenario), scenario, mode, 0, target_se, delta)
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
    for _ in range(100):
        d = np.linalg.norm(bs[:, None, :] - users[None, :, :], axis=2)
        bad = d.min(axis=0) < 0.02
        if not bad.any():
            break
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
    """Compare the sampling oracle against the closed-form SINR.

    Returns one record per scenario with both values and the relative error;
    a record passes when the error is within ``rel_tol``. Zero scenarios
    raise ValueError: a run that checks nothing must not read as a pass.
    """
    from .se import sinr_mrt

    if num_scenarios < 1:
        raise ValueError(f"validation needs at least one scenario, got {num_scenarios}")

    records = []
    for idx in range(num_scenarios):
        scenario, stats, alloc, user = random_validation_scenario(idx, rng_seed)
        cfg = McConfig(num_samples=num_samples, rng_seed=rng_seed + 1000 + idx)
        est = estimate_sinr_terms(stats, alloc, scenario, user, cfg)
        closed = sinr_mrt(stats, alloc, scenario, user)
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
