"""The layers the traced run measures, and the per-layer metrics it reports.

Each layer is one mimopower module; its spans are calls to the module's
public functions. Which end-to-end metric each layer should move, and on
which workload:

  lp           cells_per_s on maxmin-sweep (most) and powermin-sweep
  power_assoc  cells_per_s on powermin-sweep
  maxmin       cells_per_s on maxmin-sweep
  harness      cells_per_s on powermin-sweep
  mc_oracle    mc_samples_per_s and peak_rss_mb on oracle-validate
  channel      cells_per_s on every workload (a small share)
  se           cells_per_s on maxmin-sweep
  cli          setup_s and cells_per_s on the sweeps
"""

from __future__ import annotations

import collections
import inspect
import os
import statistics

import numpy as np

from mimopower import lp as _lp
from mimopower import mc_oracle as _mc_oracle

from spans import NOTE_SPAN, self_times

# layer -> (module, public functions); a "Class.method" entry is a classmethod.
LAYERS = {
    "lp": ("mimopower.lp", ("solve",)),
    "power_assoc": (
        "mimopower.power_assoc",
        ("build_lp", "solve_power_min", "solve_max_snr", "association_rule_check"),
    ),
    "maxmin": ("mimopower.maxmin", ("solve_max_min",)),
    "harness": (
        "mimopower.harness",
        ("run_sweep", "check_solution_invariants", "emit_results", "validate_closed_form"),
    ),
    "mc_oracle": ("mimopower.mc_oracle", ("estimate_sinr_terms",)),
    "channel": (
        "mimopower.channel",
        ("large_scale_fading", "estimation_quality", "sample_user_positions", "channel_stats"),
    ),
    "se": ("mimopower.se", ("QosTargets.from_se", "QosTargets.uniform", "se_mrt_all", "sinr_mrt_all")),
    "cli": ("mimopower.cli", ("main",)),
}

TARGETS = [
    (f"{layer}.{attr}", module, attr) for layer, (module, attrs) in LAYERS.items() for attr in attrs
]

# Bytes of one complex64 draw and real flops of one complex multiply-add.
_COMPLEX64_BYTES = 8
_CMAC_FLOPS = 8

_estimate_signature = inspect.signature(_mc_oracle.estimate_sinr_terms)


def _note_lp_solve(args, kwargs, sol):
    """(pivots, infeasible, worst lp.verify residual or None)."""
    program = args[0] if args else kwargs["lp"]
    worst = _lp.verify(program, sol).worst if sol.status == _lp.LpStatus.OPTIMAL else None
    return (sol.iterations, sol.status == _lp.LpStatus.INFEASIBLE, worst)


def _note_max_min(args, kwargs, result):
    """(bisection probes, feasible probes)."""
    return (result.iterations, sum(p.feasible for p in result.trace))


def _note_estimate(args, kwargs, est):
    """(samples, draw bytes, contraction flops), computed from the shapes.

    Per batch of nb draws the oracle fills z_hat (L, K, M, nb) and z_err
    (L, M, nb) with complex64 and contracts h_user against z_hat over M, so
    both counts are linear in nb and sum over batches to the sample count.
    """
    bound = _estimate_signature.bind(*args, **kwargs)
    L, K = bound.arguments["stats"].beta.shape
    M = bound.arguments["scenario"].num_antennas
    n = bound.arguments["cfg"].num_samples
    return (n, _COMPLEX64_BYTES * L * M * n * (K + 1), _CMAC_FLOPS * L * K * M * n)


def _note_emit(args, kwargs, paths):
    return sum(os.path.getsize(p) for p in paths)


NOTES = {
    "lp.solve": _note_lp_solve,
    "maxmin.solve_max_min": _note_max_min,
    "mc_oracle.estimate_sinr_terms": _note_estimate,
    "harness.emit_results": _note_emit,
}

# Derived from array shapes, not measured: a CPU run cannot count bytes moved.
COMPUTED = ("mc_oracle.draw_bytes", "mc_oracle.contraction_flops", "mc_oracle.gflops_per_s")

# Metrics that must repeat exactly from pass to pass (and run to run).
COUNT_METRICS = (
    "lp.solves",
    "lp.pivots",
    "lp.pivots_per_solve",
    "lp.infeasible_frac",
    "lp.verify_worst",
    "power_assoc.calls",
    "maxmin.calls",
    "maxmin.probes",
    "maxmin.probe_feasible_frac",
    "maxmin.lp_solves_per_call",
    "harness.invariant_checks",
    "harness.emit_bytes",
    "mc_oracle.calls",
    "mc_oracle.samples",
    "mc_oracle.draw_bytes",
    "mc_oracle.contraction_flops",
    "channel.calls",
    "se.calls",
)

# Percentiles tried for the tail -> the inverse of the share of samples beyond it.
_TAIL_LADDER = {50.0: 2, 90.0: 10, 99.0: 100, 99.9: 1000}
MIN_BEYOND = 10


def resolvable(p: float, n: int) -> bool:
    """True when at least MIN_BEYOND of n samples lie beyond percentile p."""
    return n >= MIN_BEYOND * _TAIL_LADDER[p]


def tail_percentile(values):
    """(p, value, n) for the highest ladder percentile with at least
    MIN_BEYOND samples beyond it; p and value are None when even the median
    has fewer."""
    n = len(values)
    usable = [p for p in _TAIL_LADDER if resolvable(p, n)]
    if not usable:
        return None, None, n
    return usable[-1], float(np.percentile(values, usable[-1])), n


def _ratio(num, den):
    return num / den if den else 0.0


def _pass_metrics(acc) -> dict:
    """Per-layer metrics of one pass from its accumulated sums."""
    solves = acc["calls.lp"]
    out = {
        "lp.solves": solves,
        "lp.pivots": acc["pivots"],
        "lp.pivots_per_solve": _ratio(acc["pivots"], solves),
        "lp.self_s": acc["self.lp"],
        "lp.infeasible_frac": _ratio(acc["infeasible"], solves),
        "lp.verify_worst": acc["verify_worst"],
        "power_assoc.calls": acc["calls.power_assoc"],
        "power_assoc.build_lp_s": acc["incl.power_assoc.build_lp"],
        "power_assoc.self_s": acc["self.power_assoc"],
        "power_assoc.assoc_check_s": acc["incl.power_assoc.association_rule_check"],
        "maxmin.calls": acc["calls.maxmin"],
        "maxmin.probes": acc["probes"],
        "maxmin.probe_feasible_frac": _ratio(acc["feasible_probes"], acc["probes"]),
        "maxmin.lp_solves_per_call": _ratio(acc["solves_in_maxmin"], acc["calls.maxmin"]),
        "maxmin.self_s": acc["self.maxmin"],
        "harness.invariant_checks": acc["n.harness.check_solution_invariants"],
        "harness.invariants_s": acc["incl.harness.check_solution_invariants"],
        "harness.emit_s": acc["incl.harness.emit_results"],
        "harness.emit_bytes": acc["emit_bytes"],
        "harness.self_s": acc["self.harness"],
        "mc_oracle.calls": acc["calls.mc_oracle"],
        "mc_oracle.samples": acc["samples"],
        "mc_oracle.self_s": acc["self.mc_oracle"],
        "mc_oracle.draw_bytes": acc["draw_bytes"],
        "mc_oracle.contraction_flops": acc["flops"],
        "mc_oracle.gflops_per_s": _ratio(acc["flops"], acc["self.mc_oracle"]) / 1e9,
        "cli.self_s": acc["self.cli"],
    }
    for layer in ("channel", "se"):
        out[f"{layer}.calls"] = acc[f"calls.{layer}"]
        out[f"{layer}.self_s"] = acc[f"self.{layer}"]
    return out


def _distribution(prefix, values_ms) -> dict:
    """Median, p90 and the tail percentile of a span duration, with its count.

    A percentile with fewer than MIN_BEYOND samples beyond it reads 0.
    """
    n = len(values_ms)
    tail_p, tail_v, _ = tail_percentile(values_ms)
    out = {f"{prefix}_n": n, f"{prefix}_tail_pct": tail_p or 0.0, f"{prefix}_tail": tail_v or 0.0}
    for p in (50.0, 90.0):
        out[f"{prefix}_p{p:.0f}"] = float(np.percentile(values_ms, p)) if resolvable(p, n) else 0.0
    return out


def layer_metrics(spans, pass_ids):
    """Per-layer metrics over the traced passes, the calls per pass of each
    layer, and the problems found.

    Counts must repeat exactly from pass to pass; a difference is a problem.
    Times are the median over passes of each pass's total. Self time is a
    span's duration minus its child spans' durations.
    """
    selfs = self_times(spans)
    accs = {p: collections.defaultdict(float) for p in pass_ids}
    in_maxmin = [False] * len(spans)
    lp_ms, maxmin_ms = [], []
    for i, (name, start, end, parent, pass_id, note) in enumerate(spans):
        in_maxmin[i] = name == "maxmin.solve_max_min" or (parent >= 0 and in_maxmin[parent])
        if name == NOTE_SPAN or pass_id not in accs:
            continue
        acc = accs[pass_id]
        layer = name.split(".", 1)[0]
        acc[f"calls.{layer}"] += 1
        acc[f"self.{layer}"] += selfs[i]
        acc[f"n.{name}"] += 1
        acc[f"incl.{name}"] += end - start
        if name == "lp.solve":
            lp_ms.append(1e3 * (end - start))
            acc["pivots"] += note[0]
            acc["infeasible"] += note[1]
            if note[2] is not None:
                acc["verify_worst"] = max(acc["verify_worst"], note[2])
            if parent >= 0 and in_maxmin[parent]:
                acc["solves_in_maxmin"] += 1
        elif name == "maxmin.solve_max_min":
            maxmin_ms.append(1e3 * (end - start))
            acc["probes"] += note[0]
            acc["feasible_probes"] += note[1]
        elif name == "mc_oracle.estimate_sinr_terms":
            acc["samples"] += note[0]
            acc["draw_bytes"] += note[1]
            acc["flops"] += note[2]
        elif name == "harness.emit_results":
            acc["emit_bytes"] += note
    per_pass = [_pass_metrics(accs[p]) for p in pass_ids]
    problems = []
    metrics = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key in COUNT_METRICS:
            if any(v != values[0] for v in values):
                problems.append(f"{key} differs between passes: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    metrics.update(_distribution("lp.solve_ms", lp_ms))
    metrics.update(_distribution("maxmin.call_ms", maxmin_ms))
    calls = {layer: int(accs[pass_ids[0]][f"calls.{layer}"]) for layer in LAYERS}
    return metrics, calls, problems


def _units():
    units = {f"{layer}.self_s": ("s", "lower") for layer in LAYERS}
    for key in ("power_assoc.build_lp_s", "power_assoc.assoc_check_s", "harness.invariants_s", "harness.emit_s"):
        units[key] = ("s", "lower")
    for prefix in ("lp.solve_ms", "maxmin.call_ms"):
        units.update({f"{prefix}_p50": ("ms", "lower"), f"{prefix}_p90": ("ms", "lower")})
        units.update({f"{prefix}_tail": ("ms", "lower"), f"{prefix}_tail_pct": ("%", "higher")})
        units[f"{prefix}_n"] = ("count", "higher")
    for key in COUNT_METRICS:
        units.setdefault(key, ("frac" if key.endswith("_frac") else "count", "lower"))
    units["lp.verify_worst"] = ("rel", "lower")
    units["harness.emit_bytes"] = ("B", "lower")
    units["mc_oracle.draw_bytes"] = ("B", "lower")
    units["mc_oracle.contraction_flops"] = ("flop", "lower")
    units["mc_oracle.gflops_per_s"] = ("GFLOP/s", "higher")
    units["trace.overhead_frac"] = ("frac", "lower")
    return units


# Per-layer metric -> (unit, better); every name the traced run reports.
PER_LAYER = _units()
