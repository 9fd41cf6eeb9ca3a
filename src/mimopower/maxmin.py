"""Weighted max-min SE optimization by bisection over feasibility LPs.

Feasibility of a candidate level xi (targets xi_k = w_k * xi) is monotone,
so a bisection over [0, xi_upper] converges linearly; the returned
allocation is the solution of the last feasible probe, whose candidate is
exactly the final lower bound. Every probe is ``solve_power_min`` under one
association mask (joint by default, or e.g. the max-SNR mask).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelStats, NetworkScenario
from .power_assoc import AssociationMap, PowerMinResult, solve_power_min
from .se import PowerAllocation, QosTargets, spectral_efficiency

DEFAULT_DELTA = 0.01  # bisection accuracy in bit/symbol


def expected_iterations(xi_range: float, delta: float) -> int:
    """Bisection count: smallest n with range / 2^n <= delta."""
    if xi_range <= delta:
        return 0
    return math.ceil(math.log2(xi_range / delta))


def auto_upper_bound(stats: ChannelStats, scenario: NetworkScenario, weights) -> float:
    """A provably infeasible-or-boundary SE level.

    Grants every user full power from every BS and drops all interference,
    which upper-bounds any achievable weighted SE; the result is nudged up
    by 1e-6 relative so the bisection starts outside the feasible range.
    """
    weights = np.asarray(weights, dtype=float)
    snr_cap = scenario.num_antennas * (scenario.pmax @ stats.gamma) / scenario.noise_dl
    se_cap = spectral_efficiency(snr_cap, scenario.coherence_length, scenario.pilot_length)
    return float((se_cap / weights).min() * (1.0 + 1e-6))


@dataclass
class ProbeRecord:
    iteration: int
    candidate: float
    feasible: bool
    lower: float
    upper: float

    def to_json_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "candidate": self.candidate,
            "feasible": self.feasible,
            "lower": self.lower,
            "upper": self.upper,
        }


@dataclass
class MaxMinResult:
    xi_lower: float
    xi_upper: float
    allocation: PowerAllocation
    association: AssociationMap
    iterations: int
    trace: list = field(default_factory=list)
    last_feasible: PowerMinResult | None = None


def solve_max_min(
    stats: ChannelStats,
    scenario: NetworkScenario,
    weights=None,
    delta: float = DEFAULT_DELTA,
    allowed=None,
) -> MaxMinResult:
    """Maximize the minimum weighted SE over users, to accuracy ``delta`` in
    bit/symbol.

    ``allowed`` is the (L, K) association mask of every feasibility probe
    (see ``solve_power_min``); None allows every BS. A zero level is
    feasible by construction (zero powers), so the loop always terminates
    with a valid interval.
    """
    if weights is None:
        weights = np.ones(scenario.num_users)
    weights = np.asarray(weights, dtype=float)
    if delta <= 0.0:
        raise ValueError("delta must be positive")

    upper0 = auto_upper_bound(stats, scenario, weights)
    num_iters = expected_iterations(upper0, delta)

    lower = 0.0
    width = upper0
    best: PowerMinResult | None = None
    trace: list[ProbeRecord] = []
    it = 0
    # Width halves exactly each iteration, so the count matches
    # expected_iterations(upper0, delta); the cap keeps the two equal where
    # log2 rounds.
    while width > delta and it < num_iters:
        candidate = lower + width / 2.0
        targets = QosTargets.from_se(
            weights * candidate, scenario.coherence_length, scenario.pilot_length, weights=weights
        )
        res = solve_power_min(stats, targets, scenario, allowed)
        if res.feasible:
            lower = candidate
            best = res
        width /= 2.0
        it += 1
        trace.append(
            ProbeRecord(
                iteration=it,
                candidate=candidate,
                feasible=res.feasible,
                lower=lower,
                upper=lower + width,
            )
        )

    if best is not None:
        allocation, assoc = best.allocation, best.association
    else:
        allocation = PowerAllocation.zeros(scenario.num_bs, scenario.num_users)
        assoc = AssociationMap.from_allocation(allocation, scenario.pmax)
    return MaxMinResult(
        xi_lower=lower,
        xi_upper=lower + width,
        allocation=allocation,
        association=assoc,
        iterations=it,
        trace=trace,
        last_feasible=best,
    )
