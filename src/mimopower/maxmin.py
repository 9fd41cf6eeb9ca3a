"""Weighted max-min SE optimization by bisection over feasibility LPs.

Feasibility of a candidate level xi (targets xi_k = w_k * xi) is monotone,
so a bisection over [0, xi_upper] converges linearly. Every probe is
``solve_power_min`` under one association mask (joint by default, or e.g.
the max-SNR mask). ``MaxMinResult.last_feasible`` is the PowerMinResult of
the last feasible probe (allocation, duals, ``serving`` mask), whose
candidate is exactly the final lower bound; it is None when no level above
zero was feasible.

The antenna count M and the targets enter the probe LP only through the QoS
scale s_k = M / xi_hat_k: row k's coefficient on rho_k is beta - s_k * gamma.
With rho >= 0, a larger s_k only loosens row k, so feasibility is monotone
in s componentwise. A ``FeasibilityBracket`` keeps the probed s-vectors of
one drop under one mask and answers a probe without an LP when its s
dominates a feasible one or is dominated by an infeasible one; sharing it
across the antenna counts of a drop skips most LPs of a sweep. Inside one
bisection it never answers, since every candidate lies strictly inside
(lower, upper). When the last feasible level was answered by the bracket,
its LP is solved once at exactly that candidate for the allocation and the
duals.

The bracket also carries the optimal basis of the last feasible LP it saw,
and every probe (and that re-solve) starts the simplex there: it is usually a
few pivots from the next probe's optimal basis, and the result depends only
on that basis, not on where the simplex started. It builds every probe LP
from one ``PowerMinTemplate`` of its drop and mask, which it makes on first
use, so a bracket is bound to the drop and mask of its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelStats, NetworkScenario
from .power_assoc import PowerMinResult, PowerMinTemplate
from .se import QosTargets, spectral_efficiency

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


@dataclass
class FeasibilityBracket:
    """Probe outcomes of one drop under one association mask, keyed by the
    s-vectors s = M / xi_hat.

    Only the minimal feasible and the maximal infeasible s-vectors are kept;
    with uniform weights every s has equal entries, so each list holds at
    most one vector. Entries never contradict: a probe the stored ones
    decide is answered, not recorded. ``basis`` is the optimal basis of the
    last feasible LP solved under the mask, the next probe's start hint, and
    ``template`` builds the probe LPs.
    """

    feasible: list = field(default_factory=list)
    infeasible: list = field(default_factory=list)
    basis: np.ndarray | None = None
    template: PowerMinTemplate | None = None

    def template_for(self, stats: ChannelStats, allowed) -> PowerMinTemplate:
        """The probe template of the drop ``stats`` and the (L, K) mask
        ``allowed``, built on the first call. A later call with other beta or
        gamma, or with a mask that differs as a bool array, raises
        ValueError: the entries, the basis and the template are the first's."""
        template = self.template
        if template is None:
            self.template = PowerMinTemplate(stats, allowed)
            return self.template
        if not (
            np.array_equal(template.stats.beta, stats.beta)
            and np.array_equal(template.stats.gamma, stats.gamma)
        ):
            raise ValueError("a FeasibilityBracket holds the probes of one drop")
        mask = np.ones(stats.beta.shape, dtype=bool) if allowed is None else np.asarray(allowed, dtype=bool)
        if not np.array_equal(template.mask, mask):
            raise ValueError("a FeasibilityBracket holds the probes of one association mask")
        return template

    def lookup(self, s: np.ndarray) -> bool | None:
        """True if s dominates a feasible entry, False if an infeasible entry
        dominates s, None if no entry decides it."""
        if any((s >= f).all() for f in self.feasible):
            return True
        if any((s <= g).all() for g in self.infeasible):
            return False
        return None

    def record(self, s: np.ndarray, feasible: bool) -> None:
        if feasible:
            self.feasible = [f for f in self.feasible if not (f >= s).all()] + [s]
        else:
            self.infeasible = [g for g in self.infeasible if not (g <= s).all()] + [s]


@dataclass
class MaxMinResult:
    xi_lower: float
    xi_upper: float
    iterations: int
    trace: list = field(default_factory=list)
    last_feasible: PowerMinResult | None = None


def solve_max_min(
    stats: ChannelStats,
    scenario: NetworkScenario,
    weights=None,
    delta: float = DEFAULT_DELTA,
    allowed=None,
    bracket: FeasibilityBracket | None = None,
) -> MaxMinResult:
    """Maximize the minimum weighted SE over users, to accuracy ``delta`` in
    bit/symbol.

    ``allowed`` is the (L, K) association mask of every feasibility probe
    (see ``solve_power_min``); None allows every BS. ``weights`` must be
    positive (ValueError otherwise) and default to ones. A zero level is
    feasible by construction (zero powers), so the loop always terminates
    with a valid interval.

    ``bracket`` holds earlier probe outcomes of the same drop and mask, at
    any antenna count (see the module docstring), and gains this call's;
    None starts an empty one. A bracket filled on another drop or under
    another mask raises ValueError. A re-solve at a bracket-answered final level that is not
    OPTIMAL raises RuntimeError.
    """
    if weights is None:
        weights = np.ones(scenario.num_users)
    weights = np.asarray(weights, dtype=float)
    if (weights <= 0.0).any():
        raise ValueError("weights must be strictly positive")
    if delta <= 0.0:
        raise ValueError("delta must be positive")

    upper0 = auto_upper_bound(stats, scenario, weights)
    num_iters = expected_iterations(upper0, delta)

    if bracket is None:
        bracket = FeasibilityBracket()
    template = bracket.template_for(stats, allowed)
    lower = 0.0
    width = upper0
    best: PowerMinResult | None = None
    best_targets: QosTargets | None = None
    trace: list[ProbeRecord] = []
    it = 0
    # Width halves exactly each iteration, so the count matches
    # expected_iterations(upper0, delta); the cap keeps the two equal where
    # log2 rounds.
    while width > delta and it < num_iters:
        candidate = lower + width / 2.0
        targets = QosTargets.from_se(
            weights * candidate, scenario.coherence_length, scenario.pilot_length
        )
        s = scenario.num_antennas / targets.xi_hat
        res = None
        feasible = bracket.lookup(s)
        if feasible is None:
            res = _probe(template, targets, scenario, bracket)
            feasible = res.feasible
            bracket.record(s, feasible)
        if feasible:
            lower, best, best_targets = candidate, res, targets
        width /= 2.0
        it += 1
        trace.append(
            ProbeRecord(
                iteration=it,
                candidate=candidate,
                feasible=feasible,
                lower=lower,
                upper=lower + width,
            )
        )

    if best is None and best_targets is not None:
        best = _probe(template, best_targets, scenario, bracket)
        if not best.feasible:
            raise RuntimeError(
                f"max-min level {lower!r} is feasible by the bracket, but its re-solve is "
                f"{best.status.value}"
            )
    return MaxMinResult(
        xi_lower=lower,
        xi_upper=lower + width,
        iterations=it,
        trace=trace,
        last_feasible=best,
    )


def _probe(template, targets, scenario, bracket) -> PowerMinResult:
    """``solve_power_min`` from the bracket's basis; a feasible result
    hands the bracket its own basis."""
    res = template.solve(targets, scenario, basis=bracket.basis)
    if res.feasible:
        bracket.basis = res.basis
    return res
