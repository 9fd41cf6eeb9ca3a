"""Weighted max-min SE optimization by bisection over feasibility LPs.

Feasibility of a candidate level xi (targets xi_k = w_k * xi) is monotone,
so a bisection over [0, auto_upper_bound] converges linearly: each probe
halves the interval exactly, and it runs ``expected_iterations`` probes, the
fewest that bring its width to delta. Every probe is a
``solve_power_min`` of one ``DropLp``: one drop under one association mask
(joint, or e.g. the max-SNR mask). ``MaxMinResult.last_feasible`` is the
PowerMinResult of the last feasible probe (allocation, duals, ``serving``
mask and its targets w * xi_lower), whose candidate is exactly the final
lower bound; it is None when no level above zero was feasible.

The antenna count M and the targets enter the probe LP only through the QoS
scale s_k = M / xi_hat_k: row k's coefficient on rho_k is beta - s_k * gamma.
With rho >= 0, a larger s_k only loosens row k, so feasibility is monotone
in s componentwise. The ``DropLp`` a bisection probes keeps the probed
s-vectors of its drop and mask and answers a probe without an LP when its s
dominates a feasible one or is dominated by an infeasible one; the antenna
counts of a drop share it, which skips most LPs of a sweep. A bisection's
own probes never answer each other, since every candidate lies strictly
inside (lower, upper). When the last feasible level was answered without
an LP, its LP is solved once at exactly that candidate for the allocation
and the duals.

Under the one-hot max-SNR mask the feasible scales have a closed form:
with uniform weights, a probe is feasible exactly when s >= ``max_snr_scale``,
the largest of L Perron roots. The sweep records that root, widened by
``lp.FEAS_TOL`` either way, on the max-SNR ``DropLp`` of a drop, so only the
probes inside that band and the final re-solve take an LP.

Every probe (and that re-solve) starts the simplex from ``DropLp.basis``,
and a feasible probe writes its optimal basis back: it is usually a few
pivots from the next probe's optimal basis, and the result depends only on
that basis, not on where the simplex started.

A probe pays only for its verdict. It computes xi_hat and s, and builds
``QosTargets`` only when it needs an LP; it reads no vertex, since a
``PowerMinResult`` reads its allocation and duals from the LP solution
when first used (see ``power_assoc``). So a bisection that publishes an
allocation reads one vertex, that of ``last_feasible``, when its caller
reads it (the sweep reads those of a whole drop in one stack), and a
bisection that ends at level zero reads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .power_assoc import DropLp, PowerMinResult, solve_power_min
from .se import QosTargets, sinr_threshold, spectral_efficiency

DEFAULT_DELTA = 0.01  # bisection accuracy in bit/symbol
MIN_DELTA = 1e-9  # finer bisections converge onto the LP's 1e-9 tolerance on the caps


def expected_iterations(xi_range: float, delta: float) -> int:
    """Bisection count: smallest n with range / 2^n <= delta."""
    if xi_range <= delta:
        return 0
    return math.ceil(math.log2(xi_range / delta))


def check_delta(delta: float) -> None:
    """Raise ValueError unless the bisection accuracy is finite and >= MIN_DELTA (NaN is neither)."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if delta < MIN_DELTA:
        raise ValueError(f"delta must be at least {MIN_DELTA:g} bit/symbol, got {delta:g}")
    if math.isinf(delta):
        raise ValueError("delta must be finite")


def auto_upper_bound(lp: DropLp, weights, num_antennas: int) -> float:
    """A provably infeasible-or-boundary SE level of ``lp``'s drop at
    ``num_antennas`` antennas.

    Grants every user full power from every BS and drops all interference,
    which upper-bounds any achievable weighted SE; the result is nudged up
    by 1e-6 relative so the bisection starts outside the feasible range.
    """
    weights = np.asarray(weights, dtype=float)
    scn = lp.scenario
    snr_cap = num_antennas * (scn.pmax @ lp.stats.gamma) / scn.noise_dl
    se_cap = spectral_efficiency(snr_cap, scn.coherence_length, scn.pilot_length)
    return float((se_cap / weights).min() * (1.0 + 1e-6))


def max_snr_scale(lp: DropLp) -> float:
    """The least scale s = M / xi_hat at which every user of ``lp``'s drop
    can meet one SINR target xi_hat under its one-hot mask, the sweep's
    ``max_snr_mask``; any other mask raises ValueError.

    User k, served only by its BS b(k) at power p_k, meets it when
    s p_k >= (F p)_k + v_k, with F[k, t] = beta[b(t), k] / gamma[b(k), k]
    and v_k = noise_dl / gamma[b(k), k], and BS l's cap is a_l^T p <= pmax_l,
    a_l marking its users. The least such s is max_l rho(F + v a_l^T / pmax_l),
    the largest Perron root (Tan, Chiang and Srikant, IEEE TSP 2011), here
    from one stacked eigenvalue solve of the L matrices.
    """
    mask, stats = lp.mask, lp.stats
    if (mask.sum(axis=0) != 1).any():
        raise ValueError("max_snr_scale needs a one-hot mask")
    b = np.argmax(mask, axis=0)
    gamma = stats.gamma[b, np.arange(b.size)]
    f = stats.beta[b].T / gamma[:, None]
    v = lp.scenario.noise_dl / gamma
    stacked = f + v[:, None] * (mask / lp.scenario.pmax[:, None])[:, None, :]  # (L, K, K)
    return float(np.abs(np.linalg.eigvals(stacked)).max())


@dataclass
class ProbeRecord:
    iteration: int
    candidate: float
    feasible: bool
    lower: float
    upper: float


@dataclass
class MaxMinResult:
    xi_lower: float
    xi_upper: float
    iterations: int
    trace: list = field(default_factory=list)
    last_feasible: PowerMinResult | None = None


def solve_max_min(lp: DropLp, num_antennas: int, weights=None, delta: float = DEFAULT_DELTA) -> MaxMinResult:
    """Maximize the minimum weighted SE over users, to accuracy ``delta`` in
    bit/symbol, probing the drop and association mask of ``lp`` at
    ``num_antennas`` antennas.

    ``lp`` holds earlier probe outcomes of its drop and mask, at any antenna
    count (see the module docstring), and gains this call's. ``weights``
    must be positive, one per user, and ``delta`` finite and at least
    MIN_DELTA (ValueError otherwise, NaN included); the weights default to
    ones. The bisection makes exactly ``expected_iterations(bound, delta)``
    probes, ``bound`` from ``auto_upper_bound``, so ``iterations ==
    len(trace)`` and none is made when delta is at least the bound. A zero
    level is feasible by construction (zero powers), so the final interval
    always holds the optimum. A re-solve at a final level ``lp`` answered
    that is not OPTIMAL raises RuntimeError.
    """
    if weights is None:
        weights = np.ones(lp.scenario.num_users)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (lp.scenario.num_users,) or not (weights > 0.0).all():
        raise ValueError(f"weights must be strictly positive, one per user ({lp.scenario.num_users})")
    check_delta(delta)

    upper0 = auto_upper_bound(lp, weights, num_antennas)
    tau_c, tau_p = lp.scenario.coherence_length, lp.scenario.pilot_length
    lower = 0.0
    width = upper0
    best: PowerMinResult | None = None
    best_level = None  # (xi, xi_hat) of the last feasible level
    trace: list[ProbeRecord] = []
    for it in range(1, expected_iterations(upper0, delta) + 1):
        candidate = lower + width / 2.0
        xi = weights * candidate
        xi_hat = sinr_threshold(xi, tau_c, tau_p)
        s = num_antennas / xi_hat
        res = None
        feasible = lp.lookup(s)
        if feasible is None:
            res = _probe(lp, QosTargets(xi, xi_hat), num_antennas)
            feasible = res.feasible
            lp.record(s, feasible)
        if feasible:
            lower, best, best_level = candidate, res, (xi, xi_hat)
        width /= 2.0
        trace.append(
            ProbeRecord(
                iteration=it,
                candidate=candidate,
                feasible=feasible,
                lower=lower,
                upper=lower + width,
            )
        )

    if best is None and best_level is not None:
        best = _probe(lp, QosTargets(*best_level), num_antennas)
        if not best.feasible:
            raise RuntimeError(
                f"max-min level {lower!r} is feasible by earlier probes, but its re-solve is "
                f"{best.status.value}"
            )
    return MaxMinResult(
        xi_lower=lower,
        xi_upper=lower + width,
        iterations=len(trace),
        trace=trace,
        last_feasible=best,
    )


def _probe(lp: DropLp, targets, num_antennas) -> PowerMinResult:
    """A solve from ``lp.basis``; a feasible result writes its own back."""
    res = solve_power_min(lp, targets, num_antennas)
    if res.feasible:
        lp.basis = res.basis
    return res
