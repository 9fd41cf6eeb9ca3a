"""Closed-form downlink spectral efficiency under MRT with non-coherent joint transmission.

For user k the effective SINR is

    M * sum_i rho[i,k] * gamma[i,k]
    -------------------------------------------------
    sum_i sum_t rho[i,t] * beta[i,k] + noise_dl

and the ergodic SE is (1 - tau_p/tau_c) * log2(1 + SINR) in bit/symbol.
``sinr_mrt_all`` is the only implementation of this SINR: the per-solve
checks read it, and ``validate`` compares the Monte-Carlo oracle against it,
so the oracle certifies the formula the checks use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStats, NetworkScenario

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-BS per-user downlink transmit powers rho, an (L, K) matrix in W,
    or a stack (..., L, K) of them."""

    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        if self.rho.ndim < 2:
            raise ValueError("rho must be an (L, K) matrix or a stack of them")
        if (self.rho < 0.0).any():
            raise ValueError("rho must be nonnegative elementwise")

    def per_bs_power(self) -> np.ndarray:
        """Transmit power of each BS, sum_t rho[..., i, t]."""
        return self.rho.sum(axis=-1)


def spectral_efficiency(sinr, tau_c, tau_p):
    """Ergodic SE in bit/symbol; tau_p == tau_c leaves no data symbols (SE = 0)."""
    if tau_p > tau_c:
        raise ValueError("tau_p cannot exceed tau_c")
    prelog = 1.0 - tau_p / tau_c
    return prelog * np.log1p(np.asarray(sinr, dtype=float)) / _LN2


@dataclass(frozen=True)
class QosTargets:
    """Per-user SE targets xi, positive and finite, and their positive SINR thresholds xi_hat."""

    xi: np.ndarray
    xi_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "xi_hat", np.asarray(self.xi_hat, dtype=float))
        if self.xi.shape != self.xi_hat.shape:
            raise ValueError("xi and xi_hat must have equal shapes")
        if not ((self.xi > 0.0).all() and (self.xi_hat > 0.0).all()):
            raise ValueError("SE targets must be positive")
        if np.isinf(self.xi).any():
            raise ValueError("SE targets must be finite")

    @classmethod
    def from_se(cls, xi, tau_c, tau_p) -> "QosTargets":
        """Targets xi with SINR thresholds 2^(xi * tau_c / (tau_c - tau_p)) - 1."""
        if tau_p >= tau_c:
            raise ValueError("tau_p must be smaller than tau_c")
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return cls(xi=xi, xi_hat=sinr_threshold(xi, tau_c, tau_p))

    @classmethod
    def uniform(cls, xi: float, scenario: NetworkScenario) -> "QosTargets":
        return cls.from_se(
            np.full(scenario.num_users, float(xi)), scenario.coherence_length, scenario.pilot_length
        )


def sinr_threshold(xi: np.ndarray, tau_c, tau_p) -> np.ndarray:
    """SINR thresholds 2^(xi * tau_c / (tau_c - tau_p)) - 1 of SE targets xi
    (a float array), unchecked: ``QosTargets.from_se`` checks tau_p < tau_c
    and the targets."""
    return np.expm1(xi * (tau_c / (tau_c - tau_p)) * _LN2)


def sinr_mrt_all(
    stats: ChannelStats, alloc: PowerAllocation, scenario: NetworkScenario, num_antennas=None
) -> np.ndarray:
    """Vector of closed-form SINRs for all users; for a stack of
    allocations, a stack (..., K) of them. ``num_antennas``, if given,
    replaces ``scenario.num_antennas``: one count, or one per allocation of
    the stack, an array of its leading shape (...)."""
    shape = (scenario.num_bs, scenario.num_users)
    if stats.beta.shape != shape or alloc.rho.shape[-2:] != shape:
        raise ValueError(f"stats/alloc shape mismatch, expected {shape}")
    m = scenario.num_antennas if num_antennas is None else np.asarray(num_antennas)[..., None]
    num = m * np.einsum("...ik,ik->...k", alloc.rho, stats.gamma)
    den = alloc.per_bs_power() @ stats.beta + scenario.noise_dl
    return num / den


def se_mrt_all(stats: ChannelStats, alloc: PowerAllocation, scenario: NetworkScenario) -> np.ndarray:
    return spectral_efficiency(
        sinr_mrt_all(stats, alloc, scenario), scenario.coherence_length, scenario.pilot_length
    )
