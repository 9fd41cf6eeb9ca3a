"""Closed-form downlink spectral efficiency under MRT with non-coherent joint transmission.

For user k the effective SINR is

    M * sum_i rho[i,k] * gamma[i,k]
    -------------------------------------------------
    sum_i sum_t rho[i,t] * beta[i,k] + noise_dl

and the ergodic SE is (1 - tau_p/tau_c) * log2(1 + SINR) in bit/symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStats, NetworkScenario

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-BS per-user downlink transmit powers rho, an (L, K) matrix in W."""

    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        if self.rho.ndim != 2:
            raise ValueError("rho must be an (L, K) matrix")
        if (self.rho < 0.0).any():
            raise ValueError("rho must be nonnegative elementwise")

    def per_bs_power(self) -> np.ndarray:
        """Transmit power of each BS, sum_t rho[i, t]."""
        return self.rho.sum(axis=1)


def qos_to_threshold(xi, tau_c, tau_p):
    """SINR threshold 2^(xi * tau_c / (tau_c - tau_p)) - 1 for an SE target xi."""
    if tau_p >= tau_c:
        raise ValueError("tau_p must be smaller than tau_c")
    xi = np.asarray(xi, dtype=float)
    if (xi < 0.0).any():
        raise ValueError("SE targets must be nonnegative")
    return np.expm1(xi * (tau_c / (tau_c - tau_p)) * _LN2)


def spectral_efficiency(sinr, tau_c, tau_p):
    """Ergodic SE in bit/symbol; tau_p == tau_c leaves no data symbols (SE = 0)."""
    if tau_p > tau_c:
        raise ValueError("tau_p cannot exceed tau_c")
    prelog = 1.0 - tau_p / tau_c
    return prelog * np.log1p(np.asarray(sinr, dtype=float)) / _LN2


@dataclass(frozen=True)
class QosTargets:
    """Per-user SE targets xi and their SINR thresholds xi_hat."""

    xi: np.ndarray
    xi_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "xi_hat", np.asarray(self.xi_hat, dtype=float))
        if self.xi.shape != self.xi_hat.shape:
            raise ValueError("xi and xi_hat must have equal shapes")

    @classmethod
    def from_se(cls, xi, tau_c, tau_p) -> "QosTargets":
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return cls(xi=xi, xi_hat=qos_to_threshold(xi, tau_c, tau_p))

    @classmethod
    def uniform(cls, xi: float, num_users: int, scenario: NetworkScenario) -> "QosTargets":
        return cls.from_se(
            np.full(num_users, float(xi)), scenario.coherence_length, scenario.pilot_length
        )


def _check_dims(stats: ChannelStats, alloc: PowerAllocation, scenario: NetworkScenario):
    shape = (scenario.num_bs, scenario.num_users)
    if stats.beta.shape != shape or alloc.rho.shape != shape:
        raise ValueError(f"stats/alloc shape mismatch, expected {shape}")


def sinr_mrt(stats: ChannelStats, alloc: PowerAllocation, scenario: NetworkScenario, user: int) -> float:
    """Closed-form linear SINR of one user under MRT."""
    _check_dims(stats, alloc, scenario)
    num = scenario.num_antennas * float(np.sum(alloc.rho[:, user] * stats.gamma[:, user]))
    # beta spans many orders of magnitude; np.sum over the full (L, K) grid
    # uses pairwise accumulation.
    den = float(np.sum(alloc.rho * stats.beta[:, user][:, None])) + scenario.noise_dl
    return num / den


def sinr_mrt_all(stats: ChannelStats, alloc: PowerAllocation, scenario: NetworkScenario) -> np.ndarray:
    """Vector of closed-form SINRs for all users."""
    _check_dims(stats, alloc, scenario)
    num = scenario.num_antennas * np.einsum("ik,ik->k", alloc.rho, stats.gamma)
    den = alloc.per_bs_power() @ stats.beta + scenario.noise_dl
    return num / den


def se_mrt_all(stats: ChannelStats, alloc: PowerAllocation, scenario: NetworkScenario) -> np.ndarray:
    return spectral_efficiency(
        sinr_mrt_all(stats, alloc, scenario), scenario.coherence_length, scenario.pilot_length
    )
