"""Sampling-based estimator of the general ergodic SINR bound under MRT.

This is the validation oracle for the closed form in :mod:`mimopower.se`:
it draws channel estimates and estimation errors with their exact
statistics, forms MRT precoders normalized by the average estimate norm,
and assembles the general SINR bound from sample moments

    |E{h^H w}|^2,   E{|h^H w|^2} - |E{h^H w}|^2,   E{|h^H w_other|^2}

without using any closed-form simplification. Its Gaussians are exact:
float32 uniform draws turned into standard normals in place by the
Box-Muller transform, whose only departure from the normal law is the
float32 cut of |x| at sqrt(-2 ln 2**-24) ~ 5.77 (about 6e-8 of pairs).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .channel import ChannelStats, NetworkScenario
from .se import PowerAllocation


@dataclass(frozen=True)
class McConfig:
    """Sampling configuration: the sample count and the stream's seed.

    Draws are generated in batches of the class constant ``batch_size``
    (the last batch takes the remainder), each from its own generator seeded
    by (rng_seed, batch index); the constant is part of the deterministic
    stream layout. A batch of nb draws is one (L, K+1, M, nb) complex64
    stream of uniform float32 draws: at each BS, the K beams' channel
    estimates, then the target user's estimation error as beam K. Each
    beam's 2 M nb floats become standard normals in place by Box-Muller,
    the first half's radius paired with the second half's angle. The layout
    is unchanged however the stream is consumed: a worker jumps the batch's
    generator to each beam's first word and draws that beam alone, so it
    holds 2 M nb complex64 values whatever K is. Batches run in
    parallel, and their partial sums are merged in batch-index order, so
    the estimate depends on this config alone and not on the number of
    threads or their scheduling.
    """

    num_samples: int = 100_000
    rng_seed: int = 0
    batch_size: ClassVar[int] = 4096

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")


@dataclass
class SinrEstimate:
    """Monte-Carlo estimate of one user's SINR with per-term statistics.

    ``desired`` holds |E{h^H w}|^2 per serving BS (closed form: M * gamma),
    ``gain_uncertainty`` the own-beam variance term (closed form: beta), and
    ``second_moment`` E{|h^H w_t|^2} for every (BS, user) beam; its column
    for the target user is the own-beam second moment, the others are the
    cross-interference terms (closed form: beta).
    """

    sinr: float
    sinr_stderr: float
    desired: np.ndarray
    desired_stderr: np.ndarray
    gain_uncertainty: np.ndarray
    gain_uncertainty_stderr: np.ndarray
    second_moment: np.ndarray
    second_moment_stderr: np.ndarray
    num_samples: int


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Floats per Box-Muller slice: a 128 KB float32 scratch per worker thread,
# small enough that a slice and its two halves stay in cache.
_BOX_MULLER_SLICE = 32768


def _box_muller(z: np.ndarray, t: np.ndarray) -> None:
    """Turn the uniform [0, 1) float32 draws in slab ``z`` into standard
    normals in place (Box and Muller, 1958).

    Each beam ``z[k]``'s floats are two halves u1 and u2, taken ``t.size``
    floats at a time with ``t`` as the only scratch: u1 <- sqrt(-2 ln(1 - u1)),
    so the log never sees 0, then (u1, u2) <- u1 * (cos 2 pi u2, sin 2 pi u2).
    Float32 uniforms are multiples of 2**-24, so |x| <= sqrt(48 ln 2) ~ 5.77.
    """
    beams = z.view(np.float32).reshape(z.shape[0], -1)
    half = beams.shape[1] // 2
    for beam in beams:
        for lo in range(0, half, t.size):
            hi = min(lo + t.size, half)
            r, u2, ang = beam[lo:hi], beam[half + lo : half + hi], t[: hi - lo]
            np.subtract(1.0, r, out=r)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            np.multiply(u2, 2.0 * np.pi, out=ang)
            np.sin(ang, out=u2)
            u2 *= r
            np.cos(ang, out=ang)
            r *= ang


def estimate_sinr_terms(
    stats: ChannelStats,
    alloc: PowerAllocation,
    scenario: NetworkScenario,
    user: int,
    cfg: McConfig,
) -> SinrEstimate:
    """Estimate the general SINR bound for one user by Monte-Carlo sampling.

    Per draw, fresh estimates for every beam and the target user's true
    channels are generated; the inner products h_{i,user}^H w_{i,t} feed the
    sample moments. Standard errors of the moment estimates come from the
    per-draw sample variances; the SINR standard error propagates them
    through the ratio assuming independent terms (adequate for test bands).
    """
    # Imported here so that loading the CLI does not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    L, K = stats.beta.shape
    M = scenario.num_antennas
    if alloc.rho.shape != (L, K):
        raise ValueError("allocation shape mismatch")
    if not isinstance(user, (int, np.integer)) or not 0 <= user < K:
        raise ValueError(f"user must be an integer in [0, {K}), got {user!r}")
    gamma_u = stats.gamma[:, user]
    err_var_u = stats.error_variance[:, user]

    n_total = cfg.num_samples
    n_batches = (n_total + cfg.batch_size - 1) // cfg.batch_size
    # MRT normalization: w = hhat / sqrt(M gamma), so with unit-variance raw
    # draws z (hhat = sqrt(gamma/2) z) the inner products reduce to
    # q = h^H z / sqrt(2 M); only the target user's channel needs its
    # variances applied. A batch of nb draws is one (L, K+1, M, nb) stream:
    # at each BS, the K beams' estimates, then the target user's estimation
    # error as beam K. The layout is the one McConfig documents, but a
    # worker does not fill it in order: it jumps the batch's generator to
    # each beam's first word and draws that beam alone, so it holds two
    # (M, nb) beams (2 M nb complex64 values) and one Box-Muller slice.
    # Draws are float32, moments accumulate in float64.
    hat_scale = np.sqrt(gamma_u / 2.0).astype(np.float32)
    err_scale = np.sqrt(err_var_u / 2.0).astype(np.float32)
    scratch = threading.local()

    def batch_sums(b: int) -> tuple:
        nb = min(cfg.batch_size, n_total - b * cfg.batch_size)
        if getattr(scratch, "nb", None) != nb:
            scratch.nb = nb
            scratch.h = np.empty((M, nb), dtype=np.complex64)
            scratch.w = np.empty_like(scratch.h)
            scratch.t = np.empty(_BOX_MULLER_SLICE, dtype=np.float32)
        h, w, t = scratch.h, scratch.w, scratch.t
        rng = np.random.default_rng([cfg.rng_seed, b])
        start = rng.bit_generator.state

        def draw(i: int, k: int, out: np.ndarray) -> None:
            # A float32 fill takes two floats per 64-bit word, so beam (i, k)
            # starts at word (i (K+1) + k) M nb, with no half-word buffered.
            rng.bit_generator.state = start
            rng.bit_generator.advance((i * (K + 1) + k) * M * nb)
            rng.random(out=out.view(np.float32), dtype=np.float32)
            _box_muller(out[None], t)

        q = np.empty((K, nb), dtype=complex)
        sum_q = np.zeros(L, dtype=complex)  # own-beam inner products
        sum_q2 = np.zeros(L, dtype=complex)  # their complex squares
        sum_m2 = np.zeros((L, K))  # |h^H w_t|^2
        sum_m4 = np.zeros((L, K))  # |h^H w_t|^4
        for i in range(L):
            draw(i, K, h)  # the error beam becomes conj(h_{i,user}) in place
            draw(i, user, w)
            h *= -err_scale[i]
            h += hat_scale[i] * w
            np.conjugate(h, out=h)
            # q[k, s] = h_{i,user}(s)^H w_{i,k}(s)
            q[user] = np.einsum("ms,ms->s", h, w)
            for k in range(K):
                if k != user:
                    draw(i, k, w)
                    q[k] = np.einsum("ms,ms->s", h, w)
            q /= np.sqrt(2.0 * M)
            q_abs2 = q.real**2 + q.imag**2
            qk = q[user]
            sum_q[i] = qk.sum()
            sum_q2[i] = (qk * qk).sum()
            sum_m2[i] = q_abs2.sum(axis=1)
            sum_m4[i] = (q_abs2 * q_abs2).sum(axis=1)
        return sum_q, sum_q2, sum_m2, sum_m4

    # Batches run on a pool as wide as the usable CPUs (numpy's fill and
    # contraction release the GIL); map() hands the partial sums back in
    # batch order, so the merge does not depend on the pool width.
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), n_batches)) as pool:
        parts = zip(*pool.map(batch_sums, range(n_batches)))
        sum_q, sum_q2, sum_m2, sum_m4 = (sum(part) for part in parts)

    n = float(n_total)
    a_mean = sum_q / n
    desired = np.abs(a_mean) ** 2
    second_moment = sum_m2 / n
    gain_uncertainty = second_moment[:, user] - desired  # >= 0 by construction

    # Fluctuation of the sample mean along the mean direction drives |a_mean|^2.
    ea2 = sum_q2 / n
    abs_mean = np.abs(a_mean)
    phase = a_mean / np.where(abs_mean > 0.0, abs_mean, 1.0)
    var_along = np.maximum(
        0.5 * gain_uncertainty + 0.5 * np.real(np.conj(phase) ** 2 * (ea2 - a_mean**2)),
        0.0,
    )
    desired_stderr = 2.0 * np.abs(a_mean) * np.sqrt(var_along / n)
    m2_var = np.maximum(sum_m4 / n - second_moment**2, 0.0)
    second_moment_stderr = np.sqrt(m2_var / n)
    gain_uncertainty_stderr = np.hypot(second_moment_stderr[:, user], desired_stderr)

    rho_u = alloc.rho[:, user]
    numer = float(rho_u @ desired)
    cross_mask = np.ones((L, K), dtype=bool)
    cross_mask[:, user] = False
    denom = (
        float(rho_u @ gain_uncertainty)
        + float(np.sum(alloc.rho * second_moment * cross_mask))
        + scenario.noise_dl
    )
    sinr = numer / denom
    var_num = float(np.sum((rho_u * desired_stderr) ** 2))
    var_den = float(np.sum((rho_u * gain_uncertainty_stderr) ** 2)) + float(
        np.sum((alloc.rho * second_moment_stderr * cross_mask) ** 2)
    )
    if numer > 0.0:
        stderr = sinr * np.sqrt(var_num / numer**2 + var_den / denom**2)
    else:
        stderr = 0.0
    return SinrEstimate(
        sinr=sinr,
        sinr_stderr=float(stderr),
        desired=desired,
        desired_stderr=desired_stderr,
        gain_uncertainty=gain_uncertainty,
        gain_uncertainty_stderr=gain_uncertainty_stderr,
        second_moment=second_moment,
        second_moment_stderr=second_moment_stderr,
        num_samples=n_total,
    )
