import dataclasses
import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest

from mimopower import mc_oracle
from mimopower.harness import random_validation_scenario, validate_closed_form
from mimopower.mc_oracle import McConfig, estimate_sinr_terms
from mimopower.se import PowerAllocation, sinr_mrt_all


def assert_same_estimate(a, b):
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


# Float32 uniforms are multiples of 2**-24, which caps the Box-Muller radius.
FLOAT32_RADIUS = np.sqrt(-2.0 * np.log(2.0**-24))


def box_muller_draw(seed, shape, slice_size=mc_oracle._BOX_MULLER_SLICE):
    z = np.empty(shape, dtype=np.complex64)
    np.random.default_rng(seed).random(out=z.view(np.float32), dtype=np.float32)
    mc_oracle._box_muller(z, np.empty(slice_size, dtype=np.float32))
    return z


class TestBoxMuller:
    @pytest.mark.parametrize(
        "shape, slice_size",
        [((2, 64, 4096), mc_oracle._BOX_MULLER_SLICE), ((4096, 3, 37), 16)],
        ids=["slab", "odd-beam-remainder-slice"],
    )
    def test_standard_normal_moments(self, shape, slice_size):
        z = box_muller_draw(11, shape, slice_size)
        x = z.view(np.float32).astype(np.float64)
        n = x.size  # about 2**20 floats either way
        assert abs(x.mean()) <= 5.0 * np.sqrt(1.0 / n)
        assert abs(np.mean(x**2) - 1.0) <= 5.0 * np.sqrt(2.0 / n)  # Var(x^2) = 2
        assert abs(np.mean(x**4) - 3.0) <= 5.0 * np.sqrt(96.0 / n)  # Var(x^4) = 105 - 9
        # each beam's cos half pairs element-wise with its sin half
        beams = x.reshape(shape[0], -1)
        half = beams.shape[1] // 2
        pairs = beams[:, :half] * beams[:, half:]
        assert abs(pairs.mean()) <= 5.0 * np.sqrt(1.0 / pairs.size)  # Var(xy) = 1
        assert np.abs(x).max() <= FLOAT32_RADIUS * (1.0 + 1e-6)
        assert np.array_equal(z, box_muller_draw(11, shape, slice_size))

    def test_edge_uniforms(self):
        # u1 = 0 is the zero radius and u1 = 1 - 2**-24 the largest, which must
        # stay finite; u2 = 0 and 1/4 point along the cos and sin axes.
        u1 = np.array([0.0, 0.0, 1.0 - 2.0**-24, 1.0 - 2.0**-24], dtype=np.float32)
        u2 = np.array([0.0, 0.25, 0.0, 0.25], dtype=np.float32)
        z = np.concatenate([u1, u2]).view(np.complex64).reshape(1, 1, 4)
        mc_oracle._box_muller(z, np.empty(3, dtype=np.float32))
        x = z.view(np.float32).ravel()
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(x[[2, 7]], FLOAT32_RADIUS, rtol=1e-6)
        assert np.all(np.abs(np.delete(x, [2, 7])) <= 1e-6 * FLOAT32_RADIUS)


class TestSinrEstimate:
    def test_terms_match_closed_moments(self):
        scn, stats, alloc, user = random_validation_scenario(1, rng_seed=9)
        cfg = McConfig(num_samples=40_000, rng_seed=5)
        est = estimate_sinr_terms(stats, alloc, scn, user, cfg)
        m_gamma = scn.num_antennas * stats.gamma[:, user]
        # desired |E{h^H w}|^2 -> M gamma within 3 standard errors
        np.testing.assert_array_less(
            np.abs(est.desired - m_gamma), 3.0 * est.desired_stderr + 1e-30
        )
        # every cross beam second moment -> beta of the observing user
        for t in range(scn.num_users):
            if t == user:
                continue
            np.testing.assert_array_less(
                np.abs(est.second_moment[:, t] - stats.beta[:, user]),
                3.0 * est.second_moment_stderr[:, t] + 1e-30,
            )

    def test_gain_uncertainty_nonnegative(self):
        scn, stats, alloc, user = random_validation_scenario(2, rng_seed=9)
        est = estimate_sinr_terms(stats, alloc, scn, user, McConfig(num_samples=5000, rng_seed=1))
        assert np.all(est.gain_uncertainty >= 0.0)

    def test_zero_allocation_gives_zero_sinr(self):
        scn, stats, _, user = random_validation_scenario(3, rng_seed=9)
        zero = PowerAllocation(np.zeros((scn.num_bs, scn.num_users)))
        est = estimate_sinr_terms(stats, zero, scn, user, McConfig(num_samples=2000, rng_seed=1))
        assert est.sinr == 0.0

    def test_deterministic_given_config(self):
        scn, stats, alloc, user = random_validation_scenario(4, rng_seed=9)
        cfg = McConfig(num_samples=4000, rng_seed=77)
        e1 = estimate_sinr_terms(stats, alloc, scn, user, cfg)
        e2 = estimate_sinr_terms(stats, alloc, scn, user, cfg)
        assert e1.sinr == e2.sinr

    def test_estimate_is_independent_of_pool_width(self, monkeypatch):
        scn, stats, alloc, user = random_validation_scenario(5, rng_seed=9)
        # Four full batches and a short one, so a worker meets a new nb.
        monkeypatch.setattr(McConfig, "batch_size", 256)
        cfg = McConfig(num_samples=4 * 256 + 37, rng_seed=3)
        n_batches = 5
        # Early batches start late, so batches finish out of index order
        # whenever more than one runs at a time.
        default_rng = np.random.default_rng

        def late_early_batches(seed):
            time.sleep(0.02 * (n_batches - seed[1]))
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", late_early_batches)
        # At width 1 one buffer meets every batch; at width n_batches each
        # worker draws one batch into a buffer of its own nb.
        estimates = []
        for width in (1, 2, 3, n_batches):
            monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: width)
            estimates.append(estimate_sinr_terms(stats, alloc, scn, user, cfg))
        for est in estimates[1:]:
            assert_same_estimate(est, estimates[0])

    def test_single_batch(self, monkeypatch):
        # Splitting these samples into batches would draw each from its own
        # (seed, batch) generator, a different draw; so the check is that a
        # pool of one is deterministic and counts every sample.
        scn, stats, alloc, user = random_validation_scenario(6, rng_seed=9)
        cfg = McConfig(num_samples=300, rng_seed=4)  # below batch_size: a pool of one
        estimates = []
        for width in (1, 4):
            monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: width)
            estimates.append(estimate_sinr_terms(stats, alloc, scn, user, cfg))
        assert_same_estimate(estimates[0], estimates[1])
        assert estimates[0].num_samples == 300

    def test_matches_closed_form_smoke(self):
        scn, stats, alloc, user = random_validation_scenario(0, rng_seed=3)
        est = estimate_sinr_terms(stats, alloc, scn, user, McConfig(num_samples=30_000, rng_seed=2))
        closed = sinr_mrt_all(stats, alloc, scn)[user]
        assert est.sinr == pytest.approx(closed, rel=0.02)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(num_samples=0)

    @pytest.mark.parametrize("user", [-1, 8, 1.5], ids=["negative", "K", "non-integer"])
    def test_rejects_out_of_range_user(self, user):
        scn, stats, alloc, _ = random_validation_scenario(3, rng_seed=0)
        assert scn.num_users == 8
        with pytest.raises(ValueError, match="user"):
            estimate_sinr_terms(stats, alloc, scn, user, McConfig(num_samples=64, rng_seed=1))

    def test_working_set_does_not_grow_with_users(self):
        # A worker holds two (M, nb) complex64 beams, not a (K+1, M, nb) slab:
        # at K = 8 the slab alone would be 9 M nb * 8 B.
        scn, stats, alloc, user = random_validation_scenario(27, rng_seed=1)
        L, K, M = scn.num_bs, scn.num_users, scn.num_antennas
        assert (L, K, M) == (4, 8, 64)
        nb = McConfig.batch_size
        cfg = McConfig(num_samples=nb, rng_seed=1)  # one batch: a pool of one
        tracemalloc.start()
        try:
            estimate_sinr_terms(stats, alloc, scn, user, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * M * nb * 8

    def test_validation_records_digest(self):
        # Seed 0's scenarios 0-5 cover L in {2, 3, 4}, K in {1, 4, 6, 8},
        # M in {16, 64} and users 0, 1, 3 and 5; the sample count leaves a
        # 17-draw last batch. The digest pins the stream layout and the order
        # of every floating-point step of the estimate.
        records = validate_closed_form(6, 2 * McConfig.batch_size + 17, rng_seed=0)
        digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        assert digest == "543b873e3dd63e74c7544177b9508810a12f6cd8673f0e20c1d62550b5968b0c"
