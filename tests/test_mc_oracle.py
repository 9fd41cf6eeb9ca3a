import dataclasses
import time

import numpy as np
import pytest

from mimopower import mc_oracle
from mimopower.harness import random_validation_scenario
from mimopower.mc_oracle import McConfig, estimate_sinr_terms
from mimopower.se import PowerAllocation, sinr_mrt_all


def assert_same_estimate(a, b):
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


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
        cfg = McConfig(num_samples=4 * 256 + 37, rng_seed=3, batch_size=256)
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
        with pytest.raises(ValueError):
            McConfig(batch_size=0)
