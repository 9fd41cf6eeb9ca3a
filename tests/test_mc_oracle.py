import numpy as np
import pytest

from mimopower.harness import random_validation_scenario
from mimopower.mc_oracle import McConfig, estimate_sinr_terms
from mimopower.se import PowerAllocation, sinr_mrt


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

    def test_matches_closed_form_smoke(self):
        scn, stats, alloc, user = random_validation_scenario(0, rng_seed=3)
        est = estimate_sinr_terms(stats, alloc, scn, user, McConfig(num_samples=30_000, rng_seed=2))
        closed = sinr_mrt(stats, alloc, scn, user)
        assert est.sinr == pytest.approx(closed, rel=0.02)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(num_samples=0)
        with pytest.raises(ValueError):
            McConfig(batch_size=0)
