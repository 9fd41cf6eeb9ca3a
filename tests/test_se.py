import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mimopower.channel import ChannelStats
from mimopower.harness import default_scenario
from mimopower.se import (
    PowerAllocation,
    QosTargets,
    se_mrt_all,
    sinr_mrt_all,
    spectral_efficiency,
)


def test_power_allocation_validation():
    with pytest.raises(ValueError):
        PowerAllocation(np.array([[1.0, -0.1]]))
    alloc = PowerAllocation(np.array([[1.0, 2.0], [0.5, 0.0]]))
    np.testing.assert_array_equal(alloc.per_bs_power(), [3.0, 0.5])
    assert alloc.rho.sum() == 3.5


class TestThresholdConversion:
    @pytest.mark.parametrize("xi", [0.0, -1.0, float("nan")])
    def test_nonpositive_target_rejected(self, xi):
        with pytest.raises(ValueError, match="^SE targets must be positive$"):
            QosTargets.from_se(xi, 200, 20)
        with pytest.raises(ValueError, match="^SE targets must be positive$"):
            QosTargets.from_se(np.array([1.0, xi]), 200, 20)

    def test_infinite_target_rejected(self):
        with pytest.raises(ValueError, match="^SE targets must be finite$"):
            QosTargets.from_se(np.array([1.0, np.inf]), 200, 20)
        with pytest.raises(ValueError, match="^SE targets must be finite$"):
            QosTargets(xi=[np.inf], xi_hat=[np.inf])

    def test_prelog_target_maps_to_unit_threshold(self):
        # xi = 1 - tau_p/tau_c collapses the exponent to 1
        assert QosTargets.from_se(0.9, 200, 20).xi_hat[0] == pytest.approx(1.0, rel=1e-14)

    def test_rejects_pilot_only_frames(self):
        with pytest.raises(ValueError, match="^tau_p must be smaller than tau_c$"):
            QosTargets.from_se(1.0, 200, 200)

    @given(st.floats(0.0, 12.0, exclude_min=True))
    def test_round_trip(self, xi):
        back = spectral_efficiency(QosTargets.from_se(xi, 200, 20).xi_hat, 200, 20)
        assert back[0] == pytest.approx(xi, rel=1e-12, abs=1e-12)

    def test_targets_hold_exact_thresholds(self):
        t = QosTargets.from_se(np.array([0.5, 1.0]), 200, 20)
        np.testing.assert_allclose(t.xi_hat, 2.0 ** (t.xi * 200 / 180) - 1.0, rtol=1e-14)


class TestSinr:
    def _single(self, m=50, rho=2.0, beta=4e-13, gamma=3e-13, noise=2.5e-13):
        scn = default_scenario(m, num_users=1, rng_seed=0)
        scn = scn.__class__(
            **{
                **scn.__dict__,
                "num_bs": 1,
                "bs_positions": np.array([[0.0, 0.0]]),
                "pmax": np.array([40.0]),
                "noise_dl": noise,
            }
        )
        stats = ChannelStats(beta=np.array([[beta]]), gamma=np.array([[gamma]]))
        return scn, stats, PowerAllocation(np.array([[rho]]))

    def test_zero_power_gives_zero(self, small_scenario, small_stats):
        alloc = PowerAllocation(np.zeros((4, 6)))
        assert sinr_mrt_all(small_stats, alloc, small_scenario)[0] == 0.0
        assert se_mrt_all(small_stats, alloc, small_scenario)[0] == 0.0

    def test_single_cell_formula(self):
        scn, stats, alloc = self._single()
        expect = 50 * 2.0 * 3e-13 / (2.0 * 4e-13 + 2.5e-13)
        assert sinr_mrt_all(stats, alloc, scn)[0] == pytest.approx(expect, rel=1e-15)

    def test_doubling_antennas_doubles_sinr(self, small_scenario, small_stats):
        rng = np.random.default_rng(3)
        alloc = PowerAllocation(rng.uniform(0, 2, size=(4, 6)))
        s1 = sinr_mrt_all(small_stats, alloc, small_scenario)
        s2 = sinr_mrt_all(small_stats, alloc, dataclasses.replace(small_scenario, num_antennas=128))
        np.testing.assert_allclose(s2, 2.0 * s1, rtol=1e-15)

    def test_monotone_when_scaling_own_power_vector(self, small_scenario, small_stats):
        # scaling the user's whole power vector up always helps: the signal
        # grows faster than the self-interference share of the denominator
        rng = np.random.default_rng(5)
        for trial in range(20):
            alloc = PowerAllocation(rng.uniform(0, 2, size=(4, 6)))
            k = int(rng.integers(0, 6))
            bumped = alloc.rho.copy()
            bumped[:, k] *= 1.0 + rng.uniform(0.01, 0.5)
            before = se_mrt_all(small_stats, alloc, small_scenario)[k]
            after = se_mrt_all(small_stats, PowerAllocation(bumped), small_scenario)[k]
            assert after > before

    def test_directional_bump_follows_gain_condition(self, small_scenario, small_stats):
        # a single rho[i, k] bump helps exactly when BS i's array gain
        # M*gamma/beta beats the current SINR; with a weakly estimated BS the
        # extra interference can dominate
        rng = np.random.default_rng(8)
        ups = downs = 0
        for trial in range(60):
            alloc = PowerAllocation(rng.uniform(0, 2, size=(4, 6)))
            k = int(rng.integers(0, 6))
            i = int(rng.integers(0, 4))
            sinr = sinr_mrt_all(small_stats, alloc, small_scenario)[k]
            gain = (
                small_scenario.num_antennas
                * small_stats.gamma[i, k]
                / small_stats.beta[i, k]
            )
            bumped = alloc.rho.copy()
            bumped[i, k] += 0.1
            after = sinr_mrt_all(small_stats, PowerAllocation(bumped), small_scenario)[k]
            if gain > sinr:
                assert after > sinr
                ups += 1
            elif gain < sinr:
                assert after < sinr
                downs += 1
        assert ups > 0 and downs > 0

    def test_dimension_mismatch_rejected(self, small_scenario, small_stats):
        with pytest.raises(ValueError, match="mismatch"):
            sinr_mrt_all(small_stats, PowerAllocation(np.zeros((2, 2))), small_scenario)


class TestSpectralEfficiency:
    def test_unit_sinr(self):
        assert spectral_efficiency(1.0, 200, 20) == pytest.approx(0.9, rel=1e-15)

    def test_no_data_symbols_left(self):
        assert spectral_efficiency(123.0, 200, 200) == 0.0

    def test_threshold_consistency_with_se(self, small_scenario, small_stats):
        # when the SINR sits exactly on a target's threshold, the achieved SE
        # equals that target
        rng = np.random.default_rng(6)
        alloc = PowerAllocation(rng.uniform(0, 2, size=(4, 6)))
        sinr = sinr_mrt_all(small_stats, alloc, small_scenario)
        xi = spectral_efficiency(sinr, small_scenario.coherence_length, small_scenario.pilot_length)
        se = se_mrt_all(small_stats, alloc, small_scenario)
        np.testing.assert_allclose(se, xi, rtol=1e-9)
