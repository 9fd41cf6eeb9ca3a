import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mimopower.channel import (
    ChannelStats,
    NetworkScenario,
    channel_stats,
    dbm_to_watt,
    estimation_quality,
    large_scale_fading,
    load_scenario,
    sample_user_positions,
    save_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
)
from mimopower.harness import MIN_BS_USER_DIST_KM, default_scenario


def one_bs_scenario(user_positions, **fields):
    """The default scenario cut to one BS at the origin, users at the given positions."""
    users = np.asarray(user_positions, dtype=float)
    base = default_scenario(32, num_users=len(users), rng_seed=5)
    return dataclasses.replace(
        base, num_bs=1, bs_positions=np.zeros((1, 2)), user_positions=users, pmax=np.array([40.0]), **fields
    )


class TestPathLoss:
    def test_reference_distances(self):
        # users 1 km, 100 m and 10 m from the BS, no shadowing: -(148.1 + 37.6 log10 d) dB
        scn = one_bs_scenario([[1.0, 0.0], [0.1, 0.0], [0.0, 0.01]], shadow_std_db=0.0)
        gain_db = 10.0 * np.log10(large_scale_fading(scn))
        np.testing.assert_allclose(gain_db, [[-148.1, -110.5, -72.9]], rtol=0, atol=1e-10)

    def test_beta_without_shadowing(self):
        scn = one_bs_scenario([[0.0, 1.0]], shadow_std_db=0.0)
        assert large_scale_fading(scn)[0, 0] == pytest.approx(10 ** (-14.81), rel=1e-12)

    def test_beta_with_fixed_shadow_draw(self):
        scn = one_bs_scenario([[0.1, 0.0], [0.0, 0.1]], shadow_std_db=7.0)
        shadow_db = np.random.default_rng(11).normal(0.0, 7.0, size=(1, 2))
        beta = large_scale_fading(scn, np.random.default_rng(11))
        np.testing.assert_allclose(beta, 10 ** ((-110.5 + shadow_db) / 10.0), rtol=1e-10)


class TestLargeScaleFading:
    def test_same_seed_is_bit_identical(self, small_scenario):
        b1 = large_scale_fading(small_scenario)
        b2 = large_scale_fading(small_scenario)
        assert np.array_equal(b1, b2)

    def test_zero_shadowing_matches_pure_path_loss(self):
        scn = default_scenario(32, num_users=3, rng_seed=5)
        scn = dataclasses.replace(scn, shadow_std_db=0.0)
        beta = large_scale_fading(scn)
        d = np.linalg.norm(
            scn.bs_positions[:, None, :] - scn.user_positions[None, :, :], axis=2
        )
        np.testing.assert_allclose(beta, 10 ** (-(148.1 + 37.6 * np.log10(d)) / 10.0), rtol=1e-12)

    def test_colocated_user_raises(self):
        scn = default_scenario(32, num_users=3, rng_seed=5)
        bad = scn.user_positions.copy()
        bad[0] = scn.bs_positions[0]
        with pytest.raises(ValueError, match="colocated"):
            large_scale_fading(dataclasses.replace(scn, user_positions=bad))


def pilot_gamma(beta, p, tau, noise):
    """gamma of ``estimation_quality`` for one BS and one user with pilot power
    ``p``, pilot length ``tau`` and uplink noise ``noise``, at gain ``beta``."""
    scn = one_bs_scenario([[0.5, 0.5]], pilot_power=np.array([p]), pilot_length=tau, noise_ul=noise)
    return estimation_quality(scn, np.array([[beta]]))[0, 0]


class TestEstimationQuality:
    def test_known_value(self):
        # p*tau = 4, beta = 1, noise = 1 -> 4/(4+1) = 0.8
        assert pilot_gamma(1.0, 0.2, 20, 1.0) == pytest.approx(0.8, rel=1e-15)

    def test_high_snr_limit_approaches_beta(self):
        assert pilot_gamma(3e-9, 1e9, 20, 1e-13) == pytest.approx(3e-9, rel=1e-6)

    def test_bounds_and_error_variance(self, small_scenario, small_stats):
        assert np.all(small_stats.gamma > 0.0)
        assert np.all(small_stats.gamma < small_stats.beta)
        np.testing.assert_allclose(
            small_stats.gamma + small_stats.error_variance, small_stats.beta, rtol=1e-15
        )
        # error variance matches beta * noise / (p tau beta + noise)
        p = small_scenario.pilot_power[None, :] * small_scenario.pilot_length
        expect = small_stats.beta * small_scenario.noise_ul / (p * small_stats.beta + small_scenario.noise_ul)
        np.testing.assert_allclose(small_stats.error_variance, expect, rtol=1e-12)

    @given(
        beta=st.floats(1e-16, 1e-6),
        p=st.floats(1e-4, 10.0),
        bump=st.floats(1.0001, 10.0),
        extra=st.integers(1, 179),
    )
    def test_monotone_in_power_pilots_and_beta(self, beta, p, bump, extra):
        tau, noise = 20, 2.5e-13
        base = pilot_gamma(beta, p, tau, noise)
        assert base == pytest.approx(p * tau * beta**2 / (p * tau * beta + noise), rel=1e-14)
        assert pilot_gamma(beta, p * bump, tau, noise) >= base
        assert pilot_gamma(beta, p, tau + extra, noise) >= base
        assert pilot_gamma(beta * bump, p, tau, noise) >= base

    def test_estimation_quality_rejects_bad_beta(self, small_scenario):
        with pytest.raises(ValueError):
            estimation_quality(small_scenario, np.zeros((4, 6)))


class TestScenario:
    def test_invariants_rejected(self):
        scn = default_scenario(32, num_users=4, rng_seed=1)
        with pytest.raises(ValueError, match="pilot_length"):
            NetworkScenario(**{**scn.__dict__, "pilot_length": 3})
        with pytest.raises(ValueError, match="coherence"):
            NetworkScenario(**{**scn.__dict__, "coherence_length": 4})
        with pytest.raises(ValueError, match="noise"):
            NetworkScenario(**{**scn.__dict__, "noise_dl": 0.0})
        with pytest.raises(ValueError, match="positive"):
            NetworkScenario(**{**scn.__dict__, "pmax": np.zeros(4)})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field",
        ["bs_positions", "user_positions", "pilot_power", "noise_ul", "noise_dl", "pmax", "shadow_std_db"],
    )
    def test_non_finite_field_rejected(self, field, bad):
        scn = default_scenario(32, num_users=4, rng_seed=1)
        value = np.array(getattr(scn, field), dtype=float)
        value.flat[0] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            NetworkScenario(**{**scn.__dict__, field: value if value.ndim else float(value)})

    def test_channel_stats_validation(self):
        with pytest.raises(ValueError):
            ChannelStats(beta=np.ones((2, 2)), gamma=2 * np.ones((2, 2)))
        # the perfect-estimation limit gamma == beta is allowed
        ChannelStats(beta=np.ones((2, 2)), gamma=np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["beta", "gamma"])
    def test_channel_stats_rejects_non_finite(self, field, bad):
        values = {"beta": np.ones((2, 2)), "gamma": np.full((2, 2), 0.5)}
        values[field][1, 0] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            ChannelStats(**values)

    def test_json_round_trip(self, tmp_path, small_scenario):
        path = tmp_path / "scenario.json"
        save_scenario(small_scenario, path)
        back = load_scenario(path)
        assert np.array_equal(back.user_positions, small_scenario.user_positions)
        assert np.array_equal(back.pilot_power, small_scenario.pilot_power)
        assert back.noise_ul == small_scenario.noise_ul
        assert back.rng_seed == small_scenario.rng_seed

    def test_dbm_units_and_scalar_broadcast(self, small_scenario):
        d = scenario_to_json_dict(small_scenario)
        d["noise_ul"] = {"units": "dBm", "value": -96.0}
        d["pmax"] = {"units": "W", "value": 40.0}
        d["pilot_power"] = 0.2
        scn = scenario_from_json_dict(d)
        assert scn.noise_ul == pytest.approx(float(dbm_to_watt(-96.0)), rel=1e-15)
        np.testing.assert_array_equal(scn.pmax, np.full(4, 40.0))
        np.testing.assert_array_equal(scn.pilot_power, np.full(6, 0.2))

    def test_missing_field_and_bad_path(self, tmp_path):
        with pytest.raises(ValueError, match="missing field"):
            scenario_from_json_dict({"num_bs": 1})
        with pytest.raises(ValueError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="cannot read"):
            load_scenario(bad)

    def test_channel_stats_helper_deterministic(self, small_scenario):
        s1 = channel_stats(small_scenario)
        s2 = channel_stats(small_scenario)
        assert np.array_equal(s1.beta, s2.beta)
        assert np.array_equal(s1.gamma, s2.gamma)


class TestUserSampling:
    def test_exclusion_radius_and_bounds(self):
        bs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        rng = np.random.default_rng(0)
        users = sample_user_positions(500, bs, rng, min_dist_km=0.05)
        d = np.linalg.norm(bs[:, None, :] - users[None, :, :], axis=2)
        assert d.min() >= 0.05
        assert users.min() >= 0.0 and users.max() <= 1.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            sample_user_positions(3, np.zeros((2, 2)), np.random.default_rng(0), MIN_BS_USER_DIST_KM)
