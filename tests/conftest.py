from dataclasses import replace

import hypothesis
import numpy as np
import pytest

from mimopower.channel import ChannelStats, channel_stats, estimation_quality
from mimopower.harness import default_scenario

hypothesis.settings.register_profile("default", max_examples=25, deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def small_scenario():
    """A compact 4-BS, 6-user drop used across module tests."""
    return default_scenario(num_antennas=64, num_users=6, rng_seed=7)


@pytest.fixture(scope="session")
def small_stats(small_scenario):
    return channel_stats(small_scenario)


def random_drop(seed, num_antennas=100, num_users=8):
    """Fresh (scenario, stats) pair on the default layout."""
    scn = default_scenario(num_antennas=num_antennas, num_users=num_users, rng_seed=seed)
    return scn, channel_stats(scn, np.random.default_rng(seed))


def single_cell(num_antennas=100, beta=2e-13, gamma=None, num_users=1, pmax=40.0, rng_seed=0):
    """One BS, constant beta across users; gamma defaults to the pilot formula."""
    scn = default_scenario(num_antennas, num_users=num_users, rng_seed=rng_seed)
    scn = replace(
        scn, num_bs=1, bs_positions=np.array([[0.0, 0.0]]), pmax=np.array([float(pmax)])
    )
    beta_m = np.full((1, num_users), beta)
    gamma_m = np.full((1, num_users), gamma) if gamma is not None else estimation_quality(scn, beta_m)
    return scn, ChannelStats(beta=beta_m, gamma=gamma_m)
