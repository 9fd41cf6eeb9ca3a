from dataclasses import replace

import hypothesis
import numpy as np
import pytest

from mimopower import harness
from mimopower.channel import ChannelStats, channel_stats, estimation_quality
from mimopower.harness import default_scenario
from mimopower.power_assoc import DropLp, solve_power_min
from mimopower.se import QosTargets

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


def record_linked_answers(monkeypatch) -> list:
    """Patch the sweep's max-min bisections; the returned list grows by
    (stats, mask, scenario, candidate, verdict) for each probe that only the
    entries of its DropLp's ``within`` answered (see ``DropLp.lookup``)."""
    linked, only_linked = [], []
    real_lookup, real_max_min = DropLp.lookup, harness.solve_max_min

    def lookup(lp, s):
        answer = real_lookup(lp, s)
        within, lp.within = lp.within, None
        only_linked.append(answer is not None and real_lookup(lp, s) is None)
        lp.within = within
        return answer

    def bisection(lp, scenario, *args, **kwargs):
        only_linked.clear()
        res = real_max_min(lp, scenario, *args, **kwargs)
        assert len(only_linked) == res.iterations
        linked.extend((lp.stats, lp.mask, scenario, p.candidate, p.feasible) for p, only in zip(res.trace, only_linked) if only)
        return res

    monkeypatch.setattr(DropLp, "lookup", lookup)
    monkeypatch.setattr(harness, "solve_max_min", bisection)
    return linked


def linked_answers_disagreeing_with_lp(linked) -> list:
    """The ``record_linked_answers`` records whose verdict an LP solve of a
    fresh DropLp at the probe's uniform level does not give."""
    bad = []
    for stats, mask, scn, candidate, verdict in linked:
        targets = QosTargets.from_se(np.full(scn.num_users, candidate), scn.coherence_length, scn.pilot_length)
        if solve_power_min(DropLp(stats, mask), targets, scn).feasible != verdict:
            bad.append((scn.num_antennas, candidate, verdict))
    return bad
