import copy
from dataclasses import replace

import hypothesis
import numpy as np
import pytest

from mimopower import harness
from mimopower.channel import ChannelStats, channel_stats, estimation_quality
from mimopower.harness import default_scenario
from mimopower.power_assoc import DropLp, max_snr_mask, solve_power_min
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


def with_fields(obj, **fields):
    """A shallow copy of ``obj`` with ``fields`` stored in its instance
    ``__dict__``, where they shadow a lazy field's ``cached_property`` as
    its first read would: injects a result or solution field."""
    edited = copy.copy(obj)
    edited.__dict__.update(fields)
    return edited


def record_max_snr_bisections(monkeypatch) -> list:
    """Patch the sweep's max-min bisections; the returned list grows by
    (stats, scenario, entries, answered) per max-SNR bisection, the scenario
    at the bisection's antenna count: ``entries``
    are the (feasible, infeasible) s-vectors its DropLp held when it began,
    and ``answered`` the (candidate, verdict) of each probe that its DropLp
    answered without an LP (see ``DropLp.lookup``)."""
    records, answers = [], []
    real_lookup, real_max_min = DropLp.lookup, harness.solve_max_min

    def lookup(lp, s):
        answers.append(real_lookup(lp, s))
        return answers[-1]

    def bisection(lp, num_antennas, *args, **kwargs):
        entries = (list(lp.feasible), list(lp.infeasible))
        answers.clear()
        res = real_max_min(lp, num_antennas, *args, **kwargs)
        if not lp.mask.all():  # the joint mask grants every pair
            answered = [(p.candidate, p.feasible) for p, a in zip(res.trace, answers, strict=True) if a is not None]
            records.append((lp.stats, replace(lp.scenario, num_antennas=num_antennas), entries, answered))
        return res

    monkeypatch.setattr(DropLp, "lookup", lookup)
    monkeypatch.setattr(harness, "solve_max_min", bisection)
    return records


def max_snr_lp_feasible(stats, scn, candidate) -> bool:
    """Whether an LP solve of a fresh max-SNR DropLp proves the uniform SE
    level ``candidate`` feasible on ``scn``."""
    targets = QosTargets.from_se(np.full(scn.num_users, candidate), scn.coherence_length, scn.pilot_length)
    return solve_power_min(DropLp(stats, scn, max_snr_mask(stats.beta)), targets, scn.num_antennas).feasible
