"""Scenario geometry and large-scale channel statistics.

Distances are in km, powers in linear watts. The large-scale gain beta
combines a log-distance path loss with log-normal shadowing in dB; the
estimation quality gamma is the per-antenna variance of the MMSE channel
estimate obtained from orthogonal uplink pilots,

    gamma = p * tau_p * beta**2 / (p * tau_p * beta + noise_ul),

so that beta - gamma is the estimation-error variance.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

# Log-distance path loss in dB at d km: gain = -(148.1 + 37.6 log10 d).
_PL_INTERCEPT_DB = 148.1
_PL_SLOPE_DB = 37.6
_MAX_EMPTY_ROUNDS = 1000  # see sample_user_positions


def dbm_to_watt(dbm):
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0) * 1e-3


_SCENARIO_FLOAT_FIELDS = (
    "bs_positions", "user_positions", "pilot_power", "noise_ul", "noise_dl", "pmax", "shadow_std_db"
)


def _require_finite(obj, names) -> None:
    """Raise ValueError naming the first field of ``obj`` that holds a NaN or an infinity."""
    for name in names:
        if not np.isfinite(getattr(obj, name)).all():
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class NetworkScenario:
    """One network drop: geometry plus pilot/power/noise parameters.

    Positions are (x, y) in km; ``pilot_power`` is a per-user vector in W and
    ``pmax`` a per-BS vector in W. Pilots are orthogonal, which requires
    ``pilot_length >= num_users`` and ``pilot_length < coherence_length``.
    """

    num_bs: int
    num_users: int
    num_antennas: int
    bs_positions: np.ndarray
    user_positions: np.ndarray
    coherence_length: int
    pilot_length: int
    pilot_power: np.ndarray
    noise_ul: float
    noise_dl: float
    pmax: np.ndarray
    shadow_std_db: float
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bs_positions", np.asarray(self.bs_positions, dtype=float))
        object.__setattr__(self, "user_positions", np.asarray(self.user_positions, dtype=float))
        object.__setattr__(self, "pilot_power", np.asarray(self.pilot_power, dtype=float))
        object.__setattr__(self, "pmax", np.asarray(self.pmax, dtype=float))
        for name in ("num_bs", "num_users", "num_antennas"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.bs_positions.shape != (self.num_bs, 2):
            raise ValueError("bs_positions must have shape (num_bs, 2)")
        if self.user_positions.shape != (self.num_users, 2):
            raise ValueError("user_positions must have shape (num_users, 2)")
        if self.pilot_length < self.num_users:
            raise ValueError("orthogonal pilots need pilot_length >= num_users")
        if self.pilot_length >= self.coherence_length:
            raise ValueError("pilot_length must be smaller than coherence_length")
        if self.pilot_power.shape != (self.num_users,):
            raise ValueError("pilot_power must be a per-user vector")
        if self.pmax.shape != (self.num_bs,):
            raise ValueError("pmax must be a per-BS vector")
        _require_finite(self, _SCENARIO_FLOAT_FIELDS)
        if not ((self.pilot_power > 0.0).all() and (self.pmax > 0.0).all()):
            raise ValueError("pilot_power and pmax must be strictly positive")
        if not (self.noise_ul > 0.0 and self.noise_dl > 0.0):
            raise ValueError("noise variances must be strictly positive")
        if not self.shadow_std_db >= 0.0:
            raise ValueError("shadow_std_db must be nonnegative")


@dataclass(frozen=True)
class ChannelStats:
    """Large-scale gains ``beta`` and MMSE estimate variances ``gamma``, both (L, K)."""

    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        if self.beta.shape != self.gamma.shape or self.beta.ndim != 2:
            raise ValueError("beta and gamma must be equal-shape (L, K) matrices")
        _require_finite(self, ("beta", "gamma"))
        if not (self.beta > 0.0).all():
            raise ValueError("beta must be strictly positive")
        # gamma == beta is the perfect-estimation limit and is allowed.
        if not ((self.gamma > 0.0) & (self.gamma <= self.beta)).all():
            raise ValueError("gamma must satisfy 0 < gamma <= beta elementwise")

    @property
    def error_variance(self) -> np.ndarray:
        """Estimation-error variance, exactly beta - gamma."""
        return self.beta - self.gamma


def pairwise_distances_km(bs_positions, user_positions) -> np.ndarray:
    bs = np.asarray(bs_positions, dtype=float)
    users = np.asarray(user_positions, dtype=float)
    return np.linalg.norm(bs[:, None, :] - users[None, :, :], axis=2)


def large_scale_fading(scenario: NetworkScenario, rng=None) -> np.ndarray:
    """Draw the (L, K) matrix of linear gains beta for one shadowing realization:
    the path loss at each BS-user distance plus a normal draw, both in dB.

    Deterministic given the generator state; with ``rng=None`` a fresh
    generator seeded from ``scenario.rng_seed`` is used.
    """
    if rng is None:
        rng = np.random.default_rng(scenario.rng_seed)
    d = pairwise_distances_km(scenario.bs_positions, scenario.user_positions)
    if np.any(d <= 0.0):
        raise ValueError("a user is colocated with a BS (zero distance)")
    shadow = rng.normal(0.0, scenario.shadow_std_db, size=d.shape)
    return 10.0 ** ((-_PL_INTERCEPT_DB - _PL_SLOPE_DB * np.log10(d) + shadow) / 10.0)


def estimation_quality(scenario: NetworkScenario, beta) -> np.ndarray:
    """The (L, K) matrix gamma of MMSE estimate variances (module docstring) for a given beta."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0.0):
        raise ValueError("beta must be strictly positive")
    energy = scenario.pilot_power * float(scenario.pilot_length)
    return energy * beta**2 / (energy * beta + float(scenario.noise_ul))


def channel_stats(scenario: NetworkScenario, rng=None) -> ChannelStats:
    beta = large_scale_fading(scenario, rng)
    return ChannelStats(beta=beta, gamma=estimation_quality(scenario, beta))


def sample_user_positions(num_users, bs_positions, rng, min_dist_km) -> np.ndarray:
    """Uniform user drop over the bounding rectangle of the BS positions.

    Positions closer than ``min_dist_km`` to any BS are rejected and redrawn,
    which keeps the path loss bounded; _MAX_EMPTY_ROUNDS rounds that accept
    none raise ValueError.
    """
    bs = np.asarray(bs_positions, dtype=float)
    lo = bs.min(axis=0)
    hi = bs.max(axis=0)
    if np.any(hi <= lo):
        raise ValueError("BS positions must span a nondegenerate rectangle")
    out = np.empty((num_users, 2))
    remaining = np.arange(num_users)
    empty_rounds = 0
    while remaining.size:
        cand = rng.uniform(lo, hi, size=(remaining.size, 2))
        d = pairwise_distances_km(bs, cand)
        ok = d.min(axis=0) >= min_dist_km
        out[remaining[ok]] = cand[ok]
        remaining = remaining[~ok]
        empty_rounds += not ok.any()
        if empty_rounds == _MAX_EMPTY_ROUNDS:
            raise ValueError(
                f"no user cleared the {min_dist_km * 1e3:g} m BS exclusion in {_MAX_EMPTY_ROUNDS} rounds"
            )
    return out


# --- scenario (de)serialization ------------------------------------------

def _parse_power(entry, length):
    """Accept a raw W number/list or {'units': 'W'|'dBm', 'value(s)': ...}."""
    units = "W"
    if isinstance(entry, dict):
        units = entry.get("units", "W")
        if "values" in entry:
            entry = entry["values"]
        elif "value" in entry:
            entry = entry["value"]
        else:
            raise ValueError("expected 'value' or 'values' next to 'units'")
    arr = np.asarray(entry, dtype=float)
    if units == "dBm":
        arr = dbm_to_watt(arr)
    elif units != "W":
        raise ValueError(f"unknown power units {units!r}")
    if arr.ndim == 0:
        arr = np.full(length, float(arr))
    if arr.shape != (length,):
        raise ValueError(f"expected scalar or length-{length} vector")
    return arr


def _count(value) -> int:
    """An integer (a bool is not one), or a float with an integral value, as an int."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def scenario_from_json_dict(d: dict) -> NetworkScenario:
    """The scenario a JSON object describes; any other top level, a missing or
    wrongly typed field, or a non-integer count raises ValueError naming it."""
    if not isinstance(d, dict):
        raise ValueError(f"scenario JSON must be an object, got {type(d).__name__}")

    def field(name, convert, *args):
        if name not in d:
            raise ValueError(f"scenario JSON is missing field {name!r}")
        try:
            return convert(d[name], *args)
        except (TypeError, ValueError) as e:
            raise ValueError(f"scenario JSON field {name!r}: {e}") from e

    num_bs = field("num_bs", _count)
    num_users = field("num_users", _count)
    return NetworkScenario(
        num_bs=num_bs,
        num_users=num_users,
        num_antennas=field("num_antennas", _count),
        bs_positions=field("bs_positions", np.asarray, float),
        user_positions=field("user_positions", np.asarray, float),
        coherence_length=field("coherence_length", _count),
        pilot_length=field("pilot_length", _count),
        pilot_power=field("pilot_power", _parse_power, num_users),
        noise_ul=float(field("noise_ul", _parse_power, 1)[0]),
        noise_dl=float(field("noise_dl", _parse_power, 1)[0]),
        pmax=field("pmax", _parse_power, num_bs),
        shadow_std_db=field("shadow_std_db", _real),
        rng_seed=field("rng_seed", _count) if "rng_seed" in d else 0,
    )


def scenario_to_json_dict(scenario: NetworkScenario) -> dict:
    return {
        "num_bs": scenario.num_bs,
        "num_users": scenario.num_users,
        "num_antennas": scenario.num_antennas,
        "bs_positions": scenario.bs_positions.tolist(),
        "user_positions": scenario.user_positions.tolist(),
        "coherence_length": scenario.coherence_length,
        "pilot_length": scenario.pilot_length,
        "pilot_power": {"units": "W", "values": scenario.pilot_power.tolist()},
        "noise_ul": {"units": "W", "value": scenario.noise_ul},
        "noise_dl": {"units": "W", "value": scenario.noise_dl},
        "pmax": {"units": "W", "values": scenario.pmax.tolist()},
        "shadow_std_db": scenario.shadow_std_db,
        "rng_seed": scenario.rng_seed,
    }


def load_scenario(path) -> NetworkScenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read scenario file {path}: {e}") from e
    return scenario_from_json_dict(data)


def save_scenario(scenario: NetworkScenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_json_dict(scenario), fh, indent=2, allow_nan=False)
        fh.write("\n")
