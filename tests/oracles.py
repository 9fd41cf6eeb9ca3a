"""Independent brute-force references used by the tests.

The LP oracle enumerates every basic feasible point of
{x >= 0, A x <= b}: a vertex activates some subset S of the inequality
rows and zeroes all but |S| variables, so it suffices to solve the small
|S| x |S| systems over all (row subset, support) pairs. This stays
completely independent of the simplex implementation under test.

power_min_lp_rows writes the power-min LP row by row, the loop-form
reference for the broadcasting builder.

sparse_lps yields the random sparse LPs of one seed that the simplex is
checked on, against its own certificates and against HiGHS.

dinkelbach_lp writes one step LP of Dinkelbach's max-min SINR iteration,
whose costs are zero but for the level variable's, and max_min_sinr runs
that iteration to the max-min SINR of a drop and association mask.

max_snr_power_min solves the max-SNR power-min cell as the least fixed
point of its SINR constraints, with no LP.

assert_farkas_certificate checks an infeasibility proof from the LP data
alone, and row_excess a point's feasibility on the equilibrated rows.

edge_scenarios yields the power-min edge cases: one BS, K = tau_p, users
10 m from a BS, and no or heavy shadowing.
"""

import dataclasses
from itertools import combinations, count

import numpy as np

from mimopower.channel import NetworkScenario, dbm_to_watt
from mimopower.harness import DEFAULT_NOISE_DBM, default_scenario
from mimopower.lp import LinearProgram, LpStatus, solve
from mimopower.se import PowerAllocation, sinr_mrt_all


def brute_force_lp_min(a_ub, b_ub, c, feas_tol=1e-7):
    """Minimum of c^T x over the polytope by basic-feasible-point enumeration.

    Returns (objective, x) of the best vertex, or (None, None) when no
    vertex is feasible. Only meaningful for bounded feasible problems.
    """
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    tol = feas_tol * (1.0 + np.abs(b).max(initial=0.0))
    best_obj, best_x = None, None

    def consider(x):
        nonlocal best_obj, best_x
        if np.any(x < -tol) or np.any(a @ x > b + tol):
            return
        obj = float(c @ x)
        if best_obj is None or obj < best_obj:
            best_obj, best_x = obj, x.copy()

    consider(np.zeros(n))
    for s in range(1, min(m, n) + 1):
        for rows in combinations(range(m), s):
            sub_b = b[list(rows)]
            for support in combinations(range(n), s):
                sq = a[np.ix_(list(rows), list(support))]
                try:
                    xs = np.linalg.solve(sq, sub_b)
                except np.linalg.LinAlgError:
                    continue
                x = np.zeros(n)
                x[list(support)] = xs
                consider(x)
    return best_obj, best_x


def random_feasible_lp(rng, max_vars=12, max_rows=4):
    """Random bounded-feasible instance: c >= 0 and b = A x0 + margin."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    a = rng.normal(size=(m, n))
    x0 = np.abs(rng.normal(size=n)) * (rng.random(n) < 0.7)
    margin = np.abs(rng.normal(size=m)) * (rng.random(m) < 0.5)
    b = a @ x0 + margin
    c = np.abs(rng.normal(size=n))
    return a, b, c


def sparse_lps(seed):
    """Random LPs of up to 9 rows and 13 columns: half the entries zero, row
    0 copied over a random row in 30 % of them, a fifth of the right-hand
    side zero, and zero, normal and uniform costs in turn."""
    rng = np.random.default_rng(seed)
    for i in count():
        n = int(rng.integers(1, 14))
        m = int(rng.integers(1, 10))
        a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.5)
        if rng.random() < 0.3:
            a[rng.integers(m)] = a[0]
        b = rng.normal(size=m)
        b[rng.random(m) < 0.2] = 0.0
        if i % 3 == 0:
            c = np.zeros(n)
        elif i % 3 == 1:
            c = rng.normal(size=n)
        else:
            c = rng.random(n)
        yield LinearProgram(c=c, a_ub=a, b_ub=b)


def power_min_lp_rows(beta, gamma, xi_hat, num_antennas, noise_dl, pmax):
    """(a_ub, b_ub) of the power-min LP written row by row from the model:
    QoS row k has beta[i, k] at column t*L + i, minus b_k[i] when t == k."""
    L, K = beta.shape
    a = np.zeros((K + L, K * L))
    b = np.zeros(K + L)
    for k in range(K):
        for t in range(K):
            a[k, t * L : (t + 1) * L] = beta[:, k]
        a[k, k * L : (k + 1) * L] -= num_antennas * gamma[:, k] / xi_hat[k]
        b[k] = -noise_dl
    for i in range(L):
        a[K + i, i::L] = 1.0
        b[K + i] = pmax[i]
    return a, b


def dinkelbach_lp(stats, scenario, x_prev=None, mask=None):
    """LinearProgram of the Dinkelbach step after the step whose optimal
    vertex is ``x_prev`` (None for the first step, from zero powers rho):
    maximize z subject to the per-BS caps and, for every user k,
    z * D_k(rho) <= N_k(x) - lam * D_k(x), where N_k = M gamma_k^T x_k,
    D_k = beta_k^T sum_t x_t + noise and lam is the least SINR under rho.
    Variables are x user-major (column t*L + i), then z; the costs are
    (0, ..., 0, -1). An (L, K) bool ``mask`` keeps only the columns of the
    (BS, user) pairs it allows, in the same order, and so does x_prev."""
    L, K = stats.beta.shape
    keep = _kept_columns(mask, L, K)
    rho = _step_powers(x_prev, mask, L, K)
    noise = scenario.noise_dl
    lam = sinr_mrt_all(stats, PowerAllocation(rho), scenario).min()
    d_prev = rho.sum(axis=1) @ stats.beta + noise
    # qos[k, t, i] = lam * beta[i, k] - [t == k] * M * gamma[i, k]
    qos = np.broadcast_to(lam * stats.beta.T[:, None, :], (K, K, L)).copy()
    qos[np.arange(K), np.arange(K)] -= scenario.num_antennas * stats.gamma.T
    a = np.block(
        [[qos.reshape(K, K * L), d_prev[:, None]], [np.tile(np.eye(L), K), np.zeros((L, 1))]]
    )
    b = np.concatenate([np.full(K, -lam * noise), scenario.pmax])
    c = np.zeros(K * L + 1)
    c[-1] = -1.0
    return LinearProgram(c=c[keep], a_ub=a[:, keep], b_ub=b)


def _kept_columns(mask, L, K):
    """The columns of ``dinkelbach_lp``'s variables (user-major powers, then
    z) that ``mask`` keeps; None keeps all."""
    return np.ones(K * L + 1, dtype=bool) if mask is None else np.r_[mask.T.ravel(), True]


def _step_powers(x, mask, L, K):
    """The (L, K) powers rho of a step vertex x over ``mask``'s columns (None: zeros)."""
    full = np.zeros(K * L + 1)
    if x is not None:
        full[_kept_columns(mask, L, K)] = x
    return full[:-1].reshape(K, L).T


def max_min_sinr(stats, scenario, mask=None):
    """The max-min SINR of a drop under an association ``mask`` (None: every
    pair), by Dinkelbach steps (``dinkelbach_lp``) until a step's level z is
    at most 1e-12: the least SINR at that step's start point."""
    L, K = stats.beta.shape
    x = None
    for _ in range(100):
        sol = solve(dinkelbach_lp(stats, scenario, x, mask))
        assert sol.status == LpStatus.OPTIMAL
        if -sol.objective <= 1e-12:
            rho = _step_powers(x, mask, L, K)
            return float(sinr_mrt_all(stats, PowerAllocation(rho), scenario).min())
        x = sol.x
    raise AssertionError("Dinkelbach's iteration did not converge")


def max_snr_power_min(stats, scenario, targets):
    """The max-SNR power-min cell by its fixed point (Yates, IEEE JSAC 1995):
    user k draws p_k from its strongest BS b(k) (``max_snr_mask``'s pick),
    and its QoS row reads p >= D (F p + v) with F[k, t] = beta[b(t), k] /
    (M gamma[b(k), k]), v_k = noise / (M gamma[b(k), k]) and D =
    diag(xi_hat). The least fixed point p* = (I - DF)^-1 D v exists exactly
    when rho(DF) < 1, and the cell is feasible exactly when p* also keeps
    every BS load within its cap.

    Returns (p*, margin): p* one power per user (None when rho(DF) >= 1),
    and margin the cell's signed relative distance from its boundary,
    min(1 - rho(DF), min_l (1 - load_l / pmax_l)) (only 1 - rho(DF) when
    that is not positive); the cell is feasible exactly when p* is not None
    and margin >= 0."""
    K = stats.beta.shape[1]
    b = np.argmax(stats.beta, axis=0)
    own = scenario.num_antennas * stats.gamma[b, np.arange(K)]
    df = targets.xi_hat[:, None] * stats.beta[b].T / own[:, None]
    radius = float(np.abs(np.linalg.eigvals(df)).max())
    if radius >= 1.0:
        return None, 1.0 - radius
    p = np.linalg.solve(np.eye(K) - df, targets.xi_hat * scenario.noise_dl / own)
    load = np.bincount(b, weights=p, minlength=stats.beta.shape[0])
    return p, min(1.0 - radius, float((1.0 - load / scenario.pmax).min()))


def assert_farkas_certificate(a_ub, b_ub, y, rtol=1e-12):
    """y proves {x >= 0, A x <= b} empty: y >= 0, A^T y >= 0 up to rtol
    times |A|^T y column by column, and b^T y < 0."""
    a = np.asarray(a_ub, dtype=float)
    assert y is not None and y.shape == (a.shape[0],)
    assert np.all(y >= 0.0)
    assert np.all(a.T @ y >= -rtol * (np.abs(a).T @ y))
    assert float(np.asarray(b_ub, dtype=float) @ y) < 0.0


def row_excess(lp, x):
    """The largest violation of an equilibrated row at x (0 when all hold)."""
    scale = np.abs(lp.a_ub).max(axis=1, initial=0.0)
    scale = np.where(scale == 0.0, 1.0, scale)
    return float(np.max((lp.a_ub @ x - lp.b_ub) / scale, initial=0.0))


def edge_scenarios():
    """(name, scenario) for the power-min edge cases: one BS, K = tau_p,
    users 10 m from a BS, and no or heavy shadowing."""
    noise = float(dbm_to_watt(DEFAULT_NOISE_DBM))
    yield "one BS", NetworkScenario(
        num_bs=1,
        num_users=3,
        num_antennas=100,
        bs_positions=[[0.5, 0.5]],
        user_positions=[[0.1, 0.5], [0.5, 0.9], [0.55, 0.5]],
        coherence_length=200,
        pilot_length=5,
        pilot_power=np.full(3, 0.2),
        noise_ul=noise,
        noise_dl=noise,
        pmax=np.array([40.0]),
        shadow_std_db=7.0,
    )
    base = default_scenario(100, 8, rng_seed=5)
    assert base.pilot_length == base.num_users
    yield "K = tau_p", base
    # two users 10 m from each BS, one on either side of it along x
    steps = 0.01 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    users = base.bs_positions[np.arange(8) % 4] + steps[np.arange(8) // 4]
    yield "10 m", dataclasses.replace(base, user_positions=users)
    yield "0 dB", dataclasses.replace(base, shadow_std_db=0.0)
    yield "12 dB", dataclasses.replace(base, shadow_std_db=12.0)
