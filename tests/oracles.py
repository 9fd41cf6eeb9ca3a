"""Independent brute-force references used by the tests.

The LP oracle enumerates every basic feasible point of
{x >= 0, A x <= b}: a vertex activates some subset S of the inequality
rows and zeroes all but |S| variables, so it suffices to solve the small
|S| x |S| systems over all (row subset, support) pairs. This stays
completely independent of the simplex implementation under test.

power_min_lp_rows writes the power-min LP row by row, the loop-form
reference for the broadcasting builder.

assert_farkas_certificate checks an infeasibility proof from the LP data
alone.
"""

from itertools import combinations

import numpy as np


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


def power_min_lp_rows(beta, gamma, xi_hat, num_antennas, noise_dl, pmax):
    """(a_ub, b_ub) of the power-min LP written row by row from the model:
    QoS row k has beta[i, k] at column t*L + i, minus b_k[i] when t == k."""
    L, K = beta.shape
    a = np.zeros((K + L, K * L))
    b = np.zeros(K + L)
    for k in range(K):
        if xi_hat[k] > 0.0:
            for t in range(K):
                a[k, t * L : (t + 1) * L] = beta[:, k]
            a[k, k * L : (k + 1) * L] -= num_antennas * gamma[:, k] / xi_hat[k]
            b[k] = -noise_dl
    for i in range(L):
        a[K + i, i::L] = 1.0
        b[K + i] = pmax[i]
    return a, b


def assert_farkas_certificate(a_ub, b_ub, y, rtol=1e-12):
    """y proves {x >= 0, A x <= b} empty: y >= 0, A^T y >= 0 up to rtol
    times |A|^T y column by column, and b^T y < 0."""
    a = np.asarray(a_ub, dtype=float)
    assert y is not None and y.shape == (a.shape[0],)
    assert np.all(y >= 0.0)
    assert np.all(a.T @ y >= -rtol * (np.abs(a).T @ y))
    assert float(np.asarray(b_ub, dtype=float) @ y) < 0.0
