import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimopower.lp import LinearProgram, LpStatus, format_lp, solve, verify
from oracles import assert_farkas_certificate, brute_force_lp_min, random_feasible_lp


class TestContractExamples:
    def test_single_lower_bound(self):
        # min x s.t. x >= 1 encoded as -x <= -1
        sol = solve(LinearProgram(c=[1.0], a_ub=[[-1.0]], b_ub=[-1.0]))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, rel=1e-12)
        assert sol.duals[0] == pytest.approx(1.0, rel=1e-12)

    def test_cheapest_coverage(self):
        sol = solve(LinearProgram(c=[1.0, 1.0], a_ub=[[-1.0, -2.0]], b_ub=[-2.0]))
        assert sol.status == LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-12)
        assert sol.objective == pytest.approx(1.0, rel=1e-12)

    def test_conflicting_bounds_infeasible(self):
        # x <= -1 contradicts x >= 0
        sol = solve(LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]))
        assert sol.status == LpStatus.INFEASIBLE
        assert sol.x is None

    def test_unbounded_reported(self):
        for c in ([-1.0], [1.0, -2.0, 0.0]):
            sol = solve(LinearProgram(c=c, a_ub=np.zeros((0, len(c))), b_ub=[]))
            assert sol.status == LpStatus.UNBOUNDED

    def test_zero_lp(self):
        for c, hint in (([0.0, 0.0], None), ([1.0, 2.0], [])):
            lp = LinearProgram(c=c, a_ub=np.zeros((0, 2)), b_ub=[])
            sol = solve(lp, basis=hint)
            assert sol.status == LpStatus.OPTIMAL and sol.iterations == 0
            np.testing.assert_array_equal(sol.x, [0.0, 0.0])
            assert sol.duals.size == 0 and verify(lp, sol).worst == 0.0

    def test_rows_without_columns(self):
        # x = [] meets 0 <= b only where b >= 0; -2.5e-13 is a QoS row's -noise
        no_cols = np.zeros((3, 0))
        sol = solve(LinearProgram(c=np.zeros(0), a_ub=no_cols, b_ub=[40.0, -2.5e-13, -1.0]))
        assert sol.status == LpStatus.INFEASIBLE
        np.testing.assert_array_equal(sol.infeasibility_certificate, [0.0, 1.0, 0.0])
        lp = LinearProgram(c=np.zeros(0), a_ub=no_cols, b_ub=[40.0, 0.0, 1.0])
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL and sol.objective == 0.0
        np.testing.assert_array_equal(sol.duals, np.zeros(3))
        assert verify(lp, sol).worst == 0.0


class TestVerify:
    def test_requires_optimal(self):
        lp = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0])
        with pytest.raises(ValueError):
            verify(lp, solve(lp))

    def test_detects_perturbation(self):
        lp = LinearProgram(c=[1.0], a_ub=[[-1.0]], b_ub=[-1.0])
        sol = solve(lp)
        sol.x = sol.x + 1e-3
        report = verify(lp, sol)
        assert report.worst > 1e-5

    def test_residuals_on_random_instances(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            a, b, c = random_feasible_lp(rng)
            lp = LinearProgram(c=c, a_ub=a, b_ub=b)
            sol = solve(lp)
            assert sol.status == LpStatus.OPTIMAL
            assert verify(lp, sol).worst <= 1e-8
            checked += 1
        assert checked == 40


class TestAgainstBruteForce:
    def test_random_instances_match_vertex_enumeration(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            a, b, c = random_feasible_lp(rng, max_vars=8, max_rows=4)
            sol = solve(LinearProgram(c=c, a_ub=a, b_ub=b))
            ref_obj, _ = brute_force_lp_min(a, b, c)
            assert sol.status == LpStatus.OPTIMAL
            assert ref_obj is not None
            assert sol.objective == pytest.approx(ref_obj, rel=1e-9, abs=1e-12)


class TestInfeasibility:
    def test_certificate_is_valid(self):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 5))
            a = rng.normal(size=(m, n))
            b = rng.normal(size=m) - 1.0
            lp = LinearProgram(c=np.abs(rng.normal(size=n)), a_ub=a, b_ub=b)
            sol = solve(lp)
            if sol.status != LpStatus.INFEASIBLE:
                continue
            found += 1
            y = sol.infeasibility_certificate
            assert y is not None and np.all(y >= 0.0)
            assert np.all(a.T @ y >= -1e-7 * (1.0 + np.abs(a).max()))
            assert b @ y < 0.0
        assert found >= 10


class TestDeterminism:
    def test_bit_identical_resolve(self):
        rng = np.random.default_rng(9)
        a, b, c = random_feasible_lp(rng)
        lp = LinearProgram(c=c, a_ub=a, b_ub=b)
        s1, s2 = solve(lp), solve(lp)
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.duals, s2.duals)
        assert s1.objective == s2.objective

    def test_degenerate_face_resolves_to_one_vertex(self):
        # two identical cost directions: min x1 + x2 with x1 + x2 >= 1
        lp = LinearProgram(c=[1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        sol = solve(lp)
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)


class TestBasisHint:
    def test_optimal_hint_skips_both_phases(self):
        # min x1 + x2 s.t. x1 + 2 x2 >= 2, x1 <= 3: basis {x2, slack of row 1}
        lp = LinearProgram(c=[1.0, 1.0], a_ub=[[-1.0, -2.0], [1.0, 0.0]], b_ub=[-2.0, 3.0])
        cold = solve(lp)
        assert cold.iterations > 0 and np.array_equal(cold.basis, [1, 3])
        warm = solve(lp, basis=[3, 1])
        assert warm.iterations == 0
        assert np.array_equal(warm.x, cold.x) and np.array_equal(warm.duals, cold.duals)

    def test_dual_feasible_hint_starts_the_dual_simplex(self):
        # min 2x1 + x2 + 2x3 over covering rows A x >= b. The optimal basis at
        # b = (2, 1, 1), {x1, x2, slack of row 3}, stays dual feasible at
        # b = (4, 2, 3) (its reduced costs do not involve b), but its vertex
        # there has a negative slack.
        a = -np.array([[3.0, 3.0, 1.0], [2.0, 1.0, 1.0], [2.0, 2.0, 3.0]])
        lp = LinearProgram(c=[2.0, 1.0, 2.0], a_ub=a, b_ub=[-4.0, -2.0, -3.0])
        hint = solve(LinearProgram(c=lp.c, a_ub=a, b_ub=[-2.0, -1.0, -1.0])).basis
        assert np.array_equal(hint, [0, 1, 5])
        b_mat = np.hstack([a, np.eye(3)])[:, hint]
        assert np.linalg.solve(b_mat, lp.b_ub).min() < 0.0
        cold, warm = solve(lp), solve(lp, basis=hint)
        assert warm.status == LpStatus.OPTIMAL and warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.x, [0.5, 1.0, 0.0], rtol=1e-12)
        assert np.array_equal(warm.x, cold.x) and np.array_equal(warm.duals, cold.duals)
        assert np.array_equal(warm.basis, cold.basis) and warm.objective == cold.objective

    def test_infeasible_lp_from_dual_feasible_hint(self):
        # the covering rows above plus the cap x1 + x2 + x3 <= cap: the
        # optimum under a loose cap keeps the cap's slack basic, and that
        # basis is dual feasible, not primal feasible, under a cap of 0.5
        a = np.array([[-3.0, -3.0, -1.0], [-2.0, -1.0, -1.0], [-2.0, -2.0, -3.0], [1.0, 1.0, 1.0]])
        b = np.array([-4.0, -2.0, -3.0, 10.0])
        hint = solve(LinearProgram(c=[2.0, 1.0, 2.0], a_ub=a, b_ub=b)).basis
        assert 6 in hint
        b[3] = 0.5
        lp = LinearProgram(c=[2.0, 1.0, 2.0], a_ub=a, b_ub=b)
        for sol in (solve(lp, basis=hint), solve(lp)):
            assert sol.status == LpStatus.INFEASIBLE
            assert_farkas_certificate(a, b, sol.infeasibility_certificate)

    def test_negative_costs_run_both_phases(self):
        # min -x1 s.t. x1 + x2 <= 2, x2 >= 1: the dual phase on max(c, 0)
        # = 0 finds x2 = 1, then the primal phase raises x1 to the cap
        lp = LinearProgram(c=[-1.0, 0.0], a_ub=[[1.0, 1.0], [0.0, -1.0]], b_ub=[2.0, -1.0])
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL and sol.iterations == 2
        np.testing.assert_allclose(sol.x, [1.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(sol.duals, [1.0, 1.0], rtol=1e-12)
        assert sol.objective == pytest.approx(-1.0, rel=1e-12)
        assert verify(lp, sol).worst <= 1e-12

    def test_malformed_hint_rejected(self):
        lp = LinearProgram(c=[1.0], a_ub=[[-1.0]], b_ub=[-1.0])
        for hint in ([0, 1], [2], [-1]):
            with pytest.raises(ValueError, match="basis must hold 1 column"):
                solve(lp, basis=hint)


class TestRobustness:
    def test_duplicated_rows(self):
        lp = LinearProgram(c=[1.0], a_ub=[[-1.0], [-1.0], [-2.0]], b_ub=[-1.0, -1.0, -2.0])
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, rel=1e-12)
        assert verify(lp, sol).worst <= 1e-9

    def test_badly_scaled_rows(self):
        # mimics QoS rows built from channel gains spanning many decades
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_ub=[[-3e-12, 1e-13], [1e-14, -5e-12], [1.0, 0.0], [0.0, 1.0]],
            b_ub=[-2.5e-13, -2.5e-13, 40.0, 40.0],
        )
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert verify(lp, sol).worst <= 1e-9

    def test_rejects_nonfinite_data(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[np.nan], a_ub=[[1.0]], b_ub=[1.0])

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_any_random_instance_is_classified_consistently(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 5))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        c = rng.normal(size=n)
        lp = LinearProgram(c=c, a_ub=a, b_ub=b)
        sol = solve(lp)
        if sol.status == LpStatus.OPTIMAL:
            assert verify(lp, sol).worst <= 1e-8
        elif sol.status == LpStatus.INFEASIBLE:
            y = sol.infeasibility_certificate
            assert np.all(y >= 0.0) and float(b @ y) < 0.0


def test_format_lp_layout():
    lp = LinearProgram(c=[1.0, 2.0], a_ub=[[1.0, -1.0]], b_ub=[3.0])
    text = format_lp(lp)
    lines = text.strip().split("\n")
    assert lines[0].startswith("min ")
    assert lines[1].endswith("<= 3.0")
