import dataclasses
import hashlib
import inspect
import json
import os
import re
import runpy
import tracemalloc

import numpy as np
import pytest
from conftest import with_fields
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import max_snr_power_min

from mimopower import cli, harness, lp, power_assoc
from mimopower.channel import (
    NetworkScenario,
    channel_stats,
    dbm_to_watt,
    pairwise_distances_km,
    save_scenario,
    scenario_to_json_dict,
)
from mimopower.harness import (
    CAP_GATE_W,
    DEFAULT_COHERENCE_LENGTH,
    DEFAULT_TARGET_SE,
    MIN_BS_USER_DIST_KM,
    HarnessInvariantError,
    SweepSpec,
    default_scenario,
    emit_results,
    iter_drops,
    run_drop,
    run_sweep,
)
from mimopower.lp import LpStatus
from mimopower.maxmin import DEFAULT_DELTA
from mimopower.mc_oracle import McConfig
from mimopower.power_assoc import DropLp, PowerMinResult, max_snr_mask, solve_power_min
from mimopower.se import PowerAllocation, QosTargets, se_mrt_all


# Small sizes for a row of the CLI error table whose check must fire before any solve.
SMALL = ["--users", "5", "--antennas", "60"]
USERS_RANGE = "num_users must be 1 to 199, one pilot symbol each in the 200-symbol coherence block"


class TestDefaults:
    def test_reference_parameters(self):
        scn = default_scenario(100, rng_seed=0)
        assert scn.num_bs == 4 and scn.num_users == 20
        assert scn.coherence_length == 200 and scn.pilot_length == 20
        np.testing.assert_allclose(scn.pilot_power, 0.2, rtol=1e-12)
        assert scn.noise_dl == pytest.approx(float(dbm_to_watt(-96.0)), rel=1e-12)
        np.testing.assert_array_equal(scn.pmax, np.full(4, 40.0))
        assert scn.shadow_std_db == 7.0
        corners = {tuple(p) for p in scn.bs_positions.tolist()}
        assert corners == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
        d = np.linalg.norm(
            scn.bs_positions[:, None, :] - scn.user_positions[None, :, :], axis=2
        )
        assert d.min() >= 0.01

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(antenna_counts=())
        with pytest.raises(ValueError):
            SweepSpec(antenna_counts=(50,), num_drops=0)
        with pytest.raises(ValueError):
            SweepSpec(antenna_counts=(50,), mode="zen")
        with pytest.raises(ValueError, match="repeat"):
            SweepSpec(antenna_counts=(50, 100, 50))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"antenna_counts": (50.9, 100)}, "antenna_counts: expected an integer, got 50.9"),
            ({"antenna_counts": (True,)}, "antenna_counts: expected an integer, got True"),
            ({"antenna_counts": (50,), "num_drops": 2.5}, "num_drops: expected an integer, got 2.5"),
            ({"antenna_counts": (50,), "num_drops": False}, "num_drops: expected an integer, got False"),
        ],
        ids=["fractional-count", "bool-count", "fractional-drops", "bool-drops"],
    )
    def test_spec_rejects_non_integer_counts(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(**kwargs)

    @pytest.mark.parametrize("counts", [(50, -5), (0,), (50, 0, 100)])
    def test_spec_rejects_counts_below_one(self, counts):
        message = f"antenna_counts must all be >= 1, got {counts}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(antenna_counts=counts)

    def test_spec_keeps_integral_counts_as_ints(self):
        spec = SweepSpec(antenna_counts=(50.0, np.int64(100)), num_drops=np.int32(3))
        assert spec.antenna_counts == (50, 100) and spec.num_drops == 3
        assert all(type(v) is int for v in (*spec.antenna_counts, spec.num_drops))


def recorded_sweep(monkeypatch, spec, traces=False):
    """``run_sweep(spec, traces)`` and the (joint, max-SNR) pair of each cell
    its ``solve_drop`` calls return, as {M: [pair, ...]} in drop order."""
    cells = {m: [] for m in spec.antenna_counts}
    solve_drop = harness.solve_drop

    def recording(stats, scn0, antenna_counts, mode, drop_index, targets, delta):
        pairs = solve_drop(stats, scn0, antenna_counts, mode, drop_index, targets, delta)
        for m, pair in zip(antenna_counts, pairs, strict=True):
            assert drop_index == len(cells[m])
            cells[m].append(pair)
        return pairs

    monkeypatch.setattr(harness, "solve_drop", recording)
    return run_sweep(spec, traces=traces), cells


def table_rows(result) -> dict:
    return {(m, name): value for m, name, value in result.table}


class TestSweeps:
    def test_powermin_sweep_shape_and_inclusion(self, monkeypatch):
        spec = SweepSpec(antenna_counts=(50, 100), num_drops=4, rng_seed=3, num_users=10)
        result, cells = recorded_sweep(monkeypatch, spec)
        assert set(cells) == {50, 100}
        rows = table_rows(result)
        for m, cell in cells.items():
            assert len(cell) == rows[(m, "num_drops")] == 4
            for opt, snr in cell:
                if snr.feasible:
                    assert opt.feasible
                    assert opt.objective <= snr.objective * (1 + 1e-9)
            assert rows[(m, "bad_service_prob_optimal")] == sum(not o.feasible for o, _ in cell) / 4
            assert rows[(m, "bad_service_prob_max_snr")] == sum(not s.feasible for _, s in cell) / 4

    def test_same_drops_across_antenna_counts(self, monkeypatch):
        # common random numbers: feasibility can only improve with more antennas
        spec = SweepSpec(antenna_counts=(30, 60, 120), num_drops=6, rng_seed=5, num_users=10)
        _, cells = recorded_sweep(monkeypatch, spec)
        for a, b in ((30, 60), (60, 120)):
            for (da, _), (db, _) in zip(cells[a], cells[b]):
                if da.feasible:
                    assert db.feasible
                    assert db.objective <= da.objective * (1 + 1e-9)

    def test_maxmin_sweep_metrics(self, monkeypatch):
        spec = SweepSpec(
            antenna_counts=(50, 100), mode="maxmin", num_drops=3, rng_seed=2, num_users=8
        )
        result, cells = recorded_sweep(monkeypatch, spec)
        rows = table_rows(result)
        for m in (50, 100):
            for opt, snr in cells[m]:
                assert opt.xi_lower >= snr.xi_lower - spec.delta - 1e-12
                assert 0.0 <= opt.last_feasible.joint_fraction <= 1.0
            levels = [opt.xi_lower for opt, _ in cells[m]]
            assert rows[(m, "mean_maxmin_se_optimal")] == float(np.mean(levels))
        for (d50, _), (d100, _) in zip(cells[50], cells[100]):
            assert d100.xi_lower >= d50.xi_lower - spec.delta - 1e-12
        assert (50, "single_bs_fraction_optimal") in rows

    @pytest.mark.parametrize("mode", ["powermin", "maxmin"])
    def test_footprint_does_not_grow_with_drops(self, mode):
        """A cell leaves a row of three scalars, not its solver results: the
        traced peak of an untraced sweep barely grows from 5 to 40 drops. The
        full results of those 35 drops would take about 0.23 MB (powermin)
        and 0.62 MB (maxmin); their rows take about 10 KB."""
        peaks = []
        for num_drops in (1, 5, 40):  # the first run pays one-time allocations
            spec = SweepSpec((50, 200), mode, num_drops=num_drops, rng_seed=3)
            tracemalloc.start()
            try:
                run_sweep(spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] < 100_000, peaks

    def test_determinism(self):
        spec = SweepSpec(antenna_counts=(60,), num_drops=3, rng_seed=9, num_users=8)
        t1 = run_sweep(spec).table
        t2 = run_sweep(spec).table
        assert t1 == t2

    def test_iter_drops_are_the_sweeps_drops(self, monkeypatch):
        """Each joint and max-SNR cell has the bits of a fresh solve_power_min
        of its drop, so a DropLp reused across antenna counts leaks no state."""
        spec = SweepSpec(antenna_counts=(60, 120), num_drops=4, rng_seed=6, num_users=8)
        _, cells = recorded_sweep(monkeypatch, spec)
        base = default_scenario(spec.antenna_counts[0], spec.num_users, rng_seed=spec.rng_seed)
        feasible = 0
        for d, scn0, stats in iter_drops(base, spec.rng_seed, spec.num_drops):
            targets = QosTargets.uniform(spec.target_se, scn0)
            for m in spec.antenna_counts:
                for cell, mask in zip(cells[m][d], (None, max_snr_mask(stats.beta))):
                    res = solve_power_min(DropLp(stats, scn0, mask), targets, m)
                    assert res.status == cell.status and res.objective == cell.objective
                    if res.feasible:
                        feasible += 1
                        assert np.array_equal(res.allocation.rho, cell.allocation.rho)
                        assert np.array_equal(res.qos_duals, cell.qos_duals)
                        assert np.array_equal(res.power_duals, cell.power_duals)
                        assert np.array_equal(res.basis, cell.basis)
        assert feasible

    def test_powermin_targets_are_built_once_per_sweep(self, monkeypatch):
        spec = SweepSpec(antenna_counts=(60, 120), num_drops=3, rng_seed=6, num_users=8)
        _, cells = recorded_sweep(monkeypatch, spec)
        results = [res for pairs in cells.values() for pair in pairs for res in pair]
        assert len(results) == 12
        assert all(res.targets is results[0].targets for res in results)

    @pytest.mark.parametrize(
        "mode, setting, message",
        [
            ("powermin", {"delta": float("nan")}, "delta must be positive"),
            ("powermin", {"delta": 1e-12}, "delta must be at least 1e-09 bit/symbol, got 1e-12"),
            ("maxmin", {"target_se": float("inf")}, "SE targets must be finite"),
            ("maxmin", {"target_se": -3.0}, "SE targets must be positive"),
        ],
        ids=["powermin-delta-nan", "powermin-delta-below-floor", "maxmin-target-inf", "maxmin-target-negative"],
    )
    def test_sweep_checks_both_settings_before_solving(self, mode, setting, message, tmp_path, monkeypatch):
        # config.json records both settings, so neither mode may leave one unchecked
        monkeypatch.setattr(harness, "solve_drop", lambda *args: pytest.fail("a drop was solved"))
        spec = SweepSpec((50,), mode=mode, num_drops=1, **setting)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            emit_results(run_sweep(spec), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["powermin", "maxmin"])
    def test_one_drop_lp_per_drop_and_mask(self, mode, monkeypatch):
        built = []
        init = DropLp.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DropLp, "__init__", counting)
        spec = SweepSpec((50, 100, 150), mode, num_drops=3, rng_seed=2, num_users=6)
        run_sweep(spec)
        assert len(built) == 2 * spec.num_drops

    @pytest.mark.parametrize("mode", ["powermin", "maxmin"])
    def test_only_maxmin_computes_the_max_snr_root(self, mode, monkeypatch, capsys):
        """The Perron root seeds max-min bisections only: a powermin sweep
        and ``drop --mode powermin`` never compute it, while a maxmin sweep
        and drop compute it once per drop."""
        roots = []
        real = harness.max_snr_scale
        monkeypatch.setattr(harness, "max_snr_scale", lambda *args: roots.append(args) or real(*args))
        run_sweep(SweepSpec((50, 100), mode, num_drops=3, rng_seed=2, num_users=6))
        assert cli.main(["drop", "--mode", mode, "--antennas", "64", "--users", "5", "--seed", "3"]) == 0
        assert len(roots) == (3 + 1 if mode == "maxmin" else 0)

    @pytest.mark.parametrize("mode", ["powermin", "maxmin"])
    def test_every_lp_solve_is_built_by_build_lp(self, mode, monkeypatch):
        """Sweeps take the one build-and-solve path: each LP they solve, and
        each LP a power-min cell is read at without the simplex, comes from
        ``power_assoc.build_lp``."""
        built, used = [], []
        real_build, real_solve, real_at_basis = power_assoc.build_lp, power_assoc.lp_solve, power_assoc.at_basis

        def building(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        def solving(program, basis=None):
            used.append(program)
            return real_solve(program, basis=basis)

        def reading(program, basis):
            used.append(program)
            return real_at_basis(program, basis)

        monkeypatch.setattr(power_assoc, "build_lp", building)
        monkeypatch.setattr(power_assoc, "lp_solve", solving)
        monkeypatch.setattr(power_assoc, "at_basis", reading)
        run_sweep(SweepSpec((50, 100), mode, num_drops=2, rng_seed=2, num_users=6))
        assert used and all(any(program is b for b in built) for program in used)

    def test_the_benchmark_powermin_pass_runs_69_simplex_solves(self, monkeypatch):
        """The seed-17, 50-drop powermin sweep at M 50..200 (a pass of the
        benchmark's powermin workload) has 400 power-min LPs. The max-SNR
        basis decides 331 of them, and the simplex solves 69 in 113 pivots,
        the pivots of solving all 400: every LP it skips stops at that basis
        with no pivot. Solving every cell again shows here."""
        pivots = []
        real = power_assoc.lp_solve

        def counting(program, basis=None):
            sol = real(program, basis=basis)
            pivots.append(sol.iterations)
            return sol

        monkeypatch.setattr(power_assoc, "lp_solve", counting)
        run_sweep(SweepSpec((50, 100, 150, 200), num_drops=50, rng_seed=17))
        assert (len(pivots), sum(pivots)) == (69, 113)

    @pytest.mark.parametrize("mode", ["powermin", "maxmin"])
    def test_a_cell_is_an_antenna_count_not_a_scenario(self, mode, monkeypatch):
        """A cell passes its antenna count beside the drop's scenario: a
        sweep builds at most one ``NetworkScenario`` per drop, plus its base."""
        built = []
        init = NetworkScenario.__post_init__

        def counting(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(NetworkScenario, "__post_init__", counting)
        spec = SweepSpec((50, 100, 150, 200), mode, num_drops=3, rng_seed=2, num_users=6)
        run_sweep(spec)
        assert 0 < len(built) <= spec.num_drops + 1

    def test_invariant_error_names_its_cell(self, monkeypatch):
        def broken(*args, **kwargs):
            raise HarnessInvariantError("injected")

        monkeypatch.setattr(harness, "check_solution_invariants", broken)
        spec = SweepSpec(antenna_counts=(100,), num_drops=1, rng_seed=3, num_users=6, target_se=0.5)
        with pytest.raises(HarnessInvariantError, match=r"^drop 0, powermin: injected$"):
            run_sweep(spec)

    def test_maxmin_invariant_error_names_its_cell(self, monkeypatch):
        def broken(*args, **kwargs):
            raise HarnessInvariantError("injected")

        monkeypatch.setattr(harness, "check_solution_invariants", broken)
        spec = SweepSpec(antenna_counts=(100,), mode="maxmin", num_drops=1, rng_seed=3, num_users=6)
        with pytest.raises(HarnessInvariantError, match=r"^drop 0, maxmin: injected$"):
            run_sweep(spec)

    @pytest.mark.parametrize("mode", ["powermin", "maxmin"])
    def test_invariant_error_names_its_drop_count_mode_and_mask(self, mode, monkeypatch):
        """One published allocation of one cell, its powers scaled by
        1 - 1e-7 so that it misses its SE targets, fails the per-drop check
        with the four values that replay it: drop, antenna count, mode and
        mask."""
        check = harness.check_solution_invariants
        drops = []

        def edit_one(stats, scenario, published):
            drops.append(published)
            if len(drops) == 2:  # drop 1
                j = [(res.num_antennas, mask) for mask, res in published].index((100, "max_snr"))
                mask, res = published[j]
                edited = with_fields(res, allocation=PowerAllocation(res.allocation.rho * (1.0 - 1e-7)))
                published = published[:j] + [(mask, edited)] + published[j + 1 :]
            return check(stats, scenario, published)

        monkeypatch.setattr(harness, "check_solution_invariants", edit_one)
        spec = SweepSpec((50, 100, 150), mode, num_drops=3, rng_seed=3, num_users=6, target_se=0.5)
        message = f"drop 1, M=100, {mode}, max_snr: achieved SE fell below its target"
        with pytest.raises(HarnessInvariantError, match=f"^{re.escape(message)}$") as info:
            run_sweep(spec)
        err = info.value
        assert (err.drop, err.num_antennas, err.mode, err.mask) == (1, 100, mode, "max_snr")
        assert len(drops) == 2 and len(drops[1]) == 6  # every solve of drop 1 published

    def test_lp_error_names_its_cell(self, monkeypatch):
        def broken(lp, basis=None):
            raise RuntimeError("simplex pivot limit exceeded")

        monkeypatch.setattr(power_assoc, "lp_solve", broken)
        spec = SweepSpec(antenna_counts=(100,), mode="maxmin", num_drops=1, rng_seed=3, num_users=6)
        with pytest.raises(RuntimeError, match=r"^drop 0, M=100, maxmin: simplex pivot") as info:
            run_sweep(spec)
        assert type(info.value) is RuntimeError

    def test_singular_refactor_names_its_cell(self, monkeypatch, small_scenario, small_stats):
        # numpy's LinAlgError is a ValueError: it must reach the cell as a
        # RuntimeError. At SE 2.5 this drop's max-SNR cell is infeasible at
        # its basis, so the simplex solves the joint cell and refactors.
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(lp, "_REFRESH_EVERY", 1)
        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(RuntimeError, match=r"^drop 0, M=64, powermin: singular basis") as info:
            targets = QosTargets.uniform(2.5, small_scenario)
            harness.solve_drop(small_stats, small_scenario, (64,), "powermin", 0, targets, 0.01)
        assert type(info.value) is RuntimeError

    def test_level_zero_sweep_publishes_single_bs_service(self, tmp_path, small_scenario, monkeypatch):
        # 1e-12 W per BS puts every cell's SE upper bound below delta: no probe runs
        path = tmp_path / "scn.json"
        save_scenario(dataclasses.replace(small_scenario, pmax=np.full(4, 1e-12)), path)
        spec = SweepSpec((64, 128), "maxmin", num_drops=2, rng_seed=1, scenario_path=str(path))
        result, cells = recorded_sweep(monkeypatch, spec)
        assert all(opt.last_feasible is None for pairs in cells.values() for opt, _ in pairs)
        rows = table_rows(result)
        for m in spec.antenna_counts:
            assert rows[(m, "mean_maxmin_se_optimal")] == 0.0
            assert rows[(m, "joint_tx_fraction_optimal")] == 0.0
            assert rows[(m, "single_bs_fraction_optimal")] == 1.0

    def test_scenario_file_template(self, tmp_path, small_scenario):
        path = tmp_path / "scn.json"
        save_scenario(small_scenario, path)
        spec = SweepSpec(antenna_counts=(64,), num_drops=2, rng_seed=1, scenario_path=str(path))
        result = run_sweep(spec)
        assert result.config["base_scenario"]["num_users"] == small_scenario.num_users
        assert table_rows(result)[(64, "num_drops")] == 2


class TestEmit:
    def _result(self, tmp_path, **kw):
        spec = SweepSpec(antenna_counts=(60,), num_drops=2, rng_seed=4, num_users=6, **kw)
        return run_sweep(spec)

    def test_csv_byte_identical_reemission(self, tmp_path):
        result = self._result(tmp_path)
        p1 = emit_results(result, tmp_path / "a")[0]
        p2 = emit_results(result, tmp_path / "b")[0]
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_csv_header_once_and_sidecar(self, tmp_path):
        result = self._result(tmp_path)
        csv_path, json_path = emit_results(result, tmp_path / "out")[:2]
        lines = open(csv_path).read().strip().split("\n")
        assert lines[0] == "num_antennas,metric,value"
        assert sum(1 for ln in lines if ln.startswith("num_antennas")) == 1
        sidecar = json.load(open(json_path))
        assert sidecar["spec"]["rng_seed"] == 4
        assert sidecar["base_scenario"]["num_bs"] == 4

    def test_empty_metrics_omitted(self, tmp_path):
        # an unreachable target makes every drop infeasible: no power means
        spec = SweepSpec(antenna_counts=(10,), num_drops=2, rng_seed=4, num_users=6, target_se=50.0)
        result = run_sweep(spec)
        names = {name for _, name, _ in result.table}
        assert "mean_total_power_w_optimal" not in names
        assert "bad_service_prob_optimal" in names
        csv_path = emit_results(result, tmp_path / "empty")[0]
        assert "mean_total_power" not in open(csv_path).read()

    def test_traces_written_in_maxmin_mode(self, tmp_path, monkeypatch):
        spec = SweepSpec(
            antenna_counts=(60, 100), mode="maxmin", num_drops=2, rng_seed=4, num_users=6
        )
        result, cells = recorded_sweep(monkeypatch, spec, traces=True)
        trace_path = emit_results(result, tmp_path / "tr")[-1]
        assert trace_path.endswith("traces.jsonl")
        recs = [json.loads(line) for line in open(trace_path)]
        # drop-major, then antenna count
        assert [(r["drop"], r["num_antennas"]) for r in recs] == [(0, 60), (0, 100), (1, 60), (1, 100)]
        for rec in recs:
            assert rec.keys() == {"num_antennas", "drop", "optimal", "max_snr"}
            opt, snr = cells[rec["num_antennas"]][rec["drop"]]
            assert rec["optimal"] == [dataclasses.asdict(p) for p in opt.trace]
            assert rec["max_snr"] == [dataclasses.asdict(p) for p in snr.trace]

    @pytest.mark.parametrize("mode, traces", [("maxmin", False), ("powermin", True)])
    def test_no_traces_file_unless_a_traced_maxmin_sweep(self, mode, traces, tmp_path):
        spec = SweepSpec(antenna_counts=(60,), mode=mode, num_drops=1, rng_seed=4, num_users=6)
        result = run_sweep(spec, traces=traces)
        assert result.traces == []
        assert [os.path.basename(p) for p in emit_results(result, tmp_path)] == ["results.csv", "config.json"]
        assert sorted(os.listdir(tmp_path)) == ["config.json", "results.csv"]


class TestRunDrop:
    def test_powermin_record(self, small_scenario):
        rec = run_drop(small_scenario, mode="powermin", target_se=0.8)
        assert rec["optimal"]["status"] in ("optimal", "infeasible")
        if rec["optimal"]["status"] == "optimal":
            rho = np.array(rec["optimal"]["rho"])
            assert rho.shape == (4, 6)
            assert np.all(rho >= 0)

    def test_powermin_checks_feasible_set_inclusion(self, small_scenario, small_stats, monkeypatch):
        """A joint INFEASIBLE verdict where max-SNR is feasible fails the drop,
        injected where this cell's joint verdict is made: at the max-SNR
        basis, since the rule settles it there."""
        targets = QosTargets.uniform(0.5, small_scenario)
        max_snr = DropLp(small_stats, small_scenario, max_snr_mask(small_stats.beta))
        assert solve_power_min(max_snr, targets, 64).feasible
        real = harness.power_min_at_basis
        joint_verdicts = []

        def joint_infeasible(lp, targets, num_antennas):
            if not lp.mask.all():
                return real(lp, targets, num_antennas)
            joint_verdicts.append(num_antennas)
            return PowerMinResult(LpStatus.INFEASIBLE, lp.mask, targets, num_antennas)

        monkeypatch.setattr(harness, "power_min_at_basis", joint_infeasible)
        monkeypatch.setattr(harness, "solve_power_min", lambda *args: pytest.fail("the simplex ran"))
        with pytest.raises(HarnessInvariantError, match="max-SNR feasible"):
            run_drop(small_scenario, mode="powermin", target_se=0.5)
        assert joint_verdicts == [small_scenario.num_antennas]

    def test_maxmin_record(self, small_scenario):
        rec = run_drop(small_scenario, mode="maxmin", delta=0.2)
        for bisection in (rec, rec["max_snr"]):
            assert bisection["xi_upper"] - bisection["xi_lower"] <= 0.2
            assert bisection["iterations"] == len(bisection["trace"])
        assert rec["xi_lower"] >= rec["max_snr"]["xi_lower"] - 0.2

    def test_maxmin_level_zero_cell(self, small_scenario, small_stats):
        # 1e-12 W per BS puts the SE upper bound below delta: no probe runs
        scn = dataclasses.replace(small_scenario, pmax=np.full(4, 1e-12))
        [(opt, snr)] = harness.solve_drop(small_stats, scn, (64,), "maxmin", 0, None, 0.01)
        assert opt.iterations == snr.iterations == 0
        assert opt.last_feasible is None and snr.last_feasible is None
        assert opt.xi_lower == 0.0

    def test_unknown_mode(self, small_scenario):
        with pytest.raises(ValueError):
            run_drop(small_scenario, mode="other")

    @given(data=st.data(), target_se=st.sampled_from((0.25, 1.0, 2.0)))
    @settings(max_examples=150)
    def test_heterogeneous_drops_pass_in_both_modes(self, data, target_se):
        """Drops unlike every reference workload (see
        ``heterogeneous_scenario``) run in both modes, and every published
        allocation of the records meets the scenario's own caps and its SE
        target at the scenario's downlink noise. Each max-SNR power-min
        verdict is the fixed point's (``oracles.max_snr_power_min``) unless
        the cell is within 1e-6 of its boundary, and a feasible one has its
        objective to 1e-9 relative."""
        scn = heterogeneous_scenario(data.draw)
        stats = channel_stats(scn)
        published = []
        rec = run_drop(scn, "powermin", target_se)
        p, margin = max_snr_power_min(stats, scn, QosTargets.uniform(target_se, scn))
        snr = rec["max_snr"]
        if abs(margin) > 1e-6:
            assert (snr["status"] == "optimal") == (p is not None and margin > 0.0)
        if snr["status"] == "optimal" and p is not None:
            assert snr["objective_w"] == pytest.approx(p.sum(), rel=1e-9)
        published += [(cell, target_se) for cell in (rec["optimal"], snr)]
        rec = run_drop(scn, "maxmin")
        for bisection in (rec, rec["max_snr"]):
            assert bisection["xi_upper"] - bisection["xi_lower"] <= DEFAULT_DELTA
            published.append((bisection["solution"], bisection["xi_lower"]))
        for cell, xi in published:
            if cell["status"] == "optimal":
                alloc = PowerAllocation(np.array(cell["rho"]))
                assert (alloc.per_bs_power() <= scn.pmax + CAP_GATE_W).all()
                assert (se_mrt_all(stats, alloc, scn) >= xi - 1e-9).all()


def heterogeneous_scenario(draw) -> NetworkScenario:
    """A drop unlike every reference workload, which all have four 40 W BSs,
    equal pilot powers and one noise level: L 1-9 BSs and K 1-12 users at
    random in a 1 km square (users at least MIN_BS_USER_DIST_KM from every
    BS), distinct caps of 5-60 W, distinct pilot powers of 0.05-0.5 W, 0-12
    dB shadowing, uplink and downlink noise drawn apart from -101 to -91 dBm,
    and M in {8, 32, 100, 400}."""
    L, K = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bs, users = rng.uniform(0.0, 1.0, (L, 2)), rng.uniform(0.0, 1.0, (K, 2))
    while (near := pairwise_distances_km(bs, users).min(axis=0) < MIN_BS_USER_DIST_KM).any():
        users[near] = rng.uniform(0.0, 1.0, (int(near.sum()), 2))
    noise_ul, noise_dl = dbm_to_watt(np.array(draw(st.lists(st.floats(-101.0, -91.0), min_size=2, max_size=2, unique=True))))
    return NetworkScenario(
        num_bs=L,
        num_users=K,
        num_antennas=draw(st.sampled_from((8, 32, 100, 400))),
        bs_positions=bs,
        user_positions=users,
        coherence_length=DEFAULT_COHERENCE_LENGTH,
        pilot_length=K,
        pilot_power=draw(st.lists(st.floats(0.05, 0.5), min_size=K, max_size=K, unique=True)),
        noise_ul=float(noise_ul),
        noise_dl=float(noise_dl),
        pmax=draw(st.lists(st.floats(5.0, 60.0), min_size=L, max_size=L, unique=True)),
        shadow_std_db=draw(st.floats(0.0, 12.0)),
        rng_seed=draw(st.integers(0, 2**31 - 1)),
    )


class TestCli:
    def test_drop_command_json(self, capsys):
        code = cli.main(["drop", "--antennas", "64", "--users", "5", "--seed", "3"])
        out = capsys.readouterr().out
        record = json.loads(out)
        assert code in (0, 2)
        assert record["mode"] == "powermin"

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("powermin", "24113d87e75fb7a585f705c013cb015641595527eaa7f5b6b93474800defe8cd"),
            ("maxmin", "58c4369baf05fbe66e096fe026962c3d82618ac7e7fc93f00af8ac04570e6ade"),
        ],
        ids=["powermin", "maxmin"],
    )
    def test_drop_output_digest(self, mode, digest, capsys):
        argv = ["drop", "--seed", "1", "--users", "20", "--antennas", "100", "--mode", mode]
        assert cli.main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "mode, seed, antennas, code, digest",
        [
            ("powermin", 1, 50, 2, "2e556b15f2a9344a9bb96b5827d9a8a2ef5ba7ab72e6b9af69704bd68d0e5c37"),
            ("powermin", 2, 50, 0, "cef708cee328b55e80fd912110891d909090fcc624aa109ff617439394dd6d74"),
            ("powermin", 3, 50, 2, "2e556b15f2a9344a9bb96b5827d9a8a2ef5ba7ab72e6b9af69704bd68d0e5c37"),
            ("powermin", 1, 200, 0, "3d5dbf85a74744167db2f63254171d5e002396d515070d23bdfaf83264416e73"),
            ("powermin", 2, 200, 0, "3a40051bbf52fc54e07be17c2036bde40395b4eee1617fe29970b5fe304d01a5"),
            ("powermin", 3, 200, 0, "eb7d4ab4a415feb38a4e6433585ab77a8d1a2d4daba9b7a3c189d3c6ff2e30bd"),
            ("maxmin", 1, 50, 0, "ecdddd924a3f1479f2e077494345e70fed0882a9163a97d67a9fb38855a2bffe"),
            ("maxmin", 2, 50, 0, "c431f97b21e84ae0180ebc8038c45e0f64ce219c60c57ad12bc23824e19bbb8e"),
            ("maxmin", 3, 50, 0, "d529fe25a4523ae55afeb93ee492638ce40d5c03b877d1bcaa19c2206eacd111"),
        ],
    )
    def test_drop_json_bits_are_pinned(self, mode, seed, antennas, code, digest, capsys):
        """The drop record's rho, lambda and mu, which no results.csv holds,
        keep their bits: default-size drops at seeds 1-3 in both modes (at
        M = 50 two power-min drops are infeasible, so M = 200 as well)."""
        argv = ["drop", "--mode", mode, "--seed", str(seed), "--antennas", str(antennas)]
        assert cli.main(argv) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_powermin_sweep_writes_outputs(self, tmp_path, capsys):
        code = cli.main(
            [
                "powermin",
                "--drops", "2",
                "--antennas", "60,100",
                "--users", "6",
                "--seed", "1",
                "--out", str(tmp_path / "res"),
            ]
        )
        assert code == 0
        assert (tmp_path / "res" / "results.csv").exists()
        assert (tmp_path / "res" / "config.json").exists()

    def test_powermin_all_infeasible_exit_code(self, tmp_path):
        code = cli.main(
            [
                "powermin",
                "--drops", "1",
                "--antennas", "10",
                "--users", "6",
                "--target-se", "50.0",
                "--seed", "1",
                "--out", str(tmp_path / "bad"),
            ]
        )
        assert code == 2

    def test_one_feasible_antenna_count_exits_0(self, capsys):
        # exit code 2 reads the bad_service_prob_optimal rows: here M=5 is 1.0, M=400 is 0.0
        argv = ["powermin", "--drops", "2", "--antennas", "5,400", "--users", "6", "--seed", "1", "--target-se", "2"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "5,bad_service_prob_optimal,1.0\n" in out and "400,bad_service_prob_optimal,0.0\n" in out

    # Every argv-only exit-1 case: the argv with its own size flags, and the
    # exact error line; nothing is printed and a sweep's --out is not created.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["drop", *SMALL, "--target-se", "nan"], "SE targets must be positive"),
            (["powermin", "--drops", "1", *SMALL, "--target-se", "nan"], "SE targets must be positive"),
            (["drop", *SMALL, "--mode", "maxmin", "--delta", "nan"], "delta must be positive"),
            (["maxmin", "--drops", "1", *SMALL, "--delta", "nan"], "delta must be positive"),
            (["drop", *SMALL, "--target-se", "inf"], "SE targets must be finite"),
            (["powermin", "--drops", "1", *SMALL, "--target-se", "inf"], "SE targets must be finite"),
            (["drop", *SMALL, "--target-se", "0"], "SE targets must be positive"),
            (["powermin", "--drops", "1", *SMALL, "--target-se", "0"], "SE targets must be positive"),
            (["drop", *SMALL, "--target-se", "-1"], "SE targets must be positive"),
            (["powermin", "--drops", "1", *SMALL, "--target-se", "-1"], "SE targets must be positive"),
            (["drop", *SMALL, "--mode", "maxmin", "--delta", "inf"], "delta must be finite"),
            (["maxmin", "--drops", "1", *SMALL, "--delta", "inf"], "delta must be finite"),
            # drop checks the flag of the mode it is not running too
            (["drop", *SMALL, "--mode", "maxmin", "--target-se", "-3"], "SE targets must be positive"),
            (["drop", *SMALL, "--mode", "maxmin", "--target-se", "inf"], "SE targets must be finite"),
            (["drop", *SMALL, "--delta", "nan"], "delta must be positive"),
            (["drop", *SMALL, "--delta", "inf"], "delta must be finite"),
            # a bisection finer than the LP's feasibility tolerance overshoots the caps
            (["drop", *SMALL, "--mode", "maxmin", "--delta", "1e-16"], "delta must be at least 1e-09 bit/symbol, got 1e-16"),
            (["maxmin", "--drops", "1", *SMALL, "--delta", "1e-10"], "delta must be at least 1e-09 bit/symbol, got 1e-10"),
            (["validate", "--scenarios", "1", "--tol", "inf"], "rel_tol must be positive and finite, got inf"),
            (["validate", "--scenarios", "1", "--tol", "nan"], "rel_tol must be positive and finite, got nan"),
            (["validate", "--scenarios", "1", "--tol", "0"], "rel_tol must be positive and finite, got 0.0"),
            (["validate", "--scenarios", "1", "--tol", "-1"], "rel_tol must be positive and finite, got -1.0"),
            (["powermin", "--drops", "1", "--antennas", ""], "--antennas must list at least one count"),
            (["maxmin", "--drops", "1", "--antennas", ""], "--antennas must list at least one count"),
            (["drop", "--antennas", ""], "--antennas must list at least one count"),
            (["powermin", "--drops", "1", "--antennas", "50,0"], "antenna_counts must all be >= 1, got (50, 0)"),
            (["drop", "--antennas", "0"], "num_antennas must be >= 1, got 0"),
            (["drop", "--antennas", "-2", "--users", "3"], "num_antennas must be >= 1, got -2"),
            (["maxmin", "--drops", "3", "--antennas", "50,100,50"], "antenna_counts must not repeat a count, got (50, 100, 50)"),
            (["drop", "--antennas", "50,100", "--users", "5"], "drop solves one antenna count, got --antennas 50,100"),
            (["powermin", "--users", "0"], f"{USERS_RANGE}, got 0"),
            (["maxmin", "--users", "0"], f"{USERS_RANGE}, got 0"),
            (["drop", "--users", "0"], f"{USERS_RANGE}, got 0"),
            # K users take K pilot symbols, so 200 leave no data symbols
            (["powermin", "--users", "200", "--drops", "1"], f"{USERS_RANGE}, got 200"),
            (["maxmin", "--users", "200", "--drops", "1"], f"{USERS_RANGE}, got 200"),
            (["drop", "--users", "201"], f"{USERS_RANGE}, got 201"),
            (["powermin", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["maxmin", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["validate", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["drop", "--seed", "-1"], "--seed must be >= 0, got -1"),
            # the traces would go nowhere
            (["maxmin", "--drops", "1", *SMALL, "--trace"], "--trace needs --out, the directory traces.jsonl is written to"),
        ],
        ids=[
            "drop-target",
            "powermin-target",
            "drop-delta",
            "maxmin-delta",
            "drop-target-inf",
            "powermin-target-inf",
            "drop-target-zero",
            "powermin-target-zero",
            "drop-target-negative",
            "powermin-target-negative",
            "drop-delta-inf",
            "maxmin-delta-inf",
            "drop-maxmin-target-negative",
            "drop-maxmin-target-inf",
            "drop-powermin-delta",
            "drop-powermin-delta-inf",
            "drop-delta-below-floor",
            "maxmin-delta-below-floor",
            "validate-tol-inf",
            "validate-tol-nan",
            "validate-tol-zero",
            "validate-tol-negative",
            "powermin-antennas-empty",
            "maxmin-antennas-empty",
            "drop-antennas-empty",
            "powermin-antennas-zero",
            "drop-antennas-zero",
            "drop-antennas-negative",
            "maxmin-antennas-repeated",
            "drop-antennas-several",
            "powermin-users-zero",
            "maxmin-users-zero",
            "drop-users-zero",
            "powermin-users-200",
            "maxmin-users-200",
            "drop-users-201",
            "powermin-seed-negative",
            "maxmin-seed-negative",
            "validate-seed-negative",
            "drop-seed-negative",
            "maxmin-trace-without-out",
        ],
    )
    def test_nan_input_exits_1(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        # the --trace row is the one sweep left without --out
        extra = [] if "--trace" in argv else out_flag(argv[0], out)
        assert cli.main([*argv, *extra]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_delta_at_the_floor_keeps_the_caps(self, capsys):
        # at delta 1e-16 this drop's bisection ended 1e-9 W over a cap
        assert cli.main(["drop", "--mode", "maxmin", "--delta", "1e-9", "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["xi_upper"] > 0.0

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("pmax", [float("nan"), 40.0, 40.0, 40.0], "pmax must be finite"),
            ("noise_dl", float("nan"), "noise_dl must be finite"),
            ("noise_ul", float("inf"), "noise_ul must be finite"),
            ("num_bs", None, "scenario JSON field 'num_bs': expected an integer, got None"),
            ("num_bs", 4.7, "scenario JSON field 'num_bs': expected an integer, got 4.7"),
        ],
        ids=["nan-pmax", "nan-noise", "inf-noise", "null-count", "fractional-count"],
    )
    @pytest.mark.parametrize("mode", ["powermin", "maxmin"])
    def test_bad_scenario_field_exits_1(self, field, value, message, mode, tmp_path, small_scenario, capsys):
        record = scenario_to_json_dict(small_scenario)
        record[field] = value
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(record))
        assert cli.main(["drop", "--scenario", str(path), "--mode", mode]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_zero_bs_scenario_file_names_the_count(self, tmp_path, small_scenario, capsys):
        record = scenario_to_json_dict(small_scenario)
        record.update(num_bs=0, pmax=40.0)  # a scalar pmax fits any BS count
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(record))
        assert cli.main(["drop", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == "error: num_bs must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "text, kind", [("42", "int"), ("null", "NoneType"), ("[1, 2]", "list")], ids=["int", "null", "list"]
    )
    def test_scenario_top_level_not_an_object_exits_1(self, text, kind, tmp_path, capsys):
        path = tmp_path / "scn.json"
        path.write_text(text)
        assert cli.main(["drop", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == f"error: scenario JSON must be an object, got {kind}\n"

    def test_bs_rectangle_inside_the_exclusion_exits_1(self, tmp_path, small_scenario, capsys):
        # every point of a 5 m x 5 m BS rectangle lies within 10 m of a BS
        tiny = dataclasses.replace(
            small_scenario,
            num_bs=2,
            bs_positions=np.array([[0.0, 0.0], [0.005, 0.005]]),
            pmax=np.full(2, 40.0),
        )
        path = tmp_path / "tiny.json"
        save_scenario(tiny, path)
        assert cli.main(["powermin", "--scenario", str(path), "--drops", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "10 m BS exclusion" in err

    def test_maxmin_with_trace(self, tmp_path):
        code = cli.main(
            [
                "maxmin",
                "--drops", "1",
                "--antennas", "60",
                "--users", "6",
                "--seed", "1",
                "--trace",
                "--out", str(tmp_path / "mm"),
            ]
        )
        assert code == 0
        assert (tmp_path / "mm" / "traces.jsonl").exists()

    def test_validate_quick(self, capsys):
        code = cli.main(
            ["validate", "--scenarios", "2", "--samples", "20000", "--seed", "0", "--tol", "0.05"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_validate_reports_its_cost_on_stderr(self, capsys):
        cli.main(["validate", "--scenarios", "1", "--samples", "1000", "--seed", "0", "--tol", "1"])
        err = capsys.readouterr().err
        assert err.startswith("validate: 1 scenarios x 1000 samples in ") and err.endswith(" s\n")

    def test_validate_failure_exits_1(self, capsys):
        argv = ["validate", "--scenarios", "1", "--samples", "1000", "--tol", "1e-12"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().out.splitlines()[-1].startswith("FAIL: 1 scenarios")

    def test_validate_without_scenarios_fails(self, capsys):
        assert cli.main(["validate", "--scenarios", "0"]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "at least one scenario" in captured.err

    def test_scenario_file_and_error_paths(self, tmp_path, small_scenario, capsys):
        path = tmp_path / "scn.json"
        save_scenario(small_scenario, path)
        code = cli.main(["drop", "--scenario", str(path), "--seed", "1"])
        assert code in (0, 2)
        capsys.readouterr()
        code = cli.main(["drop", "--scenario", str(tmp_path / "missing.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_users_with_scenario_file_rejected(self, tmp_path, small_scenario, capsys):
        path = tmp_path / "scn.json"
        save_scenario(small_scenario, path)
        for command in ("powermin", "drop"):
            out = tmp_path / command
            argv = [command, "--scenario", str(path), "--users", "10", *out_flag(command, out)]
            assert cli.main(argv) == 1
            assert "--users" in capsys.readouterr().err
            assert not out.exists()

    def test_drop_takes_no_out_flag(self, tmp_path, capsys):
        # drop prints its record; only the sweeps write files
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["drop", "--out", str(tmp_path / "drop")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "drop").exists()

    def test_drop_seed_replaces_scenario_file_seed(self, tmp_path, small_scenario, capsys):
        path = tmp_path / "scn.json"
        save_scenario(small_scenario, path)

        def drop_record(*seed_args):
            cli.main(["drop", "--scenario", str(path), *seed_args])
            return capsys.readouterr().out

        assert drop_record("--seed", "1") != drop_record("--seed", "2")
        assert drop_record() == drop_record("--seed", str(small_scenario.rng_seed))

    def test_parser_defaults_are_the_library_defaults(self, tmp_path, monkeypatch):
        parse = cli.build_parser().parse_args
        for command in ("powermin", "maxmin", "drop"):
            args = parse([command])
            assert (args.target_se, args.delta) == (DEFAULT_TARGET_SE, DEFAULT_DELTA)
        for command in ("powermin", "maxmin"):
            assert parse([command]).drops == SweepSpec.num_drops
        args = parse(["validate"])
        params = inspect.signature(harness.validate_closed_form).parameters
        names = ("num_scenarios", "num_samples", "rng_seed", "rel_tol")
        assert (args.scenarios, args.samples, args.seed, args.tol) == tuple(
            params[name].default for name in names
        )
        assert args.samples == McConfig.num_samples
        # the trend script hands its defaults to both sweeps
        sweeps = []
        monkeypatch.setattr(cli, "main", lambda argv: sweeps.append(argv) or cli.EXIT_OK)
        assert run_reproduce_trends(["--out", str(tmp_path)]) == cli.EXIT_OK
        assert [argv[0] for argv in sweeps] == ["powermin", "maxmin"]
        for argv in sweeps:
            assert argv[argv.index("--antennas") + 1] == cli.DEFAULT_ANTENNAS
        assert float(sweeps[0][sweeps[0].index("--target-se") + 1]) == DEFAULT_TARGET_SE

    def test_reproduce_trends_runs_both_sweeps(self, tmp_path, capsys):
        out = tmp_path / "trends"
        # the CLI's --antennas parser skips the empty token
        argv = ["--drops", "2", "--antennas", "50,,60", "--target-se", "0.5", "--out", str(out)]
        assert run_reproduce_trends(argv) == 0
        # --target-se only sets the powermin sweep; maxmin records the default
        for mode, target_se in (("powermin", 0.5), ("maxmin", DEFAULT_TARGET_SE)):
            spec = json.loads((out / mode / "config.json").read_text())["spec"]
            assert spec["antenna_counts"] == [50, 60] and spec["num_drops"] == 2
            assert spec["target_se"] == target_se
            csv = (out / mode / "results.csv").read_text()
            assert csv.startswith("num_antennas,metric,value\n")


def out_flag(command, out) -> list:
    """``--out`` for a sweep; ``drop`` and ``validate`` print and take no ``--out``."""
    return ["--out", str(out)] if command in ("powermin", "maxmin") else []


def run_reproduce_trends(argv) -> int:
    """``main`` of scripts/reproduce_trends.py on ``argv``."""
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "reproduce_trends.py")
    return runpy.run_path(script)["main"](argv)


REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")


@pytest.mark.parametrize("sweep", ["powermin-sweep", "maxmin-sweep"])
def test_sweep_outputs_match_reference_digests(sweep, tmp_path, capsys):
    """The benchmark's reference sweeps, run through the CLI, reproduce the
    sha256 of every output file recorded in perfbench/reference.json."""
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh)[sweep]
    mode = sweep.split("-")[0]
    argv = [mode, "--drops", str(ref["drops"]), "--antennas", "50,100,150,200"]
    argv += ["--seed", str(ref["seed"]), "--out", str(tmp_path)]
    argv += ["--target-se", "1.0"] if mode == "powermin" else ["--trace"]
    assert cli.main(argv) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ref["sha256"]
    }
    assert digests == ref["sha256"]


@pytest.mark.parametrize(
    "mode, seed, digests",
    [
        ("powermin", 1, {
            "results.csv": "360465d9f78bbcfd02d4a0a3cc765e344f17dad31d12e8ecd402cedf6bc0e087",
            "config.json": "da46b8eb69f3f8235a6e70e94cdfd0dc4f6470b48634a97eb1062f9f95265062",
        }),
        ("powermin", 2, {
            "results.csv": "00dadbde3a55d384d20bf59a713d33b9724da3aacf0171227c2fc5f42a6ffb9a",
            "config.json": "f75ec9791875db2d7df593caafb5ba00ea76548b46c570965717154e75444ffb",
        }),
        ("powermin", 3, {
            "results.csv": "545ff37c6d736c3dcd16e8b88cbc7fb26f0389a968be77e41985581c3556d29b",
            "config.json": "294b0eb91023f82a2da2fdbb93ba42f4cfcfac5cea8c5eb265f89c00a11c8128",
        }),
        ("maxmin", 1, {
            "results.csv": "80178ab12d78529c7cc916a98dd02cc470969ccc055ebb2134f1a47d624ce868",
            "config.json": "dc1db6b617efd16af9b9f3bea15906002d134773994eb75751aafd0a9193202a",
            "traces.jsonl": "d7360a3c04de535188f5948985c7167ae06e1d6f2f52d2672c4703c20e21d461",
        }),
        ("maxmin", 2, {
            "results.csv": "996b097f664367e2ad9a7c5ce659d1e89584ff96c0352e1ff9f110322122047e",
            "config.json": "d7fb933184d4624965d3a4e038728c01bc6187de57e0ce6d36facad9cb4e99aa",
            "traces.jsonl": "cab44bb700fa376c470a889bd7b0e30b4c2d958c16b7690fa3924ef4b88c58f4",
        }),
        ("maxmin", 3, {
            "results.csv": "712b8e7b91cd398fa85f84432ac98ccc6d307ddd80647da4c8ae262dbe22a6f3",
            "config.json": "2b6283ef6443eb2516509bab0c7460a86d6763bb043c133eedf217a92db02b65",
            "traces.jsonl": "cae56e1d7429f06738650f4b7613402aef81e2227a2ef5efdc8d17ab040ec254",
        }),
    ],
)
def test_sweep_output_bytes_are_pinned(mode, seed, digests, tmp_path):
    """Every output file of a 10-drop sweep at seeds 1-3, both modes with
    maxmin traced, keeps its sha256."""
    argv = [mode, "--drops", "10", "--antennas", "50,100,150,200", "--seed", str(seed), "--out", str(tmp_path)]
    argv += ["--trace"] if mode == "maxmin" else []
    assert cli.main(argv) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(digests)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests} == digests
