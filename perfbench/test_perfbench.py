"""Tests of the benchmark's own machinery.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from mimopower import harness  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert layers.tail_percentile(list(range(19))) == (None, None, 19)
    assert layers.tail_percentile(list(range(20)))[::2] == (50.0, 20)
    assert layers.tail_percentile(list(range(99)))[0] == 50.0
    assert layers.tail_percentile(list(range(100)))[0] == 90.0
    p, value, n = layers.tail_percentile(list(range(1000)))
    assert (p, n) == (99.0, 1000)
    assert value == pytest.approx(np.percentile(np.arange(1000), 99.0))
    assert layers.tail_percentile(list(range(10_000)))[0] == 99.9


def test_unresolvable_percentiles_read_zero():
    out = layers._distribution("x", [1.0] * 50)
    assert out == {"x_n": 50, "x_tail_pct": 50.0, "x_tail": 1.0, "x_p50": 1.0, "x_p90": 0.0}


def test_speed_scale_is_reference_over_median_kernel_time():
    times = iter([0.1, 0.3, 0.2, 0.9, 0.2, 0.2])
    probe = speed.SpeedProbe(speed.Kernel(lambda: next(times), 0.1))
    probe.sample()
    assert probe.scale() == pytest.approx(0.5)


def test_self_time_subtracts_direct_children_and_notes():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrapper("inner", lambda: None, note=lambda args, kwargs, result: "noted")
    mid = rec.wrapper("mid", lambda: inner())
    outer = rec.wrapper("outer", lambda: mid())
    outer()
    # ticks: outer 0..7, mid 1..6, inner 2..3, its note 4..5 (a child of mid)
    assert [s[0] for s in rec.spans] == ["outer", "mid", "inner", spans.NOTE_SPAN]
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 1]
    assert rec.spans[2][5] == "noted"
    assert spans.self_times(rec.spans) == [2.0, 3.0, 1.0, 1.0]


def test_patched_replaces_every_alias_and_restores_them():
    import mimopower
    from mimopower import lp, power_assoc, se

    solve, from_se = lp.solve, se.QosTargets.__dict__["from_se"]
    seen = []

    def make(name, fn):
        seen.append(name)
        return fn if name.startswith("se.") else "marker"

    targets = [("lp.solve", "mimopower.lp", "solve"), ("se.from_se", "mimopower.se", "QosTargets.from_se")]
    with spans.patched(targets, make):
        assert lp.solve == power_assoc.lp_solve == mimopower.lp_solve == "marker"
        assert se.QosTargets.__dict__["from_se"] is not from_se
    assert lp.solve is solve and power_assoc.lp_solve is solve and mimopower.lp_solve is solve
    assert se.QosTargets.__dict__["from_se"] is from_se
    assert seen == ["lp.solve", "se.from_se"]


def _raise_invariant(name, fn):
    def broken(*args, **kwargs):
        raise harness.HarnessInvariantError("injected")

    return broken


def test_invariant_error_fails_every_cell_of_its_pass(tmp_path):
    sweep = dataclasses.replace(workloads.POWERMIN, drops=2, antennas=(100,))
    target = [("harness.check", "mimopower.harness", "check_solution_invariants")]
    with spans.patched(target, _raise_invariant):
        bad = sweep.run_pass(17, str(tmp_path))
    good = sweep.run_pass(17, str(tmp_path))
    assert (bad.ops, bad.failed, good.ops, good.failed) == (2, 2, 2, 0)
    assert "HarnessInvariantError" in bad.problems[0]
    assert workloads.tally([bad, good]) == (4, 2)


def test_digest_check_rejects_a_one_byte_change(tmp_path):
    path = tmp_path / "results.csv"
    path.write_bytes(b"num_antennas,metric,value\n50,num_drops,50\n")
    expected = {"results.csv": workloads.sha256_file(path)}
    first = workloads.PassResult(1.0, 200, 200, digests=dict(expected))
    workloads.check_pass(workloads.POWERMIN, first, None, seed=1)
    assert first.failed == 0

    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    changed = workloads.PassResult(1.0, 200, 200, digests={"results.csv": workloads.sha256_file(path)})
    assert workloads.digest_mismatches(changed.digests, expected) == ["results.csv"]
    workloads.check_pass(workloads.POWERMIN, changed, first, seed=1)
    assert changed.failed == 200 and "differ" in changed.problems[0]

    # At the reference seed the stored digests must match as well.
    stale = workloads.PassResult(1.0, 200, 200, digests=dict(expected))
    workloads.check_pass(workloads.POWERMIN, stale, None, seed=17)
    assert stale.failed == 200 and "reference.json" in stale.problems[0]


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    sweep = dataclasses.replace(workloads.MAXMIN, drops=1, antennas=(50,))
    rec = spans.Recorder()
    rec.pass_id = 0
    with spans.patched(layers.TARGETS, lambda name, fn: rec.wrapper(name, fn, layers.NOTES.get(name))):
        result = sweep.run_pass(17, str(tmp_path))
    assert result.failed == 0
    metrics, calls, problems = layers.layer_metrics(rec.spans, [0])
    assert problems == [] and workloads.coverage_problems(sweep, calls) == []
    assert calls["lp"] == metrics["lp.solves"] > 0 and calls["mc_oracle"] == 0
    assert set(metrics) | {"trace.overhead_frac"} == set(layers.PER_LAYER)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == layers.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"work_per_s", "setup_s", "peak_rss_mb"}
