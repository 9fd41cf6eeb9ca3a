"""Benchmark of mimopower: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload powermin-sweep --seed 17 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing:
``work_per_s`` (the median over passes of (drop, M) cells per second on the
sweeps, and of sampled channel entries per second on oracle-validate),
``setup_s``
(median time from a fresh interpreter to ``import mimopower.cli`` plus
``default_scenario(50)``) and ``peak_rss_mb`` (peak resident memory of this
process). Times and rates are scaled to a reference host speed, measured
by fixed kernels during the run (see speed.py). ``--trace 1`` alternates
untraced and traced passes and reports per-layer counts and self times,
with the tracing overhead. Both check every pass's outputs and print
``error_rate``; failed operations make the run exit with code 1.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans and a record of the run (machine, settings, metrics) go
to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_STARTS = 9  # measured cold starts per run, after one discarded start
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import mimopower.cli\n"
    "from mimopower.harness import default_scenario\n"
    "default_scenario(50)\n"
    "print('ready', flush=True)\n"
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(starts: int, probe) -> list:
    """Seconds from spawning a fresh interpreter to its 'ready' line.

    The host's speed is sampled after each start, so that set-up, like the
    passes, is scaled by the host's speed while it ran.
    """
    times = []
    for i in range(starts + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, SRC], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up interpreter failed (exit code {code})")
        probe.sample()
        if i:  # the first start also writes bytecode caches
            times.append(elapsed)
    return times


def _blas_threads():
    """Threads the bundled OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(seed: int) -> dict:
    """What the run ran on; BLAS threading is left as the process found it."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": None, "version": None}
    try:
        # The ceiling keeps git from reading repositories above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def run_passes(workload, seed, seconds, out_dir, probe, tracing=None):
    """Passes until ``seconds`` have elapsed; returns them and the traced ones.

    With ``tracing`` (pass index -> context manager) every second pass runs
    inside it, and the run has at least one untraced and one traced pass.
    """
    import workloads

    passes, traced = [], []
    start = time.perf_counter()
    while True:
        i = len(passes)
        if tracing is not None and i % 2 == 1:
            with tracing(i):
                result = workload.run_pass(seed, out_dir)
            traced.append(i)
        else:
            result = workload.run_pass(seed, out_dir)
        probe.sample()
        workloads.check_pass(workload, result, passes[0] if passes else None, seed)
        passes.append(result)
        if time.perf_counter() - start >= seconds and (tracing is None or traced):
            return passes, traced


def pass_seconds(span_list, passes, traced):
    """Median seconds of a traced and of an untraced pass.

    A traced pass's time leaves out its note spans: they are the benchmark's
    own bookkeeping (lp.verify, file sizes), not the cost of tracing.
    """
    from spans import NOTE_SPAN

    note_s = dict.fromkeys(traced, 0.0)
    for name, start, end, _, pass_id, _ in span_list:
        if name == NOTE_SPAN and pass_id in note_s:
            note_s[pass_id] += end - start
    traced_s = statistics.median(passes[i].seconds - note_s[i] for i in traced)
    untraced_s = statistics.median(p.seconds for i, p in enumerate(passes) if i not in note_s)
    return traced_s, untraced_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mimopower", "__init__.py")):
        print(f"error: no mimopower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "trace": args.trace, "machine": machine_record(args.seed)}
    print("machine: " + json.dumps(record["machine"], sort_keys=True))

    metrics, problems, lines = {}, [], []
    if not args.trace:
        setup_probe = speed.SpeedProbe(speed.SMALL)
        setup_raw = measure_setup(SETUP_STARTS, setup_probe)
        metrics["setup_s"] = (statistics.median(setup_raw) * setup_probe.scale(), "s")
        lines.append(
            f"setup_s: {metrics['setup_s'][0]:.4f} s at reference speed, "
            f"{statistics.median(setup_raw):.4f} s measured (median of {len(setup_raw)} starts)"
        )
    probe = speed.SpeedProbe(workload.speed_kernel)

    recorder = spans.Recorder()

    def tracing(pass_id):
        recorder.pass_id = pass_id
        return spans.patched(
            layers.TARGETS, lambda name, fn: recorder.wrapper(name, fn, layers.NOTES.get(name))
        )

    out_dir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        workload.warm_up(args.seed, out_dir)
        passes, traced = run_passes(
            workload, args.seed, args.seconds, out_dir, probe, tracing if args.trace else None
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted, failed = workloads.tally(passes)
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {msg}" for msg in p.problems]
    scale = probe.scale()
    raw_rate = statistics.median(p.work / p.seconds for p in passes)
    work_rate = raw_rate / scale
    lines.append(
        f"{workload.rate_name}: {work_rate:.6g} {workload.rate_unit} at reference speed, "
        f"{raw_rate:.6g} measured (median of {len(passes)} passes of {passes[0].work}; "
        f"speed kernel at {1 / scale:.3f} x its reference time)"
    )
    if passes[0].samples:
        samples_rate = statistics.median(p.samples / p.seconds for p in passes) / scale
        lines.append(f"mc_samples_per_s: {samples_rate:.6g} scenario-samples/s at reference speed")
    lines.append(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    lines.append("digests: " + json.dumps(passes[0].digests, sort_keys=True))

    if args.trace:
        layer, calls, layer_problems = layers.layer_metrics(recorder.spans, traced)
        problems += layer_problems + workloads.coverage_problems(workload, calls)
        traced_s, untraced_s = pass_seconds(recorder.spans, passes, traced)
        layer["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        lines.append(
            f"tracing overhead: {layer['trace.overhead_frac']:+.2%} (traced {traced_s:.4f} s "
            f"against untraced {untraced_s:.4f} s per pass, {len(traced)} traced passes)"
        )
        lines.append("calls per pass: " + json.dumps(calls, sort_keys=True))
        for key, value in layer.items():
            metrics[key] = (value, layers.PER_LAYER[key][0])
            label = " (computed)" if key in layers.COMPUTED else ""
            lines.append(f"{key}: {value:.6g} {metrics[key][1]}{label}")
        spans_path = os.path.join(OUT, f"spans-{tag}.jsonl")
        recorder.dump(spans_path)
        lines.append(f"spans: {len(recorder.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics["work_per_s"] = (work_rate, "1/s")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak, "MB")
        lines.append(f"peak_rss_mb: {peak:.1f} MB")

    for line in lines:
        print(line)
    for msg in problems:
        print(f"FAIL: {msg}")
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(
        result, problems=problems, pass_seconds=[p.seconds for p in passes], kernel_seconds=probe.kernel_times
    )
    with open(os.path.join(OUT, f"record-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
