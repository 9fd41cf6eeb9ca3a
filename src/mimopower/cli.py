"""Command line interface.

Subcommands:
  powermin  -- fixed-target power minimization sweep over drops and antennas
  maxmin    -- max-min SE sweep (joint vs. max-SNR association)
  validate  -- Monte-Carlo oracle vs. closed-form SINR cross-check
  drop      -- solve a single drop and print the full JSON result

Exit codes: 0 success, 2 when nothing was feasible, 1 on errors or a
failed validation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .channel import load_scenario
from .harness import (
    DEFAULT_NUM_USERS,
    DEFAULT_TARGET_SE,
    SweepSpec,
    default_scenario,
    emit_results,
    results_csv,
    run_drop,
    run_sweep,
    validate_closed_form,
)
from .maxmin import DEFAULT_DELTA

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
DEFAULT_ANTENNAS = "50,100,150,200"


def _add_common(p: argparse.ArgumentParser, antennas_help: str) -> None:
    p.add_argument("--scenario", metavar="FILE", help="scenario JSON to use as the drop template")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--antennas", default=None, help=antennas_help)
    p.add_argument("--users", type=int, help=f"users per drop (default {DEFAULT_NUM_USERS})")


def _add_sweep(p: argparse.ArgumentParser) -> None:
    _add_common(p, f"comma-separated antenna counts (default {DEFAULT_ANTENNAS})")
    p.add_argument("--out", metavar="DIR", help="output directory for results.csv + config.json")
    p.add_argument("--drops", type=int, default=SweepSpec.num_drops)


def _parse_antennas(text: str | None) -> tuple:
    text = DEFAULT_ANTENNAS if text is None else text
    try:
        counts = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as e:
        raise ValueError(f"bad --antennas list {text!r}") from e
    if not counts:
        raise ValueError("--antennas must list at least one count")
    return counts


def _num_users(args) -> int:
    """--users, or the default; a --scenario file sets its own user count."""
    if args.users is None:
        return DEFAULT_NUM_USERS
    if args.scenario:
        raise ValueError("--users cannot be combined with --scenario, whose file sets the users")
    return args.users


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mimopower", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each sweep takes the other mode's settings at their defaults.
    p = sub.add_parser("powermin", help="fixed-target power minimization sweep")
    _add_sweep(p)
    p.add_argument("--target-se", type=float, default=DEFAULT_TARGET_SE, help="per-user SE target (bit/symbol)")
    p.set_defaults(run=_cmd_sweep, delta=DEFAULT_DELTA, trace=False)

    p = sub.add_parser("maxmin", help="max-min SE sweep")
    _add_sweep(p)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="bisection accuracy (bit/symbol)")
    p.add_argument("--trace", action="store_true", help="also write per-iteration traces.jsonl (needs --out)")
    p.set_defaults(run=_cmd_sweep, target_se=DEFAULT_TARGET_SE)

    p = sub.add_parser("validate", help="Monte-Carlo oracle vs. closed form")
    p.add_argument("--scenarios", type=int, default=20)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.01, help="relative SINR tolerance")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("drop", help="solve one drop, print full JSON result")
    _add_common(p, f"antenna count (default {DEFAULT_ANTENNAS.split(',')[0]}, or the scenario file's)")
    # Unset, --scenario keeps the file's rng_seed and the default drop uses 0.
    p.set_defaults(run=_cmd_drop, seed=None)
    p.add_argument("--mode", choices=("powermin", "maxmin"), default="powermin")
    p.add_argument("--target-se", type=float, default=DEFAULT_TARGET_SE)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    return parser


def _cmd_sweep(args) -> int:
    if args.trace and not args.out:
        raise ValueError("--trace needs --out, the directory traces.jsonl is written to")
    spec = SweepSpec(
        antenna_counts=_parse_antennas(args.antennas),
        mode=args.command,
        target_se=args.target_se,
        num_drops=args.drops,
        rng_seed=args.seed,
        scenario_path=args.scenario,
        num_users=_num_users(args),
        delta=args.delta,
    )
    result = run_sweep(spec, traces=args.trace)
    if args.out:
        for path in emit_results(result, args.out):
            print(f"wrote {path}")
    else:
        sys.stdout.write(results_csv(result.table))
    if {v for _, name, v in result.table if name == "bad_service_prob_optimal"} == {1.0}:
        print("warning: every drop was infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_validate(args) -> int:
    start = time.perf_counter()
    records = validate_closed_form(args.scenarios, args.samples, args.seed, args.tol)
    print(
        f"validate: {len(records)} scenarios x {args.samples} samples "
        f"in {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    for rec in records:
        print(
            "scenario {scenario:2d}: L={num_bs} K={num_users} M={num_antennas:3d} "
            "closed={closed_form_sinr:.6g} mc={monte_carlo_sinr:.6g} "
            "rel_err={rel_error:.3e} [{flag}]".format(
                flag="PASS" if rec["passed"] else "FAIL", **rec
            )
        )
    ok = all(r["passed"] for r in records)
    worst = max(r["rel_error"] for r in records)
    print(f"{'PASS' if ok else 'FAIL'}: {len(records)} scenarios, worst rel_err {worst:.3e} (tol {args.tol})")
    return EXIT_OK if ok else EXIT_ERROR


def _cmd_drop(args) -> int:
    num_users = _num_users(args)
    counts = _parse_antennas(args.antennas)
    if args.antennas is not None and len(counts) > 1:
        raise ValueError(f"drop solves one antenna count, got --antennas {args.antennas}")
    if args.scenario:
        scenario = load_scenario(args.scenario)
        if args.antennas is not None:
            scenario = dataclasses.replace(scenario, num_antennas=counts[0])
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, rng_seed=args.seed)
    else:
        scenario = default_scenario(counts[0], num_users, rng_seed=args.seed or 0)
    record = run_drop(scenario, mode=args.mode, target_se=args.target_se, delta=args.delta)
    print(json.dumps(record, indent=2, sort_keys=True, allow_nan=False))
    if args.mode == "powermin" and record["optimal"]["status"] != "optimal":
        return EXIT_INFEASIBLE
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.run(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
