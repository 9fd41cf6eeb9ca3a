#!/usr/bin/env python3
"""Regenerate the antenna-sweep trend studies on the reference deployment.

Runs two Monte-Carlo sweeps over shared user drops:
  * fixed-target power minimization (mean transmit power, bad-service
    probability, optimal vs. max-SNR association), and
  * max-min SE with every user weighted equally (achievable level,
    joint-transmission fraction).

Each sweep is ``mimopower powermin`` / ``mimopower maxmin``; outputs land in
<out>/powermin/ and <out>/maxmin/ as results.csv plus a config.json sidecar,
and rerunning with the same seed reproduces them byte for byte.
"""

import argparse
import sys
import time

from mimopower import cli
from mimopower.harness import DEFAULT_TARGET_SE


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--drops", type=int, default=500)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--antennas", default=cli.DEFAULT_ANTENNAS)
    ap.add_argument("--target-se", type=float, default=DEFAULT_TARGET_SE, help="powermin SE target (bit/symbol)")
    ap.add_argument("--out", default="results")
    args = ap.parse_args(argv)

    codes = []
    for mode in ("powermin", "maxmin"):
        sweep = [mode, "--drops", str(args.drops), "--seed", str(args.seed)]
        sweep += ["--antennas", args.antennas, "--out", f"{args.out}/{mode}"]
        if mode == "powermin":
            sweep += ["--target-se", repr(args.target_se)]
        t0 = time.time()
        codes.append(cli.main(sweep))
        print(f"{mode}: {args.drops} drops in {time.time() - t0:.1f} s")
    return next((code for code in codes if code), cli.EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
