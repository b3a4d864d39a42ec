#!/usr/bin/env python3
"""Tabulate the pinching constants for a battery of speeds.

For each (n, m, beta) the sampling oracles bound the speed's gradient from
below and its Hessian from above over the pinching cone, the balance between
them fixes the preserved pinching threshold epsilon0, and the slice constant
turns it into the scale-invariant ratio bound C*.  Linear speeds have no
Hessian term; they are reported as degenerate with the floor threshold.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from horoflow import AmbientCurvature, FlowParams, solve_pinching_constants
from horoflow.cli import exit_status
from horoflow.curvalg import DEFAULT_SAMPLES

log = logging.getLogger("constants_tables")

DEFAULT_BATTERY = ((2, 1, 1.0), (2, 2, 1.0), (3, 1, 1.0), (3, 2, 1.0),
                   (3, 3, 1.0 / 3.0), (3, 1, 2.0), (4, 2, 1.0))


def parse_triple(text: str) -> tuple[int, int, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected n,m,beta")
    return int(parts[0]), int(parts[1]), float(parts[2])


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triple", action="append", type=parse_triple,
                        metavar="N,M,BETA", help="add a speed (repeatable); "
                        "default battery covers n=2..4")
    parser.add_argument("--kappa", type=float, default=-1.0)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH",
                        help="also dump the rows as a JSON array")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    battery = tuple(args.triple) if args.triple else DEFAULT_BATTERY
    ac = AmbientCurvature(kappa=args.kappa)
    rows = []
    print(f"{'n':>3} {'m':>3} {'beta':>7} {'m*beta':>7} {'epsilon0':>12} "
          f"{'C*':>12} {'1/n^n':>12} {'evals':>5} degenerate")
    for n, m, beta in battery:
        params = FlowParams(n=n, m=m, beta=beta, ac=ac)
        constants = solve_pinching_constants(params, n_samples=args.samples,
                                             seed=args.seed)
        rows.append({"n": n, "m": m, "beta": beta, **constants.account()})
        print(f"{n:>3} {m:>3} {beta:>7.4f} {m * beta:>7.4f} "
              f"{constants.epsilon0:>12.8f} {constants.c_star:>12.8f} "
              f"{1.0 / n**n:>12.8f} {constants.balance_evaluations:>5} "
              f"{constants.degenerate}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
        log.info("wrote %d rows to %s", len(rows), args.json)
    return 0


def main(argv=None) -> int:
    """Exit code of the script; a failure is reported on stderr as `horoflow` reports it."""
    return exit_status(_main, argv)


if __name__ == "__main__":
    sys.exit(main())
