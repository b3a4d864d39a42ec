#!/usr/bin/env python3
"""Run a volume-preserving flow scenario and print the monitored verdicts.

The default is the standard desk-scale scenario: a unit sphere in hyperbolic
space perturbed by a single low harmonic, evolved under the linear mean
curvature speed until the shape is numerically round.  Variants switch to the
nonlinear speeds used throughout the test suite.  Outputs (diagnostics CSV,
snapshots, final state, summary JSON) land in --output.
"""

from __future__ import annotations

import argparse
import logging
import sys

from horoflow import (
    AmbientCurvature,
    FlowParams,
    RunConfig,
    analyze_diagnostics,
    make_grid,
    perturbed_sphere_state,
    run,
)
from horoflow.cli import exit_status

log = logging.getLogger("run_standard_scenario")

VARIANTS = {
    "n2m1": dict(n=2, m=1, beta=1.0, t_end=16.0),
    "n3m2": dict(n=3, m=2, beta=1.0, t_end=6.0),
    "n2m2": dict(n=2, m=2, beta=1.0, t_end=5.0),
}


def build_config(args) -> RunConfig:
    preset = VARIANTS[args.variant]
    params = FlowParams(
        n=preset["n"], m=preset["m"], beta=preset["beta"],
        ac=AmbientCurvature(kappa=args.kappa),
    )
    grid = make_grid("axisymmetric", params.n, args.n_theta)
    return RunConfig(
        params=params,
        initial=perturbed_sphere_state(grid, args.radius, args.mode, args.amplitude),
        t_end=args.t_end if args.t_end is not None else preset["t_end"],
        snapshot_interval=args.snapshot_interval,
        output_dir=args.output,
        constants_samples=args.samples,
        constants_seed=args.seed,
    )


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variant", choices=sorted(VARIANTS), default="n2m1")
    parser.add_argument("--n-theta", type=int, default=256)
    parser.add_argument("--kappa", type=float, default=-1.0)
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--mode", type=int, default=2, help="perturbation harmonic")
    parser.add_argument("--amplitude", type=float, default=0.05)
    parser.add_argument("--t-end", type=float, default=None,
                        help="override the variant's default horizon")
    parser.add_argument("--snapshot-interval", type=float, default=1.0)
    parser.add_argument("--samples", type=int, default=20_000,
                        help="sample count for the pinching constants")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="out/standard")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    config = build_config(args)
    log.info(
        "running %s at N=%d to t=%.3g (output: %s)",
        args.variant, args.n_theta, config.t_end, args.output,
    )
    result = run(config)
    summary = result.summary
    verdict = analyze_diagnostics(summary["params"], result.recorder.arrays())

    print(f"status            {summary['status']} after {summary['n_steps']} steps")
    print(f"volume drift      {verdict['volume_drift']:.3e}")
    print(f"Qtilde monotone   {verdict['monotone_Qtilde']}")
    print(f"decay rate        {verdict['decay_rate']:.4f} (r^2 {verdict['r_squared']:.6f})")
    print(f"bounds respected  {verdict['bounds_respected']}")
    print(f"outputs           {args.output}")
    ok = (
        summary["converged"]
        and verdict["monotone_Qtilde"]
        and verdict["bounds_respected"]
        and verdict["volume_drift"] < 1e-4
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    """Exit code of the script; a failure is reported on stderr as `horoflow` reports it."""
    return exit_status(_main, argv)


if __name__ == "__main__":
    sys.exit(main())
