#!/usr/bin/env python3
"""horoflow benchmark: time to a converged sphere and to the pinching constants.

Usage (from the repository root):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S --trace 0|1

Every timed interval is bracketed by a fixed reference loop and expressed
at the reference host speed (see host_scaled below and the README), so that
the host's slow and fast phases cancel out of setup_s and wall_s.

Workloads (see benchmark/README.md for why each was chosen):

    axisym_converge     n3m2 perturbed sphere, axisymmetric, run to convergence
    full2d_horizon      n2m2 non-axisymmetric perturbation on a full2d grid, fixed horizon
    pinching_constants  solve_pinching_constants for n2m2 and n3m2 at 1e5 samples

A run repeats whole rounds of its workload's operations for about
--seconds seconds, checks every output with benchmark/checks.py, and prints
as its last stdout line one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(setup_s, wall_s, peak_rss_mb); with --trace 1 the run alternates untraced
and traced rounds and reports the per-layer metrics plus the tracing
overhead.  Everything the run writes goes to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, NamedTuple

import tracing

# benchmark/checks.py (numpy, scipy) is imported inside the check methods,
# after horoflow, so that the import time in setup_s includes numpy and scipy.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CONFIGS = os.path.join(HERE, "configs")

WORKLOADS = ("axisym_converge", "full2d_horizon", "pinching_constants")

# Each per-layer metric: (name, unit, aggregate, span or counter name).
PER_LAYER = [
    ("cli.parse_config.self_s", "s", "self_s", "cli.parse_config"),
    ("curvalg.solve_pinching_constants.busy_s", "s", "busy_s", "curvalg.solve_pinching_constants"),
    ("curvalg.speed.calls", "count", "calls", "curvalg.speed"),
    ("curvalg.speed.us_per_call", "us", "us_per_call", "curvalg.speed"),
    ("curvalg.speed_gradient.calls", "count", "calls", "curvalg.speed_gradient"),
    ("curvalg.speed_gradient.us_per_call", "us", "us_per_call", "curvalg.speed_gradient"),
    ("curvalg.gradient_floor.busy_s", "s", "busy_s", "curvalg.gradient_floor"),
    ("curvalg.hessian_ceiling.busy_s", "s", "busy_s", "curvalg.hessian_ceiling"),
    ("curvalg.balance_function.calls", "count", "calls", "curvalg.balance_function"),
    ("curvalg.ConeSampler.points.busy_s", "s", "busy_s", "curvalg.ConeSampler.points"),
    ("parallel.map_rows.calls", "count", "calls", "parallel.map_rows"),
    ("parallel.map_rows.rows", "count", "counter", "parallel.map_rows.rows"),
    ("parallel.map_rows.busy_s", "s", "busy_s", "parallel.map_rows"),
    ("graphgeom.geometry_from_graph.calls", "count", "calls", "graphgeom.geometry_from_graph"),
    ("graphgeom.geometry_from_graph.us_per_call", "us", "us_per_call", "graphgeom.geometry_from_graph"),
    ("graphgeom.GraphState.calls", "count", "calls", "graphgeom.GraphState"),
    ("graphgeom.save_snapshot.busy_s", "s", "busy_s", "graphgeom.save_snapshot"),
    ("graphgeom.snapshot_bytes", "B", "counter", "graphgeom.snapshot_bytes"),
    ("flow.stable_dt.us_per_call", "us", "us_per_call", "flow.stable_dt"),
    ("flow.run.self_s", "s", "self_s", "flow.run"),
    ("monitors.record.calls", "count", "calls", "monitors.record"),
    ("monitors.record.us_per_call", "us", "us_per_call", "monitors.record"),
    ("monitors.write_csv.busy_s", "s", "busy_s", "monitors.write_csv"),
    ("monitors.diagnostics_bytes", "B", "counter", "monitors.diagnostics_bytes"),
    ("oracle.support_offset.busy_s", "s", "busy_s", "oracle.support_offset"),
]
# Per-layer metrics taken from the untraced rounds of a traced run.
UNTRACED_LAYER = [("flow.steps_per_t", "steps/t"), ("flow.us_per_step", "us")]
OVERHEAD = ("trace.overhead_s", "s")

# The reference loop: numpy ufuncs, a row reduction and a sort on an
# 8192 x 3 block, the block size parallel.map_rows hands out.  It runs
# before and after every timed interval; REFERENCE_NOMINAL_S is its usual
# time on the reference machine (README), the speed every reported time is
# scaled to.  On that machine its time tracked the host's slow and fast
# phases more closely than a loop of calls on 64-element arrays, for the
# flow workloads as well as for the constants solve.
REFERENCE_ITERATIONS = 400
REFERENCE_NOMINAL_S = 0.150


def reference_seconds() -> float:
    """Time the fixed reference loop once; its time tracks the host's speed."""
    import numpy as np

    block = np.random.default_rng(0).random((8192, 3))
    start = time.perf_counter()
    for _ in range(REFERENCE_ITERATIONS):
        y = np.sinh(block) * np.cosh(block)
        norms = np.sqrt((y * y).sum(axis=1))
        norms.sort()
    return time.perf_counter() - start


def host_scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """An interval's wall time at the reference speed, from the loops that bracket it."""
    return seconds * REFERENCE_NOMINAL_S / (0.5 * (ref_before + ref_after))


IMPORT_SAMPLES = 3


def import_horoflow() -> dict:
    """Import the package from this checkout's src/; returns its modules by name."""
    if not os.path.isfile(os.path.join(SRC, "horoflow", "__init__.py")):
        raise SystemExit(f"benchmark: no horoflow sources under {SRC}")
    sys.path.insert(0, SRC)
    from horoflow import cli, curvalg, flow, graphgeom, hypergeom, monitors

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported horoflow from {cli.__file__}, not {SRC}")
    return {
        "cli": cli,
        "curvalg": curvalg,
        "flow": flow,
        "graphgeom": graphgeom,
        "hypergeom": hypergeom,
        "monitors": monitors,
    }


def import_seconds() -> float:
    """Median time of the horoflow import in fresh interpreters, at the reference speed.

    A process imports the package only once, so the import is timed in
    IMPORT_SAMPLES child interpreters, one after another, each bracketed by
    the reference loop.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "start = time.perf_counter()\n"
        "from horoflow import cli, curvalg, flow, graphgeom, hypergeom, monitors\n"
        "print(time.perf_counter() - start)\n"
    )
    samples = []
    ref_after = reference_seconds()
    for _ in range(IMPORT_SAMPLES):
        ref_before = ref_after
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        ref_after = reference_seconds()
        samples.append(host_scaled(float(child.stdout), ref_before, ref_after))
    return statistics.median(samples)


class Op(NamedTuple):
    """One timed operation: setup() is set-up time, work(ctx) is wall time.

    check(ctx, out) returns (failure messages, run summary dict).
    """

    setup: Callable
    work: Callable
    check: Callable


def clear_constants_cache(hf) -> None:
    """Forget constants solved by earlier repetitions, so each pays its own solve."""
    cache = getattr(hf["flow"], "_CONSTANTS_CACHE", None)
    if cache is not None:
        cache.clear()


def write_config(name: str, **values) -> str:
    with open(os.path.join(CONFIGS, name + ".conf")) as fh:
        text = fh.read().format(**values)
    path = os.path.join(OUT, name + ".conf")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def jittered_amplitude(seed: int) -> float:
    """Perturbation amplitude 0.05 +- 2%, drawn from the seed."""
    import numpy as np

    return 0.05 * (1.0 + 0.04 * (float(np.random.default_rng(seed).random()) - 0.5))


class ConfigRun:
    """A flow workload: parse the config file (set-up), then flow.run it (wall).

    An untraced round runs the parsed config REPEATS times, so that a run
    holds more wall samples than set-up samples.
    """

    REPEATS = 2

    def ops(self) -> list[Op]:
        return [Op(lambda: self.hf["cli"].parse_config(self.config_path), self.hf["flow"].run, self.check)]


class AxisymConverge(ConfigRun):
    """n3m2 on an axisymmetric grid to convergence, writing every output file."""

    def __init__(self, hf, seed: int):
        self.hf = hf
        self.out_dir = os.path.join(OUT, "axisym_converge")
        self.config_path = write_config(
            "axisym_converge", amplitude=repr(jittered_amplitude(seed)), seed=seed, output_dir=self.out_dir
        )
        self.previous_diagnostics = None

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        clear_constants_cache(self.hf)

    def check(self, config, result):
        import checks

        files = {}
        for name in ("summary.json", "diagnostics.csv", "snapshot_000000.csv", "final_state.csv"):
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                files[name] = fh.read()
        failures = checks.check_axisym_run(
            {k: v.decode() for k, v in files.items()}, config.params.n, config.params.ac.kappa
        )
        failures += checks.check_identical(
            self.previous_diagnostics, files["diagnostics.csv"], "diagnostics.csv"
        )
        self.previous_diagnostics = files["diagnostics.csv"]
        summary = json.loads(files["summary.json"])
        return failures, summary


class Full2dHorizon(ConfigRun):
    """n2m2 on a full2d grid with a non-axisymmetric perturbation, to a fixed time."""

    def __init__(self, hf, seed: int):
        self.hf = hf
        self.config_path = write_config(
            "full2d_horizon", amplitude=repr(jittered_amplitude(seed)), seed=seed
        )

    def prepare(self) -> None:
        clear_constants_cache(self.hf)

    def check(self, config, result):
        import checks

        cols = {
            name: [getattr(rec, name) for rec in result.recorder.records]
            for name in ("t", "Qtilde_min", "f_max", "lambda_tilde_min")
        }
        summary = result.summary
        failures = checks.check_horizon_run(
            summary["status"],
            summary["t_final"],
            config.t_end,
            cols,
            config.initial.r.shape,
            config.initial.r,
            result.final_state.r,
            config.params.ac.kappa,
        )
        return failures, summary


class PinchingConstants:
    """solve_pinching_constants for n2m2 and n3m2 at the default 1e5 samples."""

    REPEATS = 1
    SPEEDS = ((2, 2), (3, 2))
    SAMPLES = 100_000
    KAPPA = -1.0

    def __init__(self, hf, seed: int):
        self.hf = hf
        self.seed = seed

    def prepare(self) -> None:
        pass

    def ops(self) -> list[Op]:
        return [self._op(n, m) for n, m in self.SPEEDS]

    def _op(self, n: int, m: int) -> Op:
        curvalg = self.hf["curvalg"]
        hypergeom = self.hf["hypergeom"]

        def setup():
            # The same values `horoflow constants --n --m --beta --kappa` builds.
            return curvalg.FlowParams(n=n, m=m, beta=1.0, ac=hypergeom.AmbientCurvature(kappa=self.KAPPA))

        def work(params):
            return curvalg.solve_pinching_constants(params, n_samples=self.SAMPLES, seed=self.seed)

        def check(params, pc):
            import checks

            failures = checks.check_constants(
                n, m, pc.epsilon0, pc.c_star, pc.degenerate,
                pc.eps_grid, pc.grad_floor_table, pc.hess_ceiling_table,
            )
            return failures, {}

        return Op(setup, work, check)


WORKLOAD_CLASSES = {
    "axisym_converge": AxisymConverge,
    "full2d_horizon": Full2dHorizon,
    "pinching_constants": PinchingConstants,
}


def run_round(workload, tracer=None, repeats: int = 1) -> dict:
    """Set up every operation of one round once and run its work `repeats` times.

    A round's setup_s sums the operations' set-up times; its i-th wall
    sample sums the operations' i-th work times, both at the reference host
    speed.  Returns those with the unscaled work time, the counts, check
    failures and summaries.
    """
    workload.prepare()
    if tracer is not None:
        tracer.reset()
    ops = workload.ops()
    setup_s = raw_work_s = 0.0
    wall_samples = [0.0] * repeats
    failed = 0
    failures: list[str] = []
    summaries = []
    for op in ops:
        try:
            ref_before = reference_seconds()
            t0 = time.perf_counter()
            ctx = op.setup()
            t1 = time.perf_counter()
            ref_after = reference_seconds()
        except Exception:
            traceback.print_exc()
            failed += repeats
            continue
        setup_s += host_scaled(t1 - t0, ref_before, ref_after)
        for i in range(repeats):
            try:
                ref_before = ref_after
                t2 = time.perf_counter()
                out = op.work(ctx)
                t3 = time.perf_counter()
                ref_after = reference_seconds()
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            wall_samples[i] += host_scaled(t3 - t2, ref_before, ref_after)
            raw_work_s += t3 - t2
            try:
                op_failures, summary = op.check(ctx, out)
            except Exception as exc:
                op_failures, summary = [f"output check raised {exc!r}"], {}
            failures += op_failures
            summaries.append(summary)
    return {
        "setup_s": setup_s,
        "wall_samples": wall_samples,
        "raw_work_s": raw_work_s,
        "attempted": len(ops) * repeats,
        "failed": failed,
        "failures": failures,
        "summaries": summaries,
    }


def layer_values(tracer) -> dict[str, float]:
    views = {
        "calls": tracer.calls,
        "busy_s": tracer.busy_s,
        "self_s": tracer.self_s,
        "us_per_call": tracer.us_per_call,
        "counter": lambda key: float(tracer.counters.get(key, 0)),
    }
    return {name: float(views[kind](key)) for name, _unit, kind, key in PER_LAYER}


def step_rates(round_result) -> dict[str, float]:
    """Accepted steps per unit flow time and wall microseconds per step of a flow round."""
    steps = sum(s.get("n_steps", 0) for s in round_result["summaries"])
    t_final = sum(s.get("t_final", 0.0) for s in round_result["summaries"])
    return {
        "flow.steps_per_t": steps / t_final if t_final > 0 else 0.0,
        "flow.us_per_step": 1e6 * round_result["raw_work_s"] / steps if steps else 0.0,
    }


def median_wall(rounds) -> float:
    return statistics.median(s for r in rounds for s in r["wall_samples"])


def measure(name: str, hf, import_s: float, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat rounds of a workload for about `seconds`; returns the result object."""
    workload = WORKLOAD_CLASSES[name](hf, seed)
    tracer = tracing.Tracer() if traced else None
    untraced, traced_rounds = [], []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        untraced.append(run_round(workload, repeats=workload.REPEATS))
        if tracer is not None:
            tracing.install(tracer, hf)
            try:
                traced_round = run_round(workload, tracer)
            finally:
                tracer.restore()
            traced_round["layers"] = layer_values(tracer)
            traced_rounds.append(traced_round)
            tracer.keep_spans = False
        now = time.perf_counter()
        # Start another round (or untraced/traced pair) only if it fits.
        if now - start + (now - unit_start) > seconds:
            break

    rounds = untraced + traced_rounds
    failures = [f for r in rounds for f in r["failures"]]
    for message in failures:
        print(f"CHECK FAILED [{name}]: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    print(
        f"{name}: {len(untraced)} untraced rounds, median unscaled wall "
        f"{statistics.median(r['raw_work_s'] for r in untraced) / workload.REPEATS:.4f} s",
        file=sys.stderr,
    )
    if tracer is None:
        result["metrics"] = {
            "setup_s": {"value": import_s + statistics.median(r["setup_s"] for r in rounds), "unit": "s"},
            "wall_s": {"value": median_wall(rounds), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        return result

    metrics = {}
    for metric, unit, _kind, _key in PER_LAYER:
        value = statistics.median(r["layers"][metric] for r in traced_rounds)
        metrics[metric] = {"value": value, "unit": unit}
    rates = [step_rates(r) for r in untraced]
    for metric, unit in UNTRACED_LAYER:
        metrics[metric] = {"value": statistics.median(r[metric] for r in rates), "unit": unit}
    overhead = median_wall(traced_rounds) - median_wall(untraced)
    metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    result["metrics"] = metrics
    tracer.write_spans(os.path.join(OUT, f"trace-{name}-seed{seed}.csv"))
    return result


def print_table(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<44s} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="horoflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hf = import_horoflow()
    reference_seconds()  # warm-up
    import_s = import_seconds()
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, hf, import_s, args.seed, args.seconds, bool(args.trace))
        print_table(name, results[name])
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    else:
        final = results[args.workload]
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
