"""Repository benchmark: one command, three workloads, checked outputs.

Run from the checkout root::

    python3 perfbench/run.py --workload cells --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is the separate traced run that prints the per-layer
metrics and writes its spans as a Chrome trace under ``.perfbench/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status is 0 on a clean
run, 1 when any output mismatched or any request or cell failed, and 2
when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

from common import (
    WORK,
    MissingProgram,
    adopt_orphans,
    emit,
    reap_descendants,
    use_program,
)

WORKLOADS = ("cells", "sweep", "serve")
#: the traced run's layer parts must sum to each lane's wall time within
#: this share; a larger residual means a layer escaped the spans
RESIDUAL_TOLERANCE = 0.05
BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def per_layer_names() -> list[tuple[str, str]]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(row["name"], row["unit"]) for row in spec["per_layer"]]


def measure(workload: str, seed: int, seconds: float) -> dict:
    if workload == "serve":
        from serve_workload import run_serve

        return run_serve(seed, seconds)
    from sim_workloads import run_cells, run_sweep

    runner = run_cells if workload == "cells" else run_sweep
    return runner(seed, seconds)


def trace(workload: str, seed: int, seconds: float) -> dict:
    """The traced run; every per-layer metric is reported, and a layer a
    workload never enters reads 0."""
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"trace_{workload}_s{seed}.json")
    if workload == "serve":
        from serve_workload import trace_serve

        result = trace_serve(seed, seconds, trace_out=out)
    else:
        from sim_workloads import trace_cells, trace_sweep

        runner = trace_cells if workload == "cells" else trace_sweep
        result = runner(seed, trace_out=out)
    print(f"  chrome trace: {out}")
    layers = result.pop("layers")
    result["metrics"] = {name: (float(layers.get(name, 0.0)), unit)
                         for name, unit in per_layer_names()}
    if layers["residual_frac"] > RESIDUAL_TOLERANCE:
        print(f"perfbench: residual_frac {layers['residual_frac']:.4f} "
              f"exceeds {RESIDUAL_TOLERANCE}", file=sys.stderr)
        result["identity_ok"] = False
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        result = trace(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    correct = result["failed"] == 0 and result.get("identity_ok", True)
    emit(correct, result["attempted"], result["failed"], result["metrics"])
    return 0 if correct else 1


def entry() -> None:
    """``main`` with every process it started ended and reaped on every
    way out; exits without interpreter teardown, whose finalizers could
    start a fresh resource tracker after the reaping."""
    adopt_orphans()
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    code = 1
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(
            exc.code is not None)
    except BaseException:  # noqa: BLE001 — report, then still reap
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        reap_descendants()
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
