"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a source checkout, the directory above this file
that holds ``BENCHMARK.json`` and ``src/``::

    python3 perfbench/run.py --workload paper-run --seed 7 --seconds 25 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is their
median), then repeats the timed operation for ``--seconds`` with tracing
off and prints the end-to-end metrics.  ``--trace 1`` sets up once,
repeats the untraced operation for the same time to get the median that
``obs.trace_overhead`` divides by, runs the operation once traced, and
prints the per-layer metrics; its spans are written to
``.perfbench_work/traces/<workload>-seed<seed>.jsonl``.

Every output is checked; a failed check or an operation that raised is a
failed operation.  The last line of stdout is the result object; the
line before it is the environment fingerprint.  The exit code is 0 when
every check passed, 1 when one failed, and 2 when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback
from collections.abc import Callable
from pathlib import Path

from measure import Outcome, PeakMemory, cpu_turn, environment, median, repeat
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The seed used when none is given, and a seed kept out of tuning for
#: verifying a claimed gain.
DEFAULT_SEED = 7
HELDOUT_SEED = 1009

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-run", "collect-fanout", "serve-burst"),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(
    args: argparse.Namespace,
    work: Path,
    mutate: Callable[[Path], None] | None = None,
    scale: float | None = None,
) -> dict[str, object]:
    """Run one workload and return the result object.

    ``mutate`` and ``scale`` are for the self-tests: a corruption applied
    to each output before it is checked, and a tiny input size in place
    of the workload's own.
    """
    from workloads import WORKLOADS

    kind = WORKLOADS[args.workload]
    setups = 1 if args.trace else SETUPS
    setup_s: list[float] = []
    fingerprints: set[str] = set()
    for index in range(setups):
        if index:
            shutil.rmtree(work)
        work.mkdir(parents=True)
        workload = kind(args.seed, work, scale=scale, mutate=mutate)
        with cpu_turn(index, rotate=True):
            start = time.monotonic()
            workload.setup()
            setup_s.append(time.monotonic() - start)
        fingerprints.add(workload.fingerprint)
    with PeakMemory() as memory:
        sample = repeat(workload.run_once, args.seconds, rotate=workload.workers == 1)
    if len(fingerprints) != 1:
        print("check failed: set-up is not deterministic for one seed", file=sys.stderr)
        sample.errors += 1

    run_s = sample.median_seconds() if sample.outcomes else float("nan")
    if args.trace:
        # A layer the workload does not run spent no time and counted
        # nothing in it, so it prints as 0.
        units = metric_units("per_layer")
        values = dict.fromkeys(units, 0.0)
        rec = SpanRecorder()
        try:
            outcome, layers = workload.traced(rec, run_s)
        except Exception:  # a failed operation, reported and counted
            traceback.print_exc(file=sys.stderr)
            sample.errors += 1
            outcome, layers = Outcome(float("nan")), {}
        else:
            sample.outcomes.append(outcome)
            layers["obs.trace_overhead"] = outcome.seconds / run_s
        unknown = set(layers) - set(units)
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values.update(layers)
        rec.build()
        rec.write(
            work.parent / "traces" / f"{args.workload}-seed{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed, "wall_s": outcome.seconds,
             "env": environment(ROOT)},
        )
    else:
        units = metric_units("end_to_end")
        values = {
            "setup_s": median(setup_s),
            "peak_rss_mb": memory.mb,
            "run_s": run_s,
            "items_per_s": workload.items / run_s,
            "goodput": sample.goodput,
        }
    return {
        "correct": sample.correct,
        "attempted": sample.attempted,
        "failed": sample.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(
            f"error: {ROOT} has no src/repro or no BENCHMARK.json; run from "
            "the root of a source checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{time.monotonic_ns()}"
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env: " + json.dumps(environment(ROOT), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
