"""Rivulet benchmark: the paper's latency and overhead plus host throughput.

Usage (from the repository root)::

    python3 perfbench/run.py --workload apps --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload fleet --trace 1  # per-layer ledger

Workloads: ``fleet`` (20 Fig. 1 homes x 1 day, no apps), ``apps`` (one
4-app home under Poisson push emissions), ``faults`` (the same plus a
seeded severe fault plan) and ``rt`` (the same home on localhost TCP,
driven open-loop at fixed rates).

``--trace 0`` measures the unmodified program and prints the end-to-end
table; ``--trace 1`` wraps every layer's public entry points in spans,
prints the per-layer ledger and writes the spans to ``.perfbench-out/``.
The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:,.0f}"
    return f"{value:.{max(0, 3 - int(math.floor(math.log10(magnitude))))}f}"


def _print_table(results, table) -> None:
    """The end-to-end table: one column per workload, value and sample count."""
    names = [r.workload for r in results]
    print(f"{'metric':<22}{'unit':<7}" + "".join(f"{n:>32}" for n in names))
    for metric, unit in table:
        cells = []
        for r in results:
            cell = r.table.get(metric)
            if cell is None:
                cells.append(f"{'n/a':>32}")
            else:
                label = f" {cell.label}" if cell.label else ""
                cells.append(f"{_fmt(cell.value) + label + f' (n={cell.n})':>32}")
        print(f"{metric:<22}{unit:<7}" + "".join(cells))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet", "apps", "faults", "rt", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no Rivulet sources at {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    from rivbench import bench, layers

    workloads = bench.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    metrics: dict[str, dict] = {}
    for workload in workloads:
        try:
            result = _measure(bench, layers, workload, args, metrics, len(workloads) > 1)
        except Exception:  # the program under test failed: report, do not mask
            traceback.print_exc()
            result = bench.Result(workload, args.seed, attempted=1, failed=1,
                                  problems=["the run raised (traceback on stderr)"])
        results.append(result)
    if not args.trace:
        _print_table(results, bench.TABLE)
    for r in results:
        for row in r.rows:
            print(f"[{r.workload}] {row}")
        for problem in r.problems:
            print(f"[{r.workload}] CHECK FAILED: {problem}")
    correct = all(r.correct for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _measure(bench, layers, workload: str, args, metrics: dict, prefixed: bool):
    """Run one workload; add its metrics (named ``workload.metric`` if prefixed)."""
    if args.trace:
        traced = bench.measure_traced(workload, args.seed, args.seconds)
        print(f"per-layer ledger, workload {workload} (seed {args.seed}):")
        for name, unit, _better, moves, on in layers.PER_LAYER:
            value = traced.metrics[name]
            print(f"  {name:<38}{_fmt(value):>14} {unit:<6} moves {moves} on {on}")
            metrics[f"{workload}.{name}" if prefixed else name] = {"value": value, "unit": unit}
        return traced.result
    result = bench.measure(workload, args.seed, args.seconds)
    for name, unit in bench.END_TO_END:
        metrics[f"{workload}.{name}" if prefixed else name] = {
            "value": result.table[name].value, "unit": unit}
    return result


if __name__ == "__main__":
    sys.exit(main())
