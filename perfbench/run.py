"""The repository benchmark: one command, three workloads, checked results.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_reads --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that alternates traced and untraced slices of the
window and reports the per-layer metrics (and the tracing overhead).
Every metric is printed on its own line as ``name value unit``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every result check passed.

The benchmark and the server process it starts share one CPU.  The
program is measured in its default configuration (optimizer on, batch
executor, MVCC with row-level conflicts, WAL fsync on every commit), so the
benchmark refuses to run when any ``REPRO_*`` mode variable is set.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import types
from pathlib import Path

from common import (
    WORK_DIR, inherited_modes, latency_metrics, statement_median, use_source_tree,
)

WORKLOADS = ("paper_reads", "point_ops", "policy_churn")

#: End-to-end metrics every workload reports (the gated set).
END_TO_END = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "ops_per_s": "op/s",
    "rss_mb": "MB",
}
#: End-to-end metrics only some workloads have; printed, not gated.
WORKLOAD_ONLY = {
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "policy_p50_ms": "ms",
    "error_rate": "ratio",
    "disk_mb": "MB",
    "recovery_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny worlds, for the self-test only")
    parser.add_argument("--inject-bug", default=None,
                        help="serve paper_reads through a deliberately broken rewriter")
    return parser.parse_args(argv)


def all_reads(outcome: dict) -> list[float]:
    return [value for values in outcome["reads"].values() for value in values]


def end_to_end(outcome: dict) -> dict:
    metrics = {"setup_s": statistics.median(outcome["setups"])}
    read_p50 = statement_median(outcome["reads"])
    if read_p50 is not None:
        metrics["read_p50_ms"] = read_p50 * 1000.0
    metrics.update(latency_metrics("read", all_reads(outcome), labels=("p95",)))
    metrics.update(latency_metrics("write", outcome["writes"]))
    metrics.update(latency_metrics("policy", outcome["policy"], labels=("p50",)))
    metrics["ops_per_s"] = outcome["completed"] / outcome["window_s"]
    metrics["error_rate"] = outcome["failed"] / max(1, outcome["attempted"])
    metrics["rss_mb"] = outcome["rss_mb"]
    for name in ("disk_mb", "recovery_s"):
        if name in outcome:
            metrics[name] = outcome[name]
    return metrics


def main(argv=None) -> int:
    options = parse_args(argv)
    modes = inherited_modes()
    if modes:
        print(f"perfbench: refusing to run with {', '.join(modes)} set; "
              "the benchmark measures the default configuration", file=sys.stderr)
        return 2
    use_source_tree()
    # One CPU for this process and the server it starts.  Left to the
    # scheduler, the client and the server share a CPU in some runs and
    # not in others, and paper_reads' read_p50_ms differed by up to 12 %
    # between three runs; pinned, by 1 %.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    module = importlib.import_module(options.workload)

    WORK_DIR.mkdir(exist_ok=True)
    traces = WORK_DIR / "traces" / f"{options.workload}-seed{options.seed}"
    traces.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{options.workload}-", dir=WORK_DIR)
    paths = types.SimpleNamespace(scratch=Path(scratch), traces=traces)
    try:
        outcome = module.run(options, paths)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for message in outcome.get("messages", []):
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {options.workload} seed {options.seed}: "
          f"{outcome['attempted']} operations, {outcome['failed']} failed, "
          f"{len(all_reads(outcome))} reads, {len(outcome['writes'])} writes, "
          f"{len(outcome['policy'])} policy updates, window {outcome['window_s']:.2f} s")
    if options.trace:
        from probes import LAYER_UNITS, layer_metrics

        values = layer_metrics(outcome["layers"], outcome["tally"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        printed = metrics
    else:
        values = end_to_end(outcome)
        units = {**END_TO_END, **WORKLOAD_ONLY}
        printed = {name: {"value": values[name], "unit": units[name]}
                   for name in units if name in values}
        metrics = {name: printed[name] for name in END_TO_END if name in printed}
    for name, entry in printed.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    correct = outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
