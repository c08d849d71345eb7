#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload paper_scan --seed 1 --seconds 15 --trace 0

Workloads: ``paper_scan``, ``adhoc_plan``, ``oltp_served`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics
with no instrumentation.  ``--trace 1`` reports the per-layer metrics:
it runs part of the stream untraced, then runs the same work again with
layer spans installed, and reports the tracing overhead between the two.
Every run checks its outputs.

Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("paper_scan", "adhoc_plan", "oltp_served")

#: End-to-end metrics and their units, as BENCHMARK.json declares them.
END_TO_END = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "stmts_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
}


def end_to_end(result: dict) -> dict:
    reads, writes = result["read_ms"], result["write_ms"]
    attempted = result["attempted"]
    return {
        "setup_s": statistics.median(result["setup_times"]),
        "read_p50_ms": statistics.median(reads),
        "read_p90_ms": common.percentile(reads, 90),
        "write_p50_ms": statistics.median(writes),
        "write_p90_ms": common.percentile(writes, 90),
        "stmts_per_s": result["read_rate"],
        "ok_frac": (attempted - result["failed"]) / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 count: int | None = None) -> dict:
    """Run one workload; the result carries samples, checks and layers."""
    if workload == "oltp_served":
        import oltp

        return oltp.run(seed, seconds, trace, count)
    import embedded

    result = embedded.run(workload, seed, seconds, trace, count)
    tally = result.pop("tally")
    result.update(
        read_ms=tally.read_ms,
        write_ms=tally.write_ms,
        failed=tally.failed,
        attempted=tally.attempted,
        errors=tally.errors,
    )
    return result


def _report(workload: str, seed: int, result: dict, host: dict) -> None:
    """The human-readable part of the output (everything but the last line)."""
    print(f"workload {workload}, seed {seed}")
    print(
        f"  reads {len(result['read_ms'])}, writes {len(result['write_ms'])}, "
        f"failed {result['failed']}, setups {[round(t, 3) for t in result['setup_times']]}"
    )
    for problem in result["problems"][:10]:
        print(f"  WRONG: {problem}")
    for error in result["errors"][:5]:
        print(f"  error: {error}")
    spans = result.get("spans")
    if spans:
        print(f"  {'span':28} {'calls':>9} {'total ms':>11} {'self ms':>11}")
        for name, entry in sorted(spans["spans"].items()):
            print(
                f"  {name:28} {entry['calls']:>9} "
                f"{entry['total_s'] * 1000:>11.1f} {entry['self_s'] * 1000:>11.1f}"
            )
    record = {"host": host, "sizing": result["sizing"],
              "samples": {"reads": len(result["read_ms"]),
                          "writes": len(result["write_ms"])}}
    print(json.dumps(record, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_source()
    from tracing import LAYER_METRICS

    host = common.host_record()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(args.workload, args.seed, result, host)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": LAYER_METRICS[name]}
            for name, value in result["layers"].items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value in end_to_end(result).items()
        }
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
