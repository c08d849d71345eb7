"""CLI for the fuzzer.

::

    PYTHONPATH=src python -m repro.fuzz --seed 0 --iterations 200
    PYTHONPATH=src python -m repro.fuzz --chaos --feedback --seed 0
    PYTHONPATH=src python -m repro.fuzz --seed 7 --iterations 1000 \\
        --write-corpus --corpus tests/corpus

One of ``--dml``, ``--chaos`` or ``--crash`` picks the mode (default:
read-only differential pairs); ``--no-rewrites`` and ``--feedback`` set
the reference config in every mode.  Exit status 0 when every check
agreed on every case, 1 when any mismatch was found (repros written
when requested).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.fuzz.runner import fuzz, summary


def main(argv: list[str] | None = None) -> int:
    """Parse CLI arguments, run the fuzz loop, print a summary."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential plan-equivalence fuzzer.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument(
        "--corpus",
        default="tests/corpus",
        help="directory for failing repros (with --write-corpus)",
    )
    parser.add_argument(
        "--write-corpus",
        action="store_true",
        help="shrink failures and save them under --corpus",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip minimization of failing cases",
    )
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument(
        "--dml",
        dest="mode",
        action="store_const",
        const="dml",
        help="run the DML-interleaved oracle: the same seeded write "
        "batch under every engine configuration must produce "
        "byte-identical transcripts (reads, counts, typed errors)",
    )
    modes.add_argument(
        "--crash",
        dest="mode",
        action="store_const",
        const="crash",
        help="run the crash-recovery oracle: a seeded DML workload is "
        "killed at a seeded crash point, recovered from disk, and must "
        "byte-match a clean engine that executed exactly the "
        "acknowledged-commit prefix",
    )
    modes.add_argument(
        "--chaos",
        dest="mode",
        action="store_const",
        const="chaos",
        help="run the oracle under seeded fault injection: every case "
        "must match the fault-free run or fail with a typed governor "
        "error",
    )
    parser.set_defaults(mode="read")
    parser.add_argument(
        "--no-rewrites",
        action="store_true",
        help="run the whole sweep with the pre-memo rewrite stage "
        "disabled on the reference database (rewrite-ablation config)",
    )
    parser.add_argument(
        "--feedback",
        action="store_true",
        help="run the whole sweep with cardinality feedback enabled on "
        "the reference database (fed estimates and mid-query adaptive "
        "replans in every pair)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    stats = fuzz(
        seed=args.seed,
        iterations=args.iterations,
        mode=args.mode,
        no_rewrites=args.no_rewrites,
        feedback=args.feedback,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus if args.write_corpus else None,
        log=None if args.quiet else print,
    )
    elapsed = time.perf_counter() - started
    print(
        f"{stats.iterations} {args.mode} cases: {summary(stats)} "
        f"in {elapsed:.1f}s"
    )
    for mismatch in stats.mismatches:
        print(f"  {mismatch}")
    for path in stats.repro_paths:
        print(f"  repro: {path}")
    return 0 if stats.ok else 1


if __name__ == "__main__":
    sys.exit(main())
