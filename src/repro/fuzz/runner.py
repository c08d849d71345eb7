"""The fuzz driver: seeded cases per mode, check, shrink, save.

Every mode draws its cases from its own RNG streams, keyed by the seed
and the case index, so any failure replays with the same arguments:

* ``read`` and ``chaos`` — ``{seed}:world:{i // 5}`` (five queries per
  world) and ``{seed}:query:{i}``; chaos adds a fault plan seeded
  ``seed + i`` whose faulted run rotates across the backends;
* ``dml`` — ``{seed}:dml-world:{i}`` and ``{seed}:dml-batch:{i}``;
* ``crash`` — ``{seed}:crash-world:{i}``, ``{seed}:crash-batch:{i}``
  and ``{seed}:crash-plan:{i}``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.fuzz.case import Case, check
from repro.fuzz.chaos import BACKENDS, FAULT_RATE, FaultSpec
from repro.fuzz.corpus import save_repro
from repro.fuzz.crash import random_plan
from repro.fuzz.dml import apply_batch, random_batch
from repro.fuzz.oracle import Mismatch, Outcome
from repro.fuzz.querygen import random_query
from repro.fuzz.shrink import shrink_case
from repro.fuzz.worldgen import random_world

#: Queries drawn from each world before a fresh one is generated
#: (building a store is the expensive part of a query case).
QUERIES_PER_WORLD = 5

#: The fuzz modes: ``read`` is the default, the rest are CLI flags.
MODES = ("read", "dml", "crash", "chaos")


@dataclass
class FuzzStats:
    """Aggregated outcome of one fuzz run, in any mode.

    ``tallies`` sums the checks' mode-specific counts (``skipped``,
    ``matched``, ``typed_failures``, ``degraded``, ``crashed``,
    ``replayed_commits``).
    """

    iterations: int = 0
    pairs_run: int = 0
    tallies: Counter = field(default_factory=Counter)
    mismatches: list[Mismatch] = field(default_factory=list)
    repro_paths: list[Path] = field(default_factory=list)

    @property
    def skipped(self) -> int:
        """Cases with nothing to compare (rejected query, empty batch)."""
        return self.tallies["skipped"]

    @property
    def ok(self) -> bool:
        """True when every check of every case agreed."""
        return not self.mismatches

    def record(self, outcome: Outcome) -> None:
        """Fold one check's outcome into the totals."""
        self.iterations += 1
        self.pairs_run += outcome.pairs_run
        self.tallies.update(outcome.tallies)
        self.mismatches.extend(outcome.mismatches)


def _draw(
    mode: str, seed: int, i: int, **reference: bool
) -> tuple[Case | None, Counter]:
    """Case ``i`` of ``mode``'s seeded stream, under the reference flags.

    Also returns what drawing tallied: a crash case counts the commits
    of its fault-free dry run as ``replayed_commits``, and a crash
    workload that commits nothing is ``skipped`` (case ``None``).
    """
    if mode in ("read", "chaos"):
        world = random_world(
            random.Random(f"{seed}:world:{i // QUERIES_PER_WORLD}")
        )
        query = random_query(random.Random(f"{seed}:query:{i}"), world)
        fault = None
        if mode == "chaos":
            fault = FaultSpec(seed + i, FAULT_RATE, BACKENDS[i % 3])
        return Case(world, query=query, fault=fault, **reference), Counter()
    world = random_world(random.Random(f"{seed}:{mode}-world:{i}"))
    batch = random_batch(random.Random(f"{seed}:{mode}-batch:{i}"), world)
    case = Case(world, batch=batch, **reference)
    if mode == "dml" or not batch.ops:
        return case, Counter()
    # Fault-free dry run: how many commits does this batch perform?  The
    # crash ordinal is drawn inside that count, so crashes land inside
    # the workload rather than past its end.
    total = apply_batch(case.build(), world, batch)
    if total == 0:
        return None, Counter(skipped=1)
    plan, checkpoint_every = random_plan(
        random.Random(f"{seed}:crash-plan:{i}"), total
    )
    case = replace(case, crash=plan, checkpoint_every=checkpoint_every)
    return case, Counter(replayed_commits=total)


def fuzz(
    seed: int = 0,
    iterations: int = 100,
    mode: str = "read",
    no_rewrites: bool = False,
    feedback: bool = False,
    shrink: bool = True,
    corpus_dir: str | Path | None = None,
    log=None,
) -> FuzzStats:
    """Run ``iterations`` seeded cases of ``mode``; returns the totals.

    ``no_rewrites`` flips every reference database to the rewrite-ablation
    config and ``feedback`` to feedback-on, in every mode (the read
    oracle already compares each against the default per case).  Each
    failing case is shrunk (unless ``shrink`` is off) and, with
    ``corpus_dir`` set, saved there as a repro.
    """
    if mode not in MODES:
        raise ValueError(f"unknown fuzz mode {mode!r}; expected {MODES}")
    stats = FuzzStats()
    db_key = db = None
    for i in range(iterations):
        case, drawn = _draw(
            mode, seed, i, no_rewrites=no_rewrites, feedback=feedback
        )
        if case is None:
            stats.record(Outcome(tallies=drawn))
            continue
        if case.query is not None and db_key != i // QUERIES_PER_WORLD:
            db_key, db = i // QUERIES_PER_WORLD, case.build()
        outcome = check(case, db)
        outcome.tallies.update(drawn)
        stats.record(outcome)
        if outcome.mismatches:
            if log is not None:
                for mismatch in outcome.mismatches:
                    log(f"MISMATCH {mismatch}")
            if shrink:
                case = shrink_case(case, lambda c: bool(check(c).mismatches))
                if log is not None:
                    log(f"shrunk to: {case.subject}")
            if corpus_dir is not None:
                note = "; ".join(
                    f"{m.kind}: {m.detail.splitlines()[-1] if m.detail else ''}"
                    for m in outcome.mismatches[:3]
                )
                path = save_repro(corpus_dir, case, note)
                stats.repro_paths.append(path)
                if log is not None:
                    log(f"repro written: {path}")
            # A world that produced a failure may keep producing the same
            # one; the next query case starts from a fresh database.
            db_key = None
        elif log is not None and (i + 1) % 25 == 0:
            log(f"{i + 1}/{iterations} cases: {summary(stats)}")
    return stats


def summary(stats: FuzzStats) -> str:
    """One line: pairs, skipped, every other tally, mismatches."""
    tallies = "".join(
        f", {count} {name.replace('_', ' ')}"
        for name, count in sorted(stats.tallies.items())
        if name != "skipped"
    )
    return (
        f"{stats.pairs_run} pairs ({stats.skipped} skipped){tallies}, "
        f"{len(stats.mismatches)} mismatch(es)"
    )


__all__ = ["FuzzStats", "MODES", "QUERIES_PER_WORLD", "fuzz", "summary"]
