"""Chaos mode: the differential oracle under seeded fault injection.

A query case with a :class:`FaultSpec` runs its query twice on the same
database: once fault-free (the oracle) and once under a seeded
:class:`~repro.governor.FaultPlan` — transient read errors, latency
spikes, and occasionally a persistently corrupt index.  The governor's
contract is *fail typed or answer right*: the faulted run must either

* produce exactly the oracle's rows (retries and the degrade-to-scan
  replan are invisible to the result), or
* raise a typed :class:`~repro.errors.GovernorError`.

Anything else — a wrong answer, an untyped crash, or a leaked exchange
worker thread — is a chaos mismatch.  Hangs are covered by the CI
per-test timeout rather than an in-process watchdog.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass

from repro.errors import GovernorError, ReproError
from repro.fuzz.oracle import Mismatch, Outcome, _bag
from repro.governor.context import QueryContext
from repro.governor.faults import FaultPlan

#: Transient-fault probability of a chaos sweep (the acceptance bar is
#: zero wrong answers at 5%).
FAULT_RATE = 0.05

#: Backends the faulted run rotates through, one per case, so fault
#: unwind is exercised on the batch and compiled paths too (the oracle
#: side stays interpreted).
BACKENDS = ("interpreted", "vectorized", "compiled")


@dataclass(frozen=True)
class FaultSpec:
    """The fault plan of a chaos case: seed, rate, faulted-run backend."""

    seed: int
    rate: float
    backend: str


def _worker_threads() -> set[str]:
    """Names of live exchange worker threads (leak detection)."""
    return {
        t.name
        for t in threading.enumerate()
        if t.is_alive() and t.name.startswith("exchange-worker")
    }


def run_chaos_case(db, case) -> Outcome:
    """One query: fault-free oracle vs the same query under faults."""
    text = case.query.render()
    outcome = Outcome()
    try:
        reference = db.query(text, use_cache=False)
    except ReproError:
        outcome.tallies["skipped"] += 1  # legitimately rejected query
        return outcome
    before = _worker_threads()
    ctx = QueryContext(
        fault_plan=FaultPlan.chaos(case.fault.seed, case.fault.rate)
    )
    outcome.pairs_run += 1
    try:
        faulted = db.query(
            text, use_cache=False, governor=ctx, backend=case.fault.backend
        )
    except GovernorError:
        outcome.tallies["typed_failures"] += 1
    except Exception:  # noqa: BLE001 - an untyped crash IS the finding
        outcome.mismatches.append(
            Mismatch(
                "chaos-untyped-error", text, traceback.format_exc(limit=3)
            )
        )
    else:
        if _bag(faulted.rows) != _bag(reference.rows):
            outcome.mismatches.append(
                Mismatch(
                    "chaos-wrong-answer",
                    text,
                    f"faulted run returned {len(faulted.rows)} row(s), "
                    f"oracle {len(reference.rows)}; degraded={ctx.degraded}",
                )
            )
        else:
            outcome.tallies["matched"] += 1
            if ctx.degraded:
                outcome.tallies["degraded"] += 1
    leaked = _worker_threads() - before
    if leaked:
        outcome.mismatches.append(
            Mismatch(
                "chaos-leaked-threads", text, f"leaked workers: {sorted(leaked)}"
            )
        )
    return outcome


__all__ = ["BACKENDS", "FAULT_RATE", "FaultSpec", "run_chaos_case"]
