"""The fuzz case model and its one check.

A :class:`Case` is everything needed to replay one fuzz finding: the
generated world, the workload (a read-only :class:`QuerySpec` *or* a
:class:`DmlBatchSpec` write batch), the optional fault plan (chaos
mode), the optional crash plan (crash mode), and the reference-config
flags the case was found under.  :func:`check` picks the comparison
from those fields:

* a query runs the differential configuration pairs
  (:mod:`repro.fuzz.oracle`) — or, with a fault plan, the fault-free
  oracle against one faulted run (:mod:`repro.fuzz.chaos`);
* a batch replays its transcript under every DML configuration
  (:mod:`repro.fuzz.dml`) — or, with a crash plan, goes through
  crash → recover → compare (:mod:`repro.fuzz.crash`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.api import Database
from repro.fuzz.chaos import FaultSpec, run_chaos_case
from repro.fuzz.crash import COMMIT_POINTS, run_crash_case
from repro.fuzz.dml import DmlBatchSpec, run_dml_case
from repro.fuzz.oracle import Outcome, run_case
from repro.fuzz.querygen import QuerySpec
from repro.fuzz.worldgen import WorldSpec, build_database
from repro.governor.faults import CrashPlan


@dataclass(frozen=True)
class Case:
    """One replayable fuzz case (exactly one of ``query``/``batch``).

    ``no_rewrites`` and ``feedback`` flip the *reference* database's
    config (pre-memo rewrite stage off, cardinality feedback on); every
    database the check builds starts from that config.
    """

    world: WorldSpec
    query: QuerySpec | None = None
    batch: DmlBatchSpec | None = None
    fault: FaultSpec | None = None
    crash: CrashPlan | None = None
    checkpoint_every: int | None = None
    no_rewrites: bool = False
    feedback: bool = False

    def build(self) -> Database:
        """A fresh database of the world under the reference config."""
        db = build_database(self.world)
        if self.no_rewrites:
            db.config = db.config.with_rewrites(False)
        if self.feedback:
            db.config = db.config.with_feedback(True)
        return db

    @property
    def subject(self) -> str:
        """The query text, or a short description of the write batch."""
        if self.query is not None:
            return self.query.render()
        subject = f"batch of {len(self.batch.ops)} statement(s)"
        if self.crash is not None:
            subject += (
                f", crash {self.crash.crash_point} at commit "
                f"{self.crash.crash_at_commit}"
            )
        return subject


def check(case: Case, db: Database | None = None) -> Outcome:
    """Run the comparison the case's workload and plans call for.

    ``db`` lets a driver reuse one built database across the queries
    drawn for the same world (building a store is the expensive part);
    it must be ``case.build()`` or a database that has only run other
    query cases since.  Batch cases always build their own.
    """
    if case.batch is not None:
        if not case.batch.ops:
            return Outcome(tallies=Counter(skipped=1))
        if case.crash is None:
            return run_dml_case(case)
        outcome = Outcome(mismatches=run_crash_case(case), pairs_run=1)
        if case.crash.crash_point in COMMIT_POINTS:
            outcome.tallies["crashed"] += 1
        return outcome
    if db is None:
        db = case.build()
    if case.fault is not None:
        return run_chaos_case(db, case)
    return run_case(db, case.query)


__all__ = ["Case", "check"]
