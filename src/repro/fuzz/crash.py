"""The crash-recovery fuzz oracle.

The durability contract has two halves, and each crash point exercises
one of them:

* a commit that was **acknowledged** (or whose log record was fully
  fsynced — ``post-record-pre-ack``, ``mid-checkpoint-rename``) must
  survive recovery byte-for-byte;
* a commit whose record was **torn** (``mid-record``) must vanish
  completely, as if it was never attempted.

Each case builds a seeded world, makes it durable in a scratch
directory, and applies a seeded DML batch (the DML fuzzer's generator
and apply loop) until a seeded :class:`~repro.governor.faults.CrashPlan`
"kills the process".  The directory is then reopened with
``Database.open`` and compared against a *clean* in-memory engine that
executed exactly the durable-commit prefix of the same workload:

* every collection's totally-ordered scan must match byte-for-byte;
* the recovered CSN must match;
* one deterministic follow-up UPDATE must behave identically on both
  engines (an UPDATE, not an INSERT: transactions that rolled back
  before the crash burned OID serials the log never saw, so the
  recovered allocator may lag the clean engine's — by design, since
  logged OIDs are authoritative — and an INSERT continuation would
  report that known, harmless skew instead of a real divergence).

Failures shrink through :func:`repro.fuzz.shrink.shrink_case` and
serialize into the corpus as ``repro-crash-*.json``.
"""

from __future__ import annotations

import random
import shutil
import tempfile

from repro.api import Database
from repro.errors import ReproError
from repro.fuzz.dml import _read_query, _row_bytes, apply_batch
from repro.fuzz.oracle import Mismatch, first_divergence
from repro.fuzz.worldgen import WorldSpec
from repro.governor.faults import CrashPlan, SimulatedCrash

#: Relative frequency of each crash point in generated plans.
_POINT_WEIGHTS = (
    ("mid-record", 4),
    ("post-record-pre-ack", 4),
    ("mid-checkpoint-rename", 2),
)

#: Crash points that kill the process inside a commit (the rest kill it
#: inside a checkpoint).
COMMIT_POINTS = frozenset(("mid-record", "post-record-pre-ack"))

#: Crash points after which the in-flight commit is durable (its log
#: record was fully fsynced before the "power loss").
_DURABLE_POINTS = frozenset(("post-record-pre-ack", "mid-checkpoint-rename"))


def _continuation_update(world: WorldSpec) -> str | None:
    """One deterministic post-recovery UPDATE statement, or ``None``."""
    for coll, type_name in world.collections():
        scalars = [
            a
            for a in world.type_spec(type_name).attrs
            if a.kind == "scalar"
        ]
        if scalars:
            attr = scalars[0]
            value = "'zz'" if attr.scalar_type == "str" else "999983"
            return f"UPDATE x IN {coll} SET x.{attr.name} = {value}"
    return None


def _state_lines(db: Database, world: WorldSpec) -> list[str]:
    """The comparable engine state: CSN plus every ordered scan."""
    lines = [f"csn={db.store.mvcc.current_csn}"]
    for coll, _type_name in world.collections():
        result = db.query(_read_query(world, coll))
        body = ";".join(_row_bytes(row) for row in result.rows)
        lines.append(f"{coll}: {body}")
    return lines


# ----------------------------------------------------------------------
# One case
# ----------------------------------------------------------------------


def run_crash_case(case) -> list[Mismatch]:
    """Crash one seeded workload, recover, compare; returns divergences.

    Returns an empty list when the recovered engine byte-matched the
    clean engine that executed exactly the durable-commit prefix.  Both
    engines are ``case.build()`` databases, so the case's reference
    flags hold on both sides (and on the recovered engine).
    """
    directory = tempfile.mkdtemp(prefix="repro-crash-")
    try:
        return _run_crash_case(case, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _run_crash_case(case, directory: str) -> list[Mismatch]:
    plan = case.crash
    victim = case.build()
    victim.enable_durability(directory, checkpoint_every=case.checkpoint_every)
    # Installed *after* enable_durability so the initial checkpoint
    # (taken before any commits exist) cannot fire a checkpoint crash.
    victim.durability.crash_plan = plan
    victim.durability.wal.crash_plan = plan

    crashed = True
    try:
        acknowledged = apply_batch(victim, case.world, case.batch)
        # The plan never fired (e.g. a checkpoint plan over a batch of
        # explicit transactions, which never auto-checkpoint).  Closing
        # still exercises it — a checkpoint plan kills the shutdown
        # checkpoint — else this degrades to clean close/reopen parity.
        try:
            victim.close()
            crashed = False
        except SimulatedCrash:
            pass
    except SimulatedCrash:
        # The crashed append's ordinal is authoritative: the workload is
        # single-threaded, so every append before it was acknowledged
        # and the crashing one never returned to its caller.  (For a
        # checkpoint crash the triggering statement died post-commit but
        # pre-return inside maybe_checkpoint — same accounting.)
        acknowledged = max(0, victim.durability.wal.appended - 1)

    # The durable prefix: every acknowledged commit, plus the in-flight
    # one when the crash point guarantees its record was fully fsynced.
    budget = acknowledged
    if crashed and plan.crash_point in _DURABLE_POINTS:
        durable = victim.durability.wal.appended
        budget = max(acknowledged, min(durable, acknowledged + 1))

    reference = case.build()
    apply_batch(reference, case.world, case.batch, stop_after=budget)

    recovered = Database.open(directory, config=reference.config)
    divergence = first_divergence(
        "state",
        case.subject,
        _state_lines(reference, case.world),
        _state_lines(recovered, case.world),
    )
    if divergence is None:
        divergence = _check_continuation(case, reference, recovered)
    recovered.close()
    return [divergence] if divergence is not None else []


def _check_continuation(
    case, reference: Database, recovered: Database
) -> Mismatch | None:
    """Run one identical UPDATE on both engines and compare everything."""
    statement = _continuation_update(case.world)
    if statement is None:
        return None
    outcomes: list[str] = []
    for db in (reference, recovered):
        try:
            result = db.query(statement)
            outcomes.append(f"affected={result.affected} csn={result.csn}")
        except ReproError as exc:
            outcomes.append(type(exc).__name__)
    if outcomes[0] != outcomes[1]:
        return Mismatch(
            "continuation",
            case.subject,
            f"{statement!r}: reference {outcomes[0]} "
            f"vs recovered {outcomes[1]}",
        )
    return first_divergence(
        "continuation-state",
        case.subject,
        _state_lines(reference, case.world),
        _state_lines(recovered, case.world),
    )


def random_plan(
    rng: random.Random, total_commits: int
) -> tuple[CrashPlan, int | None]:
    """Draw one seeded crash plan aimed inside ``total_commits``.

    Returns the plan and its ``checkpoint_every`` (``None``: no
    mid-workload checkpoints).
    """
    points = [p for p, _ in _POINT_WEIGHTS]
    weights = [w for _, w in _POINT_WEIGHTS]
    point = rng.choices(points, weights=weights)[0]
    ordinal = rng.randint(1, max(1, total_commits))
    torn = -1
    if point == "mid-record":
        # 0 = header never lands, small = torn header, -1 = half frame,
        # large = torn payload; every band has its own failure mode.
        torn = rng.choice((-1, 0, 1, 3, 7, rng.randrange(8, 64)))
    plan = CrashPlan(
        crash_at_commit=ordinal,
        crash_point=point,
        crash_after_bytes=torn,
    )
    checkpoint_every = None
    if point == "mid-checkpoint-rename":
        checkpoint_every = rng.randint(1, 3)
    elif rng.random() < 0.3:
        # Sometimes checkpoint mid-workload even for commit-point
        # crashes, so recovery exercises checkpoint + log replay.
        checkpoint_every = rng.randint(1, max(1, total_commits // 2))
    return plan, checkpoint_every


__all__ = ["COMMIT_POINTS", "random_plan", "run_crash_case"]
