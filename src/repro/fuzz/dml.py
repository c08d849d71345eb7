"""The DML-interleaved differential oracle.

The plan-equivalence fuzzer (:mod:`repro.fuzz.oracle`) checks that every
engine configuration computes the same *answer* to a read-only query.
This module extends the idea to writes: one seeded batch of
INSERT/UPDATE/DELETE statements — some auto-committed, some grouped
into explicit transactions — is applied to a fresh copy of the same
world under every configuration, with a deterministic ordered read
after each statement.  The transcripts (every read's exact row
sequence, every typed error's class name, every final collection scan)
must be **byte-identical** across configurations: plan cache on or off,
serial or exchange-parallel reads, restricted rule sets.  Any
divergence means MVCC visibility, catalog data-versioning, or the plan
cache disagreed about the same committed history.

:func:`apply_batch` is the one op/transaction-group apply loop: the
crash-recovery oracle (:mod:`repro.fuzz.crash`) drives its workloads
through it too.  Failing batches shrink through
:func:`repro.fuzz.shrink.shrink_case` (ops dropped one at a time, then
the world) and serialize into ``tests/corpus/`` as
``repro-dml-*.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.api import Database
from repro.errors import ReproError
from repro.fuzz.oracle import Outcome, first_divergence
from repro.fuzz.worldgen import WorldSpec
from repro.optimizer.config import (
    COLLAPSE_TO_INDEX_SCAN,
    HYBRID_HASH_JOIN,
    MERGE_JOIN,
)

#: Configurations every batch is replayed under, each as the
#: :func:`apply_batch` options it sets given the reference config.
#: Backend configs run the post-statement reads *and* DML target
#: selection on the named backend; the committed history must not care.
DML_CONFIGS = {
    "cache-off": lambda config: {"use_cache": False},
    "parallel-2": lambda config: {"parallelism": 2},
    "no-index-collapse": lambda config: {
        "config": config.without(COLLAPSE_TO_INDEX_SCAN)
    },
    "no-hash-join": lambda config: {
        "config": config.without(HYBRID_HASH_JOIN, MERGE_JOIN)
    },
    "backend-vectorized": lambda config: {
        "config": config.with_backend("vectorized")
    },
    "backend-compiled": lambda config: {
        "config": config.with_backend("compiled")
    },
}

#: Ops per generated batch (before shrinking).
OPS_PER_BATCH = 8


def _render_value(value) -> str:
    if isinstance(value, str):
        return "'" + value + "'"
    if value is None:
        return "null"
    return str(value)


@dataclass(frozen=True)
class DmlOpSpec:
    """One DML statement of a batch, as structured (shrinkable) data.

    ``txn_group`` groups consecutive ops into one explicit transaction
    (committed when the group's last op has run); ``None`` means
    auto-commit.  All generated values are scalars, so rendering is
    lossless.
    """

    kind: str  # "insert" | "update" | "delete"
    collection: str
    var: str = "x"
    columns: tuple[str, ...] = ()
    values: tuple[tuple, ...] = ()  # insert rows
    set_attr: str | None = None
    set_value: object = None
    where_attr: str | None = None
    where_op: str = "=="
    where_value: object = 0
    txn_group: int | None = None

    def render(self) -> str:
        """The statement's ZQL text."""
        if self.kind == "insert":
            columns = ", ".join(self.columns)
            rows = ", ".join(
                "(" + ", ".join(_render_value(v) for v in row) + ")"
                for row in self.values
            )
            return f"INSERT INTO {self.collection} ({columns}) VALUES {rows}"
        where = ""
        if self.where_attr is not None:
            where = (
                f" WHERE {self.var}.{self.where_attr} {self.where_op} "
                f"{_render_value(self.where_value)}"
            )
        if self.kind == "update":
            return (
                f"UPDATE {self.var} IN {self.collection} SET "
                f"{self.var}.{self.set_attr} = "
                f"{_render_value(self.set_value)}{where}"
            )
        return f"DELETE {self.var} IN {self.collection}{where}"

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "collection": self.collection,
            "var": self.var,
            "columns": list(self.columns),
            "values": [list(row) for row in self.values],
            "set_attr": self.set_attr,
            "set_value": self.set_value,
            "where_attr": self.where_attr,
            "where_op": self.where_op,
            "where_value": self.where_value,
            "txn_group": self.txn_group,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DmlOpSpec":
        """Rebuild an op from :meth:`to_dict` output."""
        return cls(
            kind=data["kind"],
            collection=data["collection"],
            var=data.get("var", "x"),
            columns=tuple(data.get("columns", ())),
            values=tuple(tuple(row) for row in data.get("values", ())),
            set_attr=data.get("set_attr"),
            set_value=data.get("set_value"),
            where_attr=data.get("where_attr"),
            where_op=data.get("where_op", "=="),
            where_value=data.get("where_value", 0),
            txn_group=data.get("txn_group"),
        )


@dataclass(frozen=True)
class DmlBatchSpec:
    """A whole case: the ordered ops plus the collections read back."""

    ops: tuple[DmlOpSpec, ...]

    def collections(self) -> tuple[str, ...]:
        """Every collection the batch writes, in first-touch order."""
        seen: list[str] = []
        for op in self.ops:
            if op.collection not in seen:
                seen.append(op.collection)
        return tuple(seen)

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {"ops": [op.to_dict() for op in self.ops]}

    @classmethod
    def from_dict(cls, data: dict) -> "DmlBatchSpec":
        """Rebuild a batch from :meth:`to_dict` output."""
        return cls(ops=tuple(DmlOpSpec.from_dict(o) for o in data["ops"]))


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def _scalar_attrs(world: WorldSpec, type_name: str):
    return [
        a for a in world.type_spec(type_name).attrs if a.kind == "scalar"
    ]


def _scalar_value(rng: random.Random, attr) -> object:
    if attr.scalar_type == "str":
        return f"w{rng.randrange(max(1, attr.distinct))}"
    return rng.randrange(max(1, attr.distinct))


def random_batch(
    rng: random.Random,
    world: WorldSpec,
    ops: int = OPS_PER_BATCH,
) -> DmlBatchSpec:
    """Draw one seeded write batch against ``world``'s collections.

    Only collections whose element type has at least one scalar
    attribute are touched (updates and WHERE clauses need one), and
    deletes are kept rarer than inserts so collections do not drain.
    """
    candidates = [
        (coll, type_name)
        for coll, type_name in world.collections()
        if _scalar_attrs(world, type_name)
    ]
    if not candidates:
        return DmlBatchSpec(ops=())
    out: list[DmlOpSpec] = []
    group: int | None = None
    groups = 0
    for i in range(ops):
        if group is None and rng.random() < 0.25:
            group = groups = groups + 1
        elif group is not None and rng.random() < 0.5:
            group = None
        coll, type_name = rng.choice(candidates)
        scalars = _scalar_attrs(world, type_name)
        where = rng.choice(scalars)
        kind = rng.choices(
            ("insert", "update", "delete"), weights=(4, 4, 2)
        )[0]
        if kind == "insert":
            chosen = [
                a for a in scalars if rng.random() < 0.8
            ] or scalars[:1]
            rows = tuple(
                tuple(_scalar_value(rng, a) for a in chosen)
                for _ in range(rng.randint(1, 3))
            )
            out.append(
                DmlOpSpec(
                    kind="insert",
                    collection=coll,
                    columns=tuple(a.name for a in chosen),
                    values=rows,
                    txn_group=group,
                )
            )
        elif kind == "update":
            target = rng.choice(scalars)
            out.append(
                DmlOpSpec(
                    kind="update",
                    collection=coll,
                    set_attr=target.name,
                    set_value=_scalar_value(rng, target),
                    where_attr=where.name,
                    where_op=rng.choice(("==", "<", ">=")),
                    where_value=_scalar_value(rng, where),
                    txn_group=group,
                )
            )
        else:
            out.append(
                DmlOpSpec(
                    kind="delete",
                    collection=coll,
                    where_attr=where.name,
                    where_op="==",
                    where_value=_scalar_value(rng, where),
                    txn_group=group,
                )
            )
    return DmlBatchSpec(ops=tuple(out))


# ----------------------------------------------------------------------
# Replay and comparison
# ----------------------------------------------------------------------


def _read_query(world: WorldSpec, collection: str) -> str:
    """A totally-ordered scan of one collection (exactly comparable)."""
    for coll, type_name in world.collections():
        if coll == collection:
            scalars = _scalar_attrs(world, type_name)
            if scalars:
                return (
                    f"SELECT * FROM x IN {collection} "
                    f"ORDER BY x.{scalars[0].name} ASC"
                )
    return f"SELECT * FROM x IN {collection}"


def _row_bytes(row: dict) -> str:
    """One row rendered canonically: oid plus sorted resident data."""
    parts = []
    for name in sorted(row):
        value = row[name]
        oid = getattr(value, "oid", None)
        if oid is not None:
            data = getattr(value, "data", None)
            rendered = (
                "{"
                + ",".join(
                    f"{k}={data[k]!r}" for k in sorted(data)
                )
                + "}"
                if data is not None
                else "-"
            )
            parts.append(f"{name}={oid}:{rendered}")
        else:
            parts.append(f"{name}={value!r}")
    return "|".join(parts)


def apply_batch(
    db: Database,
    world: WorldSpec,
    batch: DmlBatchSpec,
    stop_after: int | None = None,
    transcript: list[str] | None = None,
    use_cache: bool = True,
    parallelism: int | None = None,
    config=None,
) -> int:
    """Apply the batch's ops; returns the number of acknowledged commits.

    Ops with a ``txn_group`` share one explicit transaction committed at
    the group's last op; the rest auto-commit.  ``stop_after`` caps the
    run at that many *commits* (the crash oracle's clean reference
    executing a durable prefix) — the cap is checked before every op, so
    a partially-built transaction group whose commit would exceed it is
    simply abandoned and rolled back, exactly like the group a crash cut
    short.

    With a ``transcript`` list, one line per event is appended: each
    statement's outcome (affected count or typed error class), an
    ordered read of the touched collection after every commit, and a
    final ordered scan of every touched collection.  Two correct
    configurations must produce byte-identical transcripts.

    :class:`~repro.governor.faults.SimulatedCrash` propagates to the
    caller; the "dead" engine's open transactions are deliberately left
    as-is (a killed process runs no rollback code).
    """
    acknowledged = 0
    open_txns: dict[int, object] = {}

    def note(line: str) -> None:
        if transcript is not None:
            transcript.append(line)

    def read(collection: str, label: str) -> None:
        if transcript is None:
            return
        result = db.query(
            _read_query(world, collection),
            use_cache=use_cache,
            parallelism=parallelism,
            config=config,
        )
        body = ";".join(_row_bytes(row) for row in result.rows)
        transcript.append(f"{label} {collection}: {body}")

    for position, op in enumerate(batch.ops):
        if stop_after is not None and acknowledged >= stop_after:
            break
        txn = None
        if op.txn_group is not None:
            txn = open_txns.get(op.txn_group)
            if txn is None:
                txn = open_txns[op.txn_group] = db.begin()
        try:
            result = db.query(
                op.render(),
                use_cache=use_cache,
                config=config,
                transaction=txn,
            )
            if txn is None:
                acknowledged += 1
            note(f"op{position} {op.kind}: affected={result.affected}")
        except ReproError as exc:
            note(f"op{position} {op.kind}: {type(exc).__name__}")
        closes_group = op.txn_group is not None and not any(
            later.txn_group == op.txn_group
            for later in batch.ops[position + 1 :]
        )
        if closes_group:
            txn = open_txns.pop(op.txn_group)
            try:
                csn = txn.commit()
                acknowledged += 1
                note(f"op{position} commit: csn={csn}")
            except ReproError as exc:
                note(f"op{position} commit: {type(exc).__name__}")
        if op.txn_group is None or closes_group:
            read(op.collection, f"op{position} read")
    for txn in open_txns.values():
        txn.rollback()
    for collection in batch.collections():
        read(collection, "final")
    return acknowledged


def run_dml_case(case) -> Outcome:
    """Replay one batch under every configuration; compare transcripts.

    Every database is a fresh ``case.build()``, so the case's reference
    flags (rewrites off, feedback on) hold on every side.
    """
    reference: list[str] = []
    apply_batch(case.build(), case.world, case.batch, transcript=reference)
    outcome = Outcome(pairs_run=len(DML_CONFIGS))
    for kind, options in DML_CONFIGS.items():
        db = case.build()
        transcript: list[str] = []
        apply_batch(
            db, case.world, case.batch, transcript=transcript,
            **options(db.config),
        )
        mismatch = first_divergence(kind, case.subject, reference, transcript)
        if mismatch is not None:
            outcome.mismatches.append(mismatch)
    return outcome


__all__ = [
    "DML_CONFIGS",
    "OPS_PER_BATCH",
    "DmlBatchSpec",
    "DmlOpSpec",
    "apply_batch",
    "random_batch",
    "run_dml_case",
]
