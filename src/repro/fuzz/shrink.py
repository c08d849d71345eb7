"""Greedy delta-debugging: minimize a failing fuzz case.

One attempt-bounded loop serves every mode.  It repeatedly proposes
structurally smaller candidates — fewer predicates/clauses (queries),
fewer statements (write batches), then fewer indexes, fewer types and
smaller populations (worlds) — and keeps any candidate that still
fails, iterating to a fixpoint.  Fault plans, crash plans and reference
flags ride along unchanged.  Because cases are plain data, every
candidate is just a ``dataclasses.replace`` away, and the final minimal
case serializes straight into ``tests/corpus/``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator

from repro.fuzz.case import Case
from repro.fuzz.dml import DmlBatchSpec
from repro.fuzz.querygen import QuerySpec
from repro.fuzz.worldgen import TypeSpec, WorldSpec

#: Candidate population sizes tried (in order) when shrinking a type.
_COUNT_LADDER = (1, 2, 3, 5, 10, 20)

#: Candidate checks one shrink may spend (each builds fresh databases).
MAX_ATTEMPTS = 250


def shrink_case(case: Case, fails: Callable[[Case], bool]) -> Case:
    """Return the smallest case for which ``fails`` still holds.

    ``fails`` must be True for the input case; the shrinker only ever
    moves between failing cases, so the result is always a valid repro.
    """
    attempts = 0
    progress = True
    while progress and attempts < MAX_ATTEMPTS:
        progress = False
        for candidate in _candidates(case):
            if attempts >= MAX_ATTEMPTS:
                break
            attempts += 1
            try:
                still_fails = fails(candidate)
            except Exception:  # noqa: BLE001 - a crashing candidate is
                # just a failed shrink step, not the bug being minimized
                still_fails = False
            if still_fails:
                case = candidate
                progress = True
                break
    return case


def _candidates(case: Case) -> Iterator[Case]:
    """Smaller workloads first, then smaller worlds."""
    if case.query is not None:
        for query in _query_candidates(case.query):
            yield replace(case, query=query)
        proxy = case.query
    else:
        ops = case.batch.ops
        if len(ops) > 1:  # an empty batch checks nothing
            for i in range(len(ops)):
                yield replace(
                    case, batch=DmlBatchSpec(ops=ops[:i] + ops[i + 1 :])
                )
        # World shrinking needs the collections the batch touches: a
        # proxy query ranging over each keeps them (and their types).
        proxy = QuerySpec(
            ranges=tuple(
                (f"v{i}", coll)
                for i, coll in enumerate(case.batch.collections())
            )
        )
    for world in _world_candidates(case.world, proxy):
        yield replace(case, world=world)


def _query_candidates(query: QuerySpec):
    """Structurally smaller queries, most aggressive first."""
    for i in range(len(query.predicates)):
        smaller = query.predicates[:i] + query.predicates[i + 1 :]
        yield replace(query, predicates=smaller)
    for i in range(len(query.subqueries)):
        smaller = query.subqueries[:i] + query.subqueries[i + 1 :]
        yield replace(query, subqueries=smaller)
    if query.agg is not None:
        yield replace(query, agg=None, group_path=None, order_path=None)
    if query.order_path is not None:
        yield replace(query, order_path=None)
    if query.distinct:
        yield replace(query, distinct=False)
    if query.select_paths:
        yield replace(query, select_paths=(), distinct=False)
    if len(query.ranges) > 1:
        # Dropping a range only works if no clause mentions its variable.
        head = query.ranges[:1]
        dropped = {var for var, _ in query.ranges[1:]}
        if not any(
            set(_pred_vars(p)) & dropped for p in query.predicates
        ):
            yield replace(query, ranges=head)


def _pred_vars(pred) -> tuple[str, ...]:
    vars_ = [pred.left[0]]
    if pred.right_is_path:
        vars_.append(pred.right[0])
    return tuple(vars_)


def _world_candidates(world: WorldSpec, query: QuerySpec):
    """Smaller worlds that still define everything the query touches."""
    for i in range(len(world.indexes)):
        smaller = world.indexes[:i] + world.indexes[i + 1 :]
        yield replace(world, indexes=smaller)
    needed = _needed_types(world, query)
    if len(needed) < len(world.types):
        kept = tuple(t for t in world.types if t.name in needed)
        yield replace(
            world,
            types=kept,
            indexes=tuple(
                ix
                for ix in world.indexes
                if any(_collection_of(t, ix.collection) for t in kept)
            ),
        )
    for i, t in enumerate(world.types):
        for count in _COUNT_LADDER:
            if count >= t.count:
                break
            shrunk = replace(
                t,
                count=count,
                named_set_count=min(t.named_set_count, count),
            )
            yield replace(
                world, types=world.types[:i] + (shrunk,) + world.types[i + 1 :]
            )


def _collection_of(t: TypeSpec, collection: str) -> bool:
    return collection == f"extent({t.name})" or collection == t.named_set


def _needed_types(world: WorldSpec, query: QuerySpec) -> set[str]:
    """Types reachable from the query's collections via references."""
    roots: set[str] = set()
    collections = [coll for _, coll in query.ranges]
    collections += [s.collection for s in query.subqueries]
    for t in world.types:
        if any(_collection_of(t, c) for c in collections):
            roots.add(t.name)
    # Close over reference targets (refs always point at earlier types).
    changed = True
    while changed:
        changed = False
        for t in world.types:
            if t.name not in roots:
                continue
            for a in t.attrs:
                if a.target and a.target not in roots:
                    roots.add(a.target)
                    changed = True
    return roots


__all__ = ["MAX_ATTEMPTS", "shrink_case"]
