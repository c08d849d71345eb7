"""Seeded statement streams for the three workloads.

Every stream is a function of the workload seed and the (fixed) Table 1
world: the same seed gives the same statements in the same order.  The
program under test only ever sees the rendered ZQL text.  Constants are
drawn from values present in the data (sampled through ``store.peek``,
which charges no I/O) so that selective predicates match something.

A statement is a ``(kind, text, extra)`` triple: ``kind`` is ``"read"``
or ``"write"``; ``extra`` is the execution backend to run it on in the
embedded streams, and what an UPDATE writes in the served one.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

BACKENDS = ("interpreted", "vectorized", "compiled")

Statement = tuple[str, str, object]


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def _value(store, oid, path: tuple[str, ...]):
    """Follow a reference path from ``oid`` without charging I/O."""
    value = oid
    for attr in path:
        if value is None:
            return None
        value = store.peek(value).get(attr)
    return value


def _literal(value) -> str:
    return f'"{value}"' if isinstance(value, str) else str(value)


# ----------------------------------------------------------------------
# paper_scan
# ----------------------------------------------------------------------

PAPER_Q1 = (
    "SELECT Newobject(e.name(), e.department().name(), e.job().name()) "
    "FROM Employee e IN Employees "
    "WHERE e.department().plant().location() == {location}"
)
#: The fusible scan→filter→project chain (one collection, no paths).
PAPER_FUSIBLE = "SELECT e.name FROM Employee e IN Employees WHERE e.salary > {salary}"
PAPER_CITIES = "SELECT c.name, c.mayor.name FROM City c IN Cities"


def paper_scan(seed: int, db) -> Iterator[list[Statement]]:
    """Rounds of Q1, the fusible Employees query and the Cities path query.

    A round runs each (query, backend) pair once: the query changes every
    three statements and the backend every statement.  Q1's location is
    one of two seeded plant locations; the salary threshold one of three
    seeded values between 94,000 and 96,000 (about 5% of employees).
    """
    rng = _rng(seed, "paper_scan")
    store = db.store
    plants = sorted(
        {_value(store, oid, ("plant", "location"))
         for oid in store.collection_oids("extent(Department)")}
    )
    locations = rng.sample(plants, 2)
    salaries = [rng.randrange(94_000, 96_000) for _ in range(3)]
    while True:
        yield [
            ("read", PAPER_Q1.format(location=_literal(rng.choice(locations))), backend)
            for backend in BACKENDS
        ] + [
            ("read", PAPER_FUSIBLE.format(salary=rng.choice(salaries)), backend)
            for backend in BACKENDS
        ] + [("read", PAPER_CITIES, backend) for backend in BACKENDS]


# ----------------------------------------------------------------------
# write probe (paper_scan, adhoc_plan)
# ----------------------------------------------------------------------

PROBE_UPDATE = (
    'UPDATE i IN extent(Information) SET i.body = "{value}" '
    'WHERE i.topic == "{topic}"'
)
PROBE_READBACK = "SELECT i.topic, i.body FROM i IN extent(Information)"


def write_probe(seed: int, db) -> Iterator[tuple[str, str, str]]:
    """Autocommit point UPDATEs of ``Information.body``.

    No read of any workload touches ``Information``, so the probe never
    changes a read's result.  Yields ``(text, topic, value)``; every value
    is unique, so the read-back detects a lost or stale write.
    """
    rng = _rng(seed, "write_probe")
    topics = [
        db.store.peek(oid)["topic"]
        for oid in db.store.collection_oids("extent(Information)")
    ]
    for n in itertools.count():
        topic = rng.choice(topics)
        value = f"w{seed}.{n}"
        yield PROBE_UPDATE.format(value=value, topic=topic), topic, value


# ----------------------------------------------------------------------
# adhoc_plan
# ----------------------------------------------------------------------

#: Scalar attributes, reference attributes and set attributes per type.
SCALARS = {
    "Employee": ("name", "age", "salary", "last_raise"),
    "Department": ("name", "floor"),
    "Plant": ("location",),
    "Job": ("name", "pay_grade"),
    "City": ("name", "population"),
    "Capital": ("name", "population"),
    "Country": ("name",),
    "Person": ("name", "age"),
    "Task": ("name", "time"),
}
REFS = {
    "Employee": {"department": "Department", "job": "Job"},
    "Department": {"plant": "Plant"},
    "City": {"mayor": "Person", "country": "Country"},
    "Capital": {"mayor": "Person", "country": "Country"},
    "Country": {"president": "Person", "capital": "Capital"},
}
#: Root collections.  ``extent(Task)`` is left out: its naive reference
#: plan (every team member of every task, one fetch at a time) costs more
#: than the rest of the suite together; ``Tasks`` covers the same shapes.
ROOTS = (
    ("Employees", "Employee"),
    ("extent(Employee)", "Employee"),
    ("Cities", "City"),
    ("Capitals", "Capital"),
    ("Tasks", "Task"),
    ("extent(Department)", "Department"),
    ("extent(Country)", "Country"),
)
_RANGE_OPS = ("<", "<=", ">", ">=", "!=")


def _paths(type_name: str, depth: int) -> list[tuple[str, ...]]:
    """Every attribute path from ``type_name`` of 1..depth steps ending
    in a scalar."""
    found = [(attr,) for attr in SCALARS.get(type_name, ())]
    if depth > 1:
        for attr, target in REFS.get(type_name, {}).items():
            found += [(attr,) + rest for rest in _paths(target, depth - 1)]
    return found


class AdhocSuite:
    """A fixed suite of distinct, selective query shapes over Table 1.

    Each shape ranges over one root collection; its path expressions
    (depth 1-3) and an optional EXISTS over ``Task.team_members`` bring
    the range variables to 2-5.  Predicates are one equality plus up to
    two range conjuncts; projections, DISTINCT and ORDER BY vary.  No two
    shapes are alike once constants are set aside, which is what the plan
    cache keys on, so within a round every plan-cache lookup misses.

    The shapes are the same for every seed, as in template-based
    benchmarks: optimization cost depends on the shape far more than on
    anything else (5 ms to 1.5 s here), so a seeded shape mix would make
    runs incomparable.  Every round renders the suite with fresh constants
    drawn by the seed from random members of the data.
    """

    #: Shapes in the suite (one round).
    SIZE = 60
    #: Seed of the shape suite (not the workload seed).
    SUITE = "adhoc_plan:suite"

    def __init__(self, seed: int, db) -> None:
        self.constants = _rng(seed, "adhoc_plan")
        self.store = db.store
        self.members = {name: self.store.collection_oids(name) for name, _ in ROOTS}
        shapes = random.Random(self.SUITE)
        self.shapes: list[tuple] = []
        while len(self.shapes) < self.SIZE:
            shape, variables = _shape(shapes)
            if 2 <= variables <= 5 and shape not in self.shapes:
                self.shapes.append(shape)

    def _sample(self, collection: str, path: tuple[str, ...]):
        """A value of ``path`` on a random member of ``collection``."""
        oid = self.constants.choice(self.members[collection])
        return _value(self.store, oid, path)

    def _member_value(self, path: tuple[str, ...]):
        """A value of ``path`` on a random team member of a random task."""
        task = self.constants.choice(self.members["Tasks"])
        member = self.constants.choice(self.store.peek(task)["team_members"])
        return _value(self.store, member, path)

    def render(self, shape: tuple) -> str:
        collection, conjuncts, exists, select, distinct, order = shape
        where = [
            f"x.{'.'.join(path)} {op} {_literal(self._sample(collection, path))}"
            for path, op in conjuncts
        ]
        if exists is not None:
            # EXISTS only: NOT EXISTS plans as an anti-join, which the
            # naive reference plan cannot express.
            path, op = exists
            where.append(
                "EXISTS (SELECT * FROM m IN x.team_members WHERE "
                f"m.{'.'.join(path)} {op} {_literal(self._member_value(path))})"
            )
        projection = ", ".join(f"x.{'.'.join(p)}" for p in select) or "*"
        text = (
            f"SELECT {'DISTINCT ' if distinct else ''}{projection} "
            f"FROM x IN {collection} WHERE {' && '.join(where)}"
        )
        if order is not None:
            text += f" ORDER BY x.{'.'.join(order[0])} {order[1]}"
        return text

    def rounds(self) -> Iterator[list[Statement]]:
        """The suite again and again, each time with new constants."""
        while True:
            yield [
                ("read", self.render(shape), BACKENDS[i % 3])
                for i, shape in enumerate(self.shapes)
            ]


def _shape(rng: random.Random) -> tuple[tuple, int]:
    """One random query shape and its range-variable count."""
    collection, type_name = rng.choice(ROOTS)
    paths = _paths(type_name, 3)
    conjuncts = tuple(
        (rng.choice(paths), "==" if n == 0 else rng.choice(_RANGE_OPS))
        for n in range(rng.randint(1, 3))
    )
    used = {path for path, _ in conjuncts}
    exists = None
    if type_name == "Task" and rng.random() < 0.6:
        inner = rng.choice(_paths("Employee", 2))
        exists = (inner, "==" if rng.random() < 0.7 else rng.choice(_RANGE_OPS))
        # The member variable counts as one more path step.
        used.add(("team_members",) + inner)
    select: tuple = ()
    if rng.random() < 0.6:
        select = tuple(rng.sample(paths, rng.randint(1, min(3, len(paths)))))
        used |= set(select)
    distinct = bool(select) and rng.random() < 0.3
    order = None
    if rng.random() < 0.3:
        key = rng.choice(select) if select else (rng.choice(SCALARS[type_name]),)
        order = (key, rng.choice(("ASC", "DESC")))
    # Range variables: the root, plus one per distinct reference prefix
    # some path dereferences.
    prefixes = {p[:k] for p in used for k in range(1, len(p))}
    return (collection, conjuncts, exists, select, distinct, order), 1 + len(prefixes)


# ----------------------------------------------------------------------
# oltp_served
# ----------------------------------------------------------------------

OLTP_Q2 = "SELECT * FROM City c IN Cities WHERE c.mayor.name == {name}"
OLTP_Q3 = "SELECT c.mayor.age, c.name FROM City c IN Cities WHERE c.mayor.name == {name}"
OLTP_Q4 = (
    "SELECT * FROM Task t IN Tasks WHERE t.time == {time} AND EXISTS ("
    "SELECT m FROM Employee m IN t.team_members WHERE m.name == {member})"
)
OLTP_UPDATE = (
    'UPDATE c IN Cities SET c.population = {value} WHERE c.mayor.name == "{name}"'
)
OLTP_READBACK = "SELECT c.mayor.name, c.population FROM City c IN Cities"


def oltp_pools(seed: int, db) -> dict:
    """Seeded constants drawn from the data.

    ``mayor_names`` and ``task_pairs`` ((time, team member name)) feed
    the read shapes.  ``write_keys`` maps each mayor name the UPDATEs
    write to the number of cities that name is mayor of.
    """
    rng = _rng(seed, "oltp_pools")
    store = db.store
    cities = store.collection_oids("Cities")
    tasks = store.collection_oids("Tasks")
    mayors = [_value(store, oid, ("mayor", "name")) for oid in cities]
    names = rng.sample(mayors, 8)
    pairs = []
    for oid in rng.sample(tasks, 2):
        task = store.peek(oid)
        member = rng.choice(task["team_members"])
        pairs.append((task["time"], store.peek(member)["name"]))
    write_keys = {name: mayors.count(name) for name in sorted(set(rng.sample(mayors, 100)))}
    return {"mayor_names": names, "task_pairs": pairs, "write_keys": write_keys}


#: One cycle of the served stream: 3 autocommit UPDATEs ("W") among 12
#: index point reads.  Each committed UPDATE makes the next user of the
#: Cities index rebuild it, so the order fixes who pays each rebuild:
#: the second of the two adjacent UPDATEs (1 write in 3), and the first
#: Cities read after each run of UPDATEs (2 reads in 12).  Every
#: percentile the benchmark reports then falls inside one latency class
#: rather than on the edge between two: read p50 among the unrebuilt
#: Q2/Q3 reads, read and write p90 among the rebuilds, write p50 among
#: the UPDATEs that only commit and fsync.
OLTP_CYCLE = (
    "W", "Q2", "Q3", "Q4", "Q2", "Q3", "Q2",
    "W", "W", "Q3", "Q2", "Q4", "Q3", "Q2", "Q3",
)


def oltp_stream(seed: int, pools: dict) -> Iterator[Statement]:
    """The connection's stream of ``(kind, text, write)`` triples.

    The statements follow :data:`OLTP_CYCLE` over and over; ``write`` is
    the ``(mayor name, population)`` an UPDATE sets, None for a read.
    Only constants and keys vary by seed: a seeded mix would move every
    percentile by the luck of the draw.  Every written population is
    unique and above any generated value.
    """
    rng = _rng(seed, "oltp_stream")
    keys = sorted(pools["write_keys"])
    for n in itertools.count():
        shape = OLTP_CYCLE[n % len(OLTP_CYCLE)]
        if shape == "W":
            name = rng.choice(keys)
            value = 2_000_000 + n
            yield "write", OLTP_UPDATE.format(value=value, name=name), (name, value)
        elif shape == "Q2":
            text = OLTP_Q2.format(name=_literal(rng.choice(pools["mayor_names"])))
            yield "read", text, None
        elif shape == "Q3":
            text = OLTP_Q3.format(name=_literal(rng.choice(pools["mayor_names"])))
            yield "read", text, None
        else:
            time_value, member = rng.choice(pools["task_pairs"])
            yield "read", OLTP_Q4.format(time=time_value, member=_literal(member)), None
