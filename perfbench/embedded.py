"""The in-process workloads: ``paper_scan`` and ``adhoc_plan``.

One closed-loop client calls ``Database.query`` in this process and waits
for each result.  A run sets the world up several times (the last one is
measured on) and warms it up.  It then runs whole rounds of the read
stream (see :mod:`streams`) for the measured time, each read followed by
a few autocommit UPDATEs of the write probe (WAL off), so that reads and
writes see the same host conditions.  The probe writes to a small world:
``adhoc_plan``'s own, and for ``paper_scan`` a companion world, so that
its reads keep the never-written storage path the paper's numbers were
measured on.  Results are checked after the timed part: every read's
digest against the naive pointer-chasing plan, backends against each
other, and the probe's writes by reading them back.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

import common
import streams
from tracing import LayerTracer, layer_metrics

#: World scale per workload: the full Table 1 world (24,735 pages against
#: a 2,048-frame buffer pool) and a small one that fits in the pool.
SCALES = {"paper_scan": 1.0, "adhoc_plan": 0.02}
#: A run builds the world at least 3 times and for at least this many
#: seconds (a small world builds in ~50 ms); setup_s is the median.
SETUP_MIN_S = 1.0
#: Probe UPDATEs after each read: about a fifth of the statements on
#: paper_scan's slow reads, one per read on adhoc_plan.
WRITES_PER_READ = {"paper_scan": 4, "adhoc_plan": 1}
#: Scale of the world the write probe writes to.
PROBE_SCALE = 0.02
#: Warm-up for the ad hoc suite: the paper's Q2 on each backend (a shape
#: the suite does not contain).
ADHOC_WARMUP = 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "Joe"'


def setup(scale: float):
    """Build the world repeatedly; return the last one and the timings."""
    timings: list[float] = []
    db = None
    while len(timings) < 3 or sum(timings) < SETUP_MIN_S:
        db = None
        gc.collect()
        started = time.perf_counter()
        db = common.build_world(scale)
        timings.append(time.perf_counter() - started)
    return db, timings


class Probe:
    """The write probe: its world and its statement stream."""

    def __init__(self, seed: int, db) -> None:
        self.db = db
        self.statements = streams.write_probe(seed, db)


def _rounds(workload: str, seed: int, db):
    if workload == "paper_scan":
        return streams.paper_scan(seed, db)
    return streams.AdhocSuite(seed, db).rounds()


def _warm(workload: str, seed: int, db, probe) -> None:
    """Fill the plan and compiled-pipeline caches, and commit one probe
    write, so every timed statement sees the same storage path."""
    if workload == "paper_scan":
        warm = next(streams.paper_scan(seed, db))
    else:
        warm = [("read", ADHOC_WARMUP, backend) for backend in streams.BACKENDS]
    for _, text, backend in warm:
        db.query(text, backend=backend)
    probe.db.query(next(probe.statements)[0])



class Tally:
    """What one closed-loop pass observed."""

    def __init__(self) -> None:
        self.read_ms: list[float] = []
        self.write_ms: list[float] = []
        self.read_busy_s = 0.0
        self.failed = 0
        self.errors: list[str] = []
        self.wrong: list[str] = []
        #: statement text -> [(backend, digest)]
        self.digests: dict[str, list] = defaultdict(list)
        #: probe topic -> last acknowledged body
        self.written: dict[str, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.read_ms) + len(self.write_ms) + self.failed


def _timed(db, text: str, backend, tally: Tally):
    """Run one statement; return (result, seconds) or None on error."""
    from repro.errors import ReproError

    started = time.perf_counter()
    try:
        result = db.query(text, backend=backend)
    except ReproError as exc:
        tally.failed += 1
        tally.errors.append(f"{type(exc).__name__}: {exc} [{text}]")
        return None
    return result, time.perf_counter() - started


def run_round(db, statements: list, tally: Tally, probe=None, writes: int = 0,
              fresh_plans: bool = False) -> None:
    """One round of reads, each followed by ``writes`` probe UPDATEs.

    ``fresh_plans`` empties the plan cache first, so that a round of the
    ad hoc suite misses on every shape as its first round did.
    """
    if fresh_plans:
        db.plan_cache.clear()
    for _, text, backend in statements:
        outcome = _timed(db, text, backend, tally)
        if outcome is not None:
            result, elapsed = outcome
            tally.read_ms.append(elapsed * 1000.0)
            tally.read_busy_s += elapsed
            tally.digests[text].append((backend, common.digest(result.rows)))
        for _ in range(writes):
            text, topic, value = next(probe.statements)
            outcome = _timed(probe.db, text, None, tally)
            if outcome is None:
                continue
            result, elapsed = outcome
            tally.write_ms.append(elapsed * 1000.0)
            if result.affected != 1:
                tally.wrong.append(f"probe updated {result.affected} rows [{text}]")
            tally.written[topic] = value


def run_rounds(db, workload: str, rounds, probe, tally: Tally,
               seconds: float, count: int | None) -> list[list]:
    """Whole rounds for ``seconds`` (or exactly ``count`` rounds).

    A round starts only if the previous one's duration still fits, so a
    run never ends inside a round and every run has the same mix.
    Returns the rounds it ran.
    """
    ran: list[list] = []
    started = time.perf_counter()
    last = 0.0
    while True:
        if count is not None:
            if len(ran) == count:
                break
        elif ran and time.perf_counter() - started + last > seconds:
            break
        statements = next(rounds)
        began = time.perf_counter()
        run_round(db, statements, tally, probe, WRITES_PER_READ[workload],
                  fresh_plans=workload == "adhoc_plan")
        last = time.perf_counter() - began
        ran.append(statements)
    return ran


def check(db, probe: Probe, tally: Tally, paper: bool) -> list[str]:
    """Problems found: wrong digests, backend disagreement, lost writes."""
    problems = list(tally.wrong)
    for text, seen in tally.digests.items():
        reference = common.naive_digest(db, text)
        wrong = [backend for backend, got in seen if got != reference]
        if wrong:
            problems.append(f"digest differs from naive plan on {wrong}: {text}")
        if paper and len({got for _, got in seen}) > 1:
            problems.append(f"backends disagree: {text}")
    bodies = {
        row["i.topic"]: row["i.body"]
        for row in probe.db.query(streams.PROBE_READBACK).rows
    }
    for topic, value in tally.written.items():
        if bodies.get(topic) != value:
            problems.append(f"write to {topic} reads back {bodies.get(topic)!r}, not {value!r}")
    return problems


def traced_replay(db, workload: str, ran: list, untraced: Tally) -> tuple[dict, dict, Tally]:
    """Replay the reads of ``ran`` with layer spans on.

    Returns (layers, spans, tally).  The same reads make the traced and
    untraced busy times comparable, which is the tracing overhead.
    """
    traced = Tally()
    before = common.program_counters(db)
    tracer = LayerTracer().install()
    try:
        for statements in ran:
            run_round(db, statements, traced, fresh_plans=workload == "adhoc_plan")
    finally:
        tracer.remove()
    summary = tracer.summary()
    layers = layer_metrics(
        summary,
        common.counter_delta(before, common.program_counters(db)),
        {
            "statements": sum(len(statements) for statements in ran),
            "conflicts": 0,
            "round_trip_s": 0.0,
            "overhead_frac": traced.read_busy_s / untraced.read_busy_s - 1.0,
        },
    )
    return layers, summary, traced


def run(workload: str, seed: int, seconds: float, trace: bool, count: int | None = None) -> dict:
    """One run; returns samples, checks, sizing and (traced) layers.

    ``count`` replaces the time limit with exactly ``count`` rounds (the
    deterministic mode of the self-test).
    """
    scale = SCALES[workload]
    db, setup_times = setup(scale)
    probe = Probe(seed, db if scale == PROBE_SCALE else common.build_world(PROBE_SCALE))
    _warm(workload, seed, db, probe)
    rounds = _rounds(workload, seed, db)
    tally = Tally()
    layers = spans = None
    if not trace:
        run_rounds(db, workload, rounds, probe, tally, seconds, count)
    else:
        # Half the time untraced, then the same reads again traced.
        ran = run_rounds(db, workload, rounds, probe, tally, seconds / 2, count)
        layers, spans, traced = traced_replay(db, workload, ran, tally)
        tally.read_ms += traced.read_ms
        tally.failed += traced.failed
        tally.errors += traced.errors
        for text, seen in traced.digests.items():
            tally.digests[text] += seen
    rss = common.peak_rss_mb()
    problems = check(db, probe, tally, workload == "paper_scan")
    return {
        "setup_times": setup_times,
        "tally": tally,
        "read_rate": len(tally.read_ms) / tally.read_busy_s if tally.read_busy_s else 0.0,
        "peak_rss_mb": rss,
        "problems": problems,
        "layers": layers,
        "spans": spans,
        "sizing": {
            "scale": scale,
            "pages": db.store.total_pages(),
            "buffer_frames": db.store.buffer.capacity,
            "durability": f"off (write probe: autocommit, no WAL, scale {PROBE_SCALE} world)",
        },
    }
