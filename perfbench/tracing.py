"""Layer spans recorded from outside the program.

:class:`LayerTracer` wraps the public functions each layer exposes, on the
name its caller looks up (``repro.api`` imports by name, so its parser and
simplifier are wrapped as ``repro.api.parse_statement`` and
``repro.api.simplify_full``).  Nothing under ``src/`` changes; ``remove()``
puts every original back.

A span is pushed on a per-thread stack when a wrapped call starts and
popped when it returns.  Its duration is added to the parent's child time,
so a layer's *self* time is its span time minus the time its child spans
cover.  Scan iterators are generators: each ``next()`` is its own span,
timed in the consumer's thread, so the time between rows is charged to
the consumer.  Spans are aggregated per name in memory (count, total,
self) and summarised when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

_now = time.perf_counter

#: Root span of one statement: ``Database.query`` in process, and
#: ``Session.handle`` (around it) in the server.
STATEMENT = "stmt"
HANDLE = "server.handle"


class _ThreadState:
    __slots__ = ("stack", "total", "self_time", "calls", "counters")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()


class LayerTracer:
    """Install span wrappers on the layer boundaries; summarise them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name: str) -> None:
        self._state().stack.append([name, _now(), 0.0])

    def exit(self) -> None:
        state = self._state()
        name, started, child = state.stack.pop()
        elapsed = _now() - started
        state.total[name] += elapsed
        state.self_time[name] += elapsed - child
        state.calls[name] += 1
        if state.stack:
            state.stack[-1][2] += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counters[name] += amount

    def summary(self) -> dict[str, dict]:
        """Merged per-name aggregates: calls, total_s, self_s; plus counters."""
        spans: dict[str, dict[str, float]] = {}
        counters: Counter = Counter()
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, calls in state.calls.items():
                entry = spans.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                entry["calls"] += calls
                entry["total_s"] += state.total[name]
                entry["self_s"] += state.self_time[name]
            counters.update(state.counters)
        return {"spans": spans, "counters": dict(counters)}

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        static = inspect.getattr_static(owner, attr)
        wrapper = make(getattr(owner, attr))
        if isinstance(static, (staticmethod, classmethod)):
            # getattr() already bound a classmethod to its class.
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, static))

    def span(self, owner: Any, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""
        enter, leave = self.enter, self.exit

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    leave()
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def iter_span(self, owner: Any, attr: str, name: str, counter: str) -> None:
        """Time each ``next()`` of the iterator ``owner.attr`` returns."""
        enter, leave, state_of = self.enter, self.exit, self._state

        def traced(iterator):
            step = iterator.__next__
            try:
                while True:
                    enter(name)
                    try:
                        item = step()
                    except StopIteration:
                        return
                    finally:
                        leave()
                    state_of().counters[counter] += 1
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return traced(original(*args, **kwargs))

            return wrapper

        self._patch(owner, attr, make)

    def tally(self, owner: Any, attr: str, counter: str, measure) -> None:
        """Count ``measure(args, result)`` for every call (no span)."""
        add = self.count

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                add(counter, measure(args, result))
                return result

            return wrapper

        self._patch(owner, attr, make)

    def engine_span(self, owner: Any, attr: str) -> None:
        """``Executor.execute``, one span name per execution backend."""
        enter, leave, add = self.enter, self.exit, self.count

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                enter("engine." + kwargs.get("backend", "interpreted"))
                try:
                    result = original(*args, **kwargs)
                finally:
                    leave()
                add("engine.rows_out", len(result.rows))
                return result

            return wrapper

        self._patch(owner, attr, make)

    # -- install / remove ---------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every layer boundary this benchmark reports on."""
        import repro.api as api
        import repro.durability.wal as wal
        import repro.engine.dml as dml_engine
        import repro.optimizer.optimizer as optimizer
        import repro.server.server as server
        from repro.cache.plan_cache import PlanCache
        from repro.durability.manager import DurabilityManager
        from repro.engine.executor import Executor
        from repro.server.session import Session
        from repro.storage.index import IndexRuntime
        from repro.storage.mvcc import SnapshotView, TransactionManager
        from repro.storage.store import ObjectStore

        add = self.count

        def optimized(args, kwargs, result) -> None:
            add("optimizer.runs")
            add("optimizer.memo_groups", result.groups)
            add("optimizer.mexprs", result.stats.mexprs_generated)
            add("optimizer.rule_applications", result.stats.rule_applications)
            add("optimizer.candidates_costed", result.stats.candidates_costed)
            add("optimizer.rewrite_firings", len(result.rewrites))

        self.span(api.Database, "query", STATEMENT)
        self.span(Session, "handle", HANDLE)
        self.span(api, "parse_statement", "lang.parse")
        self.span(api, "parameterize", "cache.parameterize")
        self.span(PlanCache, "lookup", "cache.lookup")
        self.span(api, "rebind_plan", "cache.rebind")
        self.span(api, "bind_template", "cache.bind")
        self.span(api, "simplify_full", "simplify")
        self.span(optimizer, "rewrite_tree", "optimizer.rewrite")
        self.span(optimizer.Optimizer, "optimize", "optimizer.search", optimized)
        self.engine_span(Executor, "execute")
        for name in ("apply_insert", "apply_update", "apply_delete"):
            self.span(dml_engine, name, "engine.dml")
        for owner in (ObjectStore, SnapshotView):
            for attr in ("scan", "scan_partition"):
                self.iter_span(owner, attr, "storage.scan", "storage.rows_scanned")
            self.span(owner, "fetch", "storage.fetch")
        for attr in ("lookup_eq", "lookup_range"):
            self.span(IndexRuntime, attr, "storage.index_probe")
        self.span(IndexRuntime, "build", "storage.index_build")
        self.span(TransactionManager, "commit", "mvcc.commit")
        self.span(DurabilityManager, "log_commit", "durability.log_commit")
        self.span(wal.WalWriter, "_sync", "durability.fsync")
        self.tally(wal, "frame", "durability.wal_bytes", lambda a, r: len(r))
        self.tally(server, "decode", "server.bytes", lambda a, r: len(a[0]))
        self.tally(server, "encode", "server.bytes", lambda a, r: len(r))
        return self

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


#: Per-layer metrics and their units, in the order they are reported.
#: Times are self times per statement (per execution for the engine
#: backends, per commit for mvcc and durability); counts are per
#: statement (per optimizer run for the optimizer's).
LAYER_METRICS = {
    "lang.parse_ms": "ms",
    "cache.parameterize_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.rebind_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.invalidations": "count",
    "simplify.ms": "ms",
    "optimizer.rewrite_ms": "ms",
    "optimizer.search_ms": "ms",
    "optimizer.memo_groups": "count",
    "optimizer.mexprs": "count",
    "optimizer.rule_applications": "count",
    "optimizer.candidates_costed": "count",
    "optimizer.rewrite_firings": "count",
    "engine.exec_ms.interpreted": "ms",
    "engine.exec_ms.vectorized": "ms",
    "engine.exec_ms.compiled": "ms",
    "engine.rows_out": "count",
    "engine.rows_examined_per_row_out": "ratio",
    "storage.scan_ms": "ms",
    "storage.fetch_ms": "ms",
    "storage.index_probe_ms": "ms",
    "storage.page_reads": "count",
    "storage.buffer_hits": "count",
    "storage.buffer_misses": "count",
    "storage.buffer_hit_ratio": "ratio",
    "storage.sim_io_ms": "ms",
    "storage.buffer_requests_per_page": "ratio",
    "storage.index_builds": "count",
    "storage.index_build_ms": "ms",
    "mvcc.commit_ms": "ms",
    "mvcc.write_conflicts": "count",
    "durability.log_commit_ms": "ms",
    "durability.fsyncs_per_commit": "count",
    "durability.wal_bytes_per_commit": "bytes",
    "server.handle_ms": "ms",
    "server.overhead_ms": "ms",
    "server.bytes_per_stmt": "bytes",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def layer_metrics(summary: dict, io: dict, client: dict) -> dict:
    """The :data:`LAYER_METRICS` of one traced pass.

    ``io`` holds the program's own counters as deltas over the pass: page
    reads, buffer hits and misses, simulated I/O ms, and plan-cache hits,
    lookups and invalidations.  ``client`` holds what the load generator
    saw: statements, write conflicts, summed round-trip seconds, and the
    tracing overhead (traced over untraced time for the same work, - 1).
    """
    spans, counters = summary["spans"], summary["counters"]

    def self_ms(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0) * 1000.0

    def total_ms(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0) * 1000.0

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    statements = client["statements"]
    commits = calls("mvcc.commit")
    runs = counters.get("optimizer.runs", 0)
    rows_out = counters.get("engine.rows_out", 0)
    examined = counters.get("storage.rows_scanned", 0) + calls("storage.fetch")
    requests = io["buffer_hits"] + io["buffer_misses"]
    # Statement time as the program measures it: the server's handler
    # when there is one, else the API call.
    root = HANDLE if calls(HANDLE) else STATEMENT
    unattributed = self_ms(STATEMENT) + self_ms(HANDLE)
    metrics = {
        "lang.parse_ms": _per(self_ms("lang.parse"), statements),
        "cache.parameterize_ms": _per(self_ms("cache.parameterize"), statements),
        "cache.lookup_ms": _per(self_ms("cache.lookup"), statements),
        "cache.rebind_ms": _per(self_ms("cache.rebind"), statements),
        "cache.hit_ratio": _per(io["hits"], io["lookups"]),
        "cache.invalidations": _per(io["invalidations"], statements),
        "simplify.ms": _per(self_ms("simplify"), statements),
        "optimizer.rewrite_ms": _per(self_ms("optimizer.rewrite"), statements),
        "optimizer.search_ms": _per(self_ms("optimizer.search"), statements),
        "optimizer.memo_groups": _per(counters.get("optimizer.memo_groups", 0), runs),
        "optimizer.mexprs": _per(counters.get("optimizer.mexprs", 0), runs),
        "optimizer.rule_applications": _per(
            counters.get("optimizer.rule_applications", 0), runs
        ),
        "optimizer.candidates_costed": _per(
            counters.get("optimizer.candidates_costed", 0), runs
        ),
        "optimizer.rewrite_firings": _per(
            counters.get("optimizer.rewrite_firings", 0), runs
        ),
    }
    for backend in ("interpreted", "vectorized", "compiled"):
        name = "engine." + backend
        metrics[f"engine.exec_ms.{backend}"] = _per(self_ms(name), calls(name))
    metrics.update(
        {
            "engine.rows_out": _per(rows_out, statements),
            "engine.rows_examined_per_row_out": _per(examined, max(rows_out, 1)),
            "storage.scan_ms": _per(self_ms("storage.scan"), statements),
            "storage.fetch_ms": _per(self_ms("storage.fetch"), statements),
            "storage.index_probe_ms": _per(
                self_ms("storage.index_probe"), statements
            ),
            "storage.page_reads": _per(io["page_reads"], statements),
            "storage.buffer_hits": _per(io["buffer_hits"], statements),
            "storage.buffer_misses": _per(io["buffer_misses"], statements),
            "storage.buffer_hit_ratio": _per(io["buffer_hits"], requests),
            "storage.sim_io_ms": _per(io["sim_io_ms"], statements),
            "storage.buffer_requests_per_page": _per(requests, io["page_reads"]),
            "storage.index_builds": _per(calls("storage.index_build"), statements),
            "storage.index_build_ms": _per(
                total_ms("storage.index_build"), statements
            ),
            "mvcc.commit_ms": _per(self_ms("mvcc.commit"), commits),
            "mvcc.write_conflicts": _per(client["conflicts"], statements),
            "durability.log_commit_ms": _per(
                total_ms("durability.log_commit"), commits
            ),
            "durability.fsyncs_per_commit": _per(calls("durability.fsync"), commits),
            "durability.wal_bytes_per_commit": _per(
                counters.get("durability.wal_bytes", 0), commits
            ),
            "server.handle_ms": _per(total_ms(HANDLE), calls(HANDLE)),
            "server.overhead_ms": _per(
                client["round_trip_s"] * 1000.0 - total_ms(HANDLE),
                calls(HANDLE),
            )
            if calls(HANDLE)
            else 0.0,
            "server.bytes_per_stmt": _per(
                counters.get("server.bytes", 0), calls(HANDLE)
            ),
            "trace.unattributed_frac": _per(unattributed, total_ms(root)),
            "trace.overhead_frac": client["overhead_frac"],
        }
    )
    return {name: metrics[name] for name in LAYER_METRICS}
