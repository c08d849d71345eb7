"""Shared helpers: locating the source tree, digests, percentiles, host record.

The benchmark runs from the root of a source checkout and imports the
``repro`` package from that checkout's ``src/`` only.  Importing this
module puts ``src/`` first on ``sys.path``; :func:`require_source` exits
with an error when the checkout holds no source tree, so a directory with
only the benchmark's own files fails fast instead of measuring something
else.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from typing import Any, Iterable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: The Table 1 world's data seed (the one every paper table uses).
WORLD_SEED = 20130526

#: The paper's three indexes (Queries 2-4), created on every world.
PAPER_INDEXES = (
    ("ix_cities_mayor_name", "Cities", ("mayor", "name")),
    ("ix_tasks_time", "Tasks", ("time",)),
    ("ix_employees_name", "extent(Employee)", ("name",)),
)


def require_source() -> None:
    """Exit with status 2 unless ``<root>/src/repro`` exists; then import it."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        print(
            f"perfbench: no source tree at {SRC!r}; run from the root of "
            "a checkout that contains src/repro",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


def build_world(scale: float, durable_dir: str | None = None):
    """The Table 1 world with the paper's indexes (and optionally a WAL)."""
    from repro.api import Database

    db = Database.sample(scale=scale, seed=WORLD_SEED)
    for name, collection, path in PAPER_INDEXES:
        db.create_index(name, collection, path)
    if durable_dir is not None:
        db.enable_durability(durable_dir)
    return db


def program_counters(db) -> dict[str, float]:
    """The program's own cumulative counters: disk, buffer pool, plan cache."""
    disk = db.store.disk.stats.snapshot()
    buffer = db.store.buffer.stats_snapshot()
    cache = db.plan_cache.stats
    return {
        "page_reads": disk.page_reads,
        "sim_io_ms": disk.elapsed_ms,
        "buffer_hits": buffer.hits,
        "buffer_misses": buffer.misses,
        "hits": cache.hits,
        "lookups": cache.lookups,
        "invalidations": cache.invalidations,
    }


def counter_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}


# ----------------------------------------------------------------------
# Result digests
# ----------------------------------------------------------------------


def digest(rows: Iterable[dict[str, Any]]) -> str:
    """Order-insensitive digest of a result (a bag of rows).

    Values are put in a form shared by engine rows and server payload
    rows: objects count by identity (their OID), as the engine's own
    ``row_key`` does, and references and sets become OID strings, as the
    wire protocol encodes them.  Each row's canonical text gets a 64-bit
    checksum; the digest is the row count and the checksums' sum, so the
    result needs no sort and the value is the same in every process.
    """
    from repro.engine.tuples import Obj

    def canon(value: Any) -> Any:
        if isinstance(value, Obj):
            return ("@", str(value.oid))
        if isinstance(value, dict) and "oid" in value:
            return ("@", value["oid"])
        if isinstance(value, (list, tuple, set, frozenset)):
            return tuple(canon(item) for item in value)
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        return str(value)

    count = total = 0
    for row in rows:
        text = repr(sorted((name, canon(v)) for name, v in row.items())).encode()
        total += zlib.crc32(text) << 32 | zlib.adler32(text)
        count += 1
    return f"{count}:{total & 0xFFFFFFFFFFFFFFFF:016x}"


def naive_digest(db, text: str) -> str:
    """Reference digest: the naive pointer-chasing plan, interpreted, uncached."""
    simplified = db.simplify(text)
    plan = db.naive_plan(text)
    result = db.execute_plan(
        plan, result_vars=simplified.result_vars, backend="interpreted"
    )
    return digest(result.rows)


# ----------------------------------------------------------------------
# Statistics and host facts
# ----------------------------------------------------------------------


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_ms() -> float:
    """Median wall time of a fixed pure-Python loop (recorded, not used)."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def filesystem_of(path: str) -> str:
    """The filesystem type holding ``path`` (``stat -f``), or "unknown"."""
    try:
        done = subprocess.run(
            ["stat", "-f", "-c", "%T", path],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def host_record() -> dict[str, Any]:
    """Facts about the host a result was measured on."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "calibration_loop_ms": round(calibration_ms(), 3),
    }
