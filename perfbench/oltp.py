"""The served workload, ``oltp_served``: the load-generator side.

A child process (:mod:`oltp_host`) hosts the durable scale-1.0 world
behind a ``DatabaseServer``.  This process opens one connection and runs
a closed loop on it: send a statement with the synchronous
``ServerClient``, wait for the reply, send the next.  One connection,
because the host serves from a single CPython process: a second one buys
no parallelism, it only interleaves with the first on the interpreter
lock and the build-once index lock, and how index rebuilds then chained
(one rebuild, or one waiting on another) moved both p90s by more than a
quarter between runs of the same code.  The host is started
:data:`SETUPS` times (the last one is measured on); setup_s is the time
from spawning it to its ready line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict

import common
import streams
from tracing import layer_metrics

SETUPS = 3
HOST_SCRIPT = os.path.join(common.BENCH_DIR, "oltp_host.py")
#: How long to wait for the host to start or answer a control request.
HOST_TIMEOUT_S = 120.0


class Host:
    """The child process hosting the served database."""

    def __init__(self, wal_dir: str) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, HOST_SCRIPT, "--wal", wal_dir],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=common.ROOT,
        )
        self.ready = self._reply()
        self.setup_s = time.perf_counter() - started

    def _reply(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("database host exited without replying")
        return json.loads(line)

    def call(self, op: str, **fields) -> dict:
        self.process.stdin.write(json.dumps({"op": op, **fields}) + "\n")
        self.process.stdin.flush()
        return self._reply()

    def stop(self) -> None:
        """Ask the host to stop; kill it if it does not exit in time."""
        if self.process.poll() is None:
            try:
                self.process.stdin.write(json.dumps({"op": "stop"}) + "\n")
                self.process.stdin.flush()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(timeout=30)
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


class Tally:
    """What one closed-loop pass observed."""

    def __init__(self) -> None:
        self.read_ms: list[float] = []
        self.write_ms: list[float] = []
        self.failed = 0
        self.conflicts = 0
        self.errors: list[str] = []
        self.wrong: list[str] = []
        self.digests: dict[str, set] = defaultdict(set)
        #: mayor name -> last acknowledged population of its cities
        self.written: dict[str, int] = {}
        #: names whose last write failed (either value is acceptable)
        self.unsure: dict[str, int] = {}

    @property
    def statements(self) -> int:
        return len(self.read_ms) + len(self.write_ms)


def load(client, stream, expected: dict, seconds: float, count: int | None) -> tuple[Tally, float]:
    """One closed-loop pass for ``seconds`` (or exactly ``count``
    statements); returns (tally, wall s)."""
    from repro.errors import ReproError, WriteConflict

    tally = Tally()
    started = time.perf_counter()
    deadline = started + seconds
    done = 0
    while (done < count) if count is not None else time.perf_counter() < deadline:
        done += 1
        kind, text, write = next(stream)
        began = time.perf_counter()
        try:
            reply = client.query(text)
        except (ReproError, ConnectionError) as exc:
            tally.failed += 1
            tally.conflicts += isinstance(exc, WriteConflict)
            tally.errors.append(f"{type(exc).__name__}: {exc} [{text}]")
            if write is not None:
                tally.unsure[write[0]] = write[1]
            continue
        elapsed = (time.perf_counter() - began) * 1000.0
        if kind == "read":
            tally.read_ms.append(elapsed)
            tally.digests[text].add(common.digest(reply["rows"]))
        else:
            tally.write_ms.append(elapsed)
            name, value = write
            if reply.get("affected") != expected[name]:
                tally.wrong.append(f"update touched {reply.get('affected')} rows [{text}]")
            tally.written[name] = value
            tally.unsure.pop(name, None)
    return tally, time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, count: int | None = None) -> dict:
    from repro.server import ServerClient

    scratch = os.path.join(common.ROOT, f".perfbench-{os.getpid()}")
    host = None
    client = None
    try:
        setup_times = []
        for attempt in range(SETUPS):
            if host is not None:
                host.stop()
            host = Host(os.path.join(scratch, f"wal{attempt}"))
            setup_times.append(host.setup_s)
        pools = host.call("pools", seed=seed)
        client = ServerClient("127.0.0.1", host.ready["port"], timeout=HOST_TIMEOUT_S)
        # Warm the plan cache and build the runtime indexes: every read
        # shape once.
        client.query(streams.OLTP_Q2.format(name=f'"{pools["mayor_names"][0]}"'))
        client.query(streams.OLTP_Q3.format(name=f'"{pools["mayor_names"][0]}"'))
        time_value, member = pools["task_pairs"][0]
        client.query(streams.OLTP_Q4.format(time=time_value, member=f'"{member}"'))
        stream = streams.oltp_stream(seed, pools)
        keys = pools["write_keys"]
        layers = summary = None
        if not trace:
            tally, wall = load(client, stream, keys, seconds, count)
            tallies = [tally]
            rate = tally.statements / wall
        else:
            first, wall = load(client, stream, keys, seconds / 2, count)
            untraced_rate = first.statements / wall
            host.call("trace_on")
            second, wall = load(client, stream, keys, seconds / 2, count)
            traced = host.call("trace_off")
            summary = traced["summary"]
            traced_rate = second.statements / wall
            layers = layer_metrics(
                summary,
                traced["io"],
                {
                    "statements": second.statements,
                    "conflicts": second.conflicts,
                    "round_trip_s": (sum(second.read_ms) + sum(second.write_ms)) / 1000.0,
                    # Both halves run the same statement mix.
                    "overhead_frac": untraced_rate / traced_rate - 1.0,
                },
            )
            tallies = [first, second]
            rate = untraced_rate
        rss = host.call("rss")["peak_rss_mb"]
        problems = [wrong for t in tallies for wrong in t.wrong]
        # Read back every written key through the server: all cities of a
        # written mayor name hold the last acknowledged population.
        populations = defaultdict(set)
        for row in client.query(streams.OLTP_READBACK)["rows"]:
            populations[row["c.mayor.name"]].add(row["c.population"])
        written: dict[str, int] = {}
        unsure: dict[str, int] = {}
        for tally in tallies:  # in pass order, so later writes win
            for name in tally.written:
                unsure.pop(name, None)
            written.update(tally.written)
            unsure.update(tally.unsure)
        for name, value in written.items():
            if populations[name] not in ({value}, {unsure.get(name)}):
                problems.append(
                    f"{name}'s cities read back {sorted(populations[name])}, "
                    f"acknowledged {value}"
                )
        digests: dict[str, set] = defaultdict(set)
        for tally in tallies:
            for text, seen in tally.digests.items():
                digests[text] |= seen
        references = host.call("reference", texts=sorted(digests))
        for text, seen in digests.items():
            if seen != {references[text]}:
                problems.append(f"digest differs from naive plan: {text}")
        return {
            "setup_times": setup_times,
            "read_ms": [x for t in tallies for x in t.read_ms],
            "write_ms": [x for t in tallies for x in t.write_ms],
            "failed": sum(t.failed for t in tallies),
            "attempted": sum(t.statements + t.failed for t in tallies),
            "read_rate": rate,
            "peak_rss_mb": rss,
            "problems": problems,
            "errors": [error for t in tallies for error in t.errors],
            "layers": layers,
            "spans": summary,
            "sizing": {
                "scale": 1.0,
                "pages": host.ready["pages"],
                "buffer_frames": host.ready["buffer_frames"],
                "durability": "WAL, fsync per commit, no periodic checkpoint",
                "wal_filesystem": common.filesystem_of(scratch),
                "clients": 1,
            },
        }
    finally:
        if client is not None:
            client.close()
        if host is not None:
            host.stop()
        shutil.rmtree(scratch, ignore_errors=True)
