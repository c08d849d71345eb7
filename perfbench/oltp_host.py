"""The database host of ``oltp_served``: one child process per world.

Run as ``python3 perfbench/oltp_host.py --wal DIR``.  It builds the
scale-1.0 Table 1 world with the paper's indexes, turns durability on in
``DIR`` (the WAL fsyncs every commit; no periodic checkpoint), starts a
:class:`~repro.server.DatabaseServer` on a loopback port and prints one
JSON line ``{"ready": true, "port": ...}``.  The load generator then
talks to the server over TCP, and to this process over stdin/stdout,
one JSON object per line, for what is not the program's business:

* ``pools`` — seeded constants sampled from the data;
* ``trace_on`` / ``trace_off`` — install the layer spans, and report them
  with storage and plan-cache deltas;
* ``rss`` — this process's peak resident set size;
* ``reference`` — naive-plan digests of a list of statements;
* ``stop`` — stop the server and exit.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

common.require_source()

import streams  # noqa: E402
from tracing import LayerTracer  # noqa: E402

SCALE = 1.0


def serve(wal_dir: str) -> None:
    from repro.server import DatabaseServer

    db = common.build_world(SCALE, durable_dir=wal_dir)
    server = DatabaseServer(db, port=0, max_concurrent=8, max_wait_ms=60_000.0)
    _, port = server.start()
    reply = {
        "ready": True,
        "port": port,
        "pages": db.store.total_pages(),
        "buffer_frames": db.store.buffer.capacity,
    }
    tracer = None
    baseline = None
    try:
        while True:
            print(json.dumps(reply), flush=True)
            line = sys.stdin.readline()
            if not line:
                return
            request = json.loads(line)
            op = request["op"]
            if op == "pools":
                reply = streams.oltp_pools(request["seed"], db)
            elif op == "trace_on":
                baseline = common.program_counters(db)
                tracer = LayerTracer().install()
                reply = {"ok": True}
            elif op == "trace_off":
                tracer.remove()
                reply = {
                    "summary": tracer.summary(),
                    "io": common.counter_delta(baseline, common.program_counters(db)),
                }
            elif op == "rss":
                reply = {"peak_rss_mb": common.peak_rss_mb()}
            elif op == "reference":
                reply = {
                    text: common.naive_digest(db, text) for text in request["texts"]
                }
            elif op == "stop":
                return
            else:
                reply = {"error": f"unknown op {op!r}"}
    finally:
        server.stop(drain=False)
        db.durability.wal.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--wal", required=True, help="durability directory")
    serve(parser.parse_args().wal)


if __name__ == "__main__":
    main()
