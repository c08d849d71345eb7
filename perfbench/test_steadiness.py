"""Steadiness self-test of the benchmark.

Run from the repository root: ``python -m pytest perfbench -q``.

* The same seed gives the same statement stream; another seed gives
  another stream.
* With one client, the program's exact counters (page reads, buffer
  traffic, memo groups, rule applications, index builds, fsyncs) repeat
  exactly for the same seed and statement count on every workload.
* The ``oltp_served`` cycle puts each index rebuild where its docstring
  says, so every reported percentile falls inside one latency class.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.require_source()

import run  # noqa: E402
import streams  # noqa: E402

#: Per-layer counters that must repeat exactly with one client.
EXACT = (
    "storage.page_reads",
    "storage.buffer_hits",
    "storage.buffer_misses",
    "storage.index_builds",
    "optimizer.memo_groups",
    "optimizer.mexprs",
    "optimizer.rule_applications",
    "optimizer.candidates_costed",
    "durability.fsyncs_per_commit",
    "engine.rows_out",
)


def test_metrics_match_benchmark_json():
    from tracing import LAYER_METRICS

    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def small_world():
    return common.build_world(0.02)


@pytest.fixture(scope="module")
def paper_world():
    return common.build_world(1.0)


def _take(stream, n: int = 40) -> list:
    return list(itertools.islice(stream, n))


def test_paper_scan_stream_is_seeded(paper_world):
    first = _take(streams.paper_scan(7, paper_world), 3)
    assert first == _take(streams.paper_scan(7, paper_world), 3)
    assert first != _take(streams.paper_scan(8, paper_world), 3)


def test_adhoc_suite_is_fixed_and_constants_seeded(small_world):
    suite = streams.AdhocSuite(7, small_world)
    assert len(set(suite.shapes)) == streams.AdhocSuite.SIZE
    assert suite.shapes == streams.AdhocSuite(8, small_world).shapes
    first = _take(suite.rounds(), 2)
    assert first == _take(streams.AdhocSuite(7, small_world).rounds(), 2)
    assert first != _take(streams.AdhocSuite(8, small_world).rounds(), 2)
    assert first[0] != first[1]


def test_oltp_stream_is_seeded(small_world):
    pools = streams.oltp_pools(7, small_world)
    assert pools == streams.oltp_pools(7, small_world)
    stream = _take(streams.oltp_stream(7, pools), 200)
    assert stream == _take(streams.oltp_stream(7, pools), 200)
    assert stream != _take(streams.oltp_stream(8, streams.oltp_pools(8, small_world)), 200)
    written = {write[0] for _, _, write in stream if write}
    assert written and written <= set(pools["write_keys"])


@pytest.mark.parametrize("workload", ["paper_scan", "adhoc_plan"])
def test_exact_counters_repeat(workload):
    runs = [run.run_workload(workload, 11, 0, True, 1) for _ in range(2)]
    for result in runs:
        assert not result["problems"], result["problems"]
        assert result["failed"] == 0
    first, second = (result["layers"] for result in runs)
    for name in EXACT:
        assert first[name] == second[name], name
    assert first["storage.page_reads"] > 0
    if workload == "adhoc_plan":
        assert first["optimizer.memo_groups"] > 0
        assert first["cache.hit_ratio"] < 0.1
    else:
        assert first["cache.hit_ratio"] == 1.0


def test_oltp_cycle_places_rebuilds():
    """Replay the cycle twice, tracking whether the Cities index is stale.

    The first statement after a write that probes ``Cities.mayor.name``
    (a write, Q2 or Q3; Q4 probes Tasks) rebuilds it.
    """
    stale = False  # the warm-up statements built the index
    rebuilt = {"W": 0, "read": 0}
    count = {"W": 0, "read": 0}
    for shape in streams.OLTP_CYCLE * 2:
        kind = "W" if shape == "W" else "read"
        count[kind] += 1
        if shape != "Q4":
            rebuilt[kind] += stale
            stale = False
        stale |= shape == "W"
    assert (rebuilt["W"], count["W"]) == (2, 6)
    assert (rebuilt["read"], count["read"]) == (4, 24)


def test_oltp_counters_repeat():
    runs = [run.run_workload("oltp_served", 11, 0, True, 15) for _ in range(2)]
    for result in runs:
        assert not result["problems"], result["problems"]
        assert result["failed"] == 0
    first, second = (result["layers"] for result in runs)
    for name in EXACT:
        assert first[name] == second[name], name
    assert first["durability.fsyncs_per_commit"] == 1.0
    assert first["storage.index_builds"] > 0
