"""Unit tests for the fuzzer's generators, shrinker, corpus format, CLI."""

import random

import pytest

from repro.fuzz import (
    Case,
    FaultSpec,
    PredicateSpec,
    QuerySpec,
    WorldSpec,
    build_database,
    case_from_json,
    case_to_json,
    check,
    random_batch,
    random_query,
    random_world,
    save_repro,
    load_repro,
    shrink_case,
)
from repro.fuzz.__main__ import main
from repro.fuzz.worldgen import MAX_COUNT


class TestWorldGeneration:
    def test_deterministic_per_seed(self):
        a = random_world(random.Random("w:1"))
        b = random_world(random.Random("w:1"))
        assert a == b

    def test_distinct_across_seeds(self):
        worlds = {random_world(random.Random(f"w:{i}")).to_dict().__str__()
                  for i in range(8)}
        assert len(worlds) > 1

    def test_populations_bounded(self):
        for i in range(10):
            world = random_world(random.Random(i))
            assert all(0 < t.count <= MAX_COUNT for t in world.types)

    def test_json_round_trip(self):
        world = random_world(random.Random("rt"))
        assert WorldSpec.from_dict(world.to_dict()) == world

    def test_builds_running_database(self):
        world = random_world(random.Random("db"))
        db = build_database(world)
        collection, _ = world.collections()[0]
        assert len(db.query(f"SELECT * FROM x IN {collection}").rows) >= 0


class TestQueryGeneration:
    def test_deterministic_per_seed(self):
        world = random_world(random.Random("w"))
        a = random_query(random.Random("q:1"), world)
        b = random_query(random.Random("q:1"), world)
        assert a == b and a.render() == b.render()

    def test_json_round_trip(self):
        world = random_world(random.Random("w"))
        for i in range(20):
            query = random_query(random.Random(i), world)
            again = QuerySpec.from_dict(query.to_dict())
            assert again == query
            assert again.render() == query.render()

    def test_reference_accepts_generated_queries(self):
        world = random_world(random.Random("accept"))
        db = build_database(world)
        accepted = 0
        for i in range(15):
            query = random_query(random.Random(i), world)
            db.query(query.render(), use_cache=False)
            accepted += 1
        assert accepted == 15


class TestShrinker:
    def test_drops_irrelevant_predicates(self):
        world = random_world(random.Random("shrink"))
        query = random_query(random.Random("shrink-q"), world)
        target = PredicateSpec(("x", "s0"), "==", 1)
        query = QuerySpec(
            ranges=query.ranges[:1],
            predicates=(PredicateSpec(("x", "s1"), "<", 3), target),
        )
        # Synthetic oracle: the case "fails" while the target survives.
        shrunk = shrink_case(
            Case(world, query=query), lambda c: target in c.query.predicates
        )
        assert shrunk.query.predicates == (target,)
        assert shrunk.query.order_path is None
        # World shrinking keeps only types the query still touches.
        assert len(shrunk.world.types) <= len(world.types)

    def test_result_still_fails(self):
        world = random_world(random.Random("sf"))
        query = random_query(random.Random("sf-q"), world)
        fails = lambda c: len(c.world.types) > 0
        shrunk = shrink_case(Case(world, query=query), fails)
        assert fails(shrunk)

    def test_drops_irrelevant_statements(self):
        world = random_world(random.Random("shrink-dml"))
        batch = random_batch(random.Random("shrink-dml-b"), world)
        target = batch.ops[-1]
        shrunk = shrink_case(
            Case(world, batch=batch), lambda c: target in c.batch.ops
        )
        assert shrunk.batch.ops == (target,)


class TestCorpusFormat:
    def test_save_load_round_trip(self, tmp_path):
        world = random_world(random.Random("c"))
        query = random_query(random.Random("c-q"), world)
        case = Case(world, query=query)
        path = save_repro(tmp_path, case, note="unit test")
        assert load_repro(path) == case

    def test_content_hashed_idempotent(self, tmp_path):
        world = random_world(random.Random("c"))
        query = random_query(random.Random("c-q"), world)
        case = Case(world, query=query)
        first = save_repro(tmp_path, case, note="one")
        second = save_repro(tmp_path, case, note="two")
        assert first == second  # re-finding the same bug rewrites in place
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_document_carries_readable_query(self):
        world = random_world(random.Random("c"))
        query = random_query(random.Random("c-q"), world)
        case = Case(world, query=query)
        document = case_to_json(case, note="n")
        assert document["query_text"] == query.render()
        assert case_from_json(document) == case

    def test_chaos_case_round_trips_and_replays_faulted(self, tmp_path):
        world = random_world(random.Random("c"))
        query = random_query(random.Random("c-q"), world)
        case = Case(
            world, query=query, fault=FaultSpec(7, 0.2, "compiled")
        )
        path = save_repro(tmp_path, case, note="chaos")
        loaded = load_repro(path)
        assert loaded == case
        # The saved plan is not a fault-free differential case: the
        # replay is the faulted run, which either matched or failed typed.
        tallies = check(loaded).tallies
        assert tallies["matched"] + tallies["typed_failures"] == 1
        # A fault-free twin must not collide with the chaos repro.
        assert save_repro(tmp_path, Case(world, query=query)) != path

    def test_reference_flags_round_trip(self, tmp_path):
        world = random_world(random.Random("c"))
        query = random_query(random.Random("c-q"), world)
        case = Case(world, query=query, feedback=True, no_rewrites=True)
        loaded = load_repro(save_repro(tmp_path, case))
        assert loaded == case
        config = loaded.build().config
        assert config.feedback and not config.rewrites


class TestCli:
    @pytest.mark.parametrize(
        "mix", [["--dml", "--chaos"], ["--crash", "--dml"], ["--chaos", "--crash"]]
    )
    def test_rejects_mode_mix(self, mix, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*mix, "--iterations", "1"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--queries-per-world", "--parallelism", "--ops-per-batch", "--fault-rate"],
    )
    def test_single_value_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            main([flag, "1", "--iterations", "1"])
