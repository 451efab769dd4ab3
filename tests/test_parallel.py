"""Order preservation under partitioning: ``execute_parallel`` ==
serial ``enumerate_ranked`` — same answers, same order, same weights —
across query classes, shard counts, skew and backends."""

from __future__ import annotations

import random

import pytest

from repro.core.planner import enumerate_ranked
from repro.core.ranking import (
    LexRanking,
    MaxRanking,
    MinRanking,
    SumRanking,
    TableWeight,
)
from repro.data import Database
from repro.engine import QueryEngine
from repro.errors import ReproError
from repro.parallel import execute_sharded, merge_ranked_streams, stream_sharded
from repro.parallel.backends import open_shard_streams
from repro.core.answers import RankedAnswer
from repro.query import parse_query
from repro.workloads import (
    bipartite_cycle,
    make_dblp_like,
    star,
    three_hop,
    two_hop,
)


def pairs(answers):
    return [(a.values, a.score) for a in answers]


@pytest.fixture(scope="module")
def workload():
    return make_dblp_like(scale=0.05, seed=0)


def assert_parallel_matches_serial(
    query, db, ranking=None, *, shard_counts=(1, 2, 4), backend="serial", **kw
):
    serial = pairs(enumerate_ranked(query, db, ranking, **kw))
    for shards in shard_counts:
        par = pairs(
            execute_sharded(query, db, ranking, shards=shards, backend=backend, **kw)
        )
        assert par == serial, f"shards={shards} diverged from serial order"
    return serial


class TestOrderPreservation:
    """The ISSUE's property suite: acyclic, star and cyclic queries."""

    def test_acyclic_two_hop(self, workload):
        spec = two_hop()
        assert_parallel_matches_serial(
            spec.query, workload.db, workload.ranking(spec, kind="sum")
        )

    def test_acyclic_three_hop_with_projection_duplicates(self, workload):
        # a2/p1 are existential: the same head tuple arises in several
        # shards and must be de-duplicated by the merge.
        spec = three_hop()
        assert_parallel_matches_serial(
            spec.query, workload.db, workload.ranking(spec, kind="sum")
        )

    def test_star_query_with_epsilon(self, workload):
        spec = star(3)
        assert_parallel_matches_serial(
            spec.query,
            workload.db,
            workload.ranking(spec, kind="sum"),
            shard_counts=(1, 3),
            epsilon=0.5,
        )

    def test_cyclic_four_cycle(self, workload):
        spec = bipartite_cycle(4)
        assert_parallel_matches_serial(
            spec.query,
            workload.db,
            workload.ranking(spec, kind="sum"),
            shard_counts=(1, 3),
        )

    def test_union_query(self):
        db = Database()
        db.add_relation("R", ("a", "b"), [(i % 6, i) for i in range(30)])
        db.add_relation("S", ("a", "c"), [(i % 4, -i) for i in range(20)])
        q = parse_query("Q(x) :- R(x, y) ; Q(x) :- S(x, z)")
        assert_parallel_matches_serial(q, db)

    def test_lexicographic_ranking(self, workload):
        spec = two_hop()
        assert_parallel_matches_serial(
            spec.query, workload.db, workload.ranking(spec, kind="lex")
        )
        assert_parallel_matches_serial(
            spec.query, workload.db, LexRanking(descending=("a1",)), shard_counts=(3,)
        )

    def test_weakly_monotone_rankings(self, workload):
        spec = two_hop()
        for ranking in (MinRanking(), MaxRanking()):
            assert_parallel_matches_serial(
                spec.query, workload.db, ranking, shard_counts=(3,)
            )

    def test_descending_sum_with_weight_table(self):
        db = Database()
        db.add_relation("E", ("a", "p"), [(i % 9, i % 5) for i in range(60)])
        table = {v: float((v * 7) % 11) for v in range(9)}
        ranking = SumRanking(TableWeight({}, default_table=table), descending=True)
        q = parse_query("Q(a1, a2) :- E(a1, p), E(a2, p)")
        assert_parallel_matches_serial(q, db, ranking)

    def test_mixed_numeric_key_types_lose_nothing(self):
        # Regression: int 10 and float 10.0 are equal join values; if
        # they hashed differently, the witnesses would be split across
        # shards and the answer silently dropped.
        db = Database()
        db.add_relation("R", ("a", "p"), [(1, 10), (2, 11)])
        db.add_relation("S", ("p", "b"), [(10.0, 5), (11.0, 6)])
        q = parse_query("Q(a, b) :- R(a, p), S(p, b)")
        serial = assert_parallel_matches_serial(q, db, shard_counts=(2, 4))
        assert len(serial) == 2

    def test_plan_built_once_and_shipped_to_shards(self):
        # The rewritten query's plan is data-independent: the executor
        # must plan once, not once per shard per execution.
        from unittest import mock

        from repro.parallel import executor as executor_mod

        db = Database()
        db.add_relation("E", ("a", "p"), [(i, i % 3) for i in range(12)])
        q = parse_query("Q(a1, a2) :- E(a1, p), E(a2, p)")
        with mock.patch.object(
            executor_mod, "plan_query", wraps=executor_mod.plan_query
        ) as planner:
            execute_sharded(q, db, shards=4, backend="serial")
        assert planner.call_count == 1

    def test_warm_engine_parallel_execution_skips_planning(self):
        # The engine's cached parallel plan is the one shards execute:
        # a warm repeated execute_parallel plans nothing at all.
        from unittest import mock

        from repro.parallel import executor as executor_mod

        db = Database()
        db.add_relation("E", ("a", "p"), [(i, i % 3) for i in range(12)])
        engine = QueryEngine(db)
        q = "Q(a1, a2) :- E(a1, p), E(a2, p)"
        first = engine.execute_parallel(q, shards=3, backend="serial")
        with mock.patch.object(
            executor_mod, "plan_query", wraps=executor_mod.plan_query
        ) as planner:
            again = engine.execute_parallel(q, shards=3, backend="serial")
        assert again == first
        assert planner.call_count == 0  # prepared plan shipped to shards
        assert engine.stats.plan_hits >= 1  # parallel plan cache hit

    def test_skewed_keys_single_hot_shard(self):
        # Every join key hashes identically: one shard owns the whole
        # output, the others are empty — order must still be exact.
        db = Database()
        db.add_relation("E", ("a", "p"), [(i, 7) for i in range(12)])
        q = parse_query("Q(a1, a2) :- E(a1, p), E(a2, p)")
        assert_parallel_matches_serial(q, db, shard_counts=(1, 4))

    def test_top_k_prefix(self, workload):
        spec = two_hop()
        ranking = workload.ranking(spec, kind="sum")
        serial = pairs(enumerate_ranked(spec.query, workload.db, ranking))
        for k in (1, 10, 100):
            par = pairs(
                execute_sharded(
                    spec.query,
                    workload.db,
                    ranking,
                    shards=4,
                    backend="serial",
                    k=k,
                )
            )
            assert par == serial[:k]

    def test_random_instances_property_sweep(self):
        rng = random.Random(1234)
        q = parse_query("Q(x, z) :- R(x, y), S(y, z)")
        for trial in range(8):
            db = Database()
            db.add_relation(
                "R",
                ("x", "y"),
                [
                    (rng.randint(0, 6), rng.randint(0, 4))
                    for _ in range(rng.randint(0, 25))
                ],
            )
            db.add_relation(
                "S",
                ("y", "z"),
                [
                    (rng.randint(0, 4), rng.randint(0, 6))
                    for _ in range(rng.randint(0, 25))
                ],
            )
            assert_parallel_matches_serial(q, db, shard_counts=(1, 2, 3))


class TestBackends:
    @pytest.mark.slow
    def test_processes_backend_matches_serial(self, workload):
        spec = two_hop()
        assert_parallel_matches_serial(
            spec.query,
            workload.db,
            workload.ranking(spec, kind="sum"),
            shard_counts=(2,),
            backend="processes",
        )

    def test_unknown_backend_is_rejected(self, workload):
        spec = two_hop()
        with pytest.raises(ReproError):
            execute_sharded(
                spec.query, workload.db, shards=2, backend="quantum"
            )

    @pytest.mark.slow
    def test_stream_is_lazy_and_closable(self, workload):
        spec = two_hop()
        stream = stream_sharded(
            spec.query,
            workload.db,
            workload.ranking(spec, kind="sum"),
            shards=3,
            backend="processes",
        )
        first = next(stream)
        assert first.values is not None
        stream.close()  # must release worker resources without error

    @pytest.mark.slow
    def test_worker_error_propagates(self):
        # IdentityWeight over string values raises in the worker; the
        # consumer must see the original error type.
        from repro.errors import RankingError

        db = Database()
        db.add_relation("E", ("a", "p"), [("x", 1), ("y", 1)])
        q = parse_query("Q(a1, a2) :- E(a1, p), E(a2, p)")
        for backend in ("serial", "processes"):
            with pytest.raises(RankingError):
                execute_sharded(q, db, shards=2, backend=backend)


class TestMerge:
    def _answers(self, keys):
        return [RankedAnswer((k,), float(k), key=k) for k in keys]

    def test_merge_interleaves_sorted_streams(self):
        merged = merge_ranked_streams(
            [iter(self._answers([1, 4, 5])), iter(self._answers([2, 3, 6]))]
        )
        assert [a.values[0] for a in merged] == [1, 2, 3, 4, 5, 6]

    def test_merge_dedups_adjacent_equal_outputs(self):
        merged = merge_ranked_streams(
            [iter(self._answers([1, 2])), iter(self._answers([1, 3]))]
        )
        assert [a.values[0] for a in merged] == [1, 2, 3]

    def test_merge_without_dedup_keeps_duplicates(self):
        merged = merge_ranked_streams(
            [iter(self._answers([1])), iter(self._answers([1]))], dedup=False
        )
        assert [a.values[0] for a in merged] == [1, 1]

    def test_merge_rejects_keyless_answers(self):
        bad = [RankedAnswer((1,), 1.0, key=None)]
        with pytest.raises(ReproError):
            list(merge_ranked_streams([iter(bad)]))

    def test_empty_stream_set(self):
        assert list(merge_ranked_streams([])) == []
        assert open_shard_streams([]).streams == []


class TestEngineParallel:
    def test_execute_parallel_equals_execute(self, workload):
        engine = QueryEngine(workload.db)
        spec = two_hop()
        ranking = workload.ranking(spec, kind="sum")
        serial = engine.execute(spec.query, ranking)
        assert (
            engine.execute_parallel(spec.query, ranking, shards=3, backend="serial")
            == serial
        )

    def test_shards_one_falls_through_to_serial(self, workload):
        engine = QueryEngine(workload.db)
        spec = two_hop()
        before = engine.stats.partition_misses
        engine.execute_parallel(spec.query, shards=1)
        assert engine.stats.partition_misses == before

    def test_partition_cache_hits_and_invalidation(self):
        db = Database()
        db.add_relation("E", ("a", "p"), [(i, i % 3) for i in range(12)])
        engine = QueryEngine(db)
        q = "Q(a1, a2) :- E(a1, p), E(a2, p)"
        engine.execute_parallel(q, shards=2, backend="serial")
        engine.execute_parallel(q, shards=2, backend="serial")
        assert engine.stats.partition_misses == 1
        assert engine.stats.partition_hits == 1
        db["E"].add((99, 0))
        serial = engine.execute(q)
        assert engine.execute_parallel(q, shards=2, backend="serial") == serial
        assert engine.stats.partition_misses == 2

    def test_invalidate_drops_partitions(self):
        db = Database()
        db.add_relation("E", ("a", "p"), [(i, i % 3) for i in range(12)])
        engine = QueryEngine(db)
        q = "Q(a1, a2) :- E(a1, p), E(a2, p)"
        first = engine.execute_parallel(q, shards=2, backend="serial")
        engine.invalidate()
        assert engine.execute_parallel(q, shards=2, backend="serial") == first
        assert engine.stats.partition_hits == 0
        assert engine.stats.partition_misses == 2

    def test_explain_reports_partition_scheme(self, workload):
        engine = QueryEngine(workload.db)
        spec = two_hop()
        info = engine.explain(spec.query, shards=4)
        assert info["partition attribute"] == "p"
        assert info["shards"] == 4
        assert "parallel=hash(p) x 4 shards" in info["plan"]
        serial_info = engine.explain(spec.query)
        assert "partition attribute" not in serial_info
        assert "parallel" not in serial_info["plan"]

    def test_plan_describe_parallel_annotation(self):
        from repro import plan_query

        q = parse_query("Q(a1, a2) :- E(a1, p), E(a2, p)")
        plan = plan_query(q)
        par = plan.parallelised("p", 4)
        assert not plan.is_parallel
        assert par.is_parallel
        assert "hash(p) x 4 shards" in par.describe()
        assert "parallel" not in plan.describe()

    def test_execute_many_serial_backend(self):
        db = Database()
        db.add_relation("E", ("a", "p"), [(i, i % 3) for i in range(12)])
        engine = QueryEngine(db)
        queries = [
            "Q(a1, a2) :- E(a1, p), E(a2, p)",
            "Q(x) :- E(x, y)",
            "Q(a1, a2) :- E(a1, p), E(a2, p)",
        ]
        results = engine.execute_many(queries, backend="serial", k=5)
        assert results[0] == results[2]
        assert results[1] == engine.execute("Q(x) :- E(x, y)", k=5)
        assert engine.stats.batch_executions == 3
        # Repeated query in the batch hits the session plan cache.
        assert engine.stats.plan_hits > 0

    @pytest.mark.slow
    def test_execute_many_processes_backend(self):
        db = Database()
        db.add_relation("E", ("a", "p"), [(i, i % 3) for i in range(12)])
        engine = QueryEngine(db)
        queries = ["Q(a1, a2) :- E(a1, p), E(a2, p)", "Q(x) :- E(x, y)"]
        expected = [engine.execute(q) for q in queries]
        assert engine.execute_many(queries, backend="processes") == expected
