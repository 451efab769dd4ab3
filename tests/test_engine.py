"""Tests for the session layer: QueryEngine, PreparedPlan, caches, stats."""

import pytest

from repro.core import enumerate_ranked
from repro.core.ranking import (
    LexRanking,
    MaxRanking,
    MinRanking,
    ProductRanking,
    SumRanking,
)
from repro.data import Database
from repro.engine import LRUCache, QueryEngine
from repro.errors import QueryError, ReproError
from repro.query import parse_query


@pytest.fixture
def db():
    return Database.from_dict(
        {
            "R": (("a", "b"), [(1, 10), (2, 10), (3, 20), (1, 20)]),
            "S": (("a", "b"), [(1, 10), (9, 20), (10, 3)]),
            "T": (("a", "b"), [(10, 1), (20, 9)]),
        }
    )


STAR = "Q(a1, a2) :- R(a1, p), R(a2, p)"
PATH = "Q(x, w) :- R(x, y), S(y, z), T(z, w)"
TRIANGLE = "Q(x, y) :- R(x, y), S(y, z), T(z, x)"
UNION = "Q(x) :- R(x, y) ; Q(x) :- S(x, y)"


class TestLRUCache:
    def test_get_put_and_bound(self):
        evicted = []
        lru = LRUCache(2, on_evict=lambda k, v: evicted.append(k))
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        assert evicted == ["a"]
        assert lru.get("a") is None
        assert lru.get("b") == 2 and lru.get("c") == 3

    def test_get_refreshes_recency(self):
        lru = LRUCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")
        lru.put("c", 3)  # evicts "b", the least recently used
        assert "a" in lru and "c" in lru and "b" not in lru

    def test_overwrite_does_not_evict(self):
        evicted = []
        lru = LRUCache(2, on_evict=lambda k, v: evicted.append(k))
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 99)
        assert evicted == []
        assert lru.get("a") == 99

    def test_min_size_validated(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestCacheHitMiss:
    def test_plan_cache_hit_on_repeat(self, db):
        engine = QueryEngine(db)
        engine.execute(STAR, k=3)
        assert engine.stats.plan_misses == 1 and engine.stats.plan_hits == 0
        engine.execute(STAR, k=3)
        assert engine.stats.plan_hits == 1
        assert engine.stats.parse_hits == 1

    def test_distinct_queries_miss(self, db):
        engine = QueryEngine(db)
        engine.execute(STAR, k=2)
        engine.execute(PATH, k=2)
        assert engine.stats.plan_misses == 2 and engine.stats.plan_hits == 0
        assert engine.cached_plans == 2

    def test_method_and_knobs_are_part_of_the_fingerprint(self, db):
        engine = QueryEngine(db)
        engine.execute(STAR, k=2)
        engine.execute(STAR, k=2, epsilon=0.5)
        engine.execute(STAR, k=2, method="lex-backtrack")
        assert engine.stats.plan_misses == 3
        # k is an execution knob, not a plan knob: still a hit.
        engine.execute(STAR, k=4)
        assert engine.stats.plan_hits == 1

    def test_ranking_identity_keys_the_plan(self, db):
        engine = QueryEngine(db)
        ranking = SumRanking(descending=True)
        engine.execute(STAR, ranking, k=2)
        engine.execute(STAR, ranking, k=2)
        assert engine.stats.plan_hits == 1
        # A fresh equivalent object conservatively misses.
        engine.execute(STAR, SumRanking(descending=True), k=2)
        assert engine.stats.plan_misses == 2

    def test_unhashable_kwargs_are_uncacheable(self, db):
        engine = QueryEngine(db)
        q = parse_query(STAR)
        from repro.algorithms.yannakakis import atom_instances

        instances = atom_instances(q, db)
        baseline = [a.values for a in engine.execute(q, k=2)]
        got = [a.values for a in engine.execute(q, k=2, instances=instances)]
        engine.execute(q, k=2, instances=instances)
        assert engine.stats.uncacheable == 2
        assert engine.cached_plans == 1  # only the kwarg-free plan is cached
        assert got == baseline

    def test_prebuilt_join_tree_kwarg_is_cacheable(self, db):
        from repro.query import build_join_tree

        engine = QueryEngine(db)
        q = parse_query(STAR)
        tree = build_join_tree(q)
        first = [a.values for a in engine.execute(q, k=3, join_tree=tree)]
        second = [a.values for a in engine.execute(q, k=3, join_tree=tree)]
        assert engine.stats.plan_hits == 1
        assert first == second

    def test_parse_cache_returns_same_object(self, db):
        engine = QueryEngine(db)
        assert engine.parse(STAR) is engine.parse(STAR)

    def test_bad_query_raises_repro_error(self, db):
        engine = QueryEngine(db)
        with pytest.raises(ReproError):
            engine.execute("garbage", k=1)


class TestLRUEviction:
    def test_plan_eviction_is_counted_and_replans(self, db):
        engine = QueryEngine(db, max_plans=1)
        engine.execute(STAR, k=2)
        engine.execute(PATH, k=2)  # evicts the STAR plan
        assert engine.stats.plan_evictions == 1
        engine.execute(STAR, k=2)  # replans after eviction
        assert engine.stats.plan_misses == 3
        assert engine.cached_plans == 1

    def test_query_text_eviction(self, db):
        engine = QueryEngine(db, max_queries=1)
        engine.parse(STAR)
        engine.parse(PATH)
        assert engine.stats.query_evictions == 1


class TestInvalidation:
    def test_relation_add_maintains_warm_state(self, db):
        # A write drops the warm reduction; the next execution rebuilds
        # it, and the plan is warm again for the one after.
        engine = QueryEngine(db)
        engine.execute(STAR)
        prepared = engine.prepare(STAR)
        assert prepared.is_warm
        db["R"].add((7, 10))
        answers = engine.execute(STAR)
        assert engine.stats.invalidations == 1
        assert engine.stats.delta_applies == 0
        assert prepared.is_warm
        cold = enumerate_ranked(parse_query(STAR), db)
        assert [a.values for a in answers] == [a.values for a in cold]
        assert any(a.values == (7, 7) for a in answers)

    def test_relation_extend_refreshes(self, db):
        engine = QueryEngine(db)
        engine.execute(PATH)
        db["S"].extend([(2, 10), (3, 10)])
        answers = engine.execute(PATH)
        cold = enumerate_ranked(parse_query(PATH), db)
        assert [a.values for a in answers] == [a.values for a in cold]
        assert engine.stats.invalidations == 1
        assert engine.stats.delta_applies == 0

    def test_database_add_relation_invalidates(self, db):
        engine = QueryEngine(db)
        engine.execute(STAR)
        db.add_relation("U", ("a",), [(1,)])
        engine.execute(STAR)
        assert engine.stats.invalidations == 1

    def test_generation_counters_monotone(self, db):
        g0 = db.generation
        db["R"].add((5, 5))
        g1 = db.generation
        db.add_relation("V", ("x",), [(0,)])
        g2 = db.generation
        assert g0 < g1 < g2

    def test_explicit_invalidate_drops_warm_state(self, db):
        engine = QueryEngine(db)
        engine.execute(STAR)
        prepared = engine.prepare(STAR)
        assert prepared.is_warm
        engine.invalidate()
        assert not prepared.is_warm
        answers = engine.execute(STAR, k=3)
        cold = enumerate_ranked(parse_query(STAR), db, k=3)
        assert [a.values for a in answers] == [a.values for a in cold]

    def test_clear_caches(self, db):
        engine = QueryEngine(db)
        engine.execute(STAR)
        engine.clear_caches()
        assert engine.cached_plans == 0 and engine.cached_queries == 0


class TestWarmMatchesCold:
    @pytest.mark.parametrize("text", [STAR, PATH, TRIANGLE, UNION])
    def test_default_ranking(self, db, text):
        engine = QueryEngine(db)
        first = [(a.values, a.score) for a in engine.execute(text)]
        second = [(a.values, a.score) for a in engine.execute(text)]
        cold = [(a.values, a.score) for a in enumerate_ranked(parse_query(text), db)]
        assert first == second == cold

    @pytest.mark.parametrize(
        "ranking_factory",
        [
            lambda: SumRanking(),
            lambda: SumRanking(descending=True),
            lambda: MinRanking(),
            lambda: MaxRanking(),
            lambda: ProductRanking(),
            lambda: LexRanking(),
            lambda: LexRanking(descending=("a1",)),
        ],
    )
    def test_rankings_on_star(self, db, ranking_factory):
        engine = QueryEngine(db)
        ranking = ranking_factory()
        first = [(a.values, a.score) for a in engine.execute(STAR, ranking)]
        second = [(a.values, a.score) for a in engine.execute(STAR, ranking)]
        cold = [
            (a.values, a.score)
            for a in enumerate_ranked(parse_query(STAR), db, ranking_factory())
        ]
        assert first == second == cold

    def test_star_tradeoff_epsilon(self, db):
        engine = QueryEngine(db)
        first = [a.values for a in engine.execute(STAR, epsilon=0.5)]
        second = [a.values for a in engine.execute(STAR, epsilon=0.5)]
        cold = [a.values for a in enumerate_ranked(parse_query(STAR), db, epsilon=0.5)]
        assert first == second == cold

    def test_warm_after_lru_churn_still_correct(self, db):
        engine = QueryEngine(db, max_plans=1)
        baseline = [a.values for a in engine.execute(STAR)]
        engine.execute(PATH)
        again = [a.values for a in engine.execute(STAR)]
        assert baseline == again


class TestEngineSurface:
    def test_stream_is_one_shot_enumerator(self, db):
        engine = QueryEngine(db)
        enum = engine.stream(STAR)
        top = enum.top_k(2)
        assert len(top) == 2
        assert engine.last_enumerator is enum

    def test_explain_reports_cache_state(self, db):
        engine = QueryEngine(db)
        info = engine.explain(STAR)
        assert info["algorithm"] == "AcyclicRankedEnumerator"
        assert info["query class"] == "acyclic"
        assert info["cached plan"] is False
        info2 = engine.explain(STAR)
        assert info2["cached plan"] is True

    def test_explain_parses_once(self, db):
        engine = QueryEngine(db)
        engine.explain(STAR)
        assert engine.stats.parse_misses == 1
        assert engine.stats.parse_hits == 0

    def test_union_plan_survives_parse_cache_eviction(self, db):
        # UnionQuery hashes by value, so the plan fingerprint matches even
        # after the parsed-text entry is evicted and the text re-parsed.
        engine = QueryEngine(db, max_queries=1)
        engine.execute(UNION, k=2)
        engine.parse(STAR)  # evicts the UNION text from the parse cache
        engine.execute(UNION, k=2)
        assert engine.stats.plan_hits == 1
        assert engine.cached_plans == 1

    def test_add_relation_convenience(self):
        engine = QueryEngine()
        engine.add_relation("R", ("a", "b"), [(1, 2)])
        assert engine.db.size == 1

    def test_stats_snapshot_and_reset(self, db):
        engine = QueryEngine(db)
        engine.execute(STAR, k=1)
        snap = engine.stats.snapshot()
        assert snap["executions"] == 1
        (timing,) = snap["per_query"].values()
        assert timing["count"] == 1
        assert timing["total_seconds"] >= 0
        engine.stats.reset()
        assert engine.stats.snapshot()["executions"] == 0

    def test_per_query_timings_not_conflated_by_head_name(self, db):
        # Both queries name their head Q; timings must still bucket apart.
        engine = QueryEngine(db)
        engine.execute(STAR, k=1)
        engine.execute(PATH, k=1)
        assert len(engine.stats.per_query) == 2

    def test_warm_state_rebinds_on_database_swap(self, db):
        # A different database with an *equal* generation must not be
        # served from the old database's warm instances.
        engine = QueryEngine(db)
        engine.execute(STAR)
        db2 = Database.from_dict(
            {
                "R": (("a", "b"), [(8, 30), (9, 30), (3, 20), (1, 20)]),
                "S": (("a", "b"), [(1, 10), (9, 20), (10, 3)]),
                "T": (("a", "b"), [(10, 1), (20, 9)]),
            }
        )
        assert db2.generation == db.generation
        engine.db = db2
        answers = [a.values for a in engine.execute(STAR)]
        truth = [a.values for a in enumerate_ranked(parse_query(STAR), db2)]
        assert answers == truth
        assert (8, 9) in answers  # data only db2 has

    def test_prepare_returns_reusable_plan(self, db):
        engine = QueryEngine(db)
        prepared = engine.prepare(PATH)
        assert prepared is engine.prepare(PATH)
        enum1 = prepared.make_enumerator(db)
        enum2 = prepared.make_enumerator(db)
        assert [a.values for a in enum1.all()] == [a.values for a in enum2.all()]
        assert prepared.executions == 2

    def test_union_with_method_override_raises(self, db):
        engine = QueryEngine(db)
        with pytest.raises(QueryError):
            engine.execute(UNION, method="ghd")


class TestContainsCache:
    def test_large_relation_contains_cached_and_invalidated(self):
        from repro.data import Relation

        rel = Relation("R", ("a",), [(i,) for i in range(100)])
        assert (5,) in rel
        assert rel._store._row_set is not None  # cache built past the 64-row cutoff
        assert (100,) not in rel
        rel.add((100,))
        assert rel._store._row_set is None  # invalidated on mutation
        assert (100,) in rel

    def test_small_relation_skips_the_cache(self):
        from repro.data import Relation

        rel = Relation("R", ("a",), [(1,), (2,)])
        assert (1,) in rel and (3,) not in rel
        assert rel._store._row_set is None
