"""Coverage for the answer/stat containers, errors, and misc edge cases."""

import pytest

from repro.core import EnumerationStats, RankedAnswer
from repro.core.heap import HeapStats
from repro.errors import (
    CyclicQueryError,
    DecompositionError,
    NotAStarQueryError,
    QueryError,
    RankingError,
    ReproError,
    SchemaError,
    WorkloadError,
)


class TestRankedAnswer:
    def test_unpacking(self):
        values, score = RankedAnswer((1, 2), 3.0)
        assert values == (1, 2) and score == 3.0

    def test_equality_and_hash(self):
        a = RankedAnswer((1,), 1.0)
        b = RankedAnswer((1,), 1.0)
        assert a == b and hash(a) == hash(b)
        assert a != RankedAnswer((2,), 1.0)

    def test_key_defaults_none(self):
        assert RankedAnswer((1,), 1.0).key is None


class TestEnumerationStats:
    def test_snapshot_shape(self):
        stats = EnumerationStats(HeapStats())
        snap = stats.snapshot()
        assert set(snap) == {
            "answers",
            "cells_created",
            "reducer_passes",
            "peak_pq_entries",
            "total_pq_operations",
            "preprocess_seconds",
            "reduce_seconds",
            "build_seconds",
            "enumerate_seconds",
            "join_rows",
        }

    def test_without_heap_stats(self):
        stats = EnumerationStats()
        assert stats.peak_pq_entries == 0
        assert stats.total_pq_operations == 0


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "cls",
        [
            SchemaError,
            QueryError,
            CyclicQueryError,
            NotAStarQueryError,
            DecompositionError,
            RankingError,
            WorkloadError,
        ],
    )
    def test_all_derive_from_repro_error(self, cls):
        assert issubclass(cls, ReproError)

    def test_cyclic_is_a_query_error(self):
        assert issubclass(CyclicQueryError, QueryError)
        assert issubclass(NotAStarQueryError, QueryError)


class TestLexIndexReduceEdgeCases:
    def test_cartesian_component(self):
        # Atoms sharing no variable with the seed must still be reduced
        # (they reach the seed through the cartesian join-tree edge).
        from repro.core import LexBacktrackEnumerator
        from repro.data import Database
        from repro.query import parse_query

        db = Database()
        db.add_relation("R", ("a", "b"), [(1, 1), (2, 2)])
        db.add_relation("S", ("c", "d"), [(5, 0), (6, 0)])
        q = parse_query("Q(a, c) :- R(a, b), S(c, d)")
        got = [x.values for x in LexBacktrackEnumerator(q, db)]
        assert got == [(1, 5), (1, 6), (2, 5), (2, 6)]

    def test_first_var_in_multiple_atoms(self):
        from repro.core import LexBacktrackEnumerator
        from repro.data import Database
        from repro.query import parse_query
        from repro.algorithms.naive import ranked_output
        from repro.core.ranking import LexRanking

        db = Database()
        db.add_relation("R", ("a", "b"), [(1, 1), (2, 1), (2, 2)])
        db.add_relation("S", ("a", "c"), [(1, 7), (2, 8)])
        q = parse_query("Q(a, c) :- R(a, b), S(a, c)")
        expected = [v for v, _ in ranked_output(q, db, LexRanking())]
        assert [x.values for x in LexBacktrackEnumerator(q, db)] == expected


class TestEnginePhaseAccounting:
    def test_join_and_sort_phases_sum_to_preprocess(self, paper_query, paper_db):
        from repro.algorithms import EngineBaseline

        engine = EngineBaseline(paper_query, paper_db).preprocess()
        assert engine.join_seconds >= 0
        assert engine.sort_seconds >= 0
        assert engine.join_seconds + engine.sort_seconds <= (
            engine.stats.preprocess_seconds + 1e-6
        )
