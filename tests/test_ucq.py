"""Tests for ranked union enumeration (Theorem 4)."""

import random

import pytest

from repro.algorithms.naive import ranked_union_output
from repro.core import AcyclicRankedEnumerator, UnionRankedEnumerator
from repro.core.ranking import LexRanking, SumRanking
from repro.data import Database
from repro.errors import QueryError
from repro.query import parse_query

UNION_SHAPES = [
    "Q(x, y) :- R(x, p), S(y, p) ; Q(x, y) :- S(x, p), R(y, p)",
    "Q(x) :- R(x, y) ; Q(x) :- S(x, y) ; Q(x) :- R(y, x)",
    "Q(x, y) :- R(x, y) ; Q(x, y) :- R(x, p), R(y, p)",
]


def random_union_db(union, rng):
    db = Database()
    names = sorted({a.relation for b in union.branches for a in b.atoms})
    for name in names:
        rows = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(0, 9))]
        db.add_relation(name, ("c0", "c1"), rows)
    return db


class TestCorrectness:
    @pytest.mark.parametrize("shape", UNION_SHAPES)
    def test_matches_oracle(self, shape):
        rng = random.Random(hash(shape) % 997)
        union = parse_query(shape)
        for _ in range(25):
            db = random_union_db(union, rng)
            for rk in (SumRanking(), SumRanking(descending=True), LexRanking()):
                expected = ranked_union_output(union, db, rk)
                got = [(a.values, a.score) for a in UnionRankedEnumerator(union, db, rk)]
                assert got == expected

    def test_overlapping_branches_deduplicated(self):
        # Both branches produce the same tuples: union must emit each once.
        union = parse_query("Q(x) :- R(x, y) ; Q(x) :- R(x, z)")
        db = Database.from_dict({"R": (("a", "b"), [(1, 1), (2, 2)])})
        got = [a.values for a in UnionRankedEnumerator(union, db)]
        assert got == [(1,), (2,)]

    def test_cyclic_branch_supported(self):
        union = parse_query(
            "Q(x, y) :- R(x, y), S(y, z), T(z, x) ; Q(x, y) :- R(x, y)"
        )
        rng = random.Random(3)
        db = random_union_db(union, rng)
        expected = ranked_union_output(union, db)
        got = [(a.values, a.score) for a in UnionRankedEnumerator(union, db)]
        assert got == expected

    def test_top_k(self):
        union = parse_query(UNION_SHAPES[0])
        rng = random.Random(4)
        db = random_union_db(union, rng)
        full = [v for v, _ in ranked_union_output(union, db)]
        got = [a.values for a in UnionRankedEnumerator(union, db).top_k(3)]
        assert got == full[:3]


class TestInterface:
    def test_requires_union_query(self, paper_query, paper_db):
        with pytest.raises(QueryError):
            UnionRankedEnumerator(paper_query, paper_db)

    def test_custom_branch_factory(self):
        union = parse_query("Q(x) :- R(x, y) ; Q(x) :- S(x, y)")
        db = Database.from_dict(
            {"R": (("a", "b"), [(2, 0)]), "S": (("a", "b"), [(1, 0)])}
        )
        built = []

        def factory(query, database, ranking):
            built.append(query.name)
            return AcyclicRankedEnumerator(query, database, ranking)

        got = [a.values for a in UnionRankedEnumerator(union, db, branch_factory=factory)]
        assert got == [(1,), (2,)]
        assert built == ["Q", "Q"]

    def test_one_shot_and_fresh(self):
        union = parse_query("Q(x) :- R(x, y) ; Q(x) :- S(x, y)")
        db = Database.from_dict(
            {"R": (("a", "b"), [(2, 0)]), "S": (("a", "b"), [(1, 0)])}
        )
        enum = UnionRankedEnumerator(union, db)
        first = [a.values for a in enum]
        with pytest.raises(QueryError):
            enum.all()
        assert [a.values for a in enum.fresh()] == first

    def test_stats(self):
        union = parse_query("Q(x) :- R(x, y) ; Q(x) :- S(x, y)")
        db = Database.from_dict(
            {"R": (("a", "b"), [(2, 0)]), "S": (("a", "b"), [(1, 0)])}
        )
        enum = UnionRankedEnumerator(union, db)
        enum.all()
        assert enum.stats.answers == 2
        assert enum.stats.preprocess_seconds >= 0

    def test_stats_roll_up_the_branches(self):
        union = parse_query(UNION_SHAPES[0])
        db = random_union_db(union, random.Random(7))
        enum = UnionRankedEnumerator(union, db)
        answers = enum.all()
        assert answers
        branches = [b.stats for b in enum._branches]
        merge = enum._merge_stats
        stats = enum.stats
        assert stats.answers == len(answers)
        assert stats.cells_created == sum(b.cells_created for b in branches) > 0
        assert stats.heap_stats.pushes == merge.pushes + sum(
            b.heap_stats.pushes for b in branches
        )
        assert stats.heap_stats.pops == merge.pops + sum(b.heap_stats.pops for b in branches)
        assert stats.heap_stats.pops > merge.pops
        assert stats.peak_pq_entries == merge.peak_entries + sum(
            b.peak_pq_entries for b in branches
        )
        assert stats.build_seconds == sum(b.build_seconds for b in branches) > 0
        assert stats.reduce_seconds == sum(b.reduce_seconds for b in branches)
        # The first answer's operations include priming the merge heap
        # with every branch's first answer, not only the merge pop.
        nonempty = sum(1 for b in branches if b.answers)
        assert stats.pq_ops_per_answer[0] >= 1 + nonempty
