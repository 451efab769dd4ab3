"""Tests for GHD-based cyclic enumeration (Theorem 3)."""

import random

import pytest

from repro.algorithms.naive import ranked_output
from repro.core import CyclicRankedEnumerator
from repro.core.ranking import LexRanking, SumRanking
from repro.data import Database
from repro.errors import DecompositionError
from repro.query import find_ghd, parse_query

from conftest import random_db_for

CYCLIC_SHAPES = [
    "Q(x, y) :- R(x, y), S(y, z), T(z, x)",                     # triangle
    "Q(a, c) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a)",            # 4-cycle / butterfly
    "Q(a, d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,e), R5(e,f), R6(f,a)",  # 6-cycle
]


class TestCorrectness:
    @pytest.mark.parametrize("shape", CYCLIC_SHAPES)
    def test_matches_oracle_sum(self, shape):
        rng = random.Random(hash(shape) % 1000)
        q = parse_query(shape)
        for _ in range(20):
            db = random_db_for(q, rng, max_rows=8, domain=3)
            expected = ranked_output(q, db)
            got = [(a.values, a.score) for a in CyclicRankedEnumerator(q, db)]
            assert got == expected

    def test_matches_oracle_lex(self):
        rng = random.Random(55)
        q = parse_query(CYCLIC_SHAPES[0])
        for _ in range(20):
            db = random_db_for(q, rng, max_rows=8, domain=3)
            expected = ranked_output(q, db, LexRanking())
            got = [
                (a.values, a.score)
                for a in CyclicRankedEnumerator(q, db, LexRanking())
            ]
            assert got == expected

    def test_bowtie_shape(self):
        rng = random.Random(56)
        q = parse_query(
            "Q(a, b) :- E(c,p1), E(a,p1), E(a,p2), E(c,p2), "
            "E(c,q1), E(b,q1), E(b,q2), E(c,q2)"
        )
        for _ in range(5):
            db = random_db_for(q, rng, max_rows=8, domain=3)
            expected = ranked_output(q, db)
            got = [(a.values, a.score) for a in CyclicRankedEnumerator(q, db)]
            assert got == expected

    def test_acyclic_query_also_works(self, paper_query, paper_db):
        # The GHD path degenerates gracefully on acyclic inputs.
        got = [a.values for a in CyclicRankedEnumerator(paper_query, paper_db)]
        expected = [v for v, _ in ranked_output(paper_query, paper_db)]
        assert got == expected

    def test_descending(self):
        rng = random.Random(57)
        q = parse_query(CYCLIC_SHAPES[1])
        for _ in range(10):
            db = random_db_for(q, rng, max_rows=8, domain=3)
            rk = SumRanking(descending=True)
            expected = ranked_output(q, db, rk)
            got = [(a.values, a.score) for a in CyclicRankedEnumerator(q, db, rk)]
            assert got == expected


def _dense_db(q):
    """Every relation a near-complete graph on 4 values (many answers)."""
    rows = [(i, j) for i in range(4) for j in range(4) if (i + j) % 3]
    return Database.from_dict({a.relation: (("s", "t"), rows) for a in q.atoms})


class TestStructure:
    def test_materialised_tuples_counted(self):
        rng = random.Random(58)
        q = parse_query(CYCLIC_SHAPES[0])
        db = random_db_for(q, rng, max_rows=8, domain=3)
        enum = CyclicRankedEnumerator(q, db).preprocess()
        assert enum.materialised_tuples >= 0
        assert enum.inner_stats.cells_created >= 0

    def test_stats_roll_up_the_inner_enumerator(self):
        # A 4-cycle: the outer stats must show the inner acyclic
        # enumerator's answers, cells, heap work and build time.
        q = parse_query(CYCLIC_SHAPES[1])
        db = _dense_db(q)
        enum = CyclicRankedEnumerator(q, db)
        answers = enum.all()
        assert answers
        stats, inner = enum.stats, enum.inner_stats
        assert stats.answers == inner.answers == len(answers)
        assert stats.cells_created == inner.cells_created > 0
        assert stats.heap_stats.pops == inner.heap_stats.pops > 0
        assert stats.heap_stats.pushes == inner.heap_stats.pushes
        assert stats.peak_pq_entries == inner.peak_pq_entries > 0
        assert len(stats.pq_ops_per_answer) == len(answers)
        assert stats.build_seconds == inner.build_seconds > 0
        assert stats.reduce_seconds >= inner.reduce_seconds
        snap = stats.snapshot()
        assert snap["answers"] == len(answers)
        assert snap["total_pq_operations"] == inner.total_pq_operations

    def test_stats_count_a_partial_stream(self):
        q = parse_query(CYCLIC_SHAPES[1])
        db = _dense_db(q)
        full = CyclicRankedEnumerator(q, db).all()
        assert len(full) > 2
        enum = CyclicRankedEnumerator(q, db)
        assert len(enum.top_k(2)) == 2
        assert enum.stats.answers == 2
        assert enum.stats.cells_created == enum.inner_stats.cells_created

    def test_explicit_ghd_accepted(self):
        q = parse_query(CYCLIC_SHAPES[0])
        ghd = find_ghd(q)
        rng = random.Random(59)
        db = random_db_for(q, rng, max_rows=6, domain=3)
        got = [a.values for a in CyclicRankedEnumerator(q, db, ghd=ghd)]
        assert got == [v for v, _ in ranked_output(q, db)]

    def test_foreign_ghd_rejected(self):
        q1 = parse_query(CYCLIC_SHAPES[0])
        q2 = parse_query(CYCLIC_SHAPES[1])
        rng = random.Random(60)
        db = random_db_for(q1, rng)
        with pytest.raises(DecompositionError):
            CyclicRankedEnumerator(q1, db, ghd=find_ghd(q2))

    def test_one_shot_and_fresh(self):
        q = parse_query(CYCLIC_SHAPES[0])
        rng = random.Random(61)
        db = random_db_for(q, rng, max_rows=6, domain=3)
        enum = CyclicRankedEnumerator(q, db)
        first = [a.values for a in enum]
        with pytest.raises(DecompositionError):
            enum.all()
        assert [a.values for a in enum.fresh()] == first

    def test_top_k(self):
        q = parse_query(CYCLIC_SHAPES[1])
        rng = random.Random(62)
        db = random_db_for(q, rng, max_rows=10, domain=3)
        full = [v for v, _ in ranked_output(q, db)]
        got = [a.values for a in CyclicRankedEnumerator(q, db).top_k(3)]
        assert got == full[:3]
