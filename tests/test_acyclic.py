"""Tests for the general acyclic enumerator (Theorem 1, Algorithms 1-2),
including an exact replay of the paper's running example."""

import random

import pytest

from repro.algorithms.naive import ranked_output
from repro.core import AcyclicRankedEnumerator
from repro.core.ranking import LexRanking, MaxRanking, MinRanking, SumRanking
from repro.data import Database
from repro.errors import QueryError
from repro.query import parse_query

from conftest import random_db_for


class TestPaperExample:
    """Examples 2, 4, 5 and Figure 3 of the paper."""

    def test_full_enumeration_order(self, paper_query, paper_db):
        got = [(a.values, a.score) for a in AcyclicRankedEnumerator(paper_query, paper_db, root="R3")]
        # SUM over (A, E) with identity weights; ties broken by tuple.
        assert got == [
            ((1, 1), 2.0),
            ((1, 2), 3.0),
            ((2, 1), 3.0),
            ((2, 2), 4.0),
            ((3, 1), 4.0),
            ((3, 2), 5.0),
        ]

    def test_first_answer_is_A1_E1(self, paper_query, paper_db):
        # Example 4: "The output tuple that can be formed by the root bag
        # is (A=1, E=1)."
        enum = AcyclicRankedEnumerator(paper_query, paper_db, root="R3")
        first = next(iter(enum))
        assert first.values == (1, 1)
        assert first.score == 2.0

    def test_preprocessing_queue_sizes_match_figure_3a(self, paper_query, paper_db):
        enum = AcyclicRankedEnumerator(paper_query, paper_db, root="R3").preprocess()
        pqs = {rt.alias: rt.pqs for rt in _walk(enum._root_rt)}
        # PQ1[1] holds (1,1),(2,1); PQ1[2] holds (1,2),(3,2).
        assert {k: len(v) for k, v in pqs["R1"].items()} == {(1,): 2, (2,): 2}
        # PQ2[1] holds both R2 tuples (anchor C = 1).
        assert {k: len(v) for k, v in pqs["R2"].items()} == {(1,): 2}
        # After the full reducer, R3 keeps only (1,1): one root entry.
        assert {k: len(v) for k, v in pqs["R3"].items()} == {(): 1}
        # PQ4[1] holds (1,1),(1,2).
        assert {k: len(v) for k, v in pqs["R4"].items()} == {(1,): 2}

    def test_dangling_tuple_removed(self, paper_query, paper_db):
        enum = AcyclicRankedEnumerator(paper_query, paper_db, root="R3").preprocess()
        root = enum._root_rt
        assert root.alias == "R3"
        rows = {cell.row for cell in root.pqs[()].items()}
        assert rows == {(1, 1)}  # (1, 2) was dangling

    def test_root_top_cell_structure(self, paper_query, paper_db):
        # Figure 3a: the root cell points at the tops of PQ2[1] and PQ4[1],
        # its partial score is 2 (A=1 plus E=1).
        enum = AcyclicRankedEnumerator(paper_query, paper_db, root="R3").preprocess()
        top = enum._root_rt.pqs[()].top()
        assert top.key == 2.0
        assert top.out == (1, 1)
        assert len(top.children) == 2

    def test_example5_second_iteration_outputs(self, paper_query, paper_db):
        # Example 5: after (A=1,E=1), the next candidates inserted are
        # (A=2,E=1) and (A=1,E=2) — they appear next (tie broken by tuple).
        answers = AcyclicRankedEnumerator(paper_query, paper_db, root="R3").top_k(3)
        assert [a.values for a in answers] == [(1, 1), (1, 2), (2, 1)]


def _walk(rt):
    yield rt
    for child in rt.children:
        yield from _walk(child)


class TestBasicBehaviour:
    def test_single_relation_projection(self):
        db = Database.from_dict({"R": (("a", "b"), [(2, 9), (1, 8), (2, 7)])})
        q = parse_query("Q(x) :- R(x, y)")
        got = [a.values for a in AcyclicRankedEnumerator(q, db)]
        assert got == [(1,), (2,)]

    def test_full_query_no_dedup_needed(self):
        db = Database.from_dict({"R": (("a", "b"), [(1, 2), (2, 1)])})
        q = parse_query("Q(x, y) :- R(x, y)")
        got = [(a.values, a.score) for a in AcyclicRankedEnumerator(q, db)]
        assert got == [((1, 2), 3.0), ((2, 1), 3.0)]

    def test_empty_database(self):
        db = Database.from_dict({"R": (("a", "b"), [])})
        q = parse_query("Q(x) :- R(x, y)")
        assert AcyclicRankedEnumerator(q, db).all() == []

    def test_empty_join(self):
        db = Database.from_dict(
            {"R": (("a", "b"), [(1, 1)]), "S": (("b", "c"), [(2, 2)])}
        )
        q = parse_query("Q(x, z) :- R(x, y), S(y, z)")
        assert AcyclicRankedEnumerator(q, db).all() == []

    def test_duplicate_input_rows_ignored(self):
        db = Database.from_dict({"R": (("a", "b"), [(1, 1), (1, 1), (1, 1)])})
        q = parse_query("Q(x) :- R(x, y)")
        assert [a.values for a in AcyclicRankedEnumerator(q, db)] == [(1,)]

    def test_top_k_stops_early(self, paper_query, paper_db):
        enum = AcyclicRankedEnumerator(paper_query, paper_db)
        assert len(enum.top_k(2)) == 2

    def test_top_k_zero(self, paper_query, paper_db):
        assert AcyclicRankedEnumerator(paper_query, paper_db).top_k(0) == []

    def test_one_shot_semantics(self, paper_query, paper_db):
        enum = AcyclicRankedEnumerator(paper_query, paper_db)
        enum.all()
        with pytest.raises(QueryError):
            enum.all()

    def test_fresh_re_enumerates(self, paper_query, paper_db):
        enum = AcyclicRankedEnumerator(paper_query, paper_db)
        first = enum.all()
        second = enum.fresh().all()
        assert [a.values for a in first] == [a.values for a in second]

    def test_descending_sum(self, paper_query, paper_db):
        asc = AcyclicRankedEnumerator(paper_query, paper_db, SumRanking()).all()
        desc = AcyclicRankedEnumerator(
            paper_query, paper_db, SumRanking(descending=True)
        ).all()
        assert [a.score for a in desc] == [a.score for a in asc][::-1]

    def test_answer_key_exposed(self, paper_query, paper_db):
        answer = next(iter(AcyclicRankedEnumerator(paper_query, paper_db)))
        assert answer.key == 2.0


class TestDifferential:
    SHAPES = [
        "Q(a1, a2) :- R(a1, p), R(a2, p)",
        "Q(x, w) :- R(x, y), S(y, z), T(z, w)",
        "Q(w, x) :- R(x, y), S(y, z), T(z, w)",
        "Q(a, c, e) :- R1(a,b), R2(b,c), R3(c,d), R4(d,e)",
        "Q(x1, x2, x3) :- R(x1, b), R(x2, b), R(x3, b)",
        "Q(x) :- R(x, y), S(y, z), T(z, w)",
        "Q(x, u) :- R(x, y), S(y, z), S(z, u)",
    ]

    @pytest.mark.parametrize("ranking_factory", [SumRanking, LexRanking, MinRanking, MaxRanking])
    def test_matches_oracle(self, ranking_factory):
        rng = random.Random(42)
        for _ in range(40):
            q = parse_query(rng.choice(self.SHAPES))
            db = random_db_for(q, rng)
            ranking = ranking_factory()
            expected = ranked_output(q, db, ranking)
            got = [(a.values, a.score) for a in AcyclicRankedEnumerator(q, db, ranking)]
            assert got == expected

    def test_root_choice_does_not_change_output(self):
        rng = random.Random(17)
        q = parse_query("Q(a, e) :- R1(a,b), R2(b,c), R3(c,d), R4(d,e)")
        for _ in range(20):
            db = random_db_for(q, rng)
            outputs = [
                [a.values for a in AcyclicRankedEnumerator(q, db, root=alias)]
                for alias in ("R1", "R2", "R3", "R4")
            ]
            assert all(o == outputs[0] for o in outputs)

    def test_flags_do_not_change_output(self):
        rng = random.Random(23)
        q = parse_query("Q(x1, x2, x3) :- R(x1, b), R(x2, b), R(x3, b)")
        for _ in range(20):
            db = random_db_for(q, rng)
            expected = [v for v, _ in ranked_output(q, db)]
            for dedup in (True, False):
                for prune in (True, False):
                    got = [
                        a.values
                        for a in AcyclicRankedEnumerator(
                            q, db, dedup_inserts=dedup, prune=prune
                        )
                    ]
                    assert got == expected


class TestInstrumentation:
    def test_stats_populated(self, paper_query, paper_db):
        enum = AcyclicRankedEnumerator(paper_query, paper_db)
        answers = enum.all()
        stats = enum.stats
        assert stats.answers == len(answers) == 6
        assert stats.cells_created > 0
        assert stats.preprocess_seconds >= 0
        assert len(stats.pq_ops_per_answer) == 6
        assert stats.heap_stats.pops <= stats.heap_stats.pushes

    def test_full_query_constant_pq_ops_per_answer(self):
        # Appendix E: for full queries every answer needs O(log|D|) work —
        # a bounded number of PQ operations, independent of |D|.
        rng = random.Random(5)
        q = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        for n in (20, 60):
            db = Database.from_dict(
                {
                    "R": (("a", "b"), [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(n)]),
                    "S": (("a", "b"), [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(n)]),
                }
            )
            enum = AcyclicRankedEnumerator(q, db)
            enum.all()
            if enum.stats.pq_ops_per_answer:
                # each full answer pops one root group of size 1 plus a
                # constant number of child advances
                assert max(enum.stats.pq_ops_per_answer) <= 40

    def test_limit_awareness(self, paper_query, paper_db):
        # top-1 must do strictly less PQ work than full enumeration.
        e1 = AcyclicRankedEnumerator(paper_query, paper_db)
        e1.top_k(1)
        ops_top1 = e1.heap_stats.operations
        e2 = AcyclicRankedEnumerator(paper_query, paper_db)
        e2.all()
        assert ops_top1 < e2.heap_stats.operations


#: (answers, pops, pushes, peak_pq_entries, max queue operations between
#: two answers) for the first 200 SUM answers over the DBLP-like and
#: IMDB-like graphs (scale 1.0, canonical seeds, random entity weights).
#: Exact, machine-independent counts of the heap work: a change to how
#: queues are built or popped must leave them unchanged.  Recorded with
#: the scalar per-row queue build and repeated under several
#: PYTHONHASHSEED values.
EXACT_COUNTS = {
    ("dblp", "3hop"): (200, 1545, 13480, 12000, 148),
    ("dblp", "4hop"): (200, 15177, 31054, 16000, 1734),
    ("dblp", "star3"): (200, 467, 12396, 12000, 108),
    ("imdb", "3hop"): (200, 2233, 17076, 15000, 168),
    ("imdb", "4hop"): (200, 25471, 45376, 20000, 3288),
    ("imdb", "star3"): (200, 298, 15274, 15000, 22),
}


@pytest.fixture(scope="module")
def paper_graphs():
    from repro.workloads import make_dblp_like, make_imdb_like

    return {"dblp": make_dblp_like(1.0), "imdb": make_imdb_like(1.0)}


@pytest.mark.parametrize("case", sorted(EXACT_COUNTS), ids="/".join)
def test_exact_work_counts(case, paper_graphs):
    from repro.workloads import four_hop, star, three_hop

    name, shape = case
    text, spec = {
        "3hop": ("Q(a1, p2) :- E(a1, p1), E(a2, p1), E(a2, p2)", three_hop()),
        "4hop": ("Q(a1, a3) :- E(a1, p1), E(a2, p1), E(a2, p2), E(a3, p2)", four_hop()),
        "star3": ("Q(a1, a2, a3) :- E(a1, p), E(a2, p), E(a3, p)", star(3)),
    }[shape]
    workload = paper_graphs[name]
    enum = AcyclicRankedEnumerator(
        parse_query(text), workload.db, workload.ranking(spec, kind="sum")
    )
    answers = enum.top_k(200)
    heap = enum.heap_stats
    got = (
        len(answers),
        heap.pops,
        heap.pushes,
        heap.peak_entries,
        max(enum.stats.pq_ops_per_answer),
    )
    assert got == EXACT_COUNTS[case]
    # Every reduced row is queued, but most never get a cell.
    assert enum.stats.cells_created < heap.pushes
