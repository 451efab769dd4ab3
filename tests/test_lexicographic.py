"""Tests for the lexicographic backtracking enumerator (Algorithm 3)."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import QueryEngine
from repro.algorithms.naive import ranked_output
from repro.algorithms.yannakakis import atom_instances
from repro.core import LexBacktrackEnumerator
from repro.core.ranking import CallableWeight, LexRanking, TableWeight
from repro.data import Database
from repro.errors import QueryError, RankingError
from repro.query import parse_query
from repro.storage import kernels

from conftest import random_db_for

SHAPES = [
    "Q(a1, a2) :- R(a1, p), R(a2, p)",
    "Q(x, w) :- R(x, y), S(y, z), T(z, w)",
    "Q(a, c, e) :- R1(a,b), R2(b,c), R3(c,d), R4(d,e)",
    "Q(x1, x2, x3) :- R(x1, b), R(x2, b), R(x3, b)",
]


class TestCorrectness:
    def test_matches_oracle_head_order(self):
        rng = random.Random(31)
        for _ in range(40):
            q = parse_query(rng.choice(SHAPES))
            db = random_db_for(q, rng)
            expected = [v for v, _ in ranked_output(q, db, LexRanking())]
            got = [a.values for a in LexBacktrackEnumerator(q, db)]
            assert got == expected

    def test_custom_order(self):
        rng = random.Random(32)
        for _ in range(25):
            q = parse_query("Q(x, w) :- R(x, y), S(y, z), T(z, w)")
            db = random_db_for(q, rng)
            order = ("w", "x")
            expected = [v for v, _ in ranked_output(q, db, LexRanking(order))]
            got = [a.values for a in LexBacktrackEnumerator(q, db, order=order)]
            assert got == expected

    def test_descending_attribute(self):
        rng = random.Random(33)
        for _ in range(25):
            q = parse_query("Q(a1, a2) :- R(a1, p), R(a2, p)")
            db = random_db_for(q, rng)
            expected = [
                v for v, _ in ranked_output(q, db, LexRanking(descending=("a1",)))
            ]
            got = [
                a.values
                for a in LexBacktrackEnumerator(q, db, descending=("a1",))
            ]
            assert got == expected

    def test_weighted_order(self):
        db = Database.from_dict({"R": (("a", "b"), [(1, 9), (2, 9), (3, 9)])})
        q = parse_query("Q(x) :- R(x, y)")
        weight = TableWeight({"x": {1: 5.0, 2: 0.0, 3: 2.0}})
        got = [a.values for a in LexBacktrackEnumerator(q, db, weight=weight)]
        assert got == [(2,), (3,), (1,)]  # by weight, not by id

    def test_scores_are_order_tuples(self):
        db = Database.from_dict({"R": (("a", "b"), [(1, 9)])})
        q = parse_query("Q(x) :- R(x, y)")
        answer = next(iter(LexBacktrackEnumerator(q, db)))
        assert answer.score == (1,)
        assert answer.key == (1,)

    def test_empty_join(self):
        db = Database.from_dict(
            {"R": (("a", "b"), [(1, 1)]), "S": (("b", "c"), [(2, 2)])}
        )
        q = parse_query("Q(x, z) :- R(x, y), S(y, z)")
        assert LexBacktrackEnumerator(q, db).all() == []


@pytest.mark.parametrize("seed", range(8))
def test_nan_weights_answer_alike_in_every_mode(seed):
    # NaN weights tie every candidate they touch, so the order of a
    # level's candidates decides the answer order: string keys, plain
    # and encoded, kernels on and off, must walk them in one order.
    rng = random.Random(seed)
    rows = sorted({(f"u{rng.randrange(12)}", f"p{rng.randrange(5)}") for _ in range(30)})
    db = Database.from_dict({"E": (("a", "b"), rows)})
    values = [f"u{i}" for i in range(12)] + [f"p{i}" for i in range(5)]
    nan = {v for v in values if rng.random() < 0.4}
    weight = CallableWeight(lambda attr, v: math.nan if v in nan else float(ord(v[-1])))
    text = "Q(a1, p, a2) :- E(a1, p), E(a2, p)"
    answers = []
    for encode in (False, True):
        for enabled in (True, False):
            kernels.set_enabled(enabled)
            try:
                got = QueryEngine(db, encode=encode).execute(text, LexRanking(weight=weight))
            finally:
                kernels.set_enabled(True)
            answers.append([a.values for a in got])
    assert len(answers[0]) == len(set(answers[0])) > 1
    assert all(got == answers[0] for got in answers[1:])


class TestValidation:
    def test_order_must_be_head_permutation(self, paper_query, paper_db):
        with pytest.raises(RankingError):
            LexBacktrackEnumerator(paper_query, paper_db, order=("a",))

    def test_unknown_descending_rejected(self, paper_query, paper_db):
        with pytest.raises(RankingError):
            LexBacktrackEnumerator(paper_query, paper_db, descending=("zz",))

    def test_one_shot(self, paper_query, paper_db):
        enum = LexBacktrackEnumerator(paper_query, paper_db)
        enum.all()
        with pytest.raises(QueryError):
            enum.all()

    def test_fresh(self, paper_query, paper_db):
        enum = LexBacktrackEnumerator(paper_query, paper_db)
        a = [x.values for x in enum.all()]
        b = [x.values for x in enum.fresh().all()]
        assert a == b


class TestInstrumentation:
    def test_reducer_passes_counted(self, paper_query, paper_db):
        enum = LexBacktrackEnumerator(paper_query, paper_db)
        enum.all()
        assert enum.stats.reducer_passes > 0
        assert enum.stats.answers == 6

    def test_no_priority_queues_used(self, paper_query, paper_db):
        enum = LexBacktrackEnumerator(paper_query, paper_db)
        enum.all()
        assert enum.stats.peak_pq_entries == 0

    def test_last_attribute_takes_no_reducer_pass(self, paper_query, paper_db):
        # The last attribute's candidates are emitted straight from the
        # reduced instance: passes are spent on the earlier attributes only.
        enum = LexBacktrackEnumerator(paper_query, paper_db)
        answers = enum.all()
        first = {a.values[0] for a in answers}
        assert enum.stats.reducer_passes == len(first)

    def test_lazy_index_builds_count_as_preprocessing(
        self, paper_query, paper_db, monkeypatch
    ):
        # A clock that advances one second per reading: each index build
        # (one reading before, one after) costs exactly one second.
        ticks = iter(range(10**6))
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        enum = LexBacktrackEnumerator(paper_query, paper_db)
        enum.preprocess()
        assert not enum._row_groups  # nothing is built before it is used
        build, preprocess = enum.stats.build_seconds, enum.stats.preprocess_seconds
        next(iter(enum))
        built = len(enum._row_groups)
        assert built > 0
        assert enum.stats.build_seconds == build + built
        assert enum.stats.preprocess_seconds == preprocess + built
        assert enum.stats.preprocess_seconds == (
            enum.stats.reduce_seconds + enum.stats.build_seconds
        )
        # An emission window spanning the builds does not bill them twice.
        enum._note_enumerate_seconds(100.0)
        assert enum.stats.enumerate_seconds == 100.0 - built


# ---------------------------------------------------------------------- #
# property: every configuration against the brute-force oracle
# ---------------------------------------------------------------------- #
#: Heads of one to four variables; the last two shapes join their atoms
#: through a cartesian join-tree edge.
PROPERTY_QUERIES = [
    "Q(x) :- R(x, y), S(y, z)",
    "Q(a1, a2) :- R(a1, p), R(a2, p)",
    "Q(x, z, w) :- R(x, y), S(y, z), T(z, w)",
    "Q(x1, x2, x3, x4) :- R(x1, b), R(x2, b), R(x3, b), R(x4, b)",
    "Q(a, c) :- R(a, b), S(c, d)",
    "Q(a) :- R(a, b), S(c, d)",
]


def _lex_cases():
    values = st.integers(min_value=0, max_value=3)
    rows = st.lists(st.tuples(values, values), max_size=7)
    # Weights from three levels over four values: ties are common.
    weights = st.none() | st.dictionaries(
        values, st.sampled_from([0.0, 1.0, 2.0]), min_size=4, max_size=4
    ).map(lambda table: TableWeight({}, default_table=table))

    @st.composite
    def case(draw):
        text = draw(st.sampled_from(PROPERTY_QUERIES))
        query = parse_query(text)
        relations = sorted({a.relation for a in query.atoms})
        db = Database.from_dict(
            {name: (("c0", "c1"), draw(rows)) for name in relations}
        )
        order = tuple(draw(st.permutations(query.head)))
        descending = draw(st.sets(st.sampled_from(query.head)))
        return text, query, db, order, frozenset(descending), draw(weights)

    return case()


def _triples(answers):
    return [(a.values, a.score, a.key) for a in answers]


@settings(max_examples=150, deadline=None)
@given(_lex_cases())
def test_lex_matches_oracle_property(case):
    text, query, db, order, descending, weight = case
    ranking = LexRanking(order, descending, weight=weight)
    config = dict(order=order, descending=descending, weight=weight)
    got = LexBacktrackEnumerator(query, db, **config).all()

    assert [(a.values, a.score) for a in got] == ranked_output(query, db, ranking)

    # Ordering contract: the key is the bound ranking's key of the output
    # values, and (key, values) ascends strictly.
    bound = ranking.bind({v: i for i, v in enumerate(query.head)})
    for answer in got:
        expected = bound.key_of_output(query.head, answer.values)
        assert answer.key == tuple(part for _, part in expected)
    pairs = [(a.key, a.values) for a in got]
    assert all(x < y for x, y in zip(pairs, pairs[1:]))

    # Caller-supplied instances that still hold dangling rows.
    unreduced = LexBacktrackEnumerator(
        query,
        db,
        instances=atom_instances(query, db),
        already_reduced=True,
        **config,
    ).all()
    assert _triples(unreduced) == _triples(got)

    # The engine: a cold execution, then a warm one over its cached
    # reduced instances (already_reduced=True).
    engine = QueryEngine(db)
    cold = engine.execute(text, ranking)
    warm = engine.execute(text, ranking)
    assert engine.stats.plan_hits == 1
    assert _triples(cold) == _triples(warm) == _triples(got)


#: (answers, reducer passes, indexes built) for the first 400 LEX
#: answers over the DBLP-like and IMDB-like graphs (scale 1.0, canonical
#: seeds, the workloads' LEX entity weights).  Exact counts, the same
#: under every PYTHONHASHSEED tried: a change to how the backtracker
#: descends must leave them unchanged.  The last attribute takes no
#: reducer pass, so a 2-variable head pays one per first-attribute value.
LEX_EXACT_COUNTS = {
    ("dblp", "3hop"): (400, 1, 3),
    ("dblp", "4hop"): (400, 1, 4),
    ("dblp", "star3"): (400, 6, 3),
    ("imdb", "3hop"): (400, 1, 3),
    ("imdb", "4hop"): (400, 1, 4),
    ("imdb", "star3"): (400, 3, 3),
}


@pytest.fixture(scope="module")
def paper_graphs():
    from repro.workloads import make_dblp_like, make_imdb_like

    return {"dblp": make_dblp_like(1.0), "imdb": make_imdb_like(1.0)}


@pytest.mark.parametrize("case", sorted(LEX_EXACT_COUNTS), ids="/".join)
def test_lex_exact_work_counts(case, paper_graphs):
    from repro.workloads import four_hop, star, three_hop

    name, shape = case
    text, spec = {
        "3hop": ("Q(a1, p2) :- E(a1, p1), E(a2, p1), E(a2, p2)", three_hop()),
        "4hop": ("Q(a1, a3) :- E(a1, p1), E(a2, p1), E(a2, p2), E(a3, p2)", four_hop()),
        "star3": ("Q(a1, a2, a3) :- E(a1, p), E(a2, p), E(a3, p)", star(3)),
    }[shape]
    workload = paper_graphs[name]
    ranking = workload.ranking(spec, kind="lex")
    enum = LexBacktrackEnumerator(
        parse_query(text),
        workload.db,
        order=ranking.order,
        descending=ranking.descending,
        weight=ranking.weight,
    )
    answers = enum.top_k(400)
    got = (len(answers), enum.stats.reducer_passes, len(enum._row_groups))
    assert got == LEX_EXACT_COUNTS[case]
