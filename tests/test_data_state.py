"""Data states: one per query and database generation, shared by every
ranking.

The reduction, the lexicographic row indexes, the GHD bags and a
union's per-branch states depend on the data alone, so a fresh ranking
of a query run before builds none of them: it finds the query's data
state (``data_hits``) instead of building it (``data_builds``).  These
tests pin what that must not change — answers, bit for bit, against a
cold ``enumerate_ranked``, also for streams opened before a write — and
the state's lifetime: one per query, database object and generation,
rebuilt once per write, dropped by ``invalidate()`` and freed with the
last plan that holds it.
"""

import gc
import random
import sys
import threading
import weakref

import pytest

from repro import QueryEngine, enumerate_ranked, parse_query
from repro.core.cyclic import materialise_bags
from repro.core.ranking import LexRanking, MinRanking, SumRanking, TableWeight
from repro.data import Database
from repro.query.ghd import find_ghd
from repro.storage import kernels

pytest.importorskip("numpy")

TEXT = {
    "3hop": "Q(a1, p2) :- E(a1, p1), E(a2, p1), E(a2, p2)",
    "4hop": "Q(a1, a3) :- E(a1, p1), E(a2, p1), E(a2, p2), E(a3, p2)",
    "star3": "Q(a1, a2, a3) :- E(a1, p), E(a2, p), E(a3, p)",
    "4cycle": "Q(a1, a2) :- E(a1, p1), E(a2, p1), E(a2, p2), E(a1, p2)",
    "union": "Q(x, y) :- K(x, z), K(y, z) ; Q(x, y) :- P(x, m), P(y, m)",
}
RANKINGS = {
    "sum": lambda w: SumRanking(w),
    "min": lambda w: MinRanking(w),
    "lex": lambda w: LexRanking(weight=w),
}


@pytest.fixture(scope="module")
def graphs():
    from repro.workloads import make_dblp_like, make_ldbc_like

    return {
        "dblp": make_dblp_like(0.3).db,
        "bip": make_dblp_like(0.15).db,
        "ldbc": make_ldbc_like(2.0).db,
    }


def _db_for(shape: str) -> str:
    return {"4cycle": "bip", "union": "ldbc"}.get(shape, "dblp")


def _fresh_ranking(kind: str, query, db: Database, rng: random.Random):
    """A new ranking object over a new random weight draw for every head
    variable."""
    values = {value for rel in db for row in rel for value in row}
    weight = TableWeight({var: {v: rng.randrange(1000) for v in values} for var in query.head})
    return RANKINGS[kind](weight)


def _pairs(answers):
    return [(a.values, a.score) for a in answers]


def _cold(text, db, ranking, k):
    return _pairs(enumerate_ranked(parse_query(text), db, ranking, k=k))


def _plan(engine, text, ranking):
    return engine.prepare(text, ranking)


# --------------------------------------------------------------------- #
# fresh rankings
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("encode", [False, True], ids=["plain", "encoded"])
@pytest.mark.parametrize("kind", sorted(RANKINGS))
@pytest.mark.parametrize("shape", sorted(TEXT))
def test_fresh_rankings_share_one_data_state(shape, kind, encode, graphs):
    db = graphs[_db_for(shape)]
    text = TEXT[shape]
    query = parse_query(text)
    engine = QueryEngine(db, encode=encode)
    rng = random.Random(f"{shape}/{kind}")
    states = []
    for _ in range(3):
        ranking = _fresh_ranking(kind, query, db, rng)
        got = _pairs(engine.execute(text, ranking, k=40))
        assert got == _cold(text, db, ranking, 40)
        states.append(_plan(engine, text, ranking).data_state)
    assert engine.stats.plan_misses == 3
    assert states[0] is not None
    assert all(state is states[0] for state in states)
    # A union's state holds one state per branch: three builds, once.
    builds = 3 if shape == "union" else 1
    assert engine.stats.data_builds == builds
    assert engine.stats.data_hits == 2


def test_sum_and_lex_plans_share_one_state(graphs):
    db = graphs["dblp"]
    text = TEXT["3hop"]
    engine = QueryEngine(db)
    sum_ranking, lex_ranking = SumRanking(), LexRanking()
    assert _pairs(engine.execute(text, sum_ranking, k=30)) == _cold(text, db, sum_ranking, 30)
    assert _pairs(engine.execute(text, lex_ranking, k=30)) == _cold(text, db, lex_ranking, 30)
    sum_plan, lex_plan = _plan(engine, text, sum_ranking), _plan(engine, text, lex_ranking)
    assert sum_plan is not lex_plan
    assert sum_plan.data_state is lex_plan.data_state
    assert (engine.stats.data_builds, engine.stats.data_hits) == (1, 1)
    # The LEX plan's row indexes live with the shared state.
    assert lex_plan.data_state.row_groups


def test_union_branches_share_the_branch_queries_states(graphs):
    db = graphs["ldbc"]
    engine = QueryEngine(db)
    union = parse_query(TEXT["union"])
    for branch in union.branches:
        engine.execute(branch, k=5)
    assert engine.stats.data_builds == 2
    engine.execute(union, k=5)
    # The union's own state is built; its branches' states are found.
    assert (engine.stats.data_builds, engine.stats.data_hits) == (3, 2)
    branch_states = tuple(engine.prepare(b).data_state for b in union.branches)
    assert engine.prepare(union).data_state.branches == branch_states


def test_fresh_rankings_on_threads_build_once(graphs):
    # More threads than cores and a short switch interval: every thread
    # asks for the query's data state at about the same time, and the
    # engine must build it once and hand all of them the same one.
    db = graphs["dblp"]
    text = TEXT["4hop"]
    query = parse_query(text)
    engine = QueryEngine(db)
    rng = random.Random(5)
    rankings = [_fresh_ranking("sum", query, db, rng) for _ in range(6)]
    expected = [_cold(text, db, ranking, 30) for ranking in rankings]
    results = {}

    def run(i):
        results[i] = _pairs(engine.execute(text, rankings[i], k=30)) == expected[i]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(rankings))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == {i: True for i in range(len(rankings))}
    assert (engine.stats.data_builds, engine.stats.data_hits) == (1, len(rankings) - 1)
    assert len({id(_plan(engine, text, r).data_state) for r in rankings}) == 1


# --------------------------------------------------------------------- #
# writes
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("shape", ["3hop", "4cycle", "union"])
def test_write_between_fresh_rankings_rebuilds_once(shape, graphs):
    source = graphs[_db_for(shape)]
    db = Database.from_dict({rel.name: (rel.attrs, list(rel)) for rel in source})
    text = TEXT[shape]
    query = parse_query(text)
    engine = QueryEngine(db)
    rng = random.Random(shape)
    first = _fresh_ranking("sum", query, db, rng)
    engine.execute(text, first, k=20)
    # A stream opened before the write answers for the data it was
    # opened on.
    before_expected = _cold(text, db, first, 60)
    stream = iter(engine.stream(text, first))
    opened = [next(stream)]
    builds = engine.stats.data_builds
    for rel in db:
        rows = rel.tuples
        rel.remove(rows[0])
        rel.add_rows([tuple(reversed(rows[1]))])
    for _ in range(2):
        ranking = _fresh_ranking("sum", query, db, rng)
        assert _pairs(engine.execute(text, ranking, k=20)) == _cold(text, db, ranking, 20)
    # One rebuild per query (a union rebuilds its branches too).
    assert engine.stats.data_builds - builds == (3 if shape == "union" else 1)
    rest = [a for _, a in zip(range(59), stream)]
    assert _pairs(opened + rest) == before_expected


def test_invalidate_drops_every_data_state(graphs):
    db = graphs["dblp"]
    engine = QueryEngine(db)
    for text in (TEXT["3hop"], TEXT["star3"]):
        engine.execute(text, k=5)
    assert len(engine._data) == 2
    engine.invalidate()
    assert len(engine._data) == 0
    assert all(plan.data_state is None for plan in engine._plans.values())
    engine.execute(TEXT["3hop"], k=5)
    assert engine.stats.data_builds == 3


def test_equal_generations_on_two_databases_never_share():
    rows = {"R": (("a", "b"), [(1, 10), (2, 10), (3, 20)])}
    one, two = Database.from_dict(rows), Database.from_dict(rows)
    two.get("R").remove((3, 20))
    one.get("R").remove((1, 10))
    assert one.generation == two.generation
    engine = QueryEngine(one)
    text = "Q(a1, a2) :- R(a1, p), R(a2, p)"
    engine.execute(text)
    (plan,) = engine._plans.values()
    first = plan.data_state
    engine.db = two
    assert _pairs(engine.execute(text)) == _cold(text, two, None, None)
    assert plan.data_state is not first
    assert first.db is one and plan.data_state.db is two
    # A fresh ranking over the second database finds its state.
    ranking = SumRanking()
    engine.execute(text, ranking)
    assert engine.prepare(text, ranking).data_state is plan.data_state
    assert (engine.stats.data_builds, engine.stats.data_hits) == (2, 1)


def test_state_is_freed_with_its_last_plan(graphs):
    db = graphs["dblp"]
    engine = QueryEngine(db, max_plans=2)
    text = TEXT["3hop"]
    gc.disable()
    try:
        engine.execute(text, SumRanking(), k=5)
        engine.execute(text, SumRanking(), k=5)
        state = weakref.ref(next(iter(engine._plans.values())).data_state)
        assert state() is not None
        engine.execute(TEXT["star3"], k=5)
        # One plan of the query is left: the state lives on.
        assert state() is not None
        engine.execute(TEXT["4hop"], k=5)
        assert state() is None
        assert len(engine._data) == 2
    finally:
        gc.enable()


# --------------------------------------------------------------------- #
# bags
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("use_kernels", [True, False], ids=["kernel", "python"])
def test_bag_rows_are_distinct_on_both_paths(use_kernels, graphs):
    db = graphs["bip"]
    query = parse_query(TEXT["4cycle"])
    previous = kernels.enabled()
    kernels.set_enabled(use_kernels)
    try:
        bags = materialise_bags(query, db, find_ghd(query))
    finally:
        kernels.set_enabled(previous)
    for rel in bags.db:
        assert len(rel) > 0
        assert len(set(rel.tuples)) == len(rel.tuples)
    assert bags.materialised_tuples == sum(len(rel) for rel in bags.db)
