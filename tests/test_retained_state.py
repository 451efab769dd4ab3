"""Retained ranked state: a repeated (query, ranking) stream restarts.

From a plan's second stream on, the engine keeps the acyclic
enumerator's non-root queues and ``next`` chains on the plan, and each
later stream restarts at the root of them; a lexicographic plan keeps
its weight tables and row indexes.  These tests pin what that must not
change — answers, bit for bit, against a cold ``enumerate_ranked`` —
and what it costs and counts: exact restart work, the lock that lets
streams interleave, the budget, and when the state is dropped.  They
also pin that ``Topdown`` keeps no seen-set where a node has one child.
"""

import random
import sys
import threading

import pytest

from repro import QueryEngine, enumerate_ranked, parse_query
from repro.core.acyclic import AcyclicRankedEnumerator
from repro.core.base import RetainedSlot
from repro.core.ranking import LexRanking, MaxRanking, MinRanking, SumRanking
from repro.data import Database
from repro.engine import prepared as prepared_module
from repro.errors import QueryError
from repro.storage import kernels

TEXT = {
    "3hop": "Q(a1, p2) :- E(a1, p1), E(a2, p1), E(a2, p2)",
    "4hop": "Q(a1, a3) :- E(a1, p1), E(a2, p1), E(a2, p2), E(a3, p2)",
    "star3": "Q(a1, a2, a3) :- E(a1, p), E(a2, p), E(a3, p)",
}


@pytest.fixture(scope="module")
def paper_graphs():
    from repro.workloads import make_dblp_like, make_imdb_like

    return {"dblp": make_dblp_like(1.0), "imdb": make_imdb_like(1.0)}


def _spec(shape):
    from repro.workloads import four_hop, star, three_hop

    return {"3hop": three_hop(), "4hop": four_hop(), "star3": star(3)}[shape]


def _pairs(answers):
    return [(a.values, a.score, a.key) for a in answers]


def _take(enum, k):
    out = []
    for answer in enum:
        out.append(answer)
        if len(out) >= k:
            break
    return _pairs(out)


def _cold(text, db, ranking, k, **kwargs):
    return _pairs(enumerate_ranked(parse_query(text), db, ranking, k=k, **kwargs))


def _graph(edges: int, left: int, right: int, seed: int) -> Database:
    rng = random.Random(seed)
    rows = sorted({(rng.randrange(left), rng.randrange(right)) for _ in range(edges)})
    return Database.from_dict({"E": (("a", "p"), rows)})


# --------------------------------------------------------------------- #
# answers
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["dblp", "imdb"])
@pytest.mark.parametrize("shape", sorted(TEXT))
def test_restart_matches_cold_sum(paper_graphs, name, shape):
    workload = paper_graphs[name]
    ranking = workload.ranking(_spec(shape), kind="sum")
    engine = QueryEngine(workload.db)
    expected = _cold(TEXT[shape], workload.db, ranking, 300)
    runs = [_take(engine.stream(TEXT[shape], ranking), 300) for _ in range(4)]
    assert runs == [expected] * 4
    # The first stream keeps nothing, the second keeps its queues and
    # the last two restart from them.
    assert engine.stats.ranked_restarts == 2


@pytest.mark.parametrize("ranking_class", [MinRanking, MaxRanking])
def test_restart_matches_cold_weakly_monotone(paper_graphs, ranking_class):
    # MIN and MAX take the equal-key-group path of the enumerator.
    workload = paper_graphs["dblp"]
    ranking = ranking_class(workload.ranking(_spec("3hop")).weight)
    engine = QueryEngine(workload.db)
    expected = _cold(TEXT["3hop"], workload.db, ranking, 500)
    runs = [_take(engine.stream(TEXT["3hop"], ranking), 500) for _ in range(3)]
    assert runs == [expected] * 3
    assert engine.stats.ranked_restarts == 1


def test_restart_matches_cold_lex_backtracker(paper_graphs):
    workload = paper_graphs["imdb"]
    ranking = workload.ranking(_spec("3hop"), kind="lex")
    engine = QueryEngine(workload.db)
    expected = _cold(TEXT["3hop"], workload.db, ranking, 400)
    enums = []
    for _ in range(3):
        enums.append(engine.stream(TEXT["3hop"], ranking))
        assert _take(enums[-1], 400) == expected
    assert engine.stats.ranked_restarts == 1
    # The second and third enumerators share one set of weight tables
    # and row indexes; the first built its own.
    first, second, third = enums
    assert second._weight_tables is third._weight_tables
    assert second._row_groups is third._row_groups
    assert first._weight_tables is not second._weight_tables
    assert second._row_groups


def test_restart_matches_cold_lex_on_queues(paper_graphs):
    # LEX through the priority-queue algorithm: the runs' keys are built
    # from the outputs on demand.
    workload = paper_graphs["dblp"]
    ranking = LexRanking(descending=("a1",))
    engine = QueryEngine(workload.db)
    expected = _cold(TEXT["4hop"], workload.db, ranking, 300, method="lindelay")
    runs = [
        _take(engine.stream(TEXT["4hop"], ranking, method="lindelay"), 300) for _ in range(3)
    ]
    assert runs == [expected] * 3
    assert engine.stats.ranked_restarts == 1


def test_deeper_restart_extends_the_chains(paper_graphs):
    workload = paper_graphs["imdb"]
    ranking = workload.ranking(_spec("4hop"), kind="sum")
    engine = QueryEngine(workload.db)
    for k in (20, 50, 400, 120, 900):
        assert _take(engine.stream(TEXT["4hop"], ranking), k) == _cold(
            TEXT["4hop"], workload.db, ranking, k
        )
    assert engine.stats.ranked_restarts == 3


# --------------------------------------------------------------------- #
# interleaving
# --------------------------------------------------------------------- #
def _counts(enum):
    heap = enum.heap_stats
    return heap.pops, heap.pushes, enum.stats.cells_created


def test_interleaved_streams_match_and_split_the_work(paper_graphs):
    workload = paper_graphs["dblp"]
    query = parse_query(TEXT["4hop"])
    ranking = workload.ranking(_spec("4hop"), kind="sum")
    expected = _cold(TEXT["4hop"], workload.db, ranking, 300)

    def fresh_pair():
        slot = RetainedSlot()
        return [AcyclicRankedEnumerator(query, workload.db, ranking, retained=slot) for _ in range(2)]

    # One after the other: the second stream restarts from the first's
    # queues.
    alone = fresh_pair()
    assert [_take(enum, 300) for enum in alone] == [expected, expected]
    assert alone[1]._queues is alone[0]._queues

    # Step by step, the leader alternating: both streams share one set
    # of queues from the start, and each step credits its work to the
    # stream that took it.
    both = fresh_pair()
    iters = [iter(enum) for enum in both]
    got = [[], []]
    for step in range(300):
        for i in (0, 1) if step % 2 else (1, 0):
            got[i].append(next(iters[i]))
    assert [_pairs(answers) for answers in got] == [expected, expected]
    assert both[1]._queues is both[0]._queues
    # The shared nodes' work is done once either way; how it splits
    # between the two streams depends on who asked first.
    total = [sum(c) for c in zip(*map(_counts, both))]
    assert total == [sum(c) for c in zip(*map(_counts, alone))]
    assert _counts(both[0]) != _counts(alone[0])


def test_streams_on_threads_match_and_count_exactly(paper_graphs):
    # More threads than cores and a short switch interval, so streams
    # preempt each other inside the heap loop.  A lost update to the
    # shared queues would change an answer; one to the stats deltas
    # would change the total work, which does not depend on who did it.
    workload = paper_graphs["imdb"]
    ranking = workload.ranking(_spec("4hop"), kind="sum")
    expected = _cold(TEXT["4hop"], workload.db, ranking, 300)
    n = 4

    def primed():
        engine = QueryEngine(workload.db)
        for _ in range(2):  # the second stream keeps its queues
            _take(engine.stream(TEXT["4hop"], ranking), 5)
        return engine, [engine.stream(TEXT["4hop"], ranking) for _ in range(n)]

    engine, alone = primed()
    assert [_take(enum, 300) for enum in alone] == [expected] * n

    engine, enums = primed()
    results = [None] * n
    barrier = threading.Barrier(n)

    def run(i):
        barrier.wait()
        results[i] = _take(enums[i], 300)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * n
    assert engine.stats.ranked_restarts == n

    def total(enums):
        return [sum(c) for c in zip(*map(_counts, enums))]

    assert total(enums) == total(alone)


# --------------------------------------------------------------------- #
# when state is kept and dropped
# --------------------------------------------------------------------- #
def test_write_between_streams_carries_the_state_over():
    db = _graph(600, 120, 30, seed=3)
    engine = QueryEngine(db)
    text = TEXT["4hop"]
    for _ in range(3):
        engine.stream(text).all()
    assert engine.stats.ranked_restarts == 1
    invalidations = engine.stats.invalidations
    db.get("E").add((0, 29))
    got = _take(engine.stream(text), 200)
    assert engine.stats.invalidations == invalidations + 1
    # The write's groups were dropped, the rest carried over, and the
    # stream restarted from them.
    assert engine.stats.ranked_carryovers == 1
    assert engine.stats.ranked_groups_dropped > 0
    assert engine.stats.ranked_restarts == 2
    assert got == _cold(text, db, None, 200)
    assert _take(engine.stream(text), 200) == got
    assert engine.stats.ranked_restarts == 3


def test_invalidate_drops_the_state():
    db = _graph(300, 60, 20, seed=4)
    engine = QueryEngine(db)
    for _ in range(2):
        engine.stream(TEXT["3hop"]).all()
    (plan,) = engine._plans.values()
    assert plan._ranked is not None and plan._ranked.state is not None
    engine.invalidate()
    assert plan._ranked is None


def test_fresh_rankings_retain_nothing():
    db = _graph(300, 60, 20, seed=5)
    engine = QueryEngine(db)
    for _ in range(4):
        assert _take(engine.stream(TEXT["4hop"], SumRanking()), 50) == _cold(
            TEXT["4hop"], db, None, 50
        )
    assert engine.stats.plan_hits == 0
    assert engine.stats.ranked_restarts == 0
    assert all(plan._ranked is None for plan in engine._plans.values())


def test_direct_make_enumerator_retains_nothing():
    # Without the engine's budget a plan keeps no ranked state.
    db = _graph(300, 60, 20, seed=6)
    engine = QueryEngine(db)
    plan = engine.prepare(TEXT["3hop"])
    for _ in range(3):
        plan.make_enumerator(db).all()
    assert plan._ranked is None


def test_budget_eviction_is_counted(monkeypatch):
    db = _graph(600, 120, 30, seed=7)
    engine = QueryEngine(db)
    texts = (TEXT["3hop"], TEXT["4hop"])
    for text in texts:
        for _ in range(2):
            _take(engine.stream(text), 100)
    plans = {plan.plan.query: plan for plan in engine._plans.values()}
    cells = [plans[engine.parse(text)]._ranked.cells for text in texts]
    assert min(cells) > 0
    # Room for either state, not for both: restarting the 4hop plan
    # evicts the least recently used 3hop state.
    monkeypatch.setattr(prepared_module, "MAX_RETAINED_CELLS", max(cells))
    assert _take(engine.stream(texts[1]), 100) == _cold(texts[1], db, None, 100)
    assert engine.stats.ranked_restarts == 1
    assert engine.stats.ranked_evictions == 1
    assert plans[engine.parse(texts[0])]._ranked is None
    # A state over the cap by itself is not kept.
    monkeypatch.setattr(prepared_module, "MAX_RETAINED_CELLS", 1)
    assert _take(engine.stream(texts[1]), 100) == _cold(texts[1], db, None, 100)
    assert engine.stats.ranked_restarts == 1
    assert engine.stats.ranked_evictions == 2
    assert plans[engine.parse(texts[1])]._ranked is None


def test_exception_mid_step_drops_the_state(monkeypatch):
    db = _graph(600, 120, 30, seed=8)
    engine = QueryEngine(db)
    text = TEXT["4hop"]
    expected = _cold(text, db, None, 300)
    for _ in range(2):
        _take(engine.stream(text), 5)
    bystander = iter(engine.stream(text))  # restarts from the same state
    next(bystander)
    real = AcyclicRankedEnumerator._topdown
    calls = [0]

    def flaky(self, cell, rt):
        calls[0] += 1
        if calls[0] == 40:
            raise RuntimeError("injected")
        return real(self, cell, rt)

    monkeypatch.setattr(AcyclicRankedEnumerator, "_topdown", flaky)
    with pytest.raises(RuntimeError, match="injected"):
        _take(engine.stream(text), 300)
    monkeypatch.setattr(AcyclicRankedEnumerator, "_topdown", real)
    # A stream still running over the broken state refuses to go on
    # rather than pop a group the failed step left half advanced.
    with pytest.raises(QueryError, match="retained ranked state"):
        for _ in range(300):
            next(bystander)
    restarts = engine.stats.ranked_restarts
    assert _take(engine.stream(text), 300) == expected
    assert engine.stats.ranked_restarts == restarts  # built afresh
    assert _take(engine.stream(text), 300) == expected
    assert engine.stats.ranked_restarts == restarts + 1


def test_scalar_root_runs_fresh_each_time():
    kernels.set_enabled(False)
    try:
        db = _graph(300, 60, 20, seed=9)
        engine = QueryEngine(db)
        runs = [_take(engine.stream(TEXT["4hop"]), 100) for _ in range(3)]
        assert runs == [_cold(TEXT["4hop"], db, None, 100)] * 3
        assert engine.stats.ranked_restarts == 0
        assert all(plan._ranked.state is None for plan in engine._plans.values())
    finally:
        kernels.set_enabled(True)


# --------------------------------------------------------------------- #
# exact restart counts
# --------------------------------------------------------------------- #
#: (answers, pops, pushes, peak entries, max ops between answers, cells
#: created) for 200 answers of 4hop SUM, first from a build that keeps
#: its queues, then from a restart at their root (the fresh build's
#: counts are ``EXACT_COUNTS`` in test_acyclic.py).  The restart pays
#: only for the root and for chain links the first stream never
#: reached; its pushes and peak include the root run (as a build
#: counts it).  Exact counts, the same under every PYTHONHASHSEED.
RESTART_COUNTS = {
    "dblp": (
        (200, 15177, 31054, 16000, 1734, 18086),
        (200, 1092, 5092, 4000, 46, 1208),
    ),
    "imdb": (
        (200, 25471, 45376, 20000, 3288, 29654),
        (200, 680, 5680, 5000, 50, 774),
    ),
}


@pytest.mark.parametrize("name", sorted(RESTART_COUNTS))
def test_exact_restart_counts(name, paper_graphs):
    workload = paper_graphs[name]
    query = parse_query(TEXT["4hop"])
    ranking = workload.ranking(_spec("4hop"), kind="sum")
    slot = RetainedSlot()
    got = []
    for _ in range(2):
        enum = AcyclicRankedEnumerator(query, workload.db, ranking, retained=slot)
        answers = enum.top_k(200)
        heap = enum.heap_stats
        got.append(
            (
                len(answers),
                heap.pops,
                heap.pushes,
                heap.peak_entries,
                max(enum.stats.pq_ops_per_answer),
                enum.stats.cells_created,
            )
        )
    assert tuple(got) == RESTART_COUNTS[name]


#: The counts above for 200 answers of a third stream, run after a write
#: that removes two rows of E and adds one, plus the anchor groups the
#: carry-over dropped.  The stream restarts from the state the first two
#: left, carried over to the new reduction: it pays again for the root
#: and for every group the write touched, which on this self-join
#: reaches far up the tree (a fresh build pays 15 177 and 25 471 pops).
#: Exact counts, the same under every PYTHONHASHSEED.
POST_WRITE_COUNTS = {
    "dblp": ((200, 11552, 15551, 3999, 1164, 13155), 86),
    "imdb": ((200, 18381, 23379, 4998, 952, 20712), 69),
}


@pytest.mark.parametrize("name", sorted(POST_WRITE_COUNTS))
def test_exact_post_write_counts(name, paper_graphs):
    workload = paper_graphs[name]
    edges = workload.db.get("E")
    db = Database.from_dict({"E": (edges.attrs, list(edges.tuples))})
    text = TEXT["4hop"]
    ranking = workload.ranking(_spec("4hop"), kind="sum")
    engine = QueryEngine(db)
    for _ in range(2):
        engine.stream(text, ranking).top_k(200)
    rows = db.get("E").tuples
    removed, added = (rows[-1], rows[-2]), (rows[-3][0], rows[-4][1])
    for row in removed:
        db.get("E").remove(row)
    db.get("E").add(added)
    enum = engine.stream(text, ranking)
    answers = enum.top_k(200)
    assert _pairs(answers) == _cold(text, db, ranking, 200)
    assert engine.stats.ranked_carryovers == 1
    heap = enum.heap_stats
    got = (
        len(answers),
        heap.pops,
        heap.pushes,
        heap.peak_entries,
        max(enum.stats.pq_ops_per_answer),
        enum.stats.cells_created,
    )
    assert (got, engine.stats.ranked_groups_dropped) == POST_WRITE_COUNTS[name]


# --------------------------------------------------------------------- #
# no seen-set at one-child nodes
# --------------------------------------------------------------------- #
def _groups(enum):
    stack = [enum._root_rt]
    while stack:
        rt = stack.pop()
        stack.extend(rt.children)
        if rt.runs is not None:
            groups = [g for g in rt.runs.groups if g is not None]
            if rt.is_root and enum._root_pq is not None:
                groups.append(enum._root_pq)
        else:
            groups = list(rt.pqs.values())
        yield rt, groups


@pytest.fixture(params=[True, False], ids=["array-build", "scalar-build"])
def kernels_on(request):
    before = kernels.enabled()
    kernels.set_enabled(request.param)
    yield request.param
    kernels.set_enabled(before)


def test_one_child_nodes_keep_no_seen_set(kernels_on):
    enum = AcyclicRankedEnumerator(parse_query(TEXT["4hop"]), _graph(2000, 400, 60, seed=7))
    enum.top_k(300)
    assert enum.heap_stats.pops > 1000
    for rt, groups in _groups(enum):
        assert len(rt.children) <= 1
        assert groups
        assert all(group.seen is None for group in groups)


def test_two_child_root_still_rejects_duplicates(kernels_on):
    db = _graph(200, 40, 10, seed=12)
    query = parse_query(TEXT["star3"])
    runs = {}
    for dedup in (True, False):
        enum = AcyclicRankedEnumerator(query, db, root="E#2", dedup_inserts=dedup)
        runs[dedup] = _take(enum, 400), enum
    assert runs[True][0] == runs[False][0] == _cold(TEXT["star3"], db, None, 400)
    on, off = runs[True][1], runs[False][1]
    assert len(on._root_rt.children) == 2
    assert on._root_pq.seen  # duplicates were tracked, and only there
    assert on.heap_stats.pushes < off.heap_stats.pushes
    for rt, groups in _groups(on):
        if not rt.is_root:
            assert all(group.seen is None for group in groups)
