"""Retained ranked state carried over a write.

A write no longer drops a reused plan's ranked state: the plan rebuilds
its reduction, diffs it against the old one, and keeps every anchor
group the write did not reach — with its cells, successors and ``next``
chain — in a state for the new reduction; a lexicographic plan patches
its row indexes and first-level candidates.  These tests pin what that
must not change (answers, bit for bit, against a cold
``enumerate_ranked``, also for streams opened before the write) and
what it keeps: the untouched groups themselves, no reference to the
superseded runs, and an honest cell count for the budget.
"""

import random
import sys
import threading

import pytest

from repro import QueryEngine, create_enumerator, enumerate_ranked, parse_query
from repro.algorithms.yannakakis import reduction_diff
from repro.core import acyclic
from repro.core.ranking import LexRanking, SumRanking, TableWeight
from repro.data import Database

pytest.importorskip("numpy")

TEXT = {
    "3hop": "Q(a1, p2) :- E(a1, p1), E(a2, p1), E(a2, p2)",
    "4hop": "Q(a1, a3) :- E(a1, p1), E(a2, p1), E(a2, p2), E(a3, p2)",
    "star3": "Q(a1, a2, a3) :- E(a1, p), E(a2, p), E(a3, p)",
    "feed": "Q(t, v) :- E(u, p), A(p, t, v)",
    "lex": "Q(u, t) :- E(u, p), A(p, t, v)",
}


def _pairs(answers):
    return [(a.values, a.score) for a in answers]


def _take(enum, k):
    out = []
    for answer in enum:
        out.append(answer)
        if len(out) >= k:
            break
    return _pairs(out)


def _cold(text, db, ranking, k=None, **kwargs):
    return _pairs(enumerate_ranked(parse_query(text), db, ranking, k=k, **kwargs))


def _db(seed: int, users=300, posts=120, follows=1500, notes=700) -> Database:
    rng = random.Random(seed)
    edges = sorted({(rng.randrange(users), rng.randrange(posts)) for _ in range(follows)})
    annotations = sorted(
        {(rng.randrange(posts + 20), rng.randrange(30), rng.randrange(30)) for _ in range(notes)}
    )
    return Database.from_dict(
        {"E": (("u", "p"), edges), "A": (("p", "t", "v"), annotations)}
    )


def _small_write(db: Database, rng: random.Random, relation: str) -> None:
    rel = db.get(relation)
    if rng.random() < 0.5:
        for row in rng.sample(rel.tuples, 2):
            rel.remove(row)
    elif relation == "E":
        rel.add_rows([(rng.randrange(300), rng.randrange(120)) for _ in range(2)])
    else:
        rel.add_rows([(rng.randrange(140), rng.randrange(30), rng.randrange(30)) for _ in range(2)])


def _state(engine):
    (plan,) = engine._plans.values()
    return plan._ranked.state


# --------------------------------------------------------------------- #
# answers
# --------------------------------------------------------------------- #
def test_stream_opened_before_a_write_sees_the_data_it_was_opened_on():
    # The enumerator of a stream preprocesses on its first answer.  Its
    # reduction must read its own code matrices and score columns then,
    # not the relation's views, which the write moved: some A rows with
    # a low ``p`` join nothing, so deleting one shifts every later view
    # position.
    text = "Q(t, v) :- E(u, p), A(p, t, v)"
    for seed in range(20):
        rng = random.Random(seed)
        edges = sorted({(rng.randrange(50), rng.randrange(40, 100)) for _ in range(200)})
        notes = sorted(
            {(rng.randrange(100), rng.randrange(10), rng.randrange(10)) for _ in range(300)}
        )
        db = Database.from_dict({"E": (("u", "p"), edges), "A": (("p", "t", "v"), notes)})
        before = _cold(text, db, SumRanking())
        stream = QueryEngine(db).stream(text, SumRanking())
        posts = {p for _, p in edges}
        db.get("A").remove(next(row for row in notes if row[0] not in posts))
        db.get("A").add((0, 3, 3))
        assert _pairs(stream.all()) == before, seed


@pytest.mark.parametrize("shape", ["3hop", "4hop", "star3", "feed"])
@pytest.mark.parametrize("k", [1, 10, 100])
def test_post_write_streams_match_cold(shape, k):
    db = _db(seed=k)
    engine = QueryEngine(db)
    ranking = SumRanking()
    text = TEXT[shape]
    rng = random.Random(shape)
    for _ in range(2):
        _take(engine.stream(text, ranking), k)
    for _ in range(6):
        _small_write(db, rng, rng.choice(["E", "A"]) if shape == "feed" else "E")
        expected = _cold(text, db, ranking, k)
        # The first stream after the write restarts from the carried
        # state, the second from the state the first one extended.
        assert _take(engine.stream(text, ranking), k) == expected
        assert _take(engine.stream(text, ranking), k) == expected
    assert engine.stats.ranked_carryovers > 0


def test_streams_open_across_a_write_interleave():
    db = _db(seed=3)
    engine = QueryEngine(db)
    text, ranking = TEXT["feed"], SumRanking()
    for _ in range(2):
        _take(engine.stream(text, ranking), 50)
    before = _cold(text, db, ranking, 300)
    old = iter(engine.stream(text, ranking))
    got_old = [next(old) for _ in range(20)]
    db.get("A").add_rows([(p, 0, 0) for p in range(5)])
    after = _cold(text, db, ranking, 300)
    new = iter(engine.stream(text, ranking))
    assert engine.stats.ranked_carryovers == 1
    got_new = []
    # Step by step: both streams pop groups the two states share.
    for _ in range(280):
        got_old.append(next(old))
        got_new.append(next(new))
    got_new += [next(new) for _ in range(20)]
    assert _pairs(got_old) == before
    assert _pairs(got_new) == after


def test_streams_on_threads_across_writes():
    # More threads than cores and a short switch interval, so streams on
    # the old and the carried state preempt each other inside the heap
    # loop over the groups both states share.  A lost update to a shared
    # group would change an answer.
    db = _db(seed=11)
    engine = QueryEngine(db)
    text, ranking = TEXT["4hop"], SumRanking()
    rng = random.Random(11)
    for _ in range(2):
        _take(engine.stream(text, ranking), 20)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            before = _cold(text, db, ranking, 150)
            old = [iter(engine.stream(text, ranking)) for _ in range(2)]
            firsts = [[next(old[0])], []]
            _small_write(db, rng, "E")
            after = _cold(text, db, ranking, 150)
            results = {}

            def drain(i, stream, got, expected):
                got = got + [a for a, _ in zip(stream, range(150 - len(got)))]
                results[i] = _pairs(got) == expected

            threads = [
                threading.Thread(target=drain, args=(i, old[i], firsts[i], before))
                for i in range(2)
            ] + [
                threading.Thread(
                    target=drain, args=(i, iter(engine.stream(text, ranking)), [], after)
                )
                for i in range(2, 4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert results == {i: True for i in range(4)}
    finally:
        sys.setswitchinterval(interval)
    assert engine.stats.ranked_carryovers == 4


def test_large_write_drops_the_state():
    db = _db(seed=4)
    engine = QueryEngine(db)
    text, ranking = TEXT["feed"], SumRanking()
    for _ in range(3):
        _take(engine.stream(text, ranking), 100)
    # A new cheapest annotation on every post touches every group.
    db.get("A").add_rows([(p, 0, 0) for p in range(140)])
    assert _take(engine.stream(text, ranking), 100) == _cold(text, db, ranking, 100)
    assert engine.stats.ranked_carryovers == 0
    assert _take(engine.stream(text, ranking), 100) == _cold(text, db, ranking, 100)


def test_write_the_plan_does_not_read_keeps_the_state():
    db = _db(seed=5)
    db.add_relation("Other", ("x",), [(1,), (2,)])
    engine = QueryEngine(db)
    text, ranking = TEXT["4hop"], SumRanking()
    for _ in range(2):
        _take(engine.stream(text, ranking), 100)
    state = _state(engine)
    db.get("Other").add((3,))
    assert _take(engine.stream(text, ranking), 100) == _cold(text, db, ranking, 100)
    assert _state(engine) is state
    assert engine.stats.ranked_carryovers == 1
    assert engine.stats.ranked_groups_dropped == 0


# --------------------------------------------------------------------- #
# what is kept
# --------------------------------------------------------------------- #
def _created(rt):
    return [g for g in rt.runs.groups if g is not None]


def _non_root(state):
    return acyclic._nodes(state.root_rt)[:-1]


def test_untouched_groups_survive_with_their_chains():
    db = _db(seed=6)
    engine = QueryEngine(db)
    text, ranking = TEXT["feed"], SumRanking()
    for _ in range(2):
        _take(engine.stream(text, ranking), 300)
    old = _state(engine)
    (node,) = _non_root(old)
    before = {g.runs.anchor_of(g.first.row): g for g in _created(node)}
    # One new annotation on one post: only that post's group is touched.
    post = next(iter(before))[0]
    db.get("A").add((post, 29, 29))
    _take(engine.stream(text, ranking), 300)
    assert engine.stats.ranked_groups_dropped == 1
    (moved,) = _non_root(_state(engine))
    after = {g.runs.anchor_of(g.first.row): g for g in _created(moved)}
    for anchor, group in before.items():
        if anchor != (post,):
            assert after[anchor] is group
    assert after[(post,)] is not before[(post,)]


def test_carried_state_refers_to_its_own_runs():
    # No kept group, run or link may point at runs a write superseded:
    # a chain of them would keep every old reduction's arrays alive.
    db = _db(seed=7)
    engine = QueryEngine(db)
    text, ranking = TEXT["3hop"], SumRanking()
    rng = random.Random(7)
    for _ in range(2):
        _take(engine.stream(text, ranking), 200)
    for _ in range(5):
        _small_write(db, rng, "E")
        _take(engine.stream(text, ranking), 200)
    assert engine.stats.ranked_carryovers == 5
    state = _state(engine)
    for rt in acyclic._nodes(state.root_rt):
        assert all(group.runs is rt.runs for group in _created(rt))
        assert [runs for runs, _ in rt.runs.links] == [c.runs for c in rt.children]


def test_carried_state_counts_what_it_keeps():
    db = _db(seed=8)
    engine = QueryEngine(db)
    text, ranking = TEXT["4hop"], SumRanking()
    rng = random.Random(8)
    for _ in range(2):
        _take(engine.stream(text, ranking), 200)
    for _ in range(3):
        _small_write(db, rng, "E")
        _take(engine.stream(text, ranking), 200)
        state = _state(engine)
        nodes = acyclic._nodes(state.root_rt)
        entries = sum(rt.runs.bounds[-1] for rt in nodes)
        made = sum(g.made for rt in nodes[:-1] for g in _created(rt))
        assert state.cells == entries + made
    assert engine.stats.ranked_carryovers == 3


# --------------------------------------------------------------------- #
# the reduction diff
# --------------------------------------------------------------------- #
def test_reduction_diff_names_added_and_removed_rows():
    from repro.algorithms.yannakakis import atom_instances, full_reduce
    from repro.query.jointree import build_join_tree

    db = _db(seed=9)
    query = parse_query(TEXT["feed"])
    tree = build_join_tree(query)
    old = full_reduce(tree, atom_instances(query, db))
    removed_row = old["A"][5]
    db.get("A").remove(removed_row)
    db.get("A").add((old["A"][0][0], 29, 28))
    new = full_reduce(tree, atom_instances(query, db))
    diff = reduction_diff(old, new)
    added, removed = diff["A"]
    assert [new["A"][i] for i in added] == sorted(set(new["A"]) - set(old["A"]))
    assert [old["A"][i] for i in removed] == [removed_row]
    for alias, (added, removed) in diff.items():
        assert len(new[alias]) == len(old[alias]) + len(added) - len(removed)


# --------------------------------------------------------------------- #
# the lexicographic backtracker
# --------------------------------------------------------------------- #
def _fresh_groups(enum):
    return {
        key: {k: sorted(rows) for k, rows in index.items()}
        for key, index in enum._row_groups.items()
    }


@pytest.mark.parametrize(
    "ranking",
    [
        LexRanking(),
        LexRanking(descending=("u",)),
        LexRanking(
            weight=TableWeight(
                {"u": {u: -(u % 7) for u in range(400)}, "t": {t: t % 4 for t in range(30)}}
            )
        ),
    ],
    ids=["asc", "desc", "weighted"],
)
def test_lex_carry_over_patches_indexes_and_candidates(ranking):
    db = _db(seed=10)
    engine = QueryEngine(db)
    text = TEXT["lex"]
    rng = random.Random(10)
    for _ in range(2):
        _take(engine.stream(text, ranking), 300)
    edges = db.get("E")

    def new_user():
        # A first-level value no row had: the candidates gain one.
        edges.add_rows([(300 + rng.randrange(20), rng.randrange(120))])

    def drop_user():
        # Every row of one user: the candidates lose a value.
        user = rng.choice(edges.tuples)[0]
        for row in [row for row in edges.tuples if row[0] == user]:
            edges.remove(row)

    writes = [new_user, drop_user] + [
        lambda: _small_write(db, rng, rng.choice(["E", "A"])) for _ in range(4)
    ]
    for write in writes:
        write()
        expected = _cold(text, db, ranking, 300)
        enum = engine.stream(text, ranking)
        assert _take(enum, 300) == expected
        # The patched indexes (kept with the plan's data state) and
        # candidates are what a cold enumerator builds.
        state = _state(engine)
        (plan,) = engine._plans.values()
        row_groups = plan.data_state.row_groups
        fresh = create_enumerator(parse_query(text), db, ranking)
        assert _take(fresh, 300) == expected
        assert {
            key: {k: sorted(rows) for k, rows in index.items()}
            for key, index in row_groups.items()
        } == {key: _fresh_groups(fresh)[key] for key in row_groups}
        var = fresh._order[0]
        alias, pos = fresh._holders[var][0]
        values = {row[pos] for row in fresh._instances[alias]}
        assert sorted(v for _, v in state.candidates) == sorted(values)
        assert [c[1] for c in state.candidates] == [
            c[1] for c in sorted(state.candidates, key=lambda c: c[0])
        ]
    assert engine.stats.ranked_carryovers == 6
    assert engine.stats.ranked_groups_dropped == 0
