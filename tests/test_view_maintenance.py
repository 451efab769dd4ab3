"""Scan views kept under store deltas, and reductions built from the
previous one.

A write maps every cached view of a relation's
:class:`~repro.storage.paths.ScanPath` through its store delta — the
rows, their code matrix, the kept ``(domain, inverse)`` pairs and the
score views — instead of evicting them.  The oracle is a fresh
``ScanPath`` over the same store: after every step of a random
append/delete sequence (duplicates, selections, several writes between
two reads, plain, string and encoded stores) each maintained view must
equal it exactly: rows, order, codes, domains and scores.

A reduction built from the previous one
(:func:`~repro.algorithms.yannakakis.full_reduce`'s ``previous``) keeps
the aliases a write did not reach.  The oracle is a cold reduction:
rows, order, survivors and matrices must be equal, and so must the diff
from the previous reduction
(:func:`~repro.algorithms.yannakakis.reduction_diff`).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro import QueryEngine
from repro.algorithms.yannakakis import (
    _moved_rows,
    atom_instances,
    full_reduce,
    reduction_diff,
)
from repro.core.ranking import IdentityWeight, LexRanking, SumRanking, TableWeight
from repro.data import Database
from repro.query import build_join_tree, parse_query
from repro.storage import kernels
from repro.storage.deltas import StoreDelta, coalesced
from repro.storage.encoded import EncodedDatabase
from repro.storage.paths import ScanPath

VALUES = range(4)
#: (positions, selections, distinct): every view kind, with constants
#: that are ints, a float, and a string (a refused code view).
SIGNATURES = [
    ((0, 1, 2), (), False),
    ((0, 1, 2), (), True),
    ((1,), (), True),
    ((2, 0), (), True),
    ((), (), True),
    ((0,), ((1, 1),), False),
    ((2,), ((0, 2),), True),
    ((0, 1), ((2, 0), (1, 3)), True),
    ((1, 0), ((2, 1.0),), True),
    ((0,), ((1, "x"),), True),
]
WEIGHTS = [
    IdentityWeight(),
    # Values 3 have no weight: their score rows are missing.
    TableWeight({"a": {0: 0.5, 1: -1.0, 2: 2.5}}),
]


def _read(scan: ScanPath) -> dict:
    """Every view kind of every signature, as plain comparable values."""
    out = {}
    for sig in SIGNATURES:
        codes = scan.codes_view(*sig)
        entry = [scan.view(*sig), None if codes is None else codes.tolist()]
        if sig[0]:
            for weight in WEIGHTS:
                view = scan.scores_view(*sig, index=0, attr="a", weight=weight)
                entry.append(
                    None
                    if view is None
                    else (
                        view.scores.tolist(),
                        None if view.missing is None else view.missing.tolist(),
                    )
                )
            domain = scan._domains.get((sig, 0))
            entry.append(None if domain is None else [part.tolist() for part in domain])
        out[sig] = entry
    return out


def _write(rel, write, model: list) -> None:
    """Apply one write to ``rel`` and to ``model``, a plain list of its rows."""
    kind, payload = write
    if kind == "append":
        rel.add_rows(payload)
        model += payload
    elif kind == "remove":
        assert rel.remove(payload) == model.count(payload)
        model[:] = [row for row in model if row != payload]
    elif len(rel):  # delete store positions: any copy, first or not
        gone = {p % len(rel) for p in payload}
        rel._store.delete_rows(sorted(gone))
        model[:] = [row for i, row in enumerate(model) if i not in gone]


row_st = st.tuples(*[st.sampled_from(VALUES)] * 3)
rows_st = st.lists(row_st, max_size=12)
write_st = st.one_of(
    st.tuples(st.just("append"), st.lists(row_st, min_size=1, max_size=3)),
    st.tuples(st.just("remove"), row_st),
    st.tuples(st.just("delete"), st.lists(st.integers(0, 40), min_size=1, max_size=3)),
)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["plain", "strings", "encoded"]),
    rows=rows_st,
    steps=st.lists(st.lists(write_st, min_size=1, max_size=3), min_size=1, max_size=6),
)
def test_maintained_views_equal_a_fresh_build(kind, rows, steps):
    # Every value occurs, so an encoded image extends its dictionary in
    # place and keeps its relation objects across the writes.
    seed = [(v, v, v) for v in VALUES]
    convert = (lambda row: tuple(f"s{v}" for v in row)) if kind != "plain" else tuple
    db = Database()
    model = [convert(r) for r in seed + rows]
    base = db.add_relation("R", ("a", "b", "c"), model)
    image = EncodedDatabase(db) if kind == "encoded" else None

    def target():
        return image.refresh().database["R"] if image is not None else base

    scan = target().scan()
    _read(scan)  # every view cached before the first write
    for step in steps:
        for kind_, payload in step:
            if kind_ == "append":
                payload = [convert(r) for r in payload]
            elif kind_ == "remove":
                payload = convert(payload)
            _write(base, (kind_, payload), model)
        assert list(base) == model and [list(c) for c in base._store.columns] == [
            list(c) for c in zip(*model)
        ] + [[] for _ in range(3 if not model else 0)]
        rel = target()
        got = _read(rel.scan())
        assert got == _read(ScanPath(rel._store))
    if kind == "plain":
        # The path lived through every gap, several writes included.
        assert target().scan() is scan


def test_append_then_delete_in_one_gap_keeps_the_path():
    # Each write kind in one gap between two reads: the appended rows
    # come from the delta, not from the store as the later delete left it.
    db = Database()
    rel = db.add_relation("R", ("a", "b", "c"), [(1, 2, 3), (1, 2, 3), (2, 2, 0), (3, 1, 1)])
    scan = rel.scan()
    before = _read(scan)
    rel.add_rows([(0, 1, 2), (1, 2, 3), (3, 3, 3)])
    rel._store.delete_rows([0, 4])  # the first copy of a duplicated row, and an append
    rel.remove((2, 2, 0))
    rel.add_rows([(2, 2, 0)])
    assert rel.scan() is scan
    after = _read(scan)
    assert after == _read(ScanPath(rel._store)) and after != before


def test_a_write_the_view_does_not_see_keeps_its_objects():
    db = Database()
    rel = db.add_relation("R", ("a", "b"), [(a, a % 3) for a in range(30)])
    scan = rel.scan()
    sig = ((0,), ((1, 2),), True)
    rows, codes = scan.view(*sig), scan.codes_view(*sig)
    weight = IdentityWeight()
    weighed = scan.scores_view(*sig, index=0, attr="a", weight=weight)
    rel.add_rows([(99, 0), (98, 1)])  # no row passes the selection
    rel.remove((4, 1))
    assert rel.scan() is scan and scan.view(*sig) is rows
    assert np.array_equal(scan.codes_view(*sig), codes)
    kept = scan.scores_view(*sig, index=0, attr="a", weight=weight)
    assert kept.scores.tolist() == weighed.scores.tolist()
    rel.add_rows([(97, 2)])
    assert rel.scan().view(*sig) == rows + [(97,)]


def test_a_write_weighs_only_the_values_it_appends():
    calls = []

    class Counting(IdentityWeight):
        def __call__(self, attr, value):
            calls.append(value)
            return float(value)

        def weigh(self, attr, values):
            calls.extend(values)
            return [float(v) for v in values]

    db = Database()
    rel = db.add_relation("R", ("a",), [(v,) for v in range(50)])
    weight = Counting()
    sig = ((0,), (), True)
    rel.scan().scores_view(*sig, index=0, attr="a", weight=weight)
    assert sorted(calls) == list(range(50))
    del calls[:]
    rel.add_rows([(7,), (70,), (71,)])
    rel.remove((3,))
    view = rel.scan().scores_view(*sig, index=0, attr="a", weight=weight)
    assert sorted(calls) == [70, 71]  # 7 was there: the distinct view gains no row
    assert view.scores.tolist() == [float(r[0]) for r in rel.scan().view(*sig)]


def test_coalesced_deltas_have_the_same_effect():
    rows = list(range(10))
    deltas = [
        StoreDelta(1, 10, removed=[2, 5]),
        StoreDelta(2, 8, removed=[2, 6, 7]),
        StoreDelta(3, 5, append_count=2, appended=[(10,), (11,)]),
        StoreDelta(4, 7, append_count=1, appended=[(12,)]),
        StoreDelta(5, 8, removed=[0]),
    ]
    merged = coalesced(deltas)
    assert [d.is_append for d in merged] == [False, True, False]
    assert merged[0].removed == (2, 3, 5, 8, 9) and merged[0].base_rows == 10
    assert merged[1].appended == ((10,), (11,), (12,)) and merged[1].base_rows == 5

    def replay(items):
        out = list(rows)
        for d in items:
            if d.is_append:
                out += [r[0] for r in d.appended]
            else:
                assert d.base_rows == len(out)
                gone = set(d.removed)
                out = [v for i, v in enumerate(out) if i not in gone]
        return out

    assert replay(merged) == replay(deltas)


# --------------------------------------------------------------------- #
# reductions built from the previous one
# --------------------------------------------------------------------- #
QUERIES = [
    "Q(a, d) :- R(a, b), S(b, c), T(c, d)",
    "Q(a, c) :- R(a, b), S(b, 2), T(2, c)",
    "Q(a) :- R(a, b), S(b, c)",
]
pair_st = st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES))
rel_rows_st = st.lists(pair_st, max_size=10)
rel_write_st = st.tuples(
    st.sampled_from("RST"),
    st.one_of(
        st.tuples(st.just("append"), st.lists(pair_st, min_size=1, max_size=3)),
        st.tuples(st.just("remove"), pair_st),
        st.tuples(st.just("delete"), st.lists(st.integers(0, 40), min_size=1, max_size=2)),
    ),
)


def _diff(diff):
    if diff is None:
        return None
    return {alias: tuple(part.tolist() for part in parts) for alias, parts in diff.items()}


def _state(reduced, alias):
    survivors = reduced.survivors_of(alias)
    n = len(reduced.codes(alias)) if survivors is None else None
    return (
        reduced[alias],
        list(range(n)) if survivors is None else survivors.tolist(),
        reduced.codes(alias).tolist(),
    )


@settings(max_examples=100, deadline=None)
@given(
    text=st.sampled_from(QUERIES),
    rels=st.tuples(rel_rows_st, rel_rows_st, rel_rows_st),
    steps=st.lists(st.lists(rel_write_st, min_size=1, max_size=2), min_size=1, max_size=5),
)
def test_a_reduction_from_the_previous_equals_a_cold_one(text, rels, steps):
    query = parse_query(text)
    tree = build_join_tree(query)
    db = Database()
    for name, rows in zip("RST", rels):
        db.add_relation(name, ("x", "y"), rows + [(v, v) for v in VALUES])
    # Enough rows that a small write's changes are patched, not gathered.
    db["R"].add_rows([(a, a % 4) for a in range(100, 300)])
    previous = full_reduce(tree, atom_instances(query, db))
    for step in steps:
        for name, write in step:
            _write(db[name], write, list(db[name]))
        bound = atom_instances(query, db)
        reduced = full_reduce(tree, bound, previous=previous)
        cold = full_reduce(tree, atom_instances(query, db))
        fresh = Database()
        for rel in db:
            fresh.add_relation(rel.name, rel.attrs, list(rel))
        elsewhere = full_reduce(tree, atom_instances(query, fresh))
        for alias in reduced:
            assert _state(reduced, alias) == _state(cold, alias) == _state(elsewhere, alias)
            old_rows, old_kept = previous._inputs[alias]
            if old_rows is bound[alias] and _state(previous, alias)[1] == _state(cold, alias)[1]:
                assert reduced[alias] is previous[alias]  # kept, not gathered again
        assert _diff(reduction_diff(previous, reduced)) == _diff(reduction_diff(previous, cold))
        previous = reduced


def test_an_unwritten_subtree_keeps_its_rows_and_layouts():
    # R - S - T rooted at R: a write to R leaves S and T (and the
    # layouts the queue build derived from them) as they were; a write
    # to T reaches every node's subtree but T's own parent chain.
    db = Database()
    db.add_relation("R", ("x", "y"), [(a, a % 5) for a in range(40)])
    db.add_relation("S", ("x", "y"), [(b, b % 4) for b in range(5)])
    db.add_relation("T", ("x", "y"), [(c, c) for c in range(4)])
    text = "Q(a, d) :- R(a, b), S(b, c), T(c, d)"
    engine = QueryEngine(db)
    ranking = SumRanking()
    for each in (ranking, LexRanking()):
        engine.execute(text, each, k=5)
    plan = engine.prepare(text, ranking)
    before = plan.data_state.instances
    layouts = {alias: dict(before.derived(alias)) for alias in before}
    assert all(layouts.values())
    db["R"].add_rows([(41, 1)])
    engine.execute(text, ranking, k=5)
    after = plan.data_state.instances
    assert after is not before
    root = build_join_tree(parse_query(text)).root.alias
    for alias in after:
        if alias == root:
            assert after[alias] is not before[alias]
            continue
        assert after[alias] is before[alias]
        # Kept: the same layouts, found by the same keys.
        assert after.derived(alias) == layouts[alias]
        assert after.exactly_int(alias, (0,))


def test_the_lex_plan_keeps_the_unwritten_relation():
    # The url-rw shape: E is never written, A is.  E's reduced rows are
    # kept when its survivors did not change, and patched from slices of
    # the old list (with the diff the carry-over reads) when a few did.
    db = Database()
    db.add_relation("E", ("u", "p"), [(u, u % 500) for u in range(3000)])
    db.add_relation("A", ("p", "t", "v"), [(p, p % 9, p % 4) for p in range(0, 500, 2)])
    text = "Q(u, t) :- E(u, p), A(p, t, v)"
    query, tree = parse_query(text), build_join_tree(parse_query(text))
    engine = QueryEngine(db)
    ranking = LexRanking()
    engine.execute(text, ranking, k=50)
    plan = engine.prepare(text, ranking)
    for write, same in (((2, 8, 1), True), ((1, 0, 0), False), ((3, 2, 2), False)):
        before = plan.data_state.instances
        db["A"].add_rows([write])  # post 2 is reachable already; 1 and 3 are not
        got = engine.execute(text, ranking, k=50)
        after = plan.data_state.instances
        assert after is not before and (after["E"] is before["E"]) == same
        fresh = Database()
        for rel in db:
            fresh.add_relation(rel.name, rel.attrs, list(rel))
        cold = QueryEngine(fresh).execute(text, ranking, k=50)
        assert [(a.values, a.score) for a in got] == [(a.values, a.score) for a in cold]
        reduced = full_reduce(tree, atom_instances(query, fresh))
        assert after["E"] == reduced["E"]
        assert after.codes("E").tolist() == reduced.codes("E").tolist()
        added, removed = after.known_diff(before)["E"]
        gained = [r for r in after["E"] if r not in set(before["E"])]
        assert [after["E"][i] for i in added.tolist()] == gained
        assert not len(removed)
        assert _diff(reduction_diff(before, after)) == _diff(
            reduction_diff(before, full_reduce(tree, atom_instances(query, db)))
        )


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), data=st.data())
def test_moved_rows_equal_a_gather(n, data):
    # ``rows`` is the current view; the old reduced list holds some of
    # its rows, in view order, and rows a write took out of the view
    # (``-1`` in ``old_at``).
    rows = [(i, -i) for i in range(n)]
    if data.draw(st.booleans()):
        old_kept = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    else:  # long runs of old survivors, the slices' case
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo, n))
        holes = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        old_kept = sorted(set(range(lo, hi)) - holes)
    gone = data.draw(st.lists(st.integers(0, len(old_kept)), max_size=3))
    old_at = list(old_kept)
    for slot in sorted(gone, reverse=True):
        old_at.insert(slot, -1)
    old = [rows[i] if i >= 0 else ("gone", j) for j, i in enumerate(old_at)]
    if data.draw(st.booleans()):
        some = st.sets(st.integers(0, n - 1))
        kept = None if data.draw(st.booleans()) else sorted(data.draw(some))
    else:  # a few changes: the case the slices are for
        kept = sorted(set(old_kept) ^ data.draw(st.sets(st.integers(0, n - 1), max_size=3)))
    kept_arr = None if kept is None else np.array(kept, dtype=np.int64)
    new, added, removed = _moved_rows(old, np.array(old_at, dtype=np.int64), kept_arr, rows)
    assert new == (rows if kept is None else [rows[i] for i in kept])
    assert [new[i] for i in added.tolist()] == [r for r in new if r not in set(old)]
    assert [old[i] for i in removed.tolist()] == [r for r in old if r not in set(new)]


@pytest.mark.parametrize("n", [64, 200])
def test_a_new_row_before_the_old_ones_keeps_every_row(n, monkeypatch):
    # A write revives row 0 of an unwritten relation, ahead of every old
    # survivor: the new row is one slice and the old rows another.
    joined = []

    def record(runs, count, size, real=kernels.joined_runs):
        joined.append(real(runs, count, size))
        return joined[-1]

    monkeypatch.setattr(kernels, "joined_runs", record)
    rows = [(i, -i) for i in range(n)]
    old_at = np.arange(1, n)
    new, added, removed = _moved_rows(rows[1:], old_at, np.arange(n), rows)
    assert new == rows and added.tolist() == [0] and not len(removed)
    assert joined and joined[0] is not None  # the slices were taken
    # and a new row between and after old ones
    old_at = np.array([i for i in range(n) if i not in (0, n // 2, n - 1)])
    old = [rows[i] for i in old_at.tolist()]
    new, added, _ = _moved_rows(old, old_at, None, rows)
    assert new == rows and added.tolist() == [0, n // 2, n - 1]


def test_kernels_off_keeps_pure_projections():
    db = Database()
    rel = db.add_relation("R", ("a", "b"), [(1, 2), (1, 2), (3, 4)])
    saved = kernels.enabled()
    kernels.set_enabled(False)
    try:
        scan = rel.scan()
        views = [scan.view((0, 1)), scan.view((1,)), scan.view((0,), (), True)]
        rel.add_rows([(5, 6)])
        rel.remove((1, 2))
        rel.add_rows([(1, 7)])
        assert rel.scan() is scan
        assert scan._views.keys() == {((0, 1), (), False), ((1,), (), False)}
        assert scan.view((0, 1)) == [(3, 4), (5, 6), (1, 7)]
        assert scan.view((1,)) == [(4,), (6,), (7,)]
        assert scan.view((0,), (), True) == [(3,), (5,), (1,)]  # rebuilt
        assert views[0] == [(1, 2), (1, 2), (3, 4)]  # the old snapshot
    finally:
        kernels.set_enabled(saved)


def test_lineage_is_kept_only_for_cached_views(monkeypatch):
    # Selection views are keyed by constant; once a view leaves the
    # cache, so does the row list its lineage pins.
    monkeypatch.setattr(ScanPath, "MAX_VIEWS", 4)
    db = Database()
    rel = db.add_relation("R", ("a", "b"), [(i % 10, i) for i in range(40)])
    scan = rel.scan()
    for value in range(10):
        scan.view((1,), ((0, value),), True)
        rel.add_rows([(value, 100 + value)])
        assert rel.scan() is scan
        assert scan.lineage((1,), ((0, value),), True) is not None
        assert set(scan._lineage) <= set(scan._views) and len(scan._views) <= 4
