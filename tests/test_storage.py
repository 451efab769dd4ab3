"""The storage layer: column stores, access paths, dictionary encoding.

Covers the three contracts the subsystem promises:

* physical: :class:`ColumnStore` / :class:`ScanPath` behave like the
  row-major structures they replaced, and invalidate on mutation —
  including mutations through *another* relation sharing the store;
* encoding: the dictionary is order-preserving within type groups and
  bijective, so encoded execution is output-identical (scores, ties,
  order) to plain execution across every query class and ranking;
* caching: engine warm state built over encoded relations is
  invalidated by ``add``/``extend`` after it was built.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.planner import enumerate_ranked
from repro.core.ranking import (
    LexRanking,
    MaxRanking,
    MinRanking,
    RankingFunction,
    SumRanking,
    TableWeight,
)
from repro.data import Database, Relation
from repro.engine import QueryEngine
from repro.query import parse_query
from repro.storage import (
    ColumnStore,
    Dictionary,
    EncodedDatabase,
    open_snapshot,
    save_snapshot,
    wrap_ranking,
)


# --------------------------------------------------------------------- #
# ColumnStore
# --------------------------------------------------------------------- #
class TestColumnStore:
    def test_from_rows_roundtrip(self):
        rows = [(1, "x"), (2, "y"), (1, "x")]
        store = ColumnStore.from_rows(2, rows)
        assert store.rows() == rows
        assert store.column(0) == [1, 2, 1]
        assert len(store) == 3

    def test_from_columns_validates_lengths(self):
        with pytest.raises(ValueError):
            ColumnStore.from_columns([[1, 2], [3]])

    def test_project(self):
        store = ColumnStore.from_rows(3, [(1, 2, 3), (4, 5, 6)])
        assert store.project((2, 0)) == [(3, 1), (6, 4)]
        assert store.project((1,)) == [(2,), (5,)]
        assert store.project(()) == [(), ()]

    def test_append_bumps_version_and_invalidates_rows(self):
        store = ColumnStore.from_rows(2, [(1, 2)])
        first = store.rows()
        assert store.version == 0
        store.append((3, 4))
        assert store.version == 1
        assert store.rows() == [(1, 2), (3, 4)]
        assert store.rows() is not first

    def test_pickle_roundtrip(self):
        store = ColumnStore.from_rows(2, [(1, "a"), (2, "b")])
        clone = pickle.loads(pickle.dumps(store))
        assert clone.rows() == store.rows()
        assert clone.version == store.version

    @pytest.mark.parametrize("kind", ["plain", "mapped-base", "mapped-codes"])
    def test_delete_compaction_matches_cold_build(self, kind, tmp_path):
        np = pytest.importorskip("numpy")
        rows = [(i % 7, (i * 3) % 11) for i in range(40)]
        if kind == "plain":
            store = ColumnStore.from_rows(2, rows)
        else:
            db = Database()
            db.add_relation("R", ("a", "b"), rows)
            snapshot = open_snapshot(save_snapshot(db, tmp_path / "snap"))
            store = snapshot.store("R", kind.split("-")[1])
        rng = random.Random(kind)
        batches = [[0], [len(rows) - 2, 3, 3, 17], [], list(range(5, 12)), [0, 1]]
        for step, batch in enumerate(batches):
            if step == 3:
                store.append_rows([(9, 9), (8, 1)])
            if not batch:
                batch = rng.sample(range(len(store)), 4)
            held_rows = store.rows()
            held_codes = store.codes_array()
            held_copy = (list(held_rows), np.array(held_codes))
            gone = set(batch)
            survivors = [r for i, r in enumerate(held_rows) if i not in gone]
            store.delete_rows(batch)
            cold = ColumnStore.from_rows(2, survivors)
            assert [list(c) for c in store.columns] == cold.columns
            assert store.rows() == cold.rows() == survivors
            assert np.array_equal(store.codes_array(), cold.codes_array())
            assert store.codes_array().dtype == cold.codes_array().dtype
            # Compaction builds new objects: what was read before the
            # delete still shows the pre-delete snapshot.
            assert held_rows == held_copy[0]
            assert np.array_equal(held_codes, held_copy[1])
        store.delete_rows(range(len(store)))
        assert store.rows() == [] and len(store) == 0
        assert store.codes_array().shape == (0, 2)

    def test_delete_can_make_codes_representable(self):
        pytest.importorskip("numpy")
        store = ColumnStore.from_rows(2, [(1, 2), (1.5, 3), (4, 5)])
        assert store.codes_array() is None
        store.delete_rows([1])
        assert store.codes_array().tolist() == [[1, 2], [4, 5]]


# --------------------------------------------------------------------- #
# access paths
# --------------------------------------------------------------------- #
class TestAccessPaths:
    def test_scan_view_is_cached_per_signature(self):
        rel = Relation("R", ("a", "b"), [(1, 10), (1, 10), (2, 20)])
        v1 = rel.instance_rows((0,), (), distinct=True)
        v2 = rel.instance_rows((0,), (), distinct=True)
        assert v1 is v2  # memoised
        assert v1 == [(1,), (2,)]
        assert rel.instance_rows((0, 1), ((1, 10),)) == [(1, 10), (1, 10)]

    def test_mutation_invalidates_every_path(self):
        rel = Relation("R", ("a", "b"), [(1, 10)])
        view = rel.instance_rows((0,), (), distinct=True)
        projected = rel.instance_rows((1,))
        selected = rel.instance_rows((0,), ((1, 5),))
        rel.add((2, 5))
        fresh = rel.instance_rows((0,), (), distinct=True)
        assert fresh is not view and fresh == [(1,), (2,)]
        assert view == [(1,)]  # a held view keeps its snapshot
        assert rel.instance_rows((1,)) == [(10,), (5,)] and projected == [(10,)]
        assert rel.instance_rows((0,), ((1, 5),)) == [(2,)] and selected == []

    @pytest.mark.parametrize(
        "writes",
        [("add", "add"), ("add", "remove"), ("remove", "add"), ("remove", "remove")],
    )
    def test_multi_write_gap_matches_cold_views(self, writes):
        # Two writes between reads: every pure-projection view (rows and
        # codes) must equal the view of a relation built cold.
        rel = Relation("R", ("a", "b"), [(1, 10), (2, 20), (3, 30)])
        signatures = [((0, 1), (), False), ((1,), (), False), ((0,), (), True)]
        for positions, selections, distinct in signatures:
            rel.instance_rows(positions, selections, distinct=distinct)
            rel.instance_codes(positions, selections, distinct=distinct)
        for i, op in enumerate(writes):
            if op == "add":
                rel.add((7 + i, 70 + i))
            else:
                rel.remove(rel.tuples[0])
        cold = Relation("R", ("a", "b"), rel.tuples)
        for positions, selections, distinct in signatures:
            for read in ("instance_rows", "instance_codes"):
                got = getattr(rel, read)(positions, selections, distinct=distinct)
                expect = getattr(cold, read)(positions, selections, distinct=distinct)
                if read == "instance_codes" and expect is not None:
                    got, expect = got.tolist(), expect.tolist()
                assert got == expect

    def test_renamed_shares_store_and_invalidates_together(self):
        rel = Relation("R", ("a", "b"), [(1, 10)])
        view = rel.renamed("V")
        assert view.scan().rows() is rel.scan().rows()
        before = view.scan().view((0,), (), True)  # a view on the *replica*
        rel.add((2, 20))  # mutate through the *original*
        assert view.scan().view((0,), (), True) == [(1,), (2,)]
        assert before == [(1,)]
        assert len(view) == 2


# --------------------------------------------------------------------- #
# dictionary encoding
# --------------------------------------------------------------------- #
class TestDictionary:
    def test_order_preserving_within_groups(self):
        d = Dictionary.build([[3, 1.5, "b", 2, "a", b"z"]])
        decoded = [d.decode(c) for c in range(len(d))]
        assert decoded == [1.5, 2, 3, "a", "b", b"z"]
        # value order == code order wherever values are comparable
        assert d.encode(1.5) < d.encode(2) < d.encode(3)
        assert d.encode("a") < d.encode("b")

    def test_numeric_equivalence_collapses(self):
        d = Dictionary.build([[1, 1.0, True, 2]])
        assert len(d) == 2  # 1 == 1.0 == True is one value
        assert d.encode(1) == d.encode(1.0) == d.encode(True)

    def test_missing_value_sentinel_matches_nothing(self):
        d = Dictionary.build([[1, 2]])
        assert d.encode(99) == -1
        assert d.encode_row((1, 99)) == (0, -1)

    def test_covers(self):
        d = Dictionary.build([[1, "x"]])
        assert d.covers([[1], ["x"]])
        assert not d.covers([[1, "y"]])

    def test_pickle_ships_values_only(self):
        d = Dictionary.build([["a", "b"]])
        clone = pickle.loads(pickle.dumps(d))
        assert clone.values == d.values
        assert clone._codes is None  # rebuilt lazily
        assert clone.encode("b") == d.encode("b")


# --------------------------------------------------------------------- #
# encoded vs plain: output identity across query classes and rankings
# --------------------------------------------------------------------- #
def _string_db() -> Database:
    """Skewed, string-keyed edge data (one hub), plus mixed-type keys."""
    edges = [
        ("alice", "p1"), ("bob", "p1"), ("carol", "p1"), ("dave", "p1"),
        ("alice", "p2"), ("bob", "p2"), ("erin", "p3"), ("frank", "p3"),
        ("alice", "p4"),
    ]
    db = Database()
    db.add_relation("E", ("a", "p"), edges)
    db.add_relation("W", ("a", "w"), [
        ("alice", 1), ("bob", 5), ("carol", 2), ("dave", 9),
        ("erin", 4), ("frank", 4),
    ])
    return db


def _int_db() -> Database:
    db = Database()
    db.add_relation("R", ("a", "b"), [(1, 10), (2, 10), (4, 10), (3, 20), (1, 20)])
    db.add_relation("S", ("b", "c"), [(10, 7), (10, 8), (20, 7), (20, 9)])
    db.add_relation("T", ("c", "a"), [(7, 1), (8, 2), (9, 3), (7, 4)])
    return db


def _mixed_db() -> Database:
    """Join keys mixing ints and strings in one column (hash-only use)."""
    db = Database()
    db.add_relation("R", ("a", "k"), [(1, "x"), (2, 7), (3, "x"), (4, 7), (5, 8.0)])
    db.add_relation("S", ("k", "b"), [("x", 10), (7, 20), (8, 30)])
    return db


def _pairs(answers):
    return [(a.values, a.score) for a in answers]


_WEIGHTS = TableWeight(
    {},
    default_table={
        "alice": 1.0, "bob": 5.0, "carol": 2.0, "dave": 9.0,
        "erin": 4.0, "frank": 4.0, "zoe": 0.5,
    },
)

_CASES = [
    # (db factory, query text, ranking)
    (_int_db, "Q(a1, a2) :- R(a1, p), R(a2, p)", None),
    (_int_db, "Q(x, z) :- R(x, y), S(y, z)", None),
    (_int_db, "Q(x, y, z) :- R(x, y), S(y, z), T(z, x)", None),  # cyclic
    (_int_db, "Q(x) :- R(x, y) ; Q(x) :- S(y, x)", None),  # union... heads differ
    (_int_db, "Q(x, z) :- R(x, y), S(y, z)", MinRanking()),
    (_int_db, "Q(x, z) :- R(x, y), S(y, z)", MaxRanking()),
    (_int_db, "Q(x, z) :- R(x, y), S(y, z)", LexRanking(descending=("z",))),
    (_int_db, "Q(x, z) :- R(x, y), S(y, z)", SumRanking(descending=True)),
    (_string_db, "Q(a1, a2) :- E(a1, p), E(a2, p)", SumRanking(_WEIGHTS)),
    (_string_db, "Q(a1, a2) :- E(a1, p), E(a2, p)", LexRanking()),
    (_string_db, "Q(a1, a2) :- E(a1, p), E(a2, p)", LexRanking(weight=_WEIGHTS)),
    (_string_db, "Q(a1, a2) :- E(a1, p), E(a2, p)",
     SumRanking(_WEIGHTS).then_by(LexRanking())),
    (_string_db, "Q(w, x) :- E(x, p), W(x, w)", LexRanking()),
    (_mixed_db, "Q(a, b) :- R(a, k), S(k, b)", None),
    (_string_db, "Q(a1, a2) :- E(a1, 'p1'), E(a2, 'p1')", SumRanking(_WEIGHTS)),
    (_string_db, "Q(a1, a2) :- E(a1, 'nope'), E(a2, 'nope')", SumRanking(_WEIGHTS)),
]


class TestEncodedIdentity:
    @pytest.mark.parametrize("case", range(len(_CASES)))
    def test_encoded_matches_plain_and_cold(self, case):
        make_db, text, ranking = _CASES[case]
        query = parse_query(text)
        db = make_db()
        encoded = QueryEngine(db, encode=True)
        plain = QueryEngine(make_db(), encode=False)
        expected = _pairs(enumerate_ranked(query, make_db(), ranking))
        got_encoded = _pairs(encoded.execute(query, ranking))
        got_plain = _pairs(plain.execute(query, ranking))
        assert got_encoded == got_plain == expected
        # warm re-execution stays identical (and re-encodes nothing)
        builds = encoded.stats.encode_builds
        assert _pairs(encoded.execute(query, ranking)) == expected
        assert encoded.stats.encode_builds == builds

    @pytest.mark.parametrize("case", range(len(_CASES)))
    def test_top_1(self, case):
        make_db, text, ranking = _CASES[case]
        query = parse_query(text)
        expected = _pairs(enumerate_ranked(query, make_db(), ranking, k=1))
        got = _pairs(QueryEngine(make_db(), encode=True).execute(query, ranking, k=1))
        assert got == expected

    def test_star_method_encoded(self):
        db = _string_db()
        q = parse_query("Q(a1, a2) :- E(a1, p), E(a2, p)")
        expected = _pairs(
            enumerate_ranked(q, _string_db(), SumRanking(_WEIGHTS), epsilon=0.5)
        )
        got = _pairs(QueryEngine(db).execute(q, SumRanking(_WEIGHTS), epsilon=0.5))
        assert got == expected

    def test_lex_backtrack_method_encoded(self):
        db = _string_db()
        q = parse_query("Q(a1, a2) :- E(a1, p), E(a2, p)")
        expected = _pairs(
            enumerate_ranked(q, _string_db(), None, method="lex-backtrack")
        )
        engine = QueryEngine(db)
        got = _pairs(engine.execute(q, method="lex-backtrack"))
        assert got == expected
        assert engine.stats.encode_fallbacks == 0

    def test_unknown_ranking_class_falls_back(self):
        class WeirdRanking(SumRanking):
            pass

        db = _int_db()
        engine = QueryEngine(db, encode=True)
        q = parse_query("Q(x, z) :- R(x, y), S(y, z)")
        got = _pairs(engine.execute(q, WeirdRanking()))
        assert engine.stats.encode_fallbacks >= 1
        assert got == _pairs(enumerate_ranked(q, _int_db(), SumRanking()))

    def test_answer_values_are_decoded_types(self):
        engine = QueryEngine(_string_db())
        answers = engine.execute(
            "Q(a1, a2) :- E(a1, p), E(a2, p)", SumRanking(_WEIGHTS), k=3
        )
        for a in answers:
            assert all(isinstance(v, str) for v in a.values)
            assert isinstance(a.score, float)

    def test_lex_scores_are_decoded(self):
        engine = QueryEngine(_string_db())
        answers = engine.execute("Q(a1, a2) :- E(a1, p), E(a2, p)", LexRanking(), k=2)
        assert answers[0].score == ("alice", "alice")


# --------------------------------------------------------------------- #
# mutation-after-warm invalidation (engine / encoding)
# --------------------------------------------------------------------- #
class TestMutationInvalidation:
    def test_add_after_engine_warm_encoded(self):
        db = _string_db()
        engine = QueryEngine(db)
        q = "Q(a1, a2) :- E(a1, p), E(a2, p)"
        engine.execute(q, SumRanking(_WEIGHTS))
        db["E"].add(("zoe", "p1"))
        db["W"].add(("zoe", 0))
        got = _pairs(engine.execute(q, SumRanking(_WEIGHTS)))
        expected = _pairs(
            enumerate_ranked(parse_query(q), db, SumRanking(_WEIGHTS))
        )
        assert got == expected
        assert any("zoe" in a for a, _s in got)

    def test_new_value_rebuilds_dictionary_old_values_reencode_nothing(self):
        db = _int_db()
        engine = QueryEngine(db, encode=True)
        q = "Q(x, z) :- R(x, y), S(y, z)"
        engine.execute(q)
        assert engine.stats.encode_builds == 1
        # Values already known: dictionary survives, only R re-encodes.
        db["R"].add((1, 10))
        engine.execute(q)
        assert engine.stats.encode_builds == 1
        # A value sorting after the whole code space gets a code
        # incrementally — no rebuild, the code order stays isomorphic.
        db["R"].add((999, 10))
        got = _pairs(engine.execute(q))
        assert engine.stats.encode_builds == 1
        assert got == _pairs(enumerate_ranked(parse_query(q), db))
        # A brand-new value *inside* the existing order forces the
        # rebuild (assigning it an end code would break code order).
        db["R"].add((1, 15))
        got = _pairs(engine.execute(q))
        assert engine.stats.encode_builds == 2
        assert got == _pairs(enumerate_ranked(parse_query(q), db))

    def test_direct_encoded_database_refresh_reuses_unchanged_relations(self):
        db = _int_db()
        enc = EncodedDatabase(db).refresh()
        before = {name: entry[2] for name, entry in enc._relations.items()}
        db["R"].add((2, 20))  # existing values only
        enc.refresh()
        after = {name: entry[2] for name, entry in enc._relations.items()}
        assert after["S"] is before["S"] and after["T"] is before["T"]
        # Delta maintenance keeps even the mutated relation's encoded
        # object: its store replays the append instead of re-encoding.
        assert after["R"] is before["R"]
        assert len(after["R"]) == len(db["R"])


# --------------------------------------------------------------------- #
# prepared-plan soundness under encoding
# --------------------------------------------------------------------- #
class TestPreparedPlanEncoding:
    def test_prepare_make_enumerator_pattern_on_encoded_plan(self):
        # The documented pattern: prepare once, build enumerators against
        # engine.db — must stay correct when the plan is code-space.
        db = _string_db()
        engine = QueryEngine(db)
        q = parse_query("Q(a1, a2) :- E(a1, 'p1'), E(a2, 'p1')")
        prepared = engine.prepare(q, SumRanking(_WEIGHTS))
        got = _pairs(prepared.make_enumerator(engine.db).all())
        expected = _pairs(enumerate_ranked(q, _string_db(), SumRanking(_WEIGHTS)))
        assert got == expected and got  # constants survived translation

    def test_prepared_plan_survives_known_value_mutation(self):
        db = _string_db()
        engine = QueryEngine(db)
        q = parse_query("Q(a1, a2) :- E(a1, p), E(a2, p)")
        prepared = engine.prepare(q, SumRanking(_WEIGHTS))
        db["E"].add(("bob", "p3"))  # known values: same code space
        got = _pairs(prepared.make_enumerator(engine.db).all())
        assert got == _pairs(enumerate_ranked(q, db, SumRanking(_WEIGHTS)))

    def test_prepared_plan_stale_after_new_value(self):
        from repro.errors import QueryError

        db = _string_db()
        engine = QueryEngine(db)
        q = parse_query("Q(a1, a2) :- E(a1, p), E(a2, p)")
        prepared = engine.prepare(q, SumRanking(_WEIGHTS))
        db["E"].add(("never-seen-before", "p9"))  # new code space
        with pytest.raises(QueryError):
            prepared.make_enumerator(engine.db)
        # The engine itself re-prepares transparently.
        got = engine.execute(q, SumRanking(TableWeight({}, default_table={
            **_WEIGHTS.default_table, "never-seen-before": 7.0,
        })))
        assert got

    def test_encoded_plan_rejects_foreign_database(self):
        from repro.errors import QueryError

        engine = QueryEngine(_string_db())
        q = parse_query("Q(a1, a2) :- E(a1, p), E(a2, p)")
        prepared = engine.prepare(q, SumRanking(_WEIGHTS))
        with pytest.raises(QueryError):
            prepared.make_enumerator(_string_db())


# --------------------------------------------------------------------- #
# the layering gate itself (also wired into CI as a standalone step)
# --------------------------------------------------------------------- #
class TestLayeringGate:
    def test_no_raw_storage_access_outside_storage_layer(self):
        import importlib.util
        import os

        tools = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
        spec = importlib.util.spec_from_file_location(
            "check_layering", os.path.join(tools, "check_layering.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.check() == []


# --------------------------------------------------------------------- #
# ranking wrapper unit behaviour
# --------------------------------------------------------------------- #
class TestWrapRanking:
    def test_wraps_known_classes(self):
        d = Dictionary.build([[1, 2, 3]])
        for ranking in (
            None,
            SumRanking(),
            MinRanking(),
            MaxRanking(),
            LexRanking(),
            SumRanking().then_by(LexRanking()),
        ):
            assert wrap_ranking(ranking, d) is not None

    def test_rejects_subclasses(self):
        class Custom(RankingFunction):
            def bind(self, positions):  # pragma: no cover - never bound
                raise NotImplementedError

        d = Dictionary.build([[1]])
        assert wrap_ranking(Custom(), d) is None

    def test_describe_is_transparent(self):
        d = Dictionary.build([[1, 2]])
        original = SumRanking()
        assert wrap_ranking(original, d).describe() == original.describe()
