"""Unit tests for repro.data.database and repro.data.index."""

import pytest

from repro.data import Database, Relation, group_by
from repro.errors import SchemaError


class TestDatabase:
    def test_add_and_lookup(self):
        db = Database()
        r = db.add_relation("R", ("a",), [(1,)])
        assert db["R"] is r
        assert "R" in db
        assert db.get("S") is None

    def test_missing_relation_raises(self):
        with pytest.raises(SchemaError):
            Database()["nope"]

    def test_duplicate_name_rejected(self):
        db = Database()
        db.add_relation("R", ("a",))
        with pytest.raises(SchemaError):
            db.add(Relation("R", ("b",)))

    def test_readding_same_object_is_ok(self):
        db = Database()
        r = db.add_relation("R", ("a",))
        assert db.add(r) is r

    def test_size_is_total_tuples(self):
        db = Database.from_dict(
            {"R": (("a",), [(1,), (2,)]), "S": (("b",), [(3,)])}
        )
        assert db.size == 3
        assert len(db) == 2

    def test_names_and_iter_order(self):
        db = Database.from_dict({"R": (("a",), []), "S": (("b",), [])})
        assert db.names() == ["R", "S"]
        assert [r.name for r in db] == ["R", "S"]

    def test_copy_is_independent(self):
        db = Database.from_dict({"R": (("a",), [(1,)])})
        clone = db.copy()
        clone["R"].add((2,))
        assert len(db["R"]) == 1
        assert len(clone["R"]) == 2

    def test_stats(self):
        db = Database.from_dict({"R": (("a",), [(1,)])})
        assert db.stats() == {"R": 1, "|D|": 1}

    def test_constructor_accepts_relations(self):
        db = Database([Relation("R", ("a",), [(1,)])])
        assert db.size == 1


class TestGroupBy:
    def test_groups(self):
        rows = [(1, "x"), (1, "y"), (2, "z")]
        assert group_by(rows, (0,)) == {(1,): [(1, "x"), (1, "y")], (2,): [(2, "z")]}

    def test_empty_key_single_group(self):
        rows = [(1,), (2,)]
        assert group_by(rows, ()) == {(): [(1,), (2,)]}
