"""Unit tests for repro.data.relation."""

import pytest

from repro.data import Relation
from repro.errors import SchemaError


def make_r():
    return Relation("R", ("a", "b"), [(1, 10), (2, 20), (1, 30)])


class TestSchemaValidation:
    def test_basic_construction(self):
        r = make_r()
        assert r.name == "R"
        assert r.attrs == ("a", "b")
        assert len(r) == 3
        assert r.arity == 2

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ())

    def test_duplicate_attrs_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ("a", "a"))

    def test_non_string_attr_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ("a", 3))

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Relation("", ("a",))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ("a", "b"), [(1,)])

    def test_add_arity_checked(self):
        r = make_r()
        with pytest.raises(SchemaError):
            r.add((1, 2, 3))

    def test_rows_normalised_to_tuples(self):
        r = Relation("R", ("a", "b"), [[1, 2]])
        assert r.tuples == [(1, 2)]


class TestAccess:
    def test_position_and_positions(self):
        r = make_r()
        assert r.position("b") == 1
        assert r.positions(("b", "a")) == (1, 0)

    def test_position_unknown_attr(self):
        with pytest.raises(SchemaError):
            make_r().position("zz")

    def test_has_attr(self):
        r = make_r()
        assert r.has_attr("a") and not r.has_attr("z")

    def test_iteration_and_contains(self):
        r = make_r()
        assert list(r) == [(1, 10), (2, 20), (1, 30)]
        assert (1, 10) in r
        assert (9, 9) not in r


class TestAlgebra:
    def test_renamed_shares_tuples(self):
        r = make_r()
        r2 = r.renamed("S")
        assert r2.name == "S"
        assert r2.tuples is r.tuples

    def test_equality_is_structural(self):
        a = Relation("R", ("a",), [(2,), (1,)])
        b = Relation("R", ("a",), [(1,), (2,)])
        assert a == b
        assert a != Relation("S", ("a",), [(1,), (2,)])


class TestIndexes:
    def test_extend(self):
        r = make_r()
        r.extend([(7, 70), (8, 80)])
        assert len(r) == 5
