"""Unit tests for the priority queue and the cell data structure."""

import pytest

from repro.core.cell import Cell, UNSET
from repro.core.heap import HeapStats, RankHeap


def make_cell(row=(1, 2), out=(1,), key=1.0, children=()):
    return Cell(row, tuple(children), key, out, key, out)


class TestRankHeap:
    def test_orders_by_key(self):
        h = RankHeap()
        for key, item in [(3, "c"), (1, "a"), (2, "b")]:
            h.push(key, (), item)
        assert h.top() == "a"
        assert [h.pop() for _ in range(3)] == ["a", "b", "c"]

    def test_top_does_not_remove(self):
        h = RankHeap()
        h.push(1, (), "a")
        assert h.top() == "a"
        assert len(h) == 1

    def test_empty_top_raises(self):
        with pytest.raises(IndexError):
            RankHeap().top()

    def test_bool_and_len(self):
        h = RankHeap()
        assert not h
        h.push(1, (), "a")
        assert h and len(h) == 1

    def test_exact_ties_fifo_by_sequence(self):
        h = RankHeap()
        h.push(1, (), "first")
        h.push(1, (), "second")
        assert h.pop() == "first"
        assert h.pop() == "second"

    def test_top_key(self):
        h = RankHeap()
        h.push(2, "x", "item")
        assert h.top_key() == (2, "x")

    def test_items_view(self):
        h = RankHeap()
        h.push(2, (), "b")
        h.push(1, (), "a")
        assert sorted(h.items()) == ["a", "b"]


class TestHeapStats:
    def test_counters(self):
        stats = HeapStats()
        h1 = RankHeap(stats)
        h2 = RankHeap(stats)
        h1.push(1, (), "a")
        h2.push(2, (), "b")
        h2.push(0, (), "c")
        assert stats.pushes == 3
        assert stats.live_entries == 3
        assert stats.peak_entries == 3
        h2.pop()
        assert stats.pops == 1
        assert stats.live_entries == 2
        assert stats.peak_entries == 3  # high-water mark persists
        assert stats.operations == 4

    def test_snapshot(self):
        stats = HeapStats()
        snap = stats.snapshot()
        assert snap == {
            "pushes": 0,
            "pops": 0,
            "live_entries": 0,
            "peak_entries": 0,
        }


class TestCell:
    def test_next_starts_unset(self):
        c = make_cell()
        assert c.next is UNSET
        c.next = None
        assert c.next is None

    def test_sort_key(self):
        c = make_cell(key=2.5, out=(7,))
        assert c.sort_key == (2.5, (7,))

    def test_same_output(self):
        a = make_cell(row=(1, 2), out=(5,), key=1.0)
        b = make_cell(row=(9, 9), out=(5,), key=1.0)
        c = make_cell(row=(1, 2), out=(6,), key=1.0)
        assert a.same_output(b)
        assert not a.same_output(c)

    def test_identity_distinguishes_children(self):
        leaf1 = make_cell(out=(1,))
        leaf2 = make_cell(out=(2,))
        p1 = make_cell(row=(0, 0), children=(leaf1,))
        p2 = make_cell(row=(0, 0), children=(leaf2,))
        assert p1.identity() != p2.identity()

    def test_identity_same_structure_matches(self):
        leaf = make_cell()
        p1 = make_cell(row=(0, 0), children=(leaf,))
        p2 = make_cell(row=(0, 0), children=(leaf,))
        assert p1.identity() == p2.identity()

    def test_uids_unique(self):
        uids = {make_cell().uid for _ in range(100)}
        assert len(uids) == 100
