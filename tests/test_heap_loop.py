"""The heap loop's allocation and identity contracts.

``Topdown`` keys its duplicate-insert set on plain ints (the node
tuple's ordinal packed with the child cells' uids), heap entries are
flat ``(key, out, seq, cell)`` tuples and run outputs are built on
demand.  These tests pin what that buys — few GC-tracked objects kept
per created cell — and what it must not cost: distinct successors keep
distinct keys, and suppressing duplicates never changes the answers.
"""

import gc
import random

import pytest

from repro.algorithms.yannakakis import atom_instances, full_reduce
from repro.core.acyclic import AcyclicRankedEnumerator
from repro.core.cell import Cell, dedup_key
from repro.data import Database
from repro.query import build_join_tree, parse_query
from repro.storage import kernels

FOUR_HOP = parse_query("Q(a1, a3) :- E(a1, p1), E(a2, p1), E(a2, p2), E(a3, p2)")
#: Rooted at R, whose two children (the E atoms) share no variable.
FORK = parse_query("Q(a, b, c) :- R(a, x, y), E(x, b), E(y, c)")


@pytest.fixture(params=[True, False], ids=["array-build", "scalar-build"])
def kernels_on(request):
    before = kernels.enabled()
    kernels.set_enabled(request.param)
    yield request.param
    kernels.set_enabled(before)


def _graph(edges: int, left: int, right: int, seed: int) -> Database:
    rng = random.Random(seed)
    rows = sorted({(rng.randrange(left), rng.randrange(right)) for _ in range(edges)})
    return Database.from_dict({"E": (("a", "p"), rows)})


def test_few_gc_tracked_objects_kept_per_cell(kernels_on):
    # Every object the loop keeps is one more for the cyclic collector
    # to scan.  Flat heap entries, int dedup keys, on-demand run outputs
    # and no seen-set at one-child nodes keep about one tracked object
    # per created cell (1.1 here; three when entries nested the sort key
    # and the seen-set held tuples).
    enum = AcyclicRankedEnumerator(FOUR_HOP, _graph(2000, 400, 60, seed=7)).preprocess()
    answers = iter(enum)
    next(answers)
    gc.collect()
    gc.disable()
    try:
        cells_before = enum.stats.cells_created
        objects_before = len(gc.get_objects())
        for _ in range(300):
            next(answers)
        kept = len(gc.get_objects()) - objects_before
        created = enum.stats.cells_created - cells_before
    finally:
        gc.enable()
    assert created > 1000
    assert kept / created <= 1.5


def test_successors_that_advance_different_children_have_distinct_keys(kernels_on):
    # The root row (1, 0, 0) has two children; advancing either one
    # yields a successor with the same row and ordinal.  Both must be
    # queued: equal dedup keys would drop one and lose answers.
    db = Database.from_dict(
        {"R": (("c0", "c1", "c2"), [(1, 0, 0)]), "E": (("c0", "c1"), [(0, 1), (0, 2)])}
    )
    enum = AcyclicRankedEnumerator(FORK, db, root="R").preprocess()
    root = enum._root_rt
    assert len(root.children) == 2
    group = root.pqs[()]
    top = group.top()
    enum._topdown(top, root)
    successors = [c for c in group.items() if c.row == top.row and c is not top]
    assert len(successors) == 2
    first, second = successors
    assert first.ordinal == second.ordinal == top.ordinal
    assert [a is b for a, b in zip(first.children, second.children)].count(False) == 2
    assert first.identity() != second.identity()
    assert sorted(a.values for a in enum.fresh()) == [(1, b, c) for b in (1, 2) for c in (1, 2)]


def test_dedup_key_packs_ordinal_and_child_uids():
    leaf_a = Cell((1,), (), 0.0, (1,), 0.0, (1,))
    leaf_b = Cell((2,), (), 0.0, (2,), 0.0, (2,))
    assert dedup_key(5, (leaf_a, leaf_b)) == (5 << 64 | leaf_a.uid) << 64 | leaf_b.uid
    assert dedup_key(5, (leaf_a, leaf_b)) != dedup_key(5, (leaf_b, leaf_a))
    assert dedup_key(5, (leaf_a,)) != dedup_key(6, (leaf_a,))
    parent = Cell((0, 0), (leaf_a, leaf_b), 0.0, (1, 2), 0.0, (), ordinal=5)
    assert parent.identity() == dedup_key(5, (leaf_a, leaf_b))


@pytest.mark.parametrize("query", [FORK, FOUR_HOP], ids=["fork", "4hop"])
def test_dedup_inserts_on_and_off_give_identical_answers(kernels_on, query):
    db = _graph(240, 40, 12, seed=11)
    rng = random.Random(5)
    rows = sorted({(rng.randrange(40), rng.randrange(12), rng.randrange(12)) for _ in range(60)})
    db.add_relation("R", ("c0", "c1", "c2"), rows)
    runs = {}
    for dedup in (True, False):
        enum = AcyclicRankedEnumerator(query, db, root=query.atoms[0].alias, dedup_inserts=dedup)
        answers = [(a.values, a.score, a.key) for a in enum]
        runs[dedup] = answers, enum.heap_stats.pushes
    assert runs[True][0] == runs[False][0]
    assert len({values for values, _, _ in runs[True][0]}) == len(runs[True][0])
    if query is FORK:
        # The root's two children make Lawler duplicates to suppress.
        assert runs[True][1] < runs[False][1]


def test_int_verdict_is_memoised_per_row_list(monkeypatch):
    db = _graph(200, 30, 10, seed=3)
    instances = full_reduce(build_join_tree(FOUR_HOP), atom_instances(FOUR_HOP, db))
    scans = []
    real = kernels.rows_exactly_int

    def counting(rows, positions=None):
        scans.append(positions)
        return real(rows, positions)

    monkeypatch.setattr(kernels, "rows_exactly_int", counting)
    alias = FOUR_HOP.atoms[0].alias
    assert instances.exactly_int(alias, (0,))
    assert instances.exactly_int(alias, (0,))
    assert scans == [(0,)]
    assert instances.exactly_int(alias, (1,))
    assert len(scans) == 2
    # A new row list under the alias is scanned afresh: bools are not ints.
    instances[alias] = [(True, 0)] + list(instances[alias])
    assert not instances.exactly_int(alias, (0,))
    assert len(scans) == 3
