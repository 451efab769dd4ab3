"""The array queue build against the scalar build it replaces.

With kernels on, a batchable ranking or LEX over ``int`` data builds
every join-tree node's queues as sorted runs whose cells are created only when
they reach the top of their group; with kernels off the scalar build
creates one cell and one heap entry per row.  The scalar build is the
oracle: answers, keys and tie order, heap pushes, pops and peak entries
and the queue operations per answer must be identical, with no more
cells created.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.yannakakis import atom_instances
from repro.core.acyclic import AcyclicRankedEnumerator
from repro.core.ranking import (
    AvgRanking,
    LexRanking,
    MaxRanking,
    MinRanking,
    ProductRanking,
    SumRanking,
    TableWeight,
)
from repro.data import Database
from repro.query import parse_query
from repro.storage import kernels

QUERIES = [
    parse_query("Q(a1, a2) :- R(a1, p), R(a2, p)"),  # 2hop self-join
    parse_query("Q(a1, p2) :- R(a1, p1), R(a2, p1), R(a2, p2)"),  # 3hop
    parse_query("Q(a1, a2, a3) :- R(a1, p), R(a2, p), R(a3, p)"),  # star3
    parse_query("Q(a, e) :- R1(a, b), R2(b, c), R3(c, d), R4(d, e)"),  # path4
    parse_query("Q(a, d) :- R(a, b, c), S(b, c, d)"),  # two-column anchor
    parse_query("Q(a, c) :- R(a, b), S(c, d)"),  # ()-anchored child
    parse_query("Q(a) :- R(a, b), S(b, c)"),  # output-free S (pruned or not)
    parse_query("Q(a, b, c) :- R(a, b), S(b, c)"),  # full join
]
RANKINGS = {
    "sum": SumRanking,
    "avg": AvgRanking,
    "min": MinRanking,
    "max": MaxRanking,
    "product": ProductRanking,
}
DOMAIN = range(4)
#: Few distinct weights, so rank keys tie often.  Infinite weights of
#: both signs make SUM keys NaN (inf + -inf), in the build or only in a
#: successor, so the array build refuses a node with an infinite
#: weight; PRODUCT needs non-negative weights.
WEIGHTS = {
    "sum": [0.0, 0.5, 1.0, 2.0, math.inf, -math.inf],
    "avg": [0.0, 0.5, 1.0, 2.0, math.inf, -math.inf],
    "min": [-1.0, 0.0, 0.5, 2.0],
    "max": [-1.0, 0.0, 0.5, 2.0],
    "product": [0.0, 0.5, 1.0, 2.0],
    # LEX compares (weight, value): int and float weights that are
    # equal tie, and infinities are plain values.
    "lex": [0, 1, 1.0, 0.5, math.inf, -math.inf],
}


@st.composite
def cases(draw):
    query = draw(st.sampled_from(QUERIES))
    arity = {atom.relation: len(atom.variables) for atom in query.atoms}
    spec = {
        name: (
            tuple(f"c{i}" for i in range(width)),
            draw(st.lists(st.tuples(*[st.sampled_from(DOMAIN)] * width), max_size=9)),
        )
        for name, width in sorted(arity.items())
    }
    kind = draw(st.sampled_from(sorted(WEIGHTS)))
    table = {v: draw(st.sampled_from(WEIGHTS[kind])) for v in DOMAIN}
    if kind == "lex":
        ranking = LexRanking(
            weight=draw(st.sampled_from([None, TableWeight({}, default_table=table)])),
            descending=draw(st.sets(st.sampled_from(query.head))),
        )
    else:
        ranking = RANKINGS[kind](
            TableWeight({}, default_table=table), descending=draw(st.booleans())
        )
    options = {
        "prune": draw(st.booleans()),
        "dedup_inserts": draw(st.booleans()),
        # "dangling": unreduced instances passed as already reduced;
        # "plain" also drops the code matrices the instances carry.
        "instances": draw(st.sampled_from(["reduce", "dangling", "plain"])),
    }
    return query, Database.from_dict(spec), ranking, options


def run(query, db, ranking, options, *, lazy: bool):
    kernels.set_enabled(lazy)
    try:
        kwargs = {"prune": options["prune"], "dedup_inserts": options["dedup_inserts"]}
        if options["instances"] != "reduce":
            instances = atom_instances(query, db)
            if options["instances"] == "plain":
                instances = {alias: list(rows) for alias, rows in instances.items()}
            kwargs.update(instances=instances, already_reduced=True)
        enum = AcyclicRankedEnumerator(query, db, ranking, **kwargs)
        answers = [(a.values, a.score, a.key) for a in enum]
        return answers, enum
    finally:
        kernels.set_enabled(True)


def nodes(enum):
    stack = [enum._root_rt]
    while stack:
        rt = stack.pop()
        yield rt
        stack.extend(rt.children)


def assert_same_work(lazy_enum, scalar_enum):
    lazy_heap, scalar_heap = lazy_enum.heap_stats, scalar_enum.heap_stats
    assert lazy_heap.pushes == scalar_heap.pushes
    assert lazy_heap.pops == scalar_heap.pops
    assert lazy_heap.peak_entries == scalar_heap.peak_entries
    assert lazy_enum.stats.pq_ops_per_answer == scalar_enum.stats.pq_ops_per_answer
    assert lazy_enum.stats.cells_created <= scalar_enum.stats.cells_created


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_lazy_build_matches_scalar_build(case):
    query, db, ranking, options = case
    lazy, lazy_enum = run(query, db, ranking, options, lazy=True)
    scalar, scalar_enum = run(query, db, ranking, options, lazy=False)
    # repr: bit-identical keys and scores (-0.0, int vs float, nan).
    assert repr(lazy) == repr(scalar)
    assert_same_work(lazy_enum, scalar_enum)
    assert all(rt.runs is None for rt in nodes(scalar_enum))
    weight = ranking.weight
    if isinstance(ranking, LexRanking) or all(
        math.isfinite(w) for w in weight.default_table.values()
    ):
        # LEX, or finite weights, over int data: every node is built
        # from arrays.
        assert all(rt.runs is not None for rt in nodes(lazy_enum))


@pytest.mark.parametrize("ranking_type", [SumRanking, LexRanking])
def test_nan_weight_takes_the_scalar_build(ranking_type):
    query = QUERIES[1]
    rows = [(a, p) for a in DOMAIN for p in DOMAIN if (a + p) % 2]
    db = Database.from_dict({"R": (("c0", "c1"), rows)})
    table = {0: 1.0, 1: math.nan, 2: 0.5, 3: 0.5}
    ranking = ranking_type(weight=TableWeight({}, default_table=table))
    options = {"prune": True, "dedup_inserts": True, "instances": "reduce"}
    lazy, lazy_enum = run(query, db, ranking, options, lazy=True)
    scalar, scalar_enum = run(query, db, ranking, options, lazy=False)
    assert lazy and repr(lazy) == repr(scalar)
    assert_same_work(lazy_enum, scalar_enum)
    # Every node owns a column holding the NaN-weighted value.
    assert all(rt.runs is None for rt in nodes(lazy_enum))
    assert lazy_enum.stats.cells_created == scalar_enum.stats.cells_created


def test_run_cells_are_created_when_they_reach_the_top():
    db = Database.from_dict(
        {"R": (("c0", "c1"), [(a, p) for a in range(20) for p in range(3)])}
    )
    enum = AcyclicRankedEnumerator(QUERIES[0], db).preprocess()
    assert enum.heap_stats.pushes == 120  # one entry per row at both nodes
    assert enum.stats.cells_created < 10  # the root head and its child tops
    first = enum.top_k(1)
    assert first[0].values == (0, 0)
    root = enum._root_rt
    child = root.children[0]
    # The root's top cell points at the child group heads, the cached
    # first cells of those groups.
    top = root.pqs[()].top()
    for cell in top.children:
        group = child.pqs[child.anchor_of(cell.row)]
        assert cell is group.first and cell.group is group


def test_items_creates_no_cell():
    db = Database.from_dict(
        {"R": (("c0", "c1"), [(a, p) for a in range(6) for p in range(3)])}
    )
    query = QUERIES[1]  # 3hop: a middle node whose cells point at a child
    streams = {}
    for lazy in (True, False):
        kernels.set_enabled(lazy)
        try:
            enum = AcyclicRankedEnumerator(query, db).preprocess()
        finally:
            kernels.set_enabled(True)
        streams[lazy] = (enum, iter(enum))

    def listing(enum):
        return {
            (rt.alias, u): sorted((c.key, c.out, c.row) for c in pq.items())
            for rt in nodes(enum)
            for u, pq in rt.pqs.items()
        }

    for _ in range(3):
        lazy_enum, scalar_enum = streams[True][0], streams[False][0]
        before = lazy_enum.stats.cells_created
        assert listing(lazy_enum) == listing(scalar_enum)
        assert lazy_enum.stats.cells_created == before
        assert next(streams[True][1]) == next(streams[False][1])


def test_run_entry_beats_an_equal_successor():
    # The scalar heap orders equal (key, out) entries by insertion: a
    # row queued at build time pops before any successor pushed later.
    db = Database.from_dict({"R": (("c0", "c1"), [(1, 5), (2, 5), (3, 5)])})
    enum = AcyclicRankedEnumerator(QUERIES[0], db).preprocess()
    group = enum._root_rt.children[0].pqs[(5,)]
    popped = []
    for _ in range(2):
        head = group.top()
        rival = type(head)(head.row, (), head.key, head.out, head.own_key, head.own_out)
        group.push((head.key, head.out), rival)
        assert len(group) == 4 - len(popped) // 2
        popped += [group.pop(), group.pop()]
        assert popped[-2:] == [head, rival]
    assert [c.out for c in popped] == [(1,), (1,), (2,), (2,)]
    assert group.pop().out == (3,) and not group


def test_top_1_creates_few_groups():
    # 300 anchor values at the child, two rows each: LIMIT 1 reaches one.
    rows = [(a, p) for p in range(300) for a in (p, p + 1)]
    db = Database.from_dict({"R": (("c0", "c1"), rows)})
    query = QUERIES[0]

    def top_1(lazy: bool, every_group: bool = False):
        kernels.set_enabled(lazy)
        try:
            enum = AcyclicRankedEnumerator(query, db).preprocess()
        finally:
            kernels.set_enabled(True)
        if every_group:
            for rt in nodes(enum):
                dict(rt.pqs.items())  # an inspection creates every group
        assert [a.values for a in enum.top_k(1)] == [(0, 0)]
        return enum

    on_demand, eager, scalar = top_1(True), top_1(True, every_group=True), top_1(False)
    child = on_demand._root_rt.children[0]
    created = sum(group is not None for group in child.runs.groups)
    assert len(child.runs.groups) == 300 and created <= 2
    assert all(group is not None for group in eager._root_rt.children[0].runs.groups)
    for enum in (eager, scalar):
        assert on_demand.heap_stats.snapshot() == enum.heap_stats.snapshot()
    assert on_demand.stats.cells_created == eager.stats.cells_created
    assert on_demand.stats.cells_created < scalar.stats.cells_created
