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
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.yannakakis import atom_instances, full_reduce
from repro.core import acyclic
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
from repro import QueryEngine, enumerate_ranked
from repro.data import Database
from repro.query import build_join_tree, parse_query
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
        group.push(head.key, head.out, rival)
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


# ---------------------------------------------------------------------- #
# lazy group sorts over a shared node layout
# ---------------------------------------------------------------------- #
LAYOUT_QUERIES = [
    parse_query("Q(a1, p2) :- R(a1, p1), R(a2, p1), R(a2, p2)"),  # 3hop
    parse_query("Q(a, d) :- R(a, b, c), S(b, c, d)"),  # two-column anchor
    parse_query("Q(a, b, d) :- R(a, b, c), S(b, c, d), T(a, b)"),  # two-column anchors, two children
    parse_query("Q(a1, a2, a3) :- R(a1, p), R(a2, p), R(a3, p)"),  # star3
]


@st.composite
def layout_cases(draw):
    query = draw(st.sampled_from(LAYOUT_QUERIES))
    arity = {atom.relation: len(atom.variables) for atom in query.atoms}
    domain = st.integers(min_value=0, max_value=2)
    spec = {
        name: (
            tuple(f"c{i}" for i in range(width)),
            draw(st.lists(st.tuples(*[domain] * width), min_size=1, max_size=40)),
        )
        for name, width in sorted(arity.items())
    }

    def ranking():
        kind = draw(st.sampled_from(["sum", "min", "max", "lex"]))
        # Two weights: keys tie heavily.
        table = {v: draw(st.sampled_from([0.0, 1.0])) for v in range(3)}
        weight = TableWeight({}, default_table=table)
        if kind == "lex":
            descending = draw(st.sets(st.sampled_from(query.head)))
            return LexRanking(weight=weight, descending=descending)
        return RANKINGS[kind](weight, descending=draw(st.booleans()))

    chunk = draw(st.sampled_from([1, 2, 3, 64]))
    return query, Database.from_dict(spec), ranking(), ranking(), chunk


@contextmanager
def sort_chunk(chunk: int):
    saved = acyclic._SORT_CHUNK
    acyclic._SORT_CHUNK = chunk
    try:
        yield
    finally:
        acyclic._SORT_CHUNK = saved


def reduced(query, db):
    return full_reduce(build_join_tree(query), atom_instances(query, db))


def forced(enum):
    """Every node's runs, with every group filled."""
    out = {}
    for rt in nodes(enum):
        runs = rt.runs
        assert runs is not None
        for g in range(len(runs.groups)):
            runs.reach(g, runs.bounds[g + 1] - 1)
        assert runs.fill_to == runs.bounds[1:]
        # Every group is filled: the source columns are dropped.
        assert runs.sort_cols is None and runs.fills is None
        batched = runs.head_keys is not None
        out[rt.alias] = (
            runs.row_idx,
            runs.keys if batched else None,
            runs.own_keys if batched else None,
            runs.outs,
            [link for _, link in runs.links],
            runs.bounds,
            [col.tolist() for col in runs.head_anchor],
            runs.head_keys.tolist() if batched else None,
            [col.tolist() for col in runs.head_outs],
        )
    return out


def eager_order(enum, rt) -> list[int]:
    """The permutation one ``lexsort`` of a node's forced runs by
    (anchor, key or LEX sort columns, output, row index) gives: the
    identity when the runs hold the rows fully sorted."""
    np = kernels.np
    runs = rt.runs
    rows = np.array(runs.row_idx, dtype=np.int64)
    anchors = [rt.anchor_of(runs.rows[i]) for i in runs.row_idx]
    anchor_cols = [
        np.array([anchor[j] for anchor in anchors], dtype=np.int64)
        for j in range(len(rt.anchor_positions))
    ]
    outs = [np.array(col, dtype=np.int64) for col in runs.outs]
    if runs.head_keys is not None:
        keys = [np.array(runs.keys, dtype=np.float64)]
    else:
        keys = enum.bound.key_sort_columns(rt.out_vars, outs)
    order = np.lexsort((rows, *outs[::-1], *keys[::-1], *anchor_cols[::-1]))
    change = [0] + [i for i in range(1, len(anchors)) if anchors[i] != anchors[i - 1]]
    assert runs.bounds == (change + [len(anchors)] if anchors else [0])
    return order.tolist()


@settings(max_examples=150, deadline=None)
@given(case=layout_cases())
def test_lazy_runs_equal_a_full_eager_sort(case):
    # ``first`` lays every node's rows out and ``second`` reuses those
    # layouts; both sort each group on first use (in chunks for the
    # small chunk sizes) and must end where one lexsort of the node's
    # rows puts them, as must ``second`` over layouts of its own.
    query, db, first, second, chunk = case
    with sort_chunk(chunk):
        shared = reduced(query, db)
        kwargs = dict(instances=shared, already_reduced=True)
        layouts = AcyclicRankedEnumerator(query, db, first, **kwargs).preprocess()
        lazy = AcyclicRankedEnumerator(query, db, second, **kwargs).preprocess()
        own = AcyclicRankedEnumerator(
            query, db, second, instances=reduced(query, db), already_reduced=True
        ).preprocess()
        for rt, lazy_rt in zip(nodes(layouts), nodes(lazy)):
            assert lazy_rt.runs.layout is rt.runs.layout
        forced(layouts)
        assert forced(lazy) == forced(own)
        for enum in (layouts, lazy):
            for rt in nodes(enum):
                assert eager_order(enum, rt) == list(range(len(rt.runs.row_idx)))


def test_layouts_do_not_depend_on_the_ranking_that_built_them():
    # SUM and MAX order the rows of a group differently; whichever
    # ranking builds a reduction's layouts first, they are the same.
    rows = [(a, p) for a in range(12) for p in range(5) if (a * 3 + p) % 4]
    db = Database.from_dict({"R": (("c0", "c1"), rows)})
    query = QUERIES[1]
    table = {v: float((v * 7) % 5) for v in range(12)}
    weight = TableWeight({}, default_table=table)
    rankings = [SumRanking(weight), MaxRanking(weight, descending=True)]

    def layouts(order):
        kwargs = dict(instances=reduced(query, db), already_reduced=True)
        enums = [AcyclicRankedEnumerator(query, db, r, **kwargs).preprocess() for r in order]
        out = {}
        for rt in nodes(enums[0]):
            layout = rt.runs.layout
            out[rt.alias] = (
                layout.row_idx.tolist(),
                layout.bounds,
                layout.gid.tolist(),
                [col.tolist() for col in layout.head_anchor],
                {p: col.tolist() for p, col in layout.own_cols.items()},
                [idx.tolist() for idx in layout.links],
            )
        for rt, first_rt in zip(nodes(enums[1]), nodes(enums[0])):
            assert rt.runs.layout is first_rt.runs.layout
        return out

    assert layouts(rankings) == layouts(rankings[::-1])


def test_top_1_fills_only_the_groups_it_creates():
    rows = [(a, p) for p in range(300) for a in (p, p + 1, p + 2)]
    db = Database.from_dict({"R": (("c0", "c1"), rows)})
    enum = AcyclicRankedEnumerator(QUERIES[1], db)  # 3hop: root, middle, leaf
    assert [a.values for a in enum.top_k(1)] == [(0, 0)]
    for rt in nodes(enum):
        runs = rt.runs
        filled = [g for g, end in enumerate(runs.fill_to) if end > runs.bounds[g]]
        created = [g for g, group in enumerate(runs.groups) if group is not None]
        # A created group is filled with the unfilled groups after it
        # that fit in the same chunk, and no other.
        assert set(created) <= set(filled)
        filled_rows = sum(runs.fill_to[g] - runs.bounds[g] for g in filled)
        assert filled_rows <= len(created) * acyclic._SORT_CHUNK
        if rt.is_root:
            assert runs.bounds == [0, len(rows)]
            assert acyclic._SORT_CHUNK <= runs.fill_to[0] < len(rows)
        else:
            assert len(created) <= 3 < len(runs.groups)
            assert filled_rows < runs.bounds[-1] / 4


def test_drained_runs_drop_their_sort_columns():
    # A ranking sorting each group of another ranking's layouts on first
    # use keeps its sort columns and fill matrices only until every
    # group is filled; draining the answers fills them all.
    rows = [(a, p) for p in range(60) for a in range(p % 7, p % 7 + 4)]
    db = Database.from_dict({"R": (("c0", "c1"), rows)})
    query = QUERIES[1]
    weight = TableWeight({v: {a: float((a * 7) % 5) for a in range(70)} for v in query.head})
    shared = reduced(query, db)
    kwargs = dict(instances=shared, already_reduced=True)
    AcyclicRankedEnumerator(query, db, SumRanking(), **kwargs).preprocess()
    lazy = AcyclicRankedEnumerator(query, db, SumRanking(weight), **kwargs)
    stream = iter(lazy)
    answers = [next(stream)]
    assert any(rt.runs.sort_cols is not None for rt in nodes(lazy))
    answers += list(stream)
    expected = enumerate_ranked(query, db, SumRanking(weight))
    assert [(a.values, a.score) for a in answers] == [(a.values, a.score) for a in expected]
    for rt in nodes(lazy):
        runs = rt.runs
        assert runs.fill_to == runs.bounds[1:] and not runs.unfilled
        assert runs.sort_cols is None and runs.fills is None


def test_rankings_of_one_query_share_the_layouts():
    db = Database.from_dict(
        {"R": (("c0", "c1"), [(a, p) for a in range(30) for p in range(4) if (a + p) % 3])}
    )
    engine = QueryEngine(db)
    text = "Q(a1, p2) :- R(a1, p1), R(a2, p1), R(a2, p2)"
    table = {v: float(v % 5) for v in range(41)}

    def layouts(ranking):
        expected = [(a.values, a.score) for a in enumerate_ranked(parse_query(text), db, ranking, k=20)]
        got = engine.execute(text, ranking, k=20)
        assert [(a.values, a.score) for a in got] == expected
        return {rt.alias: rt.runs.layout for rt in nodes(engine.last_enumerator)}

    first = layouts(SumRanking(TableWeight({}, default_table=table)))
    second = layouts(MaxRanking(TableWeight({}, default_table=table), descending=True))
    assert len(first) == 3
    assert all(second[alias] is layout for alias, layout in first.items())
    db.get("R").add((40, 1))
    after = layouts(SumRanking(TableWeight({}, default_table=table)))
    assert all(after[alias] is not layout for alias, layout in first.items())


def test_restarted_streams_on_threads_fill_the_shared_root():
    rows = [(a, p) for a in range(60) for p in range(40) if (a * 7 + p) % 5 == 0]
    db = Database.from_dict({"R": (("c0", "c1"), rows)})
    engine = QueryEngine(db)
    text = "Q(a1, a2) :- R(a1, p), R(a2, p)"
    ranking = SumRanking()
    expected = [(a.values, a.score) for a in enumerate_ranked(parse_query(text), db, ranking)]
    for _ in range(2):  # the second run keeps the state the next ones restart from
        engine.execute(text, ranking, k=1)
    root = engine.last_enumerator._root_rt.runs
    assert root.fill_to[0] < root.bounds[1]  # the root is sorted as far as it was read
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    results = {}

    def drain(i):
        results[i] = [(a.values, a.score) for a in engine.stream(text, ranking)]

    try:
        threads = [threading.Thread(target=drain, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {i: expected for i in range(4)}
    assert engine.stats.ranked_restarts == 4
    assert root.fill_to == root.bounds[1:]  # one fill state for every restart


def test_output_free_cartesian_node_under_lex():
    # S has no output and no anchor: under LEX its rows have no sort
    # column but their row order.
    db = Database.from_dict(
        {"R": (("a", "b"), [(3, 2), (1, 4)]), "S": (("c", "d"), [(5, 6), (7, 8)])}
    )
    query = parse_query("Q(a) :- R(a, b), S(c, d)")
    options = {"prune": False, "dedup_inserts": True, "instances": "reduce"}
    lazy, lazy_enum = run(query, db, LexRanking(), options, lazy=True)
    scalar, scalar_enum = run(query, db, LexRanking(), options, lazy=False)
    assert [values for values, _, _ in lazy] == [(1,), (3,)]
    assert repr(lazy) == repr(scalar)
    assert all(rt.runs is not None for rt in nodes(lazy_enum))


def test_carry_over_sorts_moved_groups_into_another_rankings_layout():
    # Two plans of one query share its data state.  After a write the
    # first plan's carry-over lays the new reduction out in its order;
    # the second plan's carry-over moves its groups into those layouts
    # and must sort them into its own order.
    rows = [(a, p) for a in range(40) for p in range(12) if (a * 5 + p * 3) % 7 < 3]
    db = Database.from_dict({"R": (("c0", "c1"), rows)})
    engine = QueryEngine(db)
    text = "Q(a1, p2) :- R(a1, p1), R(a2, p1), R(a2, p2)"
    table = {v: float((v * 7) % 5) for v in range(60)}
    rankings = [
        SumRanking(TableWeight({}, default_table=table)),
        SumRanking(TableWeight({}, default_table=table), descending=True),
    ]
    for ranking in rankings:
        for _ in range(2):
            engine.execute(text, ranking, k=30)
    db.get("R").add((41, 0))
    for ranking in rankings:
        expected = enumerate_ranked(parse_query(text), db, ranking, k=60)
        got = engine.execute(text, ranking, k=60)
        assert [(a.values, a.score) for a in got] == [(a.values, a.score) for a in expected]
    assert engine.stats.ranked_carryovers == 2
    sorted_nodes = [rt for rt in nodes(engine.last_enumerator) if rt.runs.sort_cols is not None]
    assert sorted_nodes  # the second plan's rebuilt nodes sort their groups
