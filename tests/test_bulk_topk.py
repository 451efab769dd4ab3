"""``LIMIT k`` and the vectorised enumeration layer: ``top_k`` against
the materialise-dedup-sort baseline, batched join-tree combines,
heapify-based queue builds, the star structure's array-native ``O_H``,
and the lexicographic backtracker's cached weight tables.

Every ``top_k`` pops the lazily built queues; there is no second top-k
path.  The governing invariant throughout: every batched path is
bit-identical to its scalar twin or refuses into it, with the refusal
visible in the reason-coded counters, and every ``top_k`` equals
:class:`~repro.algorithms.baseline.EngineBaseline` in values, scores,
keys and tie order.
"""

from __future__ import annotations

import math
import random

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms.baseline import EngineBaseline
from repro.core.acyclic import AcyclicRankedEnumerator
from repro.core.heap import HeapStats, RankHeap
from repro.core.lexicographic import LexBacktrackEnumerator
from repro.core.ranking import (
    AvgRanking,
    LexRanking,
    MaxRanking,
    MinRanking,
    ProductRanking,
    SumRanking,
    TableWeight,
    batched_weight_table,
    combine_counters,
)
from repro.core.star import StarTradeoffEnumerator
from repro.data import Database
from repro.engine import QueryEngine
from repro.query import parse_query
from repro.storage import kernels, scores
from repro.workloads.weights import random_weights

TWO_HOP = "Q(a1, a2) :- E(a1, p), E(a2, p)"
CHAIN3 = "Q(a, d) :- R1(a, b), R2(b, c), R3(c, d)"
STAR3 = "Q(a1, a2, a3) :- R1(a1, b), R2(a2, b), R3(a3, b)"


@pytest.fixture(autouse=True)
def _vectorised_enabled():
    kernels.set_enabled(True)
    scores.set_enabled(True)
    yield
    kernels.set_enabled(True)
    scores.set_enabled(True)


def table_weight(domain, seed=3, **kwargs):
    return TableWeight({}, default_table=random_weights(domain, seed=seed), **kwargs)


def chain_db(n=300, seed=5):
    rng = random.Random(seed)
    db = Database()
    for name, attrs in (("R1", ("a", "b")), ("R2", ("b", "c")), ("R3", ("c", "d"))):
        db.add_relation(
            name, attrs, [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        )
    return db


def star_db(n=200, seed=9):
    """Star legs with a long random tail plus a few heavy A-values.

    Heaviness is per A-value degree; the heavy rows' B values come from
    a small domain so heavy A-triples actually share join partners and
    ``O_H`` is non-empty."""
    rng = random.Random(seed)
    db = Database()
    for i in (1, 2, 3):
        rows = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        for hub in range(5):
            rows.extend((hub, rng.randrange(15)) for _ in range(15))
        db.add_relation(f"R{i}", (f"a{i}", "b"), rows)
    return db


def output(answers):
    return [(a.values, a.score, a.key) for a in answers]


def heap_top_k(query, db, ranking, k, **kwargs):
    return AcyclicRankedEnumerator(query, db, ranking, **kwargs).top_k(k)


def baseline_top_k(query, db, ranking, k):
    """Materialise, dedup, sort, cut: the reference every ``top_k`` meets."""
    if isinstance(query, str):
        query = parse_query(query)
    return EngineBaseline(query, db, ranking).top_k(k)


# --------------------------------------------------------------------- #
# top-k: k boundaries
# --------------------------------------------------------------------- #
class TestThresholdCrossover:
    """``k`` at and around the boundaries where a top-k path could cut
    wrongly: ``k`` near 16 (where the retired bulk kernel's ceiling once
    switched paths), past the output size, inside a tie group."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_k_around_threshold(self, offset):
        db = chain_db()
        query = parse_query(CHAIN3)
        ranking = SumRanking(table_weight(range(300)))
        k = 16 + offset
        got = heap_top_k(query, db, ranking, k)
        assert output(got) == output(baseline_top_k(query, db, ranking, k))
        assert len(got) == k

    def test_direct_construction_defaults_to_heap(self):
        """``top_k`` pops the queues: cells and pops are spent."""
        db = chain_db()
        query = parse_query(CHAIN3)
        enum = AcyclicRankedEnumerator(query, db, SumRanking())
        got = enum.top_k(5)
        assert enum.heap_stats.pops > 0 and enum.stats.cells_created > 0
        assert output(got) == output(baseline_top_k(query, db, SumRanking(), 5))

    def test_k_beyond_output_size(self):
        """k larger than |answers| returns the full output."""
        db = Database()
        db.add_relation("E", ("a", "p"), [(1, 10), (2, 10), (3, 99)])
        query = parse_query(TWO_HOP)
        ranking = SumRanking()
        got = heap_top_k(query, db, ranking, 10_000)
        expected = AcyclicRankedEnumerator(query, db, ranking).all()
        assert output(got) == output(expected)
        assert output(got) == output(baseline_top_k(query, db, ranking, 10_000))

    def test_duplicate_scores_at_k_boundary(self):
        """Ties straddling position k: the cut keeps the baseline's
        tie-break order (key, then output tuple)."""
        db = Database()
        # Every pair scores 2.0: the whole output is one tie group.
        db.add_relation("E", ("a", "p"), [(i, 10) for i in range(1, 9)])
        query = parse_query(TWO_HOP)
        ranking = SumRanking(TableWeight({}, default_table={i: 1.0 for i in range(9)}))
        for k in (1, 7, 8, 63):
            got = heap_top_k(query, db, ranking, k)
            assert output(got) == output(baseline_top_k(query, db, ranking, k))
            assert len(got) == min(k, 64)

    def test_exhausts_the_enumerator(self):
        db = chain_db()
        query = parse_query(CHAIN3)
        enum = AcyclicRankedEnumerator(query, db, SumRanking())
        enum.top_k(4)
        with pytest.raises(Exception):
            list(enum)


# --------------------------------------------------------------------- #
# top-k: identity grid against the baseline
# --------------------------------------------------------------------- #
RANKINGS = {
    "sum": lambda w: SumRanking(w),
    "sum desc": lambda w: SumRanking(w, descending=True),
    "min": lambda w: MinRanking(w),
    "max": lambda w: MaxRanking(w),
    "avg": lambda w: AvgRanking(w),
    "product": lambda w: ProductRanking(w),
    "identity sum": lambda w: SumRanking(),
}


@pytest.mark.parametrize("name", sorted(RANKINGS))
def test_ranking_identity_direct(name):
    db = chain_db(n=150)
    query = parse_query(CHAIN3)
    ranking = RANKINGS[name](table_weight(range(150)))
    for k in (1, 5, 40):
        got = heap_top_k(query, db, ranking, k)
        expected = baseline_top_k(query, db, ranking, k)
        assert output(got) == output(expected)


@pytest.mark.parametrize("encode", [False, True])
@pytest.mark.parametrize("use_kernels", [True, False])
def test_engine_grid_identity(encode, use_kernels):
    """encoded x kernels, k small and large: the engine's ``top_k``
    equals the baseline in every answer, score and tie."""
    db = chain_db(n=400)  # 400 distinct answers
    query = CHAIN3
    ranking = SumRanking(table_weight(range(400)))
    kernels.set_enabled(use_kernels)
    scores.set_enabled(use_kernels)
    try:
        for k in (25, 300):
            answers = QueryEngine(db, encode=encode).execute(query, ranking, k=k)
            assert output(answers) == output(baseline_top_k(query, db, ranking, k))
            assert len(answers) == k
    finally:
        kernels.set_enabled(True)
        scores.set_enabled(True)


def test_string_values_fall_back():
    """Non-int columns refuse the array queue build; the scalar build
    serves the same answers."""
    db = Database()
    db.add_relation("E", ("a", "p"), [(f"v{i}", "h") for i in range(6)])
    query = parse_query(TWO_HOP)
    ranking = LexRanking()
    enum = AcyclicRankedEnumerator(query, db, ranking)
    got = enum.top_k(5)
    assert enum._root_rt.runs is None
    assert output(got) == output(baseline_top_k(query, db, ranking, 5))


def test_no_numpy_environment_serves_through_heap():
    db = chain_db(n=100)
    query = parse_query(CHAIN3)
    ranking = SumRanking(table_weight(range(100)))
    kernels.set_enabled(False)
    scores.set_enabled(False)
    try:
        scalar = heap_top_k(query, db, ranking, 20)
    finally:
        kernels.set_enabled(True)
        scores.set_enabled(True)
    assert output(scalar) == output(heap_top_k(query, db, ranking, 20))
    assert output(scalar) == output(baseline_top_k(query, db, ranking, 20))


def complete_bipartite_db(m, q):
    """Every one of ``m`` entities linked to every one of ``q`` hubs
    (hub ids follow the entity ids: weights cover ``range(m + q)``)."""
    db = Database()
    db.add_relation("E", ("a", "p"), [(a, m + p) for a in range(m) for p in range(q)])
    return db


@pytest.mark.parametrize(
    "text, m, q",
    [
        ("Q(a1, p2) :- E(a1, p1), E(a2, p1), E(a2, p2)", 12, 3),  # 3hop
        ("Q(a1, a2, a3) :- E(a1, p), E(a2, p), E(a3, p)", 10, 2),  # star3
    ],
    ids=["3hop", "star3"],
)
def test_high_fanout_identity(text, m, q):
    """Joins where every answer has many derivations: deduplication
    inside the queues leaves exactly the baseline's distinct answers."""
    db = complete_bipartite_db(m, q)
    query = parse_query(text)
    ranking = SumRanking(table_weight(range(m + q)))
    for k in (1, 7, 36, 1000):
        got = heap_top_k(query, db, ranking, k)
        assert output(got) == output(baseline_top_k(query, db, ranking, k))


def test_unit_fanout_chain_identity():
    """A chain where every row joins exactly one row, drained past k."""
    n = 500
    db = Database()
    for name, attrs in (("R1", ("a", "b")), ("R2", ("b", "c")), ("R3", ("c", "d"))):
        db.add_relation(name, attrs, [(i, i) for i in range(n)])
    query = parse_query(CHAIN3)
    ranking = SumRanking(table_weight(range(n)))
    got = heap_top_k(query, db, ranking, 1000)
    assert len(got) == n
    assert output(got) == output(baseline_top_k(query, db, ranking, 1000))


# --------------------------------------------------------------------- #
# engine counters
# --------------------------------------------------------------------- #
class TestEngineCounters:
    def test_bulk_topk_counted(self):
        """The bulk counters are retired: they stay in the snapshot and
        read 0, whatever ``k`` is."""
        db = chain_db(n=100)
        engine = QueryEngine(db)
        for k in (1, 10, 1000):
            engine.execute(CHAIN3, SumRanking(), k=k)
        snap = engine.stats.snapshot()
        assert snap["bulk_topk_calls"] == 0
        assert snap["bulk_topk_fallbacks"] == 0

    def test_disabled_engine_never_bulk_serves(self):
        """An engine ``top_k`` is served by popping the queues."""
        db = chain_db(n=100)
        engine = QueryEngine(db)
        engine.execute(CHAIN3, SumRanking(), k=10)
        enum = engine.last_enumerator
        assert enum.heap_stats.pops > 0 and enum.stats.cells_created > 0
        assert engine.stats.bulk_topk_calls == 0

    def test_batched_combines_counted_on_full_enumeration(self):
        # No k: the heap path runs and builds internal node queues with
        # the batched combine (CHAIN3 has two internal nodes).
        db = chain_db(n=100)
        engine = QueryEngine(db)
        engine.execute(CHAIN3, SumRanking())
        assert engine.stats.batched_combines >= 1

    def test_measure_scope_carries_new_counters(self):
        db = chain_db(n=100)
        engine = QueryEngine(db)
        with engine.measure() as req:
            engine.execute(CHAIN3, SumRanking(), k=10)
        snap = req.snapshot()
        assert snap["batched_combines"] >= 1
        assert snap["bulk_topk_calls"] == 0 and snap["bulk_topk_fallbacks"] == 0


# --------------------------------------------------------------------- #
# reason-coded fallbacks
# --------------------------------------------------------------------- #
class TestFallbackReasons:
    def test_unbatchable_ranking_reason(self):
        """A ranking with no array form (a composite) builds its queues
        the scalar way, and the refusal is tagged with its reason."""
        db = chain_db(n=60)
        query = parse_query(CHAIN3)
        ranking = SumRanking().then_by(LexRanking())
        with combine_counters.collect() as tally:
            got = heap_top_k(query, db, ranking, 5)
        # One refusal per node with children: CHAIN3 has two.
        assert tally.reasons.get("unbatchable-ranking") == 2
        assert output(got) == output(baseline_top_k(query, db, ranking, 5))

    def test_kernel_conversion_reason(self):
        """String keys refuse the semi-join mask kernel's int64 arrays."""
        from repro.algorithms.semijoin import semijoin

        rows = [(f"v{i}", "h") for i in range(kernels.KERNEL_MIN_ROWS)]
        before = kernels.counters.reasons_snapshot().get("conversion", 0)
        with kernels.counters.collect() as tally:
            semijoin(rows, (0, 1), rows, (0, 1))
        assert tally.reasons.get("conversion", 0) >= 1
        # the process-wide dict accumulated the same reason
        assert kernels.counters.reasons_snapshot().get("conversion", 0) >= before + 1

    def test_reset_clears_reasons(self):
        counters = kernels.KernelCounters()
        counters.record_fallback("pack-overflow")
        assert counters.reasons_snapshot() == {"pack-overflow": 1}
        counters.reset()
        assert counters.reasons_snapshot() == {}


# --------------------------------------------------------------------- #
# heapify-based bulk queue construction
# --------------------------------------------------------------------- #
class TestPushMany:
    def test_pop_sequence_identical_to_push_loop(self):
        rng = random.Random(41)
        entries = [(rng.randrange(50), (), f"item{i}") for i in range(200)]
        looped: RankHeap = RankHeap(HeapStats())
        for key, out, item in entries:
            looped.push(key, out, item)
        bulk: RankHeap = RankHeap(HeapStats())
        bulk.push_many(entries)
        assert bulk.stats.pushes == looped.stats.pushes == 200
        assert bulk.stats.peak_entries == looped.stats.peak_entries == 200
        out_loop = [(looped.top_key(), looped.pop()) for _ in range(len(looped))]
        out_bulk = [(bulk.top_key(), bulk.pop()) for _ in range(len(bulk))]
        assert out_loop == out_bulk

    def test_push_many_onto_nonempty_heap(self):
        heap: RankHeap = RankHeap()
        heap.push(5, (), "five")
        heap.push(1, (), "one")
        heap.push_many([(3, (), "three"), (0, (), "zero"), (4, (), "four")])
        assert [heap.pop() for _ in range(len(heap))] == [
            "zero", "one", "three", "four", "five",
        ]

    def test_push_many_empty_iterable(self):
        heap: RankHeap = RankHeap()
        heap.push_many([])
        assert len(heap) == 0 and heap.stats.pushes == 0


# --------------------------------------------------------------------- #
# star: array-native O_H and top-k
# --------------------------------------------------------------------- #
class TestStarVectorised:
    def test_heavy_output_identical_to_scalar_build(self):
        db = star_db()
        query = parse_query(STAR3)
        ranking = SumRanking(table_weight(range(200)))
        batched = StarTradeoffEnumerator(query, db, ranking, delta=5).preprocess()
        scores.set_enabled(False)
        kernels.set_enabled(False)
        try:
            scalar = StarTradeoffEnumerator(query, db, ranking, delta=5).preprocess()
        finally:
            scores.set_enabled(True)
            kernels.set_enabled(True)
        assert batched.heavy_output == scalar.heavy_output
        assert batched.heavy_output_size > 0  # the hub went heavy

    def test_star_bulk_topk_identity(self):
        """The (m+1)-way merge's ``top_k`` equals the baseline."""
        db = star_db()
        query = parse_query(STAR3)
        ranking = SumRanking(table_weight(range(200)))
        for k in (1, 10, 200):
            enum = StarTradeoffEnumerator(query, db, ranking, delta=5)
            got = enum.top_k(k)
            assert enum.heavy_output_size > 0 and len(enum._subenums) > 0
            assert output(got) == output(baseline_top_k(query, db, ranking, k))

    def test_star_engine_identity(self):
        db = star_db()
        ranking = SumRanking(table_weight(range(200)))
        engine = QueryEngine(db)
        got = engine.execute(STAR3, ranking, method="star", delta=5, k=50)
        assert output(got) == output(baseline_top_k(STAR3, db, ranking, 50))


# --------------------------------------------------------------------- #
# lexicographic: cached weight tables
# --------------------------------------------------------------------- #
class TestLexWeightTables:
    def test_weighted_order_identical_with_and_without_tables(self):
        db = Database()
        rng = random.Random(13)
        db.add_relation(
            "E", ("a", "p"), [(rng.randrange(40), rng.randrange(25)) for _ in range(150)]
        )
        query = parse_query(TWO_HOP)
        weights = random_weights(range(40), seed=2)

        def weight(attr, value):
            return weights[value]

        cached = LexBacktrackEnumerator(query, db, weight=weight).all()
        scores.set_enabled(False)
        try:
            direct = LexBacktrackEnumerator(query, db, weight=weight).all()
        finally:
            scores.set_enabled(True)
        assert output(cached) == output(direct)

    def test_tables_built_once_per_variable(self):
        db = Database()
        db.add_relation("E", ("a", "p"), [(i % 7, i % 4) for i in range(60)])
        query = parse_query(TWO_HOP)
        calls: list = []

        def weight(attr, value):
            calls.append(value)
            return float(value)

        enum = LexBacktrackEnumerator(query, db, weight=weight).preprocess()
        assert set(enum._weight_tables) == {"a1", "a2"}
        built = len(calls)
        assert built == 14  # 7 distinct values per order variable
        enum.all()
        assert len(calls) == built  # enumeration reads the tables

    def test_raising_weight_raises_identically(self):
        db = Database()
        db.add_relation("E", ("a", "p"), [(1, 10), (2, 10), (3, 10)])
        query = parse_query(TWO_HOP)

        def weight(attr, value):
            if value == 2:
                raise ValueError("poisoned value")
            return float(value)

        with pytest.raises(ValueError, match="poisoned value"):
            LexBacktrackEnumerator(query, db, weight=weight).all()
        scores.set_enabled(False)
        try:
            with pytest.raises(ValueError, match="poisoned value"):
                LexBacktrackEnumerator(query, db, weight=weight).all()
        finally:
            scores.set_enabled(True)

    def test_batched_weight_table_refuses_on_non_int_rows(self):
        assert batched_weight_table(
            lambda a, v: 1.0, "a", {"E": [("x", 1)]}, "E", 0
        ) is None


# --------------------------------------------------------------------- #
# combine_key_arrays: bit-identical to the scalar combine
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize(
    "make",
    [SumRanking, MinRanking, MaxRanking, AvgRanking, ProductRanking],
    ids=lambda m: m.__name__,
)
def test_combine_key_arrays_bitwise(make, descending):
    rng = random.Random(31)
    ranking = make(table_weight(range(50)), descending=descending)
    bound = ranking.bind({"x": 0})
    arrays = [
        np.array([bound.key([("x", rng.randrange(50))]) for _ in range(64)])
        for _ in range(3)
    ]
    combined = bound.combine_key_arrays(arrays)
    assert combined is not None
    for i in range(64):
        expected = bound.combine([arr[i] for arr in arrays])
        got = float(combined[i])
        assert got == expected
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)


def test_combine_key_arrays_default_refuses():
    bound = LexRanking().bind({"x": 0})
    assert bound.combine_key_arrays([np.zeros(3)]) is None


# --------------------------------------------------------------------- #
# phase timing split
# --------------------------------------------------------------------- #
def test_phase_timings_populated():
    db = chain_db(n=100)
    query = parse_query(CHAIN3)
    enum = AcyclicRankedEnumerator(query, db, SumRanking())
    enum.top_k(10)
    snap = enum.stats.snapshot()
    assert snap["reduce_seconds"] >= 0.0
    assert snap["enumerate_seconds"] > 0.0
    assert snap["preprocess_seconds"] == pytest.approx(
        snap["reduce_seconds"] + snap["build_seconds"]
    )


# --------------------------------------------------------------------- #
# top-k identity grid on the chain4 / star3 workloads
# --------------------------------------------------------------------- #
CHAIN4 = "Q(a, e) :- R1(a, b), R2(b, c), R3(c, d), R4(d, e)"


def chain4_workload(n=1200, seed=7):
    """Four int-keyed chain relations with ~unit join fanout."""
    rng = random.Random(seed)
    db = Database()
    for name, attrs in (
        ("R1", ("a", "b")),
        ("R2", ("b", "c")),
        ("R3", ("c", "d")),
        ("R4", ("d", "e")),
    ):
        db.add_relation(
            name, attrs, [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        )
    return db, table_weight(range(n), seed=seed + 1)


def star3_workload(n=400, seed=23):
    """Three star legs: a long random tail plus eight hubs of degree 12
    over a small B domain, so ``O_H`` is non-empty at ``delta=10``."""
    rng = random.Random(seed)
    db = Database()
    for i in (1, 2, 3):
        rows = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        for hub in range(8):
            rows.extend((hub, rng.randrange(16)) for _ in range(12))
        db.add_relation(f"R{i}", (f"a{i}", "b"), rows)
    return db, table_weight(range(n), seed=seed + 1)


GRID_CASES = {
    "chain4": (chain4_workload, CHAIN4, False, {}),
    "chain4 desc": (chain4_workload, CHAIN4, True, {}),
    "star3": (star3_workload, STAR3, False, {"method": "star", "delta": 10}),
}


GRID_MODES = ["plain", "encoded", "no-numpy"]


@pytest.mark.parametrize(
    "case, mode", [(case, mode) for case in sorted(GRID_CASES) for mode in GRID_MODES]
)
def test_workload_grid_identity(case, mode):
    """``top_k(1000)`` in every execution mode equals the baseline."""
    make, text, descending, extra = GRID_CASES[case]
    db, weight = make()
    ranking = SumRanking(weight, descending=descending)
    expected = output(baseline_top_k(text, db, ranking, 1000))
    vectorised = mode != "no-numpy"
    kernels.set_enabled(vectorised)
    scores.set_enabled(vectorised)
    try:
        engine = QueryEngine(db, encode=mode == "encoded")
        answers = engine.execute(text, ranking, k=1000, **extra)
    finally:
        kernels.set_enabled(True)
        scores.set_enabled(True)
    assert output(answers) == expected
    assert len(expected) == 1000
