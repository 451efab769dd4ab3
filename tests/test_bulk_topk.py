"""The vectorised enumeration layer (ISSUE 10): bulk top-k kernel,
batched join-tree combines, heapify-based queue builds, the star
structure's array-native ``O_H``, and the lexicographic backtracker's
cached weight tables.

The governing invariant throughout: every batched path is bit-identical
to its scalar twin or refuses into it, with the refusal visible in the
reason-coded counters.
"""

from __future__ import annotations

import math
import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.algorithms.naive import join_results
from repro.core import acyclic
from repro.core.acyclic import BULK_TOPK_COST_FACTOR, AcyclicRankedEnumerator
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
    topk_counters,
)
from repro.core.star import StarTradeoffEnumerator
from repro.data import Database
from repro.engine import QueryEngine
from repro.query import build_join_tree, parse_query
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
    return AcyclicRankedEnumerator(
        query, db, ranking, bulk_topk_max_k=0, **kwargs
    ).top_k(k)


def bulk_top_k(query, db, ranking, k, *, threshold=None, **kwargs):
    return AcyclicRankedEnumerator(
        query, db, ranking, bulk_topk_max_k=threshold or k, **kwargs
    ).top_k(k)


# --------------------------------------------------------------------- #
# bulk top-k: threshold crossover
# --------------------------------------------------------------------- #
class TestThresholdCrossover:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_k_around_threshold(self, offset):
        """k at threshold-1 / threshold / threshold+1: the first two are
        bulk-served, the last runs the heap — all three identical."""
        db = chain_db()
        query = parse_query(CHAIN3)
        ranking = SumRanking(table_weight(range(300)))
        threshold = 16
        k = threshold + offset
        with topk_counters.collect() as tally:
            got = bulk_top_k(query, db, ranking, k, threshold=threshold)
        expected = heap_top_k(query, db, ranking, k)
        assert output(got) == output(expected)
        if offset <= 0:
            assert tally.calls == 1 and tally.fallbacks == 0
        else:
            assert tally.calls == 0

    def test_direct_construction_defaults_to_heap(self):
        db = chain_db()
        query = parse_query(CHAIN3)
        enum = AcyclicRankedEnumerator(query, db, SumRanking())
        with topk_counters.collect() as tally:
            enum.top_k(5)
        assert tally.calls == 0 and tally.fallbacks == 0

    def test_k_beyond_output_size(self):
        """k larger than |answers| returns the full output, still bulk."""
        db = Database()
        db.add_relation("E", ("a", "p"), [(1, 10), (2, 10), (3, 99)])
        query = parse_query(TWO_HOP)
        ranking = SumRanking()
        with topk_counters.collect() as tally:
            got = bulk_top_k(query, db, ranking, 10_000)
        assert tally.calls == 1
        expected = AcyclicRankedEnumerator(query, db, ranking).all()
        assert output(got) == output(expected)

    def test_duplicate_scores_at_k_boundary(self):
        """Ties straddling position k: the bulk cut keeps exactly the
        heap's tie-break order (key, then output tuple)."""
        db = Database()
        # Every pair scores 2.0: the whole output is one tie group.
        db.add_relation("E", ("a", "p"), [(i, 10) for i in range(1, 9)])
        query = parse_query(TWO_HOP)
        ranking = SumRanking(TableWeight({}, default_table={i: 1.0 for i in range(9)}))
        for k in (1, 7, 8, 63):
            got = bulk_top_k(query, db, ranking, k)
            expected = heap_top_k(query, db, ranking, k)
            assert output(got) == output(expected)
            assert len(got) == min(k, 64)

    def test_exhausts_the_enumerator(self):
        db = chain_db()
        query = parse_query(CHAIN3)
        enum = AcyclicRankedEnumerator(query, db, SumRanking(), bulk_topk_max_k=8)
        enum.top_k(4)
        with pytest.raises(Exception):
            list(enum)


# --------------------------------------------------------------------- #
# bulk top-k: identity grid
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
        got = bulk_top_k(query, db, ranking, k)
        expected = heap_top_k(query, db, ranking, k)
        assert output(got) == output(expected)


@pytest.mark.parametrize("encode", [False, True])
@pytest.mark.parametrize("shards", [0, 3])
@pytest.mark.parametrize("use_kernels", [True, False])
def test_engine_grid_identity(encode, shards, use_kernels):
    """encoded x sharded x kernels, k below and above the old 256
    ceiling: the engine's bulk default never changes any answer, score
    or tie order."""
    db = chain_db(n=400)  # 400 distinct answers
    query = CHAIN3
    ranking = SumRanking(table_weight(range(400)))
    kernels.set_enabled(use_kernels)
    scores.set_enabled(use_kernels)
    try:
        for k in (25, 300):
            outputs = {}
            for bulk in (None, 0):
                engine = QueryEngine(db, encode=encode, bulk_topk_max_k=bulk)
                if shards > 1:
                    answers = engine.execute_parallel(
                        query, ranking, shards=shards, backend="serial", k=k
                    )
                else:
                    answers = engine.execute(query, ranking, k=k)
                outputs[bulk] = output(answers)
                if not shards and use_kernels:
                    served = engine.stats.bulk_topk_calls
                    assert (bulk is None) == bool(served)
            assert outputs[None] == outputs[0]
            assert len(outputs[0]) == k
    finally:
        kernels.set_enabled(True)
        scores.set_enabled(True)


def test_string_values_fall_back():
    """Non-int columns refuse the bulk kernel; answers are unchanged."""
    db = Database()
    db.add_relation("E", ("a", "p"), [(f"v{i}", "h") for i in range(6)])
    query = parse_query(TWO_HOP)
    ranking = LexRanking()
    with topk_counters.collect() as tally:
        got = AcyclicRankedEnumerator(
            query, db, ranking, bulk_topk_max_k=64
        ).top_k(5)
    expected = heap_top_k(query, db, ranking, 5)
    assert output(got) == output(expected)
    assert tally.calls == 0 and tally.fallbacks == 1


def test_no_numpy_environment_serves_through_heap():
    db = chain_db(n=100)
    query = parse_query(CHAIN3)
    ranking = SumRanking(table_weight(range(100)))
    kernels.set_enabled(False)
    scores.set_enabled(False)
    try:
        with topk_counters.collect() as tally:
            scalar = bulk_top_k(query, db, ranking, 20)
        assert tally.calls == 0
    finally:
        kernels.set_enabled(True)
        scores.set_enabled(True)
    assert output(scalar) == output(bulk_top_k(query, db, ranking, 20))


# --------------------------------------------------------------------- #
# the cost gate: count the join, materialise it only when it is cheap
# --------------------------------------------------------------------- #
GATE_QUERIES = [
    parse_query("Q(a1, a2) :- R(a1, p), R(a2, p)"),  # self-join projection
    parse_query("Q(a, d) :- R(a, b), S(b, c), T(c, d)"),  # chain projection
    parse_query("Q(x1, x2, x3) :- R(x1, b), R(x2, b), R(x3, b)"),  # star
    parse_query("Q(a) :- R(a, b)"),  # single atom, projected
    parse_query("Q(a, b) :- R(a, b)"),  # single atom, full
    parse_query("Q(a) :- R(a, b), S(b, c)"),  # S is pruned (output-free)
    parse_query("Q(a, c) :- R(a, b), S(c, d)"),  # ()-anchored child
    parse_query("Q(a, b, c) :- R(a, b), S(b, c)"),  # full join
    parse_query("Q(a, d) :- R(a, b, c), S(b, c, d)"),  # two-column anchor
]

gate_values = st.integers(min_value=0, max_value=3)


@st.composite
def gate_cases(draw):
    query = draw(st.sampled_from(GATE_QUERIES))
    arity = {atom.relation: len(atom.variables) for atom in query.atoms}
    spec = {
        name: (
            tuple(f"c{i}" for i in range(width)),
            draw(st.lists(st.tuples(*[gate_values] * width), max_size=8)),
        )
        for name, width in sorted(arity.items())
    }
    return query, Database.from_dict(spec)


def counted_join_rows(query, db):
    """The gate's count, read back from the enumerator's stats."""
    enum = AcyclicRankedEnumerator(query, db, SumRanking(), bulk_topk_max_k=None)
    enum.top_k(1)
    return enum.stats.join_rows


@settings(max_examples=80, deadline=None)
@given(case=gate_cases())
def test_join_row_count_matches_brute_force(case):
    """The counting pass equals the brute-force size of the un-projected
    join over the atoms left after pruning (empty relations, self-joins,
    projections, single atoms and ()-anchored children included)."""
    query, db = case
    kept, _dropped = build_join_tree(query).pruned()
    variables = sorted({v for node in kept.post_order() for v in node.atom.variables})
    expected = len(
        {tuple(b[v] for v in variables) for b in join_results(query, db)}
    )
    assert counted_join_rows(query, db) == expected


def test_keyed_sums_matches_dict_group_sums():
    """keyed_sums equals a dict group-by; unmatched left keys sum to 0
    (reduced instances never have them, so the gate tests cannot)."""
    rng = random.Random(17)
    right = [rng.randrange(30) * 10**12 for _ in range(200)]
    weights = [float(rng.randrange(1, 9)) for _ in right]
    left = [rng.randrange(40) * 10**12 for _ in range(150)]
    sums: dict[int, float] = {}
    for key, w in zip(right, weights):
        sums[key] = sums.get(key, 0.0) + w
    got = kernels.keyed_sums(np.array(left), np.array(right), np.array(weights))
    assert got.tolist() == [sums.get(key, 0.0) for key in left]
    none = kernels.keyed_sums(np.array(left), np.array([], dtype=np.int64), np.array([]))
    assert none.tolist() == [0.0] * len(left)


def complete_bipartite_db(m, q):
    """Every one of ``m`` entities linked to every one of ``q`` hubs
    (hub ids follow the entity ids: weights cover ``range(m + q)``)."""
    db = Database()
    db.add_relation("E", ("a", "p"), [(a, m + p) for a in range(m) for p in range(q)])
    return db


@pytest.mark.parametrize(
    "text, m, q, join_rows",
    [
        # 3hop: J = (m q)^2 over N = 3 m q rows, so J/N = m q / 3.
        (
            "Q(a1, p2) :- E(a1, p1), E(a2, p1), E(a2, p2)",
            2 * BULK_TOPK_COST_FACTOR,
            4,
            lambda m, q: (m * q) ** 2,
        ),
        # star3: J = q m^3 over N = 3 m q rows, so J/N = m^2 / 3.
        (
            "Q(a1, a2, a3) :- E(a1, p), E(a2, p), E(a3, p)",
            2 * BULK_TOPK_COST_FACTOR,
            2,
            lambda m, q: q * m**3,
        ),
    ],
    ids=["3hop", "star3"],
)
def test_high_fanout_declines_for_cost(monkeypatch, text, m, q, join_rows):
    """A join that fans out past the gate is declined before any of it is
    materialised: join_indices is never reached, the decline is counted
    under "cost", and the heap serves the identical answers."""
    db = complete_bipartite_db(m, q)
    query = parse_query(text)
    ranking = SumRanking(table_weight(range(m + q)))
    expected = heap_top_k(query, db, ranking, 10)

    def no_join(*_args):
        raise AssertionError("the declined bulk path materialised a join")

    monkeypatch.setattr(kernels, "join_indices", no_join)
    enum = AcyclicRankedEnumerator(query, db, ranking, bulk_topk_max_k=None)
    with topk_counters.collect() as tally:
        got = enum.top_k(10)
    assert tally.calls == 0
    assert tally.reasons == {"cost": 1}
    assert enum.stats.join_rows == join_rows(m, q)
    assert output(got) == output(expected)


def test_high_fanout_engine_declines_for_cost():
    db = complete_bipartite_db(2 * BULK_TOPK_COST_FACTOR, 4)
    engine = QueryEngine(db)
    engine.execute("Q(a1, p2) :- E(a1, p1), E(a2, p1), E(a2, p2)", SumRanking(), k=10)
    assert engine.stats.bulk_topk_calls == 0
    assert engine.stats.bulk_topk_fallbacks == 1
    assert engine.last_enumerator.stats.join_rows > BULK_TOPK_COST_FACTOR * 3 * len(
        db["E"]
    )


def test_unit_fanout_chain_is_bulk_served():
    n = 500
    db = Database()
    for name, attrs in (("R1", ("a", "b")), ("R2", ("b", "c")), ("R3", ("c", "d"))):
        db.add_relation(name, attrs, [(i, i) for i in range(n)])
    query = parse_query(CHAIN3)
    ranking = SumRanking(table_weight(range(n)))
    enum = AcyclicRankedEnumerator(query, db, ranking, bulk_topk_max_k=None)
    with topk_counters.collect() as tally:
        got = enum.top_k(1000)
    assert tally.calls == 1 and tally.fallbacks == 0
    assert enum.stats.join_rows == n
    assert output(got) == output(heap_top_k(query, db, ranking, 1000))


def test_kernel_exact_past_the_gate(monkeypatch):
    """With the gate lifted the kernel serves a high-fanout projection
    bit-identically to the heap (dedup of many duplicates per answer)."""
    monkeypatch.setattr(acyclic, "BULK_TOPK_COST_FACTOR", float("inf"))
    db = complete_bipartite_db(12, 3)
    query = parse_query("Q(a1, p2) :- E(a1, p1), E(a2, p1), E(a2, p2)")
    ranking = SumRanking(table_weight(range(15)))
    for k in (1, 7, 36):
        with topk_counters.collect() as tally:
            got = bulk_top_k(query, db, ranking, k)
        assert tally.calls == 1
        assert output(got) == output(heap_top_k(query, db, ranking, k))


def test_positive_ceiling_still_caps_k():
    db = chain_db(n=100)
    query = parse_query(CHAIN3)
    with topk_counters.collect() as tally:
        AcyclicRankedEnumerator(query, db, SumRanking(), bulk_topk_max_k=8).top_k(9)
    assert tally.calls == 0 and tally.fallbacks == 0


# --------------------------------------------------------------------- #
# engine counters
# --------------------------------------------------------------------- #
class TestEngineCounters:
    def test_bulk_topk_counted(self):
        db = chain_db(n=100)
        engine = QueryEngine(db)
        engine.execute(CHAIN3, SumRanking(), k=10)
        assert engine.stats.bulk_topk_calls == 1
        assert engine.stats.bulk_topk_fallbacks == 0

    def test_disabled_engine_never_bulk_serves(self):
        db = chain_db(n=100)
        engine = QueryEngine(db, bulk_topk_max_k=0)
        engine.execute(CHAIN3, SumRanking(), k=10)
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
        assert snap["bulk_topk_calls"] == 1
        assert "batched_combines" in snap and "bulk_topk_fallbacks" in snap

    def test_lex_ranking_counts_a_fallback(self):
        db = chain_db(n=60)
        engine = QueryEngine(db)
        engine.execute(CHAIN3, LexRanking(), method="lindelay", k=10)
        assert engine.stats.bulk_topk_calls == 0
        assert engine.stats.bulk_topk_fallbacks >= 1


# --------------------------------------------------------------------- #
# reason-coded fallbacks
# --------------------------------------------------------------------- #
class TestFallbackReasons:
    def test_unbatchable_ranking_reason(self):
        db = chain_db(n=60)
        query = parse_query(CHAIN3)
        with topk_counters.collect() as tally:
            AcyclicRankedEnumerator(
                query, db, LexRanking(), bulk_topk_max_k=64
            ).top_k(5)
        assert tally.reasons.get("unbatchable-ranking") == 1

    def test_kernel_conversion_reason(self):
        before = kernels.counters.reasons_snapshot().get("conversion", 0)
        with kernels.counters.collect() as tally:
            kernels.shard_ids(["x", "y"], 4)
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
        entries = [(rng.randrange(50), f"item{i}") for i in range(200)]
        looped: RankHeap = RankHeap(HeapStats())
        for key, item in entries:
            looped.push(key, item)
        bulk: RankHeap = RankHeap(HeapStats())
        bulk.push_many(entries)
        assert bulk.stats.pushes == looped.stats.pushes == 200
        assert bulk.stats.peak_entries == looped.stats.peak_entries == 200
        out_loop = [(looped.top_key(), looped.pop()) for _ in range(len(looped))]
        out_bulk = [(bulk.top_key(), bulk.pop()) for _ in range(len(bulk))]
        assert out_loop == out_bulk

    def test_push_many_onto_nonempty_heap(self):
        heap: RankHeap = RankHeap()
        heap.push(5, "five")
        heap.push(1, "one")
        heap.push_many([(3, "three"), (0, "zero"), (4, "four")])
        assert [heap.pop() for _ in range(len(heap))] == [
            "zero", "one", "three", "four", "five",
        ]

    def test_push_many_empty_iterable(self):
        heap: RankHeap = RankHeap()
        heap.push_many([])
        assert len(heap) == 0 and heap.stats.pushes == 0


# --------------------------------------------------------------------- #
# star: array-native O_H and bulk serve
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
        db = star_db()
        query = parse_query(STAR3)
        ranking = SumRanking(table_weight(range(200)))
        for k in (1, 10, 200):
            with topk_counters.collect() as tally:
                got = StarTradeoffEnumerator(
                    query, db, ranking, delta=5, bulk_topk_max_k=512
                ).top_k(k)
            # The light-leg subqueries have ~unit fanout: bulk-served.
            assert tally.calls >= 1
            expected = StarTradeoffEnumerator(query, db, ranking, delta=5).top_k(k)
            assert output(got) == output(expected)

    def test_star_engine_identity(self):
        db = star_db()
        ranking = SumRanking(table_weight(range(200)))
        outputs = {}
        for bulk in (64, 0):
            engine = QueryEngine(db, bulk_topk_max_k=bulk)
            outputs[bulk] = output(
                engine.execute(STAR3, ranking, method="star", delta=5, k=50)
            )
            assert bool(engine.stats.bulk_topk_calls) == bool(bulk)
        assert outputs[64] == outputs[0]


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
            lambda a, v: 1.0, "a", [("x", 1)], 0
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


def test_bulk_served_top_k_keeps_the_preprocess_sum():
    """A bulk-served ``top_k`` never runs ``preprocess``; its reducer pass
    still counts as preprocessing (``preprocess = reduce + build``)."""
    from repro.workloads import make_dblp_like, two_hop

    workload = make_dblp_like(0.5)
    spec = two_hop()
    enum = AcyclicRankedEnumerator(
        spec.query, workload.db, workload.ranking(spec), bulk_topk_max_k=None
    )
    with topk_counters.collect() as tally:
        enum.top_k(10)
    assert tally.calls == 1 and enum.stats.cells_created == 0
    snap = enum.stats.snapshot()
    assert snap["reduce_seconds"] > 0.0
    assert snap["preprocess_seconds"] == pytest.approx(
        snap["reduce_seconds"] + snap["build_seconds"]
    )
