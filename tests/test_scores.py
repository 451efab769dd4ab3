"""Score columns: storage-layer weight arrays feeding batched ranking.

Covers the score-column subsystem (ISSUE 5): ``ScoreColumn`` /
``ScoreView`` exactness and refusal rules, the ``ScanPath.scores_view``
cache, the batched key glue in ``repro.core.ranking``, the
kernel-threshold constant, the thread-safe scoped counters, and the
composition sweep (encoded x score columns).
"""

from __future__ import annotations

import math
import random
import threading

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms.yannakakis import atom_instances, full_reduce
from repro.core.ranking import (
    AvgRanking,
    CallableWeight,
    IdentityWeight,
    LexRanking,
    MaxRanking,
    MinRanking,
    ProductRanking,
    SumRanking,
    TableWeight,
    batched_node_keys,
    batched_output_keys,
)
from repro.errors import RankingError
from repro.data import Database
from repro.engine import QueryEngine
from repro.query import parse_query
from repro.query.jointree import build_join_tree
from repro.storage import kernels, scores
from repro.storage.scores import ScoreColumn, build_score_view
from repro.workloads.weights import log_degree_weights, random_weights


@pytest.fixture(autouse=True)
def _scores_enabled():
    scores.set_enabled(True)
    kernels.set_enabled(True)
    yield
    scores.set_enabled(True)
    kernels.set_enabled(True)


def table_weight(domain, seed=3, **kwargs):
    return TableWeight({}, default_table=random_weights(domain, seed=seed), **kwargs)


# --------------------------------------------------------------------- #
# score columns and views
# --------------------------------------------------------------------- #
class TestScoreColumn:
    def test_identity_weight_is_the_column(self):
        codes = np.asarray([5, 2, 5, 9, 2], dtype=np.int64)
        view = build_score_view(codes, "a", IdentityWeight())
        assert view.take(None).tolist() == [5.0, 2.0, 5.0, 9.0, 2.0]
        assert view.missing is None

    def test_table_weight_evaluated_once_per_distinct(self):
        calls = []

        def w(attr, value):
            calls.append(value)
            return value * 2.5

        codes = np.asarray([1, 1, 1, 7, 7, 3], dtype=np.int64)
        view = build_score_view(codes, "a", CallableWeight(w))
        assert sorted(calls) == [1, 3, 7]  # one call per distinct value
        assert view.take(None).tolist() == [2.5, 2.5, 2.5, 17.5, 17.5, 7.5]

    def test_dense_domain_indexes_directly(self):
        codes = np.asarray([2, 0, 1, 2], dtype=np.int64)
        column = ScoreColumn(
            np.asarray([0, 1, 2], dtype=np.int64),
            np.asarray([10.0, 11.0, 12.0]),
            None,
        )
        assert column._dense_base == 0
        assert column.lookup(codes).tolist() == [12.0, 10.0, 11.0, 12.0]

    def test_sparse_domain_searchsorted(self):
        column = ScoreColumn(
            np.asarray([3, 90, 1000], dtype=np.int64),
            np.asarray([1.0, 2.0, 3.0]),
            None,
        )
        assert column._dense_base is None
        codes = np.asarray([1000, 3, 90], dtype=np.int64)
        assert column.lookup(codes).tolist() == [3.0, 1.0, 2.0]

    def test_missing_weight_refuses_only_when_used(self):
        weight = TableWeight({"a": {1: 1.0, 2: 2.0}})  # no entry for 3
        codes = np.asarray([1, 3, 2, 1], dtype=np.int64)
        view = build_score_view(codes, "a", weight)
        assert view.take(None) is None  # row 1 uses the missing value
        subset = np.asarray([0, 2, 3], dtype=np.int64)
        assert view.take(subset).tolist() == [1.0, 2.0, 1.0]

    def test_nan_weight_counts_as_missing(self):
        weight = CallableWeight(lambda a, v: float("nan") if v == 2 else 1.0)
        codes = np.asarray([1, 2], dtype=np.int64)
        view = build_score_view(codes, "a", weight)
        assert view.take(None) is None
        assert view.take(np.asarray([0], dtype=np.int64)).tolist() == [1.0]

    def test_non_real_weight_refuses_entirely(self):
        weight = CallableWeight(lambda a, v: "heavy")
        codes = np.asarray([1, 2], dtype=np.int64)
        assert build_score_view(codes, "a", weight) is None

    def test_disabled_scores_refuse(self):
        scores.set_enabled(False)
        codes = np.asarray([1], dtype=np.int64)
        assert build_score_view(codes, "a", IdentityWeight()) is None
        assert not scores.enabled()

    def test_scan_path_cache_and_invalidation(self):
        db = Database()
        rel = db.add_relation("R", ("a", "b"), [(i % 5, i) for i in range(40)])
        weight = table_weight(range(5))
        scan = rel.scan()
        view1 = scan.scores_view((0, 1), (), False, index=0, attr="x", weight=weight)
        view2 = scan.scores_view((0, 1), (), False, index=0, attr="x", weight=weight)
        assert view1 is view2  # cached per signature
        before = scores.counters.calls
        scan.scores_view((0, 1), (), False, index=0, attr="x", weight=weight)
        assert scores.counters.calls == before  # hit: no rebuild
        rel.add((0, 999))
        view3 = rel.scan().scores_view(
            (0, 1), (), False, index=0, attr="x", weight=weight
        )
        assert view3 is not view1  # store version moved
        assert len(view3) == 41

    def test_non_int_values_refuse(self):
        db = Database()
        rel = db.add_relation("R", ("a",), [(True,), (2,)])
        view = rel.scan().scores_view(
            (0,), (), False, index=0, attr="a", weight=IdentityWeight()
        )
        assert view is None


# --------------------------------------------------------------------- #
# batched keys == scalar keys, bit for bit
# --------------------------------------------------------------------- #
def _node_setup(rows):
    db = Database()
    db.add_relation("R", ("a", "b"), rows)
    query = parse_query("Q(a, b) :- R(a, b)")
    tree = build_join_tree(query)
    instances = full_reduce(tree, atom_instances(query, db))
    return query, instances


ALL_VALUES = range(0, 40)


@pytest.mark.parametrize(
    "ranking",
    [
        SumRanking(table_weight(ALL_VALUES)),
        SumRanking(table_weight(ALL_VALUES), descending=True),
        AvgRanking(table_weight(ALL_VALUES)),
        MinRanking(table_weight(ALL_VALUES)),
        MinRanking(table_weight(ALL_VALUES), descending=True),
        MaxRanking(table_weight(ALL_VALUES)),
        MaxRanking(table_weight(ALL_VALUES), descending=True),
        ProductRanking(table_weight(ALL_VALUES)),
        SumRanking(),  # identity weights
    ],
)
def test_batched_node_keys_bitwise_identical(ranking):
    rng = random.Random(11)
    rows = [(rng.randint(0, 39), rng.randint(0, 39)) for _ in range(120)]
    query, instances = _node_setup(rows)
    bound = ranking.bind({v: i for i, v in enumerate(query.head)})
    own_pairs = (("a", 0), ("b", 1))
    batched = batched_node_keys(bound, instances, "R", own_pairs)
    assert batched is not None
    scalar = [
        bound.key([(v, row[p]) for v, p in own_pairs]) for row in instances["R"]
    ]
    assert len(batched) == len(scalar)
    for got, want in zip(batched, scalar):
        assert type(got) is float
        assert (got == want) and (math.copysign(1, got) == math.copysign(1, want))


@pytest.mark.parametrize(
    "ranking",
    [
        LexRanking(),
        SumRanking(table_weight(ALL_VALUES)).then_by(LexRanking()),
    ],
)
def test_lex_and_composite_refuse(ranking):
    query, instances = _node_setup([(1, 2), (3, 4)])
    bound = ranking.bind({"a": 0, "b": 1})
    before = scores.counters.fallbacks
    assert batched_node_keys(bound, instances, "R", (("a", 0), ("b", 1))) is None
    assert scores.counters.fallbacks > before


def test_batched_output_keys_match_key_of_output():
    rng = random.Random(5)
    rows = [(rng.randint(0, 39), rng.randint(0, 39)) for _ in range(60)]
    bound = SumRanking(table_weight(ALL_VALUES)).bind({"a": 0, "b": 1})
    batched = batched_output_keys(bound, ("a", "b"), rows)
    assert batched == [bound.key_of_output(("a", "b"), r) for r in rows]
    # Non-int data refuses.
    assert batched_output_keys(bound, ("a",), [("x",)]) is None


def test_product_negative_weight_raises_identically():
    weight = TableWeight({}, default_table={1: 2.0, 2: -3.0})
    db = Database()
    db.add_relation("R", ("a", "b"), [(1, 1), (1, 2)])
    query = "Q(a, b) :- R(a, b)"
    for flag in (True, False):
        scores.set_enabled(flag)
        engine = QueryEngine(db, encode=False)
        with pytest.raises(RankingError, match="non-negative"):
            engine.execute(query, ProductRanking(weight))


def test_missing_weight_outside_reduced_subset_is_fine():
    # Value 99 dangles (no S partner): the scalar path never weighs it,
    # and the batch path marks it missing without using it.
    weight = TableWeight({"a": {1: 5.0, 2: 7.0}, "b": {10: 1.0}})
    db = Database()
    db.add_relation("R", ("a", "p"), [(1, 0), (2, 0), (99, 3)])
    db.add_relation("S", ("p", "b"), [(0, 10)])
    query = "Q(a, b) :- R(a, p), S(p, b)"
    results = {}
    for flag in (True, False):
        scores.set_enabled(flag)
        engine = QueryEngine(db, encode=False)
        results[flag] = [(a.values, a.score) for a in engine.execute(query, SumRanking(weight))]
    assert results[True] == results[False]
    assert results[True][0] == ((1, 10), 6.0)


def test_missing_weight_inside_subset_raises_identically():
    weight = TableWeight({"a": {1: 5.0}})
    db = Database()
    db.add_relation("R", ("a",), [(1,), (2,)])
    for flag in (True, False):
        scores.set_enabled(flag)
        engine = QueryEngine(db, encode=False)
        with pytest.raises(RankingError, match="no weight for value 2"):
            engine.execute("Q(a) :- R(a)", SumRanking(weight))


def test_rereduction_composes_survivors():
    # Re-reducing a ReducedInstances must keep survivor indices relative
    # to the *view* (composed through the first reduction), so codes()
    # and the score gathers stay aligned with the row lists.
    rng = random.Random(31)
    db = Database()
    db.add_relation(
        "R", ("a", "p"), [(rng.randint(0, 30), rng.randint(0, 9)) for _ in range(120)]
    )
    db.add_relation("S", ("p",), [(p,) for p in range(5)])  # drops p in 5..9
    query = parse_query("Q(a) :- R(a, p), S(p)")
    tree = build_join_tree(query)
    once = full_reduce(tree, atom_instances(query, db))
    assert len(once["R"]) < 120  # something dangled
    twice = full_reduce(tree, once)
    assert twice["R"] == once["R"]
    codes = twice.codes("R")
    assert codes is not None and len(codes) == len(twice["R"])
    assert [tuple(r) for r in codes.tolist()] == twice["R"]
    bound = SumRanking(table_weight(range(31))).bind({"a": 0})
    keys = batched_node_keys(bound, twice, "R", (("a", 0),))
    assert keys == [bound.key([("a", row[0])]) for row in twice["R"]]


def test_warm_executions_keep_batching():
    db = Database()
    rng = random.Random(2)
    db.add_relation(
        "R", ("a", "p"), [(rng.randint(0, 20), rng.randint(0, 6)) for _ in range(80)]
    )
    engine = QueryEngine(db, encode=False)
    ranking = SumRanking(table_weight(range(21)))
    query = "Q(a1, a2) :- R(a1, p), R(a2, p)"
    cold = [(a.values, a.score) for a in engine.execute(query, ranking)]
    builds_after_cold = engine.stats.score_builds
    assert builds_after_cold > 0
    warm = [(a.values, a.score) for a in engine.execute(query, ranking)]
    assert warm == cold
    assert engine.stats.plan_hits >= 1
    # Warm runs reuse the storage-cached score views: no new builds.
    assert engine.stats.score_builds == builds_after_cold
    assert engine.stats.score_fallbacks == 0


# --------------------------------------------------------------------- #
# composition sweep: encoded x score columns
# --------------------------------------------------------------------- #
def _random_graph_db(rng, str_keys):
    wrap = (lambda v: f"u{v}") if str_keys else (lambda v: v)
    db = Database()
    db.add_relation(
        "R",
        ("a", "p"),
        [(wrap(rng.randint(0, 25)), rng.randint(0, 8)) for _ in range(150)],
    )
    db.add_relation(
        "S",
        ("p", "b"),
        [(rng.randint(0, 8), wrap(rng.randint(0, 25))) for _ in range(150)],
    )
    return db, [wrap(v) for v in range(26)]


@pytest.mark.parametrize("str_keys", [False, True])
@pytest.mark.parametrize("k", [1, None])
def test_composition_identity_sweep(str_keys, k):
    rng = random.Random(17 if str_keys else 71)
    db, domain = _random_graph_db(rng, str_keys)
    weight = table_weight(domain)
    query = "Q(a, b) :- R(a, p), S(p, b)"
    rankings = [
        SumRanking(weight),
        SumRanking(weight, descending=True),
        MinRanking(weight),
        MaxRanking(weight),
        AvgRanking(weight),
        ProductRanking(weight),
        LexRanking(),
        SumRanking(weight).then_by(LexRanking()),
    ]
    for ranking in rankings:
        reference = None
        for batch in (True, False):
            scores.set_enabled(batch)
            for encode in (True, False):
                engine = QueryEngine(db, encode=encode)
                serial = [
                    (a.values, a.score)
                    for a in engine.execute(query, ranking, k=k)
                ]
                if reference is None:
                    reference = serial
                assert serial == reference, (ranking.describe(), batch, encode)


def test_star_and_cyclic_identity():
    rng = random.Random(23)
    db = Database()
    for name in ("R1", "R2", "R3"):
        db.add_relation(
            name,
            ("a", "b"),
            [(rng.randint(0, 12), rng.randint(0, 5)) for _ in range(60)],
        )
    weight = table_weight(range(13))
    star = "Q(a1, a2, a3) :- R1(a1, b), R2(a2, b), R3(a3, b)"
    cyc_db = Database()
    cyc_db.add_relation(
        "E", ("x", "y"), [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(50)]
    )
    triangle = "Q(x, y, z) :- E(x, y), E(y, z), E(z, x)"
    for query, database, method in (
        (star, db, "star"),
        (triangle, cyc_db, "auto"),
    ):
        results = {}
        for batch in (True, False):
            scores.set_enabled(batch)
            engine = QueryEngine(database, encode=False)
            results[batch] = [
                (a.values, a.score)
                for a in engine.execute(query, SumRanking(weight), method=method)
            ]
        assert results[True] == results[False]


# --------------------------------------------------------------------- #
# weights workload vectorisation
# --------------------------------------------------------------------- #
class TestLogDegreeWeights:
    def test_kernel_matches_python_including_order(self):
        rng = random.Random(9)
        db = Database()
        rel = db.add_relation(
            "E", ("u", "v"), [(rng.randint(0, 30), rng.randint(0, 9)) for _ in range(400)]
        )
        fast = log_degree_weights(rel, "u")
        kernels.set_enabled(False)
        slow = log_degree_weights(rel, "u")
        kernels.set_enabled(True)
        assert fast == slow
        assert list(fast) == list(slow)  # first-occurrence order too

    def test_string_column_falls_back(self):
        db = Database()
        rel = db.add_relation("E", ("u", "v"), [("a", 1), ("a", 2), ("b", 1)])
        assert log_degree_weights(rel, "u") == {
            "a": math.log2(3),
            "b": math.log2(2),
        }


# --------------------------------------------------------------------- #
# kernel-dispatch threshold (KERNEL_MIN_ROWS)
# --------------------------------------------------------------------- #
class TestKernelMinRows:
    def test_override_forces_kernels_on_tiny_inputs(self, monkeypatch):
        from repro.algorithms.semijoin import semijoin

        left = [(1, 2, 9), (3, 4, 9), (5, 6, 9)]
        right = [(1, 2), (5, 6)]
        expected = semijoin(left, (0, 1), right, (0, 1))
        before = kernels.counters.calls
        monkeypatch.setattr(kernels, "KERNEL_MIN_ROWS", 0)
        forced = semijoin(left, (0, 1), right, (0, 1))
        assert forced == expected
        assert kernels.counters.calls > before  # the mask kernel ran


# --------------------------------------------------------------------- #
# thread-safe scoped counters (regression: snapshot-diff races)
# --------------------------------------------------------------------- #
class TestScopedCounters:
    @staticmethod
    def _workload(seed, n):
        rng = random.Random(seed)
        db = Database()
        db.add_relation(
            "R", ("a", "p"), [(rng.randint(0, 40), rng.randint(0, 12)) for _ in range(n)]
        )
        db.add_relation(
            "S", ("p", "b"), [(rng.randint(0, 12), rng.randint(0, 40)) for _ in range(n)]
        )
        db.add_relation(
            "T", ("b", "c"), [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(n)]
        )
        return db

    def _run_repeats(self, engine, query, repeats):
        ranking = SumRanking(table_weight(range(41)))
        for _ in range(repeats):
            engine.execute(query, ranking)
        return (engine.stats.kernel_calls, engine.stats.score_builds)

    def test_two_engines_two_threads_do_not_cross_attribute(self):
        # The service's shape: one engine per thread, each calling
        # ``execute`` on its own thread while the other runs.
        query_small = "Q(a, b) :- R(a, p), S(p, b)"
        query_large = "Q(a, c) :- R(a, p), S(p, b), T(b, c)"
        repeats = 3
        # Solo baselines on fresh engines + fresh databases: attribution
        # is structural, so the same workload must yield the same tally
        # whether or not another engine runs concurrently.
        solo_small = self._run_repeats(
            QueryEngine(self._workload(1, 80), encode=False), query_small, repeats
        )
        solo_large = self._run_repeats(
            QueryEngine(self._workload(2, 300), encode=False), query_large, repeats
        )
        assert solo_small[0] > 0  # the reducer kernels actually ran
        assert solo_small != solo_large  # distinguishable workloads

        engine_small = QueryEngine(self._workload(1, 80), encode=False)
        engine_large = QueryEngine(self._workload(2, 300), encode=False)
        barrier = threading.Barrier(2)
        errors = []

        def drive(engine, query):
            try:
                barrier.wait(timeout=30)
                self._run_repeats(engine, query, repeats)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(engine_small, query_small)),
            threading.Thread(target=drive, args=(engine_large, query_large)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        # Exact per-engine attribution: the old snapshot-diff accounting
        # would absorb the other engine's concurrent increments here.
        assert (
            engine_small.stats.kernel_calls,
            engine_small.stats.score_builds,
        ) == solo_small
        assert (
            engine_large.stats.kernel_calls,
            engine_large.stats.score_builds,
        ) == solo_large

    def test_collect_is_reentrant_per_thread(self):
        with kernels.counters.collect() as outer:
            with kernels.counters.collect() as inner:
                kernels.counters.record_call()
            kernels.counters.record_call()
        assert inner.calls == 1
        assert outer.calls == 2

    def test_stats_snapshot_has_score_fields(self):
        engine = QueryEngine(Database(), encode=False)
        snapshot = engine.stats.snapshot()
        assert "score_builds" in snapshot and "score_fallbacks" in snapshot
