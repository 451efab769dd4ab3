"""Score columns: storage-layer weight arrays feeding batched ranking.

Covers the score-column subsystem: ``ScoreView`` exactness and refusal
rules, the ``ScanPath.scores_view`` cache, the column domains kept as
data (one weight call per distinct value for a fresh ranking, carried
over writes), the one weigh helper against the scalar path under
hostile weights, the batched key glue in ``repro.core.ranking``, the
kernel-threshold constant, the thread-safe scoped counters, and the
composition sweep (encoded x score columns).
"""

from __future__ import annotations

import math
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.algorithms.yannakakis import atom_instances, full_reduce
from repro.core import enumerate_ranked
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
    batched_weight_table,
)
from repro.errors import RankingError
from repro.data import Database
from repro.engine import QueryEngine
from repro.query import parse_query
from repro.query.jointree import build_join_tree
from repro.storage import kernels, scores
from repro.storage.scores import build_score_view, column_domain
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


def score_view(codes, attr, weight):
    """The score view of an ad-hoc ``int64`` column."""
    return build_score_view(*column_domain(codes), attr, weight)


# --------------------------------------------------------------------- #
# score columns and views
# --------------------------------------------------------------------- #
class TestScoreColumn:
    def test_identity_weight_is_the_column(self):
        codes = np.asarray([5, 2, 5, 9, 2], dtype=np.int64)
        view = score_view(codes, "a", IdentityWeight())
        assert view.take(None).tolist() == [5.0, 2.0, 5.0, 9.0, 2.0]
        assert view.missing is None

    def test_table_weight_evaluated_once_per_distinct(self):
        calls = []

        def w(attr, value):
            calls.append(value)
            return value * 2.5

        codes = np.asarray([1, 1, 1, 7, 7, 3], dtype=np.int64)
        view = score_view(codes, "a", CallableWeight(w))
        assert sorted(calls) == [1, 3, 7]  # one call per distinct value
        assert view.take(None).tolist() == [2.5, 2.5, 2.5, 17.5, 17.5, 7.5]

    def test_dense_domain_gathers_through_inverse(self):
        codes = np.asarray([2, 0, 1, 2], dtype=np.int64)
        domain, inverse = column_domain(codes)
        assert domain.tolist() == [0, 1, 2]
        assert domain[inverse].tolist() == codes.tolist()
        weight = TableWeight({"a": {0: 10.0, 1: 11.0, 2: 12.0}})
        view = build_score_view(domain, inverse, "a", weight)
        assert view.take(None).tolist() == [12.0, 10.0, 11.0, 12.0]

    def test_sparse_domain_gathers_through_inverse(self):
        codes = np.asarray([1000, 3, 90], dtype=np.int64)
        domain, inverse = column_domain(codes)
        assert domain.tolist() == [3, 90, 1000]
        weight = TableWeight({"a": {3: 1.0, 90: 2.0, 1000: 3.0}})
        view = build_score_view(domain, inverse, "a", weight)
        assert view.take(None).tolist() == [3.0, 1.0, 2.0]

    def test_missing_weight_refuses_only_when_used(self):
        weight = TableWeight({"a": {1: 1.0, 2: 2.0}})  # no entry for 3
        codes = np.asarray([1, 3, 2, 1], dtype=np.int64)
        view = score_view(codes, "a", weight)
        assert view.take(None) is None  # row 1 uses the missing value
        subset = np.asarray([0, 2, 3], dtype=np.int64)
        assert view.take(subset).tolist() == [1.0, 2.0, 1.0]

    def test_nan_weight_counts_as_missing(self):
        weight = CallableWeight(lambda a, v: float("nan") if v == 2 else 1.0)
        codes = np.asarray([1, 2], dtype=np.int64)
        view = score_view(codes, "a", weight)
        assert view.take(None) is None
        assert view.take(np.asarray([0], dtype=np.int64)).tolist() == [1.0]

    def test_non_real_weight_refuses_entirely(self):
        weight = CallableWeight(lambda a, v: "heavy")
        codes = np.asarray([1, 2], dtype=np.int64)
        assert score_view(codes, "a", weight) is None

    def test_disabled_scores_refuse(self):
        scores.set_enabled(False)
        codes = np.asarray([1], dtype=np.int64)
        assert score_view(codes, "a", IdentityWeight()) is None
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
# fresh rankings: domains are data, weights are per ranking
# --------------------------------------------------------------------- #
class TestFreshRankings:
    QUERY = "Q(a1, a2) :- E(a1, p), E(a2, p)"

    @staticmethod
    def counting_weight(seed):
        """A CallableWeight over random weights that logs its calls."""
        table = random_weights(range(64), seed=seed)
        calls = []

        def w(attr, value):
            calls.append((attr, value))
            return table[value]

        return CallableWeight(w), calls

    def test_each_fresh_ranking_weighs_each_distinct_value_once(self, monkeypatch):
        rng = random.Random(41)
        db = Database()
        rel = db.add_relation(
            "E", ("a", "p"), [(rng.randrange(30), rng.randrange(8)) for _ in range(120)]
        )
        engine = QueryEngine(db)
        makers = (SumRanking, lambda weight: LexRanking(weight=weight))
        for make in makers:  # warm: plans, data state, scan-path domains
            engine.execute(self.QUERY, make(self.counting_weight(0)[0]), k=10)

        built = []
        real = scores.column_domain
        monkeypatch.setattr(
            scores, "column_domain", lambda values: built.append(len(values)) or real(values)
        )

        def fresh_requests(seed):
            """Domains the engine built for a fresh SUM and LEX request."""
            domain = sorted({row[0] for row in rel})
            engine_built = []
            for make in makers:
                weight, calls = self.counting_weight(seed)
                ranking = make(weight)
                del built[:]
                got = [(a.values, a.score) for a in engine.execute(self.QUERY, ranking, k=10)]
                engine_built += built
                # One call per distinct value of each scored column.
                assert sorted(calls) == [(attr, v) for attr in ("a1", "a2") for v in domain]
                cold = enumerate_ranked(parse_query(self.QUERY), db, ranking, k=10)
                assert got == [(a.values, a.score) for a in cold]
            return engine_built

        builds = engine.stats.score_builds
        assert fresh_requests(1) == []  # every domain came from the data half
        # The SUM plan's two score views and the LEX plan's two tables.
        assert engine.stats.score_builds == builds + 4

        # A write: the value 5 of a row that is alone in its p-group is
        # replaced by a new value, 50, as a delete and an append.
        rows = sorted(rel)
        lonely = next(
            row
            for row in rows
            if sum(other[0] == row[0] for other in rows) == 1
        )
        assert rel.remove(lonely) == 1
        rel.add((50, lonely[1]))
        fresh_requests(2)
        assert lonely[0] not in {row[0] for row in rel}

    def test_a_write_maintains_the_kept_domains(self):
        db = Database()
        rel = db.add_relation("R", ("a", "b"), [(1, 0), (5, 0), (9, 1), (5, 1)])
        view_key = ((0, 1), (), False)
        tables = {"a": {1: 1.5, 3: 3.5, 5: 5.5, 9: 9.5}}

        def weighed(weight):
            scan = rel.scan()
            view = scan.scores_view(*view_key, index=0, attr="a", weight=weight)
            assert view.take(None).tolist() == [
                weight("a", row[0]) for row in scan.rows()
            ]
            return scan

        identity = IdentityWeight()
        scan = weighed(identity)
        domain, inverse = scan._domains[(view_key, 0)]
        assert domain.tolist() == [1, 5, 9] and inverse.tolist() == [0, 1, 2, 1]
        for write in (lambda: rel.add((3, 2)), lambda: rel.remove((9, 1))):
            write()
            # Kept current through the write, not dropped: equal to a
            # cold build over the written data.
            domain, inverse = rel.scan()._domains[(view_key, 0)]
            cold, cold_inverse = scores.column_domain(
                np.array([row[0] for row in rel.scan().rows()], dtype=np.int64)
            )
            assert domain.tolist() == cold.tolist()
            assert inverse.tolist() == cold_inverse.tolist()
            # The kept score view is carried over, and a fresh weight
            # weighs the kept domain.
            weighed(identity)
            scan = weighed(TableWeight(tables))
            assert scan._domains[(view_key, 0)][0] is domain
        # Each view column keeps its own domain.
        other = scan.scores_view(*view_key, index=1, attr="b", weight=IdentityWeight())
        assert other.take(None).tolist() == [float(row[1]) for row in scan.rows()]
        assert len(scan._domains) == 2


# --------------------------------------------------------------------- #
# hostile weights: the one weigh helper agrees with the scalar path
# --------------------------------------------------------------------- #
_RAISE = object()  # the weight call raises for this value
_ABSENT = object()  # the value is missing from its weight table

_HOSTILE = st.one_of(
    st.integers(-50, 50),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from(
        [
            math.nan,
            math.inf,
            -math.inf,
            True,
            False,
            2**53 + 1,
            -(2**53) - 3,
            2**63 + 5,
            2**70,
            10**400,
            None,
            "heavy",
            _RAISE,
            _ABSENT,
        ]
    ),
)


def _hostile_weight(kind, entries, default):
    """A weight function over ``{value: entry}`` of the given kind."""
    if kind == "identity":
        return IdentityWeight()
    if kind == "table":
        table = {v: w for v, w in entries.items() if w is not _ABSENT and w is not _RAISE}
        return TableWeight({}, default_table=table, default=default)

    def w(attr, value):
        entry = entries.get(value, _RAISE)
        if entry is _RAISE or entry is _ABSENT:
            raise ValueError(f"no weight for {value!r}")
        return entry

    return CallableWeight(w)


def _scalar(weight, attr, value):
    """``("ok", w)`` or ``("raise", None)`` for one scalar weight call."""
    try:
        return ("ok", weight(attr, value))
    except Exception:
        return ("raise", None)


def _is_real(w):
    return isinstance(w, (int, float)) and not isinstance(w, bool)


def _expected_floats(results):
    """The scalar path's float weights (``None`` where it cannot make one)."""
    out = []
    for status, w in results:
        f = None
        if status == "ok" and _is_real(w):
            try:
                f = float(w)
            except OverflowError:
                f = None
            if f is not None and f != f:
                f = None
        out.append(f)
    return out


def _hostile_column(values):
    return np.asarray(values, dtype=np.int64)


_HOSTILE_VALUES = st.lists(st.integers(-3, 12), min_size=1, max_size=25)
_HOSTILE_ENTRIES = st.dictionaries(st.integers(-3, 12), _HOSTILE, max_size=16)
_HOSTILE_KINDS = st.sampled_from(["identity", "table", "callable"])


@settings(max_examples=150, deadline=None)
@given(
    values=_HOSTILE_VALUES,
    entries=_HOSTILE_ENTRIES,
    kind=_HOSTILE_KINDS,
    default=st.sampled_from([None, 0.5, 7]),
    decode=st.booleans(),
)
def test_weigh_helper_agrees_with_scalar_weights(values, entries, kind, default, decode):
    """The SUM score view, the LEX weight table and the LEX sort column,
    all weighed through ``weigh_domain``, against per-value scalar
    calls: identical weights, or a refusal exactly where the scalar
    path cannot be reproduced."""
    from repro.storage.dictionary import Dictionary
    from repro.storage.encoded import DecodingWeight

    weight = _hostile_weight(kind, entries, default)
    column = _hostile_column(values)
    if decode:
        # Codes over a shifted dictionary: the weight sees decoded values.
        dictionary = Dictionary([v - 3 for v in range(16)])
        weight = DecodingWeight(weight, dictionary)
        column = column + 3
    domain = sorted(set(column.tolist()))
    results = {v: _scalar(weight, "a", v) for v in domain}
    refuse = any(
        status == "ok" and w is not None and not _is_real(w) for status, w in results.values()
    )
    floats = dict(zip(domain, _expected_floats(results[v] for v in domain)))

    # SUM score view.
    view = score_view(column, "a", weight)
    if refuse:
        assert view is None
    else:
        assert view is not None
        taken = view.take(None)
        wanted = [floats[v] for v in column.tolist()]
        if None in wanted:
            assert taken is None
        else:
            assert taken.tolist() == wanted
        for i, v in enumerate(column.tolist()):
            got = view.take(np.asarray([i], dtype=np.int64))
            assert (got is None) == (floats[v] is None)
            if got is not None:
                assert got.tolist() == [floats[v]]

    # LEX weight table: the raw results, non-real ones too, valueless
    # values left out.
    instances = {"R": [(v,) for v in column.tolist()]}
    table = batched_weight_table(weight, "a", instances, "R", 0)
    assert set(table) == {
        v for v, (status, w) in results.items() if status == "ok" and w is not None
    }
    for v, w in table.items():
        want = results[v][1]
        assert w is want or w == want

    # LEX sort columns: exact floats or a refusal.
    bound = LexRanking(weight=weight).bind({"a": 0})
    cols = bound.key_sort_columns(["a"], [column])
    exact = not refuse and all(floats[v] is not None for v in domain) and not any(
        isinstance(w, int) and abs(w) > 2**53 for _status, w in results.values()
    )
    if not exact:
        assert cols is None
    else:
        assert cols[0].tolist() == [floats[v] for v in column.tolist()]
        assert cols[1].tolist() == column.tolist()


def _outcome(run):
    try:
        return ("ok", run())
    except Exception as exc:
        return ("raise", type(exc), str(exc))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)), min_size=1, max_size=30),
    entries=st.dictionaries(st.integers(0, 9), _HOSTILE, max_size=10),
    kind=_HOSTILE_KINDS,
    default=st.sampled_from([None, 0.5]),
    encode=st.booleans(),
)
def test_hostile_weights_answer_as_the_scalar_path(rows, entries, kind, default, encode):
    """End to end, a hostile weight gives the batched paths' answers
    and scores, or their error, identical to the scalar path's: SUM,
    LEX by backtracking (weight tables, level-0 domain) and LEX through
    the queue build (sort columns)."""
    db = Database()
    db.add_relation("E", ("a", "p"), rows)
    query = "Q(a1, a2) :- E(a1, p), E(a2, p)"
    weight = _hostile_weight(kind, entries, default)
    cases = (
        (SumRanking(weight), "auto", scores),
        (LexRanking(weight=weight), "auto", scores),
        (LexRanking(weight=weight), "auto", kernels),
        (LexRanking(weight=weight, descending=("a2",)), "lindelay", kernels),
    )
    for ranking, method, switch in cases:
        outcomes = []
        for flag in (True, False):
            switch.set_enabled(flag)
            try:
                engine = QueryEngine(db, encode=encode)
                outcomes.append(
                    _outcome(
                        lambda: [
                            (a.values, a.score)
                            for a in engine.execute(query, ranking, method=method)
                        ]
                    )
                )
            finally:
                switch.set_enabled(True)
        assert _same_outcome(*outcomes), (ranking.describe(), method)


class _ScaledTable(TableWeight):
    """Overrides ``__call__`` only: its parent's batched ``weigh`` would
    give the unscaled table weights."""

    def __call__(self, attr, value):
        return 3 * super().__call__(attr, value) + 1


class _ClippedIdentity(IdentityWeight):
    def __call__(self, attr, value):
        return min(super().__call__(attr, value), 4)


class _BatchedScaledTable(_ScaledTable):
    """Overrides both, so its own ``weigh`` is trusted."""

    batches = 0

    def weigh(self, attr, values):
        type(self).batches += 1
        return [3 * w + 1 for w in super().weigh(attr, values)]


@pytest.mark.parametrize("encode", [False, True])
def test_subclass_overriding_call_only_is_weighed_by_its_call(encode):
    """A weight subclass that overrides ``__call__`` alone is weighed per
    value through it: the batched answers and scores equal the scalar
    path's for SUM and LEX, plain and encoded."""
    from repro.storage.encoded import DecodingWeight
    from repro.storage.dictionary import Dictionary

    rows = [(a, p) for a, p in zip(range(12), [0, 1, 2] * 4)] + [(5, 0), (7, 2)]
    tables = {"a1": {a: a % 5 for a in range(12)}, "a2": {a: a % 4 for a in range(12)}}
    for weight in (_ScaledTable(tables), _ClippedIdentity()):
        values = list(range(12))
        assert scores.weigh(weight, "a1", values) == [weight("a1", v) for v in values]
        decoded = DecodingWeight(weight, Dictionary(values))
        assert scores.weigh(decoded, "a1", values) == [weight("a1", v) for v in values]
    before = _BatchedScaledTable.batches
    batched = _BatchedScaledTable(tables)
    assert scores.weigh(batched, "a1", values) == [batched("a1", v) for v in values]
    assert _BatchedScaledTable.batches == before + 1

    db = Database()
    db.add_relation("E", ("a", "p"), rows)
    query = "Q(a1, a2) :- E(a1, p), E(a2, p)"
    for weight in (_ScaledTable(tables), _ClippedIdentity(), _BatchedScaledTable(tables)):
        for ranking in (SumRanking(weight), LexRanking(weight=weight)):
            got = []
            for flag in (True, False):
                scores.set_enabled(flag)
                kernels.set_enabled(flag)
                try:
                    engine = QueryEngine(db, encode=encode)
                    got.append([(a.values, a.score) for a in engine.execute(query, ranking)])
                finally:
                    scores.set_enabled(True)
                    kernels.set_enabled(True)
            assert got[0] == got[1], (type(weight).__name__, ranking.describe())


def _same_outcome(a, b):
    """Equal outcomes; NaN scores compare equal to NaN scores."""
    if a[0] != b[0] or a[0] == "raise":
        return a == b
    return repr(a[1]) == repr(b[1])


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
