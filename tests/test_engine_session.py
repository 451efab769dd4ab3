"""Characterisation of one mixed QueryEngine session.

Pins the observable surface of the engine layer — every ``EngineStats``
counter and the ``RequestCounters`` keys — across prepare / execute /
explain / a write / ``invalidate()``, on int-keyed data (plain rows) and
on string-keyed data (the dictionary-encoded image).  ``repro --stats``,
the service ``stats`` payload and the end-to-end benchmark's work counts
all read these keys, so a refactor of the engine must leave them alone.
"""

import importlib
import random
import warnings

import pytest

from repro.data import Database
from repro.engine import QueryEngine
from repro.storage import kernels

QUERY = "Q(a, c) :- R(a, b), S(b, c)"


def make_db(string_keys: bool) -> Database:
    rng = random.Random(7)

    def key(v: int):
        return f"u{v:03d}" if string_keys else v

    db = Database()
    db.add_relation(
        "R", ("a", "b"), [(rng.randrange(40), key(rng.randrange(12))) for _ in range(60)]
    )
    db.add_relation(
        "S", ("b", "c"), [(key(rng.randrange(12)), rng.randrange(40)) for _ in range(60)]
    )
    return db


def run_session(db: Database):
    """The fixed session.

    Returns the engine and the request counters of one measured call.
    """
    engine = QueryEngine(db)
    engine.prepare(QUERY)
    with engine.measure() as request:
        first = engine.execute(QUERY, k=5)
    assert engine.execute(QUERY, k=5) == first
    assert engine.execute(QUERY, k=5) == first
    full = engine.execute(QUERY)
    assert full[:5] == first
    assert engine.explain(QUERY)["cached plan"]
    db.get("R").add((41, db.get("S").tuples[0][0]))
    engine.execute(QUERY, k=5)
    engine.invalidate()
    engine.execute(QUERY, k=5)
    return engine, request


def counted(snapshot: dict) -> list:
    """The snapshot as ordered (key, value) pairs, timings dropped."""
    items = [(k, v) for k, v in snapshot.items() if k != "total_seconds"]
    return [
        (k, {q: t["count"] for q, t in v.items()} if k == "per_query" else v)
        for k, v in items
    ]


def expected(
    plan_hits, plan_misses, invalidations, delta_applies, encode_builds, kernel_calls,
    score_builds, carryovers,
):
    """The session's full snapshot.

    Only the cache-path counters, and the kernel and score work they
    cause, differ by data.
    """
    return [
        ("executions", 6),
        ("parse_hits", 7),
        ("parse_misses", 1),
        ("plan_hits", plan_hits),
        ("plan_misses", plan_misses),
        ("plan_hit_rate", round(plan_hits / (plan_hits + plan_misses), 4)),
        ("plan_evictions", 0),
        ("query_evictions", 0),
        ("invalidations", invalidations),
        ("delta_applies", delta_applies),
        ("delta_fallbacks", 0),
        # The second execution keeps ranked state, and the third and
        # the full execution restart from it.  On plain rows the write
        # carries it over and the next execution restarts from it too;
        # on the encoded image the write orphans the plan instead.
        ("ranked_restarts", 2 + carryovers),
        ("ranked_evictions", 0),
        ("ranked_carryovers", carryovers),
        ("ranked_groups_dropped", 0),
        # The first execution, the one after the write and the one after
        # invalidate() each build the query's data state; the plan keeps
        # it in between, so no execution looks it up again.
        ("data_hits", 0),
        ("data_builds", 3),
        ("uncacheable", 0),
        ("batch_executions", 0),
        ("encode_builds", encode_builds),
        ("encode_fallbacks", 0),
        ("kernel_calls", kernel_calls),
        ("kernel_fallbacks", 0),
        ("score_builds", score_builds),
        ("score_fallbacks", 0),
        # The first two executions and the two after the write build
        # queues; a restart builds none.
        ("batched_combines", 4),
        # Retired: no top-k path other than the queues.
        ("bulk_topk_calls", 0),
        ("bulk_topk_fallbacks", 0),
        ("snapshot_opens", 0),
        ("snapshot_cow_detaches", 0),
        ("journal_records_replayed", 0),
        ("per_query", {"π_{a, c}(R(a, b) ⋈ S(b, c))": 6}),
    ]


EXPECTED = {
    # Plain rows: the write drops the warm plan's reduction for a rebuild
    # and carries its ranked state over to it.  The written relation's
    # distinct view is maintained, not re-deduplicated.
    False: expected(
        7, 1, invalidations=1, delta_applies=0, encode_builds=0, kernel_calls=8,
        score_builds=3, carryovers=1,
    ),
    # Encoded image: the write re-encodes, orphaning the code-space plans
    # and rebuilding their score columns.
    True: expected(
        5, 3, invalidations=1, delta_applies=0, encode_builds=3, kernel_calls=12,
        score_builds=6, carryovers=0,
    ),
}

REQUEST_KEYS = [
    "seconds",
    "kernel_calls",
    "kernel_fallbacks",
    "score_builds",
    "score_fallbacks",
    "batched_combines",
    "bulk_topk_calls",
    "bulk_topk_fallbacks",
]


@pytest.mark.parametrize("string_keys", [False, True], ids=["int", "str"])
def test_engine_stats_snapshot(string_keys):
    pytest.importorskip("numpy")
    engine, _ = run_session(make_db(string_keys))
    assert counted(engine.stats.snapshot()) == EXPECTED[string_keys]


@pytest.mark.parametrize("string_keys", [False, True], ids=["int", "str"])
def test_request_counters_keys(string_keys):
    _, request = run_session(make_db(string_keys))
    snapshot = request.snapshot()
    assert list(snapshot) == REQUEST_KEYS
    if kernels.enabled():
        assert snapshot["kernel_calls"] > 0


def test_execute_many_serial_backend():
    db = Database()
    db.add_relation("E", ("a", "p"), [(i, i % 3) for i in range(12)])
    engine = QueryEngine(db)
    queries = [
        "Q(a1, a2) :- E(a1, p), E(a2, p)",
        "Q(x) :- E(x, y)",
        "Q(a1, a2) :- E(a1, p), E(a2, p)",
    ]
    results = engine.execute_many(queries, k=5)
    assert results[0] == results[2]
    assert results[1] == engine.execute("Q(x) :- E(x, y)", k=5)
    assert engine.stats.batch_executions == 3
    # One plan miss per distinct query; the repeat in the batch, and the
    # execute after it, hit the session plan cache.
    assert engine.stats.plan_misses == 2
    assert engine.stats.plan_hits == 2


def test_counts_after_kernels_reload():
    pytest.importorskip("numpy")
    try:
        importlib.reload(kernels)
        engine = QueryEngine(make_db(False))
        engine.execute(QUERY, k=5)
        assert engine.stats.kernel_calls > 0
    finally:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            importlib.reload(kernels)
