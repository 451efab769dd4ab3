"""Characterisation of one mixed QueryEngine session.

Pins the observable surface of the engine layer — every ``EngineStats``
counter, the ``RequestCounters`` keys, the shard partition a parallel
execution used — across prepare / execute / sharded execution /
explain / a write / ``invalidate()``, on int-keyed data (plain rows) and
on string-keyed data (the dictionary-encoded image).  ``repro --stats``,
the service ``stats`` payload and the end-to-end benchmark's work counts
all read these keys, so a refactor of the engine must leave them alone.
"""

import importlib
import random
import warnings

import pytest

import repro.parallel
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


def run_session(db: Database, monkeypatch):
    """The fixed session.

    Returns the engine, the request counters of one measured call, the
    ``explain`` summary and the partitions handed to the shard pipeline.
    Sharded runs use the in-process ``serial`` backend so that their
    shard work is counted too.
    """
    partitions = []
    original = repro.parallel.stream_sharded

    def spy(*args, **kwargs):
        partitions.append(kwargs["partition"])
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.parallel, "stream_sharded", spy)
    engine = QueryEngine(db)
    engine.prepare(QUERY)
    serial = engine.execute(QUERY, k=5)
    assert engine.execute(QUERY, k=5) == serial
    with engine.measure() as request:
        assert engine.execute_parallel(QUERY, shards=2, backend="serial", k=5) == serial
    full = engine.execute_parallel(QUERY, shards=2, backend="serial")
    assert full[:5] == serial
    info = engine.explain(QUERY, shards=2)
    db.get("R").add((41, db.get("S").tuples[0][0]))
    engine.execute(QUERY, k=5)
    engine.invalidate()
    engine.execute(QUERY, k=5)
    return engine, request, info, partitions


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
        # The second execution keeps ranked state.  On plain rows the
        # write carries it over and the next execution restarts from it;
        # on the encoded image the write orphans the plan instead.
        ("ranked_restarts", carryovers),
        ("ranked_evictions", 0),
        ("ranked_carryovers", carryovers),
        ("ranked_groups_dropped", 0),
        # The first execution, the one after the write and the one after
        # invalidate() each build the query's data state; the plan keeps
        # it in between, so no execution looks it up again.
        ("data_hits", 0),
        ("data_builds", 3),
        ("uncacheable", 0),
        ("partition_hits", 1),
        ("partition_misses", 1),
        ("parallel_executions", 2),
        ("batch_executions", 0),
        ("encode_builds", encode_builds),
        ("encode_fallbacks", 0),
        ("kernel_calls", kernel_calls),
        ("kernel_fallbacks", 0),
        ("score_builds", score_builds),
        ("score_fallbacks", 0),
        # Every k-limited execution builds its queues and pops them.
        ("batched_combines", 8),
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
    # and carries its ranked state over to it.
    False: expected(
        6, 2, invalidations=1, delta_applies=0, encode_builds=0, kernel_calls=21,
        score_builds=7, carryovers=1,
    ),
    # Encoded image: the write re-encodes, orphaning the code-space plans
    # and rebuilding their score columns.
    True: expected(
        4, 4, invalidations=1, delta_applies=0, encode_builds=3, kernel_calls=24,
        score_builds=10, carryovers=0,
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
def test_engine_stats_snapshot(string_keys, monkeypatch):
    pytest.importorskip("numpy")
    engine, _, _, _ = run_session(make_db(string_keys), monkeypatch)
    assert counted(engine.stats.snapshot()) == EXPECTED[string_keys]


@pytest.mark.parametrize("string_keys", [False, True], ids=["int", "str"])
def test_request_counters_keys(string_keys, monkeypatch):
    _, request, _, _ = run_session(make_db(string_keys), monkeypatch)
    snapshot = request.snapshot()
    assert list(snapshot) == REQUEST_KEYS
    if kernels.enabled():
        assert snapshot["kernel_calls"] > 0


@pytest.mark.parametrize("string_keys", [False, True], ids=["int", "str"])
def test_partition_attribute_matches_explain(string_keys, monkeypatch):
    _, _, info, partitions = run_session(make_db(string_keys), monkeypatch)
    assert len(partitions) == 2
    assert {p.attribute for p in partitions} == {info["partition attribute"]}
    assert info["shards"] == 2


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
