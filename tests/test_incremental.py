"""Metamorphic differential suite for incremental delta maintenance.

The invariant under test (``docs/architecture.md``): **any state a delta
touches must be provably identical to a cold rebuild**.  Every case here
runs one long-lived engine through a randomized write schedule and
checks, after every write, that its ranked top-k — answer values *and*
scores, in order — is bit-identical to a fresh engine built cold from
the mutated data.  Underneath, the scan views and the encoded image are
maintained from the stores' delta logs, while the warm reduction is
dropped on every write and rebuilt by the full reducer; the metamorphic
relation (live == cold-rebuilt) checks both, and the stats counters
pin down that the rebuild, not a re-encode, ran.

The grid crosses query shape (acyclic path, star, cyclic) x ranking
(SUM, LEX) x dictionary encoding (on, off) x kernels (on, off) — 24
cells x ``SEEDS_PER_CELL`` randomized (query, database, write-schedule)
cases, 500+ in total, plus directed edge cases: the empty delta,
delete-everything, append-then-delete-the-same-tuple, a write landing
while a cursor's stream is open, and mutation through one of two views
sharing a column store (the ``renamed`` staleness regression).
"""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import random_db_for
from repro.core.ranking import LexRanking, SumRanking
from repro.data import Database
from repro.data.relation import Relation
from repro.engine import QueryEngine
from repro.query import parse_query
from repro.storage import kernels

SHAPES = {
    "acyclic": "Q(a, d) :- R(a, b), S(b, c), T(c, d)",
    "star": "Q(x0, x1, x2) :- R(x0, b), R(x1, b), R(x2, b)",
    "cyclic": "Q(x, y) :- R(x, y), S(y, z), T(z, x)",
}
RANKINGS = {"sum": SumRanking, "lex": LexRanking}

SEEDS_PER_CELL = 22  # 24 cells x 22 = 528 randomized cases
WRITES_PER_CASE = 3
K = 10
DOMAIN = 4


def answers(engine, query, ranking, k=K):
    return [(a.values, a.score) for a in engine.execute(query, ranking, k=k)]


def cold_answers(db, query, ranking_cls, *, encode, k=K):
    """What a from-scratch engine over the current data returns."""
    fresh = Database()
    for rel in db:
        fresh.add_relation(rel.name, rel.attrs, rel.tuples)
    return answers(QueryEngine(fresh, encode=encode), query, ranking_cls(), k=k)


# Plans are cached per ranking *object* (identity), so the live engine
# must see one stable instance across a case for warm-state reuse.
SUM = SumRanking()


def random_row(rel, rng):
    return tuple(rng.randint(0, DOMAIN) for _ in range(rel.arity))


def apply_random_write(db, rng) -> str:
    """One random mutation through the live relation objects."""
    rel = rng.choice(list(db))
    op = rng.randrange(4)
    if op == 2 and len(rel):
        rel.remove(rng.choice(rel.tuples))
        return "delete"
    if op == 3 and len(rel):
        # Append then immediately delete the same tuple: the store sees
        # two deltas whose net effect (minus pre-existing duplicates of
        # the row) is nothing.
        row = rng.choice(rel.tuples)
        rel.add(row)
        rel.remove(row)
        return "append+delete"
    if op == 0:
        rel.add_rows([random_row(rel, rng) for _ in range(rng.randint(1, 4))])
        return "burst"
    rel.add(random_row(rel, rng))
    return "append"


CELLS = list(
    itertools.product(SHAPES, RANKINGS, (True, False), (True, False))
)


@pytest.mark.parametrize(
    "shape,rank,encode,kern",
    CELLS,
    ids=[
        f"{s}-{r}-{'enc' if e else 'raw'}-{'kern' if k else 'scalar'}"
        for s, r, e, k in CELLS
    ],
)
def test_metamorphic_grid(shape, rank, encode, kern):
    query = parse_query(SHAPES[shape])
    ranking_cls = RANKINGS[rank]
    rebuilds = 0
    kernels.set_enabled(kern)
    try:
        for seed in range(SEEDS_PER_CELL):
            rng = random.Random(f"{shape}/{rank}/{encode}/{kern}/{seed}")
            db = random_db_for(query, rng, max_rows=8, domain=DOMAIN)
            engine = QueryEngine(db, encode=encode)
            ranking = ranking_cls()  # one instance: plans cache by identity
            expect = cold_answers(db, query, ranking_cls, encode=encode)
            got = answers(engine, query, ranking)
            assert got == expect, f"seed {seed}: cold baseline diverged"
            ticks = 0
            for step in range(WRITES_PER_CASE):
                generation = db.generation
                op = apply_random_write(db, rng)
                ticks += db.generation != generation
                got = answers(engine, query, ranking)
                expect = cold_answers(db, query, ranking_cls, encode=encode)
                assert got == expect, (
                    f"seed {seed} step {step} ({op}): "
                    f"delta-maintained answers diverged from cold rebuild"
                )
            # Delta replay of the reduction is retired: its counters
            # stay 0 on every path.
            assert engine.stats.delta_applies == 0
            assert engine.stats.delta_fallbacks == 0
            if not encode:
                # Raw rows: a write that ticks the generation drops a
                # warm plan's reduction exactly once, for a rebuild, and
                # never builds an encoded image.
                assert engine.stats.encode_builds == 0
                if engine.prepare(query, ranking).plan.kind in ("acyclic", "lex"):
                    assert engine.stats.invalidations == ticks
                    rebuilds += ticks
    finally:
        kernels.set_enabled(True)
    if not encode and shape != "cyclic":
        assert rebuilds > 0, "no write ever reached a warm plan"


# --------------------------------------------------------------------- #
# directed edge cases
# --------------------------------------------------------------------- #
QUERY = parse_query("Q(a, c) :- R(a, b), S(b, c)")


def two_rel_db():
    db = Database()
    db.add_relation("R", ("a", "b"), [(1, 1), (2, 1), (3, 2), (1, 2)])
    db.add_relation("S", ("b", "c"), [(1, 1), (2, 4), (2, 1)])
    return db


def test_empty_delta_is_invisible():
    db = two_rel_db()
    engine = QueryEngine(db)
    before = answers(engine, QUERY, SUM)
    generation = db.generation
    db["R"].add_rows([])
    assert db.generation == generation  # no-op writes do not even tick
    assert answers(engine, QUERY, SUM) == before
    assert engine.stats.invalidations == 0
    assert engine.stats.delta_applies == 0


def test_delete_everything_then_refill():
    db = two_rel_db()
    engine = QueryEngine(db)
    answers(engine, QUERY, SUM)
    for row in list(dict.fromkeys(db["R"].tuples)):
        db["R"].remove(row)
    assert len(db["R"]) == 0
    assert answers(engine, QUERY, SUM) == []
    assert answers(engine, QUERY, SUM) == cold_answers(
        db, QUERY, SumRanking, encode="auto"
    )
    db["R"].add_rows([(1, 1), (2, 2)])
    assert answers(engine, QUERY, SUM) == cold_answers(
        db, QUERY, SumRanking, encode="auto"
    )


def test_append_then_delete_same_tuple_net_noop():
    db = two_rel_db()
    engine = QueryEngine(db)
    before = answers(engine, QUERY, SUM)
    db["R"].add((9, 9))  # (9, 9) is fresh: remove() takes out exactly it
    db["R"].remove((9, 9))
    after = answers(engine, QUERY, SUM)
    assert after == before
    assert after == cold_answers(db, QUERY, SumRanking, encode="auto")
    # Two writes, one revalidation: the warm reduction is dropped once
    # and rebuilt; the retired delta counters stay 0.
    assert engine.stats.invalidations == 1
    assert engine.stats.delta_applies == 0
    assert engine.stats.delta_fallbacks == 0


def test_write_during_open_cursor_keeps_snapshot():
    db = two_rel_db()
    engine = QueryEngine(db)
    snapshot = answers(engine, QUERY, SUM, k=None)
    stream = iter(engine.stream(QUERY, SUM))
    head = [(a.values, a.score) for a in itertools.islice(stream, 3)]
    db["R"].add((1, 1))  # lands while the stream is open
    tail = [(a.values, a.score) for a in stream]
    # The open stream keeps serving the enumeration state it was built
    # over — the pre-write snapshot, to the end.
    assert head + tail == snapshot
    # A fresh execution sees the new data, identical to a cold rebuild.
    assert answers(engine, QUERY, SUM) == cold_answers(
        db, QUERY, SumRanking, encode="auto"
    )


# --------------------------------------------------------------------- #
# shared-store views: the ``renamed`` staleness regression
# --------------------------------------------------------------------- #
def shared_view_db():
    """A database whose ``R`` is a ``renamed`` replica of an outside base.

    Both relations share one column store; before stores pushed
    mutations to every listening view, writing through ``base`` left the
    replica's generation — and with it the engine's warm state — stale.
    """
    base = Relation("R0", ("a", "b"), [(1, 1), (2, 1), (3, 2)])
    db = Database()
    db.add(base.renamed("R"))
    db.add_relation("S", ("b", "c"), [(1, 1), (2, 4), (2, 1)])
    return base, db


def test_mutation_through_other_view_delta_path():
    base, db = shared_view_db()
    engine = QueryEngine(db)
    answers(engine, QUERY, SUM)
    base.add((4, 2))  # write through the view the engine never saw
    got = answers(engine, QUERY, SUM)
    assert got == cold_answers(db, QUERY, SumRanking, encode="auto")
    assert any((4, r[1]) in db["R"].tuples for r in [(4, 2)])
    # The replica's scan views replay the append from the shared
    # store's delta log; the warm reduction is rebuilt over them.
    assert engine.stats.invalidations == 1
    assert engine.stats.delta_applies == 0
    assert engine.stats.encode_builds == 0


def test_mutation_through_other_view_fallback_path():
    base, db = shared_view_db()
    engine = QueryEngine(db)
    answers(engine, QUERY, SUM)
    # Mixed append+delete gap on one relation: the invalidate-and-rebuild
    # path must equally observe the writes made through the other view.
    base.add((4, 2))
    base.remove((2, 1))
    got = answers(engine, QUERY, SUM)
    assert got == cold_answers(db, QUERY, SumRanking, encode="auto")
    assert engine.stats.invalidations == 1
    assert engine.stats.delta_fallbacks == 0
    assert engine.stats.delta_applies == 0
