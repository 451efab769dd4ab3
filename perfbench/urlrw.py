"""``url-rw``: durable writes beside paged ranked reads over the service.

Data: a Memetracker-like graph with URL-shaped string keys — follows
``E(user, post)`` (30 000 rows) and annotations ``A(post, tag, votes)``
(~9 000 rows, ``tag``/``votes`` integers) — saved once as a snapshot and
reopened with ``open_durable``.  Serving: ``QueryEngine(durable.db)`` at
its defaults behind an in-process ``ServerThread`` (2 worker threads, at
most 2 live cursors) with one client connection.  The server gets no
durable handle, so cursor state is not journaled: the fsyncs are the
acknowledged data writes and the checkpoints.  (Journaling cursor state
adds about 15 fsyncs a round, and fsync latency on a shared 2-core VM drifts
with other tenants' disk load, which swamped the read timings.)

One round, closed loop:

1. ``write+sum1`` — a durable write (a 4-row append to ``A`` on even
   rounds, four single-row deletes on odd rounds, a ``checkpoint()``
   every 8th round), then a cursor on an anchored SUM query and three
   100-answer pages: the first answer reflects the write, so this
   request's ``ttf`` is write-issued to first-fresh-answer;
2. ``lex`` — a cursor on a LEX two-atom join, three pages;
3. ``sum2`` — a cursor on a second anchored SUM query, two pages.
   Opening it evicts cursor 1 from the live set;
4. ``replay`` — the fourth page of cursor 1, served by replay.

String keys put every read on the ``storage.encoded`` path with decode
at emission, and every read after a write through ``storage.deltas`` +
``refresh_reduction``.

The base graph is fixed (the cost of the served queries moves with its
heavy hitters, as on the paper workloads); the seed draws the write
stream: which rows are appended and deleted.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from collections import Counter

from harness import OUT_DIR, Sample, State, digest, work_counts

PAGE = 100
CHECKPOINT_EVERY = 8
APPEND_ROWS = 4
DELETES = 4
#: Rounds whose exact work counts are recorded: one checkpoint period.
COUNT_WINDOW = CHECKPOINT_EVERY
#: Rounds whose reads are checked against a cold engine (see ``verify``).
CHECK_ALL = 8
CHECK_EVERY = 4
N_TAGS = 200
N_VOTES = 100


def user_url(a: int) -> str:
    return f"http://blog.example.org/2009/04/user/{a:07d}/profile"


def post_url(p: int) -> str:
    return f"http://media.example.org/2009/04/post/{p:07d}/index.html"


def sum_query(anchor: str) -> str:
    return f'Q(t, v) :- E("{anchor}", p), A(p, t, v)'


LEX_QUERY = "Q(u, t) :- E(u, p), A(p, t, v)"


#: Seed of the base graph (fixed; see the module docstring).
GRAPH_SEED = 2


def generate(seed: int) -> dict:
    from repro.workloads.generators import zipf_bipartite

    rng = random.Random(GRAPH_SEED)
    raw = zipf_bipartite(9000, 4500, 30000, skew_left=1.1, skew_right=1.0, seed=GRAPH_SEED)
    follows = [(user_url(a), post_url(p)) for a, p in raw]
    posts = sorted({p for _a, p in follows})
    annotations = sorted(
        {(rng.choice(posts), rng.randrange(N_TAGS), rng.randrange(N_VOTES)) for _ in range(9000)}
    )
    # Anchors: users whose SUM feed has about 800 and 500 answers, so
    # every page requested is full.
    by_post: dict[str, set] = {}
    for post, tag, votes in annotations:
        by_post.setdefault(post, set()).add((tag, votes))
    feed: dict[str, set] = {}
    for user, post in follows:
        feed.setdefault(user, set()).update(by_post.get(post, ()))
    ranked = sorted(feed, key=lambda u: (len(feed[u]), u))

    def closest(target, exclude=()):
        return min(
            (u for u in ranked if u not in exclude),
            key=lambda u: (abs(len(feed[u]) - target), u),
        )

    anchor1 = closest(800)
    anchor2 = closest(500, exclude=(anchor1,))
    anchor_posts = sorted({p for u, p in follows if u == anchor1})
    return {
        "follows": follows,
        "annotations": annotations,
        "anchors": (anchor1, anchor2),
        "anchor_posts": anchor_posts,
        "seed": seed,
    }


def setup(inputs: dict) -> State:
    from repro import Database, QueryEngine
    from repro.service import ServerThread, connect
    from repro.storage import journal, persist

    os.makedirs(OUT_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="urlrw-", dir=OUT_DIR)
    db = Database()
    db.add_relation("E", ("user", "post"), inputs["follows"])
    db.add_relation("A", ("post", "tag", "votes"), inputs["annotations"])
    persist.save_snapshot(db, directory)
    snapshot_bytes = sum(
        os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)
    )
    durable = journal.open_durable(directory)
    engine = QueryEngine(durable.db)
    handle = ServerThread(engine, max_inflight=2, max_live_cursors=2).start()
    client = connect(handle.host, handle.port)
    state = State(
        directory=directory,
        durable=durable,
        engine=engine,
        handle=handle,
        client=client,
        inputs=inputs,
        queries={
            "sum1": sum_query(inputs["anchors"][0]),
            "sum2": sum_query(inputs["anchors"][1]),
            "lex": LEX_QUERY,
        },
        rng=random.Random(inputs["seed"] + 1),
        appended=[],
        log=[],
        rounds=0,
        write_ack=[],
        checkpoint_s=[],
        round_journal=(0, 0),
        snapshot_bytes_per_row=snapshot_bytes / db.size,
    )
    state.closers = (
        client.close,
        handle.stop,
        durable.close,
        lambda: shutil.rmtree(directory, ignore_errors=True),
    )
    # Ready for the first request: every served plan is warm.
    for name, rank in (("sum1", "sum"), ("lex", "lex"), ("sum2", "sum")):
        with client.query(state.queries[name], rank=rank) as cursor:
            cursor.fetch(PAGE)
    return state


def cycle(state: State, seed: int) -> list[dict]:
    # Two rounds: the append round and the delete round (``_write``).
    return [{"cls": "round"}, {"cls": "round"}]


def _write(state: State) -> None:
    """This round's durable write; every acknowledged op goes in the log."""
    durable, rng = state.durable, state.rng
    before = durable.journal_bytes
    if state.rounds % 2 == 0:
        rows = []
        # New annotations on the SUM anchor's posts with small tag and
        # vote values: they rank on the first page, so every read after
        # the write shows it (and the next round's deletes take it back).
        for _ in range(APPEND_ROWS):
            rows.append((rng.choice(state.inputs["anchor_posts"]), rng.randrange(10), rng.randrange(10)))
        started = time.perf_counter()
        durable.append("A", rows)
        state.write_ack.append(time.perf_counter() - started)
        state.log.append(("append", rows))
        state.appended.extend(rows)
        written = len(rows)
    else:
        written = 0
        for _ in range(DELETES):
            row = state.appended.pop(0)
            started = time.perf_counter()
            durable.delete("A", row)
            state.write_ack.append(time.perf_counter() - started)
            state.log.append(("delete", row))
            written += 1
    state.round_journal = (durable.journal_bytes - before, written)
    if state.rounds % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
        started = time.perf_counter()
        durable.checkpoint()
        state.checkpoint_s.append(time.perf_counter() - started)


def _pages(state, sample, cursor, pages, seen) -> None:
    for _ in range(pages):
        page = cursor.fetch(PAGE)
        sample.arrivals.append((time.perf_counter(), len(page)))
        sample.answers.extend(page)
        _note(state, sample, cursor.last_stats, seen)


def _note(state, sample, stats, seen) -> None:
    """Per-request server counters + the engine's latest enumerator."""
    if stats:
        server = sample.extra.setdefault("server", Counter())
        for key, value in stats.items():
            if key != "seconds":
                server[key] += value
    enum = state.engine.last_enumerator
    if enum is not None:
        seen[id(enum)] = enum


def execute(state: State, request: dict) -> list[Sample]:
    client, queries = state.client, state.queries
    engine_before = state.engine.stats.snapshot()
    seen: dict[int, object] = {}
    samples = []

    first = Sample("write+sum1", time.perf_counter())
    _write(state)
    first.extra["writes"] = len(state.log)
    c1 = client.query(queries["sum1"], rank="sum")
    _note(state, first, c1.last_stats, seen)
    _pages(state, first, c1, 3, seen)
    samples.append(first)

    lex = Sample("lex", time.perf_counter())
    lex.extra["writes"] = len(state.log)
    c2 = client.query(queries["lex"], rank="lex")
    _note(state, lex, c2.last_stats, seen)
    _pages(state, lex, c2, 3, seen)
    samples.append(lex)

    second = Sample("sum2", time.perf_counter())
    second.extra["writes"] = len(state.log)
    c3 = client.query(queries["sum2"], rank="sum")
    _note(state, second, c3.last_stats, seen)
    _pages(state, second, c3, 2, seen)
    samples.append(second)

    replay = Sample("replay", time.perf_counter())
    replay.extra["writes"] = len(state.log)
    replay.extra["offset"] = c1.position
    _pages(state, replay, c1, 1, seen)
    replay.extra["replays"] = c1.replays
    samples.append(replay)

    for cursor in (c1, c2, c3):
        cursor.close()
    state.rounds += 1

    engine_after = state.engine.stats.snapshot()
    totals = Counter()
    for enum in seen.values():
        totals.update(
            {
                k: v
                for k, v in work_counts(state.engine, enum, engine_before).items()
                if k in ("answers", "pops", "pushes", "cells_created")
            }
        )
        totals["peak_pq_entries"] = max(totals["peak_pq_entries"], enum.stats.peak_pq_entries)
        totals["max_pq_ops_between_answers"] = max(
            totals["max_pq_ops_between_answers"],
            max(enum.stats.pq_ops_per_answer, default=0),
        )
    for key in ("delta_applies", "delta_fallbacks", "encode_builds", "plan_hits", "plan_misses"):
        totals[key] = engine_after[key] - engine_before[key]
    for sample in samples:
        totals.update(sample.extra.pop("server", {}))
    totals["cursor_replays"] = replay.extra["replays"]
    totals["journal_bytes"], totals["rows_written"] = state.round_journal
    first.counts = dict(totals)
    return samples


def verify(state: State, samples) -> list[str]:
    """Cold-engine answers over the same acknowledged state; then durability.

    The acknowledged writes are replayed in order into a plain in-memory
    mirror database; the reads of the first ``CHECK_ALL`` rounds, of every
    ``CHECK_EVERY``-th round after them and of the last round are compared
    with a cold ``QueryEngine`` over the mirror as it stood when the read
    was served (a cold engine re-encodes all 39 000 rows, so checking
    every round would cost more than the timed loop).  Then the
    server and the durable handle are closed, the snapshot directory is
    reopened, and its relations must equal the mirror's row for row.
    """
    from repro import Database, QueryEngine
    from repro.core.ranking import LexRanking, SumRanking
    from repro.storage import journal
    failures: list[str] = []
    inputs = state.inputs
    mirror = Database()
    mirror.add_relation("E", ("user", "post"), inputs["follows"])
    mirror.add_relation("A", ("post", "tag", "votes"), inputs["annotations"])
    applied = 0
    cold = None
    reference: dict[str, list] = {}
    texts = {"write+sum1": "sum1", "lex": "lex", "sum2": "sum2", "replay": "sum1"}
    checked = {s.rid for s in samples if s.rid < CHECK_ALL or s.rid % CHECK_EVERY == 0}
    checked.add(max((s.rid for s in samples), default=0))
    for s in samples:
        if s.error is not None or s.rid not in checked:
            continue
        target = s.extra["writes"]
        while applied < target:
            op, rows = state.log[applied]
            if op == "append":
                mirror["A"].add_rows(rows)
            else:
                mirror["A"].remove(rows)
            applied += 1
            cold = None
        if cold is None:
            cold = QueryEngine(mirror)
            reference = {}
        name = texts[s.cls]
        offset = s.extra.get("offset", 0)
        end = offset + s.n
        if len(reference.get(name, ())) < end:
            ranking = LexRanking() if name == "lex" else SumRanking()
            reference[name] = [
                (a.values, a.score)
                for a in cold.execute(state.queries[name], ranking, k=end)
            ]
        if digest(reference[name][offset:end]) != s.digest:
            failures.append(f"{s.cls} after {target} writes: answers differ from a cold engine")
    while applied < len(state.log):
        op, rows = state.log[applied]
        (mirror["A"].add_rows(rows) if op == "append" else mirror["A"].remove(rows))
        applied += 1

    state.client.close()
    state.handle.stop()
    state.durable.close()
    reopened = journal.open_durable(state.directory)
    try:
        for rel in ("E", "A"):
            if Counter(reopened.db[rel].tuples) != Counter(mirror[rel].tuples):
                failures.append(f"reopened snapshot: relation {rel} lost acknowledged writes")
    finally:
        reopened.close()
    return failures


def report(state: State) -> dict:
    """Write-side latencies, kept in the run record (not bounded metrics)."""
    from harness import median, quantile

    return {
        "write_ack_ms": {
            "median": median(state.write_ack) * 1e3,
            "p90": quantile(state.write_ack, 0.9) * 1e3,
            "samples": len(state.write_ack),
        },
        "checkpoint_ms": [t * 1e3 for t in state.checkpoint_s],
    }


def sizes(state: State) -> dict:
    from harness import relation_sizes

    return relation_sizes(state.durable.db)
