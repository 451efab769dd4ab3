"""Service layer: cursors, admission, protocol, server round trips.

Covers the contracts ``docs/service.md`` promises:

* cursor pages resume live enumerator state and concatenate to exactly
  the one-shot ``execute`` answers (across rankings), local and remote;
* LRU eviction mid-pagination is invisible to the client — the replay
  fallback returns the identical remaining answers (and refuses with
  ``stale-cursor`` when the data changed instead of silently serving a
  different order);
* cursor lifecycle edges: double close, ``k`` exhausted mid-page, TTL
  expiry (injected clock), unknown cursor after close;
* concurrent cursors over one engine stay isolated;
* admission control: bounded in-flight, per-tenant round-robin grant
  order, bounded queue with overload rejection;
* graceful shutdown drains and closes open cursors;
* the wire protocol round-trips answers so remote results compare equal
  to local ones.
"""

from __future__ import annotations

import asyncio
import itertools
import threading

import pytest

from repro.core.ranking import LexRanking, SumRanking
from repro.data.database import Database
from repro.engine import QueryEngine
from repro.service import (
    CursorTable,
    FairGate,
    OverloadedError,
    RemoteCursor,
    ServerThread,
    StaleCursorError,
    UnknownCursorError,
    connect,
)
from repro.service import protocol
from repro.service.server import ReproServer

QUERY = "q(a, c) :- r(a, b), s(b, c)"


def make_db(n: int = 120) -> Database:
    db = Database()
    db.add_relation(
        "r", ("a", "b"), [((i * 7) % 50, i % 10) for i in range(n)]
    )
    db.add_relation(
        "s", ("b", "c"), [(j % 10, (j * 3) % 40) for j in range(n // 2)]
    )
    return db


def pairs(answers):
    return [(a.values, a.score) for a in answers]


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(make_db())


@pytest.fixture(scope="module")
def local_sum(engine):
    return pairs(engine.execute(QUERY, SumRanking()))


# --------------------------------------------------------------------- #
# protocol round trip
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_message_round_trip(self):
        msg = {"op": "query", "id": 7, "query": QUERY, "k": 5}
        assert protocol.parse_message(protocol.dump_message(msg)) == msg

    def test_parse_errors(self):
        with pytest.raises(protocol.ServiceError):
            protocol.parse_message(b"not json\n")
        with pytest.raises(protocol.ServiceError):
            protocol.parse_message(b"[1, 2]\n")

    def test_answers_round_trip_restores_tuples(self, engine):
        answers = engine.execute(QUERY, LexRanking(), k=5)
        wire = protocol.encode_answers(answers)
        decoded = protocol.decode_answers(
            protocol.parse_message(protocol.dump_message({"answers": wire}))["answers"]
        )
        assert decoded == pairs(answers)

    def test_error_response_carries_code(self):
        resp = protocol.error_response(
            protocol.StaleCursorError("gone"), op="fetch", id=3
        )
        assert resp == {
            "ok": False,
            "error": {"code": "stale-cursor", "message": "gone"},
            "op": "fetch",
            "id": 3,
        }


# --------------------------------------------------------------------- #
# cursor lifecycle (table-level, no sockets)
# --------------------------------------------------------------------- #
def stream_builder(engine, ranking=None, k=None):
    def build(skip):
        stream = iter(engine.stream(QUERY, ranking))
        if k is not None:
            stream = itertools.islice(stream, k)
        for _ in range(skip):
            next(stream, None)
        return stream

    return build


class TestCursorTable:
    def test_pages_concatenate_to_execute(self, engine, local_sum):
        table = CursorTable()
        cursor = table.open(stream_builder(engine), tenant="t", head=("a", "c"))
        got = []
        while True:
            page, done = cursor.fetch(13)
            got.extend(pairs(page))
            if done:
                break
        assert got == local_sum
        assert cursor.replays == 0

    def test_eviction_mid_pagination_replays_identically(self, engine, local_sum):
        table = CursorTable(max_live=1)
        c1 = table.open(stream_builder(engine), tenant="t", head=("a", "c"))
        first, _ = c1.fetch(10)
        # Opening a second cursor forces the LRU bound: c1 loses its
        # live stream but keeps the replay record.
        c2 = table.open(stream_builder(engine), tenant="t", head=("a", "c"))
        assert not c1.live and c2.live
        rest = []
        while True:
            page, done = c1.fetch(17)
            rest.extend(page)
            if done:
                break
        assert c1.replays == 1
        assert pairs(first) + pairs(rest) == local_sum
        assert table.snapshot()["evicted"] == 1
        assert table.snapshot()["replays"] == 1

    def test_stale_replay_refuses(self, engine):
        db = make_db()
        local_engine = QueryEngine(db)
        table = CursorTable(max_live=1)
        generation = db.generation

        def build(skip):
            if db.generation != generation:
                raise StaleCursorError("data changed")
            stream = iter(local_engine.stream(QUERY))
            for _ in range(skip):
                next(stream, None)
            return stream

        c1 = table.open(build, tenant="t", head=("a", "c"), generation=generation)
        c1.fetch(5)
        table.open(build, tenant="t", head=("a", "c"), generation=generation)
        db.add_relation("extra", ("x",), [(1,)])  # bumps the generation
        with pytest.raises(StaleCursorError):
            c1.fetch(5)

    def test_write_burst_stale_cursor_vs_delta_maintained(self):
        # The incremental contract at the cursor layer: a cursor opened
        # before a write burst refuses with stale-cursor once it has to
        # replay, while a cursor opened after the burst is served from
        # a warm plan rebuilt over the delta-maintained scan views — and
        # returns exactly what a cold rebuild would.
        db = make_db()
        local_engine = QueryEngine(db)
        table = CursorTable(max_live=1)

        def build_at(generation):
            def build(skip):
                if db.generation != generation:
                    raise StaleCursorError("data changed")
                stream = iter(local_engine.stream(QUERY))
                for _ in range(skip):
                    next(stream, None)
                return stream

            return build

        c1 = table.open(
            build_at(db.generation),
            tenant="t",
            head=("a", "c"),
            generation=db.generation,
        )
        c1.fetch(5)
        burst = [(101, 3), (102, 7), (103, 3)]
        db["r"].add_rows(burst)
        invalidations_before = local_engine.stats.invalidations
        encode_builds_before = local_engine.stats.encode_builds
        # Opening the post-burst cursor evicts c1 (max_live=1) and runs
        # the query against the rebuilt warm state.
        c2 = table.open(
            build_at(db.generation),
            tenant="t",
            head=("a", "c"),
            generation=db.generation,
        )
        assert local_engine.stats.invalidations == invalidations_before + 1
        assert local_engine.stats.encode_builds == encode_builds_before
        assert local_engine.stats.delta_applies == 0
        with pytest.raises(StaleCursorError):
            c1.fetch(5)
        got = []
        while True:
            page, done = c2.fetch(40)
            got.extend(pairs(page))
            if done:
                break
        cold_db = make_db()
        cold_db["r"].add_rows(burst)
        cold = pairs(QueryEngine(cold_db).execute(QUERY))
        assert got == cold

    def test_double_close_is_idempotent(self, engine):
        table = CursorTable()
        cursor = table.open(stream_builder(engine), tenant="t", head=("a", "c"))
        assert table.close(cursor.cursor_id) is True
        assert table.close(cursor.cursor_id) is False
        with pytest.raises(UnknownCursorError):
            table.get(cursor.cursor_id)
        assert cursor.fetch(5) == ([], True)

    def test_k_exhausted_mid_page(self, engine, local_sum):
        table = CursorTable()
        cursor = table.open(
            stream_builder(engine, k=10), tenant="t", head=("a", "c"), k=10
        )
        page1, done1 = cursor.fetch(7)
        page2, done2 = cursor.fetch(7)
        assert (len(page1), done1) == (7, False)
        assert (len(page2), done2) == (3, True)  # clipped at k, same response
        assert pairs(page1 + page2) == local_sum[:10]
        assert cursor.fetch(7) == ([], True)

    def test_oversized_first_page_clips_at_k(self, engine, local_sum):
        table = CursorTable()
        cursor = table.open(
            stream_builder(engine, k=5), tenant="t", head=("a", "c"), k=5
        )
        page, done = cursor.fetch(50)
        assert pairs(page) == local_sum[:5]
        assert done is True

    def test_ttl_expiry_with_injected_clock(self, engine):
        now = [0.0]
        table = CursorTable(ttl=10.0, clock=lambda: now[0])
        cursor = table.open(stream_builder(engine), tenant="t", head=("a", "c"))
        now[0] = 5.0
        assert table.get(cursor.cursor_id) is cursor  # refreshes last_used
        now[0] = 14.0
        assert table.sweep() == 0  # used at t=5, idle 9s < ttl
        now[0] = 16.0
        assert table.sweep() == 1
        with pytest.raises(UnknownCursorError):
            table.get(cursor.cursor_id)
        assert table.snapshot()["expired"] == 1

    def test_close_all_drains(self, engine):
        table = CursorTable()
        cursors = [
            table.open(stream_builder(engine), tenant="t", head=("a", "c"))
            for _ in range(3)
        ]
        assert table.close_all() == 3
        assert len(table) == 0
        assert all(c.exhausted for c in cursors)


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #
class TestFairGate:
    def test_round_robin_across_tenants(self):
        async def scenario():
            gate = FairGate(1, max_queue=16)
            order: list[str] = []

            async def job(tenant: str) -> None:
                async with gate.slot(tenant):
                    order.append(tenant)
                    await asyncio.sleep(0)

            await gate.acquire("warm")  # occupy the slot so everyone queues
            jobs = [
                asyncio.ensure_future(job(t))
                for t in ("heavy", "heavy", "heavy", "light")
            ]
            await asyncio.sleep(0)  # everyone enqueued in submission order
            gate.release()
            await asyncio.gather(*jobs)
            return order

        order = asyncio.run(scenario())
        # Round-robin: light's single request is NOT behind all of
        # heavy's queue, the tenants alternate.
        assert order == ["heavy", "light", "heavy", "heavy"]

    def test_bounded_queue_rejects_overload(self):
        async def scenario():
            gate = FairGate(1, max_queue=1)
            await gate.acquire("a")
            queued = asyncio.ensure_future(gate.acquire("b"))
            await asyncio.sleep(0)
            with pytest.raises(OverloadedError):
                await gate.acquire("c")
            assert gate.rejected == 1
            gate.release()
            await queued
            gate.release()
            assert gate.inflight == 0

        asyncio.run(scenario())

    def test_limit_bounds_inflight(self):
        async def scenario():
            gate = FairGate(2, max_queue=16)
            peak = 0
            running = 0

            async def job() -> None:
                nonlocal peak, running
                async with gate.slot("t"):
                    running += 1
                    peak = max(peak, running)
                    await asyncio.sleep(0.001)
                    running -= 1

            await asyncio.gather(*(job() for _ in range(8)))
            assert peak <= 2
            assert gate.admitted == 8
            assert gate.snapshot()["peak_inflight"] <= 2

        asyncio.run(scenario())

    def test_drain_waits_for_idle(self):
        async def scenario():
            gate = FairGate(1)
            await gate.acquire("a")
            assert await gate.drain(0.01) is False
            gate.release()
            assert await gate.drain(1.0) is True

        asyncio.run(scenario())


# --------------------------------------------------------------------- #
# live server round trips
# --------------------------------------------------------------------- #
@pytest.fixture()
def server(engine):
    with ServerThread(engine, max_inflight=2, max_live_cursors=8) as handle:
        yield handle


class TestServer:
    def test_paged_equals_execute_across_rankings_and_backends(
        self, engine, server
    ):
        # Cursor pages, the remote execute op and a local execute must
        # agree.
        for rank_name, ranking in (("sum", SumRanking()), ("lex", LexRanking())):
            local = pairs(engine.execute(QUERY, ranking, k=40))
            with connect(server.host, server.port) as client:
                cursor = client.query(QUERY, rank=rank_name, k=40)
                paged = [a for page in cursor.pages(9) for a in page]
                cursor.close()
                executed = client.execute(QUERY, rank=rank_name, k=40)
            assert paged == local, rank_name
            assert executed == local, rank_name

    def test_remote_matches_local_execute(self, engine, server, local_sum):
        with connect(server.host, server.port) as client:
            assert client.execute(QUERY) == local_sum
            assert client.last_stats["kernel_calls"] >= 0

    def test_concurrent_cursors_one_engine_threads_backend(
        self, engine, server, local_sum
    ):
        # The server runs every request on its executor threads; four
        # client threads page concurrently through one engine.
        errors: list[str] = []

        def worker(worker_id: int) -> None:
            try:
                with connect(
                    server.host, server.port, tenant=f"t{worker_id}"
                ) as client:
                    cursor = client.query(QUERY, k=30)
                    got = [a for page in cursor.pages(7) for a in page]
                    cursor.close()
                    if got != local_sum[:30]:
                        errors.append(f"worker {worker_id} diverged")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(f"worker {worker_id}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_eviction_over_the_wire_is_transparent(self, engine, local_sum):
        # max_live_cursors=1: opening the second cursor evicts the
        # first; its next fetch replays and the client just sees the
        # right answers plus a bumped replay counter.
        with ServerThread(engine, max_live_cursors=1) as handle:
            with connect(handle.host, handle.port) as client:
                c1 = client.query(QUERY)
                first = c1.fetch(10)
                c2 = client.query(QUERY)
                rest = [a for page in c1.pages(25) for a in page]
                assert first + rest == local_sum
                assert c1.replays == 1
                c2.close()

    def test_write_burst_over_the_wire_stale_code_and_delta_state(self):
        # Same contract end to end: the client sees the stale-cursor
        # error code on the pre-burst cursor's replay, and a fresh
        # cursor serves the answers of the rebuilt warm plan.
        db = make_db()
        local_engine = QueryEngine(db)
        burst = [(101, 3), (102, 7), (103, 3)]
        with ServerThread(local_engine, max_live_cursors=1) as handle:
            with connect(handle.host, handle.port) as client:
                c1 = client.query(QUERY)
                c1.fetch(10)
                db["r"].add_rows(burst)
                invalidations_before = local_engine.stats.invalidations
                encode_builds_before = local_engine.stats.encode_builds
                c2 = client.query(QUERY)  # evicts c1, rebuilds warm state
                with pytest.raises(StaleCursorError) as info:
                    c1.fetch(10)
                assert info.value.code == "stale-cursor"
                got = [a for page in c2.pages(25) for a in page]
                c2.close()
        assert local_engine.stats.invalidations == invalidations_before + 1
        assert local_engine.stats.encode_builds == encode_builds_before
        assert local_engine.stats.delta_applies == 0
        cold_db = make_db()
        cold_db["r"].add_rows(burst)
        assert got == pairs(QueryEngine(cold_db).execute(QUERY))

    def test_unknown_cursor_and_double_close(self, server):
        with connect(server.host, server.port) as client:
            cursor = client.query(QUERY, k=5)
            assert cursor.close() is True
            assert cursor.close() is False  # client-side idempotence
            with pytest.raises(UnknownCursorError):
                client.request("fetch", cursor=cursor.cursor_id)
            # server-side close of a gone cursor: ok=false is not used,
            # the op reports closed=false instead.
            assert client.request("close", cursor=cursor.cursor_id)["closed"] is False

    def test_per_request_stats_are_scoped(self, server):
        with connect(server.host, server.port) as client:
            cursor = client.query(QUERY, k=20)
            cursor.fetch(20)
            stats = cursor.last_stats
            assert stats is not None and stats["seconds"] >= 0
            # ping does no engine work: its path must not report any.
            assert "stats" not in client.ping()

    def test_bad_query_keeps_connection_alive(self, server):
        with connect(server.host, server.port) as client:
            with pytest.raises(protocol.ServiceError):
                client.execute("this is not a query")
            assert client.ping()["protocol"] == protocol.PROTOCOL_VERSION

    def test_graceful_shutdown_drains_open_cursors(self, engine):
        handle = ServerThread(engine).start()
        client = connect(handle.host, handle.port)
        cursor = client.query(QUERY)
        cursor.fetch(5)
        table = handle.server.cursors
        assert len(table) == 1
        handle.stop()  # must drain + close the open cursor, not hang
        assert len(table) == 0
        assert table.snapshot()["live"] == 0
        client.close()

    def test_stats_op_reports_all_layers(self, server):
        with connect(server.host, server.port) as client:
            client.execute(QUERY, k=3)
            snap = client.stats()
            assert snap["service"]["requests"] >= 2
            assert snap["admission"]["limit"] == 2
            assert "opened" in snap["cursors"]
            assert "executions" in snap["engine"] or snap["engine"]


# --------------------------------------------------------------------- #
# engine additions the service builds on
# --------------------------------------------------------------------- #
class TestEngineStreaming:
    def test_stream_matches_execute(self, engine, local_sum):
        assert pairs(engine.stream(QUERY)) == local_sum

    def test_stream_is_lazy(self, engine, local_sum):
        stream = iter(engine.stream(QUERY))
        head = [next(stream) for _ in range(3)]
        assert pairs(head) == local_sum[:3]

    def test_measure_scopes_counters(self, engine):
        with engine.measure() as req:
            engine.execute(QUERY, k=10)
        assert req.seconds > 0
        first = req.kernel_calls
        with engine.measure() as req2:
            pass
        assert req2.kernel_calls == 0  # nothing leaked between scopes
        assert first >= 0


@pytest.mark.parametrize("op", ["query", "execute"])
def test_query_op_ignores_legacy_sharding_fields(engine, local_sum, op):
    # Clients written when execution could shard still send these
    # fields; the server executes serially and returns the same ranked
    # order.
    with ServerThread(engine) as handle:
        with connect(handle.host, handle.port) as client:
            payload = client.request(
                op, query=QUERY, k=12, shards=2, backend="threads"
            )
            if op == "execute":
                answers = protocol.decode_answers(payload["answers"])
            else:
                cursor = RemoteCursor(client, payload)
                answers = [a for page in cursor.pages(5) for a in page]
                cursor.close()
            assert answers == local_sum[:12]


def test_server_start_twice_fails(engine):
    async def scenario():
        server = ReproServer(engine, port=0)
        await server.start()
        try:
            with pytest.raises(protocol.ServiceError):
                await server.start()
        finally:
            await server.stop()

    asyncio.run(scenario())
