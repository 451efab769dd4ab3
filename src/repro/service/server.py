"""The asyncio ranked-query server over one :class:`~repro.engine.QueryEngine`.

Architecture, in one pass through a request's life:

1. A connection speaks the line-JSON protocol (:mod:`.protocol`); the
   asyncio side parses frames and dispatches ops.
2. Engine-work ops (``query`` / ``execute`` / ``fetch``) first pass
   **admission control** (:class:`~repro.service.admission.FairGate`):
   a bounded in-flight limit with per-tenant round-robin queueing over
   the shared plan/score/kernel caches, shedding load beyond the queue
   bound.
3. Admitted work runs on a thread pool (the engine is synchronous),
   wrapped in :meth:`QueryEngine.measure` so every response carries its
   own exact ``kernel_calls`` / ``score_builds`` / ``seconds`` — the
   PR-5 scoped counters keep concurrent requests from bleeding into
   each other.
4. ``query`` opens a **cursor** (:mod:`.cursors`): the live enumerator
   stream from :meth:`QueryEngine.stream` parked server-side.
   ``fetch`` pages through it at enumeration-delay cost; LRU-evicted
   cursors replay transparently; TTL reaps abandoned ones.
5. :meth:`ReproServer.stop` is a graceful drain: stop accepting, let
   in-flight requests finish, then close every open cursor (releasing
   its enumerator state) before the pool goes down.

The service layer deliberately sits *on top of* the engine: it talks
only to :class:`QueryEngine` and public enumerator surfaces, never to
storage internals — ``tools/check_layering.py`` (rule 3) enforces that
boundary in CI.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from ..core.ranking import (
    AvgRanking,
    LexRanking,
    MaxRanking,
    MinRanking,
    ProductRanking,
    RankingFunction,
    SumRanking,
)
from ..engine import QueryEngine
from ..errors import ReproError
from ..testing.faultinject import fault_point, fault_value
from .admission import FairGate
from .cursors import CursorTable
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    DeadlineExceededError,
    ServiceError,
    StaleCursorError,
    dump_message,
    encode_answers,
    error_response,
    jsonable,
    parse_message,
)

__all__ = ["ReproServer", "ServerThread", "ServiceStats", "serve", "DEFAULT_PORT"]

DEFAULT_PORT = 7461

_RANKINGS: dict[str, type[RankingFunction]] = {
    "sum": SumRanking,
    "avg": AvgRanking,
    "min": MinRanking,
    "max": MaxRanking,
    "product": ProductRanking,
    "lex": LexRanking,
}


class ServiceStats:
    """Server-level request counters (the ``stats`` op's ``service`` block)."""

    __slots__ = (
        "connections",
        "requests",
        "errors",
        "answers_served",
        "deadline_exceeded",
        "journal_errors",
        "by_op",
    )

    def __init__(self):
        self.connections = 0
        self.requests = 0
        self.errors = 0
        self.answers_served = 0
        self.deadline_exceeded = 0
        self.journal_errors = 0
        self.by_op: dict[str, int] = {}

    def count(self, op: str) -> None:
        self.requests += 1
        self.by_op[op] = self.by_op.get(op, 0) + 1

    def snapshot(self) -> dict:
        return {
            "connections": self.connections,
            "requests": self.requests,
            "errors": self.errors,
            "answers_served": self.answers_served,
            "deadline_exceeded": self.deadline_exceeded,
            "journal_errors": self.journal_errors,
            "by_op": dict(self.by_op),
        }


def _build_ranking_uncached(rank: str | None, desc: Any) -> RankingFunction | None:
    if rank is None:
        return None
    cls = _RANKINGS.get(rank)
    if cls is None:
        raise ServiceError(
            f"unknown ranking {rank!r}; choose one of {sorted(_RANKINGS)}"
        )
    if rank == "lex":
        attrs = tuple(desc) if isinstance(desc, (list, tuple)) else ()
        if not all(isinstance(a, str) for a in attrs):
            raise ServiceError("lex 'desc' must be a list of attribute names")
        return LexRanking(descending=attrs)
    return cls(descending=bool(desc))


class ReproServer:
    """One served database: engine + cursors + admission + protocol.

    Parameters
    ----------
    engine:
        The session engine to serve.  All warm state (plans, encoded
        image, score columns) is shared across every
        connection and tenant — that sharing is what admission control
        arbitrates.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (tests and
        benchmarks), readable from :attr:`port` after :meth:`start`.
    max_inflight / max_queue:
        Admission bounds: concurrent engine executions, and waiting
        requests beyond which new ones are rejected as ``overloaded``.
    max_live_cursors / cursor_ttl:
        Cursor-table bounds: cursors holding live enumerator state
        (LRU-evicted to replay records beyond this) and the idle
        time-to-live in seconds after which a cursor is dropped.
    default_page / max_page:
        ``fetch`` page size when the request names none, and the hard
        per-fetch cap.
    workers:
        Executor threads (default: ``max_inflight`` — one thread per
        admitted request is exactly enough).
    durable:
        An optional durability handle (duck-typed; in practice the
        ``DurableDatabase`` from ``repro.open_durable`` — constructed by
        the *embedding* code, never here: the service layer does not
        import storage).  When present, cursor replay specs and resume
        offsets are journaled through it, :meth:`start` restores every
        journal-recovered cursor, and the ``stats`` op grows a
        ``durability`` block.  Journaling is best-effort: data
        durability is the journal's hard guarantee, cursor state
        degrades gracefully (counted in ``journal_errors``).
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_inflight: int = 4,
        max_queue: int = 256,
        max_live_cursors: int = 64,
        cursor_ttl: float = 300.0,
        default_page: int = 100,
        max_page: int = 10_000,
        workers: int | None = None,
        durable: Any = None,
    ):
        self.engine = engine
        self.durable = durable
        self.host = host
        self.port = port
        self.default_page = default_page
        self.max_page = max_page
        self.cursors = CursorTable(max_live=max_live_cursors, ttl=cursor_ttl)
        self.gate = FairGate(max_inflight, max_queue=max_queue)
        self.stats = ServiceStats()
        self._workers = workers or max_inflight
        self._pool: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._sweeper: asyncio.Task | None = None
        self._closing = False
        # Ranking objects cached per wire spec: plan fingerprints key
        # rankings by identity, so handing every request a fresh object
        # would defeat the prepared-plan cache across requests.
        self._rankings: dict[tuple, RankingFunction | None] = {}
        self._engine_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "ReproServer":
        """Bind, start the acceptor and the TTL sweeper."""
        if self._server is not None:
            raise ServiceError("server already started")
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-service"
        )
        self._restore_cursors()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweeper = asyncio.get_running_loop().create_task(self._sweep_loop())
        return self

    async def stop(self, *, timeout: float = 10.0) -> dict:
        """Graceful shutdown: stop accepting, drain, close all cursors.

        New engine ops are refused with ``shutting-down`` the moment
        this is called; requests already admitted (or queued) run to
        completion within ``timeout`` seconds; then every open cursor is
        closed — releasing its live stream — before the executor goes
        down.  Returns a small summary dict.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        drained = await self.gate.drain(timeout)
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        cursors_closed = self.cursors.close_all()
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        return {"drained": drained, "cursors_closed": cursors_closed}

    async def _sweep_loop(self) -> None:
        interval = max(min(self.cursors.ttl / 4, 5.0), 0.05)
        while True:
            await asyncio.sleep(interval)
            self.cursors.sweep()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        dump_message(
                            error_response(
                                ServiceError("request line too long", code="parse-error")
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._respond(line)
                data = dump_message(response)
                cut = fault_value("server.send")
                if cut is not None:
                    # Injected mid-response connection drop: a prefix of
                    # the line goes out, then the socket dies — the shape
                    # the client's idempotent retry must survive.
                    writer.write(data[: max(0, min(cut, len(data)))])
                    await writer.drain()
                    break
                writer.write(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _respond(self, line: bytes) -> dict:
        op: str | None = None
        request_id: Any = None
        try:
            message = parse_message(line)
            request_id = message.get("id")
            op = message.get("op")
            if not isinstance(op, str):
                raise ServiceError("request needs a string 'op' field")
            response = await self._dispatch(op, message)
            response["ok"] = True
            response["op"] = op
            if request_id is not None:
                response["id"] = request_id
            return response
        except ServiceError as exc:
            self.stats.errors += 1
            return error_response(exc, op=op, id=request_id)
        except ReproError as exc:
            # Parse/plan/ranking errors from the library: the request's
            # fault, reported without dropping the connection.
            self.stats.errors += 1
            return error_response(
                ServiceError(str(exc), code="query-error"), op=op, id=request_id
            )
        except Exception as exc:  # pragma: no cover - defensive
            self.stats.errors += 1
            return error_response(
                ServiceError(f"internal error: {exc!r}", code="internal"),
                op=op,
                id=request_id,
            )

    async def _dispatch(self, op: str, message: dict) -> dict:
        self.stats.count(op)
        # Validate up front for every op, so a malformed deadline is a
        # clean ``bad-request`` even on ops that never block on one.
        deadline = _optional_number(message, "deadline")
        if op == "ping":
            return {
                "server": "repro-service",
                "protocol": PROTOCOL_VERSION,
                "|D|": self.engine.db.size,
            }
        if op == "stats":
            payload = {
                "service": self.stats.snapshot(),
                "admission": self.gate.snapshot(),
                "cursors": self.cursors.snapshot(),
                "engine": jsonable_dict(self.engine.stats.snapshot()),
            }
            if self.durable is not None:
                try:
                    payload["durability"] = jsonable_dict(
                        self.durable.snapshot_info()
                    )
                except Exception:  # pragma: no cover - defensive
                    self.stats.journal_errors += 1
            return payload
        if op == "close":
            cursor_id = _require_str(message, "cursor")
            closed = self.cursors.close(cursor_id)
            if closed:
                self._journal("record_cursor_close", cursor_id)
            return {"closed": closed}
        if op not in ("query", "execute", "fetch"):
            raise ServiceError(f"unknown op {op!r}")
        if self._closing:
            raise ServiceError("server is shutting down", code="shutting-down")
        tenant = str(message.get("tenant", "default"))
        async with self.gate.slot(tenant):
            loop = asyncio.get_running_loop()
            ctx: dict = {}
            if op == "query":
                work = self._prepare_query_work(message, tenant, ctx)
            elif op == "execute":
                work = self._prepare_execute_work(message)
            else:
                work = self._prepare_fetch_work(message, ctx)
            assert self._pool is not None
            future = loop.run_in_executor(self._pool, work)
            if deadline is None:
                return await future
            try:
                # shield(): a timeout abandons the work, it does not
                # cancel it — the executor thread cannot be interrupted
                # anyway, and the done-callback cleans up its effects.
                return await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline
                )
            except asyncio.TimeoutError:
                self.stats.deadline_exceeded += 1
                future.add_done_callback(
                    lambda f, op=op, ctx=ctx: self._abandon(op, ctx, f)
                )
                raise DeadlineExceededError(
                    f"{op} did not complete within its {deadline}s deadline; "
                    "the work was abandoned server-side (a fetch loses no "
                    "answers — retry with the same offset)"
                ) from None

    # ------------------------------------------------------------------ #
    # op bodies (run on executor threads)
    # ------------------------------------------------------------------ #
    def _stream_builder(self, parsed, ranking, generation):
        """The cursor's ``build(skip)`` replay closure — shared by fresh
        opens and journal restores so both resume identically."""

        def build(skip: int):
            if self.engine.db.generation != generation:
                raise StaleCursorError(
                    "data changed since the cursor was created; "
                    "re-run the query"
                )
            stream = iter(self.engine.stream(parsed, ranking))
            if skip:
                next(itertools.islice(stream, skip - 1, skip), None)
            return stream

        return build

    def _prepare_query_work(
        self, message: dict, tenant: str, ctx: dict
    ) -> Callable[[], dict]:
        query_text = _require_str(message, "query")
        k = _optional_int(message, "k", floor=1)
        ranking = self._ranking_for(message)
        rank_spec = message.get("rank")
        desc_spec = message.get("desc")

        def work() -> dict:
            fault_point("server.work")
            with self.engine.measure() as request:
                parsed = self.engine.parse(query_text)
                generation = self.engine.db.generation
                build = self._stream_builder(parsed, ranking, generation)
                cursor = self.cursors.open(
                    build,
                    tenant=tenant,
                    head=parsed.head,
                    k=k,
                    generation=generation,
                )
            ctx["cursor_id"] = cursor.cursor_id
            self._journal(
                "record_cursor",
                {
                    "cursor": cursor.cursor_id,
                    "tenant": tenant,
                    "query": query_text,
                    "k": k,
                    "rank": rank_spec,
                    "desc": desc_spec,
                    "position": cursor.position,
                },
            )
            payload = cursor.describe()
            payload["head"] = list(cursor.head)
            payload["stats"] = request.snapshot()
            return payload

        return work

    def _prepare_fetch_work(self, message: dict, ctx: dict) -> Callable[[], dict]:
        cursor_id = _require_str(message, "cursor")
        n = _optional_int(message, "n", floor=1) or self.default_page
        n = min(n, self.max_page)
        at = _optional_int(message, "at", floor=0)
        cursor = self.cursors.get(cursor_id)
        ctx["cursor"] = cursor

        def work() -> dict:
            fault_point("server.work")
            before = cursor.position
            with self.engine.measure() as request:
                answers, done = cursor.fetch(n, at=at)
            ctx["answers"] = answers
            self.stats.answers_served += len(answers)
            if cursor.position != before:
                self._journal(
                    "record_cursor_position", cursor.cursor_id, cursor.position
                )
            payload = cursor.describe()
            payload["answers"] = encode_answers(answers)
            payload["done"] = done
            payload["stats"] = request.snapshot()
            return payload

        return work

    def _prepare_execute_work(self, message: dict) -> Callable[[], dict]:
        query_text = _require_str(message, "query")
        k = _optional_int(message, "k", floor=1)
        ranking = self._ranking_for(message)
        # Clients written when execution could shard may still send
        # ``shards``; sharding never changed the answers, so it is ignored.

        def work() -> dict:
            with self.engine.measure() as request:
                parsed = self.engine.parse(query_text)
                answers = self.engine.execute(parsed, ranking, k=k)
            self.stats.answers_served += len(answers)
            return {
                "head": list(parsed.head),
                "answers": encode_answers(answers),
                "count": len(answers),
                "stats": request.snapshot(),
            }

        return work

    def _ranking_for(self, message: dict) -> RankingFunction | None:
        rank = message.get("rank")
        if rank is not None and not isinstance(rank, str):
            raise ServiceError("'rank' must be a string")
        desc = message.get("desc")
        key = (rank, tuple(desc) if isinstance(desc, list) else bool(desc))
        with self._engine_lock:
            if key not in self._rankings:
                self._rankings[key] = _build_ranking_uncached(rank, desc)
            return self._rankings[key]

    # ------------------------------------------------------------------ #
    # durability plumbing (no-ops without a durable handle)
    # ------------------------------------------------------------------ #
    def _journal(self, method: str, *args: Any) -> None:
        """Best-effort cursor journaling through the durable handle.

        Data durability is the journal's hard guarantee; cursor replay
        state degrades gracefully — a refusing journal (broken after an
        injected fsync fault, say) must not fail the request that was
        otherwise served.
        """
        if self.durable is None:
            return
        try:
            getattr(self.durable, method)(*args)
        except Exception:
            self.stats.journal_errors += 1

    def _restore_cursors(self) -> int:
        """Re-register every journal-recovered cursor (start-up path).

        Fresh cursors get the same replay closure a live ``query`` op
        builds — deterministic enumeration resumes them to the exact
        next page.  Stale ones (opened against a data state that is not
        the recovered one) are restored *poisoned*: they answer
        ``stale-cursor``, never pages from a different ranked order.
        Individually unrestorable specs are skipped (those cursors
        answer ``unknown-cursor``), not fatal.
        """
        if self.durable is None:
            return 0
        try:
            recovered = self.durable.recovered_cursors()
        except Exception:
            self.stats.journal_errors += 1
            return 0
        count = 0
        for entry in recovered:
            try:
                spec = entry["spec"]
                cursor_id = spec["cursor"]
                tenant = str(spec.get("tenant", "default"))
                k = spec.get("k")
                position = int(entry.get("position", 0))
                if entry.get("stale"):
                    build = _poisoned_build
                    head: tuple = ()
                else:
                    parsed = self.engine.parse(spec["query"])
                    ranking = self._ranking_for(
                        {"rank": spec.get("rank"), "desc": spec.get("desc")}
                    )
                    # Specs journaled before cursors lost sharding may
                    # carry ``shards``/``backend``; sharding never
                    # changed the ranked order, so they are ignored.
                    build = self._stream_builder(
                        parsed, ranking, self.engine.db.generation
                    )
                    head = parsed.head
                cursor = self.cursors.restore(
                    cursor_id,
                    build,
                    tenant=tenant,
                    head=head,
                    k=k,
                    generation=self.engine.db.generation,
                    position=position,
                )
                if cursor is not None:
                    count += 1
            except Exception:
                continue
        return count

    def _abandon(self, op: str, ctx: dict, future) -> None:
        """Clean up after deadline-abandoned work (loop-side callback).

        An abandoned fetch pushes its page back so the client's retry
        sees the identical ranked sequence; an abandoned query closes
        the cursor it opened (the client never learned its id).
        """
        if future.cancelled() or future.exception() is not None:
            return
        if op == "fetch":
            cursor = ctx.get("cursor")
            answers = ctx.get("answers")
            if cursor is not None and answers:
                try:
                    cursor.push_back(answers)
                except Exception:  # pragma: no cover - defensive
                    return
                self._journal(
                    "record_cursor_position", cursor.cursor_id, cursor.position
                )
        elif op == "query":
            cursor_id = ctx.get("cursor_id")
            if cursor_id and self.cursors.close(cursor_id):
                self._journal("record_cursor_close", cursor_id)


def jsonable_dict(value: dict) -> dict:
    """Engine snapshots contain nested dicts only; make them JSON-safe."""
    return {
        k: jsonable_dict(v) if isinstance(v, dict) else jsonable(v)
        for k, v in value.items()
    }


def _require_str(message: dict, field: str) -> str:
    value = message.get(field)
    if not isinstance(value, str) or not value:
        raise ServiceError(f"request needs a non-empty string {field!r} field")
    return value


def _optional_int(message: dict, field: str, *, floor: int) -> int | None:
    value = message.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{field!r} must be an integer")
    if value < floor:
        raise ServiceError(f"{field!r} must be >= {floor}, got {value}")
    return value


def _optional_number(message: dict, field: str) -> float | None:
    value = message.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(f"{field!r} must be a number")
    if not value > 0:
        raise ServiceError(f"{field!r} must be > 0, got {value}")
    return float(value)


def _poisoned_build(skip: int):
    """Replay closure for a stale recovered cursor: always refuses."""
    raise StaleCursorError(
        "cursor predates the recovered data state; re-run the query"
    )


# --------------------------------------------------------------------- #
# embedding helpers
# --------------------------------------------------------------------- #
class ServerThread:
    """A server on a background thread — tests, benchmarks and docs.

    Runs its own event loop; :meth:`start` blocks until the port is
    bound, :meth:`stop` performs the graceful drain.  Usable as a
    context manager::

        with ServerThread(engine, port=0) as handle:
            client = ServiceClient(handle.host, handle.port)
    """

    def __init__(self, engine: QueryEngine, **options: Any):
        options.setdefault("port", 0)
        self.server = ReproServer(engine, **options)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("server thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            # Let per-connection handler tasks run their finally blocks
            # (writer close/teardown) before the loop goes away, or
            # their transports raise "Event loop is closed" at GC time.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        loop, self._loop = self._loop, None
        if loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(timeout=timeout), loop
        )
        try:
            future.result(timeout + 5.0)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(engine: QueryEngine, **options: Any) -> None:
    """Blocking entry point behind ``repro serve``: run until SIGINT/SIGTERM.

    Starts a :class:`ReproServer`, installs signal handlers where the
    platform supports them, and performs the graceful cursor-draining
    shutdown on the way out.
    """
    import signal

    server = ReproServer(engine, **options)

    async def _main() -> None:
        await server.start()
        print(f"repro-service listening on {server.host}:{server.port}", flush=True)
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop_requested.wait()
        finally:
            summary = await server.stop()
            print(f"repro-service stopped: {summary}", flush=True)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - platform fallback
        pass
