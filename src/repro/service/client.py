"""Blocking client for the ranked-query service.

:class:`ServiceClient` speaks the line-JSON protocol over a plain TCP
socket; :class:`RemoteCursor` mirrors the server-side cursor so paging
code reads like iterating a local stream::

    with connect("127.0.0.1", 7461) as client:
        with client.query("q(x, y) :- r(x, y), s(y, z)", k=50) as cursor:
            for values, score in cursor:
                ...

Answers come back as ``(values_tuple, score)`` pairs — the same shapes a
local :meth:`~repro.engine.QueryEngine.execute` produces (tuples
restored from JSON lists by :func:`~repro.service.protocol.tupled`), so
remote results compare equal to local ones.

The client is synchronous and thread-safe (one request/response pair at
a time under an internal lock); for concurrent load, open one client per
thread — connections are cheap, the server multiplexes them.

Resilience: *idempotent* ops (``ping`` / ``stats`` / ``fetch`` /
``close``) transparently reconnect and retry with exponential backoff
plus jitter when the connection drops (``ConnectionResetError``,
``BrokenPipeError``, a half-read response).  This is safe because every
``fetch`` carries the cursor's expected offset (``at``): a retried fetch
whose original response was lost in flight gets the server's buffered
last page re-served verbatim, never a skipped or duplicated answer.
Non-idempotent ops (``query`` / ``execute``) fail fast — the caller
decides whether re-running the query is acceptable.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from typing import Any, Iterator

from ..testing.faultinject import fault_point
from .protocol import (
    BadOffsetError,
    DeadlineExceededError,
    OverloadedError,
    ServiceError,
    StaleCursorError,
    UnknownCursorError,
    decode_answers,
    dump_message,
    parse_message,
)

__all__ = ["ServiceClient", "RemoteCursor", "connect"]

#: Wire error code -> the exception class raised client-side.
_ERROR_TYPES: dict[str, type[ServiceError]] = {
    "unknown-cursor": UnknownCursorError,
    "stale-cursor": StaleCursorError,
    "overloaded": OverloadedError,
    "deadline-exceeded": DeadlineExceededError,
    "bad-offset": BadOffsetError,
}

#: Ops that are safe to resend after a dropped connection.  ``fetch``
#: qualifies because it always carries its expected offset (``at``) and
#: the server re-serves the buffered page on a repeat offset.
_IDEMPOTENT = frozenset({"ping", "stats", "fetch", "close"})


def _raise_for(error: dict) -> None:
    code = error.get("code", "bad-request")
    message = error.get("message", "request failed")
    cls = _ERROR_TYPES.get(code)
    if cls is not None:
        raise cls(message)
    raise ServiceError(message, code=code)


class RemoteCursor:
    """Client-side handle on a server cursor: page, iterate, close.

    Tracks the server's view after every fetch — :attr:`position`,
    :attr:`done`, :attr:`replays` (how often eviction forced a replay
    rebuild) and :attr:`last_stats` (the per-request engine counters the
    server measured for the most recent page).
    """

    def __init__(self, client: "ServiceClient", payload: dict):
        self._client = client
        self.cursor_id: str = payload["cursor"]
        self.head: tuple = tuple(payload.get("head", ()))
        self.position: int = payload.get("position", 0)
        self.done: bool = payload.get("done", False)
        self.replays: int = payload.get("replays", 0)
        self.last_stats: dict | None = payload.get("stats")
        self._closed = False

    def fetch(
        self, n: int | None = None, *, deadline: float | None = None
    ) -> list[tuple[tuple, Any]]:
        """The next page: up to ``n`` ranked answers (server default if None).

        Returns ``[]`` once the enumeration (or the ``k`` cap) is
        exhausted; :attr:`done` flips accordingly.  The request carries
        the cursor's expected offset, so a fetch retried across a
        reconnect (or against a restarted, journal-recovered server)
        resumes at exactly this position.  ``deadline`` bounds the
        server-side work in seconds (:class:`DeadlineExceededError` on
        expiry; the page is pushed back, so a retry loses nothing).
        """
        if self._closed or self.done:
            return []
        fields: dict = {"cursor": self.cursor_id, "at": self.position}
        if n is not None:
            fields["n"] = n
        if deadline is not None:
            fields["deadline"] = deadline
        payload = self._client.request("fetch", **fields)
        self.position = payload["position"]
        self.done = payload["done"]
        self.replays = payload["replays"]
        self.last_stats = payload.get("stats")
        return decode_answers(payload["answers"])

    def pages(self, n: int | None = None) -> Iterator[list[tuple[tuple, Any]]]:
        """Iterate page-by-page until exhausted."""
        while not self.done and not self._closed:
            page = self.fetch(n)
            if page:
                yield page

    def __iter__(self) -> Iterator[tuple[tuple, Any]]:
        for page in self.pages():
            yield from page

    def close(self) -> bool:
        """Release the server-side cursor (idempotent)."""
        if self._closed:
            return False
        self._closed = True
        try:
            payload = self._client.request("close", cursor=self.cursor_id)
        except (ServiceError, OSError):
            # Connection already gone: the server's TTL sweep will reap it.
            return False
        return bool(payload.get("closed"))

    def __enter__(self) -> "RemoteCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RemoteCursor({self.cursor_id!r}, position={self.position}, "
            f"done={self.done})"
        )


class ServiceClient:
    """One TCP connection to a :class:`~repro.service.server.ReproServer`.

    ``retries`` bounds the reconnect budget for idempotent ops; each
    retry sleeps ``backoff * 2**(attempt-1)`` seconds (capped at
    ``backoff_cap``) scaled by uniform jitter in ``[0.5, 1.0)`` so a
    fleet of clients does not reconnect in lockstep.  Pass a seeded
    ``rng`` for deterministic jitter in tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7461,
        *,
        tenant: str = "default",
        timeout: float = 60.0,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        rng: random.Random | None = None,
    ):
        self.tenant = tenant
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.reconnects = 0
        self._rng = rng if rng is not None else random.Random()
        self._sock: socket.socket | None = None
        self._rfile = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._connect()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connect(self) -> None:
        fault_point("client.connect")
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._rfile = self._sock.makefile("rb")

    def _teardown(self) -> None:
        for closer in (self._rfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:  # pragma: no cover - best effort
                    pass
        self._rfile = None
        self._sock = None

    def request(self, op: str, **fields: Any) -> dict:
        """Send one op and return its payload; raises on ``"ok": false``.

        Idempotent ops survive a dropped connection: the client tears
        the socket down, reconnects with jittered exponential backoff
        and resends, up to ``retries`` times.  Anything else — including
        ``query``/``execute``, which may have taken effect server-side —
        surfaces the failure to the caller immediately.
        """
        message = {"op": op, "id": next(self._ids), "tenant": self.tenant}
        message.update({k: v for k, v in fields.items() if v is not None})
        line = self._exchange(dump_message(message), retry=op in _IDEMPOTENT)
        response = parse_message(line)
        if not response.get("ok"):
            _raise_for(response.get("error", {}))
        return response

    def _exchange(self, data: bytes, *, retry: bool) -> bytes:
        attempts = self.retries + 1 if retry else 1
        with self._lock:
            for attempt in range(attempts):
                if attempt:
                    delay = min(
                        self.backoff_cap, self.backoff * (2 ** (attempt - 1))
                    )
                    time.sleep(delay * (0.5 + self._rng.random() / 2))
                try:
                    if self._sock is None:
                        self._connect()
                        if attempt:
                            self.reconnects += 1
                    self._sock.sendall(data)
                    line = self._rfile.readline()
                    if not line.endswith(b"\n"):
                        # Empty read or a half-written response: the
                        # server went away mid-line — never parse it.
                        raise ServiceError(
                            "connection closed by server", code="disconnected"
                        )
                    return line
                except ServiceError as exc:
                    if exc.code != "disconnected":
                        raise
                    self._teardown()
                    if attempt + 1 == attempts:
                        raise
                except OSError as exc:
                    self._teardown()
                    if attempt + 1 == attempts:
                        raise ServiceError(
                            f"connection failed after {attempts} "
                            f"attempt(s): {exc}",
                            code="disconnected",
                        ) from exc
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # ops
    # ------------------------------------------------------------------ #
    def ping(self) -> dict:
        return self.request("ping")

    def stats(self) -> dict:
        """Server observability: service/admission/cursor/engine counters."""
        return self.request("stats")

    def query(
        self,
        query: str,
        *,
        k: int | None = None,
        rank: str | None = None,
        desc: Any = None,
        deadline: float | None = None,
    ) -> RemoteCursor:
        """Open a server-side cursor over a ranked enumeration.

        ``rank`` names a ranking (``sum`` / ``avg`` / ``min`` / ``max`` /
        ``product`` / ``lex``); ``desc`` is a bool for aggregates or a
        list of attribute names for ``lex``.  ``deadline`` bounds the
        server-side open in seconds.
        """
        payload = self.request(
            "query", query=query, k=k, rank=rank, desc=desc, deadline=deadline
        )
        return RemoteCursor(self, payload)

    def execute(
        self,
        query: str,
        *,
        k: int | None = None,
        rank: str | None = None,
        desc: Any = None,
        deadline: float | None = None,
    ) -> list[tuple[tuple, Any]]:
        """One-shot ranked execution (no cursor); answers materialised."""
        payload = self.request(
            "execute", query=query, k=k, rank=rank, desc=desc, deadline=deadline
        )
        self.last_stats = payload.get("stats")
        return decode_answers(payload["answers"])

    #: Engine counters for the most recent :meth:`execute` response.
    last_stats: dict | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    host: str = "127.0.0.1",
    port: int = 7461,
    *,
    tenant: str = "default",
    timeout: float = 60.0,
    retries: int = 3,
    backoff: float = 0.05,
    rng: random.Random | None = None,
) -> ServiceClient:
    """Open a :class:`ServiceClient` (use as a context manager)."""
    return ServiceClient(
        host,
        port,
        tenant=tenant,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        rng=rng,
    )
