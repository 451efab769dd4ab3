"""Cursor lifecycle: live enumerator state behind resumable handles.

A :class:`Cursor` wraps a *live* ranked stream — the enumerator handed
over by :meth:`repro.engine.QueryEngine.stream` — plus everything
needed to rebuild it: next-page fetches pull more answers from the open
stream at enumeration delay cost, they never re-run the query.  That is
the whole point of serving ranked enumeration: answers 1000–1100 cost
~100 delays, not a third re-execution.

The :class:`CursorTable` bounds what live state a server holds:

* **LRU eviction** — at most ``max_live`` cursors keep their stream
  open; opening one more releases the least-recently-used cursor's
  stream (its enumerator's heap state).  The cursor *record*
  survives with its ``(query, offset)`` replay spec: the next fetch
  transparently rebuilds the stream and fast-forwards ``offset``
  answers.  Enumeration is deterministic over unchanged data, so the
  replayed tail is identical to the one the evicted stream would have
  produced; if the database generation moved in between, replay refuses
  with :class:`~repro.service.protocol.StaleCursorError` rather than
  silently serving answers from a different ranked order.
* **TTL expiry** — cursors idle longer than ``ttl`` seconds are removed
  entirely (subsequent fetches get ``unknown-cursor``); abandoned
  sessions cannot pin server memory forever.

Everything here is plain synchronous code guarded by locks: fetches run
on the server's executor threads, the asyncio side never touches
cursor internals directly.
"""

from __future__ import annotations

import itertools
import secrets
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Iterator, Sequence

from .protocol import BadOffsetError, UnknownCursorError

__all__ = ["Cursor", "CursorTable"]

#: ``build(skip)`` -> a ranked stream with the first ``skip`` answers
#: already consumed.  ``skip=0`` opens the initial stream; replays pass
#: the cursor's position.  May raise :class:`StaleCursorError`.
StreamBuilder = Callable[[int], Iterator[Any]]


def _close_stream(stream) -> None:
    close = getattr(stream, "close", None)
    if close is not None:
        close()


class Cursor:
    """One client's paging position inside one ranked enumeration.

    Not constructed directly — :meth:`CursorTable.open` wires the id,
    builder and bookkeeping.  Thread-safe: a per-cursor lock serialises
    concurrent fetches (pages stay disjoint and in rank order) and
    fences fetch against eviction.
    """

    __slots__ = (
        "cursor_id",
        "tenant",
        "head",
        "k",
        "generation",
        "position",
        "replays",
        "created_at",
        "last_used",
        "exhausted",
        "_build",
        "_stream",
        "_lock",
        "_on_replay",
        "_pushed",
        "_last_page",
        "_last_start",
    )

    def __init__(
        self,
        cursor_id: str,
        build: StreamBuilder,
        *,
        tenant: str,
        head: Sequence[str],
        k: int | None,
        generation: int | None,
        now: float,
        on_replay: Callable[[], None] | None = None,
    ):
        self.cursor_id = cursor_id
        self.tenant = tenant
        self.head = tuple(head)
        self.k = k
        self.generation = generation
        self.position = 0
        self.replays = 0
        self.created_at = now
        self.last_used = now
        self.exhausted = False
        self._build = build
        self._stream: Iterator[Any] | None = None
        self._lock = threading.Lock()
        self._on_replay = on_replay
        #: Answers returned by :meth:`push_back` (abandoned pages),
        #: served again before the stream is pulled.
        self._pushed: list[Any] = []
        #: Buffered copy of the last non-empty page and its start offset
        #: — re-served verbatim when a client retries the same ``at``
        #: (a response lost to a dropped connection).
        self._last_page: list[Any] | None = None
        self._last_start = 0

    # ------------------------------------------------------------------ #
    # state queries
    # ------------------------------------------------------------------ #
    @property
    def live(self) -> bool:
        """Whether the cursor currently holds an open stream."""
        return self._stream is not None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def prime(self) -> None:
        """Open the initial stream (done at ``query`` time, not first fetch).

        Preprocessing — plan binding, reduction — happens
        here, so the first page is a pure enumeration fetch like every
        later one.
        """
        with self._lock:
            if self._stream is None and not self.exhausted:
                self._stream = self._build(0)

    def fetch(self, n: int, at: int | None = None) -> tuple[list[Any], bool]:
        """The next ``<= n`` ranked answers and whether the stream is done.

        Resumes the live stream when present; on an evicted (or
        journal-restored) cursor the replay fallback rebuilds the stream
        fast-forwarded to :attr:`position` first.  When the cursor was
        opened with a ``k`` cap, the page is clipped so at most ``k``
        answers are ever emitted in total — a cap reached mid-page marks
        the cursor exhausted in the same response.

        ``at`` is the client's view of its position, making the fetch
        idempotent across retries: matching the current position is a
        normal fetch; matching the *previous* page's start re-serves the
        buffered page verbatim (the response was lost in flight, the
        answers were not); a forward offset on a replayable cursor
        fast-forwards deterministically.  Anything else refuses with
        :class:`~repro.service.protocol.BadOffsetError` — paging is
        exact-or-refuse, never silently resynchronised.
        """
        with self._lock:
            if at is not None:
                at = int(at)
                if at != self.position:
                    if self._last_page is not None and at == self._last_start:
                        return list(self._last_page), (
                            self.exhausted and not self._pushed
                        )
                    if (
                        at > self.position
                        and self._stream is None
                        and not self._pushed
                        and not self.exhausted
                    ):
                        # Replayable and behind the client (e.g. a journal
                        # restored an older offset): deterministic
                        # enumeration makes the skip exact.
                        self.position = at
                    else:
                        raise BadOffsetError(
                            f"cursor {self.cursor_id!r} cannot serve offset "
                            f"{at} (position {self.position}); re-run the "
                            "query"
                        )
            if (self.exhausted and not self._pushed) or n <= 0:
                return [], self.exhausted
            want = n
            if self.k is not None:
                want = min(want, self.k - self.position)
                if want <= 0:
                    self._exhaust_locked()
                    return [], True
            start = self.position
            answers: list[Any] = []
            if self._pushed:
                take = min(want, len(self._pushed))
                answers = self._pushed[:take]
                del self._pushed[:take]
            stream_drained = False
            remaining = want - len(answers)
            if remaining > 0 and not self.exhausted:
                if self._stream is None:
                    # Evicted (or never primed): the recorded
                    # (query, offset) replay path, resumed past any
                    # pushed-back answers just served.
                    self._stream = self._build(start + len(answers))
                    self.replays += 1
                    if self._on_replay is not None:
                        self._on_replay()
                pulled = list(itertools.islice(self._stream, remaining))
                answers.extend(pulled)
                stream_drained = len(pulled) < remaining
            self.position = start + len(answers)
            if stream_drained or (self.k is not None and self.position >= self.k):
                self._exhaust_locked()
            if answers:
                self._last_page = list(answers)
                self._last_start = start
            return answers, self.exhausted and not self._pushed

    def push_back(self, answers: Sequence[Any]) -> None:
        """Return an abandoned page: it will be served again, in order.

        The deadline path uses this when a fetch completes after its
        client stopped waiting — prepending the page keeps the ranked
        sequence exact for the retry (or for a journal-restored resume).
        """
        if not answers:
            return
        with self._lock:
            self._pushed[:0] = list(answers)
            self.position -= len(answers)
            self._last_page = None

    def evict(self) -> bool:
        """Release the live stream, keeping the replayable record.

        Returns whether there was live state to drop.  Fetch-safe: an
        in-flight fetch finishes first (the lock), then the stream goes.
        """
        with self._lock:
            stream, self._stream = self._stream, None
            if stream is None:
                return False
            _close_stream(stream)
            return True

    def close(self) -> None:
        """Terminal: release the stream and refuse further fetches."""
        with self._lock:
            self._exhaust_locked()

    def _exhaust_locked(self) -> None:
        self.exhausted = True
        stream, self._stream = self._stream, None
        if stream is not None:
            _close_stream(stream)

    def describe(self) -> dict:
        """The wire-facing cursor summary (``query`` / ``fetch`` responses)."""
        return {
            "cursor": self.cursor_id,
            "position": self.position,
            "done": self.exhausted and not self._pushed,
            "live": self.live,
            "replays": self.replays,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cursor({self.cursor_id!r}, position={self.position}, "
            f"live={self.live}, done={self.exhausted})"
        )


class CursorTable:
    """All of one server's cursors: id allocation, LRU bound, TTL sweep.

    ``max_live`` bounds cursors *holding open streams* (the expensive
    state); the total record count is bounded by TTL expiry.  A
    ``clock`` injection point keeps the TTL logic testable without
    sleeping.
    """

    def __init__(
        self,
        *,
        max_live: int = 64,
        ttl: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_live < 1:
            raise ValueError(f"max_live must be >= 1, got {max_live}")
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self.max_live = max_live
        self.ttl = ttl
        self._clock = clock
        self._cursors: "OrderedDict[str, Cursor]" = OrderedDict()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.opened = 0
        self.closed = 0
        self.expired = 0
        self.evicted = 0
        self.replays = 0
        self.restored = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def open(
        self,
        build: StreamBuilder,
        *,
        tenant: str,
        head: Sequence[str],
        k: int | None = None,
        generation: int | None = None,
    ) -> Cursor:
        """Register (and prime) a new cursor; may LRU-evict an old one."""
        now = self._clock()
        with self._lock:
            cursor_id = f"c{next(self._ids)}-{secrets.token_hex(3)}"
            cursor = Cursor(
                cursor_id,
                build,
                tenant=tenant,
                head=head,
                k=k,
                generation=generation,
                now=now,
                on_replay=self._count_replay,
            )
            self._cursors[cursor_id] = cursor
            self.opened += 1
            self._sweep_locked(now)
        # Prime outside the table lock: preprocessing can be slow and
        # must not block unrelated cursor traffic.
        cursor.prime()
        with self._lock:
            self._evict_over_limit_locked(keep=cursor)
        return cursor

    def restore(
        self,
        cursor_id: str,
        build: StreamBuilder,
        *,
        tenant: str,
        head: Sequence[str],
        k: int | None = None,
        generation: int | None = None,
        position: int = 0,
    ) -> Cursor | None:
        """Re-register a journal-recovered cursor under its original id.

        Unlike :meth:`open`, the stream is *not* primed — a restored
        cursor rebuilds lazily on its first fetch (the replay path), so
        a server restart does not re-run every parked query up front.
        Returns ``None`` when the id already exists (recovery is not
        allowed to clobber live state).
        """
        now = self._clock()
        with self._lock:
            if cursor_id in self._cursors:
                return None
            cursor = Cursor(
                cursor_id,
                build,
                tenant=tenant,
                head=head,
                k=k,
                generation=generation,
                now=now,
                on_replay=self._count_replay,
            )
            cursor.position = int(position)
            self._cursors[cursor_id] = cursor
            self.restored += 1
            return cursor

    def get(self, cursor_id: str) -> Cursor:
        """Look up a cursor, bumping its LRU recency and last-used time."""
        now = self._clock()
        with self._lock:
            self._sweep_locked(now)
            cursor = self._cursors.get(cursor_id)
            if cursor is None:
                raise UnknownCursorError(f"unknown cursor {cursor_id!r}")
            self._cursors.move_to_end(cursor_id)
            cursor.last_used = now
            return cursor

    def close(self, cursor_id: str) -> bool:
        """Close and forget a cursor; ``False`` when it was already gone.

        Idempotent by design — a double close is a no-op, not an error
        (clients and the shutdown drain may race on the same cursor).
        """
        with self._lock:
            cursor = self._cursors.pop(cursor_id, None)
        if cursor is None:
            return False
        cursor.close()
        self.closed += 1
        return True

    def close_all(self) -> int:
        """Drain every open cursor (graceful-shutdown path)."""
        with self._lock:
            cursors = list(self._cursors.values())
            self._cursors.clear()
        for cursor in cursors:
            cursor.close()
        self.closed += len(cursors)
        return len(cursors)

    def sweep(self) -> int:
        """Expire idle cursors now; returns how many were dropped."""
        with self._lock:
            return self._sweep_locked(self._clock())

    # ------------------------------------------------------------------ #
    # internals (table lock held)
    # ------------------------------------------------------------------ #
    def _count_replay(self) -> None:
        # Plain int increment under the GIL; exactness is not worth a
        # lock on the fetch path.
        self.replays += 1

    def _sweep_locked(self, now: float) -> int:
        expired = [
            cursor_id
            for cursor_id, cursor in self._cursors.items()
            if now - cursor.last_used > self.ttl
        ]
        for cursor_id in expired:
            cursor = self._cursors.pop(cursor_id)
            cursor.close()
        self.expired += len(expired)
        return len(expired)

    def _evict_over_limit_locked(self, keep: Cursor | None = None) -> None:
        live = [c for c in self._cursors.values() if c.live]
        excess = len(live) - self.max_live
        for cursor in live:  # oldest-recency first (OrderedDict order)
            if excess <= 0:
                break
            if cursor is keep and excess < len(live):
                continue  # evict an older cursor before the brand-new one
            if cursor.evict():
                self.evicted += 1
                excess -= 1

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._cursors)

    def snapshot(self) -> dict:
        """Counter view for the ``stats`` op."""
        with self._lock:
            live = sum(1 for c in self._cursors.values() if c.live)
            return {
                "open": len(self._cursors),
                "live": live,
                "max_live": self.max_live,
                "ttl_seconds": self.ttl,
                "opened": self.opened,
                "closed": self.closed,
                "expired": self.expired,
                "evicted": self.evicted,
                "replays": self.replays,
                "restored": self.restored,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CursorTable(open={len(self._cursors)}, max_live={self.max_live})"
