"""Deterministic seeded fault injection for the durability layer.

Crash-safety code is exactly the code that never runs in a happy-path
test suite: the fsync that fails, the write torn at byte N, the
connection dropped mid-page, the clock that jumps past a TTL.  This
module plants named **fault points** through the journal
(:mod:`repro.storage.journal`), the snapshot writer
(:mod:`repro.storage.persist`) and the server and client
(:mod:`repro.service`), and lets a test arm them with a
:class:`FaultPlan`:

>>> from repro.testing.faultinject import FaultPlan, inject, fault_point
>>> plan = FaultPlan().fail("journal.fsync", at=2)
>>> with inject(plan):
...     fault_point("journal.fsync")      # first hit: passes
...     try:
...         fault_point("journal.fsync")  # second hit: injected failure
...     except OSError as exc:
...         print("injected:", exc)
injected: [faultinject] journal.fsync (hit 2)
>>> plan.hits("journal.fsync")
2

Everything is deterministic: actions trigger on exact hit counts, and
:meth:`FaultPlan.rng` derives seeded generators for schedule building,
so a failing fault scenario is a one-line repro.  With no plan injected
every fault point is a no-op — production code pays one dict lookup.

The module is deliberately **pure stdlib with no repro imports**, so
the storage layer can import it without creating a cycle through the
testing package.

Fault-point catalogue (see docs/recovery.md for the recovery semantics
at each point):

===================  ====================================================
point                where it fires
===================  ====================================================
``journal.write``    before a journal record's bytes are written; a
                     ``cut`` action writes only the first N bytes and
                     raises (a torn write / kill mid-write)
``journal.fsync``    before the journal fsyncs a record (``fail`` =
                     fsync failure: the write is never acknowledged)
``journal.checkpoint``  between the checkpoint's snapshot commit and
                     the atomic journal swap (the crash window the
                     recovery protocol must close)
``persist.fsync``    before each snapshot data file / manifest fsync
``server.send``      before the server writes a response line; a
                     ``cut`` action sends a prefix and drops the
                     connection (mid-page disconnect)
``server.work``      inside query/fetch executor work (``delay`` =
                     a slow request, for deadline tests)
``client.connect``   before the client opens its TCP connection
``clock``            no explicit point: :func:`clock` adds the plan's
                     ``jump_clock`` offset to ``time.monotonic()``
===================  ====================================================
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager

__all__ = [
    "FaultError",
    "FaultPlan",
    "clock",
    "fault_point",
    "fault_value",
    "inject",
]


class FaultError(OSError):
    """The failure an armed fault point injects.

    An ``OSError`` subclass on purpose: fsync failures, torn writes and
    dropped connections surface as ``OSError`` in real life, and the
    code under test must take its real error paths, not a special-cased
    testing one.
    """


class _Action:
    """One armed behaviour of one fault point (trigger on hit ``at``)."""

    __slots__ = ("kind", "at", "value")

    def __init__(self, kind: str, at: int, value: float | int | None = None):
        if at < 1:
            raise ValueError(f"fault actions trigger on hit counts >= 1, got {at}")
        self.kind = kind  # "fail" | "cut" | "delay"
        self.at = at
        self.value = value


class FaultPlan:
    """A deterministic schedule of injected faults, armed via :func:`inject`.

    Actions trigger on exact per-point hit counts (the first hit is
    ``at=1``); hit counters and the list of triggered actions are
    queryable afterwards, so a test can assert both that the fault fired
    and how the code recovered.
    """

    def __init__(self, *, seed: int = 0):
        self.seed = seed
        self._actions: dict[str, list[_Action]] = {}
        self._hits: dict[str, int] = {}
        self._clock_offset = 0.0
        self.triggered: list[tuple[str, int, str]] = []
        self._lock = threading.Lock()

    # -- arming ---------------------------------------------------------- #
    def fail(self, point: str, *, at: int = 1) -> "FaultPlan":
        """Raise :class:`FaultError` on the ``at``-th hit of ``point``."""
        self._actions.setdefault(point, []).append(_Action("fail", at))
        return self

    def cut(self, point: str, *, at: int = 1, byte: int = 0) -> "FaultPlan":
        """Tear the ``at``-th operation at ``byte`` (torn write / dropped
        connection): :func:`fault_value` returns ``byte`` there."""
        self._actions.setdefault(point, []).append(_Action("cut", at, byte))
        return self

    def delay(self, point: str, *, at: int = 1, seconds: float = 0.1) -> "FaultPlan":
        """Sleep ``seconds`` on the ``at``-th hit (slow request / stall)."""
        self._actions.setdefault(point, []).append(_Action("delay", at, seconds))
        return self

    def jump_clock(self, seconds: float) -> "FaultPlan":
        """Shift :func:`clock` by ``seconds`` (TTL expiry without sleeping)."""
        self._clock_offset += seconds
        return self

    # -- deterministic helpers ------------------------------------------- #
    def rng(self, label: str = "") -> random.Random:
        """A seeded generator derived from the plan seed and ``label``."""
        return random.Random(f"faultinject/{self.seed}/{label}")

    def hits(self, point: str) -> int:
        """How many times ``point`` has fired under this plan."""
        with self._lock:
            return self._hits.get(point, 0)

    # -- the hot path ----------------------------------------------------- #
    def _hit(self, point: str) -> _Action | None:
        with self._lock:
            count = self._hits.get(point, 0) + 1
            self._hits[point] = count
            for action in self._actions.get(point, ()):
                if action.at == count:
                    self.triggered.append((point, count, action.kind))
                    return action
        return None


#: The process-global armed plan (fault points are hit from executor and
#: server threads, so thread-locals would miss them by design).
_ACTIVE: FaultPlan | None = None
_ACTIVE_LOCK = threading.Lock()


@contextmanager
def inject(plan: FaultPlan):
    """Arm ``plan`` for the duration of the ``with`` block (not nestable)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError("a fault plan is already injected (no nesting)")
        _ACTIVE = plan
    try:
        yield plan
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = None


def fault_point(point: str) -> None:
    """Production-side hook: no-op unless an armed action matches.

    A ``fail`` action raises :class:`FaultError`; a ``delay`` action
    sleeps.  (``cut`` actions are served by :func:`fault_value`.)
    """
    plan = _ACTIVE
    if plan is None:
        return
    action = plan._hit(point)
    if action is None or action.kind == "cut":
        return
    if action.kind == "delay":
        time.sleep(action.value or 0.0)
        return
    raise FaultError(f"[faultinject] {point} (hit {action.at})")


def fault_value(point: str) -> int | None:
    """Production-side hook for ``cut`` actions: the byte offset, or ``None``.

    The caller decides what a cut means (write a prefix then raise;
    send a prefix then close the socket); non-``cut`` actions at the
    same point behave as in :func:`fault_point`.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    action = plan._hit(point)
    if action is None:
        return None
    if action.kind == "cut":
        return int(action.value or 0)
    if action.kind == "delay":
        time.sleep(action.value or 0.0)
        return None
    raise FaultError(f"[faultinject] {point} (hit {action.at})")


def clock() -> float:
    """``time.monotonic()`` plus the armed plan's clock jump.

    Wire this as the ``clock`` of a
    :class:`~repro.service.cursors.CursorTable` (or anything else that
    takes an injectable clock) to test TTL behaviour under clock jumps
    without sleeping.
    """
    base = time.monotonic()
    plan = _ACTIVE
    return base + plan._clock_offset if plan is not None else base
