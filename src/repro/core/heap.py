"""Counting priority queues.

The paper assumes a priority queue with O(1) insert / O(1) top /
O(log n) pop (a Fibonacci heap).  We use :mod:`heapq` binary heaps —
O(log n) insert, same pop bound — which is also what the paper's C++
artifact uses in practice; only constant factors differ.

Every heap shares a :class:`HeapStats` object with its enumerator so the
experiments can report priority-queue operation counts per answer
(paper Figure 14a) and live-entry space proxies (Figure 7's "extra
space").
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Generic, Iterable, TypeVar

__all__ = ["HeapStats", "RankHeap"]

T = TypeVar("T")


class HeapStats:
    """Shared operation counters across all priority queues of one run.

    Attributes
    ----------
    pushes / pops:
        Total number of insert / pop-min operations.
    live_entries:
        Entries currently stored across all heaps sharing these stats.
    peak_entries:
        High-water mark of ``live_entries`` (the paper's space proxy).
    """

    __slots__ = ("pushes", "pops", "live_entries", "peak_entries")

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0
        self.live_entries = 0
        self.peak_entries = 0

    @property
    def operations(self) -> int:
        """Total priority-queue operations (pushes + pops)."""
        return self.pushes + self.pops

    def snapshot(self) -> dict[str, int]:
        """Plain-dict view for reports."""
        return {
            "pushes": self.pushes,
            "pops": self.pops,
            "live_entries": self.live_entries,
            "peak_entries": self.peak_entries,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HeapStats(pushes={self.pushes}, pops={self.pops}, peak={self.peak_entries})"


_seq = count()  # global monotone sequence: total order among exact key ties


class RankHeap(Generic[T]):
    """A min-heap of items ordered by caller-provided sort keys.

    Keys must be totally ordered among the items of one heap; the
    enumerators use ``(rank key, partial output)`` which matches the
    paper's deterministic tie-breaking.  A monotone sequence number
    breaks residual exact ties without comparing items.

    ``seen`` is free for the owner's bookkeeping about this queue: the
    acyclic enumerator keeps its duplicate-insert set there, created
    on the queue's first ``Topdown``.
    """

    __slots__ = ("_entries", "stats", "seen")

    def __init__(self, stats: HeapStats | None = None):
        self._entries: list[tuple[Any, int, T]] = []
        self.stats = stats if stats is not None else HeapStats()
        self.seen: Any = None

    def push(self, sort_key: Any, item: T) -> None:
        """Insert ``item`` with priority ``sort_key``."""
        heapq.heappush(self._entries, (sort_key, next(_seq), item))
        st = self.stats
        st.pushes += 1
        st.live_entries += 1
        if st.live_entries > st.peak_entries:
            st.peak_entries = st.live_entries

    def push_many(self, entries: Iterable[tuple[Any, T]]) -> None:
        """Insert ``(sort_key, item)`` pairs in one heapify pass.

        O(n) against the push loop's O(n log n) — the win the initial
        queue builds want, where every entry arrives before the first
        pop.  The pop sequence is identical to pushing one at a time:
        entries are totally ordered by ``(sort_key, seq)``, so a heap's
        pop order is their sorted order however the heap was built, and
        sequence numbers are drawn here in iteration order exactly as
        the loop would draw them.
        """
        added = [(sort_key, next(_seq), item) for sort_key, item in entries]
        if not added:
            return
        if self._entries:
            for entry in added:
                heapq.heappush(self._entries, entry)
        else:
            self._entries = added
            heapq.heapify(self._entries)
        st = self.stats
        st.pushes += len(added)
        st.live_entries += len(added)
        if st.live_entries > st.peak_entries:
            st.peak_entries = st.live_entries

    def top(self) -> T:
        """The minimum item (raises IndexError when empty)."""
        return self._entries[0][2]

    def top_key(self) -> Any:
        """The minimum sort key (raises IndexError when empty)."""
        return self._entries[0][0]

    def pop(self) -> T:
        """Remove and return the minimum item."""
        entry = heapq.heappop(self._entries)
        self.stats.pops += 1
        self.stats.live_entries -= 1
        return entry[2]

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def items(self) -> Iterable[T]:
        """All stored items in heap (not sorted) order — for inspection."""
        return [entry[2] for entry in self._entries]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankHeap(n={len(self._entries)})"
