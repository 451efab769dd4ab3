"""Answer and statistics containers shared by all enumerators."""

from __future__ import annotations

from typing import Any

__all__ = ["RankedAnswer", "EnumerationStats"]


class RankedAnswer:
    """One enumerated result.

    Attributes
    ----------
    values:
        The output tuple, aligned with the query head order.
    score:
        The user-facing rank value (a float for SUM-style rankings, the
        comparison tuple for LEX).
    key:
        The raw comparable rank key, used by merge-based enumerators
        (star tradeoff, unions) to interleave streams; compares ascending
        regardless of the user-facing direction.  ``None`` when a
        producer does not expose one.
    """

    __slots__ = ("values", "score", "key")

    def __init__(self, values: tuple, score: Any = None, key: Any = None):
        self.values = values
        self.score = score
        self.key = key

    def __iter__(self):
        return iter((self.values, self.score))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RankedAnswer):
            return self.values == other.values and self.score == other.score
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.values, self.score))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankedAnswer({self.values}, score={self.score})"


class EnumerationStats:
    """Instrumentation collected by an enumerator run.

    ``pq_ops_per_answer`` records, for every emitted answer, how many
    priority-queue operations happened since the previous answer — the
    paper's empirical-delay proxy (Figure 14a).  ``cells_created`` and
    ``peak_pq_entries`` proxy the data-structure memory footprint that
    the paper reports against the engines' multi-GB materialisations.
    ``cells_created`` counts the cell objects actually created: the
    array queue build queues every reduced row (each a push and a live
    entry) but creates a row's cell only when it reaches the top of its
    group, so it is not the number of rows plus successors; successors
    are counted when inserted (not when the dedup set rejects them).

    ``reducer_passes`` counts the full-reducer passes the lexicographic
    backtracker runs during enumeration: one per value it fixes at an
    attribute before the last.  The last attribute takes none — its
    candidates are emitted straight from the reduced instance.

    ``preprocess_seconds`` splits into ``reduce_seconds`` (reducer pass
    + pruning/dangling removal) and ``build_seconds`` (queue/index
    construction, scoring included — an index the lexicographic
    backtracker builds on first use counts here even when enumeration
    triggers it); ``enumerate_seconds`` accumulates time spent emitting
    answers (``top_k``/``all``) — the per-phase breakdown
    ``repro --stats`` prints.
    """

    __slots__ = (
        "answers",
        "cells_created",
        "reducer_passes",
        "pq_ops_per_answer",
        "preprocess_seconds",
        "reduce_seconds",
        "build_seconds",
        "enumerate_seconds",
        "heap_stats",
    )

    def __init__(self, heap_stats=None):
        self.answers = 0
        self.cells_created = 0
        self.reducer_passes = 0
        self.pq_ops_per_answer: list[int] = []
        self.preprocess_seconds = 0.0
        self.reduce_seconds = 0.0
        self.build_seconds = 0.0
        self.enumerate_seconds = 0.0
        self.heap_stats = heap_stats

    @property
    def peak_pq_entries(self) -> int:
        """High-water mark of live priority-queue entries."""
        return self.heap_stats.peak_entries if self.heap_stats is not None else 0

    @property
    def total_pq_operations(self) -> int:
        """All pushes + pops across the run."""
        return self.heap_stats.operations if self.heap_stats is not None else 0

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view for reports."""
        return {
            "answers": self.answers,
            "cells_created": self.cells_created,
            "reducer_passes": self.reducer_passes,
            "peak_pq_entries": self.peak_pq_entries,
            "total_pq_operations": self.total_pq_operations,
            "preprocess_seconds": self.preprocess_seconds,
            "reduce_seconds": self.reduce_seconds,
            "build_seconds": self.build_seconds,
            "enumerate_seconds": self.enumerate_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EnumerationStats({self.snapshot()})"
