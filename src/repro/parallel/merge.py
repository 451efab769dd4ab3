"""Order-preserving k-way merge of ranked answer streams.

Every enumerator in :mod:`repro.core` emits its answers sorted by the
pair ``(rank key, output tuple)`` — the same comparator its internal
priority queues use — and rank keys are pure functions of the output
values (weights are per-attribute value weights).  Two consequences
carry the whole parallel design:

1. a heap merge of per-shard streams keyed on ``(key, values)``
   reproduces the *global* serial order exactly, ties included;
2. duplicate outputs (one answer derivable in several shards when the
   partition variable is projected away) have *equal* keys, so they
   surface adjacently in the merged stream and a one-answer memory
   de-duplicates them — the same argument
   :class:`~repro.core.ucq.UnionRankedEnumerator` uses across union
   branches.

The merge runs on the existing :class:`~repro.core.heap.RankHeap`, so
priority-queue operation counts stay observable through
:class:`~repro.core.heap.HeapStats` like everywhere else.

Examples
--------
>>> from repro.core.answers import RankedAnswer
>>> evens = [RankedAnswer((v,), v, key=v) for v in (0, 2, 4)]
>>> odds = [RankedAnswer((v,), v, key=v) for v in (1, 3)]
>>> [a.values for a in merge_ranked_streams([iter(evens), iter(odds)])]
[(0,), (1,), (2,), (3,), (4,)]
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from ..core.answers import RankedAnswer
from ..core.heap import HeapStats, RankHeap
from ..errors import ReproError

__all__ = ["merge_ranked_streams"]

_NOTHING = object()


def _merge_key(answer: RankedAnswer) -> Any:
    if answer.key is None:
        raise ReproError(
            "cannot merge a ranked stream whose answers carry no rank key; "
            "every repro enumerator sets RankedAnswer.key"
        )
    return answer.key


def merge_ranked_streams(
    streams: Iterable[Iterator[RankedAnswer]],
    *,
    dedup: bool = True,
    heap_stats: HeapStats | None = None,
) -> Iterator[RankedAnswer]:
    """Merge ranked streams into one globally ranked stream.

    Parameters
    ----------
    streams:
        Iterators of :class:`RankedAnswer`, each individually sorted by
        ``(key, values)`` ascending — which every
        :class:`~repro.core.base.RankedEnumeratorBase` subclass
        guarantees.  Keys must be mutually comparable, i.e. produced by
        the same bound ranking (true for shards of one query).
    dedup:
        Suppress adjacent equal outputs (cross-shard duplicates).  Keep
        the default unless streams are known disjoint.
    heap_stats:
        Optional shared :class:`HeapStats` to count merge heap
        operations alongside the enumerators' own.

    The merge is lazy: answers are pulled from shard streams only as
    the consumer advances, so ``top_k``-style consumption reads at most
    ``k + shards`` answers per shard.
    """
    heap: RankHeap[tuple[RankedAnswer, Iterator[RankedAnswer]]] = RankHeap(heap_stats)
    for stream in streams:
        stream = iter(stream)
        first = next(stream, None)
        if first is not None:
            heap.push(_merge_key(first), first.values, (first, stream))

    last_values = _NOTHING
    while heap:
        answer, stream = heap.pop()
        nxt = next(stream, None)
        if nxt is not None:
            heap.push(_merge_key(nxt), nxt.values, (nxt, stream))
        if dedup and answer.values == last_values:
            continue
        last_values = answer.values
        yield answer
