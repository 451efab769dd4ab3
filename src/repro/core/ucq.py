"""Ranked enumeration for unions of join-project queries (paper §5,
Theorem 4).

A UCQ ``Q = Q_1 ∪ ... ∪ Q_m`` over a shared head is enumerated by
running one ranked enumerator per branch and merging the streams through
a single priority queue keyed on ``(rank key, output tuple)``.  Because
the same output can be produced by several branches, equal tuples are
adjacent in the merge order (keys are functions of the tuple), so a
one-answer memory de-duplicates the union exactly — the idea the paper
attributes to [26, 65].

Branch enumerators are created by the planner (acyclic branches get
Theorem 1's ``LinDelay``, cyclic branches the GHD wrapper), so the delay
follows the worst branch: ``O(|D|^{fhw} log |D|)`` in general and
``O(|D| log |D|)`` for unions of acyclic queries.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..data.database import Database
from ..errors import QueryError
from ..query.query import JoinProjectQuery, UnionQuery
from .answers import EnumerationStats, RankedAnswer
from .base import RankedEnumeratorBase
from .heap import HeapStats, RankHeap
from .ranking import RankingFunction, SumRanking

__all__ = ["UnionRankedEnumerator"]

BranchFactory = Callable[..., RankedEnumeratorBase]


def _default_branch_factory(
    query: JoinProjectQuery, db: Database, ranking: RankingFunction, **data: Any
) -> RankedEnumeratorBase:
    """Dispatch each branch through the planner (lazy import: the planner
    itself builds union enumerators); ``data`` goes to the branch's
    enumerator."""
    from .planner import create_enumerator

    return create_enumerator(query, db, ranking, **data)


class UnionRankedEnumerator(RankedEnumeratorBase):
    """Theorem 4: ranked union with cross-branch deduplication.

    Parameters
    ----------
    union:
        The UCQ (branches validated to share the head).
    db:
        The database instance.
    ranking:
        Any decomposable ranking; applied identically to every branch so
        keys are comparable across streams.
    branch_factory:
        Override how branch enumerators are constructed (tests use this
        to force specific algorithms).
    branch_data:
        Optional pre-built data per branch, in branch order: keyword
        arguments for the branch factory (for the default one, what the
        branch's enumerator accepts — ``instances``/``already_reduced``
        for an acyclic branch, ``bags`` for a cyclic one).  The engine
        passes each branch's shared data state this way.

    ``stats`` counts the union's answers and rolls the branches' work
    up with the merge heap's: cells created, reduce and build seconds,
    and heap pushes and pops (``peak_pq_entries`` is the sum of the
    parts' peaks, since every branch's queues live for the whole
    stream), so ``pq_ops_per_answer`` includes the branch work done
    between two answers.

    Examples
    --------
    >>> from repro.data import Database
    >>> from repro.query import parse_query
    >>> db = Database()
    >>> _ = db.add_relation("R", ("a", "b"), [(1, 5)])
    >>> _ = db.add_relation("S", ("a", "b"), [(1, 6), (0, 7)])
    >>> u = parse_query("Q(x) :- R(x, y) ; Q(x) :- S(x, y)")
    >>> [a.values for a in UnionRankedEnumerator(u, db)]
    [(0,), (1,)]
    """

    def __init__(
        self,
        union: UnionQuery,
        db: Database,
        ranking: RankingFunction | None = None,
        *,
        branch_factory: BranchFactory | None = None,
        branch_data: Sequence[Mapping[str, Any]] | None = None,
    ):
        if not isinstance(union, UnionQuery):
            raise QueryError("UnionRankedEnumerator needs a UnionQuery")
        self.union = union
        self.db = db
        self.ranking = ranking or SumRanking()
        self._branch_factory = branch_factory or _default_branch_factory
        self._branch_data = branch_data
        self._merge_stats = HeapStats()  # the merge heap alone
        self.heap_stats = HeapStats()  # merge heap + branches, see _roll_up
        self.stats = EnumerationStats(self.heap_stats)
        self._branches: list[RankedEnumeratorBase] | None = None
        self._exhausted = False

    def preprocess(self) -> "UnionRankedEnumerator":
        """Preprocess every branch enumerator."""
        if self._branches is not None:
            return self
        started = time.perf_counter()
        branches = self.union.branches
        data = self._branch_data or [{}] * len(branches)
        self._branches = [
            self._branch_factory(branch, self.db, self.ranking, **extra).preprocess()
            for branch, extra in zip(branches, data)
        ]
        self.stats.reduce_seconds = sum(b.stats.reduce_seconds for b in self._branches)
        self.stats.build_seconds = sum(b.stats.build_seconds for b in self._branches)
        self._roll_up()
        self.stats.preprocess_seconds = time.perf_counter() - started
        return self

    def _roll_up(self) -> None:
        """Sum the merge heap's and the branches' counts into ``stats``."""
        branch_stats = [b.stats for b in self._branches]
        parts = [self._merge_stats] + [
            s.heap_stats for s in branch_stats if s.heap_stats is not None
        ]
        heap = self.heap_stats
        heap.pushes = sum(p.pushes for p in parts)
        heap.pops = sum(p.pops for p in parts)
        heap.live_entries = sum(p.live_entries for p in parts)
        heap.peak_entries = sum(p.peak_entries for p in parts)
        self.stats.cells_created = sum(s.cells_created for s in branch_stats)

    def __iter__(self) -> Iterator[RankedAnswer]:
        self.preprocess()
        if self._exhausted:
            raise QueryError(
                "enumerator already consumed; call fresh() to enumerate again"
            )
        self._exhausted = True
        assert self._branches is not None

        ops_mark = self.heap_stats.operations  # rolled up by preprocess()
        merge: RankHeap[tuple[RankedAnswer, int]] = RankHeap(self._merge_stats)
        streams = [iter(branch) for branch in self._branches]
        for idx, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                if first.key is None:  # pragma: no cover - defensive
                    raise QueryError("branch enumerator does not expose rank keys")
                merge.push(first.key, first.values, (first, idx))

        last_values: tuple | None = None
        while merge:
            answer, idx = merge.pop()
            if answer.values != last_values:
                last_values = answer.values
                self.stats.answers += 1
                self._roll_up()
                ops_now = self.heap_stats.operations
                self.stats.pq_ops_per_answer.append(ops_now - ops_mark)
                ops_mark = ops_now
                yield answer
            nxt = next(streams[idx], None)
            if nxt is not None:
                merge.push(nxt.key, nxt.values, (nxt, idx))
        self._roll_up()

    def fresh(self) -> "UnionRankedEnumerator":
        """A new enumerator with identical configuration."""
        return UnionRankedEnumerator(
            self.union,
            self.db,
            self.ranking,
            branch_factory=self._branch_factory,
            branch_data=self._branch_data,
        )
