"""Shard execution backends: serial and processes.

A *shard job* bundles everything one worker needs to enumerate its
shard: the (rewritten) query, the shard database, the ranking and the
planner knobs.  Backends turn a list of jobs into a list of ranked
per-shard streams that :func:`repro.parallel.merge.merge_ranked_streams`
recombines:

``processes``
    A :class:`~concurrent.futures.ProcessPoolExecutor` with one worker
    per shard; each worker streams chunks of plain ``(values, score,
    key)`` triples through its own bounded manager queue and the parent
    rebuilds :class:`~repro.core.answers.RankedAnswer` objects as it
    merges.  The production backend: the only one that uses more than
    one core, and the one the CLI and the service always run.
``serial``
    Enumerate in-process, lazily — no concurrency, no copies.  Kept as
    the in-process reference for tests and doctests: bit-identical to
    ``processes`` and the easiest to debug or profile.

Chunked streaming keeps the pipeline incremental in both directions:
the parent can emit the first merged answers while shards are still
enumerating, and the bounded per-shard queues apply backpressure — the
parent holds at most one in-flight chunk per stream, a worker at most
a fixed number of queued chunks, so no side ever buffers an unbounded
output.  ``limit`` caps each worker at the global ``k`` — a shard
never needs to produce more than ``k`` answers for a correct global
top-``k``, because a shard stream is a subsequence of the global
order.

Payloads for the process backend must be picklable (true for the whole
query/data model and every shipped ranking; a ``CallableWeight``
wrapping a lambda is the known exception — use ``serial`` or a named
function there).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from typing import Any, Iterator, Sequence

from ..core.answers import RankedAnswer
from ..core.ranking import RankingFunction
from ..data.database import Database
from ..errors import ReproError
from ..query.query import JoinProjectQuery, UnionQuery
from ..testing.faultinject import fault_point

__all__ = ["BACKENDS", "ShardJob", "ShardStreams", "open_shard_streams", "run_many"]

BACKENDS = ("serial", "processes")

#: Answers per message on the chunk protocol.  Large enough to amortise
#: queue/pickle overhead, small enough to keep the pipeline incremental.
DEFAULT_CHUNK_SIZE = 512

_QUEUE_DEPTH_PER_SHARD = 8  # backpressure bound, in chunks


class ShardJob:
    """One worker's unit of work: enumerate one shard of one query.

    ``plan`` carries the data-independent :class:`~repro.core.planner.
    QueryPlan` of the (rewritten) query, built **once** by the caller —
    workers only instantiate it against their shard database, so a
    ``k``-shard execution plans once, not ``k`` times.  Without a plan
    the job falls back to per-worker planning (still correct; used by
    tests driving the backends directly).
    """

    __slots__ = (
        "query",
        "db",
        "ranking",
        "method",
        "epsilon",
        "delta",
        "kwargs",
        "limit",
        "plan",
        "snapshot_ref",
    )

    def __init__(
        self,
        query: JoinProjectQuery | UnionQuery,
        db: Database,
        ranking: RankingFunction | None = None,
        *,
        method: str = "auto",
        epsilon: float | None = None,
        delta: int | None = None,
        kwargs: dict[str, Any] | None = None,
        limit: int | None = None,
        plan=None,
        snapshot_ref=None,
    ):
        self.query = query
        self.db = db
        self.ranking = ranking
        self.method = method
        self.epsilon = epsilon
        self.delta = delta
        self.kwargs = dict(kwargs or {})
        self.limit = limit
        self.plan = plan
        self.snapshot_ref = snapshot_ref

    def __getstate__(self) -> dict:
        state = {name: getattr(self, name) for name in self.__slots__}
        if self.snapshot_ref is not None:
            # The shard database is derivable from the on-disk snapshot:
            # ship the tiny SnapshotShardRef instead and let the worker
            # memory-map the same files rather than unpickle every row.
            state["db"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.db is None:
            return f"ShardJob({self.query.name!r}, snapshot shard, limit={self.limit})"
        return f"ShardJob({self.query.name!r}, |D_s|={self.db.size}, limit={self.limit})"


def _enumerate_shard(job: ShardJob) -> Iterator[RankedAnswer]:
    """Run one shard in the current process (all backends)."""
    fault_point("parallel.worker")
    if job.db is None and job.snapshot_ref is not None:
        # Snapshot-shipped job: rebuild the shard database by mapping
        # the snapshot files (zero-copy, shared pages across workers).
        job.db = job.snapshot_ref.build_database()
    if job.plan is not None:
        enum = job.plan.instantiate(job.db)
    else:
        from ..core.planner import create_enumerator

        enum = create_enumerator(
            job.query,
            job.db,
            job.ranking,
            method=job.method,
            epsilon=job.epsilon,
            delta=job.delta,
            **job.kwargs,
        )
    stream: Iterator[RankedAnswer] = iter(enum)
    if job.limit is not None:
        stream = islice(stream, job.limit)
    return stream


class ShardStreams:
    """Per-shard ranked streams plus the resources backing them.

    Use as a context manager (or call :meth:`close`) so worker pools
    and manager processes are torn down even when the consumer stops
    early.
    """

    def __init__(self, streams: list[Iterator[RankedAnswer]], close=None):
        self.streams = streams
        self._close = close

    def close(self) -> None:
        if self._close is not None:
            close, self._close = self._close, None
            close()

    def __enter__(self) -> "ShardStreams":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------- #
# processes backend
# --------------------------------------------------------------------- #
def _process_producer(job: ShardJob, out) -> None:
    """Worker body: stream ``(values, score, key)`` chunks to the parent."""
    chunk: list[tuple] = []
    try:
        for answer in _enumerate_shard(job):
            chunk.append((answer.values, answer.score, answer.key))
            if len(chunk) >= DEFAULT_CHUNK_SIZE:
                out.put(("chunk", chunk))
                chunk = []
        if chunk:
            out.put(("chunk", chunk))
        out.put(("done", None))
    except BaseException as exc:
        try:
            out.put(("error", exc))
        except Exception:  # the exception itself does not pickle
            out.put(("error", ReproError(f"shard worker failed: {exc!r}")))


def _drain_process_queue(out) -> Iterator[RankedAnswer]:
    while True:
        kind, payload = out.get()
        if kind == "chunk":
            for values, score, key in payload:
                yield RankedAnswer(values, score, key=key)
        elif kind == "done":
            return
        else:
            raise payload


def _open_processes(jobs: Sequence[ShardJob]) -> ShardStreams:
    import multiprocessing as mp

    # One worker process and one bounded queue *per shard*.  The merge
    # needs the head of every stream before it can emit anything, so a
    # pool smaller than the shard count would deadlock (an unscheduled
    # shard's queue never fills while a scheduled one blocks on put);
    # per-shard queues are what makes the backpressure bound real — the
    # parent holds at most one in-flight chunk per stream and each
    # worker at most _QUEUE_DEPTH_PER_SHARD chunks.  Oversharding past
    # the core count is therefore safe, just not faster.
    manager = mp.Manager()
    queues = [manager.Queue(maxsize=_QUEUE_DEPTH_PER_SHARD) for _ in jobs]
    executor = ProcessPoolExecutor(max_workers=len(jobs))
    futures = [
        executor.submit(_process_producer, job, out)
        for job, out in zip(jobs, queues)
    ]

    def close() -> None:
        for future in futures:
            future.cancel()
        executor.shutdown(wait=False, cancel_futures=True)
        try:
            manager.shutdown()
        except Exception:  # pragma: no cover - teardown best effort
            pass

    return ShardStreams(
        [_drain_process_queue(out) for out in queues], close=close
    )


def open_shard_streams(
    jobs: Sequence[ShardJob],
    *,
    backend: str = "processes",
) -> ShardStreams:
    """Launch ``jobs`` on the chosen backend and return their streams.

    The returned :class:`ShardStreams` owns the worker resources; close
    it (or use ``with``) once the merged stream is consumed.
    """
    if backend not in BACKENDS:
        raise ReproError(f"unknown parallel backend {backend!r}; choose one of {BACKENDS}")
    if not jobs:
        return ShardStreams([])
    if backend == "serial" or len(jobs) == 1:
        return ShardStreams([_enumerate_shard(job) for job in jobs])
    return _open_processes(jobs)


# --------------------------------------------------------------------- #
# batch execution (independent queries across the pool)
# --------------------------------------------------------------------- #
_BATCH_ENGINE = None


def _init_batch_worker(db: Database) -> None:
    """Pool initializer: one session engine per worker process.

    The database is pickled once per worker (not once per query) and
    the worker-local :class:`~repro.engine.QueryEngine` gives repeated
    queries within a batch the same prepared-plan cache hits they would
    get in a serial session.
    """
    global _BATCH_ENGINE
    from ..engine import QueryEngine

    _BATCH_ENGINE = QueryEngine(db)


def _run_batch_query(item: tuple) -> list[tuple]:
    query, ranking, k, method, epsilon, delta = item
    answers = _BATCH_ENGINE.execute(
        query, ranking, k=k, method=method, epsilon=epsilon, delta=delta
    )
    return [(a.values, a.score, a.key) for a in answers]


def run_many(
    db: Database,
    items: Sequence[tuple],
    *,
    max_workers: int | None = None,
) -> list[list[RankedAnswer]]:
    """Execute independent ``(query, ranking, k, method, epsilon, delta)``
    requests across a process pool; results come back in input order.
    """
    if not items:
        return []
    workers = max_workers or min(len(items), os.cpu_count() or 1)
    with ProcessPoolExecutor(
        max_workers=max(1, workers),
        initializer=_init_batch_worker,
        initargs=(db,),
    ) as executor:
        raw = list(executor.map(_run_batch_query, items))
    return [
        [RankedAnswer(values, score, key=key) for values, score, key in rows]
        for rows in raw
    ]
