"""Sharded ranked enumeration: partition, fan out, merge.

This is the orchestration layer the session engine and the CLI call
into.  One parallel execution is::

    partition_query()  ->  one ShardJob per shard  ->  backend fan-out
                       ->  merge_ranked_streams()  ->  ranked answers

The result is *semantically identical* to serial
:func:`repro.enumerate_ranked` — same answers, same scores, same order,
ties included — because shard streams are slices of the global ranked
order and the merge is order-preserving and de-duplicating (see
:mod:`repro.parallel.merge` for the argument).

Examples
--------
>>> from repro.data import Database
>>> from repro.query import parse_query
>>> from repro.core.planner import enumerate_ranked
>>> db = Database()
>>> _ = db.add_relation("R", ("a", "p"), [(1, 10), (2, 10), (3, 99), (4, 99)])
>>> q = parse_query("Q(a1, a2) :- R(a1, p), R(a2, p)")
>>> serial = [(a.values, a.score) for a in enumerate_ranked(q, db)]
>>> parallel = [
...     (a.values, a.score)
...     for a in execute_sharded(q, db, shards=3, backend="serial")
... ]
>>> parallel == serial
True
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator

from ..core.answers import RankedAnswer
from ..core.planner import plan_query
from ..core.ranking import RankingFunction
from ..data.database import Database
from ..data.partition import QueryPartition, partition_query
from ..query.query import JoinProjectQuery, UnionQuery
from .backends import ShardJob, open_shard_streams
from .merge import merge_ranked_streams

__all__ = ["stream_sharded", "execute_sharded"]


def _shard_jobs(
    partition: QueryPartition,
    ranking: RankingFunction | None,
    *,
    method: str,
    epsilon: float | None,
    delta: int | None,
    limit: int | None,
    kwargs: dict[str, Any],
    plan=None,
) -> list[ShardJob]:
    # The rewritten query is shard-independent, so its plan is too:
    # classify / build the join tree or GHD exactly once and let every
    # worker just instantiate it against its shard database.  The
    # engine's parallel plan cache passes a ready plan in; one-shot
    # callers plan here, once per execution.
    if plan is None:
        plan = plan_query(
            partition.query,
            ranking,
            method=method,
            epsilon=epsilon,
            delta=delta,
            **kwargs,
        )
    return [
        ShardJob(
            partition.query,
            shard_db,
            ranking,
            method=method,
            epsilon=epsilon,
            delta=delta,
            kwargs=kwargs,
            limit=limit,
            plan=plan,
        )
        for shard_db in partition.databases
    ]


def stream_sharded(
    query: JoinProjectQuery | UnionQuery,
    db: Database,
    ranking: RankingFunction | None = None,
    *,
    shards: int,
    backend: str = "processes",
    k: int | None = None,
    attribute: str | None = None,
    method: str = "auto",
    epsilon: float | None = None,
    delta: int | None = None,
    partition: QueryPartition | None = None,
    plan=None,
    **kwargs: Any,
) -> Iterator[RankedAnswer]:
    """Lazily enumerate ``query`` over ``shards`` hash shards.

    Same contract as iterating a serial enumerator: answers arrive in
    global rank order, without duplicates, capped at ``k`` when given.
    ``partition`` short-circuits re-partitioning when the caller (the
    engine's partition cache, the benchmarks) already holds one for
    this query/database/shard-count combination; ``plan`` likewise
    short-circuits planning with a prepared plan of the *rewritten*
    query (:func:`repro.data.partition.rewrite_for_sharding`).

    Worker resources are released when the generator is exhausted or
    closed, so ``islice``-style partial consumption is safe.
    """
    if partition is None:
        partition = partition_query(query, db, shards, attribute=attribute)
    jobs = _shard_jobs(
        partition,
        ranking,
        method=method,
        epsilon=epsilon,
        delta=delta,
        limit=k,
        kwargs=kwargs,
        plan=plan,
    )
    from ..storage.persist import snapshot_shard_refs

    refs = snapshot_shard_refs(db, partition)
    if refs is not None:
        # Every shard database derives from one on-disk snapshot: tag
        # each job with a by-reference shard spec so the process backend
        # ships (snapshot_path, shard_spec) and workers memory-map the
        # same files instead of unpickling shard rows.  The serial
        # backend ignores the tag (``db`` stays attached in-process).
        for job, ref in zip(jobs, refs):
            job.snapshot_ref = ref
    streams = open_shard_streams(jobs, backend=backend)

    def generate() -> Iterator[RankedAnswer]:
        with streams:
            merged = merge_ranked_streams(streams.streams)
            if k is not None:
                merged = islice(merged, k)
            yield from merged

    return generate()


def execute_sharded(
    query: JoinProjectQuery | UnionQuery,
    db: Database,
    ranking: RankingFunction | None = None,
    *,
    shards: int,
    backend: str = "processes",
    k: int | None = None,
    **options: Any,
) -> list[RankedAnswer]:
    """Sharded ``SELECT DISTINCT .. ORDER BY .. LIMIT k`` (eager).

    The list form of :func:`stream_sharded`; see there for options.
    """
    return list(
        stream_sharded(
            query, db, ranking, shards=shards, backend=backend, k=k, **options
        )
    )
