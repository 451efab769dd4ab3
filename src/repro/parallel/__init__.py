"""Parallel execution subsystem: sharded ranked enumeration.

Splits a query's data into hash shards (:mod:`repro.data.partition`),
enumerates every shard independently in its own worker process
(:mod:`repro.parallel.backends`; the in-process ``serial`` backend is
the test reference), and recombines the ranked shard streams with an
order-preserving k-way merge (:mod:`repro.parallel.merge`) so results
are identical to serial :func:`repro.enumerate_ranked`.

Most callers should go through the session layer —
:meth:`repro.engine.QueryEngine.execute_parallel` and
:meth:`repro.engine.QueryEngine.execute_many` — which add plan caching
and observability on top of the raw fan-out here.
"""

from .backends import (
    BACKENDS,
    DEFAULT_CHUNK_SIZE,
    ShardJob,
    ShardStreams,
    open_shard_streams,
    run_many,
)
from .executor import execute_sharded, stream_sharded
from .merge import merge_ranked_streams

__all__ = [
    "BACKENDS",
    "DEFAULT_CHUNK_SIZE",
    "ShardJob",
    "ShardStreams",
    "open_shard_streams",
    "run_many",
    "execute_sharded",
    "stream_sharded",
    "merge_ranked_streams",
]
