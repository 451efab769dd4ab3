"""Engine observability: cache counters and per-query timings.

Every :class:`~repro.engine.engine.QueryEngine` owns one
:class:`EngineStats`; the CLI's ``--stats`` flag and the benchmark
harness read :meth:`EngineStats.snapshot`.
"""

from __future__ import annotations

__all__ = ["EngineStats", "QueryTiming", "RequestCounters"]


class RequestCounters:
    """One request's share of the storage-layer work, exactly attributed.

    Filled in by :meth:`repro.engine.QueryEngine.measure` — the public
    per-request scope the service layer wraps around every query /
    cursor-page execution.  The counters ride the thread-scoped tally
    contexts of :mod:`repro.storage.kernels` / :mod:`repro.storage.scores`
    (the PR-5 machinery), so two requests running concurrently on one
    engine each see exactly their own ``kernel_calls`` / ``score_builds``
    — never each other's.  ``batched_combines`` attributes the
    vectorised-enumeration layer (:mod:`repro.core.ranking` counters)
    the same way.  ``bulk_topk_calls`` / ``bulk_topk_fallbacks`` are
    retired and always 0 (see :class:`EngineStats`).
    """

    __slots__ = (
        "seconds",
        "kernel_calls",
        "kernel_fallbacks",
        "score_builds",
        "score_fallbacks",
        "batched_combines",
        "bulk_topk_calls",
        "bulk_topk_fallbacks",
    )

    def __init__(self):
        self.seconds = 0.0
        self.kernel_calls = 0
        self.kernel_fallbacks = 0
        self.score_builds = 0
        self.score_fallbacks = 0
        self.batched_combines = 0
        self.bulk_topk_calls = 0
        self.bulk_topk_fallbacks = 0

    def snapshot(self) -> dict:
        """A plain-dict view (what the service protocol serialises)."""
        return {
            "seconds": round(self.seconds, 6),
            "kernel_calls": self.kernel_calls,
            "kernel_fallbacks": self.kernel_fallbacks,
            "score_builds": self.score_builds,
            "score_fallbacks": self.score_fallbacks,
            "batched_combines": self.batched_combines,
            "bulk_topk_calls": self.bulk_topk_calls,
            "bulk_topk_fallbacks": self.bulk_topk_fallbacks,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RequestCounters(seconds={self.seconds:.4f}, "
            f"kernel_calls={self.kernel_calls}, score_builds={self.score_builds})"
        )


class QueryTiming:
    """Aggregated execution times for one query (keyed by query name)."""

    __slots__ = ("count", "total_seconds", "last_seconds", "min_seconds", "max_seconds")

    def __init__(self):
        self.count = 0
        self.total_seconds = 0.0
        self.last_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        self.last_seconds = seconds
        self.min_seconds = min(self.min_seconds, seconds)
        self.max_seconds = max(self.max_seconds, seconds)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total_seconds": round(self.total_seconds, 6),
            "mean_seconds": round(self.mean_seconds, 6),
            "last_seconds": round(self.last_seconds, 6),
            "min_seconds": round(self.min_seconds, 6) if self.count else 0.0,
            "max_seconds": round(self.max_seconds, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryTiming(count={self.count}, total={self.total_seconds:.4f}s)"


class EngineStats:
    """Hit/miss/eviction counters plus per-query timing aggregates.

    Attributes
    ----------
    parse_hits / parse_misses:
        Parsed-query cache (query text -> query object).
    plan_hits / plan_misses:
        Prepared-plan cache (fingerprint -> :class:`PreparedPlan`).
    plan_evictions / query_evictions:
        LRU evictions per cache.
    invalidations:
        Warm state dropped because the database (object or generation)
        moved, once per plan.  Any write counts here: the query's next
        execution rebuilds its data state (the reduced instances, with
        the vectorised full reducer over the delta-maintained scan views
        and encoded image), once for all the query's plans.
    delta_applies / delta_fallbacks:
        Retired, always 0.  They counted replays of a warm reduction
        from store deltas, which the rebuild above replaced because it
        measured faster; the keys stay in :meth:`snapshot` for readers
        that index them.
    ranked_restarts:
        Streams that started from a plan's retained ranked state: an
        acyclic plan's restart at the root of its kept queues, or a
        lexicographic plan's reuse of its weight tables and first-level
        candidates
        (:meth:`~repro.engine.prepared.PreparedPlan.make_enumerator`).
    ranked_evictions:
        Retained ranked states dropped to keep the cells all plans keep
        under :data:`repro.engine.prepared.MAX_RETAINED_CELLS` (LRU over
        plans).  A state a write drops counts in ``invalidations``, not
        here.
    ranked_carryovers / ranked_groups_dropped:
        Retained ranked states carried over a write to the rebuilt
        reduction instead of dropped, and the anchor groups (with their
        cells and ``next`` chains) those carry-overs left behind because
        the write reached them
        (:meth:`~repro.engine.prepared.PreparedPlan.warm`).  A
        lexicographic state is patched, never dropped in part, so it
        adds no groups.
    data_hits / data_builds:
        Data-state lookups (:class:`repro.engine.data.DataStates`) that
        found the query's state for the current database generation,
        and those that built it: the reduction, the GHD bags or a
        union's branches, shared by every plan of the query whatever its
        ranking.  A fresh ranking of a query run before costs a hit, not
        a build; a write costs one build per query (a union's branches
        count as queries of their own).
    uncacheable:
        Prepare calls whose kwargs could not be fingerprinted (planned
        fresh, never cached).
    batch_executions:
        Queries served by :meth:`QueryEngine.execute_many`.
    encode_builds / encode_fallbacks:
        Dictionary (re)builds of the encoded database image, and
        executions that fell back to plain-row execution (unsupported
        ranking class, caller-supplied instances, or unencodable data).
    kernel_calls / kernel_fallbacks:
        Vectorised-kernel invocations (semi-join masks, grouping, bag
        joins — see :mod:`repro.storage.kernels`) made while serving
        this engine's ``execute`` calls, and the operations that fell
        back to row-at-a-time Python because the data was not exactly
        integer-representable (or a packed key overflowed).  Zero for
        both when NumPy is not installed.  Attribution is scoped and
        thread-safe: each execution collects its own tally
        (:meth:`repro.storage.kernels.KernelCounters.collect`) on the
        thread that runs it, and concurrent engines never observe each
        other's increments.  The work of an enumerator from
        :meth:`QueryEngine.stream` goes unreported: its warm-up and
        every answer the caller pulls run outside any execution scope (50 answers of
        the DBLP-like 3hop query through ``stream`` add 0 kernel calls;
        ``execute(k=50)`` adds 6).  :meth:`QueryEngine.measure` around
        the iteration counts it.
    score_builds / score_fallbacks:
        Score-column materialisations (one weight pass per distinct
        value of a relation column — :mod:`repro.storage.scores`) and
        batched-key attempts that fell back to per-row scalar keys
        (LEX/composite rankings, non-``int`` values, missing or
        non-real weights).  Same scoped attribution as the kernel
        counters.
    batched_combines:
        Join-tree nodes (and star output builds) whose rank keys were
        produced by one array combine over the children's key columns
        instead of a per-candidate Python loop — the vectorised
        enumeration layer (:data:`repro.core.ranking.combine_counters`).
        Fallbacks to the scalar combine are not an engine counter; they
        are counted on ``combine_counters`` itself, per reason via
        ``repro.core.ranking.combine_counters.reasons_snapshot()``.
    bulk_topk_calls / bulk_topk_fallbacks:
        Retired, always 0.  They counted ``top_k(k)`` requests served
        by a bulk array kernel, and requests it declined; that kernel
        was deleted because the heap path measured as fast or faster on
        the benchmark workloads, so every ``top_k`` now pops the queues.
        The keys stay in :meth:`snapshot` (and
        :meth:`RequestCounters.snapshot`) for readers that index them.
    snapshot_opens / snapshot_cow_detaches:
        Persistent-store observability: engines constructed over an
        on-disk snapshot (``QueryEngine(path)``) count one open, and
        ``snapshot_cow_detaches`` tracks how many mapped stores have
        copy-on-write detached into RAM because something mutated them
        — a served snapshot should keep this at zero; a climbing value
        means writes are silently paying materialisation cost.
    journal_records_replayed:
        Write-ahead-journal records replayed into the database when the
        engine's snapshot was opened (zero when the directory had no
        journal or after a clean checkpoint) — a persistently large
        value means checkpoints are overdue.
    executions / total_seconds / per_query:
        Execution counts and wall-clock, overall and per query name.
    """

    __slots__ = (
        "parse_hits",
        "parse_misses",
        "plan_hits",
        "plan_misses",
        "plan_evictions",
        "query_evictions",
        "invalidations",
        "delta_applies",
        "delta_fallbacks",
        "ranked_restarts",
        "ranked_evictions",
        "ranked_carryovers",
        "ranked_groups_dropped",
        "data_hits",
        "data_builds",
        "uncacheable",
        "batch_executions",
        "encode_builds",
        "encode_fallbacks",
        "kernel_calls",
        "kernel_fallbacks",
        "score_builds",
        "score_fallbacks",
        "batched_combines",
        "bulk_topk_calls",
        "bulk_topk_fallbacks",
        "snapshot_opens",
        "snapshot_cow_detaches",
        "journal_records_replayed",
        "executions",
        "total_seconds",
        "per_query",
    )

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Zero every counter (the engine keeps its caches)."""
        self.parse_hits = 0
        self.parse_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_evictions = 0
        self.query_evictions = 0
        self.invalidations = 0
        self.delta_applies = 0
        self.delta_fallbacks = 0
        self.ranked_restarts = 0
        self.ranked_evictions = 0
        self.ranked_carryovers = 0
        self.ranked_groups_dropped = 0
        self.data_hits = 0
        self.data_builds = 0
        self.uncacheable = 0
        self.batch_executions = 0
        self.encode_builds = 0
        self.encode_fallbacks = 0
        self.kernel_calls = 0
        self.kernel_fallbacks = 0
        self.score_builds = 0
        self.score_fallbacks = 0
        self.batched_combines = 0
        self.bulk_topk_calls = 0
        self.bulk_topk_fallbacks = 0
        self.snapshot_opens = 0
        self.snapshot_cow_detaches = 0
        self.journal_records_replayed = 0
        self.executions = 0
        self.total_seconds = 0.0
        self.per_query: dict[str, QueryTiming] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_execution(self, query_name: str, seconds: float) -> None:
        """Account one execution of ``query_name`` taking ``seconds``."""
        self.executions += 1
        self.total_seconds += seconds
        timing = self.per_query.get(query_name)
        if timing is None:
            timing = self.per_query[query_name] = QueryTiming()
        timing.record(seconds)

    @property
    def plan_hit_rate(self) -> float:
        """Prepared-plan hit fraction in [0, 1] (0.0 before any lookup)."""
        lookups = self.plan_hits + self.plan_misses
        return self.plan_hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        """A plain-dict view for logging / ``--stats`` output."""
        return {
            "executions": self.executions,
            "total_seconds": round(self.total_seconds, 6),
            "parse_hits": self.parse_hits,
            "parse_misses": self.parse_misses,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_hit_rate": round(self.plan_hit_rate, 4),
            "plan_evictions": self.plan_evictions,
            "query_evictions": self.query_evictions,
            "invalidations": self.invalidations,
            "delta_applies": self.delta_applies,
            "delta_fallbacks": self.delta_fallbacks,
            "ranked_restarts": self.ranked_restarts,
            "ranked_evictions": self.ranked_evictions,
            "ranked_carryovers": self.ranked_carryovers,
            "ranked_groups_dropped": self.ranked_groups_dropped,
            "data_hits": self.data_hits,
            "data_builds": self.data_builds,
            "uncacheable": self.uncacheable,
            "batch_executions": self.batch_executions,
            "encode_builds": self.encode_builds,
            "encode_fallbacks": self.encode_fallbacks,
            "kernel_calls": self.kernel_calls,
            "kernel_fallbacks": self.kernel_fallbacks,
            "score_builds": self.score_builds,
            "score_fallbacks": self.score_fallbacks,
            "batched_combines": self.batched_combines,
            "bulk_topk_calls": self.bulk_topk_calls,
            "bulk_topk_fallbacks": self.bulk_topk_fallbacks,
            "snapshot_opens": self.snapshot_opens,
            "snapshot_cow_detaches": self.snapshot_cow_detaches,
            "journal_records_replayed": self.journal_records_replayed,
            "per_query": {
                name: timing.snapshot() for name, timing in self.per_query.items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EngineStats(executions={self.executions}, "
            f"plan_hits={self.plan_hits}, plan_misses={self.plan_misses})"
        )
