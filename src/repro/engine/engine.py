"""The session layer: a :class:`QueryEngine` facade over one database.

Every entry point used to build a fresh enumerator per query —
re-parsing the query text, re-classifying the hypergraph, re-building
the join tree and re-running the full reducer each time.  A
``QueryEngine`` amortises all of that across the session:

* a **parsed-query cache** (query text -> query object, LRU);
* a **prepared-plan cache** (query + ranking + method fingerprint ->
  :class:`~repro.engine.prepared.PreparedPlan`, LRU), holding the
  pre-built join tree / GHD / classification and, once a plan is
  reused, its retained ranked state;
* **data states** (:mod:`repro.engine.data`): the reduced instances,
  GHD bags and row indexes of one query over one database generation,
  shared by every plan of the query whatever its ranking, so a fresh
  ranking object skips the reduction too;
* **generation-counter invalidation**: warm state is revalidated
  against :attr:`Database.generation` before every execution, so
  ``Relation.add`` / ``extend`` / ``Database.add_relation`` transparently
  invalidate exactly the data-dependent half of the cache;
* :class:`~repro.engine.stats.EngineStats` hit/miss/eviction counters
  and per-query timings.

The low-level one-shot path (:func:`repro.create_enumerator`) remains
available and unchanged; the engine is the right surface for any caller
that executes more than one query against the same data — the CLI's
REPL mode, the benchmark harness's warm sweeps and the service layer.

Examples
--------
>>> from repro.data import Database
>>> from repro.engine import QueryEngine
>>> db = Database()
>>> _ = db.add_relation("R", ("a", "b"), [(1, 10), (2, 10), (3, 99)])
>>> engine = QueryEngine(db)
>>> [a.values for a in engine.execute("Q(a1, a2) :- R(a1, p), R(a2, p)", k=3)]
[(1, 1), (1, 2), (2, 1)]
>>> _ = engine.execute("Q(a1, a2) :- R(a1, p), R(a2, p)", k=3)
>>> engine.stats.plan_hits
1
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Iterable, Sequence

from ..core import ranking as ranking_layer
from ..core.answers import RankedAnswer
from ..core.base import RankedEnumeratorBase
from ..core.planner import plan_query
from ..core.ranking import RankingFunction, WeightFunction
from ..data.database import Database
from ..data.relation import Value
from ..query.parser import parse_query
from ..query.properties import classify_query, delay_guarantee
from ..query.query import JoinProjectQuery, UnionQuery
from ..storage import kernels, scores
from ..storage.encoded import EncodedDatabase
from .lru import LRUCache
from .data import DataStates
from .prepared import PreparedPlan, RetainedBudget
from .stats import EngineStats, RequestCounters

__all__ = ["QueryEngine"]

#: What the engine accepts wherever a query is expected: raw text (parsed
#: through the LRU cache) or an already-parsed query object.
QueryInput = str | JoinProjectQuery | UnionQuery

#: The scoped work counters, declared once: ``(module, counter name,
#: calls field, fallbacks field)``.  The fields are spelled the same on
#: :class:`EngineStats` and :class:`RequestCounters`.  Counters are
#: looked up when a scope opens, never held: reloading a module
#: replaces its counter object.
_WORK_COUNTERS = (
    (kernels, "counters", "kernel_calls", "kernel_fallbacks"),
    (scores, "counters", "score_builds", "score_fallbacks"),
    (ranking_layer, "combine_counters", "batched_combines", None),
)


@contextmanager
def _counting(target):
    """Add this thread's work-counter increments to ``target`` on exit.

    One tally scope per :data:`_WORK_COUNTERS` entry
    (:meth:`repro.storage.kernels.KernelCounters.collect`).
    """
    with ExitStack() as stack:
        tallies = [
            (stack.enter_context(getattr(module, name).collect()), calls, fallbacks)
            for module, name, calls, fallbacks in _WORK_COUNTERS
        ]
        try:
            yield
        finally:
            for tally, calls, fallbacks in tallies:
                setattr(target, calls, getattr(target, calls) + tally.calls)
                if fallbacks is not None:
                    setattr(
                        target, fallbacks, getattr(target, fallbacks) + tally.fallbacks
                    )


class QueryEngine:
    """A cached, session-scoped execution facade over one database.

    Parameters
    ----------
    db:
        The database to serve; a fresh empty one when omitted.  A
        ``str``/``PathLike`` is treated as a snapshot directory
        (:func:`repro.open_database`): the engine opens it memory-mapped
        and starts *warm* — the dictionary and encoded image come off
        the snapshot files, so the first query pays no encode cost.
    max_plans:
        LRU bound on prepared plans (>= 1).
    max_queries:
        LRU bound on parsed query texts (>= 1).
    encode:
        ``"auto"`` (default) executes over the dictionary-encoded image
        when the data carries non-numeric keys; ``True``/``False``
        force either mode.
    """

    def __init__(
        self,
        db: Database | str | os.PathLike | None = None,
        *,
        max_plans: int = 64,
        max_queries: int = 256,
        encode: bool | str = "auto",
    ):
        if isinstance(db, (str, os.PathLike)):
            from ..storage.persist import open_database

            db = open_database(db)
        self.db = db if db is not None else Database()
        self.stats = EngineStats()
        self._queries: LRUCache = LRUCache(
            max_queries, on_evict=self._count_query_eviction
        )
        self._plans: LRUCache = LRUCache(max_plans, on_evict=self._count_plan_eviction)
        # Join trees and GHDs depend on the query, not on the ranking: a
        # fresh ranking of a query planned before reuses them.
        self._shapes: LRUCache = LRUCache(max_plans)
        # The cap on ranked state that reused plans keep between streams.
        self._retained = RetainedBudget(self.stats)
        # Data states, one per query and database generation, shared by
        # the query's plans whatever their ranking; held by the plans, so
        # ``max_plans`` bounds them too.
        self._data = DataStates()
        # Dictionary-encoded execution (the storage layer's fast path):
        # the encoded image of the database is cached here and
        # revalidated against the generation counter like every other
        # warm structure, so warm runs re-encode nothing.  The default
        # ``"auto"`` encodes exactly when the data carries fat
        # (non-numeric) keys — where code-space execution wins;
        # ``encode=True`` forces it, ``encode=False`` forces plain rows
        # (benchmarks compare the two).
        self._encode = encode
        self._encoded: EncodedDatabase | None = None
        self._encode_broken_generation: int | None = None
        self._encode_auto: tuple[Database, int, bool] | None = None
        self.last_enumerator: RankedEnumeratorBase | None = None
        # Snapshot-backed sessions (``QueryEngine(path)`` or a database
        # from ``repro.open_database``) start warm: the encoded image is
        # pre-seeded straight off the mapped snapshot files, so the
        # first execution skips dictionary construction and the full
        # re-encode pass entirely.
        from ..storage.persist import snapshot_handle

        self._snapshot = None if db is None else snapshot_handle(self.db)
        if self._snapshot is not None:
            self.stats.snapshot_opens += 1
            self.stats.journal_records_replayed += getattr(
                self._snapshot, "journal_replayed", 0
            )
            if self._encode is not False:
                self._encoded = self._snapshot.encoded_database(self.db)

    def _count_query_eviction(self, _key, _value) -> None:
        self.stats.query_evictions += 1

    def _count_plan_eviction(self, _key, plan) -> None:
        self.stats.plan_evictions += 1
        self._retained.forget(plan)

    @contextmanager
    def _instrumented(self):
        """Scope one execution: attribute its work counters to :attr:`stats`.

        Kernel and score-column work runs below the engine (in the
        reducer, the access paths, the ranking layer), always on the
        calling thread; each execution collects its own thread-scoped
        tally, so ``stats.kernel_calls`` / ``score_builds`` etc. reflect
        exactly this engine's executions even under concurrency.
        """
        try:
            with _counting(self.stats):
                yield
        finally:
            if self._snapshot is not None:
                self.stats.snapshot_cow_detaches = self._snapshot.cow_detaches

    @contextmanager
    def measure(self):
        """Scope one *request*: yields a :class:`RequestCounters` filled on exit.

        The public face of the scoped-counter machinery: enter the
        context on the thread that will run the work (the service
        layer's executor threads do), execute through the engine inside
        it, and read exact per-request ``kernel_calls`` /
        ``score_builds`` / ``seconds`` afterwards.  Scopes nest — the
        engine's own per-execution attribution keeps updating
        :attr:`stats` — and concurrent requests on different threads
        never observe each other's increments.  The engine runs all of
        its work on the calling thread, so the scope sees all of it.  A
        :meth:`stream`
        created and iterated inside the scope is counted here, although
        :attr:`stats` never counts stream work (only ``execute``-family
        calls are attributed to the engine).

        Examples
        --------
        >>> from repro.data import Database
        >>> from repro.engine import QueryEngine
        >>> db = Database()
        >>> _ = db.add_relation("R", ("a", "b"), [(1, 10), (2, 10)])
        >>> engine = QueryEngine(db)
        >>> with engine.measure() as req:
        ...     _ = engine.execute("Q(a1, a2) :- R(a1, p), R(a2, p)", k=2)
        >>> req.seconds > 0
        True
        """
        request = RequestCounters()
        started = time.perf_counter()
        try:
            with _counting(request):
                yield request
        finally:
            request.seconds = time.perf_counter() - started

    # ------------------------------------------------------------------ #
    # data management
    # ------------------------------------------------------------------ #
    def add_relation(
        self, name: str, attrs: Sequence[str], tuples: Iterable[Sequence[Value]] = ()
    ):
        """Create and register a relation (plans revalidate automatically)."""
        return self.db.add_relation(name, attrs, tuples)

    # ------------------------------------------------------------------ #
    # parsing
    # ------------------------------------------------------------------ #
    def parse(self, query: QueryInput):
        """Parse query text through the LRU cache; pass query objects through."""
        if not isinstance(query, str):
            return query
        cached = self._queries.get(query)
        if cached is not None:
            self.stats.parse_hits += 1
            return cached
        self.stats.parse_misses += 1
        parsed = parse_query(query)
        self._queries.put(query, parsed)
        return parsed

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    @staticmethod
    def _fingerprint(
        query,
        ranking: RankingFunction | None,
        method: str,
        epsilon: float | None,
        delta: int | None,
        kwargs: dict[str, Any],
    ):
        """Cache key for one (query, ranking, method, knobs) combination.

        Rankings are keyed by identity (the cached plan keeps the object
        alive, so the id stays valid): reusing one ranking object across
        calls hits the cache, while structurally-equal-but-distinct
        weight tables conservatively miss.  Returns ``None`` — meaning
        "do not cache" — when the extra kwargs are unhashable
        (e.g. a pre-built join tree or instance mapping).
        """
        ranking_key = (
            "default"
            if ranking is None
            else (type(ranking).__name__, id(ranking))
        )
        key = (query, ranking_key, method, epsilon, delta, tuple(sorted(kwargs.items())))
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def prepare(
        self,
        query: QueryInput,
        ranking: RankingFunction | None = None,
        *,
        method: str = "auto",
        epsilon: float | None = None,
        delta: int | None = None,
        **kwargs: Any,
    ) -> PreparedPlan:
        """Plan a query once and cache the result for re-execution.

        On a hit the cached :class:`PreparedPlan` is returned with its
        join tree / GHD and warm state intact; on a miss the query is
        classified and planned (:func:`repro.core.planner.plan_query`,
        reusing the join tree or GHD of a plan of the same query under
        another ranking) and the plan enters the LRU.  With encoding active this is the
        plan :meth:`execute` runs — the query's constants, ranking and
        weight kwarg translated into code space first
        (:meth:`_encoding_for`), so the fingerprint is the code-space
        one and warm state and hit counters reflect real executions.
        """
        parsed = self.parse(query)
        encoding = self._encoding_for(parsed, ranking, kwargs)
        if encoding is not None:
            _ctx, parsed, ranking, kwargs = encoding
        fingerprint = self._fingerprint(parsed, ranking, method, epsilon, delta, kwargs)
        prepared = None if fingerprint is None else self._plans.get(fingerprint)
        if fingerprint is None:
            self.stats.uncacheable += 1
        elif prepared is not None:
            self.stats.plan_hits += 1
        else:
            self.stats.plan_misses += 1
        if prepared is None:
            started = time.perf_counter()
            # The fingerprint without the ranking.
            shape_key = None if fingerprint is None else (fingerprint[0], *fingerprint[2:])
            shape = {} if shape_key is None else self._shapes.get(shape_key, {})
            plan = plan_query(
                parsed,
                ranking,
                method=method,
                epsilon=epsilon,
                delta=delta,
                **{**shape, **kwargs},
            )
            if shape_key is not None and not shape:
                built = {"join_tree": plan.join_tree, "ghd": plan.ghd}
                self._shapes.put(shape_key, {k: v for k, v in built.items() if v is not None})
            prepared = PreparedPlan(
                plan,
                fingerprint,
                time.perf_counter() - started,
                data_states=self._data,
            )
            if fingerprint is not None:
                self._plans.put(fingerprint, prepared)
        if encoding is not None:
            prepared.bind_encoding(encoding[0])
        return prepared

    # ------------------------------------------------------------------ #
    # encoded execution (storage-layer fast path)
    # ------------------------------------------------------------------ #
    def _encoding_for(
        self, query, ranking: RankingFunction | None, kwargs: dict[str, Any]
    ) -> tuple[EncodedDatabase, Any, RankingFunction, dict[str, Any]] | None:
        """The refreshed encoded image plus the request in code space.

        Returns ``(image, query, ranking, kwargs)`` — constants, ranking
        and a bare ``weight`` kwarg translated — or ``None``, meaning
        "execute over plain rows": encoding disabled, caller-supplied
        instances (already in value space), a ranking class the wrapper
        does not know, or a database whose values defeated dictionary
        construction (remembered per generation).
        """
        if self._encode is False or "instances" in kwargs:
            return None
        generation = self.db.generation
        if generation == self._encode_broken_generation:
            self.stats.encode_fallbacks += 1
            return None
        if self._encode == "auto" and self._snapshot is None:
            # (Snapshot-backed sessions skip the profitability probe:
            # their encoded image is pre-built on disk, so encoding is
            # free, and the probe itself would page in every column.)
            cached = self._encode_auto
            if cached is None or cached[0] is not self.db or cached[1] != generation:
                from ..storage.encoded import profits_from_encoding

                cached = (self.db, generation, profits_from_encoding(self.db))
                self._encode_auto = cached
            if not cached[2]:
                return None
        if self._encoded is None or self._encoded.base is not self.db:
            # First use, or the session database object was swapped out
            # (equal generations on different databases say nothing
            # about equal contents).  Snapshot sessions re-seed from the
            # mapped files (safe after ``invalidate()``: the image's
            # watermark starts unset, so post-open writes reconcile).
            if self._snapshot is not None:
                self._encoded = self._snapshot.encoded_database(self.db)
            else:
                self._encoded = EncodedDatabase(self.db)
        epoch_before = self._encoded.epoch
        had_image = self._encoded.database is not None
        try:
            self._encoded.refresh()
        except TypeError:
            # Unhashable values somewhere in the data; plain execution
            # would work (it never dictionary-hashes whole columns), so
            # fall back quietly until the data changes.
            self._encode_broken_generation = generation
            self.stats.encode_fallbacks += 1
            return None
        if self._encoded.epoch != epoch_before:
            self.stats.encode_builds += 1
            if had_image:
                # The code space itself changed: every encoded plan in
                # the LRU is orphaned (their fingerprints can no longer
                # be produced), which is an invalidation of warm state
                # the plans themselves will never get to report.
                self.stats.invalidations += 1
        ctx = self._encoded
        wrapped = ctx.wrap_ranking(ranking)
        if wrapped is None:
            self.stats.encode_fallbacks += 1
            return None
        weight = kwargs.get("weight")
        if isinstance(weight, WeightFunction):
            kwargs = {**kwargs, "weight": ctx.wrap_weight(weight)}
        return ctx, ctx.encode_query(query), wrapped, kwargs

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def stream(
        self,
        query: QueryInput,
        ranking: RankingFunction | None = None,
        *,
        method: str = "auto",
        epsilon: float | None = None,
        delta: int | None = None,
        **kwargs: Any,
    ) -> RankedEnumeratorBase:
        """A one-shot enumerator over the session database.

        The delay-guarantee interface: iterate for answers in rank
        order.  Warm plan state is reused when available: the query's
        data state — reduced instances, GHD bags, row indexes — for any
        ranking, fresh objects included (``stats.data_hits``).  From a
        plan's second stream on, an acyclic plan restarts at the root of
        the queues an earlier stream built — their ``next`` chains are
        kept on the plan, not rebuilt — and a lexicographic plan reuses
        its weight tables and first-level candidates
        (``stats.ranked_restarts``).  A write carries that state over
        to the rebuilt reduction, keeping what the write did not reach
        (``stats.ranked_carryovers``).  Each stream still pops its own
        root queue; streams of one plan may interleave, on one thread or
        several, and a stream answers for the data it was opened on,
        whatever is written while it runs.  When the
        session encodes (``encode="auto"`` does so for data with
        non-numeric keys), the enumerator runs over the
        dictionary-encoded image of the database and decodes at
        emission — answers, scores, ties and order are identical to
        plain execution.
        """
        prepared = self.prepare(
            query, ranking, method=method, epsilon=epsilon, delta=delta, **kwargs
        )
        # Plans bound to an encoding context switch to the encoded image
        # and decode at emission inside make_enumerator.
        enum = prepared.make_enumerator(self.db, self.stats, budget=self._retained)
        self.last_enumerator = enum
        return enum

    def execute(
        self,
        query: QueryInput,
        ranking: RankingFunction | None = None,
        *,
        k: int | None = None,
        method: str = "auto",
        epsilon: float | None = None,
        delta: int | None = None,
        **kwargs: Any,
    ) -> list[RankedAnswer]:
        """Ranked execution with plan reuse: ``SELECT DISTINCT .. LIMIT k``.

        Identical results to :func:`repro.enumerate_ranked`; repeated
        executions of the same query skip parsing, classification, join
        tree or GHD construction and the full-reducer pass (for a cyclic
        query, the bag materialisation too) — also under a fresh ranking
        object, which misses the plan cache but finds the query's data
        state (``stats.data_hits``).

        Examples
        --------
        >>> from repro.core.ranking import SumRanking, TableWeight
        >>> from repro.data import Database
        >>> from repro.engine import QueryEngine
        >>> db = Database()
        >>> _ = db.add_relation("R", ("a", "b"), [(1, 10), (2, 10), (3, 99)])
        >>> engine = QueryEngine(db)
        >>> q = "Q(a1, a2) :- R(a1, p), R(a2, p)"
        >>> for flip in (1, -1):
        ...     weight = TableWeight({v: {1: flip, 2: 0, 3: 0} for v in ("a1", "a2")})
        ...     _ = engine.execute(q, SumRanking(weight), k=2)
        >>> engine.stats.plan_misses, engine.stats.data_builds, engine.stats.data_hits
        (2, 1, 1)
        """
        started = time.perf_counter()
        parsed = self.parse(query)
        with self._instrumented():
            enum = self.stream(
                parsed, ranking, method=method, epsilon=epsilon, delta=delta, **kwargs
            )
            answers = enum.all() if k is None else enum.top_k(k)
        # Timings are keyed by the query's structure, not its name: head
        # predicates are conventionally all called Q, which would fold
        # every query in a session into one bucket.
        self.stats.record_execution(repr(parsed), time.perf_counter() - started)
        return answers

    def execute_many(
        self,
        queries: Sequence[QueryInput],
        ranking: RankingFunction | None = None,
        *,
        k: int | None = None,
        method: str = "auto",
        epsilon: float | None = None,
        delta: int | None = None,
    ) -> list[list[RankedAnswer]]:
        """Execute independent queries as a batch; results in input order.

        The batch runs through :meth:`execute` one query after another,
        so a query repeated in the batch hits the plan cache.
        """
        out = [
            self.execute(q, ranking, k=k, method=method, epsilon=epsilon, delta=delta)
            for q in queries
        ]
        self.stats.batch_executions += len(out)
        return out

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def explain(
        self,
        query: QueryInput,
        ranking: RankingFunction | None = None,
        *,
        method: str = "auto",
        epsilon: float | None = None,
        delta: int | None = None,
        **kwargs: Any,
    ) -> dict[str, Any]:
        """The plan summary the CLI's ``--explain`` prints.

        Returns a dict with the query class, selected algorithm, ranking
        description, the paper's delay guarantee, ``|D|`` and whether
        the plan came from the cache.
        """
        parsed = self.parse(query)
        before_hits = self.stats.plan_hits
        prepared = self.prepare(
            parsed, ranking, method=method, epsilon=epsilon, delta=delta, **kwargs
        )
        return {
            "query class": classify_query(parsed),
            "algorithm": prepared.plan.enumerator_class.__name__,
            "plan": prepared.plan.describe(),
            "ranking": prepared.plan.ranking.describe(),
            "guarantee": delay_guarantee(parsed),
            "|D|": self.db.size,
            "cached plan": self.stats.plan_hits > before_hits,
        }

    # ------------------------------------------------------------------ #
    # cache control
    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop all warm (data-dependent) state, keeping the plans."""
        for prepared in self._plans.values():
            prepared.drop_warm_state()
        self._data.clear()
        self._retained.clear()
        self._encoded = None
        self._encode_broken_generation = None
        self._encode_auto = None

    def clear_caches(self) -> None:
        """Drop every cached parse and plan (counters are kept)."""
        self._queries.clear()
        self._plans.clear()
        self._shapes.clear()
        self.invalidate()

    @property
    def cached_plans(self) -> int:
        """Number of prepared plans currently cached."""
        return len(self._plans)

    @property
    def cached_queries(self) -> int:
        """Number of parsed query texts currently cached."""
        return len(self._queries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryEngine(db={self.db!r}, plans={len(self._plans)}, "
            f"queries={len(self._queries)})"
        )
