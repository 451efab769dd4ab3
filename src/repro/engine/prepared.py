"""Prepared plans: a cached :class:`~repro.core.planner.QueryPlan` plus
warm, data-dependent state.

A :class:`PreparedPlan` is what the engine's plan cache stores.  It
wraps the data-independent plan (join tree / GHD / classification —
reusable forever) together with the *warm* state that depends on the
database contents: the fully-reduced per-atom instances (the
full-reducer's output, which
:class:`~repro.core.acyclic.AcyclicRankedEnumerator` and
:class:`~repro.core.lexicographic.LexBacktrackEnumerator` accept via
their ``instances`` parameter, skipping the O(|D|) reducer pass on every
warm execution).  The enumerators build their own groupings from these
instances; the base relations keep only their scan-path views.

A reused plan also keeps *ranked* state (:class:`~repro.core.base.RetainedSlot`):
from its second enumerator on, an acyclic plan keeps its non-root queues
and ``next`` chains, so each later stream restarts at the root instead
of rebuilding them, and a lexicographic plan keeps its weight tables,
row indexes and sorted first-level candidates.  No answers are kept:
every stream pops its own root queue.  The engine caps the cells all
plans keep together (:class:`RetainedBudget`, LRU over plans).

Warm state is validated against
:attr:`repro.data.database.Database.generation` before every use and
rebuilt transparently when the data has changed — the generation
counters on ``Relation``/``Database`` are the invalidation hook.  A
change rebuilds the reduction, diffs it against the old one
(:func:`~repro.algorithms.yannakakis.reduction_diff`) and carries the
ranked state over: only what the write reached is dropped or patched,
in a new slot, so enumerators made before the write keep the old one
(:meth:`PreparedPlan.warm`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any

from ..algorithms.yannakakis import atom_instances, full_reduce, reduction_diff
from ..core.base import RankedEnumeratorBase, RetainedSlot
from ..core.planner import QueryPlan
from ..data.database import Database
from ..errors import QueryError
from .stats import EngineStats

__all__ = ["PreparedPlan"]

#: Plan kinds whose enumerators accept pre-reduced ``instances``.
_WARMABLE_KINDS = frozenset({"acyclic", "lex"})

#: Cells that one engine's retained ranked states may hold together
#: (a state's run positions plus the cells it created): 32 MiB at about
#: 130 bytes a retained cell.  That figure is the median of 18
#: tracemalloc probes (range 76-182): the state kept after 1, k and 3k
#: answers of 3hop, 4hop and star3 SUM on the DBLP/IMDB-like graphs.
MAX_RETAINED_CELLS = (32 << 20) // 130


class RetainedBudget:
    """One engine's cap on retained ranked state: LRU over plans.

    :meth:`keep` marks a plan as just used, then drops the ranked state
    of the least recently used plans until the cells all kept states
    hold fit :data:`MAX_RETAINED_CELLS` — the plan just used included,
    so a state over the cap by itself is not kept.  Each drop of a
    state that held cells counts in ``ranked_evictions``.  State keeps
    growing while streams extend its chains; the cap is checked when a
    plan makes its next enumerator.
    """

    def __init__(self, stats: EngineStats):
        self._stats = stats
        self._plans: OrderedDict[PreparedPlan, None] = OrderedDict()
        self._lock = threading.Lock()

    def keep(self, plan: "PreparedPlan") -> None:
        with self._lock:
            self._plans[plan] = None
            self._plans.move_to_end(plan)
            # Read each plan's slot once: another thread's write may
            # drop it meanwhile.
            slots = {p: p._ranked for p in self._plans}
            cells = {p: slot.cells for p, slot in slots.items() if slot is not None}
            total = sum(cells.values())
            for p, slot in slots.items():
                if slot is None:
                    del self._plans[p]
                elif total > MAX_RETAINED_CELLS and cells[p]:
                    p._ranked = None
                    del self._plans[p]
                    total -= cells[p]
                    self._stats.ranked_evictions += 1

    def forget(self, plan: "PreparedPlan") -> None:
        with self._lock:
            self._plans.pop(plan, None)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()


class PreparedPlan:
    """A reusable enumerator factory bound to one query/ranking/method.

    Instances are produced by :meth:`repro.engine.QueryEngine.prepare`
    and are valid for the lifetime of the engine.  Warm state is bound
    to one database object at a time: handing :meth:`make_enumerator` a
    different database (or mutating the current one) drops and
    re-derives it.
    """

    __slots__ = (
        "plan",
        "fingerprint",
        "prepare_seconds",
        "executions",
        "_db",
        "_generation",
        "_reduced_instances",
        "_ranked",
        "_encoding",
        "_encoding_epoch",
        "_lock",
    )

    def __init__(self, plan: QueryPlan, fingerprint: Any, prepare_seconds: float = 0.0):
        self.plan = plan
        self.fingerprint = fingerprint
        self.prepare_seconds = prepare_seconds
        self.executions = 0
        self._db: Database | None = None
        self._generation: int | None = None
        self._reduced_instances: dict[str, list[tuple]] | None = None
        # Ranked state kept for the plan's enumerators (see RetainedSlot).
        self._ranked: RetainedSlot | None = None
        # Set for plans whose query/ranking were translated into code
        # space: the EncodedDatabase they were translated against and
        # the dictionary epoch the translation belongs to.
        self._encoding = None
        self._encoding_epoch: int | None = None
        # Serialises the generation check, the rebuild and the carry-over
        # for streams of one plan on several threads.
        self._lock = threading.Lock()

    def bind_encoding(self, encoding) -> "PreparedPlan":
        """Record that this plan executes over ``encoding``'s code space.

        Bound by the engine at prepare time; :meth:`make_enumerator`
        then accepts the *base* database and transparently switches to
        the encoded image and decodes at emission, so the documented
        ``prepare(...)`` / ``make_enumerator(engine.db)`` pattern stays
        correct under encoding.
        """
        self._encoding = encoding
        self._encoding_epoch = encoding.epoch
        return self

    def _execution_target(self, db: Database) -> tuple[Database, Any]:
        """Resolve the database to execute against (+ encoding or None)."""
        ctx = self._encoding
        if ctx is None:
            return db, None
        if db is ctx.database:
            return db, ctx  # the engine handed us the encoded image
        if db is ctx.base:
            ctx.refresh()
            if ctx.epoch != self._encoding_epoch:
                raise QueryError(
                    "prepared plan is stale: the database gained values its "
                    "dictionary has never seen — re-prepare through the engine"
                )
            return ctx.database, ctx
        raise QueryError(
            "this plan was prepared for the encoded execution of a different "
            "database; prepare a plan for this database instead"
        )

    # ------------------------------------------------------------------ #
    # warm state
    # ------------------------------------------------------------------ #
    @property
    def is_warm(self) -> bool:
        """True when reduced instances are cached (acyclic/lex plans)."""
        return self._reduced_instances is not None

    def _check_generation(self, db: Database, stats: EngineStats | None) -> tuple:
        """Drop the warm state if ``db`` is not the data it was built
        over; returns what was dropped, ``(reduction, ranked slot)``,
        for a carry-over (``(None, None)`` when nothing was)."""
        # Warm state is keyed on the database *object* as well as its
        # generation: equal generations on two different databases say
        # nothing about equal contents.
        generation = db.generation
        dropped = None, None
        if self._reduced_instances is not None and (
            db is not self._db or generation != self._generation
        ):
            # Any write drops the reduction; ``warm`` rebuilds it with
            # the vectorised reducer over the scan views, which the
            # storage layer keeps current from its delta log, and
            # carries the ranked state over to it.
            if db is self._db:
                dropped = self._reduced_instances, self._ranked
            self.drop_warm_state()
            if stats is not None:
                stats.invalidations += 1
        self._db = db
        self._generation = generation
        return dropped

    def drop_warm_state(self) -> None:
        """Forget the reduction and the ranked state built over it."""
        self._reduced_instances = None
        self._ranked = None

    def _retained_slot(
        self, budget: RetainedBudget, stats: EngineStats | None
    ) -> RetainedSlot | None:
        """The slot this execution's enumerator keeps or restarts from.

        None on a plan's first execution: only a second one shows that
        the plan is reused.  A state that a failed step left broken is
        replaced by an empty slot; the budget may drop the state
        (:meth:`RetainedBudget.keep`).
        """
        slot = self._ranked
        if slot is None or slot.broken:
            if self.executions < 2:
                return None
            slot = self._ranked = RetainedSlot()
        budget.keep(self)
        slot = self._ranked
        if slot is not None and slot.state is not None and stats is not None:
            stats.ranked_restarts += 1
        return slot

    def warm(self, db: Database, stats: EngineStats | None = None) -> "PreparedPlan":
        """Build (or refresh) the data-dependent state eagerly.

        Runs ``atom_instances`` + the full reducer once.  Called lazily
        by :meth:`make_enumerator`; call it directly to pay the cost at
        prepare time instead of on the first execution.  Encoded plans
        accept the base database and warm the encoded image.  After a
        write, the ranked state is carried over to the new reduction
        (:meth:`_carry_over`).
        """
        db, _encoding = self._execution_target(db)
        with self._lock:
            self._warm(db, stats)
        return self

    def _warm(self, db: Database, stats: EngineStats | None) -> None:
        """:meth:`warm` over the execution target, under the plan lock."""
        old, slot = self._check_generation(db, stats)
        if self.plan.kind not in _WARMABLE_KINDS or self._reduced_instances is not None:
            return
        started = time.perf_counter()
        instances = atom_instances(self.plan.query, db)
        self._reduced_instances = full_reduce(self.plan.join_tree, instances)
        if slot is not None and slot.state is not None:
            self._carry_over(old, slot.state, stats)
        self.prepare_seconds += time.perf_counter() - started

    def _carry_over(self, old, state, stats: EngineStats | None) -> None:
        """Keep the part of ``state`` (built over the reduction ``old``)
        that the write did not reach, in a new slot for the new
        reduction: enumerators made before the write keep the old slot.
        Counted in ``ranked_carryovers`` and ``ranked_groups_dropped``;
        a state that cannot be carried over is dropped."""
        new = self._reduced_instances
        diff = reduction_diff(old, new)
        if diff is None:
            return
        carried, dropped = state.carry_over(old, new, diff)
        if carried is None:
            return
        self._ranked = RetainedSlot(carried)
        if stats is not None:
            stats.ranked_carryovers += 1
            stats.ranked_groups_dropped += dropped

    # ------------------------------------------------------------------ #
    # the factory
    # ------------------------------------------------------------------ #
    def make_enumerator(
        self,
        db: Database,
        stats: EngineStats | None = None,
        *,
        budget: RetainedBudget | None = None,
        **overrides: Any,
    ) -> RankedEnumeratorBase:
        """A one-shot enumerator, using warm state when possible.

        Warm executions of acyclic/lexicographic plans hand the cached
        reduced instances to the enumerator (``already_reduced`` for the
        LinDelay algorithm), so the reducer pass is skipped.  Given a
        ``budget`` (the engine's), a reused plan also hands over its
        retained ranked state: from the second execution on, an acyclic
        enumerator restarts at the root of the queues an earlier one
        built, and a lexicographic one reuses its weight tables and row
        indexes (counted in ``stats.ranked_restarts``).  Results are
        identical to a cold :func:`~repro.core.planner.create_enumerator`
        build: the reduced instances are exactly what the cold path
        derives internally, and a restart pops its own root queue over
        the same non-root ``next`` chains a cold build would compute.
        Callers that pass ``overrides`` get no ranked state.

        Plans bound to an encoding context accept the *base* database
        here: execution switches to the encoded image and the returned
        enumerator decodes values and scores at emission.
        """
        self.executions += 1
        target, encoding = self._execution_target(db)
        # Overrides can change what an enumerator builds, so only
        # enumerators configured by the plan alone share ranked state.
        plain = not overrides
        caller_instances = "instances" in overrides or "instances" in self.plan.kwargs
        if self.plan.kind in _WARMABLE_KINDS and not caller_instances:
            # The reduction and the slot go together: a write's carry-over
            # on another thread replaces both.
            with self._lock:
                self._warm(target, stats)
                overrides["instances"] = self._reduced_instances
                if budget is not None and plain:
                    slot = self._retained_slot(budget, stats)
                    if slot is not None:
                        overrides["retained"] = slot
            if "already_reduced" not in self.plan.kwargs:
                overrides["already_reduced"] = True
        enum = self.plan.instantiate(target, **overrides)
        if self.plan.kind not in _WARMABLE_KINDS:
            # These enumerators read the database when they preprocess:
            # doing it now answers a stream for the data it was opened
            # on, as the reduced instances of warm plans do.
            enum.preprocess()
        if encoding is not None:
            from ..storage.encoded import DecodingEnumerator

            enum = DecodingEnumerator(
                enum,
                encoding.dictionary,
                encoding.decoder(self.plan.kind, self.plan.ranking),
            )
        return enum

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PreparedPlan({self.plan.query.name!r}, kind={self.plan.kind!r}, "
            f"warm={self.is_warm}, executions={self.executions})"
        )
