"""Prepared plans: a cached :class:`~repro.core.planner.QueryPlan` plus
warm state, in two halves.

A :class:`PreparedPlan` is what the engine's plan cache stores.  It
wraps the data-independent plan (join tree / GHD / classification —
reusable forever) together with the *warm* state that depends on the
database contents, split by what that state depends on besides the
data:

* The **data half** (:class:`~repro.engine.data.DataState`) depends on
  the query and the data alone: the fully-reduced per-atom instances
  (the full reducer's output, which
  :class:`~repro.core.acyclic.AcyclicRankedEnumerator` and
  :class:`~repro.core.lexicographic.LexBacktrackEnumerator` accept via
  their ``instances`` parameter, skipping the O(|D|) reducer pass), the
  lexicographic row indexes over them, a cyclic plan's materialised and
  reduced GHD bags, and a union's per-branch states.  The plan only
  points at it: the engine keeps one per query and database generation
  and hands the same one to every plan of the query, whatever its
  ranking, so a fresh ranking object — a plan-cache miss — still skips
  the reduction and the bag materialisation.
* The **ranked half** (:class:`~repro.core.base.RetainedSlot`) depends on
  the ranking too, so it is the plan's own.  From a reused plan's second
  enumerator on, an acyclic plan keeps its non-root queues and ``next``
  chains, so each later stream restarts at the root instead of
  rebuilding them, and a lexicographic plan keeps its weight tables and
  sorted first-level candidates.  No answers are kept: every stream pops
  its own root queue.  The engine caps the cells all plans keep together
  (:class:`RetainedBudget`, LRU over plans).

Warm state is validated against
:attr:`repro.data.database.Database.generation` before every use and
replaced transparently when the data has changed — the generation
counters on ``Relation``/``Database`` are the invalidation hook.  After
a change the plan gets the new generation's data state (built once for
all plans of the query, with the row indexes patched rather than
rebuilt), diffs it against the old one
(:func:`~repro.algorithms.yannakakis.reduction_diff`) and carries the
ranked state over: only what the write reached is dropped or patched,
in a new slot, so enumerators made before the write keep the old slot
and the old data state (:meth:`PreparedPlan.warm`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any

from ..core.base import RankedEnumeratorBase, RetainedSlot
from ..core.planner import QueryPlan
from ..data.database import Database
from ..errors import QueryError
from .data import DataSpec, DataState, DataStates
from .stats import EngineStats

__all__ = ["PreparedPlan"]

#: Plan kinds whose enumerators keep ranked state (``retained=``).
_RANKED_KINDS = frozenset({"acyclic", "lex"})

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
    different database (or mutating the current one) swaps it for the
    data state of that database now.
    """

    __slots__ = (
        "plan",
        "fingerprint",
        "prepare_seconds",
        "executions",
        "_states",
        "_spec",
        "_data",
        "_ranked",
        "_encoding",
        "_encoding_epoch",
        "_lock",
    )

    def __init__(
        self,
        plan: QueryPlan,
        fingerprint: Any,
        prepare_seconds: float = 0.0,
        *,
        data_states: DataStates | None = None,
    ):
        self.plan = plan
        self.fingerprint = fingerprint
        self.prepare_seconds = prepare_seconds
        self.executions = 0
        # Where the plan finds its data state: the engine's registry,
        # shared with the query's other plans, or a private one.
        self._states = data_states if data_states is not None else DataStates()
        self._spec: DataSpec | None = None
        self._data: DataState | None = None
        # Ranked state kept for the plan's enumerators (see RetainedSlot).
        self._ranked: RetainedSlot | None = None
        # Set for plans whose query/ranking were translated into code
        # space: the EncodedDatabase they were translated against and
        # the dictionary epoch the translation belongs to.
        self._encoding = None
        self._encoding_epoch: int | None = None
        # Serialises the generation check, the data-state lookup and the
        # carry-over for streams of one plan on several threads.
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
        """True when the plan holds a data state."""
        return self._data is not None

    @property
    def data_state(self) -> DataState | None:
        """The data state the plan's enumerators read (``None`` until
        the first execution, and for plans that have none)."""
        return self._data

    def _uses_data(self, overrides: dict[str, Any]) -> bool:
        """Do this plan's enumerators read a data state?  Not star plans,
        nor plans given instances or a union branch factory by the
        caller."""
        if self.plan.kind == "star":
            return False
        kwargs = self.plan.kwargs
        return not (
            "instances" in kwargs
            or "branch_factory" in kwargs
            or "instances" in overrides
            or "branch_factory" in overrides
        )

    def _check_generation(self, db: Database, stats: EngineStats | None) -> tuple:
        """Drop the data state if ``db`` is not the data it was built
        over; returns what was dropped, ``(data state, ranked slot)``,
        for a carry-over (``(None, None)`` when nothing was)."""
        # Warm state is keyed on the database *object* as well as its
        # generation: equal generations on two different databases say
        # nothing about equal contents.
        data = self._data
        dropped = None, None
        if data is not None and (db is not data.db or db.generation != data.generation):
            # Any write drops the data state; ``warm`` gets the new
            # generation's and carries the ranked state over to it.
            if db is data.db:
                dropped = data, self._ranked
            self.drop_warm_state()
            if stats is not None:
                stats.invalidations += 1
        return dropped

    def drop_warm_state(self) -> None:
        """Forget the data state and the ranked state built over it."""
        self._data = None
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
        """Get the data state eagerly.

        Called lazily by :meth:`make_enumerator`; call it directly to
        pay the cost at prepare time instead of on the first execution.
        The data state comes from the engine's registry, built there
        once per query and database generation — ``atom_instances`` and
        the full reducer for an acyclic plan, the bags for a cyclic one.
        Encoded plans accept the base database and warm the encoded
        image.  After a write, the ranked state is carried over to the
        new data state (:meth:`_carry_over`).
        """
        db, _encoding = self._execution_target(db)
        with self._lock:
            self._warm(db, stats)
        return self

    def _warm(self, db: Database, stats: EngineStats | None) -> None:
        """:meth:`warm` over the execution target, under the plan lock."""
        old, slot = self._check_generation(db, stats)
        if self._data is not None or not self._uses_data({}):
            return
        started = time.perf_counter()
        if self._spec is None:
            self._spec = DataSpec(self.plan)
        self._data = self._states.get(self._spec, db, old, stats)
        if slot is not None and slot.state is not None:
            self._carry_over(old, slot.state, stats)
        self.prepare_seconds += time.perf_counter() - started

    def _carry_over(self, old: DataState, state, stats: EngineStats | None) -> None:
        """Keep the part of ``state`` (built over the data state ``old``)
        that the write did not reach, in a new slot for the new data
        state: enumerators made before the write keep the old slot.
        Counted in ``ranked_carryovers`` and ``ranked_groups_dropped``;
        a state that cannot be carried over is dropped."""
        new = self._data
        diff = new.diff_from(old)
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

        Every plan but a star plan hands its data state to the
        enumerator: the reduced instances (``already_reduced``, so the
        reducer pass is skipped) and the row indexes of an acyclic or
        lexicographic plan, the reduced bags of a cyclic one, each
        branch's state for a union.  Given a ``budget`` (the engine's),
        a reused acyclic or lexicographic plan also hands over its
        retained ranked state: from the second execution on, an acyclic
        enumerator restarts at the root of the queues an earlier one
        built, and a lexicographic one reuses its weight tables and
        first-level candidates (counted in ``stats.ranked_restarts``).
        Results are identical to a cold
        :func:`~repro.core.planner.create_enumerator` build: the data
        state is exactly what the cold path derives internally, and a
        restart pops its own root queue over the same non-root ``next``
        chains a cold build would compute.  Callers that pass
        ``overrides`` get no ranked state.

        Plans bound to an encoding context accept the *base* database
        here: execution switches to the encoded image and the returned
        enumerator decodes values and scores at emission.
        """
        self.executions += 1
        target, encoding = self._execution_target(db)
        # Overrides can change what an enumerator builds, so only
        # enumerators configured by the plan alone share ranked state.
        plain = not overrides
        uses_data = self._uses_data(overrides)
        if uses_data:
            # The data state and the slot go together: a write's
            # carry-over on another thread replaces both.
            with self._lock:
                self._warm(target, stats)
                data = self._spec.overrides(self._data)
                if self.plan.kind in _RANKED_KINDS and budget is not None and plain:
                    slot = self._retained_slot(budget, stats)
                    if slot is not None:
                        data["retained"] = slot
            if "already_reduced" in self.plan.kwargs:
                data.pop("already_reduced", None)
            overrides = {**data, **overrides}
        enum = self.plan.instantiate(target, **overrides)
        if not uses_data and self.plan.kind not in _RANKED_KINDS:
            # These enumerators read the database when they preprocess:
            # doing it now answers a stream for the data it was opened
            # on, as a data state does.
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
