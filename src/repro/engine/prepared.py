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

Warm state is validated against
:attr:`repro.data.database.Database.generation` before every use and
rebuilt transparently when the data has changed — the generation
counters on ``Relation``/``Database`` are the invalidation hook.
"""

from __future__ import annotations

import time
from typing import Any

from ..algorithms.yannakakis import atom_instances, full_reduce
from ..core.base import RankedEnumeratorBase
from ..core.planner import QueryPlan
from ..data.database import Database
from ..errors import QueryError
from .stats import EngineStats

__all__ = ["PreparedPlan"]

#: Plan kinds whose enumerators accept pre-reduced ``instances``.
_WARMABLE_KINDS = frozenset({"acyclic", "lex"})


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
        "_encoding",
        "_encoding_epoch",
    )

    def __init__(self, plan: QueryPlan, fingerprint: Any, prepare_seconds: float = 0.0):
        self.plan = plan
        self.fingerprint = fingerprint
        self.prepare_seconds = prepare_seconds
        self.executions = 0
        self._db: Database | None = None
        self._generation: int | None = None
        self._reduced_instances: dict[str, list[tuple]] | None = None
        # Set for plans whose query/ranking were translated into code
        # space: the EncodedDatabase they were translated against and
        # the dictionary epoch the translation belongs to.
        self._encoding = None
        self._encoding_epoch: int | None = None

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

    def _check_generation(self, db: Database, stats: EngineStats | None) -> None:
        # Warm state is keyed on the database *object* as well as its
        # generation: equal generations on two different databases say
        # nothing about equal contents.
        generation = db.generation
        if self._reduced_instances is not None and (
            db is not self._db or generation != self._generation
        ):
            # Any write drops the reduction; ``warm`` rebuilds it with
            # the vectorised reducer over the scan views, which the
            # storage layer keeps current from its delta log.
            self._reduced_instances = None
            if stats is not None:
                stats.invalidations += 1
        self._db = db
        self._generation = generation

    def warm(self, db: Database, stats: EngineStats | None = None) -> "PreparedPlan":
        """Build (or refresh) the data-dependent state eagerly.

        Runs ``atom_instances`` + the full reducer once.  Called lazily
        by :meth:`make_enumerator`; call it directly to pay the cost at
        prepare time instead of on the first execution.  Encoded plans
        accept the base database and warm the encoded image.
        """
        db, _encoding = self._execution_target(db)
        self._check_generation(db, stats)
        if self.plan.kind not in _WARMABLE_KINDS or self._reduced_instances is not None:
            return self
        started = time.perf_counter()
        instances = atom_instances(self.plan.query, db)
        self._reduced_instances = full_reduce(self.plan.join_tree, instances)
        self.prepare_seconds += time.perf_counter() - started
        return self

    # ------------------------------------------------------------------ #
    # the factory
    # ------------------------------------------------------------------ #
    def make_enumerator(
        self,
        db: Database,
        stats: EngineStats | None = None,
        **overrides: Any,
    ) -> RankedEnumeratorBase:
        """A fresh one-shot enumerator, using warm state when possible.

        Warm executions of acyclic/lexicographic plans hand the cached
        reduced instances to the enumerator (``already_reduced`` for the
        LinDelay algorithm), so per-execution work shrinks to queue
        construction plus enumeration.  Results are identical to a cold
        :func:`~repro.core.planner.create_enumerator` build: the reduced
        instances are exactly what the cold path derives internally.

        Plans bound to an encoding context accept the *base* database
        here: execution switches to the encoded image and the returned
        enumerator decodes values and scores at emission.
        """
        self.executions += 1
        target, encoding = self._execution_target(db)
        caller_instances = "instances" in overrides or "instances" in self.plan.kwargs
        if self.plan.kind in _WARMABLE_KINDS and not caller_instances:
            self.warm(target, stats)
            overrides["instances"] = self._reduced_instances
            if "already_reduced" not in self.plan.kwargs:
                overrides["already_reduced"] = True
        enum = self.plan.instantiate(target, **overrides)
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
