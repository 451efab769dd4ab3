"""Shared enumerator interface.

Every enumerator in :mod:`repro.core` — the general acyclic algorithm,
the lexicographic backtracker, the star tradeoff structure, the
GHD-based cyclic wrapper, and the union merger — follows the paper's
two-phase contract:

* :meth:`preprocess` builds the data structure (idempotent);
* iteration yields :class:`~repro.core.answers.RankedAnswer` objects in
  rank order without duplicates, consuming internal state (one-shot).

The ordering contract is strict and shared by every subclass: answers
stream sorted ascending by ``(answer.key, answer.values)``, where
``answer.key`` is the bound ranking's comparable key — a pure function
of the output values.  The union enumerator relies on exactly this
property to interleave independent streams without re-sorting.

This mixin provides the derived conveniences so all enumerators expose
an identical surface.
"""

from __future__ import annotations

import time
from typing import Iterator

from .answers import RankedAnswer

__all__ = ["MAX_TOUCHED_FRACTION", "RankedEnumeratorBase", "RetainedSlot"]

#: A write whose changes reach more than this fraction of a retained
#: state drops the state instead of carrying it over: the share of the
#: acyclic state's non-root anchor groups it touches, or of the rows of
#: the lexicographic state's reduction it adds or removes.
MAX_TOUCHED_FRACTION = 0.5


class RetainedSlot:
    """Where a reused plan keeps ranked state between enumerations.

    :class:`repro.engine.prepared.PreparedPlan` creates one empty and
    hands it to every enumerator of the plan (``retained=``).  The first
    enumerator to preprocess puts into :attr:`state` what depends only
    on the data, the plan and the ranking; each later one restarts from
    it instead of rebuilding.  What the state is belongs to the
    enumerator class: the acyclic enumerator's non-root queues and
    ``next`` chains, the lexicographic backtracker's weight tables and
    first-level candidates.

    When the data changes, the plan asks the state for one that holds
    for the new reduction — ``state.carry_over(old, new, diff)``, with
    the old and new data states
    (:class:`repro.engine.data.DataState`), returns ``(state or None,
    anchor groups dropped)`` — and puts it in a new slot, so
    enumerators made before the change keep the old one.  A ``None``
    drops the state.
    """

    __slots__ = ("state",)

    def __init__(self, state=None) -> None:
        self.state = state

    @property
    def cells(self) -> int:
        """Cells the kept state holds (0 for state that keeps none)."""
        return getattr(self.state, "cells", 0)

    @property
    def broken(self) -> bool:
        """True once an error escaped a step over the kept state."""
        return getattr(self.state, "broken", False)


class RankedEnumeratorBase:
    """Mixin with the derived enumeration helpers.

    Subclasses implement ``__iter__`` (and usually ``preprocess``) and
    inherit :meth:`top_k` / :meth:`all`.  Delay guarantees are a
    property of the subclass, not the mixin: after preprocessing,
    producing the *next* answer costs ``O(|D| log |D|)`` worst case for
    the acyclic LinDelay algorithm (``O(log |D|)`` for full /
    free-connex queries), ``O(|D|^{1-ε} log |D|)`` for the star
    structure, ``O(|D|^{fhw} log |D|)`` for the GHD-based cyclic
    wrapper, and the worst branch's delay for unions.  Nothing here
    materialises the full output: space stays bounded by the
    enumerator's own preprocessing structures plus the live priority
    queue entries.

    Examples
    --------
    Any subclass supports the same access patterns:

    >>> from repro.data import Database
    >>> from repro.query import parse_query
    >>> from repro.core.acyclic import AcyclicRankedEnumerator
    >>> db = Database()
    >>> _ = db.add_relation("R", ("a", "b"), [(1, 10), (2, 10), (3, 99)])
    >>> q = parse_query("Q(a1, a2) :- R(a1, p), R(a2, p)")
    >>> AcyclicRankedEnumerator(q, db).top_k(3)
    [RankedAnswer((1, 1), score=2.0), RankedAnswer((1, 2), score=3.0), RankedAnswer((2, 1), score=3.0)]
    >>> len(AcyclicRankedEnumerator(q, db).all())
    5
    """

    def preprocess(self):
        """Build the enumeration data structure (default: nothing).

        Idempotent; iteration calls it implicitly.  This is the phase
        the paper bounds separately — ``O(|D|)`` for acyclic queries,
        ``O(|D|^{1+ε})`` for the star structure, ``O(|D|^{fhw})`` for
        cyclic queries — so callers can measure or amortise it apart
        from enumeration (the engine's warm plans do exactly that).
        """
        return self

    def __iter__(self) -> Iterator[RankedAnswer]:  # pragma: no cover - interface
        """Yield distinct answers sorted by ``(rank key, output tuple)``."""
        raise NotImplementedError

    def top_k(self, k: int) -> list[RankedAnswer]:
        """The first ``k`` ranked answers (fewer if the output is smaller).

        This is the paper's ``LIMIT k`` access pattern: cost scales with
        ``k`` times the delay, not with the full output — the whole
        point of ranked enumeration over materialise-then-sort.
        """
        out: list[RankedAnswer] = []
        if k <= 0:
            return out
        self.preprocess()
        started = time.perf_counter()
        for answer in self:
            out.append(answer)
            if len(out) >= k:
                break
        self._note_enumerate_seconds(time.perf_counter() - started)
        return out

    def all(self) -> list[RankedAnswer]:
        """The complete ranked output (no LIMIT clause).

        Unlike iteration, this does materialise the output list —
        ``O(|Q(D)|)`` space in the caller's hands; the enumerator's own
        extra space stays at its documented bound.
        """
        self.preprocess()
        started = time.perf_counter()
        out = list(self)
        self._note_enumerate_seconds(time.perf_counter() - started)
        return out

    def _note_enumerate_seconds(self, elapsed: float) -> None:
        """Accumulate emission time into ``stats.enumerate_seconds``."""
        stats = getattr(self, "stats", None)
        if stats is not None and hasattr(stats, "enumerate_seconds"):
            stats.enumerate_seconds += elapsed

    def fresh(self):  # pragma: no cover - overridden where reuse matters
        """A reset clone able to enumerate again; override per subclass."""
        raise NotImplementedError(f"{type(self).__name__} does not support fresh()")
