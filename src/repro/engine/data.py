"""Data states: the ranking-independent half of prepared plans.

The paper's preprocessing comes before any ranking applies: the full
reducer's output for an acyclic query and the materialised GHD bags of a
cyclic one (built in ``O(|D|^fhw)``) depend on the data alone.  A
:class:`DataState` holds that work for one query over one database
generation, and every plan of the query shares it, whatever its ranking:

* the reduced instances (a
  :class:`~repro.algorithms.yannakakis.ReducedInstances`, with the
  exactly-int and distinct-domain memos it carries) for acyclic and
  lexicographic plans;
* the lexicographic backtracker's row indexes over them, built on first
  use by whichever plan needs one;
* for cyclic plans, the materialised and reduced bags
  (:class:`~repro.core.cyclic.GHDBags`);
* for union plans, one data state per branch.

:class:`DataStates` is the engine's registry of them: weakly valued, so
a state lives exactly as long as some plan holds it and the plan cache's
bound bounds the states too.  After a write, the first plan of a query
to run builds the new generation's state once from the state it held:
the reduction keeps the aliases the write did not reach, and the row
indexes are carried over (:meth:`DataState.carry_row_groups`); the
query's other plans find it there.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any

from ..algorithms.yannakakis import atom_instances, full_reduce, reduction_diff
from ..core.cyclic import materialise_bags
from ..core.lexicographic import patched_row_groups
from ..core.planner import QueryPlan, plan_query
from ..data.database import Database
from .stats import EngineStats

__all__ = ["DataSpec", "DataState", "DataStates"]


class DataSpec:
    """What a plan's data state is built from: the query and the shape
    its reduction runs over — the join tree of an acyclic or
    lexicographic plan, the GHD of a cyclic one, the branches' specs of
    a union.

    :attr:`key` names that shape: plans whose keys are equal (a SUM and
    a LEX plan of one query root at the same join tree) share a data
    state over the same database generation.
    """

    __slots__ = ("kind", "query", "join_tree", "ghd", "branches", "key")

    def __init__(self, plan: QueryPlan):
        self.kind = plan.kind
        self.query = plan.query
        self.join_tree = plan.join_tree
        self.ghd = plan.ghd
        self.branches: tuple[DataSpec, ...] = ()
        if plan.kind == "union":
            # The branch plans the union enumerator makes: the ranking
            # picks their kind, not their data.
            self.branches = tuple(
                DataSpec(plan_query(branch, plan.ranking))
                for branch in plan.query.branches
            )
            shape: Any = tuple(branch.key for branch in self.branches)
        elif plan.kind == "cyclic":
            shape = (
                tuple(
                    (tuple(sorted(bag.variables)), tuple(bag.contained_atom_aliases))
                    for bag in plan.ghd.bags
                ),
                plan.ghd.tree_edges,
            )
        else:
            shape = tuple(
                (node.alias, None if node.parent is None else node.parent.alias)
                for node in plan.join_tree.pre_order()
            )
        family = "tree" if plan.kind in ("acyclic", "lex") else plan.kind
        self.key = (family, self.query, shape)

    def build(
        self,
        db: Database,
        generation: int,
        old: "DataState | None",
        states: "DataStates",
        stats: EngineStats | None,
    ) -> "DataState":
        """The data state over ``db`` at ``generation`` (read before the
        build began); ``old`` (the plan's state over an earlier
        generation of ``db``, or ``None``) lends its reduction — the
        aliases the write did not reach keep their rows and what was
        derived from them (:func:`~repro.algorithms.yannakakis.full_reduce`'s
        ``previous``) — and its row indexes."""
        if self.branches:
            olds = old.branches if old is not None else (None,) * len(self.branches)
            branches = tuple(
                states.get(spec, db, prior, stats)
                for spec, prior in zip(self.branches, olds)
            )
            return DataState(db, generation, branches=branches)
        if self.kind == "cyclic":
            bags = materialise_bags(self.query, db, self.ghd)
            return DataState(db, generation, bags.instances, bags=bags)
        instances = full_reduce(
            self.join_tree,
            atom_instances(self.query, db),
            previous=None if old is None else old.instances,
        )
        state = DataState(db, generation, instances)
        if old is not None:
            state.carry_row_groups(old)
        return state

    def overrides(self, state: "DataState") -> dict[str, Any]:
        """The enumerator keywords that hand ``state`` to a plan of this
        spec's kind."""
        if self.branches:
            return {
                "branch_data": [
                    spec.overrides(branch)
                    for spec, branch in zip(self.branches, state.branches)
                ]
            }
        if self.kind == "cyclic":
            return {"ghd": self.ghd, "bags": state.bags}
        out = {
            "join_tree": self.join_tree,
            "instances": state.instances,
            "already_reduced": True,
        }
        if self.kind == "lex":
            out["row_groups"] = state.row_groups
        return out


class DataState:
    """The data-only state of one query over one database generation.

    Built by :meth:`DataSpec.build` and shared by every plan of the
    query through :class:`DataStates`; read, never modified, by the
    enumerators, except :attr:`row_groups`, which lexicographic
    enumerators fill as they build indexes.

    Attributes
    ----------
    db / generation:
        The database it was built over, and that database's generation
        when the build began.
    instances:
        The reduced instances (the bags' for a cyclic plan; ``None`` for
        a union).
    row_groups:
        Row indexes over :attr:`instances`, ``(alias, positions) -> rows
        grouped by their values there``, built on first use.
    bags / branches:
        A cyclic plan's :class:`~repro.core.cyclic.GHDBags`; a union
        plan's per-branch states.
    """

    __slots__ = (
        "db",
        "generation",
        "instances",
        "row_groups",
        "bags",
        "branches",
        "_diff",
        "__weakref__",
    )

    def __init__(
        self, db: Database, generation: int, instances=None, *, bags=None, branches=()
    ):
        self.db = db
        self.generation = generation
        self.instances = instances
        self.row_groups: dict = {}
        self.bags = bags
        self.branches = branches
        # The last diff asked of this state: (weak reference to the older
        # state, the diff).
        self._diff: tuple | None = None

    def diff_from(self, old: "DataState") -> dict | None:
        """:func:`~repro.algorithms.yannakakis.reduction_diff` from
        ``old``'s reduction to this one, remembered for the last ``old``
        asked about: the plans of one query ask about the same one."""
        memo = self._diff
        if memo is not None and memo[0]() is old:
            return memo[1]
        diff = reduction_diff(old.instances, self.instances)
        self._diff = (weakref.ref(old), diff)
        return diff

    def carry_row_groups(self, old: "DataState") -> None:
        """Start from ``old``'s row indexes, patched for the rows the
        write added and removed
        (:func:`~repro.core.lexicographic.patched_row_groups`), instead
        of building them again on use."""
        # A copy: streams still open on ``old`` may add indexes meanwhile.
        groups = dict(old.row_groups)
        if not groups:
            return
        diff = self.diff_from(old)
        if diff is None:
            return
        patched = patched_row_groups(groups, old.instances, self.instances, diff)
        if patched is not None:
            self.row_groups = patched


class DataStates:
    """One engine's data states, one per data key, database and
    generation; weakly held, so a state lives as long as a plan holds it.

    :meth:`get` returns the state a plan should use over ``db`` now,
    building it once for all the plans of its query (counted in
    ``data_builds``; a reuse counts in ``data_hits``).  The database is
    part of the key by identity: equal generations on two databases say
    nothing about equal contents.
    """

    def __init__(self):
        self._states: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        # Re-entrant: a union's build gets its branches' states.
        self._lock = threading.RLock()

    def get(
        self,
        spec: DataSpec,
        db: Database,
        old: DataState | None = None,
        stats: EngineStats | None = None,
    ) -> DataState:
        """The state of ``spec``'s query over ``db`` now, built (from
        ``old``, see :meth:`DataSpec.build`) if no plan has it yet."""
        # A live state holds its database, so the id cannot be reused
        # while the entry exists.
        generation = db.generation
        key = (spec.key, id(db), generation)
        with self._lock:
            state = self._states.get(key)
            if state is not None and state.db is db:
                if stats is not None:
                    stats.data_hits += 1
                return state
            state = spec.build(db, generation, old, self, stats)
            self._states[key] = state
            if stats is not None:
                stats.data_builds += 1
            return state

    def clear(self) -> None:
        """Forget every state (plans still holding one keep it)."""
        with self._lock:
            self._states.clear()

    def __len__(self) -> int:
        return len(self._states)
