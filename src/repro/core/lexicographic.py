"""Lexicographic enumeration by semi-join backtracking (paper §3.2,
Algorithm 3 — ``EnumAcyclicLexi``).

For ``LEXICOGRAPHIC`` ranking the general priority-queue machinery is
overkill: the global order implies a local order per attribute, so the
algorithm simply walks the projection attributes in comparison order,
fixing one value at a time:

1. sort the candidate values of the current attribute (ascending or
   descending per attribute — the ``ORDER BY A1 ASC, A2 DESC`` case the
   paper highlights);
2. at the last attribute, emit every candidate: the instance holding
   them is a full-reducer output over an acyclic join tree, hence
   globally consistent, so each one completes an answer;
3. at an earlier attribute, for each value filter the relations
   containing the attribute and run a full-reducer pass (the paper's
   "two-phase semi-joins"), which both prunes dead branches and exposes
   the candidate values of the next attribute, then recurse.

Every full assignment is one distinct output, and a reducer pass is
paid per value of an earlier attribute, never per answer.

Guarantees (Lemma 4): ``O(|D|)`` delay after ``O(|D| log |D|)``
preprocessing with ``O(|D|)`` space — and no priority queues, which is
where the paper's measured 2-3x speed-up over the SUM machinery comes
from (Figure 6).  The hash indexes of the first level are built on
first use, each at ``O(|D|)`` once, which leaves the bound intact.  They
depend on the data alone: the engine keeps them with the reduction, for
every ranking of the query (``row_groups=``), and patches them for the
rows a write adds and removes (:func:`patched_row_groups`).  A reused
engine plan also keeps its per-variable weight tables and the first
level's sorted candidates for its later enumerators (``retained=``),
and patches the candidates over a write (:meth:`_LexState.carry_over`).
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from collections import defaultdict
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from ..algorithms.yannakakis import atom_instances, full_reduce, instance_domain
from ..data.database import Database
from ..errors import QueryError, RankingError
from ..query.jointree import JoinTree, build_join_tree
from ..query.query import JoinProjectQuery
from ..storage.dictionary import code_order
from .answers import EnumerationStats, RankedAnswer
from .base import MAX_TOUCHED_FRACTION, RankedEnumeratorBase, RetainedSlot
from .ranking import Desc, WeightFunction, batched_weight_table

__all__ = ["LexBacktrackEnumerator", "patched_row_groups"]

Row = tuple

_MISSING = object()  # weight-table sentinel: raising values stay uncached


def _join_key(positions: tuple[int, ...]):
    """Row -> its values at ``positions``: the bare value for one
    position, a tuple for several, and ``()`` for none (a cartesian
    join-tree edge, across which every row joins every row)."""
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _value_key(weight: WeightFunction | None, table: dict | None, var: str, value):
    """Per-attribute comparison key: ``(w(value), value)`` when a weight
    function is configured, the raw value otherwise.

    Weighted comparisons read ``table``, the cached weight table built
    in :meth:`LexBacktrackEnumerator.preprocess` (one weight call per
    distinct value); values outside it call the weight function
    directly — same result, same errors.
    """
    if weight is None:
        return value
    if table is not None:
        w = table.get(value, _MISSING)
        if w is not _MISSING:
            return (w, value)
    return (weight(var, value), value)


def _candidate(weight, table, var: str, descending: bool, value) -> tuple:
    """``(key part, value)``: one entry of a level's sorted candidates."""
    part = _value_key(weight, table, var, value)
    return (Desc(part) if descending else part, value)


def _patched(index: dict, key, added: list, removed: list) -> dict:
    """``index`` (rows grouped by ``key``) with ``removed`` taken out and
    ``added`` put in, as a new dict: the lists of untouched keys are
    shared, and no list of ``index`` is modified."""
    out = dict(index)
    gone: dict = defaultdict(set)
    for row in removed:
        gone[key(row)].add(row)
    for k, rows in gone.items():
        left = [row for row in out.get(k, ()) if row not in rows]
        if left:
            out[k] = left
        else:
            out.pop(k, None)
    grown: dict = defaultdict(list)
    for row in added:
        grown[key(row)].append(row)
    for k, rows in grown.items():
        out[k] = out.get(k, []) + rows
    return out


def _changed_rows(old, new, diff) -> dict[str, tuple[list, list]]:
    """Per alias that ``diff`` touches: its added rows (from ``new``) and
    removed rows (from ``old``)."""
    rows_of = {}
    for alias, (added, removed) in diff.items():
        if len(added) or len(removed):
            old_rows, new_rows = old[alias], new[alias]
            rows_of[alias] = (
                [new_rows[i] for i in added.tolist()],
                [old_rows[i] for i in removed.tolist()],
            )
    return rows_of


def _touches_much(new, diff) -> bool:
    """Does ``diff`` add or remove more than
    :data:`~repro.core.base.MAX_TOUCHED_FRACTION` of the rows of ``new``?"""
    changed = sum(len(added) + len(removed) for added, removed in diff.values())
    return changed > MAX_TOUCHED_FRACTION * sum(len(rows) for rows in new.values())


def patched_row_groups(row_groups: dict, old, new, diff) -> dict | None:
    """Row indexes built over the reduction ``old`` (``(alias,
    positions) -> rows grouped by their values there``, as
    :meth:`LexBacktrackEnumerator._index` builds them), patched to hold
    for ``new``, a later reduction of the same query: the rows ``diff``
    adds and removes are put in and taken out (:func:`_patched`), and
    the indexes of untouched aliases are shared.  ``None`` — build them
    again on use — when more than
    :data:`~repro.core.base.MAX_TOUCHED_FRACTION` of the rows changed.
    """
    if _touches_much(new, diff):
        return None
    rows_of = _changed_rows(old, new, diff)
    return {
        (alias, positions): (
            index
            if alias not in rows_of
            else _patched(index, _join_key(positions), *rows_of[alias])
        )
        for (alias, positions), index in row_groups.items()
    }


class _LexState:
    """What a reused lexicographic plan keeps (``retained=``): the weight
    tables and the first level's sorted candidates once a stream has
    sorted them.  (The row indexes depend on the data alone; they are
    kept with the reduction, see ``row_groups=``.)

    ``first`` is the first order variable's holder ``(alias, position)``
    and ``candidate_of`` makes its candidate entries
    (:func:`_candidate`), so :meth:`carry_over` can patch the kept list.
    """

    __slots__ = ("weight_tables", "candidates", "first", "candidate_of")

    def __init__(self, weight_tables, candidates, first, candidate_of):
        self.weight_tables = weight_tables
        self.candidates = candidates
        self.first = first
        self.candidate_of = candidate_of

    def carry_over(self, old, new, diff) -> tuple["_LexState | None", int]:
        """The state for ``new``, the data state of a later reduction of
        the same plan (``old`` is this state's): the kept candidates with
        the first variable's vanished values taken out and new ones put
        in by bisection, which reads the first variable's row index in
        both data states.  The weight tables are kept as they are
        (values they miss are weighed directly).  Drops nothing, so the
        second item is 0; ``(None, 0)`` when more than
        :data:`~repro.core.base.MAX_TOUCHED_FRACTION` of the rows
        changed.
        """
        if _touches_much(new.instances, diff):
            return None, 0
        alias, pos = self.first
        candidates = self.candidates
        added, removed = diff[alias]
        if candidates is not None and (len(added) or len(removed)):
            first_key = (alias, (pos,))
            before = old.row_groups.get(first_key)
            after = new.row_groups.get(first_key)
            if before is None or after is None:
                candidates = None
            else:
                gone = {old.instances[alias][i][pos] for i in removed.tolist()}
                came = {new.instances[alias][i][pos] for i in added.tolist()}
                candidates = list(candidates)
                part = itemgetter(0)
                for value in gone - after.keys():
                    del candidates[bisect_left(candidates, self.candidate_of(value)[0], key=part)]
                for value in came - before.keys():
                    insort(candidates, self.candidate_of(value), key=part)
        state = _LexState(self.weight_tables, candidates, self.first, self.candidate_of)
        return state, 0


class LexBacktrackEnumerator(RankedEnumeratorBase):
    """Algorithm 3: lexicographic ranked enumeration without priority queues.

    Parameters
    ----------
    query:
        An acyclic join-project query.
    db:
        The database instance.
    order:
        Attribute comparison order; must be a permutation of the head.
        Defaults to the head order itself.
    descending:
        Head variables to enumerate in descending order.
    weight:
        Optional per-value weight function: order each attribute by
        ``w(value)`` (refined by the raw value on ties) instead of the
        raw value — the paper's ``ORDER BY A1.weight, A2.weight`` form.
    join_tree:
        Optional pre-built join tree.
    instances:
        Optional per-alias atom instances to enumerate instead of the
        database's; they are read, never copied or modified.
    already_reduced:
        The given ``instances`` already went through a full reducer, so
        :meth:`preprocess` skips its own pass.  Dangling rows are still
        tolerated: the first attribute is always checked by a reducer
        pass per value, even when it is the last one.
    row_groups:
        A dict in which the row indexes of the given ``instances`` are
        kept as they are built (:meth:`_index`), shared by every
        enumerator over the same instances whatever its order or weight:
        the engine passes its data state's.  Defaults to a private one.
    retained:
        A :class:`~repro.core.base.RetainedSlot` shared by the
        enumerators of one plan over the same ``instances`` (the engine
        passes it to reused warm plans).  The weight tables and
        first-level candidates depend only on the data, the plan and the
        weight, so the first enumerator keeps them there
        (:class:`_LexState`) and later ones reuse them.

    The emitted :attr:`RankedAnswer.score` (and :attr:`~RankedAnswer.key`)
    is the comparison tuple: head values arranged in ``order``, with
    descending attributes order-reversed inside the key so keys from
    different enumerators merge correctly.

    Examples
    --------
    >>> from repro.data import Database
    >>> from repro.query import parse_query
    >>> db = Database()
    >>> _ = db.add_relation("R", ("a", "b"), [(2, 10), (1, 10), (1, 20)])
    >>> q = parse_query("Q(a1, a2) :- R(a1, p), R(a2, p)")
    >>> [a.values for a in LexBacktrackEnumerator(q, db)]
    [(1, 1), (1, 2), (2, 1), (2, 2)]
    """

    def __init__(
        self,
        query: JoinProjectQuery,
        db: Database,
        *,
        order: Sequence[str] | None = None,
        descending: Iterable[str] = (),
        weight: WeightFunction | None = None,
        join_tree: JoinTree | None = None,
        instances: Mapping[str, list[Row]] | None = None,
        already_reduced: bool = False,
        row_groups: dict | None = None,
        retained: RetainedSlot | None = None,
    ):
        self.query = query
        self.db = db
        self._already_reduced = already_reduced
        self._retained = retained
        self._order = tuple(order) if order is not None else query.head
        if sorted(self._order) != sorted(query.head):
            raise RankingError(
                f"lexicographic order {self._order} must be a permutation of the "
                f"head {query.head}"
            )
        self._descending = frozenset(descending)
        self._weight = weight
        unknown = self._descending - set(query.head)
        if unknown:
            raise RankingError(f"descending variables {sorted(unknown)} not in the head")
        self.join_tree = join_tree or build_join_tree(query)
        self._given_instances = instances
        self.stats = EnumerationStats()
        self._instances: Mapping[str, list[Row]] | None = None
        self._exhausted = False
        self._kept: _LexState | None = None
        self._weight_tables: dict[str, dict] = {}
        self._adjacency: dict[str, list[tuple[str, tuple[int, ...], tuple[int, ...]]]] = {}
        # Row groups by (alias, positions), built on first use (_index).
        self._row_groups: dict[tuple[str, tuple[int, ...]], dict] = (
            {} if row_groups is None else row_groups
        )
        self._unbilled_build_seconds = 0.0
        # Atoms (alias, position) containing each order variable.
        self._holders: dict[str, list[tuple[str, int]]] = {}
        for var in self._order:
            holders = [
                (atom.alias, atom.variables.index(var))
                for atom in query.atoms
                if var in atom.var_set
            ]
            if not holders:  # pragma: no cover - head validation precludes this
                raise QueryError(f"head variable {var!r} appears in no atom")
            self._holders[var] = holders
        # An answer's values are its comparison-order values, permuted
        # into head order.
        perm = tuple(self._order.index(v) for v in query.head)
        if perm == tuple(range(len(perm))):
            self._head_of = lambda values: values
        else:
            self._head_of = itemgetter(*perm)

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #
    def preprocess(self) -> "LexBacktrackEnumerator":
        """Full-reducer pass, per-variable weight tables and the join-tree
        adjacency the first level walks.

        The paper's hash indexes ("create hash indexes for the base
        relations in sorted order") are not built here but on first use
        by :meth:`_index`, in the one direction the first level reads
        them, so a request that never leaves the last attribute builds
        none.
        """
        if self._instances is not None:
            return self
        started = time.perf_counter()
        if self._given_instances is not None:
            instances = self._given_instances
        else:
            instances = atom_instances(self.query, self.db)
        if self._already_reduced:
            self._instances = instances
        else:
            self._instances = full_reduce(self.join_tree, instances)
        self.stats.reduce_seconds = time.perf_counter() - started

        # Cached per-variable weight tables: one batched weight call over
        # the distinct domain the reduction memoises (shared by every
        # ranking of a warm plan's data state), so the candidate sorts
        # read a dict instead of re-calling the weight function per
        # value per backtracking level.  The cached entry is the weight
        # call's exact return value, so comparison keys are unchanged;
        # values absent from a table (or whole columns that refuse) fall
        # back to the direct call, raising identically where the
        # uncached path would.  A retained slot shares the tables with
        # the plan's later enumerators.
        kept = None if self._retained is None else self._retained.state
        if kept is not None:
            self._weight_tables = kept.weight_tables
        else:
            if self._weight is not None:
                for var in self._order:
                    alias0, pos0 = self._holders[var][0]
                    table = batched_weight_table(
                        self._weight, var, self._instances, alias0, pos0
                    )
                    if table is not None:
                        self._weight_tables[var] = table
            if self._retained is not None:
                var = self._order[0]
                kept = self._retained.state = _LexState(
                    self._weight_tables,
                    None,
                    self._holders[var][0],
                    partial(
                        _candidate,
                        self._weight,
                        self._weight_tables.get(var),
                        var,
                        var in self._descending,
                    ),
                )
        self._kept = kept

        # Both directions of every join-tree edge, as
        # (neighbour, own positions, neighbour positions).
        for node in self.join_tree.nodes:
            if node.parent is None:
                continue
            a, b = node.alias, node.parent.alias
            a_vars = node.atom.variables
            b_vars = node.parent.atom.variables
            shared = [v for v in a_vars if v in b_vars]
            a_pos = tuple(a_vars.index(v) for v in shared)
            b_pos = tuple(b_vars.index(v) for v in shared)
            self._adjacency.setdefault(a, []).append((b, a_pos, b_pos))
            self._adjacency.setdefault(b, []).append((a, b_pos, a_pos))
        self.stats.preprocess_seconds = time.perf_counter() - started
        self.stats.build_seconds = (
            self.stats.preprocess_seconds - self.stats.reduce_seconds
        )
        return self

    def _index(self, alias: str, positions: tuple[int, ...]) -> dict:
        """The preprocessed rows of ``alias`` grouped by their values at
        ``positions`` (keys as :func:`_join_key` makes them), built on
        first use.

        The build is preprocessing work whichever call triggers it: its
        time goes into ``stats.build_seconds`` and
        ``stats.preprocess_seconds`` and is kept out of
        ``stats.enumerate_seconds``.
        """
        index = self._row_groups.get((alias, positions))
        if index is None:
            started = time.perf_counter()
            index = defaultdict(list)
            key = _join_key(positions)
            for row in self._instances[alias]:  # type: ignore[index]
                index[key(row)].append(row)
            self._row_groups[(alias, positions)] = index
            elapsed = time.perf_counter() - started
            self.stats.build_seconds += elapsed
            self.stats.preprocess_seconds += elapsed
            self._unbilled_build_seconds += elapsed
        return index

    def _note_enumerate_seconds(self, elapsed: float) -> None:
        super()._note_enumerate_seconds(elapsed - self._unbilled_build_seconds)
        self._unbilled_build_seconds = 0.0

    def _index_reduce(self, seeds: dict[str, list[Row]]) -> dict[str, list[Row]]:
        """Propagate a depth-0 filter outward through the edge indexes.

        ``seeds`` holds filtered row lists for the atoms containing the
        fixed variable; every other atom is narrowed to the rows joining
        the wavefront, by index lookup, in BFS order over the join tree.
        The result over-approximates the reduced instance (one outward
        wave only) but is small, so the exact :func:`full_reduce` that
        follows is cheap.
        """
        state = dict(seeds)
        frontier = list(seeds)
        visited = set(seeds)
        while frontier:
            current = frontier.pop()
            for neighbour, cur_pos, nb_pos in self._adjacency.get(current, ()):
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                index = self._index(neighbour, nb_pos)
                rows: list[Row] = []
                for key in set(map(_join_key(cur_pos), state[current])):
                    rows.extend(index.get(key, ()))
                state[neighbour] = rows
                frontier.append(neighbour)
        # Atoms disconnected from every seed keep their full reduced rows.
        for alias, rows in self._instances.items():  # type: ignore[union-attr]
            state.setdefault(alias, rows)
        return state

    def __iter__(self) -> Iterator[RankedAnswer]:
        self.preprocess()
        if self._exhausted:
            raise QueryError(
                "enumerator already consumed; call fresh() to enumerate again"
            )
        self._exhausted = True
        assert self._instances is not None
        if any(not rows for rows in self._instances.values()):
            return  # empty join
        yield from self._enum(self._instances, 0, (), ())

    def _enum(
        self,
        instances: Mapping[str, list[Row]],
        depth: int,
        fixed: tuple,
        key: tuple,
    ) -> Iterator[RankedAnswer]:
        """Answers extending ``fixed``, the values of the first ``depth``
        attributes in comparison order.  ``key`` holds their key parts,
        one per level, each computed once by that level's candidate
        sort and shared by every answer below it."""
        if depth == len(self._order):
            yield self._answer(fixed, key)
            return

        var = self._order[depth]
        holders = self._holders[var]
        kept = self._kept if depth == 0 else None
        candidates = None if kept is None else kept.candidates
        if candidates is None:
            alias0, pos0 = holders[0]
            value_key = partial(_value_key, self._weight, self._weight_tables.get(var), var)
            # The first level's values: the reduction's memoised sorted
            # domain when it has one (no pass over the rows).
            domain = instance_domain(instances, alias0, pos0) if depth == 0 else None
            if domain is not None:
                values = domain.tolist()
            else:
                values = {row[pos0] for row in instances[alias0]}
                if self._weight is not None:
                    # Code order, as the domain is: ties the key sort
                    # cannot break (NaN weights) come out as in every
                    # other mode.  Unweighted keys never tie.
                    values = code_order(values)
            candidates = [(value_key(v), v) for v in values]
            if var in self._descending:
                candidates.sort(key=itemgetter(0), reverse=True)
                candidates = [(Desc(part), value) for part, value in candidates]
            else:
                candidates.sort(key=itemgetter(0))
            if kept is not None:
                # Sorted once per reduction: later streams of the plan
                # reuse the list, and a write patches it (carry_over).
                kept.candidates = candidates
        if depth == len(self._order) - 1 and (depth or not self._already_reduced):
            # ``instances`` is this enumerator's own full-reducer output
            # over an acyclic join tree, hence globally consistent: every
            # candidate extends to an answer.  (Caller-reduced instances
            # at level 0 may hold dangling rows, so they take the loop.)
            for part, value in candidates:
                yield self._answer(fixed + (value,), key + (part,))
            return
        for part, value in candidates:
            alive = True
            if depth == 0:
                # Index path: bucket lookups + one outward wave keep the
                # first (most expensive) level proportional to the value's
                # join neighbourhood instead of |D|.
                seeds: dict[str, list[Row]] = {}
                for alias, pos in holders:
                    rows = self._index(alias, (pos,)).get(value, [])
                    rows = [row for row in rows if row[pos] == value]
                    if not rows:
                        alive = False
                        break
                    seeds[alias] = rows
                if not alive:
                    continue
                filtered = self._index_reduce(seeds)
            else:
                filtered = dict(instances)
                for alias, pos in holders:
                    rows = [row for row in filtered[alias] if row[pos] == value]
                    if not rows:
                        alive = False
                        break
                    filtered[alias] = rows
                if not alive:
                    continue
            reduced = full_reduce(self.join_tree, filtered)
            self.stats.reducer_passes += 1
            if any(not rows for rows in reduced.values()):
                continue
            yield from self._enum(reduced, depth + 1, fixed + (value,), key + (part,))

    def _answer(self, score: tuple, key: tuple) -> RankedAnswer:
        """The answer whose values in comparison order are ``score``."""
        self.stats.answers += 1
        return RankedAnswer(self._head_of(score), score, key=key)

    def fresh(self) -> "LexBacktrackEnumerator":
        """A new enumerator with identical configuration."""
        return LexBacktrackEnumerator(
            self.query,
            self.db,
            order=self._order,
            descending=self._descending,
            weight=self._weight,
            join_tree=self.join_tree,
            instances=self._given_instances,
            already_reduced=self._already_reduced,
            row_groups=None if self._given_instances is None else self._row_groups,
        )

