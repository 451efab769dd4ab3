"""The paper's main result: ranked enumeration for acyclic join-project
queries (Theorem 1, Algorithms 1 and 2 — ``LinDelay``).

Guarantees: after ``O(|D|)`` preprocessing, results of any acyclic
join-project query are enumerated in rank order, without duplicates,
with worst-case delay ``O(|D| log |D|)`` per answer — and ``O(log |D|)``
for full / free-connex queries (Appendix E), ``O(Δ log |D|)`` under
degree bounds (Appendix D).

How it works
------------
Every join-tree node ``i`` incrementally materialises the *distinct*
ranked partial outputs of its subtree over ``A^π_i``, grouped by anchor
value.  The state per node is a family of priority queues
``PQ_i[u]`` (``u`` an anchor value) holding :class:`~repro.core.cell.Cell`
objects; the queue comparator is ``(rank key, partial output)``.

* **Preprocessing (Algorithm 1)**: full-reducer pass, then bottom-up
  queue construction.  Conceptually every tuple gets a cell pointing at
  the current top of each child queue it joins with (a leaf cell has no
  pointers).  Physically, for batchable rankings and LEX over integer
  columns, each node's rows form one *run* per anchor group, in (anchor,
  rank key, partial output) order.  What depends on the data alone —
  the rows grouped by anchor, their output columns and their links to
  child groups — is the node's :class:`_NodeLayout`, built once per
  reduction with each group's rows in row order.  A ranking adds its
  keys and each group's head (a segmented argmin, no sort) and sorts a
  group only when the group is first used, a long one a chunk at a
  time.  A group's queue (:class:`_LazyGroup`) is created only when a
  parent's cell first points into it, and a row's cell only when its
  run position reaches the top of its group; a child's key and output
  enter its parents through the head of each run.  The runs keep their outputs as one
  list of ints per column: a position's output tuple is built when its
  group first reaches it, and its cell reuses it.  Other rankings and
  data build one cell and heap entry per tuple (the scalar build, also
  the test oracle).  Both builds pop the same cells in the same order.
  Every cell knows its queue (``Cell.group``), so enumeration never
  looks a queue up by anchor.
* **Enumeration (Algorithm 2)**: pop the root queue; emit if the output
  differs from the previous one; then ``Topdown`` regenerates
  candidates: it pops every cell of the group that produces the same
  partial output (on-the-fly deduplication), advances each child pointer
  through the child's ``next`` chain (computing it recursively on first
  demand, reusing it in O(1) afterwards) and inserts the successor
  cells.  The ``next`` chain per node/anchor group memoises the sequence
  of distinct ranked partial outputs so sibling parents never repeat the
  work — this is the paper's key to the ``O(|D| log |D|)`` delay.

Engineering notes (see DESIGN.md §6):

* ``prune=True`` drops maximal subtrees without projection variables
  after the reducer pass (they are pure filters — Lemma 1's opening
  assumption).
* ``dedup_inserts=True`` suppresses re-insertion of a cell combination
  reachable through several predecessors (Lawler lattice duplication);
  a per-queue seen-set (``RankHeap.seen``) of ints, each the row's
  ordinal packed with the child cells' uids
  (:func:`~repro.core.cell.dedup_key`), kept only at nodes with two or
  more children — with one child no duplicate can arise.  Benchmarked
  as an ablation.
* Below the root a ``next`` chain depends only on the data, the plan
  and the ranking, so an engine plan that is reused keeps its non-root
  queues and chains (``retained=``, :class:`_RetainedQueues`) and each
  later stream restarts at the root instead of rebuilding them.  A
  write keeps every group it did not reach
  (:meth:`_RetainedQueues.carry_over`).
* The heap loop allocates as few objects as it can, because the cyclic
  garbage collector scans each one it keeps: heap entries are flat
  ``(key, out, seq, cell)`` tuples, dedup keys are ints, and an output
  that only forwards one child's output reuses that child's tuple.
* ``LIMIT k`` (:meth:`top_k`) pops the same queues: there is one top-k
  path, and its cost grows with ``k``, not with the join.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator, Mapping, Sequence
from functools import partial
from operator import itemgetter
from typing import Any

from ..algorithms.yannakakis import atom_instances, full_reduce
from ..data.database import Database
from ..errors import QueryError
from ..query.jointree import JoinTree, JoinTreeNode, build_join_tree
from ..query.query import JoinProjectQuery
from ..storage import kernels
from .answers import EnumerationStats, RankedAnswer
from .base import MAX_TOUCHED_FRACTION, RankedEnumeratorBase, RetainedSlot
from .cell import Cell, UNSET, dedup_key
from .heap import HeapStats, RankHeap
from .ranking import (
    BoundRanking,
    RankingFunction,
    SumRanking,
    batched_node_key_array,
    combine_counters,
)

__all__ = ["AcyclicRankedEnumerator"]

Row = tuple

def _tuple_getter(positions: Sequence[int]):
    """``seq -> tuple(seq[p] for p in positions)``, built once per node."""
    if not positions:
        return lambda seq: ()
    if len(positions) == 1:
        (p,) = positions
        return lambda seq: (seq[p],)
    return itemgetter(*positions)


def _position_getter(cols: Sequence[list]):
    """``pos -> tuple(col[pos] for col in cols)``, built once per node."""
    if not cols:
        return lambda pos: ()
    if len(cols) == 1:
        (c0,) = cols
        return lambda pos: (c0[pos],)
    if len(cols) == 2:
        c0, c1 = cols
        return lambda pos: (c0[pos], c1[pos])
    return lambda pos: tuple([col[pos] for col in cols])


def _int_columns(instances, rt: "_RTNode", rows: Sequence[Row]) -> dict | None:
    """``{position: int64 column}`` for a node's anchor, child-key and
    owned output positions, or ``None`` when a column has no exact
    ``int64`` image (:func:`~repro.storage.kernels.column_array`).

    The storage-cached code matrix holds exactly these columns; rows
    without one are converted here.
    """
    needed = set(rt.anchor_positions) | set(rt.own_positions)
    for key_pos in rt.child_key_positions:
        needed.update(key_pos)
    codes_of = getattr(instances, "codes", None)
    matrix = codes_of(rt.alias) if codes_of is not None and rows else None
    if matrix is not None and len(matrix) == len(rows):
        return {p: matrix[:, p] for p in needed}
    cols = {}
    for p in needed:
        col = kernels.column_array([row[p] for row in rows])
        if col is None:
            return None
        cols[p] = col
    return cols


class _RTNode:
    """Runtime join-tree node: positions precomputed, queues attached."""

    __slots__ = (
        "alias",
        "variables",
        "children",
        "anchor_positions",
        "child_key_positions",
        "own_pairs",
        "own_positions",
        "out_vars",
        "out_plan",
        "anchor_of",
        "own_of",
        "_merge",
        "pqs",
        "is_root",
        "runs",
    )

    def __init__(
        self,
        tree_node: JoinTreeNode,
        children: list["_RTNode"],
        head_position: Mapping[str, int],
    ):
        self.alias = tree_node.alias
        self.variables = tree_node.atom.variables
        self.children = children
        self.anchor_positions = tuple(
            self.variables.index(v) for v in tree_node.anchor
        )
        # For each child: positions *in this node's tuple* of the child's
        # anchor variables (the key into the child's queue family).
        self.child_key_positions = tuple(
            tuple(self.variables.index(v) for v in c_node.anchor)
            for c_node in tree_node.children
        )
        # Owned head variables, kept sorted by their global head position
        # so that every partial output is a subsequence of the head order
        # and tie-breaking matches ORDER BY semantics exactly.
        own = sorted(tree_node.own_head_vars, key=lambda v: head_position[v])
        self.own_pairs = tuple((v, self.variables.index(v)) for v in own)
        self.own_positions = tuple(p for _, p in self.own_pairs)
        # Merge plan: the subtree's output variables in head order, each
        # mapped to (source part, offset) where part 0 is the node's own
        # values and part i+1 is child i's partial output.
        merged: list[tuple[str, int, int]] = [
            (v, 0, i) for i, v in enumerate(own)
        ]
        for c_idx, child in enumerate(children):
            merged.extend(
                (v, c_idx + 1, j) for j, v in enumerate(child.out_vars)
            )
        merged.sort(key=lambda item: head_position[item[0]])
        self.out_vars = tuple(v for v, _, _ in merged)
        self.out_plan = tuple((src, off) for _, src, off in merged)
        self.anchor_of = _tuple_getter(self.anchor_positions)
        self.own_of = _tuple_getter(self.own_positions)
        # The out plan over the concatenation own_out + child outs.
        bases = [0, len(own)]
        for child in children:
            bases.append(bases[-1] + len(child.out_vars))
        merge_at = [bases[src] + off for src, off in self.out_plan]
        # None when the concatenation already is the head order (no
        # own values, or own values then one child's): the output
        # reuses the parts instead of copying them into a new tuple.
        self._merge = None if merge_at == list(range(len(merge_at))) else _tuple_getter(merge_at)
        # anchor -> RankHeap (scalar build) or _LazyGroup (the node's
        # _Runs, which creates a group when it is first looked up).
        self.pqs: Mapping[tuple, Any] = {}
        self.is_root = tree_node.is_root
        # The node's sorted runs when the array build ran, else None (a
        # parent of a scalar-built node is built the scalar way too).
        self.runs: _Runs | None = None

    def rebound(self, children: list["_RTNode"], runs: "_Runs | None") -> "_RTNode":
        """A copy over other children and runs (the plan-only fields are
        shared): one node of a carried-over state."""
        rt = object.__new__(_RTNode)
        for name in _RTNode.__slots__:
            setattr(rt, name, getattr(self, name))
        rt.children = children
        rt.pqs = rt.runs = runs
        return rt

    def layout(self, own_out: tuple, children: tuple[Cell, ...]) -> tuple:
        """Partial output in global head order (see ``out_plan``)."""
        if not children:
            return own_out
        parts = own_out
        for child in children:
            parts += child.out
        merge = self._merge
        return parts if merge is None else merge(parts)


#: Anchor groups longer than this are filled in chunks: a group's first
#: fill sorts its ``_SORT_CHUNK`` least rows into its run, and each
#: later fill the least of the rest, twice as many as the fill before,
#: so a long group (the root's one ``()``-anchored group) is sorted and
#: converted only as far as its stream reads.  Chosen by an in-thread
#: sweep of paper-topk over 16..4096 (CHANGES.md): 32 and 64 led.
_SORT_CHUNK = 64


class _NodeLayout:
    """The data-only half of one node's queue family: what every
    ranking's :class:`_Runs` over the node share.

    ``row_idx`` lists the node's valid rows (those that join a group of
    every child) grouped by anchor: layout position ``i`` holds row
    ``row_idx[i]``, and anchor group ``g`` owns the positions
    ``bounds[g]:bounds[g + 1]`` (``gid`` gives each position's group,
    ``starts`` the bounds as an array), in ascending anchor order.
    ``head_anchor`` holds each group's anchor columns; ``own_cols`` the
    node's output columns and ``links`` (per child) the index of the
    child group each position joins, both in layout order.  Within a
    group the positions are in row order: the layout depends on the
    data alone, and every ranking sorts a group on first use, breaking
    ties by row index.  The layout is memoised with the reduction
    (:meth:`~repro.algorithms.yannakakis.AtomInstances.derived`), so it
    lives as long as the reduced rows it describes.  ``refused`` names
    why the node has no layout (``"conversion"``: a column is not
    exactly ``int``; ``"pack-overflow"``: a child key does not pack
    into ``int64``), else ``None``.
    """

    __slots__ = (
        "rows",
        "children",
        "refused",
        "row_idx",
        "own_cols",
        "links",
        "gid",
        "starts",
        "bounds",
        "head_anchor",
        "index",
    )

    def __init__(self, rows: Sequence[Row], children: tuple, refused: str | None = None):
        self.rows = rows
        self.children = children  # the child layouts, kept alive with this one
        self.refused = refused
        self.index = None  # anchor -> group, built on first lookup

    def anchor_index(self, anchor_of) -> dict:
        """``{anchor: group}``, built on first use."""
        index = self.index
        if index is None:
            rows = self.rows
            firsts = self.row_idx[self.starts].tolist()
            index = self.index = {anchor_of(rows[i]): g for g, i in enumerate(firsts)}
        return index


def _link_rows(rt: "_RTNode", rows: Sequence[Row], instances, children: tuple) -> _NodeLayout:
    """The node's layout: its valid rows grouped by ascending anchor,
    in row order within a group, with their output and link columns.
    A row's link to a child is the group whose head anchor equals the
    row's key into it (``pack_pair`` + ``searchsorted``); rows without
    one are dangling and left out, as in the scalar build."""
    # Outputs are rebuilt from the columns: no bool or IntEnum to
    # normalise.  Key columns only need an exact int64 image.  The
    # scan depends on the data alone, so instances that can memoise
    # it (a warm plan's reduction) answer it once.
    exactly_int = getattr(instances, "exactly_int", None)
    if exactly_int is not None:
        ok = exactly_int(rt.alias, rt.own_positions)  # rows is instances[rt.alias]
    else:
        ok = kernels.rows_exactly_int(rows, rt.own_positions)
    cols = _int_columns(instances, rt, rows) if ok else None
    if cols is None:
        return _NodeLayout(rows, children, "conversion")
    np = kernels.np
    n = len(rows)
    valid = np.ones(n, dtype=bool)
    links = []
    for child, key_pos in zip(children, rt.child_key_positions):
        if not len(child.starts):
            valid[:] = False
            idx = np.zeros(n, dtype=np.int64)
        elif not key_pos:
            idx = np.zeros(n, dtype=np.int64)  # the one ()-anchored group
        else:
            packed = kernels.pack_pair([cols[p] for p in key_pos], child.head_anchor)
            if packed is None:
                return _NodeLayout(rows, children, "pack-overflow")
            p_keys, h_keys = packed
            # Heads ascend by anchor, and packing keeps that order.
            idx = np.minimum(np.searchsorted(h_keys, p_keys), len(h_keys) - 1)
            valid &= h_keys[idx] == p_keys
        links.append(idx)
    sel = np.flatnonzero(valid)
    anchor_cols = [cols[p][sel] for p in rt.anchor_positions]
    if anchor_cols:  # a stable sort keeps row order within a group
        order = np.lexsort(anchor_cols[::-1])
        sel = sel[order]
        anchor_cols = [col[order] for col in anchor_cols]
    m = len(sel)
    change = np.zeros(m, dtype=bool)
    change[:1] = True
    for col in anchor_cols:
        change[1:] |= col[1:] != col[:-1]
    layout = _NodeLayout(rows, children)
    layout.row_idx = sel
    layout.own_cols = {p: cols[p][sel] for p in rt.own_positions}
    layout.links = [idx[sel] for idx in links]
    layout.gid = np.cumsum(change) - 1
    starts = layout.starts = np.flatnonzero(change)
    layout.bounds = starts.tolist() + [m]
    layout.head_anchor = [col[starts] for col in anchor_cols]
    return layout


def _group_heads(cols: list, layout: _NodeLayout):
    """Each group's least layout position by ``cols`` (the last one
    unique): a segmented lexicographic argmin, one minimum per group
    and column over the positions still tied, with no sort."""
    np = kernels.np
    starts, gid = layout.starts, layout.gid
    groups = len(starts)
    first, *rest = cols
    cand = np.flatnonzero(first == np.minimum.reduceat(first, starts)[gid])
    for col in rest:
        if len(cand) == groups:
            break
        vals, at = col[cand], gid[cand]
        # Every group keeps a candidate, so group g's minimum is mins[g].
        mins = np.minimum.reduceat(vals, np.flatnonzero(np.concatenate(([True], at[1:] != at[:-1]))))
        cand = cand[vals == mins[at]]
    return cand


class _Runs(Mapping):
    """One node's queue family for one ranking, over the node's
    :class:`_NodeLayout`: per anchor group, a run of the group's rows in
    (key, output, row order) order, sorted when the group is first used.

    Run position ``i`` of the parallel lists is the ``i``-th row of the
    node in (anchor, key, output, row order) order, as if every group
    were sorted; anchor group ``g`` owns the contiguous span
    ``bounds[g]:bounds[g + 1]``, the layout's span for it.  The lists
    (``row_idx``, ``keys``, ``own_keys``, ``outs`` with one list of ints
    per output column, and per child the index of the child group each
    position joins) are allocated whole and filled group by group
    (:meth:`fill`) from the source columns in ``fills``, which are in
    layout order (row order within a group): a group's first fill sorts
    its rows by ``sort_cols`` (the ranking's key, or the LEX sort
    columns, then the output columns, then the row index).  A group
    longer than :data:`_SORT_CHUNK` is filled a chunk at a time
    (``fill_to[g]`` ends the filled prefix of group ``g``; ``rest``
    holds the layout positions a sorted group has not placed yet).  A
    position's output tuple is built (:attr:`out_at`) when its group
    first needs it, so positions that are never reached cost no tuple.

    Its :class:`_LazyGroup` is created on demand — when a parent's cell
    first points into it (:meth:`group`), or when the root or an
    inspection looks it up by anchor: the runs are also the node's
    queue family, a mapping from anchor to group.  ``links`` holds, per
    child, the child's runs and each position's group index in them:
    the child queue the row's cell points into.  The ``head_*`` arrays
    describe each group's first run position (its initial top) to the
    parent's build, in group order, which is ascending anchor order;
    they come from a segmented argmin (:func:`_group_heads`), so no
    group is sorted for its parents.
    """

    __slots__ = (
        "layout",
        "rows",
        "row_idx",
        "keys",
        "outs",
        "out_at",
        "own_keys",
        "zero_key",
        "own_of",
        "anchor_of",
        "links",
        "stats",
        "heap_stats",
        "bounds",
        "groups",
        "head_anchor",
        "head_keys",
        "head_outs",
        "sort_cols",
        "fills",
        "fill_to",
        "rest",
        "unfilled",
    )

    def group(self, g: int) -> "_LazyGroup":
        """Anchor group ``g``'s queue, created on first use."""
        group = self.groups[g]
        if group is None:
            group = self.groups[g] = _LazyGroup(self, g)
        return group

    def fill(self, g: int) -> int:
        """Put the next part of group ``g``'s run into the lists; the
        run position its filled prefix now ends at.  A short group is
        filled whole, with the unfilled groups after it that fit in the
        same chunk (:meth:`fill_groups`); a long one a chunk at a time."""
        bounds, fill_to = self.bounds, self.fill_to
        start, end = fill_to[g], bounds[g + 1]
        if start == bounds[g] and end - start <= _SORT_CHUNK:
            limit, h = start + _SORT_CHUNK, g + 1
            while h < len(fill_to) and fill_to[h] == bounds[h] and bounds[h + 1] <= limit:
                h += 1
            self.fill_groups(g, h)
            return end
        order = self._next_chunk(g, start, end)
        stop = start + len(order)
        fill_to[g] = stop
        self._put(start, stop, [src.take(order, axis=0) for src, _ in self.fills])
        if start < stop == end:
            self._filled(1)
        return stop

    def _filled(self, groups: int) -> None:
        """Count ``groups`` more groups filled whole; once every group
        is, the source columns are dropped: nothing reads them again."""
        self.unfilled -= groups
        if not self.unfilled:
            self.sort_cols = self.fills = None

    def _put(self, start: int, stop: int, parts: list) -> None:
        """Write run positions ``start:stop`` from ``parts``, one array
        per source in ``fills``, into the lists."""
        for part, (_, dst) in zip(parts, self.fills):
            for lst, values in zip(dst, part.T.tolist()):
                lst[start:stop] = values

    def _next_chunk(self, g: int, start: int, end: int):
        """The layout positions of a long group's next sorted part: its
        :data:`_SORT_CHUNK` least rows on the first fill, and on each
        later fill the least of the rest, twice as many as before."""
        np = kernels.np
        pending = self.rest.pop(g, None)
        if pending is None:
            pending, chunk = np.arange(start, end), _SORT_CHUNK
        else:
            pending, chunk = pending
        sort_cols = self.sort_cols
        if len(pending) > chunk:
            # The rows up to the chunk-th least leading value are a
            # prefix of the group's order, whatever the later columns.
            lead = sort_cols[0][pending]
            take = lead <= np.partition(lead, chunk - 1)[chunk - 1]
            if not take.all():
                self.rest[g] = (pending[~take], 2 * chunk)
                pending = pending[take]
        return pending[np.lexsort(tuple(col[pending] for col in reversed(sort_cols)))]

    def fill_groups(self, lo: int, hi: int) -> None:
        """Fill groups ``lo`` to ``hi - 1``, none filled yet, whole, in
        one group-major sort (also the span a carry-over moves groups
        into)."""
        start, stop = self.bounds[lo], self.bounds[hi]
        self.fill_to[lo:hi] = self.bounds[lo + 1 : hi + 1]
        if stop - start == 1:
            for src, dst in self.fills:
                for lst, value in zip(dst, src[start].tolist()):
                    lst[start] = value
        else:
            cols = [col[start:stop] for col in reversed(self.sort_cols)]
            if hi - lo > 1:
                cols.append(self.layout.gid[start:stop])
            order = kernels.np.lexsort(cols) + start
            self._put(start, stop, [src.take(order, axis=0) for src, _ in self.fills])
        self._filled(hi - lo)

    def reach(self, g: int, pos: int) -> None:
        """Fill group ``g`` at least through run position ``pos``."""
        while self.fill_to[g] <= pos:
            self.fill(g)

    def cell(self, pos: int, group: "_LazyGroup", head: tuple | None) -> Cell:
        """The cell of run position ``pos`` in ``group`` (children: the
        child tops), reusing the position's ``(key, out)`` when the
        group has loaded it."""
        self.stats.cells_created += 1
        group.made += 1
        children = tuple([runs.group(idx[pos]).first_cell() for runs, idx in self.links])
        return self._make(pos, children, group, head, pos + group.origin)

    def peek(self, pos: int, g: int) -> Cell:
        """A stand-in for the cell of run position ``pos`` (in group
        ``g``), equal to it in every field but ``group`` (``None``),
        that creates and counts no cell: a child group whose first cell
        does not exist yet is peeked in turn."""
        self.reach(g, pos)
        children = []
        for runs, idx in self.links:
            cg = idx[pos]
            child = runs.groups[cg]
            first = None if child is None else child.first
            # A group without a first cell has never been popped: its
            # head is still its first position.
            children.append(runs.peek(runs.bounds[cg], cg) if first is None else first)
        return self._make(pos, tuple(children), None, None, pos)

    def _make(self, pos: int, children: tuple, group, head: tuple | None, ordinal: int) -> Cell:
        row = self.rows[self.row_idx[pos]]
        own_key = self.zero_key if self.own_keys is None else self.own_keys[pos]
        if head is None:
            key, out = self.keys[pos], self.out_at(pos)
        else:
            key, out = head
        # A leaf's output is its own values (already in head order).
        own_out = self.own_of(row) if children else out
        return Cell(row, children, key, out, own_key, own_out, group, ordinal)

    def restart(self, stats: EnumerationStats, heap_stats: HeapStats) -> "_Runs":
        """A shallow copy that shares every list, array and the fill
        state but creates its own groups, counting on
        ``stats``/``heap_stats``: a root restart's queue over the same
        run, whose fills serve every restart."""
        runs = _Runs()
        for name in _Runs.__slots__:
            setattr(runs, name, getattr(self, name))
        runs.stats = stats
        runs.heap_stats = heap_stats
        runs.groups = [None] * len(self.groups)
        return runs

    # The queue family by anchor, for the root and for inspection.
    def _index(self) -> dict:
        return self.layout.anchor_index(self.anchor_of)

    def __getitem__(self, anchor: tuple) -> "_LazyGroup":
        return self.group(self._index()[anchor])

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._index())

    def __len__(self) -> int:
        return len(self.groups)


class _OutputKeys:
    """``keys[pos]`` built on demand as the ranking's key of the values
    at ``pos`` — for rankings whose key the output determines (LEX)."""

    __slots__ = ("key", "variables", "values")

    def __init__(self, key, variables: tuple, values):
        self.key = key
        self.variables = variables
        self.values = values

    def __getitem__(self, pos: int) -> Any:
        return self.key(list(zip(self.variables, self.values(pos))))


class _LazyGroup(RankHeap):
    """``PQ_i[u]`` as a sorted run plus the heap of successor cells.

    Pops exactly as the :class:`RankHeap` the scalar build fills with
    one entry per row of the group: the run's entries were pushed first
    (they count as pushes and live entries at build time), so on equal
    ``(key, out)`` a run entry beats a successor, as its smaller
    sequence number would — the run head ``(key, out)`` is compared
    directly with the successor heap's flat ``(key, out, seq, cell)``
    top, and on equal key and output the shorter tuple sorts first.
    The inherited heap holds only successors.
    A run position's cell is created when it becomes the group's top;
    the first one is kept, because parents built against the group
    point at that very object.  The group itself is created by its
    :class:`_Runs` on first use, which sorts the run's first part into
    the runs' lists (:meth:`_Runs.fill`); ``filled`` is where that part
    ends, and popping up to it sorts the next part.  A carried-over
    group moves to the rebuilt runs of its node (:meth:`move_to`);
    ``origin`` keeps the ordinals of its cells what they were, so its
    dedup keys stay valid.
    """

    __slots__ = ("runs", "gid", "pos", "end", "filled", "head", "cell", "first", "origin")

    def __init__(self, runs: _Runs, g: int):
        super().__init__(runs.heap_stats)
        self.runs = runs
        self.gid = g
        start = self.pos = runs.bounds[g]
        self.end = runs.bounds[g + 1]
        filled = runs.fill_to[g]
        self.filled = runs.fill(g) if filled == start else filled
        self.origin = 0  # run position + origin = the cell's ordinal
        self.head: tuple | None = None  # the run head's sort key, once needed
        self.cell: Cell | None = None  # the run head's cell, once created
        self.first: Cell | None = None

    def move_to(self, runs: _Runs, g: int) -> None:
        """Continue as group ``g`` of ``runs``, which hold this group's
        rows in the same order, filled (a carry-over)."""
        shift = runs.bounds[g] - self.runs.bounds[self.gid]
        self.runs = runs
        self.gid = g
        self.pos += shift
        self.end += shift
        self.filled = self.end
        self.origin -= shift

    def first_cell(self) -> Cell:
        """The group's initial top (what parents' child pointers hold)."""
        cell = self.first
        if cell is None:
            cell = self.first = self.cell = self.runs.cell(self.pos, self, self.head)
        return cell

    def _run_top(self) -> Cell:
        cell = self.cell
        if cell is None:
            if self.pos == self.end:
                raise IndexError("top of an empty queue")
            cell = self.cell = self.runs.cell(self.pos, self, self.head)
            if self.first is None:
                self.first = cell
        return cell

    def _load_head(self) -> tuple:
        cell = self.cell
        if cell is not None:
            head = self.head = (cell.key, cell.out)
        else:
            runs, pos = self.runs, self.pos
            head = self.head = (runs.keys[pos], runs.out_at(pos))
        return head

    def _fill_more(self) -> None:
        # Another stream or an inspection may have filled further.
        runs, g = self.runs, self.gid
        filled = runs.fill_to[g]
        self.filled = runs.fill(g) if filled == self.pos else filled

    def top(self) -> Cell:
        entries = self._entries
        if entries and (self.pos == self.end or entries[0] < (self.head or self._load_head())):
            return entries[0][3]
        return self._run_top()

    def top_key(self) -> tuple:
        entries = self._entries
        if entries and (self.pos == self.end or entries[0] < (self.head or self._load_head())):
            entry = entries[0]
            return (entry[0], entry[1])
        if self.pos == self.end:
            raise IndexError("top of an empty queue")
        return self.head or self._load_head()

    def pop(self) -> Cell:
        entries = self._entries
        if entries and (self.pos == self.end or entries[0] < (self.head or self._load_head())):
            return RankHeap.pop(self)
        cell = self._run_top()
        self.cell = None
        self.head = None
        pos = self.pos = self.pos + 1
        if pos == self.filled and pos != self.end:
            self._fill_more()
        stats = self.stats
        stats.pops += 1
        stats.live_entries -= 1
        return cell

    def __len__(self) -> int:
        return self.end - self.pos + len(self._entries)

    def __bool__(self) -> bool:
        return self.pos < self.end or bool(self._entries)

    def items(self) -> list[Cell]:
        """Every entry's cell, run first — for inspection.

        Run positions whose cell does not exist yet appear as stand-ins
        (:meth:`_Runs.peek`), so inspecting creates no cell and changes
        no work counter (it may sort the rest of the run).
        """
        run = [self.runs.peek(p, self.gid) for p in range(self.pos, self.end)]
        if run and self.cell is not None:
            run[0] = self.cell
        return run + RankHeap.items(self)


def _build_runs(
    bound: BoundRanking,
    rt: _RTNode,
    rows: Sequence[Row],
    own_arr,
    instances,
    stats: EnumerationStats,
    heap_stats: HeapStats,
) -> bool:
    """The array build of one node's queue family (see :class:`_Runs`).

    A row's output, and its combined key, take each child's part from
    the head of the child group it joins with.  Batchable rankings
    order by the float key array; LEX orders by the columns its key is
    made of (``key_sort_columns``), and a key is built only when its
    run position is reached.  The data half, the node's
    :class:`_NodeLayout` (rows grouped by anchor, in row order within a
    group), is memoised with the reduction, so every ranking's half is
    a few passes over it: each group's head comes from a segmented
    argmin (:func:`_group_heads`), and the group is sorted on first use
    (:meth:`_Runs.fill`) by (key, output, row index).  Refuses
    (``False``: the scalar build runs) for other rankings, a child
    built the scalar way, columns that are not exactly ``int``,
    infinite weights under a batchable ranking and NaN keys — the cases
    where array order could differ from the heap's.
    A refusal at a node with children is counted on
    ``combine_counters`` with its reason.  The run positions count as
    pushes and live entries on ``heap_stats``; the runs count the cells
    they create on ``stats``.
    """

    def refuse(reason: str) -> bool:
        if rt.children and rows:
            combine_counters.record_fallback(reason)
        return False

    if not kernels.enabled():
        return False
    batched = bound.batch_weight() is not None
    if not batched and bound.key_sort_columns((), []) is None:
        return refuse("unbatchable-ranking")
    if batched and own_arr is None and rt.own_pairs and rows:
        return refuse("no-key-array")
    if any(c.runs is None for c in rt.children):
        return refuse("scalar-child-keys")
    children = [c.runs for c in rt.children]
    child_layouts = tuple(c.layout for c in children)
    derived = getattr(instances, "derived", None)
    memo = {} if derived is None else derived(rt.alias)
    # A memoised layout holds its children, so their ids stay unique.
    key = (rt.anchor_positions, rt.own_positions, rt.child_key_positions, tuple(map(id, child_layouts)))
    layout = memo.get(key)
    if layout is None:
        layout = memo[key] = _link_rows(rt, rows, instances, child_layouts)
    if layout.refused == "conversion":
        return refuse("conversion")
    np = kernels.np
    zero_key = bound.key([])
    if batched:
        own = own_arr if own_arr is not None else np.full(len(rows), float(zero_key))
        # NaN keys order a heap by its layout, which a sorted run
        # cannot mimic.  An infinite weight can make one in a
        # successor (inf - inf, 0 * inf), so its node and that
        # node's ancestors are built the scalar way.
        if rt.own_pairs and not np.isfinite(own).all():
            return refuse("non-finite-key")
    if layout.refused is not None:
        return refuse(layout.refused)
    links = layout.links
    parts = [[layout.own_cols[p] for p in rt.own_positions]] + [
        [col[idx] for col in c.head_outs] for c, idx in zip(children, links)
    ]
    out_cols = [parts[src][off] for src, off in rt.out_plan]
    if batched:
        own = own[layout.row_idx]
        if rt.children:
            keys = bound.combine_key_arrays(
                [own] + [c.head_keys[idx] for c, idx in zip(children, links)]
            )
            if keys is None:
                return refuse("combine-refused")
        else:
            keys = own  # leaves take their own key verbatim, as in the scalar build
        if np.isnan(keys).any():
            return refuse("non-finite-key")
        sort_keys = [keys]
    else:
        sort_keys = bound.key_sort_columns(rt.out_vars, out_cols)
        if sort_keys is None:
            return refuse("conversion")
    # The row index, last, is never empty (an output-free node under
    # LEX has no other sort column).
    sort_cols = sort_keys + out_cols + [layout.row_idx]
    heads = _group_heads(sort_cols, layout) if len(layout.row_idx) else layout.starts
    m = len(layout.row_idx)
    runs = _Runs()
    runs.layout = layout
    runs.rows = rows
    runs.zero_key = zero_key
    runs.own_of = own_of = rt.own_of
    runs.anchor_of = rt.anchor_of
    runs.stats = stats
    runs.heap_stats = heap_stats
    runs.bounds = layout.bounds
    runs.head_anchor = layout.head_anchor
    runs.groups = [None] * len(layout.starts)  # created on first use
    runs.sort_cols = sort_cols
    runs.fill_to = layout.bounds[:-1]
    runs.unfilled = len(layout.starts)
    runs.rest = {}
    runs.head_outs = [col[heads] for col in out_cols]
    # The lists, filled a group at a time from the source columns.
    row_list = runs.row_idx = [None] * m
    runs.outs = [[None] * m for _ in out_cols]
    runs.out_at = _position_getter(runs.outs)
    link_lists = [[None] * m for _ in links]
    runs.links = list(zip(children, link_lists))
    runs.fills = [
        (
            np.stack([layout.row_idx, *out_cols, *layout.links], axis=1),
            [row_list, *runs.outs, *link_lists],
        )
    ]
    if batched:
        runs.head_keys = keys[heads]
        floats, float_lists = [], []
        if rt.children or rt.own_pairs:
            runs.keys = [None] * m
            floats.append(keys)
            float_lists.append(runs.keys)
        else:
            runs.keys = [zero_key] * m  # the scalar leaf key: bound.key([])
        runs.own_keys = None
        if rt.own_pairs:
            runs.own_keys = [None] * m
            floats.append(own)
            float_lists.append(runs.own_keys)
        if floats:
            runs.fills.append((np.stack(floats, axis=1), float_lists))
    else:
        runs.head_keys = None
        runs.keys = _OutputKeys(bound.key, rt.out_vars, runs.out_at)
        runs.own_keys = None
        if rt.own_pairs:
            own_vars = tuple(v for v, _ in rt.own_pairs)
            runs.own_keys = _OutputKeys(
                bound.key, own_vars, lambda pos: own_of(rows[row_list[pos]])
            )
    runs._filled(0)  # a node without rows has nothing to fill
    rt.pqs = rt.runs = runs
    if batched and rt.children:
        combine_counters.record_call()
    heap_stats.pushes += m
    heap_stats.live_entries += m
    if heap_stats.live_entries > heap_stats.peak_entries:
        heap_stats.peak_entries = heap_stats.live_entries
    return True


class _SharedWork:
    """What every state carried over from one build shares with it: the
    lock each root step runs under, the stats the non-root nodes count
    on, and whether a failed step broke the queues."""

    __slots__ = ("lock", "stats", "heap_stats", "broken")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.heap_stats = HeapStats()
        self.stats = EnumerationStats(self.heap_stats)
        self.broken = False


def _nodes(root_rt: _RTNode) -> list[_RTNode]:
    """The nodes under ``root_rt``, children before their parent."""
    order, stack = [], [root_rt]
    while stack:
        rt = stack.pop()
        order.append(rt)
        stack.extend(rt.children)
    return order[::-1]


class _RetainedQueues:
    """The ranked state a repeated stream restarts from.

    Below the root, a ``next`` chain depends only on the data, the plan
    and the ranking, so every stream of one plan can share the non-root
    nodes — their runs, groups, cells, seen-sets and memoised chains —
    and only the root is per stream: each restart takes its own copy of
    the root's runs (:meth:`_Runs.restart`), hence its own root group,
    root dedup set and stats.  A stream that goes deeper than the ones
    before it extends the shared chains.

    One lock covers each root step (the root ``top()``, which may
    create child groups and first cells, and its ``Topdown``); it is
    never held across a ``yield``, so streams interleave step by step,
    on one thread or several.  The non-root nodes count on shared
    stats; a step credits their pops, pushes, live entries and run
    cells to its stream by the deltas it takes inside the lock, so
    per-stream counts stay exact however streams interleave.  An
    exception that escapes a step marks the state broken: the step may
    have popped a shared group halfway.

    A write does not drop the state: :meth:`carry_over` keeps every
    group the write did not reach in a state for the new reduction,
    which shares the lock, the stats and the broken flag with this one
    (:class:`_SharedWork`), because streams still open on this state
    step through the same groups.
    """

    __slots__ = (
        "shared",
        "root_rt",
        "root_runs",
        "bound",
        "entries",
        "carried",
        "marks",
        "superseded",
    )

    def __init__(
        self,
        root_rt: _RTNode,
        bound: BoundRanking,
        shared: _SharedWork | None = None,
        carried: int = 0,
    ):
        shared = self.shared = shared or _SharedWork()
        self.root_rt = root_rt
        self.root_runs = root_rt.runs
        self.root_runs._index()  # shared by every restart's copy
        self.bound = bound
        self.entries = 0
        for rt in _nodes(root_rt):
            rt.runs.stats = shared.stats
            rt.runs.heap_stats = shared.heap_stats
            self.entries += rt.runs.bounds[-1]
        # Cells the kept groups held when this state was carried over;
        # what the shared nodes create later counts from ``marks``.
        self.carried = carried
        self.marks = (shared.stats.cells_created, shared.heap_stats.pushes)
        self.superseded = False

    @property
    def broken(self) -> bool:
        return self.shared.broken

    @property
    def cells(self) -> int:
        """What the state holds, in cells: every run position (a queued
        cell-to-be, whose key and output columns are kept), plus the run
        cells and successors its non-root groups created."""
        stats, heap = self.shared.stats, self.shared.heap_stats
        created, pushes = self.marks
        return (
            self.entries
            + self.carried
            + stats.cells_created - created
            + heap.pushes - pushes
        )

    def step(self, stats: EnumerationStats, heap_stats: HeapStats, advance, top):
        """``advance(top)`` under the lock, crediting the shared nodes'
        work to ``stats``/``heap_stats``."""
        shared_work = self.shared
        with shared_work.lock:
            if shared_work.broken:
                raise QueryError(
                    "the retained ranked state was dropped after an error in "
                    "another stream; run the query again"
                )
            shared, heap = shared_work.stats, shared_work.heap_stats
            cells, pushes, pops, live = (
                shared.cells_created,
                heap.pushes,
                heap.pops,
                heap.live_entries,
            )
            try:
                top = advance(top)
            except BaseException:
                shared_work.broken = True
                raise
            stats.cells_created += shared.cells_created - cells
            heap_stats.pushes += heap.pushes - pushes
            heap_stats.pops += heap.pops - pops
            live = heap_stats.live_entries = heap_stats.live_entries + heap.live_entries - live
            if live > heap_stats.peak_entries:
                heap_stats.peak_entries = live
        return top

    def carry_over(self, old, new, diff) -> tuple["_RetainedQueues | None", int]:
        """The state for ``new``, the data state of a later reduction of
        this state's plan, and the number of created groups it dropped.

        ``old`` is the data state this state was built over and ``diff``
        maps each alias to the indices of its added rows (in ``new``)
        and removed rows (in ``old``) (:func:`~repro.algorithms.yannakakis.reduction_diff`).
        A node's *touched* anchors are those of its added and removed
        rows, and those of its rows whose key into a child is a touched
        anchor of that child.  A node with no touched anchor keeps its
        runs, groups and chains as they are (and so does its whole
        subtree); every other node gets runs sorted afresh from ``new``,
        and each of its created groups whose anchor is untouched moves
        into them (:meth:`_LazyGroup.move_to`) with its cells,
        successors and ``next`` chain: its rows, their keys and their
        outputs are what they were.  The root is rebuilt, since it
        restarts per stream anyway.  ``(None, 0)`` — drop the state —
        when the state is broken or was carried over already, when the
        reductions have no code matrices, when a node refuses the array
        build, or when more than :data:`~repro.core.base.MAX_TOUCHED_FRACTION`
        of the non-root groups are touched.
        """
        np = kernels.np
        old, new = old.instances, new.instances
        nodes = _nodes(self.root_rt)
        with self.shared.lock:
            if self.shared.broken or self.superseded:
                return None, 0
            touched: dict[str, Any] = {}
            for rt in nodes:
                old_mat, new_mat = old.codes(rt.alias), new.codes(rt.alias)
                if old_mat is None or new_mat is None:
                    return None, 0
                added, removed = diff[rt.alias]
                parts = [new_mat[added], old_mat[removed]]
                for child, key_pos in zip(rt.children, rt.child_key_positions):
                    hit = touched[child.alias]
                    if not len(hit):
                        continue
                    if not key_pos:  # a cartesian edge: every row joins the child
                        parts.append(new_mat)
                        continue
                    packed = kernels.pack_pair([new_mat[:, p] for p in key_pos], list(hit.T))
                    if packed is None:
                        return None, 0
                    parts.append(new_mat[np.isin(*packed)])
                rows = np.concatenate(parts)
                touched[rt.alias] = rows[:, list(rt.anchor_positions)]
            if not len(touched[self.root_rt.alias]):
                return self, 0  # the write reached no row of the plan
            hits = {rt.alias: _touched_groups(rt.runs, touched[rt.alias]) for rt in nodes[:-1]}
            groups = sum(len(hit) for hit in hits.values())
            if sum(int(hit.sum()) for hit in hits.values()) > MAX_TOUCHED_FRACTION * groups:
                return None, 0
            # Build every new node first: a refusal leaves this state whole.
            scratch = HeapStats()
            rebuilt: dict[str, _RTNode] = {}
            for rt in nodes:
                children = [rebuilt[c.alias] for c in rt.children]
                if not len(touched[rt.alias]) and all(
                    c.runs is o.runs for c, o in zip(children, rt.children)
                ):
                    rebuilt[rt.alias] = rt.rebound(children, rt.runs)
                    continue
                node = rebuilt[rt.alias] = rt.rebound(children, None)
                rows = new[rt.alias]
                own_arr = batched_node_key_array(self.bound, new, rt.alias, rt.own_pairs)
                stats = self.shared.stats
                if not _build_runs(self.bound, node, rows, own_arr, new, stats, scratch):
                    return None, 0
            self.superseded = True
            dropped = carried = 0
            for rt in nodes[:-1]:
                runs, moved = rt.runs, rebuilt[rt.alias].runs
                if moved is runs:
                    carried += sum(g.made for g in runs.groups if g is not None)
                    continue
                kept, gone = _move_groups(runs, moved, hits[rt.alias])
                carried += kept
                dropped += gone
            root = rebuilt[self.root_rt.alias]
            return _RetainedQueues(root, self.bound, self.shared, carried), dropped


def _touched_groups(runs: _Runs, touched):
    """Per group of ``runs``: is its anchor among the rows of ``touched``
    (anchor values, one row each)?"""
    np = kernels.np
    if not len(touched):
        return np.zeros(len(runs.groups), dtype=bool)
    if not runs.head_anchor:  # the one ()-anchored group
        return np.ones(len(runs.groups), dtype=bool)
    packed = kernels.pack_pair(runs.head_anchor, list(touched.T))
    if packed is None:
        return np.ones(len(runs.groups), dtype=bool)
    return np.isin(*packed)


def _move_groups(runs: _Runs, moved: _Runs, hit) -> tuple[int, int]:
    """Move each created group of ``runs`` whose anchor is not touched
    (``hit``, per group) into ``moved``, the node's rebuilt runs;
    ``(cells the moved groups hold, created groups left behind)``."""
    np = kernels.np
    created = [g for g, group in enumerate(runs.groups) if group is not None]
    if not created:
        return 0, 0
    keep = ~hit[created]
    if not moved.groups:
        keep[:] = False
        target = np.zeros(len(created), dtype=np.int64)
    elif not runs.head_anchor:
        target = np.zeros(len(created), dtype=np.int64)
    else:
        packed = kernels.pack_pair(
            [col[created] for col in runs.head_anchor], moved.head_anchor
        )
        if packed is None:
            return 0, len(created)
        old_keys, new_keys = packed
        # Heads ascend by anchor, and packing keeps that order.
        target = np.minimum(np.searchsorted(new_keys, old_keys), len(new_keys) - 1)
        keep &= new_keys[target] == old_keys
    old_bounds, new_bounds = runs.bounds, moved.bounds
    moves = [
        (runs.groups[g], t)
        for g, t, ok in zip(created, target.tolist(), keep.tolist())
        if ok and new_bounds[t + 1] - new_bounds[t] == old_bounds[g + 1] - old_bounds[g]
    ]
    if moves:
        # Targets ascend with the anchors: one sort fills them all.
        moved.fill_groups(moves[0][1], moves[-1][1] + 1)
    carried = 0
    for group, t in moves:
        group.move_to(moved, t)
        moved.groups[t] = group
        carried += group.made
    return carried, len(created) - len(moves)


class AcyclicRankedEnumerator(RankedEnumeratorBase):
    """Ranked enumeration for acyclic join-project queries (Theorem 1).

    Parameters
    ----------
    query:
        An acyclic :class:`JoinProjectQuery`.
    db:
        The database instance.
    ranking:
        A :class:`RankingFunction`; defaults to ascending ``SUM`` with
        identity weights (numeric head values).
    join_tree:
        Optional pre-built join tree (must belong to ``query``).
    root:
        Optional atom alias to root the tree at (the paper shows the
        choice does not matter asymptotically; benchmarks sweep it).
    prune:
        Drop output-free subtrees after the reducer pass (default on).
    dedup_inserts:
        Suppress duplicate successor insertions (default on).
    retained:
        A :class:`~repro.core.base.RetainedSlot` shared by the streams of
        one plan (the engine passes it to reused warm plans).  Empty, the
        enumerator builds as usual and keeps its non-root queues there;
        filled, it restarts at the root of the kept queues instead of
        building (:class:`_RetainedQueues`).  Only a root built by the
        array build is kept: a plan whose root was built the scalar way
        runs fresh each time.  The engine carries a kept state over a
        write into a new slot; an enumerator restarts from the state in
        the slot it was given, so it answers for the data of its
        ``instances``.

    Usage
    -----
    >>> from repro.data import Database
    >>> from repro.query import parse_query
    >>> db = Database()
    >>> _ = db.add_relation("R", ("a", "b"), [(1, 10), (2, 10), (1, 20)])
    >>> q = parse_query("Q(a1, a2) :- R(a1, p), R(a2, p)")
    >>> enum = AcyclicRankedEnumerator(q, db)
    >>> [a.values for a in enum.top_k(3)]
    [(1, 1), (1, 2), (2, 1)]

    The object is one-shot per enumeration: iterating consumes its root
    queue.  Call :meth:`fresh` (cheap re-preprocess) to enumerate again,
    or pass a ``retained`` slot so that each new enumerator of the same
    plan restarts at the root of the queues the first one built.
    """

    def __init__(
        self,
        query: JoinProjectQuery,
        db: Database,
        ranking: RankingFunction | None = None,
        *,
        join_tree: JoinTree | None = None,
        root: str | None = None,
        prune: bool = True,
        dedup_inserts: bool = True,
        instances: Mapping[str, list[Row]] | None = None,
        already_reduced: bool = False,
        retained: RetainedSlot | None = None,
    ):
        self.query = query
        self.db = db
        self.ranking = ranking or SumRanking()
        self._retained = retained
        self._prune = prune
        self._dedup_inserts = dedup_inserts
        self._given_instances = instances
        self._already_reduced = already_reduced

        if join_tree is None:
            join_tree = build_join_tree(query, root=root)
        elif root is not None and join_tree.root.alias != root:
            join_tree = join_tree.rerooted(root)
        if join_tree.query.head != query.head:
            raise QueryError("join tree belongs to a different query head")
        self.join_tree = join_tree

        positions = {v: i for i, v in enumerate(query.head)}
        self.bound: BoundRanking = self.ranking.bind(positions)

        self.heap_stats = HeapStats()
        self.stats = EnumerationStats(self.heap_stats)
        self._root_rt: _RTNode | None = None
        self._root_pq = None
        self._queues: _RetainedQueues | None = None
        self._preprocessed = False
        self._exhausted = False

    # ------------------------------------------------------------------ #
    # preprocessing (Algorithm 1)
    # ------------------------------------------------------------------ #
    def preprocess(self) -> "AcyclicRankedEnumerator":
        """Run the full reducer and build all per-node priority queues.

        The given instances are used as-is (full_reduce copies before
        filtering, downstream code only reads) so that warm
        ReducedInstances keep their source-view bindings and survivor
        arrays — that metadata is what lets the batched key paths gather
        storage-cached score columns instead of re-weighing every row.
        """
        if self._preprocessed:
            return self
        queues = None if self._retained is None else self._retained.state
        if queues is not None:
            return self._restart(queues)
        started = time.perf_counter()
        if self._given_instances is not None:
            instances = self._given_instances
        else:
            instances = atom_instances(self.query, self.db)
        if not self._already_reduced:
            instances = full_reduce(self.join_tree, instances)
        tree = self.join_tree
        if self._prune:
            tree, _dropped = tree.pruned()
        self.stats.reduce_seconds += time.perf_counter() - started
        started = time.perf_counter()

        head_position = {v: i for i, v in enumerate(self.query.head)}
        rt_by_alias: dict[str, _RTNode] = {}
        for node in tree.post_order():
            children_rt = [rt_by_alias[c.alias] for c in node.children]
            rt = _RTNode(node, children_rt, head_position)
            rt_by_alias[node.alias] = rt
            # Vectorised scoring: the node's per-row keys in one array
            # pass over its score columns, scalar fallback otherwise.
            own_arr = batched_node_key_array(self.bound, instances, node.alias, rt.own_pairs)
            rows = instances[node.alias]
            if not _build_runs(
                self.bound, rt, rows, own_arr, instances, self.stats, self.heap_stats
            ):
                own_keys = None if own_arr is None else own_arr.tolist()
                self._build_node_queues(rt, rows, own_keys)
        self._root_rt = rt_by_alias[tree.root.alias]
        # Partial outputs are kept in head order throughout, so the root
        # output aligns with the query head directly.
        if self._root_rt.out_vars != self.query.head:
            raise QueryError(
                f"internal error: root output {self._root_rt.out_vars} does not "
                f"match head {self.query.head}"
            )
        if self._retained is not None and self._root_rt.runs is not None:
            queues = self._queues = self._retained.state = _RetainedQueues(
                self._root_rt, self.bound
            )
            # Creating the root group fills the shared root run.
            with queues.shared.lock:
                self._root_pq = queues.root_runs.restart(self.stats, self.heap_stats).get(())
        else:
            self._root_pq = self._root_rt.pqs.get(())

        self._preprocessed = True
        self.stats.build_seconds += time.perf_counter() - started
        self.stats.preprocess_seconds = (
            self.stats.reduce_seconds + self.stats.build_seconds
        )
        return self

    def _restart(self, queues: _RetainedQueues) -> "AcyclicRankedEnumerator":
        """Preprocess by restarting at the root of retained queues: the
        root run counts as this stream's pushes and live entries, as a
        build would count it."""
        started = time.perf_counter()
        self._queues = queues
        self._root_rt = queues.root_rt
        runs = queues.root_runs.restart(self.stats, self.heap_stats)
        with queues.shared.lock:  # creating the root group fills the shared root run
            self._root_pq = runs.get(())
        heap = self.heap_stats
        heap.pushes = heap.live_entries = heap.peak_entries = runs.bounds[-1]
        self._preprocessed = True
        self.stats.build_seconds += time.perf_counter() - started
        self.stats.preprocess_seconds = self.stats.reduce_seconds + self.stats.build_seconds
        return self

    def _build_node_queues(
        self, rt: _RTNode, rows: Sequence[Row], own_keys: Sequence | None = None
    ) -> None:
        """The scalar build: one cell and heap entry per row."""
        bound = self.bound
        make_key = bound.key
        combine = bound.combine
        # Initial cells are unique combinations (rows are distinct and
        # all point at the current child tops), so duplicate tracking is
        # skipped; entries are grouped per anchor and heapified in one
        # pass (RankHeap.push_many) instead of pushed one at a time.
        groups: dict[tuple, tuple[RankHeap, list[tuple[Any, tuple, Cell]]]] = {}
        for i, row in enumerate(rows):
            if own_keys is not None:
                own_key = own_keys[i]
            else:
                own_key = make_key([(v, row[p]) for v, p in rt.own_pairs])
            own_out = tuple(row[p] for p in rt.own_positions)
            if rt.children:
                child_cells = []
                dead = False
                for child_rt, key_pos in zip(rt.children, rt.child_key_positions):
                    ck = tuple(row[j] for j in key_pos)
                    pq = child_rt.pqs.get(ck)
                    if pq is None or not pq:
                        # Can only happen when the caller passed
                        # unreduced instances with
                        # already_reduced=True; treat the tuple as
                        # dangling and skip it.
                        dead = True
                        break
                    child_cells.append(pq.top())
                if dead:
                    continue
                children = tuple(child_cells)
                key = combine([own_key] + [c.key for c in children])
                out = rt.layout(own_out, children)
            else:
                children = ()
                key = own_key
                out = own_out
            u = rt.anchor_of(row)
            group = groups.get(u)
            if group is None:
                group = groups[u] = (RankHeap(self.heap_stats), [])
            cell = Cell(row, children, key, out, own_key, own_out, group[0], i)
            self.stats.cells_created += 1
            group[1].append((key, out, cell))
        for u, (pq, entries) in groups.items():
            pq.push_many(entries)
            rt.pqs[u] = pq

    # ------------------------------------------------------------------ #
    # enumeration (Algorithm 2)
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[RankedAnswer]:
        """Enumerate ``Q(D)`` in rank order without duplicates.

        Strictly monotone rankings (SUM, LEX, composites on them) stream
        straight off the root queue: every group of cells with the same
        partial output is popped at once and can never reappear.  Weakly
        monotone rankings (MIN/MAX/PRODUCT) buffer one *key* group at a
        time: within an equal-key run, successor cells can arrive out of
        output order (and re-produce an output seen earlier in the run),
        so the run is collected fully, de-duplicated and emitted sorted.
        """
        self.preprocess()
        if self._exhausted:
            raise QueryError(
                "enumerator already consumed; call fresh() to enumerate again"
            )
        self._exhausted = True
        root = self._root_rt
        assert root is not None
        pq = self._root_pq
        topdown = self._topdown

        def advance(top: Cell | None) -> Cell | None:
            # One root step: Topdown past ``top``, then the next top.
            if top is not None:
                topdown(top, root)
            return pq.top() if pq else None

        if self._queues is not None:  # shared queues: one locked step at a time
            advance = partial(self._queues.step, self.stats, self.heap_stats, advance)
        if self.bound.strictly_monotone:
            yield from self._iter_streaming(advance)
        else:
            yield from self._iter_key_groups(advance)

    def _iter_streaming(self, advance) -> Iterator[RankedAnswer]:
        final_score = self.bound.final_score
        ops_mark = self.heap_stats.operations
        last_out = None
        top = advance(None)
        while top is not None:
            if top.out != last_out:  # Algorithm 2 line 5 (defensive; see note)
                last_out = top.out
                self.stats.answers += 1
                ops_now = self.heap_stats.operations
                self.stats.pq_ops_per_answer.append(ops_now - ops_mark)
                ops_mark = ops_now
                yield RankedAnswer(top.out, final_score(top.key), key=top.key)
            top = advance(top)

    def _iter_key_groups(self, advance) -> Iterator[RankedAnswer]:
        final_score = self.bound.final_score
        ops_mark = self.heap_stats.operations
        top = advance(None)
        while top is not None:
            key = top.key
            outs: set[tuple] = set()
            # Drain the whole equal-key run; weak monotonicity guarantees
            # every ancestor of a key-k cell also has key <= k, so all
            # key-k cells surface before the run ends.
            while top is not None and top.key == key:
                outs.add(top.out)
                top = advance(top)
            ops_now = self.heap_stats.operations
            group_ops = ops_now - ops_mark
            ops_mark = ops_now
            score = final_score(key)
            for i, out in enumerate(sorted(outs)):
                self.stats.answers += 1
                self.stats.pq_ops_per_answer.append(group_ops if i == 0 else 0)
                yield RankedAnswer(out, score, key=key)

    def _topdown(self, cell: Cell, rt: _RTNode) -> Cell | None:
        """Algorithm 2's ``Topdown``: advance a node/anchor group past the
        partial output of ``cell``, memoising the result on the chain."""
        nxt = cell.next
        if nxt is not UNSET:
            return nxt  # O(1) reuse of previously computed successor
        pq = cell.group
        children_rts = rt.children
        single = len(children_rts) == 1
        # A one-child node needs no seen-set: each child chain cell has
        # one ``next``, so two cells of one row never advance to the same
        # child, and no successor can repeat.
        seen = pq.seen
        if seen is None and self._dedup_inserts and len(children_rts) > 1:
            seen = pq.seen = set()
        combine = self.bound.combine
        layout = rt.layout
        made = 0
        while True:
            temp = pq.pop()
            # Successors: advance each child pointer of the popped cell.
            # They share temp's row, so they go back into this group.
            children = temp.children
            for i, child_rt in enumerate(children_rts):
                advanced = self._topdown(children[i], child_rt)
                if advanced is not None:
                    if single:
                        new_children = (advanced,)
                    else:
                        new_children = list(children)
                        new_children[i] = advanced
                        new_children = tuple(new_children)
                    if seen is not None:
                        # Cell.identity() of the successor, checked before
                        # building it.
                        ident = dedup_key(temp.ordinal, new_children)
                        if ident in seen:
                            continue
                        seen.add(ident)
                    key = combine([temp.own_key] + [c.key for c in new_children])
                    out = layout(temp.own_out, new_children)
                    successor = Cell(
                        temp.row,
                        new_children,
                        key,
                        out,
                        temp.own_key,
                        temp.own_out,
                        pq,
                        temp.ordinal,
                    )
                    pq.push(key, out, successor)
                    made += 1
            if not pq:
                cell.next = None
                break
            top = pq.top()
            if not rt.is_root:
                cell.next = top
            if not temp.same_output(top):
                break
        self.stats.cells_created += made
        pq.made += made
        if rt.is_root:
            return None  # the root chain is never consulted
        return cell.next

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #
    def fresh(self) -> "AcyclicRankedEnumerator":
        """A new enumerator with identical configuration (re-preprocesses)."""
        return AcyclicRankedEnumerator(
            self.query,
            self.db,
            self.ranking,
            join_tree=self.join_tree,
            prune=self._prune,
            dedup_inserts=self._dedup_inserts,
            instances=self._given_instances,
            already_reduced=self._already_reduced,
        )
