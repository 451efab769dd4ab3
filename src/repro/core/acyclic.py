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
  columns, each node's rows are sorted once — by (anchor, rank key,
  partial output) in one ``lexsort`` — into one sorted *run* per anchor
  group.  A group's queue (:class:`_LazyGroup`) is created only when a
  parent's cell first points into it, and a row's cell only when its
  run position reaches the top of its group; a child's key and output
  enter its parents through the head of each run.  Other rankings and
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
  a per-queue seen-set (``RankHeap.seen``) keyed on ``(tuple, child
  cell identities)``.  Benchmarked as an ablation.
* ``LIMIT k`` (:meth:`top_k`) pops the same queues: there is one top-k
  path, and its cost grows with ``k``, not with the join.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Mapping, Sequence
from operator import itemgetter
from typing import Any

from ..algorithms.yannakakis import atom_instances, full_reduce
from ..data.database import Database
from ..errors import QueryError
from ..query.jointree import JoinTree, JoinTreeNode, build_join_tree
from ..query.query import JoinProjectQuery
from ..storage import kernels
from .answers import EnumerationStats, RankedAnswer
from .base import RankedEnumeratorBase
from .cell import Cell, UNSET
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
        self._merge = _tuple_getter([bases[src] + off for src, off in self.out_plan])
        # anchor -> RankHeap (scalar build) or _LazyGroup (the node's
        # _Runs, which creates a group when it is first looked up).
        self.pqs: Mapping[tuple, Any] = {}
        self.is_root = tree_node.is_root
        # The node's sorted runs when the array build ran, else None (a
        # parent of a scalar-built node is built the scalar way too).
        self.runs: _Runs | None = None

    def layout(self, own_out: tuple, children: tuple[Cell, ...]) -> tuple:
        """Partial output in global head order (see ``out_plan``)."""
        if not children:
            return own_out
        parts = own_out
        for child in children:
            parts += child.out
        return self._merge(parts)


class _Runs(Mapping):
    """One node's reduced rows, sorted once into per-anchor runs.

    Position ``i`` of the parallel lists is the ``i``-th row in
    (anchor, key, output, row order) order; anchor group ``g`` owns the
    contiguous span ``bounds[g]:bounds[g + 1]``.  Its :class:`_LazyGroup`
    is created on demand — when a parent's cell first points into it
    (:meth:`group`), or when the root or an inspection looks it up by
    anchor: the runs are also the node's queue family, a mapping from
    anchor to group.  ``links`` holds, per child, the child's runs and
    each position's group index in them: the child queue the row's
    cell points into.  The ``head_*`` arrays describe each group's
    first position (its initial top) to the parent's array build, in
    group order, which is ascending anchor order.
    """

    __slots__ = (
        "rows",
        "row_idx",
        "keys",
        "outs",
        "own_keys",
        "zero_key",
        "own_of",
        "anchor_of",
        "links",
        "stats",
        "heap_stats",
        "bounds",
        "groups",
        "index",
        "head_anchor",
        "head_keys",
        "head_outs",
    )

    def group(self, g: int) -> "_LazyGroup":
        """Anchor group ``g``'s queue, created on first use."""
        group = self.groups[g]
        if group is None:
            group = self.groups[g] = _LazyGroup(self, self.bounds[g], self.bounds[g + 1])
        return group

    def cell(self, pos: int, group: "_LazyGroup") -> Cell:
        """The cell of run position ``pos`` in ``group`` (children: the
        child tops)."""
        self.stats.cells_created += 1
        children = [runs.group(idx[pos]).first_cell() for runs, idx in self.links]
        return self._make(pos, children, group)

    def peek(self, pos: int) -> Cell:
        """A stand-in for the cell of run position ``pos``, equal to it
        in every field but ``group`` (``None``), that creates and counts
        no cell: a child group whose first cell does not exist yet is
        peeked in turn."""
        children = []
        for runs, idx in self.links:
            g = idx[pos]
            child = runs.groups[g]
            first = None if child is None else child.first
            # A group without a first cell has never been popped: its
            # head is still its first position.
            children.append(runs.peek(runs.bounds[g]) if first is None else first)
        return self._make(pos, children, None)

    def _make(self, pos: int, children: list, group) -> Cell:
        row = self.rows[self.row_idx[pos]]
        own_key = self.zero_key if self.own_keys is None else self.own_keys[pos]
        out = self.outs[pos]
        return Cell(row, tuple(children), self.keys[pos], out, own_key, self.own_of(row), group)

    # The queue family by anchor, for the root and for inspection.
    def _index(self) -> dict:
        index = self.index
        if index is None:
            rows, row_idx, anchor_of = self.rows, self.row_idx, self.anchor_of
            index = self.index = {
                anchor_of(rows[row_idx[start]]): g for g, start in enumerate(self.bounds[:-1])
            }
        return index

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
    sequence number would.  The inherited heap holds only successors.
    A run position's cell is created when it becomes the group's top;
    the first one is kept, because parents built against the group
    point at that very object.  The group itself is created by its
    :class:`_Runs` on first use.
    """

    __slots__ = ("runs", "pos", "end", "head", "cell", "first")

    def __init__(self, runs: _Runs, start: int, end: int):
        super().__init__(runs.heap_stats)
        self.runs = runs
        self.pos = start
        self.end = end
        self.head: tuple | None = None  # the run head's sort key, once needed
        self.cell: Cell | None = None  # the run head's cell, once created
        self.first: Cell | None = None

    def first_cell(self) -> Cell:
        """The group's initial top (what parents' child pointers hold)."""
        cell = self.first
        if cell is None:
            cell = self.first = self.cell = self.runs.cell(self.pos, self)
        return cell

    def _run_top(self) -> Cell:
        cell = self.cell
        if cell is None:
            if self.pos == self.end:
                raise IndexError("top of an empty queue")
            cell = self.cell = self.runs.cell(self.pos, self)
            if self.first is None:
                self.first = cell
        return cell

    def _load_head(self) -> tuple:
        runs, pos = self.runs, self.pos
        head = self.head = (runs.keys[pos], runs.outs[pos])
        return head

    def top(self) -> Cell:
        entries = self._entries
        if entries and (self.pos == self.end or entries[0][0] < (self.head or self._load_head())):
            return entries[0][2]
        return self._run_top()

    def top_key(self) -> Any:
        entries = self._entries
        if entries and (self.pos == self.end or entries[0][0] < (self.head or self._load_head())):
            return entries[0][0]
        if self.pos == self.end:
            raise IndexError("top of an empty queue")
        return self.head or self._load_head()

    def pop(self) -> Cell:
        entries = self._entries
        if entries and (self.pos == self.end or entries[0][0] < (self.head or self._load_head())):
            return RankHeap.pop(self)
        cell = self._run_top()
        self.cell = None
        self.head = None
        self.pos += 1
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
        no work counter.
        """
        run = [self.runs.peek(p) for p in range(self.pos, self.end)]
        if run and self.cell is not None:
            run[0] = self.cell
        return run + RankHeap.items(self)


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

    The object is one-shot per enumeration: iterating consumes the
    queues.  Call :meth:`fresh` (cheap re-preprocess) to enumerate again.
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
    ):
        self.query = query
        self.db = db
        self.ranking = ranking or SumRanking()
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
        self._head_reorder: tuple[int, ...] = ()
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
            if not self._build_runs(rt, rows, own_arr, instances):
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
        self._head_reorder = tuple(range(len(self.query.head)))

        self._preprocessed = True
        self.stats.build_seconds += time.perf_counter() - started
        self.stats.preprocess_seconds = (
            self.stats.reduce_seconds + self.stats.build_seconds
        )
        return self

    def _build_runs(self, rt: _RTNode, rows: Sequence[Row], own_arr, instances) -> bool:
        """The array build of one node's queue family (see :class:`_Runs`).

        One stable ``lexsort`` over the node's rows by (anchor, key,
        partial output) yields every anchor group's pop order and its
        head at once.  A row's output, and its combined key, take each
        child's part from the head of the child group it joins with
        (``pack_pair`` + ``searchsorted`` against the child's sorted
        head anchors); rows without one are dangling and skipped, as in
        the scalar build.  Batchable rankings sort by the float key
        array; LEX sorts by the columns its key is made of
        (``key_sort_columns``), and a key is built only when its run
        position is reached.  Refuses (``False``: the scalar build runs)
        for other rankings, a child built the scalar way, columns that
        are not exactly ``int``, infinite weights under a batchable
        ranking and NaN keys — the cases where array order could differ
        from the heap's.  A refusal at a node with children is counted
        on ``combine_counters`` with its reason.
        """

        def refuse(reason: str) -> bool:
            if rt.children and rows:
                combine_counters.record_fallback(reason)
            return False

        bound = self.bound
        if not kernels.enabled():
            return False
        batched = bound.batch_weight() is not None
        if not batched and bound.key_sort_columns((), []) is None:
            return refuse("unbatchable-ranking")
        if batched and own_arr is None and rt.own_pairs and rows:
            return refuse("no-key-array")
        if any(c.runs is None for c in rt.children):
            return refuse("scalar-child-keys")
        # Outputs are rebuilt from the columns: no bool or IntEnum to
        # normalise.  Key columns only need an exact int64 image.
        if not kernels.rows_exactly_int(rows, rt.own_positions):
            return refuse("conversion")
        cols = _int_columns(instances, rt, rows)
        if cols is None:
            return refuse("conversion")
        np = kernels.np
        n = len(rows)
        zero_key = bound.key([])
        if batched:
            own = own_arr if own_arr is not None else np.full(n, float(zero_key))
            # NaN keys order a heap by its layout, which a sorted run
            # cannot mimic.  An infinite weight can make one in a
            # successor (inf - inf, 0 * inf), so its node and that
            # node's ancestors are built the scalar way.
            if rt.own_pairs and not np.isfinite(own).all():
                return refuse("non-finite-key")
        valid = np.ones(n, dtype=bool)
        child_idx = []
        for child, key_pos in zip(rt.children, rt.child_key_positions):
            if not child.runs.groups:
                valid[:] = False
                idx = np.zeros(n, dtype=np.int64)
            elif not key_pos:
                idx = np.zeros(n, dtype=np.int64)  # the one ()-anchored group
            else:
                packed = kernels.pack_pair([cols[p] for p in key_pos], child.runs.head_anchor)
                if packed is None:
                    return refuse("pack-overflow")
                p_keys, h_keys = packed
                # Heads ascend by anchor, and packing keeps that order.
                idx = np.minimum(np.searchsorted(h_keys, p_keys), len(h_keys) - 1)
                valid &= h_keys[idx] == p_keys
            child_idx.append(idx)
        sel = None if valid.all() else np.flatnonzero(valid)
        if sel is not None:
            child_idx = [idx[sel] for idx in child_idx]
            cols = {p: col[sel] for p, col in cols.items()}
        parts = [[cols[p] for p in rt.own_positions]] + [
            [col[idx] for col in c.runs.head_outs] for c, idx in zip(rt.children, child_idx)
        ]
        out_cols = [parts[src][off] for src, off in rt.out_plan]
        if batched:
            if sel is not None:
                own = own[sel]
            if rt.children:
                keys = bound.combine_key_arrays(
                    [own] + [c.runs.head_keys[idx] for c, idx in zip(rt.children, child_idx)]
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
        anchor_cols = [cols[p] for p in rt.anchor_positions]
        # lexsort's last key is the primary one.
        order = np.lexsort(
            tuple(reversed(out_cols)) + tuple(reversed(sort_keys)) + tuple(reversed(anchor_cols))
        )
        m = len(order)
        out_cols = [col[order] for col in out_cols]
        anchor_cols = [col[order] for col in anchor_cols]
        change = np.zeros(m, dtype=bool)
        change[:1] = True
        for col in anchor_cols:
            change[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(change)

        runs = _Runs()
        runs.rows = rows
        row_idx = runs.row_idx = (order if sel is None else sel[order]).tolist()
        runs.zero_key = zero_key
        runs.outs = list(zip(*[col.tolist() for col in out_cols])) if out_cols else [()] * m
        own_of = runs.own_of = rt.own_of
        if batched:
            keys = keys[order]
            if rt.children or rt.own_pairs:
                runs.keys = keys.tolist()
            else:
                runs.keys = [zero_key] * m  # the scalar leaf key: bound.key([])
            runs.own_keys = own[order].tolist() if rt.own_pairs else None
            runs.head_keys = keys[starts]
        else:
            runs.keys = _OutputKeys(bound.key, rt.out_vars, runs.outs.__getitem__)
            runs.own_keys = None
            if rt.own_pairs:
                own_vars = tuple(v for v, _ in rt.own_pairs)
                runs.own_keys = _OutputKeys(
                    bound.key, own_vars, lambda pos: own_of(rows[row_idx[pos]])
                )
            runs.head_keys = None
        runs.anchor_of = rt.anchor_of
        runs.links = [(c.runs, idx[order].tolist()) for c, idx in zip(rt.children, child_idx)]
        runs.stats = self.stats
        runs.heap_stats = self.heap_stats
        runs.head_anchor = [col[starts] for col in anchor_cols]
        runs.head_outs = [col[starts] for col in out_cols]
        runs.bounds = starts.tolist() + [m]
        runs.groups = [None] * len(starts)  # created on first use
        runs.index = None
        rt.pqs = rt.runs = runs
        if batched and rt.children:
            combine_counters.record_call()
        stats = self.heap_stats
        stats.pushes += m
        stats.live_entries += m
        if stats.live_entries > stats.peak_entries:
            stats.peak_entries = stats.live_entries
        return True

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
        groups: dict[tuple, tuple[RankHeap, list[tuple[tuple, Cell]]]] = {}
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
            cell = Cell(row, children, key, out, own_key, own_out, group[0])
            self.stats.cells_created += 1
            group[1].append(((key, out), cell))
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
        pq = root.pqs.get(())
        if self.bound.strictly_monotone:
            yield from self._iter_streaming(pq, root)
        else:
            yield from self._iter_key_groups(pq, root)

    def _iter_streaming(self, pq, root: _RTNode) -> Iterator[RankedAnswer]:
        final_score = self.bound.final_score
        ops_mark = self.heap_stats.operations
        last_out = None
        while pq:
            top = pq.top()
            if top.out != last_out:  # Algorithm 2 line 5 (defensive; see note)
                last_out = top.out
                self.stats.answers += 1
                ops_now = self.heap_stats.operations
                self.stats.pq_ops_per_answer.append(ops_now - ops_mark)
                ops_mark = ops_now
                yield RankedAnswer(top.out, final_score(top.key), key=top.key)
            self._topdown(top, root)

    def _iter_key_groups(self, pq, root: _RTNode) -> Iterator[RankedAnswer]:
        final_score = self.bound.final_score
        ops_mark = self.heap_stats.operations
        while pq:
            key = pq.top().key
            outs: set[tuple] = set()
            # Drain the whole equal-key run; weak monotonicity guarantees
            # every ancestor of a key-k cell also has key <= k, so all
            # key-k cells surface before the run ends.
            while pq and pq.top().key == key:
                top = pq.top()
                outs.add(top.out)
                self._topdown(top, root)
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
        seen = pq.seen
        if seen is None and self._dedup_inserts:
            seen = pq.seen = set()
        combine = self.bound.combine
        children_rts = rt.children
        while True:
            temp = pq.pop()
            # Successors: advance each child pointer of the popped cell.
            # They share temp's row, so they go back into this group.
            for i, child_rt in enumerate(children_rts):
                advanced = self._topdown(temp.children[i], child_rt)
                if advanced is not None:
                    new_children = (
                        temp.children[:i] + (advanced,) + temp.children[i + 1 :]
                    )
                    if seen is not None:
                        # Cell.identity() of the successor, checked before
                        # building it.
                        ident = (temp.row, tuple([c.uid for c in new_children]))
                        if ident in seen:
                            continue
                        seen.add(ident)
                    key = combine([temp.own_key] + [c.key for c in new_children])
                    out = rt.layout(temp.own_out, new_children)
                    successor = Cell(
                        temp.row, new_children, key, out, temp.own_key, temp.own_out, pq
                    )
                    pq.push((key, out), successor)
                    self.stats.cells_created += 1
            if not pq:
                cell.next = None
                break
            top = pq.top()
            if not rt.is_root:
                cell.next = top
            if not temp.same_output(top):
                break
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
