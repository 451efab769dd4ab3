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
  group, and a row's cell is created only when its run position
  reaches the top of its group (:class:`_LazyGroup`); a child's key and
  output enter its parents through the head of each run.  Other
  rankings and data build one cell and heap entry per tuple (the
  scalar build, also the test oracle).  Both builds pop the same cells
  in the same order.
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
  a per-queue seen-set keyed on ``(tuple, child cell identities)``.
  Benchmarked as an ablation.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Any, Iterator, Mapping, Sequence

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
    topk_counters,
)

__all__ = ["AcyclicRankedEnumerator", "BULK_TOPK_COST_FACTOR"]

Row = tuple

#: The bulk top-k cost gate.  The bulk kernel materialises the join of
#: the reduced instances (deduplicating per node) and its cost does not
#: grow with ``k``; the incremental heap path is lazy and its cost does.
#: So ``top_k`` first counts the exact pre-dedup join size ``J`` (no
#: join is built) and serves by bulk only when ``J`` is at most this
#: many times the reduced row count ``N`` — a join that fans out further
#: goes to the heap, whatever ``k`` is.  Measured on random bipartite
#: graphs (3 000 rows, k = 10 and 100), bulk and heap tie at
#: ``J/N`` ~ 40 on 2hop and ~ 40-45 on star3; the paper's DBLP/IMDB-like
#: 2hop projections sit at 11-25 (bulk faster), their 3hop, 4hop and
#: star3 at 200-11 000 (bulk 1.4-37x slower).
BULK_TOPK_COST_FACTOR = 40


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
        "seen",
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
        self.pqs: dict[tuple, Any] = {}  # anchor -> RankHeap or _LazyGroup
        self.seen: dict[tuple, set] = {}
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


class _Runs:
    """One node's reduced rows, sorted once into per-anchor runs.

    Position ``i`` of the parallel lists is the ``i``-th row in
    (anchor, key, output, row order) order; each anchor group owns a
    contiguous span of positions (a :class:`_LazyGroup`).  ``links``
    holds, per child, the child's groups and each position's group
    index in them: the child queue the row's cell points into.  The
    ``head_*`` arrays describe each group's first position (its initial
    top) to the parent's array build, in group order, which is
    ascending anchor order.
    """

    __slots__ = (
        "rows",
        "row_idx",
        "keys",
        "outs",
        "own_keys",
        "zero_key",
        "own_of",
        "links",
        "stats",
        "heap_stats",
        "groups",
        "head_anchor",
        "head_keys",
        "head_outs",
    )

    def cell(self, pos: int) -> Cell:
        """The cell of run position ``pos`` (children: the child tops)."""
        self.stats.cells_created += 1
        return self._make(pos, [groups[idx[pos]].first_cell() for groups, idx in self.links])

    def peek(self, pos: int) -> Cell:
        """A stand-in for the cell of run position ``pos``, equal to it
        field for field, that creates and counts no cell: a child group
        whose first cell does not exist yet is peeked in turn."""
        children = []
        for groups, idx in self.links:
            group = groups[idx[pos]]
            first = group.first
            children.append(group.runs.peek(group.pos) if first is None else first)
        return self._make(pos, children)

    def _make(self, pos: int, children: list) -> Cell:
        row = self.rows[self.row_idx[pos]]
        own_key = self.zero_key if self.own_keys is None else self.own_keys[pos]
        out = self.outs[pos]
        return Cell(row, tuple(children), self.keys[pos], out, own_key, self.own_of(row))


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
    point at that very object.
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
            cell = self.first = self.cell = self.runs.cell(self.pos)
        return cell

    def _run_top(self) -> Cell:
        cell = self.cell
        if cell is None:
            if self.pos == self.end:
                raise IndexError("top of an empty queue")
            cell = self.cell = self.runs.cell(self.pos)
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
    bulk_topk_max_k:
        The bulk top-k kernel's ``k`` ceiling: ``0`` (default) keeps
        every ``top_k`` on the heap path, ``None`` lets the cost gate
        (:data:`BULK_TOPK_COST_FACTOR`) decide at any ``k``, a positive
        value also requires ``k`` at or below it.

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
        bulk_topk_max_k: int | None = 0,
    ):
        self.query = query
        self.db = db
        self.ranking = ranking or SumRanking()
        self._prune = prune
        self._dedup_inserts = dedup_inserts
        self._given_instances = instances
        self._already_reduced = already_reduced
        self._bulk_topk_max_k = None if bulk_topk_max_k is None else int(bulk_topk_max_k)

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
        self._instances: Mapping[str, list[Row]] | None = None
        self._tree: JoinTree | None = None

    # ------------------------------------------------------------------ #
    # preprocessing (Algorithm 1)
    # ------------------------------------------------------------------ #
    def _prepare_instances(self):
        """Reducer pass + pruning, shared by queue build and bulk top-k.

        The given instances are used as-is (full_reduce copies before
        filtering, downstream code only reads) so that warm
        ReducedInstances keep their source-view bindings and survivor
        arrays — that metadata is what lets the batched key paths gather
        storage-cached score columns instead of re-weighing every row.
        """
        if self._instances is not None:
            return self._instances, self._tree
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
        self._instances = instances
        self._tree = tree
        self.stats.reduce_seconds += time.perf_counter() - started
        # Bulk-served top-k never reaches ``preprocess``: keep the sum here.
        self.stats.preprocess_seconds = (
            self.stats.reduce_seconds + self.stats.build_seconds
        )
        return instances, tree

    def preprocess(self) -> "AcyclicRankedEnumerator":
        """Run the full reducer and build all per-node priority queues."""
        if self._preprocessed:
            return self
        instances, tree = self._prepare_instances()
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
        runs.links = [
            (c.runs.groups, idx[order].tolist()) for c, idx in zip(rt.children, child_idx)
        ]
        runs.stats = self.stats
        runs.heap_stats = self.heap_stats
        runs.head_anchor = [col[starts] for col in anchor_cols]
        runs.head_outs = [col[starts] for col in out_cols]
        bounds = starts.tolist() + [m]
        runs.groups = [_LazyGroup(runs, s, e) for s, e in zip(bounds, bounds[1:])]
        anchor_of = rt.anchor_of
        rt.pqs = {
            anchor_of(rows[row_idx[group.pos]]): group for group in runs.groups
        }
        rt.runs = runs
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
        groups: dict[tuple, list[tuple[tuple, Cell]]] = {}
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
            cell = Cell(row, children, key, out, own_key, own_out)
            self.stats.cells_created += 1
            u = tuple(row[j] for j in rt.anchor_positions)
            entries = groups.get(u)
            if entries is None:
                entries = groups[u] = []
            entries.append(((key, out), cell))
        for u, entries in groups.items():
            pq = RankHeap(self.heap_stats)
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
        u = rt.anchor_of(cell.row)
        pq = rt.pqs[u]
        seen = None
        if self._dedup_inserts:
            seen = rt.seen.get(u)
            if seen is None:
                seen = rt.seen[u] = set()
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
                        temp.row, new_children, key, out, temp.own_key, temp.own_out
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
    # bulk top-k (vectorised serve, gated by the join's size)
    # ------------------------------------------------------------------ #
    def top_k(self, k: int) -> list[RankedAnswer]:
        """First ``k`` answers; cheap joins are served by the bulk kernel.

        When the bulk kernel is on (``bulk_topk_max_k``: the engine layer
        turns it on with no ``k`` ceiling, direct construction defaults
        to off), ``k`` is within the ceiling and the ranking is
        batched-capable, one bottom-up pass counts the exact pre-dedup
        join size ``J`` of the reduced instances (:meth:`_join_rows`,
        kept as ``stats.join_rows``).  Only when
        ``J <= BULK_TOPK_COST_FACTOR * N`` (``N`` reduced rows) is the
        prefix computed in one materialise-partition-sort pass over
        arrays (:meth:`_bulk_topk`) — bit-identical to the heap
        emission, ties included.  A larger join is declined (reason
        ``"cost"``) before any of it is materialised; that and every
        refusal fall back to the incremental heap path with its delay
        guarantees intact, counted in ``bulk_topk_fallbacks``.
        """
        limit = self._bulk_topk_max_k
        if (
            0 < k
            and (limit is None or k <= limit)
            and not self._exhausted
            and not self._preprocessed
            and kernels.enabled()
        ):
            if self.bound.batch_weight() is None:
                topk_counters.record_fallback("unbatchable-ranking")
            else:
                instances, tree = self._prepare_instances()
                started = time.perf_counter()
                nodes = self._bulk_columns(instances, tree)
                join_rows = None if nodes is None else self._join_rows(nodes)
                self.stats.join_rows = join_rows
                self.stats.enumerate_seconds += time.perf_counter() - started
                if join_rows is None:
                    topk_counters.record_fallback("refused")
                elif join_rows > BULK_TOPK_COST_FACTOR * sum(
                    len(rows) for _rt, rows, _cols in nodes
                ):
                    topk_counters.record_fallback("cost")
                else:
                    answers = self._bulk_topk(k, nodes)
                    if answers is not None:
                        topk_counters.record_call()
                        return answers
                    topk_counters.record_fallback("refused")
        return super().top_k(k)

    def _bulk_columns(self, instances, tree: JoinTree) -> list[tuple] | None:
        """The bulk kernel's per-node inputs, shared with the cost count.

        Post-order ``(runtime node, rows, {position: int64 column})``
        over the pruned tree, one column per anchor, child-key and owned
        output position — extracted once, read by both
        :meth:`_join_rows` and :meth:`_bulk_topk`.  ``None`` when a
        column is not exactly integer (the kernel could not run).
        """
        head_position = {v: i for i, v in enumerate(self.query.head)}
        rt_by_alias: dict[str, _RTNode] = {}
        nodes = []
        for node in tree.post_order():
            rows = instances[node.alias]
            children_rt = [rt_by_alias[c.alias] for c in node.children]
            rt = _RTNode(node, children_rt, head_position)
            rt_by_alias[node.alias] = rt
            cols = _int_columns(instances, rt, rows)
            if cols is None:
                return None
            nodes.append((rt, rows, cols))
        return nodes

    @staticmethod
    def _join_rows(nodes: list[tuple]) -> float | None:
        """Exact pre-dedup join size of the instances, without the join.

        Bottom-up: a row's count is the product, over its children, of
        the summed counts of the child rows sharing its key (a leaf row
        counts 1); the root's counts sum to the number of rows the full
        join would have.  On reduced instances every row extends to a
        full answer, so that number bounds every intermediate
        :meth:`_bulk_topk` builds.  ``float64`` throughout: exact up to
        2**53 and far past any size the gate would let through.
        ``None`` when a key does not pack.
        """
        np = kernels.np
        counted: dict[str, tuple] = {}
        total = 0.0
        for rt, rows, cols in nodes:
            counts = np.ones(len(rows))
            for child_rt, key_pos in zip(rt.children, rt.child_key_positions):
                c_cols, c_counts = counted[child_rt.alias]
                if key_pos:
                    packed = kernels.pack_pair(
                        [cols[p] for p in key_pos],
                        [c_cols[p] for p in child_rt.anchor_positions],
                    )
                    if packed is None:
                        return None
                    counts = counts * kernels.keyed_sums(*packed, c_counts)
                else:
                    counts = counts * c_counts.sum()
            counted[rt.alias] = (cols, counts)
            total = float(counts.sum())  # the root comes last
        return total

    def _bulk_topk(self, k: int, nodes: list[tuple]) -> list[RankedAnswer] | None:
        """One array pass from reduced instances to the k best answers.

        Post-order over the join tree (``nodes``, from
        :meth:`_bulk_columns`), each node's state three aligned array
        groups: anchor columns, output columns (head order) and a
        float64 key per distinct (anchor, output) partial answer.  A
        node joins its rows against each child state on the anchor
        (``pack_pair`` + ``join_indices``), combines keys with the same
        nested structure as the scalar ``combine([own] + children)``
        (float addition is not associative — structure is identity),
        dedups with ``distinct_indices`` (a partial answer's key is a
        pure function of its output values, so any representative's key
        is *the* key), and the root selects k via ``np.partition`` on
        the kth key, an ``<=``-mask that keeps boundary ties, and one
        ``lexsort`` by (key, output) — exactly the heap's emission
        order, weakly-monotone key-group sorting included.  Returns
        ``None`` to refuse (the heap path then runs unchanged).
        """
        np = kernels.np
        bound = self.bound
        instances = self._instances
        started = time.perf_counter()
        states: dict[str, tuple] = {}
        for rt, rows, cols in nodes:
            if not rows:
                # Reduced instances: one empty relation empties the output.
                self._exhausted = True
                self.stats.enumerate_seconds += time.perf_counter() - started
                return []
            if rt.own_pairs and not kernels.rows_exactly_int(rows, rt.own_positions):
                return None  # output rebuild would normalise bool/IntEnum
            if rt.own_pairs:
                own_arr = batched_node_key_array(
                    bound, instances, rt.alias, rt.own_pairs
                )
                if own_arr is None:
                    return None
            else:
                own_arr = np.full(len(rows), float(bound.zero))
            sel = np.arange(len(rows))
            acc_child_cols: list[list] = []
            acc_child_keys: list = []
            for child_rt, key_pos in zip(rt.children, rt.child_key_positions):
                c_anchor, c_out, c_keys = states[child_rt.alias]
                parent_key_cols = [cols[p][sel] for p in key_pos]
                if key_pos:
                    packed = kernels.pack_pair(parent_key_cols, list(c_anchor))
                    if packed is None:
                        return None
                    p_keys, ca_keys = packed
                else:
                    p_keys = np.zeros(len(sel), dtype=np.int64)
                    ca_keys = np.zeros(len(c_keys), dtype=np.int64)
                li, ri = kernels.join_indices(p_keys, ca_keys)
                sel = sel[li]
                acc_child_cols = [
                    [col[li] for col in colset] for colset in acc_child_cols
                ]
                acc_child_keys = [arr[li] for arr in acc_child_keys]
                acc_child_cols.append([col[ri] for col in c_out])
                acc_child_keys.append(c_keys[ri])
            if acc_child_keys:
                keys = bound.combine_key_arrays([own_arr[sel]] + acc_child_keys)
                if keys is None:
                    return None
            else:
                # Leaves take their own key verbatim — the scalar path
                # applies combine() only when children exist (and e.g.
                # PRODUCT's combine strips key signs that must survive).
                keys = own_arr[sel]
            anchor_cols = [cols[p][sel] for p in rt.anchor_positions]
            own_out_cols = [cols[p][sel] for p in rt.own_positions]
            parts = [own_out_cols] + acc_child_cols
            out_cols = [parts[src][off] for src, off in rt.out_plan]
            dedup_cols = anchor_cols + out_cols
            if dedup_cols:
                matrix = np.stack(dedup_cols, axis=1)
            else:
                matrix = np.empty((len(sel), 0), dtype=np.int64)
            first = kernels.distinct_indices(matrix)
            if first is None:
                return None
            anchor_cols = [c[first] for c in anchor_cols]
            out_cols = [c[first] for c in out_cols]
            keys = keys[first]
            states[rt.alias] = (anchor_cols, out_cols, keys)

        root_rt = nodes[-1][0]  # post-order: the root comes last
        if root_rt.out_vars != self.query.head:
            raise QueryError(
                f"internal error: root output {root_rt.out_vars} does not "
                f"match head {self.query.head}"
            )
        _anchor, out_cols, keys = states[root_rt.alias]
        n = len(keys)
        if n == 0:
            self._exhausted = True
            self.stats.enumerate_seconds += time.perf_counter() - started
            return []
        if n > k:
            kth = np.partition(keys, k - 1)[k - 1]
            mask = keys <= kth  # keep every boundary tie, truncate post-sort
            out_cols = [c[mask] for c in out_cols]
            keys = keys[mask]
        order = np.lexsort(tuple(reversed(out_cols)) + (keys,))[:k]
        out_matrix = np.stack([c[order] for c in out_cols], axis=1)
        final_score = bound.final_score
        answers = [
            RankedAnswer(tuple(values), final_score(key), key=key)
            for values, key in zip(out_matrix.tolist(), keys[order].tolist())
        ]
        self._exhausted = True
        self.stats.answers += len(answers)
        self.stats.enumerate_seconds += time.perf_counter() - started
        return answers

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
            bulk_topk_max_k=self._bulk_topk_max_k,
        )
