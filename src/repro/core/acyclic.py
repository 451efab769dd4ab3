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

* **Preprocessing (Algorithm 1)**: full-reducer pass, then bottom-up cell
  construction — a leaf cell per tuple; an internal cell per tuple
  pointing at the current top of each child queue it joins with.
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
    batched_node_keys,
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
        "pqs",
        "seen",
        "is_root",
        "batched",
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
        self.pqs: dict[tuple, RankHeap[Cell]] = {}
        self.seen: dict[tuple, set] = {}
        self.is_root = tree_node.is_root
        # True when every initial cell key of this node came through the
        # float64 array path (or is the ranking's empty-set constant) —
        # the precondition for a parent to gather this node's top keys
        # into an array.  A scalar-keyed child (e.g. huge-int identity
        # weights that float64 cannot hold) forces scalar combine upward.
        self.batched = False

    def anchor_of(self, row: Row) -> tuple:
        return tuple(row[i] for i in self.anchor_positions)


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
            own_keys = batched_node_keys(self.bound, instances, node.alias, rt.own_pairs)
            self._build_node_queues(rt, instances[node.alias], own_keys)
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

    def _build_node_queues(
        self, rt: _RTNode, rows: Sequence[Row], own_keys: Sequence | None = None
    ) -> None:
        bound = self.bound
        make_key = bound.key
        combine = bound.combine
        # Initial cells are unique combinations (rows are distinct and
        # all point at the current child tops), so duplicate tracking is
        # skipped; entries are grouped per anchor and heapified in one
        # pass (RankHeap.push_many) instead of pushed one at a time.
        groups: dict[tuple, list[tuple[tuple, Cell]]] = {}
        batched = self._batched_combine(rt, rows, own_keys) if rt.children else None
        if batched is not None:
            rt.batched = True
            keys, row_children = batched
            zero_key = None if rt.own_pairs else make_key([])
            for i, row in enumerate(rows):
                children = row_children[i]
                if children is None:
                    continue  # dangling row (see the scalar branch below)
                own_key = own_keys[i] if own_keys is not None else zero_key
                own_out = tuple(row[p] for p in rt.own_positions)
                key = keys[i]
                out = self._layout(rt, own_out, children)
                cell = Cell(row, children, key, out, own_key, own_out)
                self.stats.cells_created += 1
                u = tuple(row[j] for j in rt.anchor_positions)
                entries = groups.get(u)
                if entries is None:
                    entries = groups[u] = []
                entries.append(((key, out), cell))
        else:
            if not rt.children:
                # Leaf keys either came out of one array pass or are
                # the ranking's empty-set constant — both exactly
                # float64-representable, so parents may gather them.
                rt.batched = (own_keys is not None or not rt.own_pairs) and (
                    bound.batch_weight() is not None
                )
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
                    out = self._layout(rt, own_out, children)
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

    def _batched_combine(self, rt: _RTNode, rows: Sequence[Row], own_keys):
        """Per-row combined keys + child-top cells through array passes.

        Returns ``(keys, children_per_row)`` — ``keys[i]`` bit-identical
        to the scalar ``combine([own_key] + child top keys)`` and
        ``children_per_row[i]`` the matching child-top cells (``None``
        for dangling rows) — or ``None`` to refuse, in which case the
        per-row scalar loop runs unchanged.  The match of each row
        against each child's queue-family keys runs as one
        sort-and-search kernel pass per child instead of a dict lookup
        per row, and the key combine as one array expression per node.
        """
        bound = self.bound
        if not rows or not kernels.enabled():
            return None
        if bound.batch_weight() is None:
            combine_counters.record_fallback("unbatchable-ranking")
            return None
        if own_keys is None and rt.own_pairs:
            # The node's own keys did not come out of the array path, so
            # per-row floats are not available to combine with.
            combine_counters.record_fallback("no-key-array")
            return None
        if any(not child.batched for child in rt.children):
            combine_counters.record_fallback("scalar-child-keys")
            return None
        np = kernels.np
        n = len(rows)
        if own_keys is not None:
            own_arr = np.asarray(own_keys, dtype=np.float64)
        else:
            own_arr = np.full(n, float(bound.zero))
        valid = np.ones(n, dtype=bool)
        key_arrays = [own_arr]
        child_tops: list[list[Cell]] = []
        child_fam_idx: list = []
        for child_rt, key_pos in zip(rt.children, rt.child_key_positions):
            fams = child_rt.pqs
            if not fams:
                valid[:] = False
                child_tops.append([])
                child_fam_idx.append(np.zeros(n, dtype=np.int64))
                key_arrays.append(np.zeros(n))
                continue
            tops = [pq.top() for pq in fams.values()]
            if not key_pos:
                idx = np.zeros(n, dtype=np.int64)  # single ()-anchored family
            else:
                parent_cols = kernels.key_columns(rows, key_pos)
                if parent_cols is None:
                    combine_counters.record_fallback("conversion")
                    return None
                fam_cols = kernels.key_columns(
                    list(fams.keys()), range(len(key_pos))
                )
                if fam_cols is None:
                    combine_counters.record_fallback("conversion")
                    return None
                packed = kernels.pack_pair(parent_cols, fam_cols)
                if packed is None:
                    combine_counters.record_fallback("pack-overflow")
                    return None
                p_keys, f_keys = packed
                order = np.argsort(f_keys)
                sf = f_keys[order]
                pos = np.minimum(np.searchsorted(sf, p_keys), len(sf) - 1)
                valid &= sf[pos] == p_keys
                idx = order[pos]
            top_keys = np.array([top.key for top in tops], dtype=np.float64)
            child_tops.append(tops)
            child_fam_idx.append(idx)
            key_arrays.append(top_keys[idx])
        combined = bound.combine_key_arrays(key_arrays)
        if combined is None:
            combine_counters.record_fallback("combine-refused")
            return None
        combine_counters.record_call()
        keys = combined.tolist()
        valid_list = valid.tolist()
        idx_lists = [idx.tolist() for idx in child_fam_idx]
        children_per_row: list[tuple[Cell, ...] | None] = []
        append = children_per_row.append
        for i in range(n):
            if not valid_list[i]:
                append(None)
                continue
            append(tuple(tops[il[i]] for tops, il in zip(child_tops, idx_lists)))
        return keys, children_per_row

    def _layout(self, rt: _RTNode, own_out: tuple, children: tuple[Cell, ...]) -> tuple:
        """Partial output in global head order (see ``_RTNode.out_plan``)."""
        if not children:
            return own_out
        parts = (own_out,) + tuple(c.out for c in children)
        return tuple(parts[src][off] for src, off in rt.out_plan)

    def _push(self, rt: _RTNode, cell: Cell, *, track: bool = True) -> bool:
        row = cell.row
        u = tuple(row[i] for i in rt.anchor_positions)
        if track and self._dedup_inserts:
            seen = rt.seen.get(u)
            if seen is None:
                seen = set()
                rt.seen[u] = seen
            ident = cell.identity()
            if ident in seen:
                return False
            seen.add(ident)
        pq = rt.pqs.get(u)
        if pq is None:
            pq = RankHeap(self.heap_stats)
            rt.pqs[u] = pq
        pq.push((cell.key, cell.out), cell)
        return True

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
        pq = rt.pqs[tuple(cell.row[i] for i in rt.anchor_positions)]
        combine = self.bound.combine
        children_rts = rt.children
        while True:
            temp = pq.pop()
            # Successors: advance each child pointer of the popped cell.
            for i, child_rt in enumerate(children_rts):
                advanced = self._topdown(temp.children[i], child_rt)
                if advanced is not None:
                    new_children = (
                        temp.children[:i] + (advanced,) + temp.children[i + 1 :]
                    )
                    key = combine([temp.own_key] + [c.key for c in new_children])
                    out = self._layout(rt, temp.own_out, new_children)
                    successor = Cell(
                        temp.row, new_children, key, out, temp.own_key, temp.own_out
                    )
                    if self._push(rt, successor):
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
        codes_of = getattr(instances, "codes", None)
        rt_by_alias: dict[str, _RTNode] = {}
        nodes = []
        for node in tree.post_order():
            rows = instances[node.alias]
            children_rt = [rt_by_alias[c.alias] for c in node.children]
            rt = _RTNode(node, children_rt, head_position)
            rt_by_alias[node.alias] = rt
            needed = set(rt.anchor_positions) | set(rt.own_positions)
            for key_pos in rt.child_key_positions:
                needed.update(key_pos)
            # The storage-cached code matrix holds exactly these int64
            # columns; rows without one are converted here.
            matrix = codes_of(node.alias) if codes_of is not None else None
            if matrix is not None and len(matrix) == len(rows):
                cols = {p: matrix[:, p] for p in needed}
            else:
                cols = {}
                for p in needed:
                    col = kernels.column_array([row[p] for row in rows])
                    if col is None:
                        return None
                    cols[p] = col
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
