"""The star-query preprocessing/delay tradeoff (paper §4, Theorem 2,
Algorithms 4 and 5 — ``PreprocessStar`` / ``EnumStar``).

A star query joins ``m`` binary relations ``R_i(A_i, B)`` on the shared
variable ``B`` and projects the ``A_i``.  Fix a degree threshold
``δ = |D|^(1-ε)``:

* a value ``a`` of ``A_i`` is *heavy* in ``R_i`` when its degree (number
  of ``B`` partners) is at least ``δ``; a tuple/output coordinate is
  heavy accordingly;
* **preprocessing** materialises and sorts the *all-heavy* output ``O_H``
  (Yannakakis over the heavy fragments — at most ``(|D|/δ)^m`` tuples),
  and builds one :class:`~repro.core.acyclic.AcyclicRankedEnumerator`
  per subquery ``Q_i = R^H_1 ⋈ .. ⋈ R^H_{i-1} ⋈ R^L_i ⋈ R_{i+1} ⋈ .. ⋈ R_m``
  rooted at the light relation ``R_i`` (join tree ``T_i``: all other
  relations are children of ``R_i``);
* **enumeration** is an ``(m+1)``-way merge of ``O_H`` and the ``Q_i``
  streams through one priority queue.  The streams partition the output
  (an answer belongs to ``Q_i`` for its *first* light coordinate ``i``,
  or to ``O_H`` when every coordinate is heavy), so no cross-stream
  deduplication is needed.

Resulting guarantees (Lemma 5): ``O(|D|·(|D|/δ)^(m-1))`` preprocessing,
``O((|D|/δ)^m)`` space, ``O(δ log |D|)`` delay — the smooth tradeoff of
Theorem 2 with ``δ = |D|^(1-ε)``.  ``ε = 0`` degenerates to Theorem 1's
behaviour, ``ε = 1`` to full materialisation.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from ..algorithms.yannakakis import atom_instances
from ..data.database import Database
from ..data.index import group_by
from ..errors import NotAStarQueryError
from ..query.jointree import build_join_tree
from ..query.query import JoinProjectQuery
from ..storage import kernels
from .acyclic import AcyclicRankedEnumerator
from .answers import EnumerationStats, RankedAnswer
from .base import RankedEnumeratorBase
from .heap import HeapStats, RankHeap
from .ranking import (
    RankingFunction,
    SumRanking,
    batched_column_keys,
    batched_output_keys,
)

__all__ = ["StarTradeoffEnumerator", "star_query_shape"]

Row = tuple


def star_query_shape(query: JoinProjectQuery) -> tuple[str, list[tuple[str, int, int]]]:
    """Validate that ``query`` is a star query ``Q*_m`` and describe it.

    Returns ``(join_variable, [(alias, a_position, b_position), ...])``
    with one entry per atom in head order of its ``A_i`` variable.

    Raises
    ------
    NotAStarQueryError
        If the query is not of the form
        ``π_{A_1..A_m}(R_1(A_1,B) ⋈ ... ⋈ R_m(A_m,B))``.
    """
    if any(len(atom.variables) != 2 for atom in query.atoms):
        raise NotAStarQueryError("star queries need binary atoms R_i(A_i, B)")
    if len(query.atoms) < 2:
        raise NotAStarQueryError("a star query needs at least two atoms")
    candidates = set(query.atoms[0].variables)
    for atom in query.atoms[1:]:
        candidates &= atom.var_set
    if len(candidates) != 1:
        raise NotAStarQueryError(
            f"star atoms must share exactly one join variable, found {sorted(candidates)}"
        )
    join_var = candidates.pop()
    if join_var in query.head_set:
        raise NotAStarQueryError(
            f"the join variable {join_var!r} must be projected away in a star query"
        )
    legs: dict[str, tuple[str, int, int]] = {}
    for atom in query.atoms:
        b_pos = atom.variables.index(join_var)
        a_pos = 1 - b_pos
        a_var = atom.variables[a_pos]
        if a_var in legs:
            raise NotAStarQueryError(f"variable {a_var!r} appears in two atoms")
        legs[a_var] = (atom.alias, a_pos, b_pos)
    if set(legs) != query.head_set or len(query.head) != len(query.atoms):
        raise NotAStarQueryError(
            f"head {query.head} must be exactly the non-join variables {sorted(legs)}"
        )
    return join_var, [legs[v] for v in query.head]


class StarTradeoffEnumerator(RankedEnumeratorBase):
    """Theorem 2's tradeoff structure for star queries.

    Parameters
    ----------
    query:
        A star query (validated by :func:`star_query_shape`).
    db:
        The database instance.
    ranking:
        Any decomposable ranking (SUM/LEX/...); default ascending SUM.
    epsilon:
        Tradeoff knob in ``[0, 1]``; the degree threshold is
        ``δ = ceil(|D|^(1-ε))``.  Mutually exclusive with ``delta``.
    delta:
        Explicit degree threshold ``δ ≥ 1``.

    Attributes
    ----------
    heavy_output_size:
        ``|O_H|`` — the number of tuples materialised during
        preprocessing (Figure 7's "extra space" driver).
    delta:
        The degree threshold in force.
    """

    def __init__(
        self,
        query: JoinProjectQuery,
        db: Database,
        ranking: RankingFunction | None = None,
        *,
        epsilon: float | None = None,
        delta: int | None = None,
        dedup_inserts: bool = True,
    ):
        self.query = query
        self.db = db
        self.ranking = ranking or SumRanking()
        self.join_var, self.legs = star_query_shape(query)
        if delta is not None and epsilon is not None:
            raise NotAStarQueryError("give either epsilon or delta, not both")
        if delta is None:
            eps = 0.5 if epsilon is None else float(epsilon)
            if not 0.0 <= eps <= 1.0:
                raise NotAStarQueryError(f"epsilon must be in [0, 1], got {eps}")
            size = max(db.size, 2)
            delta = max(1, round(size ** (1.0 - eps)))
        if delta < 1:
            raise NotAStarQueryError(f"delta must be >= 1, got {delta}")
        self.delta = int(delta)
        self._dedup_inserts = dedup_inserts

        self.bound = self.ranking.bind({v: i for i, v in enumerate(query.head)})
        self.heap_stats = HeapStats()
        self.stats = EnumerationStats(self.heap_stats)
        self.heavy_output: list[tuple[Any, Row]] = []
        self._subenums: list[AcyclicRankedEnumerator] = []
        self._preprocessed = False
        self._exhausted = False

    @property
    def heavy_output_size(self) -> int:
        """Number of materialised all-heavy output tuples ``|O_H|``."""
        return len(self.heavy_output)

    # ------------------------------------------------------------------ #
    # Algorithm 4: preprocessing
    # ------------------------------------------------------------------ #
    def preprocess(self) -> "StarTradeoffEnumerator":
        if self._preprocessed:
            return self
        started = time.perf_counter()
        m = len(self.legs)

        # Dangling removal for a star: keep tuples whose B value occurs in
        # every relation.
        instances = atom_instances(self.query, self.db)
        b_common: set | None = None
        for alias, _a_pos, b_pos in self.legs:
            values = {row[b_pos] for row in instances[alias]}
            b_common = values if b_common is None else (b_common & values)
        b_common = b_common or set()
        for alias, _a_pos, b_pos in self.legs:
            instances[alias] = [r for r in instances[alias] if r[b_pos] in b_common]
        self.stats.reduce_seconds = time.perf_counter() - started

        # Heavy/light split per relation (degree of the A_i value).
        heavy: list[list[Row]] = []
        light: list[list[Row]] = []
        for alias, a_pos, b_pos in self.legs:
            rows = instances[alias]
            groups = group_by(rows, (a_pos,))
            h_rows: list[Row] = []
            l_rows: list[Row] = []
            for (a_value,), grp in groups.items():
                (h_rows if len(grp) >= self.delta else l_rows).append((a_value, grp))
            heavy.append([r for _a, grp in h_rows for r in grp])
            light.append([r for _a, grp in l_rows for r in grp])

        # O_H: the all-heavy output — iterated B-joins of the heavy
        # fragments projected to the A_i columns, de-duplicated, sorted
        # by (rank key, tuple).  The array path does all four steps as
        # kernel passes; the scalar twin runs per-B cartesian products
        # into a seen-set.  Same tuples, same keys, same order.
        vector = self._batched_heavy_output(heavy)
        if vector is not None:
            self.heavy_output = vector
        else:
            heavy_by_b: list[dict[Any, list[Any]]] = []
            for (alias, a_pos, b_pos), h_flat in zip(self.legs, heavy):
                by_b: dict[Any, list[Any]] = {}
                for row in h_flat:
                    by_b.setdefault(row[b_pos], []).append(row[a_pos])
                heavy_by_b.append(by_b)
            distinct: set[Row] = set()
            if all(heavy_by_b):
                for b in b_common:
                    lists = []
                    ok = True
                    for by_b in heavy_by_b:
                        vals = by_b.get(b)
                        if not vals:
                            ok = False
                            break
                        lists.append(vals)
                    if not ok:
                        continue
                    self._cartesian_collect(lists, distinct)
            head = self.query.head
            candidates = list(distinct)
            # Score the materialised candidates through the batched key
            # path (one array pass per head attribute) when the ranking
            # supports it; identical keys per tuple either way.
            keys = batched_output_keys(self.bound, head, candidates)
            if keys is not None:
                self.heavy_output = sorted(zip(keys, candidates))
            else:
                key_of = self.bound.key_of_output
                self.heavy_output = sorted((key_of(head, t), t) for t in candidates)
        self.stats.cells_created += len(self.heavy_output)

        # Subqueries Q_i with join tree T_i (R_i as root).
        aliases = [alias for alias, _a, _b in self.legs]
        for i in range(m):
            if not light[i]:
                continue
            sub_instances: dict[str, list[Row]] = {}
            for j, alias in enumerate(aliases):
                if j < i:
                    sub_instances[alias] = heavy[j]
                elif j == i:
                    sub_instances[alias] = light[i]
                else:
                    sub_instances[alias] = instances[alias]
            if any(not rows for rows in sub_instances.values()):
                continue
            edges = [(aliases[j], aliases[i]) for j in range(m) if j != i]
            tree = build_join_tree(self.query, root=aliases[i], _edges=edges)
            enum = AcyclicRankedEnumerator(
                self.query,
                self.db,
                self.ranking,
                join_tree=tree,
                dedup_inserts=self._dedup_inserts,
                instances=sub_instances,
            )
            # Algorithm 4 builds every subquery's queues up front.
            self._subenums.append(enum.preprocess())

        self._preprocessed = True
        self.stats.build_seconds = (
            time.perf_counter() - started - self.stats.reduce_seconds
        )
        self.stats.preprocess_seconds = time.perf_counter() - started
        return self

    @staticmethod
    def _cartesian_collect(lists: list[list[Any]], into: set[Row]) -> None:
        """Accumulate the cartesian product of per-leg value lists."""
        out: list[tuple] = [()]
        for values in lists:
            out = [prefix + (v,) for prefix in out for v in values]
        into.update(out)

    def _batched_heavy_output(self, heavy: list[list[Row]]):
        """``O_H`` as array passes: join, project, dedup, sort — or ``None``.

        Joins the heavy fragments pairwise on B with the
        ``pack``/``join_indices`` kernels (the per-B cartesian products
        fall out of the join itself), projects to the A_i columns,
        dedups with ``distinct_indices`` and sorts once by (rank key,
        tuple) via ``lexsort`` over batched score columns.  Exact or
        refuse: any conversion failure or an unbatchable ranking
        returns ``None`` and the scalar per-B loop runs unchanged.
        """
        if not kernels.enabled():
            return None
        if self.bound.batch_weight() is None:
            return None  # LEX/composite: scalar path sorts with key_of
        if any(not rows for rows in heavy):
            return []  # some leg has no heavy tuples: O_H is empty
        np = kernels.np
        a_cols = []
        b_cols = []
        for (alias, a_pos, b_pos), rows in zip(self.legs, heavy):
            if not kernels.rows_exactly_int(rows, (a_pos,)):
                return None  # emitted values must round-trip exactly
            a = kernels.column_array([r[a_pos] for r in rows])
            b = kernels.column_array([r[b_pos] for r in rows])
            if a is None or b is None:
                return None
            a_cols.append(a)
            b_cols.append(b)
        acc_b = b_cols[0]
        acc_a = [a_cols[0]]
        for i in range(1, len(self.legs)):
            li, ri = kernels.join_indices(acc_b, b_cols[i])
            acc_b = acc_b[li]
            acc_a = [c[li] for c in acc_a]
            acc_a.append(a_cols[i][ri])
        if not len(acc_b):
            return []
        matrix = np.stack(acc_a, axis=1)
        first = kernels.distinct_indices(matrix)
        if first is None:
            return None
        cand = matrix[first]
        columns = [cand[:, j] for j in range(cand.shape[1])]
        keys = batched_column_keys(self.bound, self.query.head, columns)
        if keys is None:
            return None
        order = np.lexsort(tuple(reversed(columns)) + (keys,))
        return [
            (key, tuple(values))
            for key, values in zip(keys[order].tolist(), cand[order].tolist())
        ]

    # ------------------------------------------------------------------ #
    # Algorithm 5: (m+1)-way merge enumeration
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[RankedAnswer]:
        self.preprocess()
        if self._exhausted:
            raise NotAStarQueryError(
                "enumerator already consumed; call fresh() to enumerate again"
            )
        self._exhausted = True

        merge: RankHeap[tuple[Any, int]] = RankHeap(self.heap_stats)
        streams: list[Iterator[RankedAnswer]] = []

        # Stream 0: the sorted heavy output.
        def heavy_stream() -> Iterator[RankedAnswer]:
            final = self.bound.final_score
            for key, values in self.heavy_output:
                yield RankedAnswer(values, final(key), key=key)

        streams.append(heavy_stream())
        for enum in self._subenums:
            streams.append(iter(enum))

        for idx, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                merge.push((first.key, first.values), (first, idx))

        final_score = self.bound.final_score
        ops_mark = self.heap_stats.operations
        while merge:
            answer, idx = merge.pop()
            self.stats.answers += 1
            ops_now = self.heap_stats.operations
            self.stats.pq_ops_per_answer.append(ops_now - ops_mark)
            ops_mark = ops_now
            yield RankedAnswer(answer.values, final_score(answer.key), key=answer.key)
            nxt = next(streams[idx], None)
            if nxt is not None:
                merge.push((nxt.key, nxt.values), (nxt, idx))
            ops_mark = self.heap_stats.operations

    def fresh(self) -> "StarTradeoffEnumerator":
        """A new enumerator with identical configuration."""
        return StarTradeoffEnumerator(
            self.query,
            self.db,
            self.ranking,
            delta=self.delta,
            dedup_inserts=self._dedup_inserts,
        )
