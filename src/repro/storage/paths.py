"""The scan path: the read interface over a :class:`ColumnStore`.

A :class:`ScanPath` is the one physical way to read a relation's
tuples: sequential row access, with cached select/project views (what
:func:`repro.algorithms.yannakakis.atom_instances` binds query atoms
through), their ``int64`` code matrices, the distinct domain of each
scored column and the score columns over them.

The path is built and memoised by an :class:`AccessPathCache`, which
validates every lookup against the store's version counter: any
mutation — including one made through *another* relation sharing the
same store (``Relation.renamed``) — is replayed into the cached views
from the store's delta log, or drops them when the log does not cover
the gap.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Iterator, Sequence

from . import kernels, scores
from .columnstore import ColumnStore

__all__ = ["ScanPath", "AccessPathCache"]

Row = tuple
Value = Any

#: Cache key of one select/project view: (variable positions,
#: selection pairs, distinct flag).
ScanKey = tuple[tuple[int, ...], tuple[tuple[int, Value], ...], bool]


def _evict_oldest(cache: dict) -> None:
    """Drop the oldest cache entry, tolerating concurrent evictions.

    Engines sharing one database may race here (two threads both pick
    the same victim, or the dict resizes mid-iteration); losing the
    race must cost nothing — the caches only memoise.
    """
    try:
        cache.pop(next(iter(cache)), None)
    except (StopIteration, RuntimeError):
        pass


class ScanPath:
    """Sequential scan with cached select/project views.

    Examples
    --------
    >>> from repro.storage import ColumnStore
    >>> scan = ScanPath(ColumnStore.from_rows(2, [(1, 5), (2, 5), (1, 5)]))
    >>> scan.rows()
    [(1, 5), (2, 5), (1, 5)]
    >>> scan.view((0,), (), True)        # project col 0, distinct
    [(1,), (2,)]
    >>> scan.view((0,), ((1, 5),), False)  # select col1=5, project col 0
    [(1,), (2,), (1,)]
    """

    __slots__ = ("store", "_views", "_code_views", "_domains", "_score_cols", "_int_cols")

    #: Bound on memoised select/project views.  Projection-only views are
    #: keyed by query structure (a handful per relation), but selection
    #: views are keyed by *constants* — a parameterised query stream
    #: would otherwise retain one materialised row list per distinct
    #: constant forever.  Oldest-first eviction keeps the hot structural
    #: views resident in practice (they are created first).
    MAX_VIEWS = 128

    def __init__(self, store: ColumnStore):
        self.store = store
        self._views: dict[ScanKey, list[Row]] = {}
        self._code_views: dict[ScanKey, Any] = {}
        # Per (view signature, view column): its (domain, inverse), see
        # scores.column_domain.  Data, shared by every weight function.
        self._domains: dict[tuple[ScanKey, int], tuple[Any, Any]] = {}
        # Score views, keyed (view signature, view column, attribute,
        # id(weight fn)); each entry retains the weight object so a
        # recycled id can never serve a stale column.
        self._score_cols: dict[tuple, tuple[Any, Any]] = {}
        # Per store column: is every value exactly ``int`` (no bool /
        # IntEnum)?  The weight function must receive the same value
        # the scalar path passes it, so anything exotic refuses.
        self._int_cols: dict[int, bool] = {}

    def rows(self) -> list[Row]:
        """All rows in store order (shared cached list — do not mutate)."""
        return self.store.rows()

    def column(self, position: int) -> list[Value]:
        """One column in store order (shared list — do not mutate)."""
        return self.store.column(position)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.store.rows())

    def __len__(self) -> int:
        return len(self.store)

    def view(
        self,
        positions: Sequence[int],
        selections: Sequence[tuple[int, Value]] = (),
        distinct: bool = False,
    ) -> list[Row]:
        """A select/project view, cached per signature.

        ``positions`` are the output columns (in order); ``selections``
        are ``(column, required value)`` equality filters.  The returned
        list is the cache entry itself — callers must not mutate it
        (rebind, filter into fresh lists, but never ``append``).
        """
        key: ScanKey = (tuple(positions), tuple(selections), bool(distinct))
        view = self._views.get(key)
        if view is None:
            if len(self._views) >= self.MAX_VIEWS:
                _evict_oldest(self._views)
            view = self._build_view(*key)
            self._views[key] = view
        return view

    def _build_view(
        self,
        positions: tuple[int, ...],
        selections: tuple[tuple[int, Value], ...],
        distinct: bool,
    ) -> list[Row]:
        store = self.store
        if not selections and len(positions) == store.arity and positions == tuple(
            range(store.arity)
        ):
            rows = store.rows()
        elif not selections:
            rows = store.project(positions)
        else:
            keep = [True] * len(store)
            for col_pos, required in selections:
                col = store.column(col_pos)
                keep = [k and v == required for k, v in zip(keep, col)]
            base = store.rows()
            rows = [
                tuple(r[i] for i in positions) for r, k in zip(base, keep) if k
            ]
        if distinct:
            seen: set[Row] = set()
            out: list[Row] = []
            for r in rows:
                if r not in seen:
                    seen.add(r)
                    out.append(r)
            rows = out
        return rows

    def codes_view(
        self,
        positions: Sequence[int],
        selections: Sequence[tuple[int, Value]] = (),
        distinct: bool = False,
    ):
        """The ``int64`` code matrix aligned row-for-row with :meth:`view`.

        Cached per signature like the row views; ``None`` whenever the
        kernel layer cannot represent the view exactly (NumPy absent,
        non-integer values, a selection constant that is not a real
        number, or a distinct key too wide to pack).  Consumers treat
        ``None`` as "iterate the Python rows".
        """
        if not kernels.enabled():
            return None
        key: ScanKey = (tuple(positions), tuple(selections), bool(distinct))
        if key in self._code_views:
            return self._code_views[key]
        if len(self._code_views) >= self.MAX_VIEWS:
            _evict_oldest(self._code_views)
        mat = self._build_codes_view(*key)
        self._code_views[key] = mat
        return mat

    def _build_codes_view(
        self,
        positions: tuple[int, ...],
        selections: tuple[tuple[int, Value], ...],
        distinct: bool,
    ):
        np = kernels.np
        base = self.store.codes_array()
        if base is None:
            return None
        if selections:
            for _col_pos, required in selections:
                # bool is int; anything non-numeric compares elementwise
                # differently (or not at all) under NumPy — refuse.
                if not isinstance(required, (int, float)):
                    return None
            mask = np.ones(len(base), dtype=bool)
            try:
                for col_pos, required in selections:
                    mask &= base[:, col_pos] == required
            except (TypeError, OverflowError):  # e.g. beyond-int64 constants
                return None
            base = base[mask]
        if positions:
            mat = base[:, list(positions)]
        else:
            mat = np.empty((len(base), 0), dtype=np.int64)
        if distinct:
            first = kernels.distinct_indices(mat)
            if first is None:
                return None
            mat = mat[first]
        return mat

    def scores_view(
        self,
        positions: Sequence[int],
        selections: Sequence[tuple[int, Value]] = (),
        distinct: bool = False,
        *,
        index: int,
        attr: str,
        weight,
    ):
        """Weights of one view column as a :class:`~repro.storage.scores.ScoreView`.

        Aligned row-for-row with :meth:`view` / :meth:`codes_view`:
        entry ``i`` is ``weight(attr, view_row[i][index])``.  The
        column's distinct domain and row inverse are data, kept once
        per store version for every weight function
        (:meth:`_domain`); a new weight function costs one batched
        weight call over the domain and one gather
        (:func:`repro.storage.scores.build_score_view`).  Cached per
        (view signature, column, attribute, weight function) like the
        other views, so repeated executions of one ranking reuse it
        until the next mutation.  ``None`` whenever the batched path
        cannot reproduce the scalar one exactly (NumPy absent,
        non-``int`` values, non-real weights).
        """
        if not scores.enabled():
            return None
        key = (
            (tuple(positions), tuple(selections), bool(distinct)),
            index,
            attr,
            id(weight),
        )
        cached = self._score_cols.get(key)
        if cached is not None and cached[0] is weight:
            return cached[1]
        if len(self._score_cols) >= self.MAX_VIEWS:
            _evict_oldest(self._score_cols)
        view = self._build_scores_view(key[0], index, attr, weight)
        self._score_cols[key] = (weight, view)
        return view

    def _build_scores_view(self, view_key: ScanKey, index: int, attr: str, weight):
        codes = self.codes_view(*view_key)
        if codes is None:
            return None
        if not self._column_exactly_int(view_key[0][index]):
            scores.counters.record_fallback()
            return None
        return scores.build_score_view(*self._domain(view_key, index, codes), attr, weight)

    def _domain(self, view_key: ScanKey, index: int, codes):
        """``(domain, inverse)`` of column ``index`` of the view whose
        code matrix is ``codes``, cached per (view signature, column)."""
        key = (view_key, index)
        entry = self._domains.get(key)
        if entry is None:
            if len(self._domains) >= self.MAX_VIEWS:
                _evict_oldest(self._domains)
            entry = self._domains[key] = scores.column_domain(codes[:, index])
        return entry

    def _column_exactly_int(self, store_position: int) -> bool:
        known = self._int_cols.get(store_position)
        if known is None:
            column = self.store.column(store_position)
            known = all(type(v) is int for v in column)
            self._int_cols[store_position] = known
        return known

    # ------------------------------------------------------------------ #
    # delta maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta) -> None:
        """Bring the cached views up to date with one store delta.

        Pure projection views (no selections, not distinct) are
        *re-sliced*: appended store rows extend the row list, code
        matrix and score arrays; deleted rows are dropped at their
        mapped positions.  Views with selections or dedup state are
        evicted and rebuilt lazily — their delta mapping needs
        occurrence bookkeeping the cache does not keep.  The column
        domains are dropped on every write and rebuilt lazily: the
        views that queries score through are distinct ones, evicted
        anyway.  Every rebind is copy-on-write: consumers holding a
        previously returned list or array keep their snapshot.
        """
        store = self.store
        self._domains.clear()
        if delta.is_append:
            new_rows = store.rows()[delta.base_rows :]
            for key in list(self._views):
                positions, selections, distinct = key
                if selections or distinct:
                    self._views.pop(key, None)
                    continue
                self._views[key] = self._views[key] + [
                    tuple(r[i] for i in positions) for r in new_rows
                ]
            self._extend_code_views(delta)
            for pos, known in list(self._int_cols.items()):
                if known:
                    self._int_cols[pos] = all(type(r[pos]) is int for r in new_rows)
            self._extend_score_views()
            return
        # Delete: positions of a pure projection map 1:1 onto store rows.
        keep = delta.keep_mask()
        for key in list(self._views):
            positions, selections, distinct = key
            if selections or distinct:
                self._views.pop(key, None)
                continue
            self._views[key] = list(compress(self._views[key], keep))
        np = kernels.np if kernels.HAS_NUMPY else None
        removed_arr = np.asarray(delta.removed, dtype=np.int64) if np else None
        for key in list(self._code_views):
            positions, selections, distinct = key
            mat = self._code_views[key]
            if selections or distinct or mat is None or np is None:
                self._code_views.pop(key, None)
                continue
            self._code_views[key] = np.delete(mat, removed_arr, axis=0)
        for skey in list(self._score_cols):
            view_key = skey[0]
            positions, selections, distinct = view_key
            weight, view = self._score_cols[skey]
            if selections or distinct or view is None or np is None:
                self._score_cols.pop(skey, None)
                continue
            scores_arr = np.delete(view.scores, removed_arr)
            missing = (
                None
                if view.missing is None
                else np.delete(view.missing, removed_arr)
            )
            self._score_cols[skey] = (weight, scores.ScoreView(scores_arr, missing))
        # A deletion can only remove values: exactly-int stays exactly-int
        # (False entries stay conservatively False).

    def _extend_code_views(self, delta) -> None:
        matrix = self.store.codes_array()
        np = kernels.np if kernels.HAS_NUMPY else None
        for key in list(self._code_views):
            positions, selections, distinct = key
            cached = self._code_views[key]
            if selections or distinct:
                self._code_views.pop(key, None)
                continue
            if cached is None:
                continue  # "not representable" stays a valid cached answer
            if matrix is None or np is None:
                self._code_views.pop(key, None)
                continue
            tail = matrix[delta.base_rows :]
            if positions:
                tail = tail[:, list(positions)]
            else:
                tail = np.empty((len(tail), 0), dtype=np.int64)
            self._code_views[key] = np.concatenate([cached, tail])

    def _extend_score_views(self) -> None:
        # A refused (None) view is dropped: whether the reason still
        # holds is re-derived lazily.
        np = kernels.np
        for skey in list(self._score_cols):
            view_key, index, attr, _weight_id = skey
            positions, selections, distinct = view_key
            weight, view = self._score_cols[skey]
            tail = codes = None
            if view is not None and not (selections or distinct):
                if self._column_exactly_int(positions[index]):
                    codes = self.codes_view(*view_key)
            if codes is not None:
                tail = scores.build_score_view(
                    *scores.column_domain(codes[len(view) :, index]), attr, weight
                )
            if tail is None:
                self._score_cols.pop(skey, None)
                continue
            missing = None
            if view.missing is not None or tail.missing is not None:
                missing = np.concatenate(
                    [
                        np.zeros(len(part), dtype=bool) if part.missing is None else part.missing
                        for part in (view, tail)
                    ]
                )
            merged = scores.ScoreView(np.concatenate([view.scores, tail.scores]), missing)
            self._score_cols[skey] = (weight, merged)


class AccessPathCache:
    """Per-relation memo of the scan path, validated by store version.

    One cache serves one :class:`~repro.data.relation.Relation`.  When
    the underlying store's version moves (mutations through *any*
    relation sharing the store), the cache first asks the store's delta
    log for the exact gap and lets the scan path consume the deltas in
    place — appends extend, deletes filter; when the history is not
    covered, or an append is followed by another write in the gap, it
    drops the path wholesale, to be rebuilt on the next read.

    Examples
    --------
    >>> from repro.storage import ColumnStore
    >>> store = ColumnStore.from_rows(2, [(1, 10)])
    >>> cache = AccessPathCache(store)
    >>> cache.scan().view((0,), (), True)
    [(1,)]
    >>> store.append((2, 20))
    >>> cache.scan().view((0,), (), True)
    [(1,), (2,)]
    """

    __slots__ = ("store", "_version", "_scan")

    def __init__(self, store: ColumnStore):
        self.store = store
        self._version = store.version
        self._scan: ScanPath | None = None

    def _validate(self) -> None:
        if self._version == self.store.version:
            return
        deltas = self.store.deltas_since(self._version)
        self._version = self.store.version
        if deltas is None or any(d.is_append for d in deltas[:-1]):
            # History not covered (compaction, barrier, version drift),
            # or an append followed by another write: ``apply_delta``
            # reads an append's rows from the store as it is *now*, so
            # only a gap's last delta may be an append.  Rebuild.
            self._scan = None
            return
        if self._scan is not None:
            for delta in deltas:
                self._scan.apply_delta(delta)

    def scan(self) -> ScanPath:
        """The (single) scan path."""
        self._validate()
        if self._scan is None:
            self._scan = ScanPath(self.store)
        return self._scan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AccessPathCache(v={self._version}, scan={self._scan is not None})"
