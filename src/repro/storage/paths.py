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
from operator import itemgetter
from typing import Any, Iterator, Sequence

from . import kernels, scores
from .columnstore import ColumnStore
from .deltas import coalesced

__all__ = ["ScanPath", "AccessPathCache"]

Row = tuple
Value = Any

#: Cache key of one select/project view: (variable positions,
#: selection pairs, distinct flag).
ScanKey = tuple[tuple[int, ...], tuple[tuple[int, Value], ...], bool]


def _evict_oldest(cache: dict):
    """Drop the oldest cache entry and return its key (``None`` when
    there was none), tolerating concurrent evictions.

    Engines sharing one database may race here (two threads both pick
    the same victim, or the dict resizes mid-iteration); losing the
    race must cost nothing — the caches only memoise.
    """
    try:
        key = next(iter(cache))
    except (StopIteration, RuntimeError):
        return None
    cache.pop(key, None)
    return key


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

    __slots__ = (
        "store",
        "_views",
        "_code_views",
        "_domains",
        "_score_cols",
        "_int_cols",
        "_lineage",
    )

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
        # Per view signature: (source positions, code matrix), or None
        # when not representable (see _entry).
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
        # Per view signature whose rows the last write moved: see lineage.
        self._lineage: dict[ScanKey, tuple] = {}

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
                self._lineage.pop(_evict_oldest(self._views), None)
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
        if (selections or distinct) and kernels.enabled():
            entry = self._entry((positions, selections, distinct))
            if entry is not None:
                return self._gather(positions, entry[0])
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

    def _gather(self, positions: tuple[int, ...], src) -> list[Row]:
        """The store rows at positions ``src`` (``None``: all of them),
        projected onto ``positions`` (the rows themselves when
        ``positions`` is every column)."""
        rows = self.store.rows()
        picked = rows if src is None else map(rows.__getitem__, src.tolist())
        if positions == tuple(range(self.store.arity)):
            return list(picked)
        if len(positions) == 1:
            position = positions[0]
            return [(row[position],) for row in picked]
        if not positions:
            return [()] * (len(rows) if src is None else len(src))
        return list(map(itemgetter(*positions), picked))

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
        entry = self._entry((tuple(positions), tuple(selections), bool(distinct)))
        return None if entry is None else entry[1]

    def _entry(self, key: ScanKey):
        """``(source, matrix)`` of view ``key``, cached per signature, or
        ``None`` when its codes are not representable.

        ``matrix`` is the view's code matrix; ``source`` the ascending
        store positions its rows come from (the first copy of each row
        of a distinct view), or ``None`` when they are every store row
        in order — a pure projection, or a distinct view of a store
        without copies, which needs no array.  The source positions are
        what a write
        maps the view through (:meth:`apply_delta`), and what a view of
        a store with codes is gathered from (:meth:`_build_view`).
        """
        if key in self._code_views:
            return self._code_views[key]
        if len(self._code_views) >= self.MAX_VIEWS:
            _evict_oldest(self._code_views)
        entry = self._code_views[key] = self._build_entry(*key)
        return entry

    def lineage(
        self,
        positions: Sequence[int],
        selections: Sequence[tuple[int, Value]] = (),
        distinct: bool = False,
    ):
        """``(earlier, at, current)`` for a view the last write moved:
        its row list before that write, for each of those rows its
        index in ``current`` (``-1``: gone), and the list the view holds
        since; ``None`` for any other view.  Writes between two reads
        count as one.  What lets a consumer of ``earlier`` (a reduction
        over it) carry its work over to ``current``."""
        return self._lineage.get((tuple(positions), tuple(selections), bool(distinct)))

    def _build_entry(
        self,
        positions: tuple[int, ...],
        selections: tuple[tuple[int, Value], ...],
        distinct: bool,
    ):
        np = kernels.np
        base = self.store.codes_array()
        if base is None:
            return None
        src = None
        if selections:
            mask = _selected(base, selections)
            if mask is None:
                return None
            src = np.flatnonzero(mask)
            base = base[src]
        if positions:
            mat = base[:, list(positions)]
        else:
            mat = np.empty((len(base), 0), dtype=np.int64)
        if distinct:
            first = kernels.distinct_indices(mat)
            if first is None:
                return None
            src = first if src is None else src[first]
            mat = mat[first]
        if src is not None and len(src) == len(self.store):
            src = None  # every store row, in order
        return src, mat

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
        column's distinct domain and row inverse are data, kept for
        every weight function and maintained under writes
        (:meth:`_domain`); a new weight function costs one batched
        weight call over the domain and one gather
        (:func:`repro.storage.scores.build_score_view`).  Cached per
        (view signature, column, attribute, weight function) like the
        other views, so repeated executions of one ranking reuse it;
        a write weighs only the values it appends.  ``None`` whenever
        the batched path cannot reproduce the scalar one exactly (NumPy
        absent, non-``int`` values, non-real weights).
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
    def apply_delta(self, *deltas) -> None:
        """Bring the cached views up to date with the writes made since
        the last read (store deltas, oldest first), one run of appends
        or of deletes at a time (:func:`~repro.storage.deltas.coalesced`),
        and record the :meth:`lineage` of each view they move.

        Every view is mapped through each delta, with its code matrix,
        its kept ``(domain, inverse)`` pairs and its score views, and
        ends up exactly as a cold build over the written store: the same
        rows in the same order, the same codes.  Appended rows come from
        ``delta.appended``; a view gains those that pass its selections
        and, for a distinct view, whose projection it does not hold yet.
        A delete drops the view rows at the removed store positions (a
        pure projection's rows are the store's; any other view maps
        through its source positions, see :meth:`_entry`).  Only a score
        view weighs anything: the values the write appends.

        A view is evicted, to be rebuilt lazily, when its source
        positions are unknown (a view built without codes), when the
        appended rows have no codes, when a
        distinct key does not pack, and when a delete removes the first
        copy of a distinct row that has another copy left: that row's
        first occurrence, and so the view order, would move.  Copies are
        looked for in the store as it is *now*, which may be later than
        this delta; finding one there only evicts more.  A refused
        (``None``) code matrix or score view is dropped too: whether the
        reason still holds is re-derived lazily.  Every rebind is
        copy-on-write: consumers holding a previously returned list or
        array keep their snapshot, and a view the delta does not reach
        stays the same object.

        With the kernels off (the row-at-a-time baseline, and the only
        path without NumPy) the pure projections are extended from
        ``delta.appended`` or compacted through the keep-mask, and every
        other view is dropped, to be rebuilt by a Python pass.
        """
        if not kernels.enabled():
            self._apply_rows(coalesced(deltas))
            return
        moved: dict[ScanKey, tuple] = {}
        for delta in coalesced(deltas):
            self._apply(delta, moved)
        self._lineage.update(moved)

    def _apply_rows(self, deltas) -> None:
        """Map the pure projections through ``deltas`` row by row and
        drop everything else (see :meth:`apply_delta`)."""
        for cache in (self._code_views, self._domains, self._score_cols, self._int_cols):
            cache.clear()
        self._lineage.clear()
        views = {
            key: rows for key, rows in self._views.items() if not (key[1] or key[2])
        }
        every = tuple(range(self.store.arity))
        for delta in deltas:
            keep = None if delta.is_append else delta.keep_mask()
            for (positions, _selections, _distinct), rows in views.items():
                if keep is not None:
                    rows = list(compress(rows, keep))
                elif positions == every:
                    rows = rows + list(delta.appended)
                else:
                    rows = rows + [tuple(r[i] for i in positions) for r in delta.appended]
                views[positions, (), False] = rows
        self._views = views

    def _apply(self, delta, moved: dict) -> None:
        """Map every view through one delta, adding to ``moved`` the
        lineage of each view it moves (composed with the lineage an
        earlier delta of the same read left there)."""
        if delta.is_append:
            for pos, known in list(self._int_cols.items()):
                if known:
                    self._int_cols[pos] = all(type(r[pos]) is int for r in delta.appended)
        else:  # the rows that were not exactly int may be gone: ask again
            self._int_cols = {pos: known for pos, known in self._int_cols.items() if known}
        tail = None
        if delta.is_append:
            tail = kernels.codes_matrix(delta.appended, self.store.arity)
        keys = set(self._views) | set(self._code_views)
        keys.update(key for key, _index in self._domains)
        keys.update(skey[0] for skey in self._score_cols)
        changes = {key: self._change(key, delta, tail) for key in keys}
        for key, change in changes.items():
            rows = self._views.get(key)
            if rows is not None:
                if change is None:
                    del self._views[key]
                    self._lineage.pop(key, None)
                    moved.pop(key, None)
                else:
                    current = self._views[key] = _moved_rows(
                        rows, key[0], delta, change, self.store.arity
                    )
                    if current is not rows:
                        at = change.positions(len(rows))
                        if key in moved:  # moved by an earlier delta of this read
                            rows, before, _ = moved[key]
                            live = before >= 0
                            before = before.copy()
                            before[live] = at[before[live]]
                            at = before
                        moved[key] = (rows, at, current)
            if key in self._code_views:
                entry = self._code_views[key]
                if change is None or entry is None or change.added is None:
                    del self._code_views[key]
                else:
                    self._code_views[key] = (change.src, change.moved(entry[1]))
        for dkey in list(self._domains):
            change = changes[dkey[0]]
            if change is None or change.added is None:
                del self._domains[dkey]
            else:
                self._domains[dkey] = _moved_domain(self._domains[dkey], change, dkey[1])
        for skey in list(self._score_cols):
            change = changes[skey[0]]
            weight, view = self._score_cols[skey]
            if change is not None and change.added is not None and view is not None:
                view = self._moved_scores(view, change, *skey[:3], weight)
            if view is None or change is None or change.added is None:
                del self._score_cols[skey]
            else:
                self._score_cols[skey] = (weight, view)

    def _change(self, key: ScanKey, delta, tail) -> "_Change | None":
        """How view ``key``'s rows move under ``delta`` (``tail``: the
        appended rows' codes, or ``None``), or ``None``: evict it."""
        np = kernels.np
        positions, selections, distinct = key
        entry = self._code_views.get(key)
        if (selections or distinct) and entry is None:
            return None  # no source positions to map through
        src = None if entry is None else entry[0]  # None: every store row
        none = np.zeros(0, dtype=np.int64)
        if delta.is_append:
            if tail is None:
                if selections or distinct:
                    return None
                return _Change(None, np.arange(delta.append_count), None, None)
            add = np.arange(len(tail))
            if selections:
                add = np.flatnonzero(_selected(tail, selections))
            added = tail[add][:, list(positions)]
            if distinct:
                fresh = _unseen(entry[1], added)
                if fresh is None:
                    return None
                add, added = add[fresh], added[fresh]
            if src is not None or len(add) < len(tail):
                earlier = np.arange(delta.base_rows) if src is None else src
                src = np.concatenate([earlier, delta.base_rows + add])
            return _Change(None, add, src, added)
        removed = np.asarray(delta.removed, dtype=np.int64)
        added = np.zeros((0, len(positions)), dtype=np.int64)
        if src is None:
            if distinct and self._has_copies(key, entry[1][removed]):
                return None
            keep = np.ones(delta.base_rows, dtype=bool)
            keep[removed] = False
            return _Change(keep, none, None, added)
        below = np.searchsorted(removed, src)
        hit = removed[np.minimum(below, len(removed) - 1)] == src
        if not hit.any():
            return _Change(None, none, src - below, added)
        if distinct and self._has_copies(key, entry[1][hit]):
            return None
        keep = ~hit
        return _Change(keep, none, src[keep] - below[keep], added)

    def _has_copies(self, key: ScanKey, gone) -> bool:
        """Does the store hold a row that view ``key`` would show as one
        of the rows ``gone`` (their codes)?  ``True`` when it cannot tell."""
        positions, selections, _distinct = key
        base = self.store.codes_array()
        if base is None:
            return True
        if selections:
            base = base[_selected(base, selections)]
        if not positions:
            return len(base) > 0
        packed = _packed_near(base, positions, gone)
        return packed is None or bool(_member(packed[1], packed[0]).any())

    def _moved_scores(self, view, change: "_Change", view_key: ScanKey, index: int, attr, weight):
        """A score view mapped through ``change``, or ``None`` (evict):
        the appended rows' values are weighed, the rest is kept."""
        np = kernels.np
        weights, missing = view.scores, view.missing
        if change.keep is not None:
            weights = weights[change.keep]
            missing = None if missing is None else missing[change.keep]
        if len(change.add):
            if not scores.enabled() or not self._column_exactly_int(view_key[0][index]):
                return None
            tail = scores.build_score_view(
                *scores.column_domain(change.added[:, index]), attr, weight
            )
            if tail is None:
                return None
            if missing is not None or tail.missing is not None:
                missing = np.concatenate(
                    [
                        np.zeros(len(part), dtype=bool) if gaps is None else gaps
                        for part, gaps in ((weights, missing), (tail.scores, tail.missing))
                    ]
                )
            weights = np.concatenate([weights, tail.scores])
        if missing is not None and not missing.any():
            missing = None
        return scores.ScoreView(weights, missing)


class _Change:
    """How one view's rows move under one delta: ``keep`` (a mask over
    its rows, ``None``: all stay), then ``add`` (the offsets, in
    ``delta.appended``, of the rows it gains, in order) with their codes
    ``added`` (``None``: not representable); ``src`` is the view's new
    source positions."""

    __slots__ = ("keep", "add", "src", "added")

    def __init__(self, keep, add, src, added):
        self.keep = keep
        self.add = add
        self.src = src
        self.added = added

    def positions(self, n: int):
        """For each of the view's ``n`` rows, its index after the
        change (``-1``: gone)."""
        np = kernels.np
        if self.keep is None:
            return np.arange(n)
        return np.where(self.keep, np.cumsum(self.keep) - 1, -1)

    def moved(self, matrix):
        """``matrix`` (aligned with the view's rows) mapped through it."""
        if self.keep is not None:  # a 2-D boolean mask is slower than a take
            matrix = matrix.take(kernels.np.flatnonzero(self.keep), axis=0)
        if len(self.add):
            matrix = kernels.np.concatenate([matrix, self.added])
        return matrix


def _selected(base, selections):
    """Mask of the rows of the code matrix ``base`` that pass
    ``selections``, or ``None`` when a constant is not a real number
    (NumPy compares anything else elementwise differently, or not at
    all) or does not fit ``int64``."""
    np = kernels.np
    for _col_pos, required in selections:
        if not isinstance(required, (int, float)):  # bool is int
            return None
    mask = np.ones(len(base), dtype=bool)
    try:
        for col_pos, required in selections:
            mask &= base[:, col_pos] == required
    except (TypeError, OverflowError):  # e.g. beyond-int64 constants
        return None
    return mask


def _member(keys, among):
    """Mask over ``keys`` (distinct): which are among ``among``.  Sorts
    ``keys`` — a write's few rows — and searches them for each of
    ``among``: ``np.isin`` costs about 1.5 ms for 4 keys among 9 000 on
    a 2-core x86-64 VM, this a small fraction of that."""
    np = kernels.np
    hit = np.zeros(len(keys), dtype=bool)
    if not len(keys) or not len(among):
        return hit
    order = np.argsort(keys)
    ordered = keys[order]
    at = np.minimum(np.searchsorted(ordered, among), len(ordered) - 1)
    hit[order[at[ordered[at] == among]]] = True
    return hit


def _among(values, keys):
    """Mask over ``values``: which are among ``keys`` (a few)."""
    np = kernels.np
    if not len(keys):
        return np.zeros(len(values), dtype=bool)
    ordered = np.sort(keys)
    return ordered[np.minimum(np.searchsorted(ordered, values), len(ordered) - 1)] == values


def _packed_near(base, positions, rows):
    """``(near_keys, row_keys)``: the rows of the code matrix ``base``
    projected onto ``positions`` that share a first value with one of
    ``rows`` (codes of that projection, at least one column), and
    ``rows`` themselves, packed into comparable keys; ``None`` when they
    do not pack."""
    near = base[_among(base[:, positions[0]], rows[:, 0])][:, list(positions)]
    return kernels.pack_pair(list(near.T), list(rows.T))


def _unseen(held, added):
    """Indices of the rows of ``added`` (codes) that a distinct view
    holding ``held`` gains: those neither ``held`` nor an earlier row of
    ``added`` has; ``None`` when the keys do not pack."""
    np = kernels.np
    if not len(added):
        return np.zeros(0, dtype=np.int64)
    if not added.shape[1]:  # the one empty row
        return np.zeros(0 if len(held) else 1, dtype=np.int64)
    packed = _packed_near(held, range(held.shape[1]), added)
    if packed is None:
        return None
    held_keys, added_keys = packed
    _unique, first = np.unique(added_keys, return_index=True)
    first.sort()
    return first[~_member(added_keys[first], held_keys)]


def _moved_rows(
    rows: list[Row], positions: tuple[int, ...], delta, change: _Change, arity: int
) -> list[Row]:
    """A view's row list mapped through ``change`` (the same list when
    the delta does not reach the view)."""
    if change.keep is not None:
        rows = list(compress(rows, change.keep.tobytes()))
    if len(change.add):
        gained = [delta.appended[i] for i in change.add.tolist()]
        if positions != tuple(range(arity)):
            gained = [tuple(row[i] for i in positions) for row in gained]
        rows = rows + gained
    return rows


def _moved_domain(entry, change: _Change, index: int):
    """A view column's ``(domain, inverse)`` mapped through ``change``:
    equal to :func:`repro.storage.scores.column_domain` over the moved
    column."""
    np = kernels.np
    domain, inverse = entry
    if change.keep is not None:
        inverse = inverse[change.keep]
        used = np.zeros(len(domain), dtype=bool)
        used[inverse] = True
        if not used.all():
            inverse = (np.cumsum(used) - 1)[inverse]
            domain = domain[used]
    if len(change.add):
        values = change.added[:, index]
        at = np.searchsorted(domain, values)
        known = domain[np.minimum(at, len(domain) - 1)] == values if len(domain) else at < 0
        fresh = np.unique(values[~known])
        if len(fresh):
            slots = np.searchsorted(domain, fresh)
            # Old value i moves up by the fresh values inserted at or before it.
            shift = np.searchsorted(slots, np.arange(len(domain)), side="right")
            inverse = inverse + shift[inverse]
            domain = np.insert(domain, slots, fresh)
        inverse = np.concatenate([inverse, np.searchsorted(domain, values)])
    return domain, inverse


class AccessPathCache:
    """Per-relation memo of the scan path, validated by store version.

    One cache serves one :class:`~repro.data.relation.Relation`.  When
    the underlying store's version moves (mutations through *any*
    relation sharing the store), the cache first asks the store's delta
    log for the exact gap and lets the scan path consume the deltas in
    place (:meth:`ScanPath.apply_delta`); when the history is not
    covered, it drops the path wholesale, to be rebuilt on the next read.

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
        if deltas is not None and self._scan is not None:
            self._scan.apply_delta(*deltas)
        else:
            # History not covered (compaction, barrier, version drift): rebuild.
            self._scan = None

    def scan(self) -> ScanPath:
        """The (single) scan path."""
        self._validate()
        if self._scan is None:
            self._scan = ScanPath(self.store)
        return self._scan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AccessPathCache(v={self._version}, scan={self._scan is not None})"
