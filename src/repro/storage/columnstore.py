"""Column-major tuple storage.

A :class:`ColumnStore` keeps one Python list per column plus a mutation
*version* counter.  Consumers that want row tuples get them from a
lazily built, cached row view (``zip(*columns)`` is a single C-level
pass); consumers that want a column — projections, dictionary encoding,
code matrices — read it directly without touching the other
columns.  The version counter is what every derived structure
(:class:`repro.storage.paths.AccessPathCache`, the engine's encoded
image of the database) validates against, so views that *share* a store
(``Relation.renamed``) invalidate together.
"""

from __future__ import annotations

import weakref
from itertools import compress
from typing import Any, Iterable, Iterator, Sequence

from . import kernels
from .deltas import DeltaLog, StoreDelta

__all__ = ["ColumnStore"]

Row = tuple
Value = Any

#: Sentinel: the codes matrix has not been derived for this version yet
#: (``None`` is a valid, cached "not representable" answer).
_UNBUILT = object()


def _without(values: list, delta: StoreDelta) -> list:
    """A copy of ``values`` (aligned with the store's rows) without the
    rows ``delta`` removes: joined from the slices between them when
    they are few (:func:`~repro.storage.kernels.joined_runs`), else one
    ``compress`` pass over the keep-mask."""
    removed = delta.removed
    runs = (
        (values, start + 1, stop)
        for start, stop in zip((-1, *removed), (*removed, len(values)))
    )
    out = kernels.joined_runs(runs, len(removed) + 1, len(values))
    return list(compress(values, delta.keep_mask())) if out is None else out


class ColumnStore:
    """Tuples of a fixed arity, stored column-major.

    Examples
    --------
    >>> store = ColumnStore.from_rows(2, [(1, "x"), (2, "y")])
    >>> len(store), store.column(1)
    (2, ['x', 'y'])
    >>> store.rows()
    [(1, 'x'), (2, 'y')]
    >>> store.append((3, "z"))
    >>> store.version, store.row(2)
    (1, (3, 'z'))
    """

    __slots__ = (
        "arity",
        "columns",
        "version",
        "delta_log",
        "_listeners",
        "_rows",
        "_row_set",
        "_codes_arr",
    )

    def __init__(self, arity: int):
        if arity < 1:
            raise ValueError(f"a column store needs arity >= 1, got {arity}")
        self.arity = arity
        #: One value list per column; same length each.
        self.columns: list[list[Value]] = [[] for _ in range(arity)]
        #: Bumped on every mutation; derived structures validate on it.
        self.version = 0
        #: Bounded delta history (:mod:`repro.storage.deltas`): consumers
        #: that remember a version replay the gap instead of rebuilding.
        self.delta_log = DeltaLog()
        #: Weakrefs to relations sharing this store: every mutation —
        #: through whichever view — notifies all of them, so generation
        #: counters stay coherent across ``Relation.renamed`` replicas.
        self._listeners: list = []
        self._rows: list[Row] | None = None
        self._row_set: set[Row] | None = None
        self._codes_arr: Any = _UNBUILT

    @classmethod
    def from_rows(cls, arity: int, rows: Iterable[Sequence[Value]]) -> "ColumnStore":
        """Build a store from row-major input (one transposing pass)."""
        store = cls(arity)
        materialised = [tuple(r) for r in rows]
        if materialised:
            store.columns = [list(col) for col in zip(*materialised)]
            store._rows = materialised
        return store

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Value]]) -> "ColumnStore":
        """Adopt pre-built column lists (no copy validation beyond length)."""
        store = cls(len(columns))
        cols = [list(c) for c in columns]
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValueError("columns must all have the same length")
        store.columns = cols
        return store

    @classmethod
    def from_code_matrix(cls, matrix) -> "ColumnStore":
        """Adopt an ``(n, arity)`` ``int64`` matrix (kernel output): its
        values become the columns, and it is the cached code array."""
        store = cls.from_columns(matrix.T.tolist())
        store._codes_arr = matrix
        return store

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def rows(self) -> list[Row]:
        """The row-major view, materialised lazily and cached per version."""
        if self._rows is None:
            self._rows = list(zip(*self.columns)) if self.columns[0] else []
        return self._rows

    def row(self, i: int) -> Row:
        """One row by position."""
        return self.rows()[i]

    def column(self, position: int) -> list[Value]:
        """Direct (mutable — treat as read-only) access to one column."""
        return self.columns[position]

    def project(self, positions: Sequence[int]) -> list[Row]:
        """Row tuples over a subset of columns, in store order.

        A zero-column projection yields one empty tuple per row (the
        all-constants atom case).
        """
        if not positions:
            return [()] * len(self)
        if len(positions) == 1:
            return [(v,) for v in self.columns[positions[0]]]
        return list(zip(*(self.columns[i] for i in positions)))

    def codes_array(self):
        """The store as one ``(n, arity)`` ``int64`` matrix, or ``None``.

        Built once per version when every column is exactly
        integer-valued (dense dictionary codes, or plain-int data) and
        cached like the row view; ``None`` — also cached — whenever any
        column holds floats, bools, strings or over-wide integers.
        This is the raw-column surface of the kernel layer
        (:mod:`repro.storage.kernels`); consumers outside the storage
        package reach it only through access-path/relation wrappers
        (``tools/check_layering.py`` enforces that).
        """
        if not kernels.HAS_NUMPY:
            return None
        cached = self._codes_arr
        if cached is _UNBUILT:
            cols = []
            for column in self.columns:
                arr = kernels.column_array(column)
                if arr is None:
                    cols = None
                    break
                cols.append(arr)
            cached = (
                None if cols is None else kernels.np.stack(cols, axis=1)
            )
            self._codes_arr = cached
        return cached

    def contains(self, row: Row) -> bool:
        """Multiset membership (hash set built lazily, cached per version)."""
        if len(self) <= 64:
            return row in self.rows()
        if self._row_set is None:
            self._row_set = set(self.rows())
        return row in self._row_set

    # ------------------------------------------------------------------ #
    # mutation (every write is delta-logged)
    # ------------------------------------------------------------------ #
    def append(self, row: Sequence[Value]) -> None:
        """Append one row (arity validated by the caller)."""
        self.append_rows((row,))

    def extend(self, rows: Iterable[Sequence[Value]]) -> None:
        """Append many rows (one delta, one version bump)."""
        self.append_rows(rows)

    def append_rows(self, rows: Iterable[Sequence[Value]]) -> StoreDelta | None:
        """Append rows, emitting one append :class:`StoreDelta`.

        Returns the delta (``None`` for an empty input).  Existing row
        indices are untouched; the cached row view and codes matrix are
        *extended* rather than dropped — appends leave every derived
        structure one cheap delta-apply away from fresh, which is the
        contract :class:`~repro.storage.paths.AccessPathCache`, the
        encoded image and the engine's warm reduced instances build on.
        """
        materialised = [tuple(r) for r in rows]
        if not materialised:
            return None
        base_rows = len(self)
        for i, col in enumerate(self.columns):
            col.extend(r[i] for r in materialised)
        self.version += 1
        # Extend (never mutate in place) the caches consumers may hold:
        # an old reference keeps seeing the pre-append snapshot.
        if self._rows is not None:
            self._rows = self._rows + materialised
        self._row_set = None
        cached = self._codes_arr
        if cached is not _UNBUILT and cached is not None:
            tail = self._codes_for(materialised)
            self._codes_arr = (
                kernels.np.concatenate([cached, tail]) if tail is not None else None
            )
        delta = StoreDelta(
            self.version,
            base_rows,
            append_count=len(materialised),
            appended=materialised,
        )
        self.delta_log.record(delta)
        self._notify()
        return delta

    def delete_rows(self, indices: Sequence[int]) -> StoreDelta | None:
        """Delete the rows at the given positions, emitting a delete delta.

        Columns, the cached row view and the cached codes matrix are
        compacted (:func:`_without` / ``np.delete``) into *new*
        objects — the post-delete store is
        bit-identical to a cold build from the surviving rows, in their
        original relative order, and a reference held before the delete
        keeps seeing the pre-delete snapshot.  The delta carries the
        removed positions so index-keeping consumers can remap instead
        of rebuilding.
        """
        removed = sorted(set(indices))
        if not removed:
            return None
        n = len(self)
        if removed[0] < 0 or removed[-1] >= n:
            raise IndexError(f"delete positions {removed!r} out of range for {n} rows")
        delta = StoreDelta(self.version + 1, n, removed=removed)
        self.columns = [_without(col, delta) for col in self.columns]
        self.version = delta.version
        if self._rows is not None:
            self._rows = _without(self._rows, delta)
        self._row_set = None
        cached = self._codes_arr
        if cached is not _UNBUILT:
            # ``None`` (not representable) may become representable once
            # the offending rows are gone: re-derive lazily.
            self._codes_arr = (
                _UNBUILT if cached is None else kernels.np.delete(cached, removed, axis=0)
            )
        self.delta_log.record(delta)
        self._notify()
        return delta

    def deltas_since(self, version: int) -> list[StoreDelta] | None:
        """The deltas between ``version`` and now, or ``None`` (rebuild)."""
        return self.delta_log.since(version)

    def _codes_for(self, rows: list[Row]):
        """The ``(len(rows), arity)`` int64 matrix of a row batch, or ``None``."""
        if not kernels.HAS_NUMPY:
            return None
        cols = []
        for i in range(self.arity):
            arr = kernels.column_array([r[i] for r in rows])
            if arr is None:
                return None
            cols.append(arr)
        return kernels.np.stack(cols, axis=1)

    def register_listener(self, relation) -> None:
        """Register a relation for mutation callbacks (weakly held)."""
        live = []
        for ref in self._listeners:
            existing = ref()
            if existing is None or existing is relation:
                continue
            live.append(ref)
        live.append(weakref.ref(relation))
        self._listeners = live

    def _notify(self) -> None:
        if not self._listeners:
            return
        live = []
        for ref in self._listeners:
            relation = ref()
            if relation is not None:
                live.append(ref)
                relation._store_mutated()
        self._listeners = live

    def _touch(self) -> None:
        """Version bump for a mutation no delta describes (cut history)."""
        self.version += 1
        self._rows = None
        self._row_set = None
        self._codes_arr = _UNBUILT
        self.delta_log.barrier(self.version)
        self._notify()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnStore(arity={self.arity}, n={len(self)}, v={self.version})"

    # ------------------------------------------------------------------ #
    # pickling (caches are rebuilt lazily on the other side)
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        return (self.arity, self.columns, self.version)

    def __setstate__(self, state) -> None:
        self.arity, self.columns, self.version = state
        self.delta_log = DeltaLog(self.version)
        self._listeners = []
        self._rows = None
        self._row_set = None
        self._codes_arr = _UNBUILT
