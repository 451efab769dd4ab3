"""In-memory relations.

A :class:`Relation` is the *logical* storage unit of the library: a
named, ordered multiset of fixed-arity tuples together with a schema (a
sequence of distinct attribute names).  The *physical* half lives in
:mod:`repro.storage`: tuples are held column-major in a
:class:`~repro.storage.columnstore.ColumnStore`, and every derived read
structure — select/project views, their code matrices and score
columns — lives on the relation's :class:`~repro.storage.paths.ScanPath`,
memoised per relation and kept current by the store's version counter.
This module and the storage package are the only places allowed to
touch physical storage directly; everything else goes through the
scan-path methods below (``tools/check_layering.py`` enforces it).

Attribute names on the relation itself are *storage* names; queries bind
columns positionally to query variables through :class:`repro.query.query.Atom`,
so the same relation can be used under many different variable names
(self-joins).
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Iterator, Sequence

from ..errors import SchemaError
from ..storage.columnstore import ColumnStore
from ..storage.paths import AccessPathCache, ScanPath

__all__ = ["Relation"]

Value = Any
Row = tuple


def _check_schema(attrs: Sequence[str]) -> tuple[str, ...]:
    """Validate and normalise a schema: non-empty, string names, no dups."""
    names = tuple(attrs)
    if not names:
        raise SchemaError("a relation needs at least one attribute")
    for name in names:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"attribute names must be non-empty strings, got {name!r}")
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate attribute names in schema {names}")
    return names


class Relation:
    """A named in-memory relation with a fixed schema.

    Parameters
    ----------
    name:
        The relation name used to look it up in a :class:`~repro.data.database.Database`.
    attrs:
        Ordered attribute (column) names; must be distinct.
    tuples:
        Iterable of rows.  Rows are normalised to plain tuples and checked
        against the schema arity.

    Examples
    --------
    >>> r = Relation("R", ("a", "b"), [(1, 10), (2, 20)])
    >>> len(r), r.arity
    (2, 2)
    >>> r.positions(("b",))
    (1,)
    """

    __slots__ = (
        "name",
        "attrs",
        "generation",
        "_store",
        "_paths",
        "_owners",
        "__weakref__",  # the store holds listeners weakly
    )

    def __init__(self, name: str, attrs: Sequence[str], tuples: Iterable[Sequence[Value]] = ()):
        if not name:
            raise SchemaError("relation name must be non-empty")
        self.name = name
        self.attrs = _check_schema(attrs)
        arity = len(self.attrs)
        rows: list[Row] = []
        for row in tuples:
            t = tuple(row)
            if len(t) != arity:
                raise SchemaError(
                    f"tuple {t!r} has arity {len(t)}, relation {name!r} expects {arity}"
                )
            rows.append(t)
        #: Mutation counter: bumped on every ``add``/``extend``ed row.
        #: Consumers that cache derived structures (:mod:`repro.engine`)
        #: compare generations instead of hashing tuple lists.
        self.generation: int = 0
        self._adopt_store(ColumnStore.from_rows(arity, rows))
        #: Databases holding this relation (weak backrefs); mutations are
        #: pushed to them so ``Database.generation`` stays O(1) to read.
        self._owners: list = []

    @classmethod
    def _from_store(cls, name: str, attrs: Sequence[str], store: ColumnStore) -> "Relation":
        """Adopt a pre-built column store (encoding layer fast path)."""
        rel = cls(name, attrs)
        if store.arity != len(rel.attrs):
            raise SchemaError(
                f"store arity {store.arity} does not match schema {rel.attrs}"
            )
        rel._adopt_store(store)
        return rel

    @classmethod
    def from_code_matrix(cls, name: str, attrs: Sequence[str], matrix) -> "Relation":
        """A relation over an ``(n, arity)`` ``int64`` matrix of plain-int
        values, built without a pass over Python rows."""
        return cls._from_store(name, attrs, ColumnStore.from_code_matrix(matrix))

    def _adopt_store(self, store: ColumnStore) -> None:
        self._store = store
        self._paths = AccessPathCache(store)
        # Mutations through *any* relation sharing this store (renamed
        # views) must move this relation's generation
        # too, or engines querying through one view would keep serving
        # warm state invalidated through the other.
        store.register_listener(self)

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attrs)

    @property
    def tuples(self) -> list[Row]:
        """The row-major view of the physical store.

        A cached list rebuilt lazily after mutations; treat it as
        read-only — mutate through :meth:`add` / :meth:`extend` so the
        generation counters and access paths stay coherent.
        """
        return self._store.rows()

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._store.rows())

    def __contains__(self, row: Sequence[Value]) -> bool:
        return self._store.contains(tuple(row))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.name!r}, attrs={self.attrs}, n={len(self._store)})"

    def __eq__(self, other: object) -> bool:
        """Structural equality: same name, schema and multiset of tuples."""
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.attrs == other.attrs
            and sorted(self._store.rows()) == sorted(other._store.rows())
        )

    def __hash__(self) -> int:  # Relations are mutable: identity hash.
        return id(self)

    # ------------------------------------------------------------------ #
    # schema helpers
    # ------------------------------------------------------------------ #
    def position(self, attr: str) -> int:
        """Return the column index of ``attr``.

        Raises
        ------
        SchemaError
            If the attribute is not part of the schema.
        """
        try:
            return self.attrs.index(attr)
        except ValueError:
            raise SchemaError(f"relation {self.name!r} has no attribute {attr!r}") from None

    def positions(self, attrs: Sequence[str]) -> tuple[int, ...]:
        """Column indexes for a sequence of attributes, in the given order."""
        return tuple(self.position(a) for a in attrs)

    def has_attr(self, attr: str) -> bool:
        """True if ``attr`` is one of this relation's attributes."""
        return attr in self.attrs

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, row: Sequence[Value]) -> None:
        """Append one tuple (validated against the schema arity)."""
        t = tuple(row)
        if len(t) != self.arity:
            raise SchemaError(
                f"tuple {t!r} has arity {len(t)}, relation {self.name!r} expects {self.arity}"
            )
        self._store.append(t)

    def extend(self, rows: Iterable[Sequence[Value]]) -> None:
        """Append many tuples (one generation step per row)."""
        for row in rows:
            self.add(row)

    def add_rows(self, rows: Iterable[Sequence[Value]]) -> None:
        """Append many tuples as *one* mutation (one delta, one step).

        A burst appended through here stays a single entry in the store's
        delta log, so delta-maintaining consumers replay it in one pass —
        the write shape the incremental benchmark and write-heavy
        services use.
        """
        materialised = []
        for row in rows:
            t = tuple(row)
            if len(t) != self.arity:
                raise SchemaError(
                    f"tuple {t!r} has arity {len(t)}, relation {self.name!r} "
                    f"expects {self.arity}"
                )
            materialised.append(t)
        self._store.append_rows(materialised)

    def remove(self, row: Sequence[Value]) -> int:
        """Delete every occurrence of ``row``; returns how many were removed.

        A no-op (returning 0) when the tuple is absent — callers check
        the count when absence matters.
        """
        t = tuple(row)
        if len(t) != self.arity:
            raise SchemaError(
                f"tuple {t!r} has arity {len(t)}, relation {self.name!r} "
                f"expects {self.arity}"
            )
        rows = self._store.rows()
        indices = []
        find = rows.index
        try:  # each ``index`` call is one C-level scan to the next copy
            while True:
                indices.append(find(t, indices[-1] + 1 if indices else 0))
        except ValueError:
            pass
        if indices:
            self._store.delete_rows(indices)
        return len(indices)

    def _store_mutated(self) -> None:
        """Store mutation callback (every write lands here, once).

        Fired by the column store for mutations through *any* relation
        sharing it, so ``renamed`` replicas' generations move together.
        Each weakref is dereferenced exactly once: a second deref could
        race garbage collection.
        """
        self.generation += 1
        if self._owners:
            live = []
            for ref in self._owners:
                database = ref()
                if database is not None:
                    live.append(ref)
                    database._relation_mutated()
            self._owners = live

    def _attach(self, database) -> None:
        """Register an owning database for mutation notifications.

        Dead references are pruned here too — encoded views are re-added
        to a fresh database image on every refresh and never mutate, so
        this is their only pruning opportunity.
        """
        live = []
        registered = False
        for ref in self._owners:
            existing = ref()
            if existing is None:
                continue
            live.append(ref)
            if existing is database:
                registered = True
        if not registered:
            live.append(weakref.ref(database))
        self._owners = live

    # ------------------------------------------------------------------ #
    # the scan path (the storage read interface)
    # ------------------------------------------------------------------ #
    def scan(self) -> ScanPath:
        """The sequential :class:`~repro.storage.paths.ScanPath`."""
        return self._paths.scan()

    def instance_rows(
        self,
        positions: Sequence[int],
        selections: Sequence[tuple[int, Value]] = (),
        *,
        distinct: bool = False,
    ) -> list[Row]:
        """Select/project view rows for a query atom (cached per signature).

        This is how :func:`repro.algorithms.yannakakis.atom_instances`
        binds atoms; the returned list is shared cache state — rebind or
        filter it into fresh lists, never mutate it in place.
        """
        return self._paths.scan().view(positions, selections, distinct)

    def instance_codes(
        self,
        positions: Sequence[int],
        selections: Sequence[tuple[int, Value]] = (),
        *,
        distinct: bool = False,
    ):
        """The ``int64`` code matrix aligned with :meth:`instance_rows`.

        Row ``i`` of the matrix encodes row ``i`` of the corresponding
        :meth:`instance_rows` list — the representation the vectorised
        kernels (:mod:`repro.storage.kernels`) operate on.  ``None``
        whenever the view is not exactly representable as integers
        (NumPy absent, non-integer values, unpackable distinct keys);
        callers then stay on the Python row lists.
        """
        return self._paths.scan().codes_view(positions, selections, distinct)

    def instance_lineage(
        self,
        positions: Sequence[int],
        selections: Sequence[tuple[int, Value]] = (),
        *,
        distinct: bool = False,
    ):
        """How the last write moved an :meth:`instance_rows` view:
        ``(earlier, at, current)`` (:meth:`repro.storage.paths.ScanPath.lineage`),
        or ``None``."""
        return self._paths.scan().lineage(positions, selections, distinct)

    def renamed(self, name: str) -> "Relation":
        """A shallow copy under a different relation name (shares storage).

        Both views observe mutations made through either one — the shared
        store's version counter keeps their scan paths coherent.
        """
        r = Relation(name, self.attrs)
        r._adopt_store(self._store)
        return r

    # ------------------------------------------------------------------ #
    # pickling (worker shipping): caches and backrefs stay home
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        return (self.name, self.attrs, self.generation, self._store)

    def __setstate__(self, state) -> None:
        self.name, self.attrs, self.generation, store = state
        self._adopt_store(store)
        self._owners = []
