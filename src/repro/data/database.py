"""Database instances: named collections of relations.

A :class:`Database` is what every enumerator takes as input alongside a
query.  ``|D|`` — the paper's input-size parameter — is
:meth:`Database.size`, the total number of tuples across all relations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import SchemaError
from .relation import Relation, Value

__all__ = ["Database"]


class Database:
    """A set of named relations (the paper's instance ``D``).

    Examples
    --------
    >>> db = Database()
    >>> _ = db.add_relation("R", ("a", "b"), [(1, 2), (2, 3)])
    >>> db.size
    2
    >>> db["R"].attrs
    ('a', 'b')
    """

    __slots__ = ("_relations", "_generation", "__weakref__")

    def __init__(self, relations: Iterable[Relation] = ()):
        self._relations: dict[str, Relation] = {}
        self._generation: int = 0
        for rel in relations:
            self.add(rel)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, relation: Relation) -> Relation:
        """Register an existing :class:`Relation`.

        Raises
        ------
        SchemaError
            If a different relation is already registered under the name.
        """
        existing = self._relations.get(relation.name)
        if existing is not None and existing is not relation:
            raise SchemaError(f"database already has a relation named {relation.name!r}")
        if existing is None:
            # One bump for the structural change plus the relation's own
            # mutation history, matching what a sum over relations would
            # report; from here on the relation pushes its mutations to
            # us, so reading ``generation`` stays O(1).
            self._generation += 1 + relation.generation
            relation._attach(self)
        self._relations[relation.name] = relation
        return relation

    def _relation_mutated(self) -> None:
        """Backref hook: one of our relations mutated its store."""
        self._generation += 1

    def add_relation(
        self, name: str, attrs: Sequence[str], tuples: Iterable[Sequence[Value]] = ()
    ) -> Relation:
        """Create and register a relation in one call."""
        return self.add(Relation(name, attrs, tuples))

    @classmethod
    def from_dict(cls, spec: Mapping[str, tuple[Sequence[str], Iterable[Sequence[Value]]]]) -> "Database":
        """Build a database from ``{name: (attrs, tuples)}`` (test helper)."""
        db = cls()
        for name, (attrs, tuples) in spec.items():
            db.add_relation(name, attrs, tuples)
        return db

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"database has no relation named {name!r}") from None

    def get(self, name: str) -> Relation | None:
        """Relation by name, or ``None``."""
        return self._relations.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> list[str]:
        """All relation names, in insertion order."""
        return list(self._relations)

    @property
    def size(self) -> int:
        """``|D|``: total number of tuples over all relations."""
        return sum(len(r) for r in self._relations.values())

    @property
    def generation(self) -> int:
        """Monotone mutation counter over the whole instance.

        Combines the structural generation (relations added) with every
        relation's own :attr:`~repro.data.relation.Relation.generation`,
        so any ``add``/``extend``/``add_relation`` changes the value.
        Cache layers (:mod:`repro.engine`) snapshot this to detect
        staleness without hashing tuple lists.  The counter is
        maintained incrementally — relations push mutations through a
        backref — so reading it is O(1), not O(#relations); warm-cache
        revalidation happens on every execution and used to pay the sum
        each time.
        """
        return self._generation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{r.name}({len(r)})" for r in self)
        return f"Database[{inner}]"

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def save(self, path) -> str:
        """Write this instance as an on-disk snapshot directory.

        Delegates to :func:`repro.storage.persist.save_snapshot`; reopen
        with :func:`repro.open_database` for a memory-mapped, instantly
        warm instance.  Requires NumPy and exactly-representable values
        (bool/int/float/str or None, finite floats) — anything else
        raises :class:`~repro.storage.persist.SnapshotError` rather than
        saving an approximation.
        """
        from ..storage.persist import save_snapshot

        return save_snapshot(self, path)

    def copy(self) -> "Database":
        """Deep-ish copy: fresh relation objects, fresh storage."""
        db = Database()
        for rel in self:
            db.add_relation(rel.name, rel.attrs, list(rel))
        return db

    # ------------------------------------------------------------------ #
    # pickling (worker shipping): weak backrefs are rebuilt on arrival
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        return (list(self._relations.values()), self._generation)

    def __setstate__(self, state) -> None:
        relations, generation = state
        self._relations = {rel.name: rel for rel in relations}
        self._generation = generation
        for rel in relations:
            rel._attach(self)

    def stats(self) -> dict[str, int]:
        """Per-relation cardinalities plus the total size."""
        out = {r.name: len(r) for r in self}
        out["|D|"] = self.size
        return out
