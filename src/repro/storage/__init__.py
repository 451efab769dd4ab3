"""Physical storage layer: columnar stores, access paths, encoding.

This package is the only place in the library that owns *physical*
tuple storage.  The logical surface (:class:`repro.data.relation.Relation`)
delegates here, and everything above the data layer — the enumerators
in :mod:`repro.core`, the algorithm family in :mod:`repro.algorithms`,
and the engine — reaches tuples exclusively
through the relation's :class:`ScanPath` (enforced by
``tools/check_layering.py`` in CI).

Three ideas live here:

* :class:`ColumnStore` — tuples held column-major with a mutation
  version counter; row views are materialised lazily and cached.
* :class:`ScanPath` — the one read path: rows plus cached
  select/project views, their code matrices and score columns, held per
  relation by :class:`AccessPathCache` and brought up to date from the
  store's delta log (or dropped) when the store version moves.
* dictionary encoding (:class:`Dictionary`, :class:`EncodedDatabase`) —
  an order-preserving mapping of every database value to a dense
  integer code.  The engine executes queries over the encoded image of
  the database (joins, semi-joins and heap tie-breaks all
  compare small ints) and decodes only at ``RankedAnswer`` emission, so
  scores, ties and order are identical to plain execution.
"""

from . import kernels, scores
from .columnstore import ColumnStore
from .dictionary import Dictionary
from .paths import AccessPathCache, ScanPath
from .persist import (
    SnapshotError,
    open_database,
    open_snapshot,
    save_snapshot,
    snapshot_handle,
)

# The encoding layer depends on repro.core (rankings, answers), which in
# turn imports the data layer that this package underpins; load it
# lazily (PEP 562) so ``repro.data.relation`` can import the storage
# primitives without a cycle.  The journal rides the same hook simply to
# keep the durability machinery off the cold-import path.
_ENCODED_EXPORTS = ("DecodingEnumerator", "EncodedDatabase", "wrap_ranking")
_JOURNAL_EXPORTS = ("DurableDatabase", "JournalError", "journal_path", "open_durable")


def __getattr__(name: str):
    if name in _ENCODED_EXPORTS:
        from . import encoded

        return getattr(encoded, name)
    if name in _JOURNAL_EXPORTS:
        from . import journal

        return getattr(journal, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AccessPathCache",
    "ColumnStore",
    "DecodingEnumerator",
    "Dictionary",
    "DurableDatabase",
    "EncodedDatabase",
    "JournalError",
    "ScanPath",
    "SnapshotError",
    "journal_path",
    "kernels",
    "open_database",
    "open_durable",
    "open_snapshot",
    "save_snapshot",
    "scores",
    "snapshot_handle",
    "wrap_ranking",
]
