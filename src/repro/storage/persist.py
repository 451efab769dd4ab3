"""Versioned on-disk snapshots: memory-mapped warm starts.

A snapshot is a directory holding the *physical* state PRs 3–5 build in
RAM on every cold start — dictionary-encoded code matrices, the
order-preserving :class:`~repro.storage.dictionary.Dictionary`, and a
per-code score column — as raw little-endian arrays plus one JSON
manifest:

``manifest.json``
    Format tag + version, byte order, dtypes, the database ``generation``
    watermark at save time, and one entry per relation (name, attrs, row
    count, store version, array file).
``dictionary.json``
    The dictionary's value list, in code order.
``rel_<i>.codes.mmap``
    One ``(rows, arity)`` C-order ``<i8`` code matrix per relation.
``identity.scores.mmap``
    One ``<f8`` per dictionary code: ``float(value)`` for numeric values,
    NaN otherwise — the persisted identity score column.

Reopening maps the arrays with ``numpy.memmap`` (read-only, lazily
paged, zero-copy): a :class:`MappedColumnStore` serves the existing
:class:`~repro.storage.columnstore.ColumnStore` surface — and therefore
the scan path built on it — directly off the mapped pages.  The
files themselves are **immutable**: the first mutation through any view
copy-on-write *detaches* the store (columns materialise into ordinary
RAM lists, the mapping is dropped) and proceeds exactly like a plain
store, with the :class:`~repro.storage.deltas.DeltaLog` carrying the
post-open writes for incremental consumers.

Everything is exact-or-refuse, matching the kernel layer's discipline:
an unknown manifest version, foreign byte order, truncated array file or
unrepresentable value refuses with a clear :class:`SnapshotError` rather
than guessing; a NumPy-free interpreter reopens snapshots as eager
plain-list stores (bit-identical answers, no mapping) and refuses only
``save``.

The on-disk format is a storage-layer contract: consumers use the
public functions here (``tools/check_layering.py`` rule 5 keeps the
file-format spellings inside ``repro/storage/``).
"""

from __future__ import annotations

import json
import math
import os
import sys
import weakref
from typing import Any, Sequence

from ..errors import ReproError
from ..testing.faultinject import fault_point
from . import kernels
from .columnstore import ColumnStore
from .deltas import DeltaLog
from .dictionary import Dictionary

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "MappedColumnStore",
    "Snapshot",
    "SnapshotError",
    "open_database",
    "open_snapshot",
    "save_snapshot",
    "snapshot_handle",
]

#: Manifest ``format`` tag — anything else is not ours.
SNAPSHOT_FORMAT = "repro-snapshot"
#: Manifest ``version`` this build reads and writes.  Unknown versions
#: refuse on open (exact-or-refuse: no forward-compat guessing).
SNAPSHOT_VERSION = 1

MANIFEST_FILE = "manifest.json"
DICTIONARY_FILE = "dictionary.json"
SCORES_FILE = "identity.scores.mmap"

_CODE_DTYPE = "<i8"
_SCORE_DTYPE = "<f8"
_ITEM_BYTES = 8

#: Exact types a snapshot can round-trip through the JSON dictionary.
#: Subclasses (IntEnum, numpy scalars, ...) are refused: ``json`` would
#: silently flatten them to their base type and reopen would not be
#: bit-identical.
_JSON_SAFE = (bool, int, float, str)


class SnapshotError(ReproError):
    """A snapshot could not be written or reopened exactly."""


# ---------------------------------------------------------------------- #
# mapped stores
# ---------------------------------------------------------------------- #
class _LazyColumns(list):
    """Per-column lazy materialisation over a mapped matrix.

    Behaves as the ``store.columns`` list of plain Python lists the rest
    of the storage layer expects, but each column is pulled out of the
    mapped matrix (and decoded, for value-level stores) only on first
    access — a scan of one column pages in one column.
    """

    def __init__(self, store: "MappedColumnStore"):
        super().__init__([None] * store.arity)
        self._store = store

    def __getitem__(self, index):
        cached = list.__getitem__(self, index)
        if cached is None:
            cached = self._store._materialise_column(index)
            list.__setitem__(self, index, cached)
        return cached

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


class MappedColumnStore(ColumnStore):
    """A read-only :class:`ColumnStore` view over a mapped code matrix.

    Two kinds exist, both over the same file:

    * ``kind="codes"`` serves the integer codes themselves (the encoded
      image of the database) — the matrix doubles as the store's
      ``codes_array`` with zero copies;
    * ``kind="base"`` decodes through the snapshot dictionary on access,
      serving original values.

    Reads never copy the matrix (columns and row views materialise into
    Python objects only when a consumer actually iterates them); the
    first *mutation* copy-on-write detaches the store from the mapping —
    the snapshot files are immutable — after which it behaves exactly
    like a plain store, including delta logging of the new writes.  The
    detach changes only the representation, never ``version``: derived
    structures keyed on the version stay warm across it.
    """

    __slots__ = ("_matrix", "_decode_values", "_mapped", "_on_detach")

    def __init__(
        self,
        arity: int,
        matrix,
        *,
        decode_values: Sequence[Any] | None = None,
        on_detach=None,
        version: int = 0,
    ):
        super().__init__(arity)
        self._matrix = matrix
        self._decode_values = decode_values
        self._mapped = True
        self._on_detach = on_detach
        self.version = version
        self.delta_log = DeltaLog(version)
        self.columns = _LazyColumns(self)
        if decode_values is None:
            # Code-level store: the mapped matrix *is* the codes matrix.
            self._codes_arr = matrix

    # -- reading off the map ------------------------------------------- #
    def __len__(self) -> int:
        if self._mapped:
            return int(self._matrix.shape[0])
        return super().__len__()

    def rows(self):
        if not self._mapped:
            return super().rows()
        if self._rows is None:
            data = self._matrix.tolist()
            values = self._decode_values
            if values is None:
                self._rows = [tuple(r) for r in data]
            else:
                self._rows = [tuple(values[c] for c in r) for r in data]
        return self._rows

    def _materialise_column(self, index: int) -> list:
        codes = self._matrix[:, index].tolist()
        values = self._decode_values
        if values is None:
            return codes
        return [values[c] for c in codes]

    # -- mutation: copy-on-write detach -------------------------------- #
    def _detach(self) -> None:
        """Materialise into RAM and drop the mapping (first write only).

        The snapshot files are never written through to; ``version`` is
        *not* bumped — the logical contents are unchanged, only the
        representation moved, so warm derived state stays valid and the
        delta log keeps describing exactly the post-open writes.
        """
        if not self._mapped:
            return
        matrix = self._matrix
        plain = [list(self.columns[i]) for i in range(self.arity)]
        self._mapped = False
        self._matrix = None
        self.columns = plain
        if self._codes_arr is matrix:
            self._codes_arr = kernels.np.array(matrix, dtype=kernels.np.int64)
        callback = self._on_detach
        if callback is not None:
            callback()

    def append_rows(self, rows):
        self._detach()
        return super().append_rows(rows)

    def delete_rows(self, indices):
        self._detach()
        return super().delete_rows(indices)

    def _touch(self) -> None:
        self._detach()
        super()._touch()

    def __reduce__(self):
        """Pickle as a plain :class:`ColumnStore` holding the same rows
        and version: the mapping belongs to this process's open
        snapshot, so a clone takes the values and nothing else."""
        columns = [list(self.columns[i]) for i in range(self.arity)]
        return (_plain_store, ((self.arity, columns, self.version),))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "mapped" if self._mapped else "detached"
        return (
            f"MappedColumnStore(arity={self.arity}, n={len(self)}, "
            f"v={self.version}, {state})"
        )


def _plain_store(state) -> ColumnStore:
    """A plain store from :meth:`ColumnStore.__getstate__`'s state (how a
    mapped store unpickles)."""
    store = ColumnStore.__new__(ColumnStore)
    store.__setstate__(state)
    return store


# ---------------------------------------------------------------------- #
# saving
# ---------------------------------------------------------------------- #
def save_snapshot(db, path: str | os.PathLike, *, checkpoint_token=None) -> str:
    """Persist a database as a snapshot directory; returns the path.

    Refuses (:class:`SnapshotError`) without NumPy — the array files are
    written through it — and for any value the JSON dictionary cannot
    round-trip exactly: only plain ``bool``/``int``/``float``/``str``
    and ``None``, finite floats only, exact types (no subclasses).

    The manifest is written last, atomically and *durably*: every data
    file is fsync'd before the manifest names it, the manifest replace
    is fsync'd, and the directory entry itself is fsync'd — a crash (or
    power loss) at any point leaves either the previous snapshot or the
    new one, never a half-written hybrid.

    ``checkpoint_token`` stamps the manifest with the journal-binding
    token (see :mod:`~repro.storage.journal`); a fresh token is minted
    when none is given, which deliberately invalidates any journal left
    beside an overwritten snapshot — its deltas were relative to the
    old incarnation.  Re-saving over an existing snapshot writes the
    data files under token-tagged names, so the old incarnation's files
    (possibly still mapped by live readers) are never truncated in
    place; they are superseded atomically by the manifest replace.
    """
    if not kernels.HAS_NUMPY:
        raise SnapshotError(
            "snapshot save requires NumPy to write the array files; "
            "this interpreter has none (reopening existing snapshots "
            "still works, via the eager fallback)"
        )
    np = kernels.np
    for rel in db:
        for position, column in enumerate(rel._store.columns):
            for value in column:
                if value is not None and type(value) not in _JSON_SAFE:
                    raise SnapshotError(
                        f"cannot snapshot {rel.name}.{rel.attrs[position]}: "
                        f"value {value!r} of type {type(value).__name__} "
                        "does not round-trip exactly through the JSON "
                        "dictionary (exact-or-refuse)"
                    )
                if isinstance(value, float) and not math.isfinite(value):
                    raise SnapshotError(
                        f"cannot snapshot {rel.name}.{rel.attrs[position]}: "
                        f"non-finite float {value!r} has no exact JSON form"
                    )
    dictionary = Dictionary.build(
        column for rel in db for column in rel._store.columns
    )
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    if checkpoint_token is None:
        import secrets

        checkpoint_token = secrets.token_hex(8)
    # Fresh directories get the plain historical names; a re-save over an
    # existing snapshot tags the files with the new token so the previous
    # incarnation's arrays (still mapped by live handles, still the valid
    # snapshot if this save crashes) are never overwritten in place.
    tag = (
        f".{checkpoint_token[:8]}"
        if os.path.isfile(os.path.join(path, MANIFEST_FILE))
        else ""
    )
    relations = []
    for index, rel in enumerate(db):
        store = rel._store
        n, arity = len(store), store.arity
        matrix = np.empty((n, arity), dtype=_CODE_DTYPE)
        for j, column in enumerate(store.columns):
            matrix[:, j] = dictionary.encode_column(list(column))
        file_name = f"rel_{index:03d}{tag}.codes.mmap"
        _write_bytes(os.path.join(path, file_name), matrix.tobytes())
        relations.append(
            {
                "name": rel.name,
                "attrs": list(rel.attrs),
                "rows": n,
                "arity": arity,
                "codes_file": file_name,
                "bytes": n * arity * _ITEM_BYTES,
                "store_version": store.version,
            }
        )
    values = dictionary.values
    scores = np.empty(len(values), dtype=_SCORE_DTYPE)
    for code, value in enumerate(values):
        if isinstance(value, (bool, int, float)):
            try:
                scores[code] = float(value)
            except OverflowError:
                scores[code] = float("nan")
        else:
            scores[code] = float("nan")
    scores_file = f"identity{tag}.scores.mmap" if tag else SCORES_FILE
    dictionary_file = f"dictionary{tag}.json" if tag else DICTIONARY_FILE
    _write_bytes(os.path.join(path, scores_file), scores.tobytes())
    _write_json(
        os.path.join(path, dictionary_file), {"values": values}, allow_nan=False
    )
    manifest = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "endianness": "little",
        "dtype": _CODE_DTYPE,
        "score_dtype": _SCORE_DTYPE,
        "generation": db.generation,
        "checkpoint": checkpoint_token,
        "dictionary": {"file": dictionary_file, "entries": len(values)},
        "scores": {
            "file": scores_file,
            "entries": len(values),
            "bytes": len(values) * _ITEM_BYTES,
        },
        "relations": relations,
    }
    _write_json(os.path.join(path, MANIFEST_FILE), manifest, indent=2)
    _fsync_dir(path)
    return path


def _write_bytes(target: str, data: bytes) -> None:
    """Write one data file and fsync it before anything names it."""
    with open(target, "wb") as fh:
        fh.write(data)
        fh.flush()
        fault_point("persist.fsync")
        os.fsync(fh.fileno())


def _write_json(target: str, payload, **dump_kwargs) -> None:
    tmp = target + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, **dump_kwargs)
        fh.flush()
        fault_point("persist.fsync")
        os.fsync(fh.fileno())
    os.replace(tmp, target)


def _fsync_dir(path: str) -> None:
    """Durably commit a directory's entries (rename targets included).

    Platforms without directory fds (Windows) silently skip — the
    rename itself is still atomic there, just not power-loss durable.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# ---------------------------------------------------------------------- #
# opening
# ---------------------------------------------------------------------- #
def open_snapshot(path: str | os.PathLike) -> "Snapshot":
    """Validate and open a snapshot directory (no arrays touched yet).

    Every structural problem — missing/corrupt manifest, unknown format
    or version, foreign byte order, truncated array files — refuses here
    with a clear :class:`SnapshotError`; a handle that opens serves
    exactly the saved database.
    """
    path = os.fspath(path)
    manifest_path = os.path.join(path, MANIFEST_FILE)
    if not os.path.isfile(manifest_path):
        raise SnapshotError(
            f"{path!r} is not a snapshot directory: no {MANIFEST_FILE} "
            "(an interrupted save never writes one)"
        )
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SnapshotError(
            f"corrupted snapshot manifest {manifest_path!r}: {exc}"
        ) from None
    if not isinstance(manifest, dict) or manifest.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{manifest_path!r} is not a {SNAPSHOT_FORMAT} manifest"
        )
    version = manifest.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unknown snapshot version {version!r} (this build reads "
            f"version {SNAPSHOT_VERSION}); refusing rather than guessing "
            "at the layout"
        )
    if manifest.get("endianness") != "little" or manifest.get("dtype") != _CODE_DTYPE:
        raise SnapshotError(
            "snapshot byte order/dtype "
            f"({manifest.get('endianness')!r}, {manifest.get('dtype')!r}) "
            f"is not the little-endian {_CODE_DTYPE} this build reads; "
            "refusing rather than byte-guessing"
        )
    try:
        dict_entry = manifest["dictionary"]
        relations = manifest["relations"]
        names = set()
        for entry in relations:
            name, arity, rows = entry["name"], entry["arity"], entry["rows"]
            if arity < 1 or rows < 0 or len(entry["attrs"]) != arity:
                raise SnapshotError(
                    f"corrupted snapshot manifest: relation {name!r} has "
                    f"inconsistent shape ({rows} rows, arity {arity}, "
                    f"{len(entry['attrs'])} attrs)"
                )
            if name in names:
                raise SnapshotError(
                    f"corrupted snapshot manifest: duplicate relation {name!r}"
                )
            names.add(name)
            _check_file(path, entry["codes_file"], rows * arity * _ITEM_BYTES)
        _check_file(
            path,
            manifest["scores"]["file"],
            manifest["scores"]["entries"] * _ITEM_BYTES,
        )
        if not os.path.isfile(os.path.join(path, dict_entry["file"])):
            raise SnapshotError(
                f"truncated snapshot: dictionary file {dict_entry['file']!r} "
                "is missing"
            )
    except (KeyError, TypeError) as exc:
        raise SnapshotError(
            f"corrupted snapshot manifest {manifest_path!r}: "
            f"missing or malformed field ({exc!r})"
        ) from None
    return Snapshot(path, manifest)


def _check_file(directory: str, file_name: str, expected_bytes: int) -> None:
    target = os.path.join(directory, file_name)
    if not os.path.isfile(target):
        raise SnapshotError(
            f"truncated snapshot: array file {file_name!r} is missing"
        )
    actual = os.path.getsize(target)
    if actual != expected_bytes:
        raise SnapshotError(
            f"truncated snapshot: {file_name!r} holds {actual} bytes, "
            f"manifest expects {expected_bytes}"
        )


class Snapshot:
    """An open snapshot directory: mapped stores, dictionary, watermark.

    One handle per :func:`open_snapshot` call; stores are cached per
    ``(relation, kind)`` so every view of a relation shares one mapping.
    ``cow_detaches`` counts copy-on-write detaches across all stores —
    surfaced as ``EngineStats.snapshot_cow_detaches``.
    """

    def __init__(self, directory: str, manifest: dict):
        self.directory = directory
        self.manifest = manifest
        self.cow_detaches = 0
        #: Data records :func:`open_database` replayed from the journal
        #: (:mod:`~repro.storage.journal`) — surfaced as
        #: ``EngineStats.journal_records_replayed``.
        self.journal_replayed = 0
        self._entries = {e["name"]: e for e in manifest["relations"]}
        self._stores: dict[tuple[str, str], ColumnStore] = {}
        self._dictionary: Dictionary | None = None
        self._scores = None

    # -- manifest accessors -------------------------------------------- #
    @property
    def generation(self) -> int:
        """Database generation at save time (the snapshot watermark)."""
        return self.manifest["generation"]

    def names(self) -> list[str]:
        return [e["name"] for e in self.manifest["relations"]]

    def _relation_entry(self, name: str) -> dict:
        try:
            return self._entries[name]
        except KeyError:
            raise SnapshotError(
                f"snapshot {self.directory!r} has no relation {name!r}"
            ) from None

    def _count_detach(self) -> None:
        self.cow_detaches += 1

    # -- the persisted pieces ------------------------------------------ #
    def dictionary(self) -> Dictionary:
        """The snapshot's dictionary (loaded once, shared)."""
        if self._dictionary is None:
            entry = self.manifest["dictionary"]
            target = os.path.join(self.directory, entry["file"])
            try:
                with open(target, encoding="utf-8") as fh:
                    values = json.load(fh)["values"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise SnapshotError(
                    f"corrupted snapshot dictionary {target!r}: {exc!r}"
                ) from None
            if not isinstance(values, list) or len(values) != entry["entries"]:
                raise SnapshotError(
                    f"truncated snapshot dictionary {target!r}: "
                    f"manifest expects {entry['entries']} entries"
                )
            self._dictionary = Dictionary(values)
        return self._dictionary

    def identity_scores(self):
        """The per-code ``float64`` score column (mapped; eager fallback).

        ``scores[code]`` is ``float(value)`` for numeric dictionary
        values and NaN otherwise — the persisted identity weight
        materialisation.
        """
        if self._scores is None:
            entry = self.manifest["scores"]
            target = os.path.join(self.directory, entry["file"])
            n = entry["entries"]
            if kernels.HAS_NUMPY:
                np = kernels.np
                self._scores = (
                    np.memmap(target, dtype=_SCORE_DTYPE, mode="r", shape=(n,))
                    if n
                    else np.empty(0, dtype=_SCORE_DTYPE)
                )
            else:
                import array

                buf = array.array("d")
                with open(target, "rb") as fh:
                    buf.frombytes(fh.read())
                if sys.byteorder != "little":
                    buf.byteswap()
                self._scores = list(buf)
        return self._scores

    def _load_matrix(self, entry: dict):
        """The mapped ``(rows, arity)`` code matrix of one relation."""
        np = kernels.np
        rows, arity = entry["rows"], entry["arity"]
        if rows == 0:
            return np.empty((0, arity), dtype=_CODE_DTYPE)
        target = os.path.join(self.directory, entry["codes_file"])
        return np.memmap(target, dtype=_CODE_DTYPE, mode="r", shape=(rows, arity))

    def _eager_columns(self, entry: dict) -> list[list[int]]:
        """No-NumPy fallback: the code columns as plain lists."""
        import array

        if array.array("q").itemsize != _ITEM_BYTES:
            raise SnapshotError(
                "cannot reopen snapshot without NumPy on a platform whose "
                "'q' arrays are not 8 bytes (exact-or-refuse)"
            )
        arity = entry["arity"]
        buf = array.array("q")
        target = os.path.join(self.directory, entry["codes_file"])
        with open(target, "rb") as fh:
            buf.frombytes(fh.read())
        if sys.byteorder != "little":
            buf.byteswap()
        return [list(buf[j::arity]) for j in range(arity)]

    def store(self, name: str, kind: str = "base") -> ColumnStore:
        """The (cached) store of one relation.

        ``kind="base"`` serves original values (decoded through the
        dictionary); ``kind="codes"`` serves the integer codes — the
        encoded image's store.  With NumPy both are zero-copy mapped
        views; without it, eager plain stores (bit-identical, unmapped).
        """
        key = (name, kind)
        cached = self._stores.get(key)
        if cached is not None:
            return cached
        entry = self._relation_entry(name)
        decode_values = None if kind == "codes" else self.dictionary().values
        if kernels.HAS_NUMPY:
            store: ColumnStore = MappedColumnStore(
                entry["arity"],
                self._load_matrix(entry),
                decode_values=decode_values,
                on_detach=self._count_detach,
                version=entry["store_version"],
            )
        else:
            columns = self._eager_columns(entry)
            if decode_values is not None:
                columns = [[decode_values[c] for c in col] for col in columns]
            store = ColumnStore.from_columns(columns)
            store.version = entry["store_version"]
            store.delta_log = DeltaLog(entry["store_version"])
        self._stores[key] = store
        return store

    # -- assembled objects --------------------------------------------- #
    def relation(self, name: str, kind: str = "base"):
        """A fresh :class:`Relation` over the (shared) mapped store."""
        from ..data.relation import Relation

        entry = self._relation_entry(name)
        return Relation._from_store(name, tuple(entry["attrs"]), self.store(name, kind))

    def database(self):
        """The saved database, every relation backed by this snapshot."""
        from ..data.database import Database

        db = Database()
        for entry in self.manifest["relations"]:
            db.add(self.relation(entry["name"], "base"))
        return db

    def encoded_database(self, base_db):
        """A pre-seeded encoded image of ``base_db`` (opened from here).

        The dictionary and every encoded relation come straight off the
        snapshot files — no :meth:`Dictionary.build`, no re-encode pass —
        which is the warm-start win the engine cashes in.  ``base_db``
        must be this snapshot's :meth:`database`; writes made since the
        open are reconciled on the image's first ``refresh()`` exactly
        like on a cold-built one (delta replay of appends/deletes, full
        rebuild when the gap is not replayable), because the image's
        generation watermark is deliberately left unset.
        """
        from ..data.database import Database
        from ..storage.encoded import EncodedDatabase

        encoded = EncodedDatabase(base_db)
        encoded.dictionary = self.dictionary()
        encoded.epoch += 1
        encoded_db = Database()
        for entry in self.manifest["relations"]:
            name = entry["name"]
            rel = base_db[name]
            encoded_rel = self.relation(name, "codes")
            encoded_db.add(encoded_rel)
            # The recorded watermark is the *encoded* store's version:
            # code and base stores open at the manifest's store_version
            # and advance in lockstep thereafter (every base delta is
            # replayed as exactly one encoded mutation), so this is the
            # base version the encoded relation currently reflects —
            # refresh() replays precisely the missing suffix, whether
            # the image is built right after the open or much later.
            encoded._relations[name] = (
                rel,
                rel.generation,
                encoded_rel,
                rel._store,
                encoded_rel._store.version,
            )
        encoded.database = encoded_db
        return encoded


# ---------------------------------------------------------------------- #
# database-level entry points
# ---------------------------------------------------------------------- #
#: ``database -> snapshot`` for databases built by :func:`open_database`;
#: weakly keyed, so closing the last reference drops the mapping.
_SNAPSHOTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

def open_database(path: str | os.PathLike):
    """Reopen a snapshot as a :class:`~repro.data.database.Database`.

    The inverse of :meth:`Database.save`: relations serve the saved
    rows straight off the mapped files (eager lists without NumPy),
    answers are bit-identical to the database that was saved, and the
    handle is remembered so :class:`~repro.engine.QueryEngine` can skip
    the encode pass entirely.

    When a write-ahead journal (:mod:`~repro.storage.journal`) sits
    beside the snapshot, its acknowledged records are replayed over the
    mapped database — a kill -9 after an acknowledged write loses
    nothing.  Replay here is read-only (nothing on disk changes);
    :func:`~repro.storage.journal.open_durable` is the writable handle.
    """
    snapshot = open_snapshot(path)
    db = snapshot.database()
    _SNAPSHOTS[db] = snapshot
    if os.path.exists(os.path.join(snapshot.directory, "journal.wal")):
        from .journal import replay_journal

        snapshot.journal_replayed = replay_journal(snapshot, db)
    return db


def snapshot_handle(db) -> Snapshot | None:
    """The :class:`Snapshot` behind ``db``, if :func:`open_database` built it."""
    try:
        return _SNAPSHOTS.get(db)
    except TypeError:  # unhashable/foreign objects: not ours
        return None
