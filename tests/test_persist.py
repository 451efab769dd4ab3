"""On-disk snapshots: round-trips, refusal, copy-on-write.

The persistence contract of :mod:`repro.storage.persist`:

* round-trip: ``save_snapshot`` → ``open_database`` serves answers
  bit-identical to the saved database across query classes (acyclic,
  star, cyclic), rankings and encoded execution;
* exact-or-refuse: truncated/corrupted/foreign snapshots refuse with
  :class:`SnapshotError` instead of half-opening, and unrepresentable
  values refuse on save;
* immutability: snapshot files never change; mutation copy-on-write
  detaches the in-RAM store and post-open writes replay as deltas,
  matching a cold rebuild.

White-box access to the storage layer is fine here (tests are outside
the layering gate's scope).
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.core.planner import enumerate_ranked
from repro.core.ranking import LexRanking, SumRanking, TableWeight
from repro.data import Database, save_database_dir
from repro.engine import QueryEngine
from repro.query import parse_query
from repro.storage import (
    SnapshotError,
    kernels,
    open_database,
    save_snapshot,
    snapshot_handle,
)
from repro.storage.columnstore import ColumnStore
from repro.storage.persist import MappedColumnStore, open_snapshot

needs_numpy = pytest.mark.skipif(
    not kernels.HAS_NUMPY, reason="snapshot save requires NumPy"
)


def _path_db() -> Database:
    db = Database()
    db.add_relation("R", ("a", "b"), [(1, 10), (2, 10), (4, 10), (3, 20), (1, 20)])
    db.add_relation("S", ("b", "c"), [(10, 7), (10, 8), (20, 7), (20, 9)])
    return db


def _star_db() -> Database:
    edges = [
        ("alice", "p1"), ("bob", "p1"), ("carol", "p1"),
        ("alice", "p2"), ("bob", "p2"), ("erin", "p3"),
    ]
    db = Database()
    db.add_relation("E", ("a", "p"), edges)
    return db


def _cyclic_db() -> Database:
    db = Database()
    db.add_relation("R", ("a", "b"), [(1, 10), (2, 10), (3, 20), (1, 20)])
    db.add_relation("S", ("b", "c"), [(10, 7), (10, 8), (20, 7)])
    db.add_relation("T", ("c", "a"), [(7, 1), (8, 2), (7, 3)])
    return db


_WEIGHTS = TableWeight(
    {},
    default_table={"alice": 1.0, "bob": 5.0, "carol": 2.0, "erin": 4.0},
)

#: (db factory, query text, ranking) — acyclic x star x cyclic, scored
#: and lexicographic, string and integer keys.
_CASES = [
    (_path_db, "Q(x, z) :- R(x, y), S(y, z)", None),
    (_path_db, "Q(x, z) :- R(x, y), S(y, z)", SumRanking(descending=True)),
    (_star_db, "Q(a1, a2) :- E(a1, p), E(a2, p)", SumRanking(_WEIGHTS)),
    (_star_db, "Q(a1, a2) :- E(a1, p), E(a2, p)", LexRanking()),
    (_cyclic_db, "Q(x, y, z) :- R(x, y), S(y, z), T(z, x)", None),
]


def _pairs(answers):
    return [(a.values, a.score) for a in answers]


def _snapshot_bytes(path: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


# --------------------------------------------------------------------- #
# round-trips
# --------------------------------------------------------------------- #
@needs_numpy
class TestRoundTrip:
    @pytest.mark.parametrize("case", range(len(_CASES)))
    def test_answers_identical_after_reopen(self, case, tmp_path):
        make_db, text, ranking = _CASES[case]
        query = parse_query(text)
        saved = save_snapshot(make_db(), tmp_path / "snap")
        reopened = open_database(saved)
        expected = _pairs(enumerate_ranked(query, make_db(), ranking))
        assert _pairs(enumerate_ranked(query, reopened, ranking)) == expected

    @pytest.mark.parametrize("case", range(len(_CASES)))
    def test_encoded_engine_identical_after_reopen(self, case, tmp_path):
        make_db, text, ranking = _CASES[case]
        save_snapshot(make_db(), tmp_path / "snap")
        engine = QueryEngine(tmp_path / "snap", encode=True)
        cold = QueryEngine(make_db(), encode=True)
        assert _pairs(engine.execute(text, ranking)) == _pairs(
            cold.execute(text, ranking)
        )

    def test_relations_and_values_roundtrip(self, tmp_path):
        db = Database()
        db.add_relation(
            "M", ("a", "b"), [(True, "x"), (0, 2.5), (-7, None), (3, "x")]
        )
        save_snapshot(db, tmp_path / "snap")
        reopened = open_database(tmp_path / "snap")
        assert [r.name for r in reopened] == ["M"]
        assert reopened["M"].attrs == ("a", "b")
        got = list(reopened["M"])
        assert got == list(db["M"])
        # Exact types, not merely equal values: True stays bool, 0 int.
        assert [tuple(type(v) for v in row) for row in got] == [
            tuple(type(v) for v in row) for row in db["M"]
        ]

    def test_watermark_recorded(self, tmp_path):
        db = _path_db()
        db["R"].add((9, 10))
        save_snapshot(db, tmp_path / "snap")
        snapshot = open_snapshot(tmp_path / "snap")
        assert snapshot.generation == db.generation

    def test_engine_starts_warm(self, tmp_path):
        save_snapshot(_star_db(), tmp_path / "snap")
        engine = QueryEngine(tmp_path / "snap", encode=True)
        assert engine.stats.snapshot_opens == 1
        engine.execute("Q(a1, a2) :- E(a1, p), E(a2, p)", SumRanking(_WEIGHTS))
        # The encoded image came off the snapshot files: no encode pass.
        assert engine.stats.encode_builds == 0

    def test_database_save_convenience(self, tmp_path):
        db = _path_db()
        out = db.save(tmp_path / "snap")
        assert snapshot_handle(open_database(out)) is not None


# --------------------------------------------------------------------- #
# exact-or-refuse
# --------------------------------------------------------------------- #
@needs_numpy
class TestRefusal:
    @pytest.fixture
    def snap(self, tmp_path) -> str:
        return save_snapshot(_path_db(), tmp_path / "snap")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SnapshotError, match="not a snapshot directory"):
            open_snapshot(tmp_path / "empty")

    def test_corrupted_manifest_json(self, snap):
        with open(os.path.join(snap, "manifest.json"), "w") as fh:
            fh.write("{not json")
        with pytest.raises(SnapshotError, match="corrupted snapshot manifest"):
            open_snapshot(snap)

    def test_unknown_version(self, snap):
        target = os.path.join(snap, "manifest.json")
        with open(target) as fh:
            manifest = json.load(fh)
        manifest["version"] = 99
        with open(target, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(SnapshotError, match="unknown snapshot version 99"):
            open_snapshot(snap)

    def test_foreign_endianness(self, snap):
        target = os.path.join(snap, "manifest.json")
        with open(target) as fh:
            manifest = json.load(fh)
        manifest["endianness"] = "big"
        manifest["dtype"] = ">i8"
        with open(target, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(SnapshotError, match="byte order"):
            open_snapshot(snap)

    def test_truncated_codes_file(self, snap):
        with open(snap + "/manifest.json") as fh:
            file_name = json.load(fh)["relations"][0]["codes_file"]
        target = os.path.join(snap, file_name)
        with open(target, "r+b") as fh:
            fh.truncate(os.path.getsize(target) - 8)
        with pytest.raises(SnapshotError, match="truncated snapshot"):
            open_snapshot(snap)

    def test_missing_array_file(self, snap):
        os.remove(os.path.join(snap, "identity.scores.mmap"))
        with pytest.raises(SnapshotError, match="truncated snapshot"):
            open_snapshot(snap)

    def test_save_refuses_nonfinite_float(self, tmp_path):
        db = Database()
        db.add_relation("R", ("a",), [(float("inf"),)])
        with pytest.raises(SnapshotError, match="non-finite"):
            save_snapshot(db, tmp_path / "snap")

    def test_save_refuses_inexact_types(self, tmp_path):
        db = Database()
        db.add_relation("R", ("a",), [((1, 2),)])
        with pytest.raises(SnapshotError, match="round-trip"):
            save_snapshot(db, tmp_path / "snap")

    def test_interrupted_save_refuses(self, tmp_path):
        # A crash before the manifest write leaves array files but no
        # manifest — the directory must refuse, not half-open.
        snap = save_snapshot(_path_db(), tmp_path / "snap")
        os.remove(os.path.join(snap, "manifest.json"))
        with pytest.raises(SnapshotError, match="interrupted save"):
            open_snapshot(snap)


# --------------------------------------------------------------------- #
# immutability: copy-on-write + delta replay
# --------------------------------------------------------------------- #
@needs_numpy
class TestCopyOnWrite:
    def test_mutation_never_writes_through(self, tmp_path):
        snap = save_snapshot(_path_db(), tmp_path / "snap")
        before = _snapshot_bytes(snap)
        db = open_database(snap)
        db["R"].add((99, 10))
        db["S"].extend([(20, 99), (10, 99)])
        list(db["R"]), list(db["S"])
        assert _snapshot_bytes(snap) == before

    def test_detach_counts_and_preserves_version(self, tmp_path):
        snap = save_snapshot(_path_db(), tmp_path / "snap")
        db = open_database(snap)
        handle = snapshot_handle(db)
        store = db["R"]._store
        assert isinstance(store, MappedColumnStore) and store._mapped
        version = store.version
        db["R"].add((99, 10))
        assert not store._mapped
        # Representation moved; logical version advanced by one append.
        assert store.version == version + 1
        assert handle.cow_detaches == 1
        db["R"].add((98, 10))  # already detached: no second detach
        assert handle.cow_detaches == 1

    def test_engine_surfaces_detaches(self, tmp_path):
        save_snapshot(_star_db(), tmp_path / "snap")
        engine = QueryEngine(tmp_path / "snap")
        q = "Q(a1, a2) :- E(a1, p), E(a2, p)"
        engine.execute(q, SumRanking(_WEIGHTS))
        assert engine.stats.snapshot_cow_detaches == 0
        engine.db["E"].add(("zoe", "p1"))
        engine.execute(
            q,
            SumRanking(
                TableWeight({}, default_table={**_WEIGHTS.default_table, "zoe": 0.5})
            ),
        )
        assert engine.stats.snapshot_cow_detaches >= 1

    @pytest.mark.parametrize("encode", [True, False])
    def test_append_after_open_matches_cold_rebuild(self, tmp_path, encode):
        snap = save_snapshot(_path_db(), tmp_path / "snap")
        db = open_database(snap)
        engine = QueryEngine(db, encode=encode)
        q = "Q(x, z) :- R(x, y), S(y, z)"
        engine.execute(q)  # warm the snapshot-backed image first
        db["R"].add((8, 20))  # known values: delta-replayable
        db["S"].add((20, 11))  # new value 11: forces the rebuild path
        cold = Database()
        for rel in db:
            cold.add_relation(rel.name, rel.attrs, list(rel))
        expected = _pairs(enumerate_ranked(parse_query(q), cold))
        assert _pairs(engine.execute(q)) == expected

    def test_delete_after_open_matches_cold_rebuild(self, tmp_path):
        snap = save_snapshot(_path_db(), tmp_path / "snap")
        db = open_database(snap)
        engine = QueryEngine(db, encode=True)
        q = "Q(x, z) :- R(x, y), S(y, z)"
        engine.execute(q)
        db["R"].remove((1, 10))
        cold = Database()
        for rel in db:
            cold.add_relation(rel.name, rel.attrs, list(rel))
        expected = _pairs(enumerate_ranked(parse_query(q), cold))
        assert _pairs(engine.execute(q)) == expected


@needs_numpy
class TestPickling:
    @pytest.mark.parametrize("encode", [True, False])
    def test_an_opened_snapshot_pickles_as_plain_stores(self, tmp_path, encode):
        snap = save_snapshot(_star_db(), tmp_path / "snap")
        db = open_database(snap)
        engine = QueryEngine(db, encode=encode)
        q = "Q(a1, a2) :- E(a1, p), E(a2, p)"
        expected = _pairs(engine.execute(q, SumRanking(_WEIGHTS)))
        assert all(isinstance(rel._store, MappedColumnStore) for rel in db)
        clone = pickle.loads(pickle.dumps(db))
        for rel in db:
            store = clone[rel.name]._store
            assert type(store) is ColumnStore
            assert list(clone[rel.name]) == list(rel)
            assert store.version == rel._store.version
        assert _pairs(QueryEngine(clone, encode=encode).execute(q, SumRanking(_WEIGHTS))) == expected
        clone["E"].add(("zoe", "p1"))  # a clone is writable, like any plain store
        assert ("zoe", "p1") in clone["E"] and ("zoe", "p1") not in db["E"]


# --------------------------------------------------------------------- #
# no-NumPy fallback: eager reopen, refused save
# --------------------------------------------------------------------- #
@needs_numpy
class TestNoNumPyFallback:
    def test_reopen_is_eager_and_identical(self, tmp_path, monkeypatch):
        snap = save_snapshot(_star_db(), tmp_path / "snap")
        q = parse_query("Q(a1, a2) :- E(a1, p), E(a2, p)")
        expected = _pairs(enumerate_ranked(q, _star_db(), SumRanking(_WEIGHTS)))
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        db = open_database(snap)
        assert not isinstance(db["E"]._store, MappedColumnStore)
        assert list(db["E"]) == list(_star_db()["E"])
        assert _pairs(enumerate_ranked(q, db, SumRanking(_WEIGHTS))) == expected

    def test_save_refuses_without_numpy(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        with pytest.raises(SnapshotError, match="requires NumPy"):
            save_snapshot(_path_db(), tmp_path / "snap")


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
@needs_numpy
class TestCliSnapshot:
    @pytest.fixture
    def data_dir(self, tmp_path) -> str:
        db = Database()
        db.add_relation("E", ("a", "p"), [(1, 10), (2, 10), (3, 20), (1, 20)])
        save_database_dir(db, str(tmp_path / "data"))
        return str(tmp_path / "data")

    def test_save_then_query_matches_csv(self, data_dir, tmp_path, capsys):
        from repro.cli import main

        snap = str(tmp_path / "snap")
        assert main(["save", "--data", data_dir, "--out", snap]) == 0
        capsys.readouterr()
        q = "Q(a1, a2) :- E(a1, p), E(a2, p)"
        assert main([q, "--data", data_dir, "--k", "5"]) == 0
        from_csv = capsys.readouterr().out
        assert main([q, "--data-snapshot", snap, "--k", "5"]) == 0
        assert capsys.readouterr().out == from_csv

    def test_data_and_snapshot_are_exclusive(self, data_dir, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["Q(a) :- E(a, p)"])  # neither source given
        with pytest.raises(SystemExit):
            main([
                "Q(a) :- E(a, p)",
                "--data", data_dir,
                "--data-snapshot", str(tmp_path / "snap"),
            ])

    def test_save_reports_failure(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["save", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "s")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
