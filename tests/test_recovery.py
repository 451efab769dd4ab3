"""Crash-safe durability: journal, recovery, restart-surviving service.

The contracts ``docs/recovery.md`` promises:

* journal round-trip: acknowledged appends/deletes replay exactly on
  reopen (``open_durable`` for writing, ``open_database`` read-only);
* exact-or-refuse recovery: a torn tail (kill -9 mid-append) is
  dropped, interior corruption refuses with :class:`JournalError`;
* acknowledgement semantics: after a failed fsync nothing is silently
  lost — the acknowledged prefix is always recovered bit-identically
  (an unacknowledged record that reached the OS *may* also survive;
  that is the standard write-ahead contract);
* checkpointing folds the journal into a fresh snapshot atomically —
  a crash in the middle recovers to a consistent state either way;
* a real ``SIGKILL``'d writer process loses no acknowledged write;
* the service layer survives restarts: journaled cursors resume to the
  exact next page over live TCP, deadlines abandon (and push back)
  server-side work, and the client reconnects through dropped
  connections without skipping or duplicating answers.

White-box access to the storage layer is fine here (tests are outside
the layering gate's scope).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.data import Database
from repro.engine import QueryEngine
from repro.service import ServerThread
from repro.service.client import ServiceClient
from repro.service.protocol import (
    BadOffsetError,
    DeadlineExceededError,
    ServiceError,
    decode_answers,
)
from repro.storage import kernels, open_database, save_snapshot
from repro.storage.journal import (
    JournalError,
    journal_path,
    open_durable,
)
from repro.testing.faultinject import (
    FaultError,
    FaultPlan,
    clock,
    fault_point,
    inject,
)

needs_numpy = pytest.mark.skipif(
    not kernels.HAS_NUMPY, reason="snapshot save requires NumPy"
)

QUERY = "q(a, c) :- r(a, b), s(b, c)"


def make_db(n: int = 60) -> Database:
    db = Database()
    db.add_relation("r", ("a", "b"), [((i * 7) % 20, i % 8) for i in range(n)])
    db.add_relation("s", ("b", "c"), [(j % 8, (j * 3) % 15) for j in range(n)])
    return db


def rows_of(db: Database) -> dict[str, list[tuple]]:
    return {rel.name: list(rel) for rel in db}


# --------------------------------------------------------------------- #
# fault-injection harness self-tests
# --------------------------------------------------------------------- #
class TestFaultInject:
    def test_exact_hit_counts(self):
        plan = FaultPlan(seed=1).fail("p", at=3)
        with inject(plan):
            fault_point("p")
            fault_point("p")
            with pytest.raises(FaultError):
                fault_point("p")
            fault_point("p")  # only the at=3 hit fires
        assert plan.hits("p") == 4
        assert plan.triggered == [("p", 3, "fail")]

    def test_inactive_points_are_free(self):
        fault_point("never.armed")  # no plan: must be a no-op
        assert fault_point("never.armed") is None

    def test_nesting_refused(self):
        with inject(FaultPlan()):
            with pytest.raises(RuntimeError):
                with inject(FaultPlan()):
                    pass  # pragma: no cover

    def test_clock_jump(self):
        plan = FaultPlan().jump_clock(3600.0)
        before = clock()
        with inject(plan):
            assert clock() >= before + 3600.0
        assert clock() < before + 3600.0

    def test_seeded_rng_deterministic(self):
        a = FaultPlan(seed=7).rng("x").random()
        b = FaultPlan(seed=7).rng("x").random()
        assert a == b


# --------------------------------------------------------------------- #
# journal round-trip and recovery
# --------------------------------------------------------------------- #
@needs_numpy
class TestJournalRoundTrip:
    def test_acknowledged_writes_replay_exactly(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        with open_durable(target) as durable:
            durable.append("r", [(91, 1), (92, 2)])
            durable.delete("s", (0, 0))
            durable.append("s", [(7, 7)])
            expected = rows_of(durable.db)
        reopened = open_database(target)
        assert rows_of(reopened) == expected
        # the replay count reaches engine observability
        engine = QueryEngine(reopened)
        assert engine.stats.journal_records_replayed == 3

    def test_replayed_answers_match_cold_rebuild(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        with open_durable(target) as durable:
            durable.append("r", [(91, 1), (92, 2)])
            durable.delete("r", (0, 0))
        recovered = QueryEngine(open_database(target))
        cold_db = make_db()
        cold_db["r"].add_rows([(91, 1), (92, 2)])
        cold_db["r"].remove((0, 0))
        cold = QueryEngine(cold_db)
        got = [(a.values, a.score) for a in recovered.execute(QUERY, k=20)]
        want = [(a.values, a.score) for a in cold.execute(QUERY, k=20)]
        assert got == want

    def test_rejects_unjournalable_rows(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        with open_durable(target) as durable:
            with pytest.raises(JournalError):
                durable.append("r", [(float("nan"), 1)])
            with pytest.raises(JournalError):
                durable.append("r", [(object(), 1)])
            durable.append("r", [(1, 1)])  # handle still usable

    def test_torn_tail_dropped_exactly(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        with open_durable(target) as durable:
            durable.append("r", [(91, 1)])
            acked_at = durable.journal_bytes
            after_acked = rows_of(durable.db)
            durable.append("r", [(92, 2)])
        # kill -9 mid-append: only part of the last record reached disk
        with open(journal_path(target), "r+b") as handle:
            handle.truncate(acked_at + 5)
        assert rows_of(open_database(target)) == after_acked
        # the writable reopen truncates the torn bytes and appends anew
        with open_durable(target) as durable:
            assert durable.journal_bytes == acked_at
            durable.append("r", [(93, 3)])
        final = rows_of(open_database(target))
        assert (93, 3) in final["r"] and (92, 2) not in final["r"]

    def test_interior_corruption_refuses(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        with open_durable(target) as durable:
            durable.append("r", [(91, 1)])
            first_end = durable.journal_bytes
            durable.append("r", [(92, 2)])
        with open(journal_path(target), "r+b") as handle:
            handle.seek(first_end - 3)
            handle.write(b"\xff")
        with pytest.raises(JournalError):
            open_database(target)
        with pytest.raises(JournalError):
            open_durable(target)

    def test_failed_fsync_breaks_handle_but_loses_nothing_acked(
        self, tmp_path
    ):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        durable = open_durable(target)
        durable.append("r", [(91, 1)])
        acked = rows_of(durable.db)
        with inject(FaultPlan().fail("journal.fsync", at=1)):
            with pytest.raises(JournalError):
                durable.append("r", [(92, 2)])
        # the handle refuses further writes instead of guessing
        with pytest.raises(JournalError):
            durable.append("r", [(93, 3)])
        durable.close()
        recovered = rows_of(open_database(target))
        # Standard WAL contract: every acknowledged row is there; the
        # unacknowledged one MAY also be (it reached the OS before the
        # fsync failed) — but nothing else, and never a partial burst.
        assert recovered["s"] == acked["s"]
        assert recovered["r"] in (acked["r"], acked["r"] + [(92, 2)])

    def test_mid_record_cut_never_applies_partial_burst(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        durable = open_durable(target)
        durable.append("r", [(91, 1)])
        acked = rows_of(durable.db)
        with inject(FaultPlan().cut("journal.write", at=1, byte=7)):
            with pytest.raises(JournalError):
                durable.append("r", [(92, 2), (93, 3)])
        durable.close()
        # all-or-nothing: the torn record recovers as if never written
        assert rows_of(open_database(target)) == acked


@needs_numpy
class TestCheckpoint:
    def test_checkpoint_folds_journal_into_snapshot(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        with open_durable(target) as durable:
            durable.append("r", [(91, 1)])
            durable.delete("s", (0, 0))
            before = durable.journal_bytes
            durable.checkpoint()
            assert durable.journal_bytes < before
            expected = rows_of(durable.db)
            durable.append("r", [(92, 2)])
            expected["r"] = expected["r"] + [(92, 2)]
        reopened = open_database(target)
        assert rows_of(reopened) == expected
        # only the post-checkpoint record needed replay
        assert QueryEngine(reopened).stats.journal_records_replayed == 1

    def test_crash_during_checkpoint_recovers_consistently(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        durable = open_durable(target)
        durable.append("r", [(91, 1)])
        state = rows_of(durable.db)
        with inject(FaultPlan().fail("journal.checkpoint", at=1)):
            with pytest.raises((JournalError, FaultError)):
                durable.checkpoint()
        with pytest.raises(JournalError):
            durable.append("r", [(92, 2)])  # broken handle refuses
        durable.close()
        # the snapshot was saved but the journal swap never happened:
        # recovery must land on exactly the pre-crash contents
        assert rows_of(open_database(target)) == state
        with open_durable(target) as durable2:
            assert rows_of(durable2.db) == state
            durable2.append("r", [(92, 2)])
        assert (92, 2) in rows_of(open_database(target))["r"]

    def test_retrofits_token_onto_pre_journal_snapshot(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        manifest_file = os.path.join(target, "manifest.json")
        with open(manifest_file, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest.pop("checkpoint")
        with open(manifest_file, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with open_durable(target) as durable:
            durable.append("r", [(91, 1)])
        assert (91, 1) in rows_of(open_database(target))["r"]

    def test_stale_journal_from_foreign_resave_refuses(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        with open_durable(target) as durable:
            durable.append("r", [(91, 1)])
        # a plain re-save mints a fresh token; the old journal no longer
        # belongs to these files and recovery must refuse, not guess
        save_snapshot(make_db(80), target)
        with pytest.raises(JournalError):
            open_database(target)


@needs_numpy
class TestSnapshotDurability:
    def test_failed_resave_leaves_old_snapshot_intact(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        original = rows_of(open_database(target))
        bigger = make_db(100)
        with inject(FaultPlan().fail("persist.fsync", at=1)):
            with pytest.raises(Exception):
                save_snapshot(bigger, target)
        # the manifest replace never happened: the old snapshot serves
        assert rows_of(open_database(target)) == original


# --------------------------------------------------------------------- #
# a real kill -9
# --------------------------------------------------------------------- #
_CHILD_SCRIPT = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.storage.journal import open_durable

durable = open_durable({target!r})
durable.append("r", [(9001, 1), (9002, 2)])
durable.append("s", [(5, 5)])
durable.delete("r", (0, 0))
print("ACKED", flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


@needs_numpy
class TestKillMinusNine:
    def test_sigkilled_writer_loses_no_acknowledged_write(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        script = _CHILD_SCRIPT.format(src=src, target=target)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120,
        )
        assert "ACKED" in proc.stdout, proc.stderr
        assert proc.returncode == -signal.SIGKILL
        cold = make_db()
        cold["r"].add_rows([(9001, 1), (9002, 2)])
        cold["s"].add_rows([(5, 5)])
        cold["r"].remove((0, 0))
        recovered = open_database(target)
        assert rows_of(recovered) == rows_of(cold)
        got = [(a.values, a.score) for a in QueryEngine(recovered).execute(QUERY, k=25)]
        want = [(a.values, a.score) for a in QueryEngine(cold).execute(QUERY, k=25)]
        assert got == want


# --------------------------------------------------------------------- #
# crash fuzzer (smoke; CI runs the full sweep via `repro fuzz-crashes`)
# --------------------------------------------------------------------- #
@needs_numpy
class TestCrashFuzz:
    def test_seeded_sweep_is_clean(self):
        from repro.testing import fuzz_crashes

        assert fuzz_crashes(seed=0, rounds=12) is None

    def test_detects_an_injected_divergence(self, monkeypatch):
        from repro.testing import crashfuzz

        real_apply = crashfuzz._apply

        def lossy_apply(db, op):
            if op[0] == "append":
                db[op[1]].add_rows(list(op[2])[:-1])  # drop the last row
            else:
                real_apply(db, op)

        monkeypatch.setattr(crashfuzz, "_apply", lossy_apply)
        failure = crashfuzz.run_case(crashfuzz.generate_case(3))
        assert failure is not None
        assert "fuzz-crashes --seed 3" in str(failure)


# --------------------------------------------------------------------- #
# service resilience over live TCP
# --------------------------------------------------------------------- #
def reference_pages(db: Database, pages: int, page: int, k: int):
    engine = QueryEngine(db)
    answers = [(a.values, a.score) for a in engine.execute(QUERY, k=k)]
    return [answers[i * page : (i + 1) * page] for i in range(pages)]


@needs_numpy
class TestRestartSurvivingCursor:
    def test_restarted_server_resumes_exact_next_page(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        ref = reference_pages(make_db(), 6, 8, 48)

        durable = open_durable(target)
        handle = ServerThread(QueryEngine(durable.db), durable=durable).start()
        client = ServiceClient(handle.host, handle.port)
        cursor = client.query(QUERY, k=48)
        first = [cursor.fetch(8) for _ in range(3)]
        assert first == ref[:3]
        cursor_id, position = cursor.cursor_id, cursor.position
        client.close()
        handle.stop()
        durable.close()

        durable2 = open_durable(target)
        handle2 = ServerThread(QueryEngine(durable2.db), durable=durable2).start()
        try:
            client2 = ServiceClient(handle2.host, handle2.port)
            assert client2.stats()["cursors"]["restored"] == 1
            rest = []
            for _ in range(3):
                payload = client2.request(
                    "fetch", cursor=cursor_id, n=8, at=position
                )
                rest.append(decode_answers(payload["answers"]))
                position = payload["position"]
            assert rest == ref[3:]
            client2.close()
        finally:
            handle2.stop()
            durable2.close()

    def test_restores_cursor_journaled_with_sharding_fields(self, tmp_path):
        # Cursor specs journaled when cursors could shard carry
        # ``shards``/``backend``; a restarted server must still resume
        # them to the exact next page of the serial order.
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        ref = reference_pages(make_db(), 4, 8, 48)

        durable = open_durable(target)
        durable.record_cursor(
            {
                "cursor": "legacy-sharded",
                "tenant": "default",
                "query": QUERY,
                "k": 48,
                "rank": None,
                "desc": None,
                "shards": 2,
                "backend": "threads",
                "position": 0,
            }
        )
        durable.record_cursor_position("legacy-sharded", 24)
        durable.close()

        durable2 = open_durable(target)
        handle = ServerThread(QueryEngine(durable2.db), durable=durable2).start()
        try:
            client = ServiceClient(handle.host, handle.port)
            assert client.stats()["cursors"]["restored"] == 1
            payload = client.request("fetch", cursor="legacy-sharded", n=8, at=24)
            assert decode_answers(payload["answers"]) == ref[3]
            assert payload["position"] == 32
            client.close()
        finally:
            handle.stop()
            durable2.close()

    def test_stale_recovered_cursor_refuses(self, tmp_path):
        target = str(tmp_path / "snap")
        save_snapshot(make_db(), target)
        durable = open_durable(target)
        handle = ServerThread(QueryEngine(durable.db), durable=durable).start()
        client = ServiceClient(handle.host, handle.port)
        cursor = client.query(QUERY, k=48)
        cursor.fetch(8)
        cursor_id = cursor.cursor_id
        client.close()
        handle.stop()
        # the data moves after the cursor was journaled
        durable.append("r", [(7777, 1)])
        durable.close()

        durable2 = open_durable(target)
        handle2 = ServerThread(QueryEngine(durable2.db), durable=durable2).start()
        try:
            client2 = ServiceClient(handle2.host, handle2.port)
            with pytest.raises(ServiceError) as info:
                client2.request("fetch", cursor=cursor_id, n=8, at=8)
            assert info.value.code == "stale-cursor"
            client2.close()
        finally:
            handle2.stop()
            durable2.close()


class TestDeadlines:
    def test_deadline_exceeded_pushes_page_back(self):
        db = make_db()
        ref = reference_pages(db, 2, 8, 30)
        with ServerThread(QueryEngine(db)) as handle:
            client = ServiceClient(handle.host, handle.port)
            cursor = client.query(QUERY, k=30)
            with inject(FaultPlan().delay("server.work", at=1, seconds=0.6)):
                with pytest.raises(DeadlineExceededError):
                    cursor.fetch(8, deadline=0.05)
            deadline_stat = client.stats()["service"]["deadline_exceeded"]
            assert deadline_stat == 1
            time.sleep(0.9)  # abandoned work finishes, page pushed back
            assert cursor.fetch(8) == ref[0]
            assert cursor.fetch(8) == ref[1]
            client.close()

    def test_bad_deadline_rejected(self):
        with ServerThread(QueryEngine(make_db())) as handle:
            client = ServiceClient(handle.host, handle.port)
            with pytest.raises(ServiceError):
                client.request("ping", deadline=-1)
            client.close()


class TestReconnect:
    def test_dropped_connection_mid_fetch_pages_identically(self):
        db = make_db()
        ref = reference_pages(db, 6, 8, 48)
        with ServerThread(QueryEngine(db)) as handle:
            client = ServiceClient(
                handle.host,
                handle.port,
                backoff=0.01,
                rng=random.Random(5),
            )
            cursor = client.query(QUERY, k=48)
            pages = [cursor.fetch(8)]
            # the server dies mid-response: a half-written line, then EOF
            with inject(FaultPlan().cut("server.send", at=1, byte=5)):
                pages.append(cursor.fetch(8))
            while not cursor.done:
                pages.append(cursor.fetch(8))
            assert [p for p in pages if p] == [p for p in ref if p]
            assert client.reconnects >= 1
            client.close()

    def test_retry_budget_exhausts_to_service_error(self):
        handle = ServerThread(QueryEngine(make_db())).start()
        client = ServiceClient(
            handle.host, handle.port, retries=1, backoff=0.01,
            rng=random.Random(5),
        )
        client.ping()
        handle.stop()
        with pytest.raises(ServiceError) as info:
            client.ping()
        assert info.value.code == "disconnected"
        client.close()

    def test_non_idempotent_ops_fail_fast(self):
        handle = ServerThread(QueryEngine(make_db())).start()
        client = ServiceClient(handle.host, handle.port, backoff=0.01)
        client.ping()
        handle.stop()
        with pytest.raises((ServiceError, OSError)):
            client.execute(QUERY, k=5)
        client.close()


class TestBadOffset:
    def test_unservable_offset_refuses(self):
        with ServerThread(QueryEngine(make_db())) as handle:
            client = ServiceClient(handle.host, handle.port)
            cursor = client.query(QUERY, k=48)
            cursor.fetch(8)
            cursor.fetch(8)
            with pytest.raises(BadOffsetError):
                client.request("fetch", cursor=cursor.cursor_id, n=8, at=3)
            # the cursor itself is still fine at its real position
            assert cursor.fetch(8)
            client.close()

    def test_repeated_offset_reserves_buffered_page(self):
        db = make_db()
        ref = reference_pages(db, 2, 8, 48)
        with ServerThread(QueryEngine(db)) as handle:
            client = ServiceClient(handle.host, handle.port)
            cursor = client.query(QUERY, k=48)
            assert cursor.fetch(8) == ref[0]
            # a retry of the same page (lost response): served verbatim
            payload = client.request(
                "fetch", cursor=cursor.cursor_id, n=8, at=0
            )
            assert decode_answers(payload["answers"]) == ref[0]
            payload = client.request(
                "fetch", cursor=cursor.cursor_id, n=8, at=8
            )
            assert decode_answers(payload["answers"]) == ref[1]
            client.close()
