"""Durability overhead and crash-recovery speed of the delta journal.

Two questions, one workload (the memetracker-like follows+annotations
graph of ``bench_incremental``, anchored ranked SUM top-k):

1. **What does durability cost?**  A 0.1% append burst lands either
   through the non-durable delta path (PR 7: ``add_rows`` + the warm
   delta-maintained query) or through the write-ahead journal
   (``DurableDatabase.append``: frame, CRC, write, fsync — *then* the
   same warm query).  Both paths serve the next top-k; the journaled
   one must cost at most 2x the non-durable one, median over rounds.
   Answers are verified identical between the two paths every round.

2. **What does recovery buy?**  After the bursts, the directory holds
   a snapshot plus a journal tail — the crash image a kill -9 leaves.
   Crash-to-first-answer (``open_database`` replays the journal over
   the mapped snapshot, then the first ranked answer) must beat a full
   cold rebuild by at least 5x.  The rebuild is what losing the crash
   image would force, measured the same way ``bench_mmap_store``
   measures its cold path: re-ingest the canonical CSV source
   (``load_database_dir``), re-encode, first answer.  Recovered
   answers are verified bit-identical to the rebuild's.

Run:  PYTHONPATH=src python benchmarks/bench_recovery.py [--quick]

``--quick`` shrinks the data for CI (identity checks, no gates).
Measured numbers are written to ``BENCH_recovery.json`` at the repo
root, except under ``--quick``, which leaves the full-scale record alone.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_incremental import make_workload  # noqa: E402

from repro.bench import format_table  # noqa: E402
from repro.data import Database  # noqa: E402
from repro.data.loader import load_database_dir, save_database_dir  # noqa: E402
from repro.engine import QueryEngine  # noqa: E402
from repro.storage import open_database, save_snapshot  # noqa: E402
from repro.storage.journal import open_durable  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RECORD_JSON = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_recovery.json")
)

#: Acceptance gates at default scale (ISSUE 9).
MAX_OVERHEAD_RATIO = 2.0
MIN_RECOVERY_SPEEDUP = 5.0
BURST_FRACTION = 0.001
BURST_ROUNDS = 5
K = 10


def answers(engine: QueryEngine, query: str, ranking) -> list[tuple]:
    return [(a.values, a.score) for a in engine.execute(query, ranking, k=K)]


def rebuild_database(rows: dict[str, tuple[tuple, list]]) -> Database:
    db = Database()
    for name, (attrs, rel_rows) in rows.items():
        db.add_relation(name, attrs, rel_rows)
    return db


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: tiny data, identity checks, no gates",
    )
    parser.add_argument(
        "--scale", type=float, default=None, help="workload scale override"
    )
    args = parser.parse_args(argv)
    scale = args.scale if args.scale is not None else (0.05 if args.quick else 1.0)

    db, ranking, query = make_workload(scale)
    rng = random.Random(2201)
    burst_rows = max(int(db.size * BURST_FRACTION), 1)
    annots = list(db["F"])
    bursts = [
        [rng.choice(annots) for _ in range(burst_rows)]
        for _ in range(BURST_ROUNDS + 1)  # +1 warm-up
    ]

    root = tempfile.mkdtemp(prefix="bench-recovery-")
    try:
        snap = os.path.join(root, "snap")
        save_snapshot(db, snap)

        # ---- phase 1: durability overhead of a journaled burst ---- #
        durable = open_durable(snap)
        durable_engine = QueryEngine(durable.db, encode=True)
        plain_engine = QueryEngine(
            rebuild_database(
                {rel.name: (rel.attrs, list(rel)) for rel in db}
            ),
            encode=True,
        )
        # Warm both paths outside the timed region: first query builds
        # the reduced instance, the warm-up burst pays the mapped
        # store's one-time copy-on-write detach.
        answers(durable_engine, query, ranking)
        answers(plain_engine, query, ranking)
        durable.append("F", bursts[0])
        plain_engine.db["F"].add_rows(bursts[0])
        answers(durable_engine, query, ranking)
        answers(plain_engine, query, ranking)

        durable_times: list[float] = []
        plain_times: list[float] = []
        for burst in bursts[1:]:
            started = time.perf_counter()
            durable.append("F", burst)
            got = answers(durable_engine, query, ranking)
            durable_times.append(time.perf_counter() - started)

            started = time.perf_counter()
            plain_engine.db["F"].add_rows(burst)
            want = answers(plain_engine, query, ranking)
            plain_times.append(time.perf_counter() - started)
            if got != want:
                raise SystemExit(
                    "FAIL: journaled path diverged from the non-durable path"
                )

        durable_median = statistics.median(durable_times)
        plain_median = statistics.median(plain_times)
        overhead = (
            durable_median / plain_median if plain_median else float("inf")
        )
        journal_bytes = durable.journal_bytes
        expected = answers(durable_engine, query, ranking)
        # The canonical source the rebuild would re-ingest (written
        # outside both timed regions).
        csv_dir = os.path.join(root, "csv")
        save_database_dir(durable.db, csv_dir)
        durable.close()
        del durable_engine, durable

        # ---- phase 2: crash-to-first-answer vs full cold rebuild ---- #
        started = time.perf_counter()
        recovered_engine = QueryEngine(open_database(snap), encode=True)
        recovered = answers(recovered_engine, query, ranking)
        recovery_seconds = time.perf_counter() - started

        started = time.perf_counter()
        rebuilt_engine = QueryEngine(load_database_dir(csv_dir), encode=True)
        rebuilt = answers(rebuilt_engine, query, ranking)
        rebuild_seconds = time.perf_counter() - started

        if recovered != expected or recovered != rebuilt:
            raise SystemExit(
                "FAIL: recovered answers diverged from the cold rebuild"
            )
        replayed = recovered_engine.stats.journal_records_replayed
        speedup = (
            rebuild_seconds / recovery_seconds
            if recovery_seconds
            else float("inf")
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    table = format_table(
        f"Crash-safe durability [follows+annotations, |D|={db.size}, "
        f"{BURST_ROUNDS} bursts x {burst_rows} rows ({BURST_FRACTION:.1%})]",
        ("phase", "seconds", "ratio"),
        [
            (
                "burst + warm query, non-durable (median)",
                f"{plain_median:.4f}",
                "1.00",
            ),
            (
                "burst + warm query, journaled (median)",
                f"{durable_median:.4f}",
                f"{overhead:.4f}",
            ),
            (
                "crash recovery to first answer",
                f"{recovery_seconds:.4f}",
                f"{speedup:.2f}x vs rebuild",
            ),
            ("full cold rebuild to first answer", f"{rebuild_seconds:.4f}", "1.00"),
        ],
        note="answers verified identical across both write paths and both "
        f"restart paths; {replayed} journal records "
        f"({journal_bytes} bytes) replayed on recovery",
    )
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "recovery.txt"), "w") as fh:
        fh.write(table + "\n")

    enforced = not args.quick
    record = {
        "workload": "memetracker-like follows+annotations, anchored SUM top-k",
        "scale": scale,
        "|D|": db.size,
        "k": K,
        "burst_rows": burst_rows,
        "burst_fraction": BURST_FRACTION,
        "burst_rounds": BURST_ROUNDS,
        "nondurable_burst_seconds": [round(s, 6) for s in plain_times],
        "journaled_burst_seconds": [round(s, 6) for s in durable_times],
        "nondurable_burst_median_seconds": round(plain_median, 6),
        "journaled_burst_median_seconds": round(durable_median, 6),
        "durability_overhead_ratio": round(overhead, 6),
        "journal_bytes_at_crash": journal_bytes,
        "journal_records_replayed": replayed,
        "recovery_to_first_answer_seconds": round(recovery_seconds, 6),
        "rebuild_to_first_answer_seconds": round(rebuild_seconds, 6),
        "recovery_speedup": round(speedup, 6),
        "identical_output": True,  # enforced above
        "gate": {
            "max_overhead_ratio": MAX_OVERHEAD_RATIO,
            "min_recovery_speedup": MIN_RECOVERY_SPEEDUP,
            "enforced": enforced,
        },
        "quick": bool(args.quick),
    }
    if args.quick:
        # Smoke scale: the checked-in record stays the full-scale one.
        print(f"--quick: record not written to {RECORD_JSON}")
    else:
        with open(RECORD_JSON, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"record written to {RECORD_JSON}")

    if enforced:
        failed = False
        if overhead > MAX_OVERHEAD_RATIO:
            print(
                f"FAIL: journaled burst costs {overhead:.4f}x the "
                f"non-durable path (allowed {MAX_OVERHEAD_RATIO}x)",
                file=sys.stderr,
            )
            failed = True
        if speedup < MIN_RECOVERY_SPEEDUP:
            print(
                f"FAIL: recovery speedup {speedup:.2f}x < required "
                f"{MIN_RECOVERY_SPEEDUP}x",
                file=sys.stderr,
            )
            failed = True
        if failed:
            return 1
        print(
            f"OK: {overhead:.4f}x durability overhead "
            f"(<= {MAX_OVERHEAD_RATIO}x), {speedup:.2f}x recovery speedup "
            f"(>= {MIN_RECOVERY_SPEEDUP}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
