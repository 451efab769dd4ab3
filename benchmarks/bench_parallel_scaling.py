"""Parallel sharded enumeration: the scaling curve over shard counts.

The scenario the :mod:`repro.parallel` subsystem exists for: full ranked
enumeration of the paper's *large-scale* workload (the Memetracker-like
dataset of Figure 8, whose heavy answer duplication makes enumeration
the dominant cost), executed serially vs. hash-partitioned across
worker processes with an order-preserving merge.

Every sharded run is verified **identical to the serial output** —
same answers, same scores, same order, ties included — before any
timing is reported; the speedup column is meaningless without that
guarantee.

Cost anatomy (why the curve scales): per-shard enumeration — the
``O(|output| · delay)`` bulk — parallelises across cores, while the
parent pays the serial residue: one ``O(|D|)`` partition pass plus the
``O(|output| · log shards)`` merge.  On this workload the residue is
roughly a quarter of the serial runtime, so ~3x at 4 shards is the
expected plateau **given 4 physical cores**.  Wall-clock speedup is
core-bound: on a single-CPU machine the sharded run degenerates to the
serial work plus overhead, which is why the speedup gate below is
conditioned on ``os.cpu_count()``.

Run:  PYTHONPATH=src python benchmarks/bench_parallel_scaling.py [--quick]

``--quick`` shrinks the dataset and defaults to the in-process
``serial`` backend (CI smoke; add ``--backend processes`` to check the
worker-process path too); ``--min-speedup X`` exits non-zero unless the
measured speedup at the highest shard count reaches ``X``.  Without it
the target 2.5x at 4 shards is enforced automatically when the top shard
count is 4 and the machine has at least 4 cores; any other sweep only
records its curve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.bench import format_table  # noqa: E402
from repro.core.planner import enumerate_ranked  # noqa: E402
from repro.data.partition import partition_query  # noqa: E402
from repro.parallel import execute_sharded  # noqa: E402
from repro.workloads import make_memetracker_like, two_hop  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: Machine-readable curve, written by every full-scale run (ROADMAP
#: bench item): the measured speedups land here even on boxes where the
#: wall-clock gate cannot be enforced, so any multi-core run leaves a
#: record behind.  ``--quick`` smoke runs leave it alone.
CURVE_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_parallel.json")

#: The acceptance target: speedup at ``TARGET_SHARDS`` shards, given at
#: least that many cores.
TARGET_SPEEDUP = 2.5
TARGET_SHARDS = 4


def run_curve(
    scale: float, shard_counts: list[int], backend: str, mode: str = "pickle"
) -> tuple[str, dict, dict]:
    workload = make_memetracker_like(scale=scale, seed=2)
    spec = two_hop()
    ranking = workload.ranking(spec, kind="sum")

    db = workload.db
    snap_tmp = None
    if mode == "snapshot":
        # Process workers map the snapshot files instead of unpickling
        # shard rows (repro.storage.persist); the curve then measures
        # the by-reference shipping path end to end.
        import tempfile

        import repro

        snap_tmp = tempfile.mkdtemp(prefix="repro-parallel-snap-")
        db.save(os.path.join(snap_tmp, "snap"))
        db = repro.open_database(os.path.join(snap_tmp, "snap"))

    started = time.perf_counter()
    serial = enumerate_ranked(spec.query, db, ranking)
    serial_seconds = time.perf_counter() - started
    serial_pairs = [(a.values, a.score) for a in serial]

    partition = partition_query(spec.query, db, max(shard_counts))
    rows = [
        (
            "serial",
            f"{serial_seconds:.3f}",
            "1.00x",
            str(len(serial)),
            "(baseline)",
        )
    ]
    speedups: dict[int, float] = {}
    shard_seconds: dict[int, float] = {}
    for shards in shard_counts:
        started = time.perf_counter()
        answers = execute_sharded(
            spec.query,
            db,
            ranking,
            shards=shards,
            backend=backend,
        )
        seconds = time.perf_counter() - started
        identical = [(a.values, a.score) for a in answers] == serial_pairs
        if not identical:
            raise SystemExit(
                f"FAIL: sharded output (shards={shards}, backend={backend}) "
                "diverged from the serial ranked order"
            )
        speedups[shards] = serial_seconds / seconds if seconds else float("inf")
        shard_seconds[shards] = seconds
        rows.append(
            (
                f"shards={shards}",
                f"{seconds:.3f}",
                f"{speedups[shards]:.2f}x",
                str(len(answers)),
                "identical",
            )
        )

    if snap_tmp is not None:
        import shutil

        shutil.rmtree(snap_tmp, ignore_errors=True)

    table = format_table(
        f"Parallel scaling [memetracker-like 2hop, |D|={db.size}, "
        f"|output|={len(serial)}, backend={backend}, mode={mode}, "
        f"cores={os.cpu_count()}]",
        ("run", "seconds", "speedup", "answers", "vs serial"),
        rows,
        note=f"partition: {partition.describe()}",
    )
    record = {
        "workload": "memetracker-like two-hop",
        "scale": scale,
        "|D|": db.size,
        "answers": len(serial),
        "backend": backend,
        "mode": mode,
        "cores": os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 6),
        "curve": [
            {
                "shards": shards,
                "seconds": round(shard_seconds[shards], 6),
                "speedup": round(speedups[shards], 4),
                "identical_to_serial": True,  # enforced above
            }
            for shards in shard_counts
        ],
        "partition": partition.describe(),
    }
    return table, speedups, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke: tiny data, in-process backend")
    parser.add_argument("--scale", type=float, default=None, help="workload scale override")
    parser.add_argument(
        "--backend",
        choices=("serial", "processes"),
        default=None,
        help="worker backend (default: processes; serial under --quick)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="*",
        default=None,
        metavar="N",
        help="shard counts to sweep (default: 1 2 4)",
    )
    parser.add_argument(
        "--mode",
        choices=("pickle", "snapshot"),
        default="pickle",
        help="how process workers receive their shard: pickled rows "
        "(default) or a saved snapshot reopened memory-mapped",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the top shard count reaches this speedup "
        f"(default: {TARGET_SPEEDUP} when the top shard count is "
        f"{TARGET_SHARDS} and cores >= {TARGET_SHARDS}, else skipped)",
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.15 if args.quick else 0.6)
    backend = args.backend or ("serial" if args.quick else "processes")
    shard_counts = args.shards or ([1, 2] if args.quick else [1, 2, 4])

    table, speedups, record = run_curve(scale, shard_counts, backend, args.mode)
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "parallel_scaling.txt"), "w") as fh:
        fh.write(table + "\n")

    top = max(shard_counts)
    cores = os.cpu_count() or 1
    min_speedup = args.min_speedup
    if (
        min_speedup is None
        and not args.quick
        and top == TARGET_SHARDS
        and cores >= top
        and backend == "processes"
    ):
        min_speedup = TARGET_SPEEDUP
    # A full-scale curve is recorded gate or no gate: a 1-core
    # box still documents output identity and the overhead it paid, and
    # any multi-core run closes the ROADMAP item with real numbers.
    record["quick"] = bool(args.quick)
    skipped = None
    if min_speedup is None:
        skipped = (
            "quick mode"
            if args.quick
            else f"the {TARGET_SPEEDUP}x target is for {TARGET_SHARDS} processes "
            f"shards on >= {TARGET_SHARDS} cores; this run: {top} {backend} "
            f"shards, {cores} core(s)"
        )
    record["gate"] = {
        "target_speedup": min_speedup,
        "enforced": min_speedup is not None,
        "reason_skipped": skipped,
    }
    if args.quick:
        # Smoke scale: the checked-in record stays the full-scale one.
        print(f"--quick: curve not written to {os.path.normpath(CURVE_JSON)}")
    else:
        with open(os.path.normpath(CURVE_JSON), "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"curve written to {os.path.normpath(CURVE_JSON)}")
    if min_speedup is not None:
        if speedups[top] < min_speedup:
            print(
                f"FAIL: speedup at {top} shards is {speedups[top]:.2f}x "
                f"< required {min_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(f"OK: {speedups[top]:.2f}x at {top} shards (>= {min_speedup:.2f}x)")
    elif not args.quick:
        print(f"note: speedup gate skipped — {skipped} (output identity was verified)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
