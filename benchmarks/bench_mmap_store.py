"""Memory-mapped snapshot store vs cold CSV load + encode.

The persistence layer's bet: a ranked-query session's startup cost is
dominated by work a previous session already did — parsing CSV, building
the value dictionary, encoding every relation into code columns.  An
on-disk snapshot (:mod:`repro.storage.persist`) stores exactly those
artifacts as raw little-endian arrays plus a JSON manifest, and
reopening memory-maps them: no parse, no dictionary build, no encode
pass — the first query runs against lazily paged files.

The measurement, on the Memetracker-like URL-keyed workload, is the
**cold open**: time from nothing to the first ranked answer,
``load_database_dir(csv) + QueryEngine(db, encode=True) + execute``
versus ``QueryEngine(snapshot_dir) + execute``.  Best of 3 each;
answers are verified bit-identical before the gate.

Run:  PYTHONPATH=src python benchmarks/bench_mmap_store.py [--quick]

``--quick`` shrinks the data for CI smoke (gates relaxed); at default
scale (39k edges) the acceptance gate requires the snapshot open to be
at least 5x faster than the cold load-and-encode path.  Measured numbers
are written to ``BENCH_mmap.json`` at the repo root, except under
``--quick``, which leaves the full-scale record alone.

``--persistence-smoke`` is the CI end-to-end check: save a snapshot,
start a **fresh interpreter**, reopen the snapshot there and serve a
ranked query through the TCP service layer, all under a wall-clock
budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.bench import format_table  # noqa: E402
from repro.core.ranking import SumRanking, TableWeight  # noqa: E402
from repro.data import Database  # noqa: E402
from repro.data.loader import load_database_dir, save_database_dir  # noqa: E402
from repro.engine import QueryEngine  # noqa: E402
from repro.workloads.generators import zipf_bipartite  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RECORD_JSON = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_mmap.json")
)

#: Acceptance gate at default scale: snapshot reopen at least this much
#: faster than cold CSV load + dictionary encode, to the first answer.
TARGET_OPEN_SPEEDUP = 5.0
QUICK_OPEN_SPEEDUP = 2.0

TWO_HOP = "Q(a1, a2) :- E(a1, p), E(a2, p)"
#: The session's first query: a small curated-users lookup.  Warm-start
#: latency is what the snapshot store sells — the cold path must build
#: the dictionary and encode *every* relation before answering even
#: this, while the snapshot path only pages in what the query touches.
PROBE = "Q(u) :- U(u, i)"
PROBE_K = 10
CURATED = 200


def make_workload(n_edges: int, seed: int = 7):
    """Memetracker-like: URL-keyed bipartite edges, log-degree weights,
    plus a small curated-users relation (the session's cheap first
    query)."""
    n_users = max(n_edges // 3, 40)
    n_posts = max(n_edges // 5, 25)
    raw = zipf_bipartite(
        n_users, n_posts, n_edges, skew_left=1.0, skew_right=1.0, seed=seed
    )
    edges = [
        (
            f"http://blog.example.org/2009/04/user/{a:07d}/profile",
            f"http://media.example.org/2009/04/post/{p:07d}/index.html",
        )
        for a, p in raw
    ]
    db = Database()
    db.add_relation("E", ("user", "post"), edges)
    curated: dict[str, int] = {}
    for user, _post in edges:
        if user not in curated:
            curated[user] = len(curated)
            if len(curated) >= CURATED:
                break
    db.add_relation("U", ("user", "uid"), sorted(curated.items()))
    degrees: dict[str, int] = {}
    for user, _post in edges:
        degrees[user] = degrees.get(user, 0) + 1
    weights = {u: math.log2(1 + d) for u, d in degrees.items()}
    ranking = SumRanking(TableWeight({}, default_table=weights))
    return db, ranking


def _run_session(make_engine, ranking) -> tuple[float, list, float, list]:
    """(open seconds, probe answers, join seconds, join answers).

    Open seconds = nothing -> first ranked answer of the small probe;
    the join then runs on the same session (its answers are the
    bit-identity witness over the full edge relation).
    """
    started = time.perf_counter()
    engine = make_engine()
    probe = engine.execute(PROBE, ranking, k=PROBE_K)
    open_seconds = time.perf_counter() - started
    started = time.perf_counter()
    join = engine.execute(TWO_HOP, ranking, k=PROBE_K)
    join_seconds = time.perf_counter() - started
    return (
        open_seconds,
        [(a.values, a.score) for a in probe],
        join_seconds,
        [(a.values, a.score) for a in join],
    )


def time_cold_csv(csv_dir: str, ranking):
    """The pre-snapshot way: parse CSV, build dictionary, encode, run."""
    return _run_session(
        lambda: QueryEngine(load_database_dir(csv_dir), encode=True), ranking
    )


def time_snapshot_open(snap_dir: str, ranking):
    """Straight off the snapshot files, lazily paged."""
    return _run_session(lambda: QueryEngine(snap_dir), ranking)


def best_of(fn, repeats: int) -> tuple[float, list, float, list]:
    best_open = best_join = float("inf")
    probe_answers = join_answers = None
    for _ in range(repeats):
        open_s, probe, join_s, join = fn()
        if probe_answers is None:
            probe_answers, join_answers = probe, join
        elif (probe, join) != (probe_answers, join_answers):
            raise SystemExit("FAIL: answers changed between repeats")
        best_open = min(best_open, open_s)
        best_join = min(best_join, join_s)
    return best_open, probe_answers, best_join, join_answers


# --------------------------------------------------------------------- #
# persistence smoke: fresh interpreter reopens and serves under budget
# --------------------------------------------------------------------- #
_SMOKE_CHILD = r"""
import sys, time
started = time.perf_counter()
from repro.engine import QueryEngine
from repro.service import ServerThread, connect

engine = QueryEngine(sys.argv[1])
with ServerThread(engine) as server:
    with connect(server.host, server.port) as client:
        payload = client.request("execute", query=sys.argv[2], k=10, rank="lex")
answers = len(payload["answers"])
print(f"{time.perf_counter() - started:.3f} {answers}")
"""


def persistence_smoke(budget: float) -> int:
    """Save, then reopen + serve from a fresh process under ``budget`` s."""
    db, _ranking = make_workload(4000)
    tmp = tempfile.mkdtemp(prefix="repro-smoke-")
    try:
        snap = os.path.join(tmp, "snap")
        db.save(snap)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SMOKE_CHILD, snap, TWO_HOP],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(budget * 4, 60),
        )
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(proc.stdout, file=sys.stderr)
            print(proc.stderr, file=sys.stderr)
            print("FAIL: smoke child exited non-zero", file=sys.stderr)
            return 1
        child_secs, answers = proc.stdout.split()
        if int(answers) == 0:
            print("FAIL: warm query served no answers", file=sys.stderr)
            return 1
        print(
            f"persistence smoke: fresh process reopened + served {answers} "
            f"answers in {child_secs}s (wall {wall:.3f}s, budget {budget}s)"
        )
        if wall > budget:
            print(
                f"FAIL: {wall:.3f}s exceeds the {budget}s budget",
                file=sys.stderr,
            )
            return 1
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: smaller data, relaxed open-speedup gate",
    )
    parser.add_argument("--edges", type=int, default=None, help="edge count override")
    parser.add_argument(
        "--repeats", type=int, default=3, help="cold-open repeats (best-of)"
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help=f"fail below this open speedup (default {TARGET_OPEN_SPEEDUP}, "
        f"{QUICK_OPEN_SPEEDUP} under --quick)",
    )
    parser.add_argument(
        "--persistence-smoke", action="store_true",
        help="CI end-to-end: save, reopen in a fresh process, serve a warm "
        "query under --budget seconds",
    )
    parser.add_argument(
        "--budget", type=float, default=20.0,
        help="wall-clock budget for --persistence-smoke (seconds)",
    )
    args = parser.parse_args(argv)

    if args.persistence_smoke:
        return persistence_smoke(args.budget)

    n_edges = args.edges if args.edges is not None else (6000 if args.quick else 39000)
    db, ranking = make_workload(n_edges)

    tmp = tempfile.mkdtemp(prefix="repro-mmap-bench-")
    try:
        csv_dir = os.path.join(tmp, "csv")
        snap_dir = os.path.join(tmp, "snap")
        save_database_dir(db, csv_dir)
        save_started = time.perf_counter()
        db.save(snap_dir)
        save_seconds = time.perf_counter() - save_started
        snap_bytes = sum(
            os.path.getsize(os.path.join(snap_dir, f)) for f in os.listdir(snap_dir)
        )

        cold_open, cold_probe, cold_join_s, cold_join = best_of(
            lambda: time_cold_csv(csv_dir, ranking), args.repeats
        )
        snap_open, snap_probe, snap_join_s, snap_join = best_of(
            lambda: time_snapshot_open(snap_dir, ranking), args.repeats
        )
        if cold_probe != snap_probe or cold_join != snap_join:
            raise SystemExit(
                "FAIL: snapshot-served answers diverged from cold-load answers"
            )
        speedup = cold_open / snap_open if snap_open else float("inf")
        join_ratio = cold_join_s / snap_join_s if snap_join_s else float("inf")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rows = [
        ("cold: CSV parse + encode all + probe", f"{cold_open:.3f}", "1.00x"),
        ("snapshot: map + probe", f"{snap_open:.3f}", f"{speedup:.2f}x"),
        (f"warm two-hop join k={PROBE_K} (cold)", f"{cold_join_s:.3f}", "1.00x"),
        (f"warm two-hop join k={PROBE_K} (snap)", f"{snap_join_s:.3f}", f"{join_ratio:.2f}x"),
    ]
    table = format_table(
        f"Snapshot open vs cold load [URL-keyed zipf graph, |D|={db.size}, "
        f"best of {args.repeats}]",
        ("path to first answer", "seconds", "speedup"),
        rows,
        note="probe + join answers bit-identical across modes; "
        f"save cost {save_seconds:.3f}s once, {snap_bytes} snapshot bytes",
    )
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "mmap_store.txt"), "w") as fh:
        fh.write(table + "\n")

    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = QUICK_OPEN_SPEEDUP if args.quick else TARGET_OPEN_SPEEDUP
    record = {
        "workload": "memetracker-like URL-keyed zipf graph + curated users",
        "edges": n_edges,
        "|D|": db.size,
        "probe_query": PROBE,
        "join_query": TWO_HOP,
        "k": PROBE_K,
        "repeats_best_of": args.repeats,
        "save_seconds": round(save_seconds, 6),
        "snapshot_bytes": snap_bytes,
        "cold_load_encode_seconds": round(cold_open, 6),
        "snapshot_open_seconds": round(snap_open, 6),
        "open_speedup": round(speedup, 4),
        "join_seconds": {
            "cold": round(cold_join_s, 6),
            "snapshot": round(snap_join_s, 6),
        },
        "identical_output": True,  # enforced above
        "gate": {"target_open_speedup": min_speedup, "enforced": True},
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

    if speedup < min_speedup:
        print(
            f"FAIL: snapshot open speedup {speedup:.2f}x < required "
            f"{min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    print(f"OK: {speedup:.2f}x open (>= {min_speedup:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
