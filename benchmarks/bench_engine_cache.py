"""Engine session cache: cold per-query construction vs. warm re-execution.

The repeated-query scenario the :mod:`repro.engine` layer exists for: a
session issues the same small set of queries over and over (think a
served dashboard or an API endpoint).  The *cold* path pays the full
per-query pipeline every time — parse, classify, build the join tree,
bind the atoms, run the full reducer, build the queues, enumerate.  The
*warm* path runs the same workload through one
:class:`~repro.engine.QueryEngine`: parse/plan/reduction are cached,
and from a plan's second execution on its ranked state is kept too, so
an acyclic execution restarts at the root of the queues an earlier one
built (a lexicographic one reuses its weight tables and row indexes)
and pays for its root queue plus whatever chain links no earlier
execution reached.

Results are verified identical between the two paths before any timing
is reported, repeated streams of one plan are checked against cold
answers under SUM and LEX rankings (:func:`check_restarts`), and fresh
ranking objects of one query — a new plan each — must share the data
state the first one built, with answers identical to cold
(:func:`check_fresh_rankings`).

Run:  PYTHONPATH=src python benchmarks/bench_engine_cache.py [--quick]

``--quick`` shrinks the data and repetition counts for CI smoke runs;
``--min-speedup X`` exits non-zero unless the overall warm speedup
reaches ``X`` (used by the acceptance check, not by CI timing jobs).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.bench import format_table  # noqa: E402
from repro.core.planner import create_enumerator, enumerate_ranked  # noqa: E402
from repro.core.ranking import LexRanking, SumRanking, TableWeight  # noqa: E402
from repro.data import Database  # noqa: E402
from repro.engine import QueryEngine  # noqa: E402
from repro.query import parse_query  # noqa: E402


def build_database(scale: int) -> Database:
    """A chain-join instance where the full reducer prunes heavily.

    ``R(x, y) ⋈ S(y, z) ⋈ T(z, w)`` with ``S`` selective: only a small
    band of ``y``/``z`` values joins through, so the reduced instance is
    tiny compared to ``|D|`` — the regime where per-query reduction cost
    dominates and a session cache pays off most.
    """
    n = 2000 * scale
    groups = 100 * scale
    band = 10
    db = Database()
    db.add_relation("R", ("x", "y"), [(i, i % groups) for i in range(n)])
    db.add_relation("S", ("y", "z"), [(y, y + 1) for y in range(band)])
    db.add_relation("T", ("z", "w"), [(j % groups, j) for j in range(n)])
    return db


#: The repeated workload: label -> (query text, k).
WORKLOAD = {
    "chain-topk": ("Q(x, w) :- R(x, y), S(y, z), T(z, w)", 10),
    "chain-proj": ("Q(x) :- R(x, y), S(y, z)", 10),
    "star-topk": ("Q(y1, y2) :- S(y1, z), S(y2, z)", 5),
}


def run_cold(db: Database, reps: int) -> tuple[dict[str, float], dict[str, list]]:
    """Per-query construction: parse + plan + build + enumerate, each time."""
    seconds: dict[str, float] = {}
    results: dict[str, list] = {}
    for label, (text, k) in WORKLOAD.items():
        started = time.perf_counter()
        for _ in range(reps):
            enum = create_enumerator(parse_query(text), db)
            answers = enum.top_k(k)
        seconds[label] = time.perf_counter() - started
        results[label] = [(a.values, a.score) for a in answers]
    return seconds, results


def run_warm(db: Database, reps: int) -> tuple[dict[str, float], dict[str, list], QueryEngine]:
    """One shared session engine across the whole workload."""
    engine = QueryEngine(db)
    seconds: dict[str, float] = {}
    results: dict[str, list] = {}
    for label, (text, k) in WORKLOAD.items():
        engine.execute(text, k=k)  # prime: first execution plans + warms
        started = time.perf_counter()
        for _ in range(reps):
            answers = engine.execute(text, k=k)
        seconds[label] = time.perf_counter() - started
        results[label] = [(a.values, a.score) for a in answers]
    return seconds, results, engine


def check_restarts(db: Database, reps: int = 3) -> list[str]:
    """Repeated streams of each workload query, under SUM and LEX, against
    a cold ``enumerate_ranked``; returns the mismatches.

    Every stream after a plan's second restarts from retained state, so
    each ranking must count ``reps - 2`` restarts per query.
    """
    failures = []
    for name, ranking in (("sum", SumRanking()), ("lex", LexRanking())):
        engine = QueryEngine(db)
        for label, (text, k) in WORKLOAD.items():
            cold = [
                (a.values, a.score)
                for a in enumerate_ranked(parse_query(text), db, ranking, k=4 * k)
            ]
            for rep in range(reps):
                stream = engine.stream(text, ranking)
                got = []
                for answer in stream:
                    got.append((answer.values, answer.score))
                    if len(got) >= 4 * k:
                        break
                if got != cold:
                    failures.append(f"{label}/{name} stream {rep + 1} differs from cold")
        expected = (reps - 2) * len(WORKLOAD)
        if engine.stats.ranked_restarts != expected:
            failures.append(
                f"{name}: {engine.stats.ranked_restarts} restarts, expected {expected}"
            )
    return failures


def check_fresh_rankings(db: Database, reps: int = 3) -> list[str]:
    """Each workload query under ``reps`` fresh weight tables (a new
    ranking object, so a new plan, each time), SUM and LEX, against a cold
    ``enumerate_ranked``; returns the mismatches.

    The first execution of a query builds its data state and every later
    one, whatever its ranking, reuses it: one build per query.
    """
    failures = []
    engine = QueryEngine(db)
    values = {v for rel in db for row in rel for v in row}
    rankings = {"sum": SumRanking, "lex": lambda weight: LexRanking(weight=weight)}
    for label, (text, k) in WORKLOAD.items():
        query = parse_query(text)
        for rep in range(reps):
            for name, make in rankings.items():
                table = {v: (v * (rep + 7)) % 101 for v in values}
                ranking = make(TableWeight({var: table for var in query.head}))
                cold = enumerate_ranked(query, db, ranking, k=k)
                got = engine.execute(text, ranking, k=k)
                if [(a.values, a.score) for a in got] != [(a.values, a.score) for a in cold]:
                    failures.append(f"{label}/{name} fresh ranking {rep + 1} differs from cold")
    if engine.stats.data_builds != len(WORKLOAD):
        failures.append(f"{engine.stats.data_builds} data builds for {len(WORKLOAD)} queries")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI smoke run")
    parser.add_argument("--scale", type=int, default=None, help="data scale factor")
    parser.add_argument("--reps", type=int, default=None, help="executions per query")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero unless the overall warm speedup reaches this factor",
    )
    args = parser.parse_args(argv)
    scale = args.scale or (1 if args.quick else 10)
    reps = args.reps or (3 if args.quick else 20)

    db = build_database(scale)
    cold_s, cold_r = run_cold(db, reps)
    warm_s, warm_r, engine = run_warm(db, reps)

    for label in WORKLOAD:
        if cold_r[label] != warm_r[label]:
            print(f"MISMATCH on {label}: warm results differ from cold", file=sys.stderr)
            return 1
    for failure in check_restarts(db):
        print(f"MISMATCH on restart: {failure}", file=sys.stderr)
        return 1
    for failure in check_fresh_rankings(db):
        print(f"MISMATCH on fresh ranking: {failure}", file=sys.stderr)
        return 1

    rows = []
    for label in WORKLOAD:
        per_cold = cold_s[label] / reps
        per_warm = warm_s[label] / reps
        rows.append(
            [label, per_cold * 1e3, per_warm * 1e3, per_cold / max(per_warm, 1e-12)]
        )
    total_cold = sum(cold_s.values())
    total_warm = sum(warm_s.values())
    speedup = total_cold / max(total_warm, 1e-12)
    rows.append(["TOTAL", total_cold / reps * 1e3, total_warm / reps * 1e3, speedup])

    print(
        format_table(
            f"Engine session cache — |D|={db.size}, {reps} executions/query "
            "(results verified identical)",
            ["query", "cold ms/exec", "warm ms/exec", "speedup"],
            rows,
            note="cold = parse+plan+reduce+build per execution; "
            "warm = shared QueryEngine session",
        )
    )
    print(f"\nengine stats: {engine.stats.snapshot()}")

    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"FAIL: overall warm speedup {speedup:.2f}x < required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
