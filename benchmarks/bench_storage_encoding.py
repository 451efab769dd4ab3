"""Dictionary-encoded vs plain-row execution on a join-heavy workload.

The storage layer's bet: on realistic data, join keys are fat — the
paper's Memetracker experiments join on full URLs — and Python pays for
every equality, comparison and sort of them: in the backtracking
enumerator's per-candidate filters, the reducer's semi-joins, domain
sorts and heap tie-breaks.  Dictionary encoding maps every value to a
dense int once per session; all of that key traffic becomes small-int
operations, and decoding happens only at answer emission.

The workload is a Zipf-skewed bipartite graph whose node ids are
URL-shaped strings (Memetracker-like), queried by the paper's ranked
session mix: lexicographic two-hop (both directions), a lexicographic
4-atom chain, and a SUM top-k under log-degree weights — all LIMIT k,
all join-bound.  Before any timing, both modes are verified
answer-identical (values, scores, order, ties).

Both sessions run on one engine each, cold then warm; the encoded
total **includes** dictionary construction and relation encoding.

Run:  PYTHONPATH=src python benchmarks/bench_storage_encoding.py [--quick]

``--quick`` shrinks the data for CI (identity check only); at default
scale the acceptance gate requires the encoded session to be at least
1.5x faster end-to-end.  The measured numbers are written to
``BENCH_storage.json`` at the repo root, except under ``--quick``,
which leaves the full-scale record alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.bench import format_table  # noqa: E402
from repro.core.ranking import LexRanking, SumRanking, TableWeight  # noqa: E402
from repro.data import Database  # noqa: E402
from repro.engine import QueryEngine  # noqa: E402
from repro.workloads.generators import zipf_bipartite  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RECORD_JSON = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_storage.json")
)

#: Acceptance gate at default scale (ISSUE 3): encoded end-to-end at
#: least this much faster than plain-tuple execution.
TARGET_SPEEDUP = 1.5

TWO_HOP = "Q(a1, a2) :- E(a1, p), E(a2, p)"
CHAIN_4 = "Q(a1, a3) :- E(a1, p1), E(a2, p1), E(a2, p2), E(a3, p2)"


def make_workload(scale: float, seed: int = 7):
    """Memetracker-like: URL-keyed bipartite edges, log-degree weights."""
    n_users = max(int(6000 * scale), 40)
    n_posts = max(int(3500 * scale), 25)
    n_edges = max(int(18000 * scale), 80)
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
    degrees: dict[str, int] = {}
    for user, _post in edges:
        degrees[user] = degrees.get(user, 0) + 1
    weights = {u: math.log2(1 + d) for u, d in degrees.items()}
    sum_ranking = SumRanking(TableWeight({}, default_table=weights))
    session = [
        ("lex-2hop-asc", TWO_HOP, LexRanking(), max(int(2000 * scale), 10)),
        (
            "lex-2hop-desc",
            TWO_HOP,
            LexRanking(descending=("a1", "a2")),
            max(int(2000 * scale), 10),
        ),
        ("lex-chain4", CHAIN_4, LexRanking(), max(int(300 * scale), 5)),
        ("sum-logdeg-2hop", TWO_HOP, sum_ranking, max(int(1000 * scale), 10)),
    ]
    return db, session


def verify_identity(db: Database, session) -> dict[str, int]:
    """Encoded answers must equal plain answers exactly, per query."""
    plain = QueryEngine(db, encode=False)
    encoded = QueryEngine(db, encode=True)
    counts: dict[str, int] = {}
    for name, text, ranking, k in session:
        a = [(x.values, x.score) for x in plain.execute(text, ranking, k=k)]
        b = [(x.values, x.score) for x in encoded.execute(text, ranking, k=k)]
        if a != b:
            raise SystemExit(
                f"FAIL: encoded output diverged from plain on {name!r}"
            )
        counts[name] = len(a)
    return counts


def run_session(
    db: Database, session, *, encode: bool, repeats: int
) -> tuple[float, dict[str, float], QueryEngine]:
    """One client session: every query cold, then ``repeats - 1`` warm
    passes.  Returns (total seconds, first-pass seconds per query, engine)."""
    engine = QueryEngine(db, encode=encode)
    per_query: dict[str, float] = {}
    started = time.perf_counter()
    for name, text, ranking, k in session:
        q_started = time.perf_counter()
        engine.execute(text, ranking, k=k)
        per_query[name] = time.perf_counter() - q_started
    for _ in range(repeats - 1):
        for _name, text, ranking, k in session:
            engine.execute(text, ranking, k=k)
    return time.perf_counter() - started, per_query, engine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: tiny data, identity check, no speedup gate",
    )
    parser.add_argument("--scale", type=float, default=None, help="workload scale override")
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="total passes over the session (first is cold)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help=f"fail below this end-to-end speedup (default {TARGET_SPEEDUP} "
        "at default scale, skipped under --quick)",
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.05 if args.quick else 1.0)
    db, session = make_workload(scale)
    answer_counts = verify_identity(db, session)

    plain_total, plain_cold, _ = run_session(
        db, session, encode=False, repeats=args.repeats
    )
    encoded_total, encoded_cold, encoded_engine = run_session(
        db, session, encode=True, repeats=args.repeats
    )
    speedup = plain_total / encoded_total if encoded_total else float("inf")

    rows = [
        (
            name,
            str(answer_counts[name]),
            f"{plain_cold[name]:.3f}",
            f"{encoded_cold[name]:.3f}",
            f"{plain_cold[name] / encoded_cold[name]:.2f}x"
            if encoded_cold[name]
            else "inf",
        )
        for name, _text, _ranking, _k in session
    ]
    rows.append(
        (
            "session total",
            "-",
            f"{plain_total:.3f}",
            f"{encoded_total:.3f}",
            f"{speedup:.2f}x",
        )
    )
    table = format_table(
        f"Storage encoding [URL-keyed zipf graph, |D|={db.size}, "
        f"passes={args.repeats}]",
        ("query (LIMIT k)", "answers", "plain s", "encoded s", "speedup"),
        rows,
        note="encoded totals include dictionary build + relation encoding; "
        "outputs verified identical before timing "
        f"(dictionary builds: {encoded_engine.stats.encode_builds})",
    )
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "storage_encoding.txt"), "w") as fh:
        fh.write(table + "\n")

    min_speedup = args.min_speedup
    if min_speedup is None and not args.quick:
        min_speedup = TARGET_SPEEDUP
    record = {
        "workload": "memetracker-like URL-keyed zipf graph, ranked lex+sum session",
        "scale": scale,
        "|D|": db.size,
        "passes": args.repeats,
        "queries": {
            name: {
                "answers": answer_counts[name],
                "plain_cold_seconds": round(plain_cold[name], 6),
                "encoded_cold_seconds": round(encoded_cold[name], 6),
            }
            for name, _text, _ranking, _k in session
        },
        "plain_total_seconds": round(plain_total, 6),
        "encoded_total_seconds": round(encoded_total, 6),
        "speedup": round(speedup, 4),
        "identical_output": True,  # enforced by verify_identity
        "gate": {
            "target_speedup": min_speedup,
            "enforced": min_speedup is not None,
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

    if min_speedup is not None and speedup < min_speedup:
        print(
            f"FAIL: encoded end-to-end speedup {speedup:.2f}x < required "
            f"{min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    if min_speedup is not None:
        print(f"OK: {speedup:.2f}x end-to-end (>= {min_speedup:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
