"""Batched score columns vs per-row scalar keys (ISSUE 5).

The ranked enumerators' non-join preprocessing cost is *scoring*:
turning every surviving tuple into a rank key — per row, a Python list
build plus one weight-table lookup per owned head variable (and a
second memo hop under dictionary encoding).  The score-column subsystem
(``repro.storage.scores`` + ``repro.core.ranking.batched_node_keys``)
materialises each (relation, attribute, weight function) as a cached
``float64`` array keyed by store version and computes a node's keys in
one array pass.

This benchmark measures exactly that substitution on identical inputs:

* **identity** — for SUM/MIN/MAX/AVG (asc and desc) the full ranked
  output — values, scores, keys, ties, order — is compared between the
  batched and scalar paths, over plain and encoded execution; LEX and
  composite rankings are verified to fall back (``score_fallbacks``
  counted, outputs unchanged);
* **scoring phase** — the per-node key computation itself
  (``batched_node_keys`` vs the scalar ``bound.key`` loop) on the
  reducer's surviving rows, kernels on for both sides so only the
  scoring path differs.  The batched side is timed twice: with one
  weight object reused (a score-view cache hit: the gather of the
  survivors' scores) and with a *fresh* weight object over the same
  tables on every repeat (what each new ranking pays: one batched
  weight call over the column's kept distinct domain, plus the
  gathers);
* **end-to-end preprocessing** — enumerator ``preprocess()`` on warm
  reduced instances (the engine's steady state), batched vs scalar.

Run:  PYTHONPATH=src python benchmarks/bench_ranked_scoring.py [--quick]

``--quick`` shrinks the data for CI (identity check only); at default
scale the acceptance gate requires the batched scoring phase to be at
least 2x faster than the scalar loop, recorded in ``BENCH_ranking.json``
at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.algorithms.yannakakis import atom_instances, full_reduce  # noqa: E402
from repro.bench import format_table  # noqa: E402
from repro.core.acyclic import AcyclicRankedEnumerator  # noqa: E402
from repro.core.ranking import (  # noqa: E402
    AvgRanking,
    LexRanking,
    MaxRanking,
    MinRanking,
    SumRanking,
    TableWeight,
    batched_node_keys,
)
from repro.data import Database  # noqa: E402
from repro.engine import QueryEngine  # noqa: E402
from repro.query import parse_query  # noqa: E402
from repro.query.jointree import build_join_tree  # noqa: E402
from repro.storage import kernels, scores  # noqa: E402
from repro.workloads.generators import zipf_bipartite  # noqa: E402
from repro.workloads.weights import random_weights  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RECORD_JSON = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_ranking.json")
)

#: Acceptance gate at default scale (ISSUE 5): the batched scoring
#: phase at least this much faster than the per-row scalar keys.
TARGET_SPEEDUP = 2.0

TWO_HOP = "Q(a1, a2) :- E(a1, p), E(a2, p)"
WIDE = "Q(a, w) :- W(a, w)"


def make_workload(scale: float, seed: int = 11):
    """An int-keyed Zipf graph plus a two-head-variable relation."""
    n_left = max(int(6000 * scale), 40)
    n_right = max(int(4000 * scale), 25)
    edges = zipf_bipartite(
        n_left,
        n_right,
        max(int(45000 * scale), 150),
        skew_left=1.0,
        skew_right=1.0,
        seed=seed,
    )
    rng = random.Random(seed)
    wide = [
        (rng.randrange(n_left), rng.randrange(n_left))
        for _ in range(max(int(30000 * scale), 100))
    ]
    db = Database()
    db.add_relation("E", ("a", "p"), edges)
    db.add_relation("W", ("a", "w"), wide)
    weight = TableWeight(
        {}, default_table=random_weights(range(max(n_left, n_right)), seed=seed + 1)
    )
    return db, weight


def ranked_outputs(engine: QueryEngine, query: str, ranking):
    return [(a.values, a.score, a.key) for a in engine.execute(query, ranking)]


def check_identity(db, weight) -> dict:
    """Batched == scalar over every mode; returns the checked matrix."""
    rankings = {
        "SUM": SumRanking(weight),
        "SUM desc": SumRanking(weight, descending=True),
        "MIN": MinRanking(weight),
        "MAX": MaxRanking(weight),
        "AVG": AvgRanking(weight),
    }
    checked = {}
    for name, ranking in rankings.items():
        for encode in (False, True):
            outputs = {}
            for batch in (True, False):
                scores.set_enabled(batch)
                try:
                    engine = QueryEngine(db, encode=encode)
                    outputs[batch] = ranked_outputs(engine, TWO_HOP, ranking)
                finally:
                    scores.set_enabled(True)
            if outputs[True] != outputs[False]:
                raise SystemExit(
                    f"FAIL: batched scoring diverged from scalar on {name!r} "
                    f"(encode={encode})"
                )
            checked[f"{name}/encode={encode}"] = len(outputs[True])

    # LEX and composite: same results, demonstrably via the scalar path.
    # (LEX is forced through the LinDelay enumerator — ``method="auto"``
    # would pick the backtracking enumerator, which never attempts
    # batched keys in the first place.)
    for name, ranking, method in (
        ("LEX", LexRanking(), "lindelay"),
        ("SUM then LEX", SumRanking(weight).then_by(LexRanking()), "auto"),
    ):
        engine = QueryEngine(db, encode=False)
        batched = [
            (a.values, a.score, a.key)
            for a in engine.execute(TWO_HOP, ranking, method=method)
        ]
        if engine.stats.score_builds != 0 or engine.stats.score_fallbacks == 0:
            raise SystemExit(
                f"FAIL: {name!r} should have fallen back "
                f"(builds={engine.stats.score_builds}, "
                f"fallbacks={engine.stats.score_fallbacks})"
            )
        scores.set_enabled(False)
        try:
            scalar_engine = QueryEngine(db, encode=False)
            scalar = [
                (a.values, a.score, a.key)
                for a in scalar_engine.execute(TWO_HOP, ranking, method=method)
            ]
        finally:
            scores.set_enabled(True)
        if batched != scalar:
            raise SystemExit(f"FAIL: {name!r} fallback output diverged")
        checked[f"{name}/fallback"] = len(batched)
    return checked


def scoring_cases(db):
    """(label, bound maker, instances, alias, own_pairs) per timed node."""
    cases = []
    for label, text, alias, own_pairs in (
        ("two-hop leg (1 head var)", TWO_HOP, "E", (("a1", 0),)),
        ("wide node (2 head vars)", WIDE, "W", (("a", 0), ("w", 1))),
    ):
        query = parse_query(text)
        tree = build_join_tree(query)
        instances = full_reduce(tree, atom_instances(query, db))
        positions = {v: i for i, v in enumerate(query.head)}
        cases.append((label, positions, instances, alias, own_pairs))
    return cases


def fresh_weight(weight: TableWeight) -> TableWeight:
    """A new weight object over the same tables (a new ranking's weight)."""
    return TableWeight(
        weight.tables, default_table=weight.default_table, default=weight.default
    )


def time_scoring(db, weight, repeats: int):
    """The key computation itself, batched vs scalar, per node shape."""
    rankings = {
        "SUM": SumRanking,
        "MIN": MinRanking,
        "MAX": MaxRanking,
        "AVG": AvgRanking,
    }
    rows_out = []
    record = {}
    batched_total = 0.0
    fresh_total = 0.0
    scalar_total = 0.0
    for label, positions, instances, alias, own_pairs in scoring_cases(db):
        for rname, make in rankings.items():
            bound = make(weight).bind(positions)
            rows = instances[alias]
            batched = batched_node_keys(bound, instances, alias, own_pairs)
            scalar = [
                bound.key([(v, row[p]) for v, p in own_pairs]) for row in rows
            ]
            if batched != scalar:
                raise SystemExit(
                    f"FAIL: batched keys diverged from scalar on {label} / {rname}"
                )
            started = time.perf_counter()
            for _ in range(repeats):
                batched_node_keys(bound, instances, alias, own_pairs)
            batched_s = (time.perf_counter() - started) / repeats
            # Weight objects (and their table copies) are made untimed.
            fresh = [make(fresh_weight(weight)).bind(positions) for _ in range(repeats)]
            started = time.perf_counter()
            for fresh_bound in fresh:
                batched_node_keys(fresh_bound, instances, alias, own_pairs)
            fresh_s = (time.perf_counter() - started) / repeats
            started = time.perf_counter()
            for _ in range(repeats):
                [bound.key([(v, row[p]) for v, p in own_pairs]) for row in rows]
            scalar_s = (time.perf_counter() - started) / repeats
            batched_total += batched_s
            fresh_total += fresh_s
            scalar_total += scalar_s
            speedup = scalar_s / batched_s if batched_s else float("inf")
            fresh_speedup = scalar_s / fresh_s if fresh_s else float("inf")
            rows_out.append(
                (
                    f"{label} / {rname}",
                    str(len(rows)),
                    f"{scalar_s * 1e3:.2f}",
                    f"{batched_s * 1e3:.2f}",
                    f"{speedup:.2f}x",
                    f"{fresh_s * 1e3:.2f}",
                    f"{fresh_speedup:.2f}x",
                )
            )
            record[f"{label}/{rname}"] = {
                "rows": len(rows),
                "scalar_seconds": round(scalar_s, 6),
                "batched_seconds": round(batched_s, 6),
                "speedup": round(speedup, 4),
                "fresh_weight_seconds": round(fresh_s, 6),
                "fresh_weight_speedup": round(fresh_speedup, 4),
            }
    total_speedup = scalar_total / batched_total if batched_total else float("inf")
    fresh_speedup = scalar_total / fresh_total if fresh_total else float("inf")
    rows_out.append(
        (
            "scoring total",
            "-",
            f"{scalar_total * 1e3:.2f}",
            f"{batched_total * 1e3:.2f}",
            f"{total_speedup:.2f}x",
            f"{fresh_total * 1e3:.2f}",
            f"{fresh_speedup:.2f}x",
        )
    )
    return rows_out, record, scalar_total, batched_total, total_speedup, fresh_total, fresh_speedup


def time_preprocess(db, weight, repeats: int):
    """End-to-end enumerator preprocessing on warm reduced instances."""
    query = parse_query(TWO_HOP)
    ranking = SumRanking(weight)
    tree = build_join_tree(query)
    instances = full_reduce(tree, atom_instances(query, db))

    def one_pass() -> float:
        enum = AcyclicRankedEnumerator(
            query, db, ranking, instances=instances, already_reduced=True
        )
        started = time.perf_counter()
        enum.preprocess()
        return time.perf_counter() - started

    timings = {}
    for batch in (True, False):
        scores.set_enabled(batch)
        try:
            one_pass()  # warm the score/view caches once
            timings[batch] = min(one_pass() for _ in range(repeats))
        finally:
            scores.set_enabled(True)
    return timings[False], timings[True]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: tiny data, identity check, no speedup gate",
    )
    parser.add_argument("--scale", type=float, default=None, help="workload scale override")
    parser.add_argument("--repeats", type=int, default=5, help="timed passes per mode")
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help=f"fail below this scoring-phase speedup (default {TARGET_SPEEDUP} "
        "at default scale, skipped under --quick)",
    )
    args = parser.parse_args(argv)

    if not kernels.enabled():
        print("numpy unavailable — nothing to compare (install repro[fast])",
              file=sys.stderr)
        return 0 if args.quick else 1

    scale = args.scale if args.scale is not None else (0.02 if args.quick else 1.0)
    db, weight = make_workload(scale)

    # Full-output identity runs at a capped scale: the two-hop output is
    # quadratic in the property degrees, and the check enumerates it 40+
    # times.  The timed scoring phase below re-verifies batched == scalar
    # keys at the full workload scale before any timing.
    if scale > 0.05:
        identity_db, identity_weight = make_workload(0.05)
    else:
        identity_db, identity_weight = db, weight
    checked = check_identity(identity_db, identity_weight)
    print(f"identity ok: {len(checked)} ranked outputs batched == scalar "
          "(values, scores, keys, ties, order)")

    (
        rows,
        record_phases,
        scalar_total,
        batched_total,
        speedup,
        fresh_total,
        fresh_speedup,
    ) = time_scoring(db, weight, args.repeats)
    pre_scalar, pre_batched = time_preprocess(db, weight, args.repeats)
    pre_speedup = pre_scalar / pre_batched if pre_batched else float("inf")
    rows.append(
        (
            "preprocess (warm, SUM)",
            "-",
            f"{pre_scalar * 1e3:.2f}",
            f"{pre_batched * 1e3:.2f}",
            f"{pre_speedup:.2f}x",
            "-",
            "-",
        )
    )

    table = format_table(
        f"Ranked scoring [int-keyed zipf graph, |D|={db.size}, "
        f"repeats={args.repeats}]",
        ("phase", "rows", "scalar ms", "batched ms", "speedup", "fresh ms", "fresh speedup"),
        rows,
        note="outputs verified identical before timing; 'batched' reuses one "
        "weight object (cached score views), 'fresh' brings a new weight "
        "object per repeat (weighs each kept domain, then gathers)",
    )
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "ranked_scoring.txt"), "w") as fh:
        fh.write(table + "\n")

    min_speedup = args.min_speedup
    if min_speedup is None and not args.quick:
        min_speedup = TARGET_SPEEDUP
    record = {
        "workload": "int-keyed zipf two-hop + two-head-variable relation; "
        "SUM/MIN/MAX/AVG table weights",
        "scale": scale,
        "|D|": db.size,
        "repeats": args.repeats,
        "identity_checks": checked,
        "scoring": record_phases,
        "scoring_scalar_seconds": round(scalar_total, 6),
        "scoring_batched_seconds": round(batched_total, 6),
        "scoring_speedup": round(speedup, 4),
        "scoring_fresh_weight_seconds": round(fresh_total, 6),
        "scoring_fresh_weight_speedup": round(fresh_speedup, 4),
        "preprocess_warm": {
            "scalar_seconds": round(pre_scalar, 6),
            "batched_seconds": round(pre_batched, 6),
            "speedup": round(pre_speedup, 4),
        },
        "identical_output": True,  # enforced above
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
            f"FAIL: scoring-phase speedup {speedup:.2f}x < required "
            f"{min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    if min_speedup is not None:
        print(
            f"OK: {speedup:.2f}x on the scoring phase (>= {min_speedup:.2f}x); "
            f"{fresh_speedup:.2f}x with a fresh weight object per repeat"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
