"""Bulk top-k serving vs the per-answer heap loop (ISSUE 10).

The vectorised-enumeration layer finishes the batching work the score
columns started: join-tree combines run over key arrays
(``combine_key_arrays``, called from the array queue build
``_build_runs``), the star structure
materialises ``O_H`` with array joins, and ``top_k(k)`` requests whose
join is cheap are served by one bulk kernel — array join, array dedup,
``argpartition``-style selection — instead of queue builds plus k
priority-queue pops.  "Cheap" is the engine's cost gate: the exact
pre-dedup join size, counted before anything is materialised, within
``BULK_TOPK_COST_FACTOR`` times the reduced row count.  Every batched
path is bit-identical to its scalar twin or refuses into it.

This benchmark measures exactly that substitution on identical inputs:

* **identity** — the full ranked ``top_k`` output — values, scores,
  keys, ties, order — is compared between the engine default (bulk
  where the gate admits it) and the heap path over plain and encoded
  execution, serial and sharded, kernels on and off (the no-NumPy
  fallback), on both workload shapes;
* **dispatch** — the unit-fanout chain4/star3 requests are bulk-served
  and a high-fanout 3hop projection is declined for cost;
* **enumeration phase** — serving ``top_k(k)`` from warm reduced
  instances (the engine's steady state): the heap side pays queue
  construction plus k pops, the bulk side one array pass — both sides
  with score columns and reducer kernels on, so only the enumeration
  machinery differs;
* the same comparison for the star tradeoff structure, where the heap
  side's preprocessing materialises ``O_H`` row by row and the bulk
  side builds it with array joins.

Run:  PYTHONPATH=src python benchmarks/bench_enumeration_vectorised.py [--quick]

``--quick`` shrinks the data for CI (identity and dispatch checks); at default
scale the acceptance gate requires the bulk enumeration phase to be at
least 2x faster than the heap path on both workloads, recorded in
``BENCH_enumeration.json`` at the repo root.
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
from repro.core.ranking import SumRanking, TableWeight, topk_counters  # noqa: E402
from repro.core.star import StarTradeoffEnumerator  # noqa: E402
from repro.data import Database  # noqa: E402
from repro.engine import QueryEngine  # noqa: E402
from repro.query import parse_query  # noqa: E402
from repro.query.jointree import build_join_tree  # noqa: E402
from repro.storage import kernels, scores  # noqa: E402
from repro.workloads.weights import random_weights  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RECORD_JSON = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_enumeration.json")
)

#: Acceptance gate at default scale (ISSUE 10): the bulk top-k serve at
#: least this much faster than the heap path's enumeration phase.
TARGET_SPEEDUP = 2.0

CHAIN4 = "Q(a, e) :- R1(a, b), R2(b, c), R3(c, d), R4(d, e)"
STAR3 = "Q(a1, a2, a3) :- R1(a1, b), R2(a2, b), R3(a3, b)"

K = 1000
STAR_DELTA = 10


def chain_workload(scale: float, seed: int = 7):
    """Four int-keyed chain relations with ~unit join fanout."""
    n = max(int(120_000 * scale), 400)
    rng = random.Random(seed)
    db = Database()
    for name, attrs in (
        ("R1", ("a", "b")),
        ("R2", ("b", "c")),
        ("R3", ("c", "d")),
        ("R4", ("d", "e")),
    ):
        db.add_relation(
            name, attrs, [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        )
    weight = TableWeight({}, default_table=random_weights(range(n), seed=seed + 1))
    return db, weight


def star_workload(scale: float, seed: int = 23):
    """Three star legs: a long random tail plus a few heavy A-values.

    Heaviness is per A-value degree; the heavy rows' B values come from
    a small domain so heavy A-triples share join partners and ``O_H``
    is materially non-empty (the array-native build under test)."""
    n = max(int(40_000 * scale), 300)
    hub_deg = max(int(25 * min(scale, 1.0)), 12)
    rng = random.Random(seed)
    db = Database()
    for i in (1, 2, 3):
        rows = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        for hub in range(8):
            rows.extend((hub, rng.randrange(16)) for _ in range(hub_deg))
        db.add_relation(f"R{i}", (f"a{i}", "b"), rows)
    weight = TableWeight({}, default_table=random_weights(range(n), seed=seed + 1))
    return db, weight


def fanout_workload(entities: int = 200, hubs: int = 4):
    """Every entity linked to every hub: a 3hop projection over it joins
    ``(entities * hubs) ** 2`` rows for ``3 * entities * hubs`` reduced
    ones, far past the cost gate."""
    db = Database()
    db.add_relation(
        "E", ("a", "p"), [(a, entities + p) for a in range(entities) for p in range(hubs)]
    )
    weight = TableWeight({}, default_table=random_weights(range(entities + hubs), seed=5))
    return db, weight


def _output(answers):
    return [(a.values, a.score, a.key) for a in answers]


def check_identity(quick: bool) -> dict:
    """Bulk == heap over every execution mode; returns the checked matrix."""
    scale = 0.01
    chain_db, chain_weight = chain_workload(scale)
    star_db, star_weight = star_workload(scale)
    cases = (
        ("chain4", chain_db, CHAIN4, SumRanking(chain_weight), {}),
        ("chain4 desc", chain_db, CHAIN4, SumRanking(chain_weight, descending=True), {}),
        (
            "star3",
            star_db,
            STAR3,
            SumRanking(star_weight),
            {"method": "star", "delta": STAR_DELTA},
        ),
    )
    checked = {}
    for name, db, text, ranking, extra in cases:
        for encode in (False, True):
            for shards in (0, 3):
                if shards and name.startswith("star"):
                    continue  # the partitioner serves acyclic plans
                outputs = {}
                for bulk in (None, 0):
                    engine = QueryEngine(db, encode=encode, bulk_topk_max_k=bulk)
                    if shards > 1:
                        answers = engine.execute_parallel(
                            text, ranking, shards=shards, backend="serial", k=K, **extra
                        )
                    else:
                        answers = engine.execute(text, ranking, k=K, **extra)
                    outputs[bulk] = _output(answers)
                    if not shards:
                        served = engine.stats.bulk_topk_calls
                        if bulk is None and not served:
                            raise SystemExit(
                                f"FAIL: bulk kernel never served {name!r} "
                                f"(encode={encode})"
                            )
                        if bulk == 0 and served:
                            raise SystemExit(
                                f"FAIL: bulk kernel ran with the ceiling at 0 "
                                f"on {name!r}"
                            )
                if outputs[None] != outputs[0]:
                    raise SystemExit(
                        f"FAIL: bulk top-k diverged from the heap path on {name!r} "
                        f"(encode={encode}, shards={shards})"
                    )
                checked[f"{name}/encode={encode}/shards={shards}"] = len(outputs[0])

        # The no-NumPy environment: kernels and score columns disabled,
        # every batched path must refuse into its scalar twin.
        kernels.set_enabled(False)
        scores.set_enabled(False)
        try:
            engine = QueryEngine(db)
            scalar = _output(engine.execute(text, ranking, k=K, **extra))
            if engine.stats.bulk_topk_calls:
                raise SystemExit(
                    f"FAIL: bulk kernel claims to have served {name!r} without NumPy"
                )
        finally:
            kernels.set_enabled(True)
            scores.set_enabled(True)
        engine = QueryEngine(db)
        vectorised = _output(engine.execute(text, ranking, k=K, **extra))
        if vectorised != scalar:
            raise SystemExit(f"FAIL: {name!r} diverged with kernels disabled")
        checked[f"{name}/no-numpy"] = len(scalar)
    return checked


def check_cost_gate() -> dict:
    """A high-fanout 3hop projection is declined for cost, served by the heap."""
    db, weight = fanout_workload()
    text = "Q(a1, p2) :- E(a1, p1), E(a2, p1), E(a2, p2)"
    ranking = SumRanking(weight)
    engine = QueryEngine(db)
    with topk_counters.collect() as tally:
        answers = engine.execute(text, ranking, k=K)
    if engine.stats.bulk_topk_calls or tally.reasons.get("cost") != 1:
        raise SystemExit(
            "FAIL: the high-fanout 3hop was not declined for cost "
            f"(bulk calls {engine.stats.bulk_topk_calls}, reasons {tally.reasons})"
        )
    heap = QueryEngine(db, bulk_topk_max_k=0).execute(text, ranking, k=K)
    if _output(answers) != _output(heap):
        raise SystemExit("FAIL: the cost-declined 3hop diverged from the heap path")
    return {
        "3hop fanout": {
            "join_rows": engine.last_enumerator.stats.join_rows,
            "reduced_rows": 3 * len(db["E"]),
            "declined": "cost",
        }
    }


def time_chain(db, weight, repeats: int):
    """Serve ``top_k(K)`` from warm reduced instances, heap vs bulk."""
    query = parse_query(CHAIN4)
    ranking = SumRanking(weight)
    tree = build_join_tree(query)
    instances = full_reduce(tree, atom_instances(query, db))

    def serve(bulk: int):
        enum = AcyclicRankedEnumerator(
            query,
            db,
            ranking,
            instances=instances,
            already_reduced=True,
            bulk_topk_max_k=bulk,
        )
        started = time.perf_counter()
        answers = enum.top_k(K)
        return time.perf_counter() - started, answers

    _, heap_answers = serve(0)
    _, bulk_answers = serve(K)
    if _output(heap_answers) != _output(bulk_answers):
        raise SystemExit("FAIL: chain4 bulk top-k diverged from heap before timing")
    heap_s = min(serve(0)[0] for _ in range(repeats))
    bulk_s = min(serve(K)[0] for _ in range(repeats))
    return heap_s, bulk_s, len(bulk_answers)


def time_star(db, weight, repeats: int):
    """Cold star serve: row-at-a-time ``O_H`` vs array joins + bulk serve."""
    query = parse_query(STAR3)
    ranking = SumRanking(weight)

    def serve(bulk: int):
        enum = StarTradeoffEnumerator(
            query, db, ranking, delta=STAR_DELTA, bulk_topk_max_k=bulk
        )
        started = time.perf_counter()
        if bulk:
            answers = enum.top_k(K)
        else:
            # The heap path with the batched O_H build disabled: the
            # pre-vectorisation star serve (score columns still on).
            enabled = scores.enabled()
            scores.set_enabled(False)
            try:
                enum.preprocess()
            finally:
                scores.set_enabled(enabled)
            answers = enum.top_k(K)
        return time.perf_counter() - started, answers

    _, heap_answers = serve(0)
    _, bulk_answers = serve(K)
    if _output(heap_answers) != _output(bulk_answers):
        raise SystemExit("FAIL: star3 bulk top-k diverged from heap before timing")
    heap_s = min(serve(0)[0] for _ in range(repeats))
    bulk_s = min(serve(K)[0] for _ in range(repeats))
    return heap_s, bulk_s, len(bulk_answers)


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
        help=f"fail below this enumeration-phase speedup (default {TARGET_SPEEDUP} "
        "at default scale, skipped under --quick)",
    )
    args = parser.parse_args(argv)

    if not kernels.enabled():
        print("numpy unavailable — nothing to compare (install repro[fast])",
              file=sys.stderr)
        return 0 if args.quick else 1

    checked = check_identity(args.quick)
    print(f"identity ok: {len(checked)} ranked top-k outputs bulk == heap "
          "(values, scores, keys, ties, order)")
    dispatch = check_cost_gate()
    print("dispatch ok: unit-fanout chain4/star3 bulk-served, high-fanout 3hop "
          "declined for cost")

    scale = args.scale if args.scale is not None else (0.01 if args.quick else 1.0)
    chain_db, chain_weight = chain_workload(scale)
    star_db, star_weight = star_workload(scale)

    rows_out = []
    record_phases = {}
    speedups = {}
    for name, (heap_s, bulk_s, answers) in (
        ("chain4 top-k serve", time_chain(chain_db, chain_weight, args.repeats)),
        ("star3 top-k serve", time_star(star_db, star_weight, args.repeats)),
    ):
        speedup = heap_s / bulk_s if bulk_s else float("inf")
        key = name.split()[0]
        speedups[key] = speedup
        rows_out.append(
            (
                name,
                str(answers),
                f"{heap_s * 1e3:.2f}",
                f"{bulk_s * 1e3:.2f}",
                f"{speedup:.2f}x",
            )
        )
        record_phases[key] = {
            "k": K,
            "answers": answers,
            "heap_seconds": round(heap_s, 6),
            "bulk_seconds": round(bulk_s, 6),
            "speedup": round(speedup, 4),
        }

    table = format_table(
        f"Vectorised enumeration [k={K}, chain |D|={chain_db.size}, "
        f"star |D|={star_db.size}, repeats={args.repeats}]",
        ("phase", "answers", "heap ms", "bulk ms", "speedup"),
        rows_out,
        note="outputs verified bit-identical before timing; heap side keeps "
        "score columns and reducer kernels on — only the enumeration "
        "machinery differs",
    )
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "enumeration_vectorised.txt"), "w") as fh:
        fh.write(table + "\n")

    min_speedup = args.min_speedup
    if min_speedup is None and not args.quick:
        min_speedup = TARGET_SPEEDUP
    record = {
        "workload": "chain4 (~unit fanout, int keys) + star3 (hubbed legs, "
        f"delta={STAR_DELTA}); SUM table weights; k={K}",
        "scale": scale,
        "chain_|D|": chain_db.size,
        "star_|D|": star_db.size,
        "repeats": args.repeats,
        "identity_checks": checked,
        "cost_gate": dispatch,
        "phases": record_phases,
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

    if min_speedup is not None:
        slow = {k: s for k, s in speedups.items() if s < min_speedup}
        if slow:
            print(
                "FAIL: enumeration-phase speedup below "
                f"{min_speedup:.2f}x on: "
                + ", ".join(f"{k}={s:.2f}x" for k, s in slow.items()),
                file=sys.stderr,
            )
            return 1
        print(
            "OK: "
            + ", ".join(f"{k} {s:.2f}x" for k, s in speedups.items())
            + f" on the enumeration phase (>= {min_speedup:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
