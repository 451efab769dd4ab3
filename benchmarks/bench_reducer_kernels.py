"""Vectorised reducer kernels vs row-at-a-time Python (ISSUE 4).

The Yannakakis full reducer is the dominant preprocessing cost of every
acyclic execution (and, through the GHD bag materialisation, of cyclic
preprocessing too).  The kernel layer (``repro.storage.kernels``) runs
its two semi-join sweeps as NumPy array operations over the column
store's dense code matrices — packed ``int64`` keys, ``np.isin``
membership masks, index gathers — instead of per-row Python set probes.

This benchmark measures exactly that substitution on identical inputs:

* **reduction phase** — ``full_reduce`` over an int-keyed Zipf graph
  (a 4-atom chain, a 3-atom star self-join, and a multi-column-key
  join, where the Python path must build a key tuple per row), kernels
  on vs off;
* **cyclic preprocessing** — ``CyclicRankedEnumerator.preprocess`` (bag
  joins + reduction) on a 4-cycle, kernels on vs off.

Outputs are verified identical (reduced instances, bag sizes, ranked
answers) before any timing.  Store-level code matrices are cached per
store version, so the timed repeats reflect a session after first
contact — which the identity check performs.

Run:  PYTHONPATH=src python benchmarks/bench_reducer_kernels.py [--quick]

``--quick`` shrinks the data for CI (identity check only); at default
scale the acceptance gate requires the vectorised reduction phase to be
at least 2x faster than row-at-a-time, recorded in
``BENCH_kernels.json`` at the repo root.
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
from repro.core.cyclic import CyclicRankedEnumerator  # noqa: E402
from repro.data import Database  # noqa: E402
from repro.query import parse_query  # noqa: E402
from repro.query.jointree import build_join_tree  # noqa: E402
from repro.storage import kernels  # noqa: E402
from repro.workloads.generators import zipf_bipartite  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RECORD_JSON = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_kernels.json")
)

#: Acceptance gate at default scale (ISSUE 4): the vectorised reduction
#: phase at least this much faster than the row-at-a-time sweeps.
TARGET_SPEEDUP = 2.0

REDUCE_QUERIES = {
    "chain4": "Q(a1, a3) :- E(a1, p1), E(a2, p1), E(a2, p2), E(a3, p2)",
    "star3": "Q(a1, a2, a3) :- E(a1, p), E(a2, p), E(a3, p)",
    "multicol": "Q(a, d) :- M(a, b, c), N(b, c, d)",
}
CYCLE_QUERY = "Q(a, b, c, d) :- E1(a, b), E2(b, c), E3(c, d), E4(d, a)"


def make_workload(scale: float, seed: int = 7):
    """Int-keyed Zipf graphs: the encoded layer's code space, directly."""
    edges = zipf_bipartite(
        max(int(8000 * scale), 40),
        max(int(5000 * scale), 25),
        max(int(60000 * scale), 150),
        skew_left=1.0,
        skew_right=1.0,
        seed=seed,
    )
    rng = random.Random(seed)
    wide = [(a, p, rng.randrange(50)) for a, p in edges[: max(len(edges) * 2 // 3, 20)]]

    db = Database()
    db.add_relation("E", ("a", "p"), edges)
    db.add_relation("M", ("a", "b", "c"), wide)
    db.add_relation("N", ("b", "c", "d"), [
        (b, c, rng.randrange(500)) for (_a, b, c) in wide[::2]
    ])

    cyc = Database()
    n_cyc = max(int(4000 * scale), 30)
    domain = max(int(400 * scale), 10)
    for i, name in enumerate(("E1", "E2", "E3", "E4")):
        attrs = (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))[i]
        pairs = zipf_bipartite(
            domain, domain, n_cyc, skew_left=1.0, skew_right=1.0, seed=seed + i
        )
        cyc.add_relation(name, attrs, pairs)
    return db, cyc


def time_reduce(tree, instances, *, use_kernels: bool, repeats: int) -> float:
    # Toggle globally, not just per full_reduce call: the Python sweep's
    # semijoin() has its own multi-column kernel dispatch, which must be
    # off for an honest row-at-a-time baseline.
    kernels.set_enabled(use_kernels)
    try:
        started = time.perf_counter()
        for _ in range(repeats):
            full_reduce(tree, instances, use_kernels=use_kernels)
        return (time.perf_counter() - started) / repeats
    finally:
        kernels.set_enabled(True)


def time_cyclic(query, db, *, enabled: bool):
    """One preprocess pass split into bag / inner phases (multi-second).

    The enumerator reports its own phase timings: ``preprocess_seconds``
    totals the pass, ``inner_stats.preprocess_seconds`` is the acyclic
    enumerator built over the bag tree, and their difference is the bag
    materialisation the join kernels accelerate.
    """
    kernels.set_enabled(enabled)
    try:
        enum = CyclicRankedEnumerator(query, db).preprocess()
    finally:
        kernels.set_enabled(True)
    total = enum.stats.preprocess_seconds
    inner = enum.inner_stats.preprocess_seconds
    return {"total": total, "inner": inner, "bag": total - inner}, enum


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: tiny data, identity check, no speedup gate",
    )
    parser.add_argument("--scale", type=float, default=None, help="workload scale override")
    parser.add_argument("--repeats", type=int, default=3, help="timed passes per mode")
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help=f"fail below this reduction-phase speedup (default {TARGET_SPEEDUP} "
        "at default scale, skipped under --quick)",
    )
    args = parser.parse_args(argv)

    if not kernels.enabled():
        print("numpy unavailable — nothing to compare (install repro[fast])",
              file=sys.stderr)
        return 0 if args.quick else 1

    scale = args.scale if args.scale is not None else (0.05 if args.quick else 1.0)
    db, cyc = make_workload(scale)

    rows = []
    record_queries = {}
    python_total = 0.0
    kernel_total = 0.0
    for name, text in REDUCE_QUERIES.items():
        query = parse_query(text)
        tree = build_join_tree(query)
        instances = atom_instances(query, db)
        fast = full_reduce(tree, instances, use_kernels=True)
        kernels.set_enabled(False)
        try:
            slow = full_reduce(tree, instances, use_kernels=False)
        finally:
            kernels.set_enabled(True)
        if fast != slow:
            raise SystemExit(f"FAIL: kernel reduce diverged from Python on {name!r}")
        survivors = sum(len(v) for v in fast.values())
        kernel_s = time_reduce(tree, instances, use_kernels=True, repeats=args.repeats)
        python_s = time_reduce(tree, instances, use_kernels=False, repeats=args.repeats)
        python_total += python_s
        kernel_total += kernel_s
        speedup = python_s / kernel_s if kernel_s else float("inf")
        rows.append(
            (name, str(survivors), f"{python_s * 1e3:.1f}", f"{kernel_s * 1e3:.1f}",
             f"{speedup:.2f}x")
        )
        record_queries[name] = {
            "survivors": survivors,
            "python_seconds": round(python_s, 6),
            "kernel_seconds": round(kernel_s, 6),
            "speedup": round(speedup, 4),
        }

    reduce_speedup = python_total / kernel_total if kernel_total else float("inf")
    rows.append(
        ("reduction total", "-", f"{python_total * 1e3:.1f}",
         f"{kernel_total * 1e3:.1f}", f"{reduce_speedup:.2f}x")
    )

    cycle = parse_query(CYCLE_QUERY)
    cyc_kernel, fast_enum = time_cyclic(cycle, cyc, enabled=True)
    cyc_python, slow_enum = time_cyclic(cycle, cyc, enabled=False)
    fast_answers = [(a.values, a.score) for a in fast_enum.top_k(50)]
    slow_answers = [(a.values, a.score) for a in slow_enum.top_k(50)]
    if (
        fast_answers != slow_answers
        or fast_enum.materialised_tuples != slow_enum.materialised_tuples
    ):
        raise SystemExit("FAIL: kernel cyclic preprocessing diverged from Python")
    cyc_speedups = {
        phase: (cyc_python[phase] / cyc_kernel[phase] if cyc_kernel[phase] else float("inf"))
        for phase in ("bag", "total")
    }
    rows.append(
        ("cyclic bag join", str(fast_enum.materialised_tuples),
         f"{cyc_python['bag'] * 1e3:.1f}", f"{cyc_kernel['bag'] * 1e3:.1f}",
         f"{cyc_speedups['bag']:.2f}x")
    )
    rows.append(
        ("cyclic preprocess", str(fast_enum.materialised_tuples),
         f"{cyc_python['total'] * 1e3:.1f}", f"{cyc_kernel['total'] * 1e3:.1f}",
         f"{cyc_speedups['total']:.2f}x")
    )

    table = format_table(
        f"Reducer kernels [int-keyed zipf graphs, |D|={db.size}, "
        f"repeats={args.repeats}]",
        ("phase", "tuples", "python ms", "kernel ms", "speedup"),
        rows,
        note="outputs verified identical before timing; store-level code "
        "matrices cached per store version (session-after-first-contact)",
    )
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "reducer_kernels.txt"), "w") as fh:
        fh.write(table + "\n")

    min_speedup = args.min_speedup
    if min_speedup is None and not args.quick:
        min_speedup = TARGET_SPEEDUP
    record = {
        "workload": "int-keyed zipf graphs; chain4/star3/multicol reduce + 4-cycle GHD",
        "scale": scale,
        "|D|": db.size,
        "repeats": args.repeats,
        "reduce": record_queries,
        "reduce_python_seconds": round(python_total, 6),
        "reduce_kernel_seconds": round(kernel_total, 6),
        "reduce_speedup": round(reduce_speedup, 4),
        "cyclic": {
            "materialised_tuples": fast_enum.materialised_tuples,
            "python_seconds": {k: round(v, 6) for k, v in cyc_python.items()},
            "kernel_seconds": {k: round(v, 6) for k, v in cyc_kernel.items()},
            "bag_speedup": round(cyc_speedups["bag"], 4),
            "total_speedup": round(cyc_speedups["total"], 4),
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

    if min_speedup is not None and reduce_speedup < min_speedup:
        print(
            f"FAIL: reduction-phase speedup {reduce_speedup:.2f}x < required "
            f"{min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    if min_speedup is not None:
        print(f"OK: {reduce_speedup:.2f}x on the reduction phase "
              f"(>= {min_speedup:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
