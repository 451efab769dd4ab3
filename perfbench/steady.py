"""Steadiness self-check: repeat each workload over seeds, report spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py [--workloads paper-deep,url-rw] [--seeds 1-10] [--trace 0]

For every workload it runs ``perfbench/run.py`` once per seed (one
process at a time) and prints, per metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(Q3 - Q1) /
median`` beside the metric's bound from ``BENCHMARK.json``.  A metric
whose spread exceeds a tenth, or a third of its bound, is flagged: it
either needs more work per run or belongs in the per-layer section.
Also flags any run that was not correct or had failed operations.  Raw
results go to ``.perfbench_out/steady-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import run_py  # noqa: E402


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    flagged = 0
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in seeds_from(args.seeds):
            started = time.perf_counter()
            result = run_py(ROOT, workload, seed, args.seconds, args.trace)
            wall = time.perf_counter() - started
            runs.append(result)
            walls.append(wall)
            print(
                f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}",
                flush=True,
            )
            if not result["correct"] or result["failed"]:
                flagged += 1
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        with open(
            os.path.join(ROOT, ".perfbench_out", f"steady-{workload}-trace{args.trace}.json"), "w"
        ) as fh:
            json.dump({"seeds": args.seeds, "runs": runs, "walls": walls}, fh, indent=1)
        print(f"\n{workload}: {len(runs)} runs, wall per run max {max(walls):.1f}s")
        print(f"  {'metric':<28} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and (spread > 0.1 or spread > bound / 3):
                flag = "  <-- not steady"
                flagged += 1
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(
                f"  {name:<28} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound_text:>6}{flag}"
            )
        print(flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
