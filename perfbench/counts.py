"""Exact work counts must repeat: run one seed twice and compare.

Usage (from the repository root)::

    python3 perfbench/counts.py [--workloads paper-deep,paper-topk,url-rw] [--seed 7]

For each workload and each mode (``--trace 0`` and ``--trace 1``) it runs
``perfbench/run.py`` twice with the same seed (``run.py`` fixes
``PYTHONHASHSEED`` for the workload process) and compares the
``.perfbench_out/<workload>-seed<n>-trace<t>-counts.json`` records:
heap pops and pushes per request, cells created, peak queue entries,
the largest number of queue operations between two answers, kernel and
score-column calls and fallbacks, bulk top-k calls and fallbacks, delta
applies and fallbacks, cursor replays and journal bytes.  Exits non-zero
and prints the first differences when any count differs — a finding to
report, never to mask.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from harness import run_py  # noqa: E402


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    run_py(ROOT, workload, seed, seconds, trace)
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}-counts.json")
    with open(path) as fh:
        return json.load(fh)


def diff(a, b, path="") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            out.extend(diff(a.get(key), b.get(key), f"{path}/{key}"))
        return out
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="paper-deep,paper-topk,url-rw")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args(argv)
    bad = 0
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            first = run(workload, args.seed, trace, args.seconds)
            second = run(workload, args.seed, trace, args.seconds)
            differences = diff(first, second)
            status = "repeat exactly" if not differences else f"{len(differences)} differ"
            print(f"{workload} trace={trace}: {len(first['per_request'])} requests, counts {status}")
            for line in differences[:10]:
                print(f"  {line}")
            bad += bool(differences)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
