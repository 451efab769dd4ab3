"""Shared helpers for the benchmark suite.

Every ``bench_*`` module regenerates one exhibit (table or figure) of
the paper.  Workloads are cached per session; each module writes its
paper-style table both to stdout (visible with ``pytest -s``) and to
``benchmarks/results/<exhibit>.txt`` (git-ignored); docs/benchmarks.md
says how to run the exhibits.

Scales are calibrated so the whole suite completes in minutes on one
core: the paper's effects are scale-free (who wins and by what factor).
"""

from __future__ import annotations

import os
from functools import lru_cache

from repro.workloads import (
    make_dblp_like,
    make_friendster_like,
    make_imdb_like,
    make_ldbc_like,
    make_memetracker_like,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Engines get this intermediate-tuple budget; exceeding it is reported
#: as DNF — the paper's out-of-memory failures at 128 GB, scaled down.
ENGINE_MEMORY_LIMIT = 3_000_000

K_SWEEP = (10, 100, 1000)


@lru_cache(maxsize=None)
def dblp():
    """DBLP-like workload for the small-scale figures."""
    return make_dblp_like(scale=0.35, seed=0)


@lru_cache(maxsize=None)
def imdb():
    """IMDB-like workload (denser/skewer, harder joins)."""
    return make_imdb_like(scale=0.3, seed=1)


@lru_cache(maxsize=None)
def dblp_cyclic():
    """Smaller DBLP-like instance for the |D|^fhw cyclic experiments."""
    return make_dblp_like(scale=0.15, seed=0)


@lru_cache(maxsize=None)
def imdb_cyclic():
    return make_imdb_like(scale=0.1, seed=1)


@lru_cache(maxsize=None)
def memetracker():
    return make_memetracker_like(scale=0.6, seed=2)


@lru_cache(maxsize=None)
def friendster():
    return make_friendster_like(scale=0.6, seed=3)


@lru_cache(maxsize=None)
def ldbc(sf: float):
    return make_ldbc_like(sf)


def write_report(name: str, text: str) -> None:
    """Print a table and persist it under benchmarks/results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
