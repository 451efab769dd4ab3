"""repro — Ranked Enumeration of Join Queries with Projections.

A faithful, self-contained Python implementation of

    Shaleen Deep, Xiao Hu, Paraschos Koutris.
    "Ranked Enumeration of Join Queries with Projections."
    PVLDB 15(5), VLDB 2022 (arXiv:2201.05566).

The library answers ``SELECT DISTINCT .. ORDER BY .. LIMIT k`` over
join-project queries with *delay guarantees*: after linear-time
preprocessing, each successive answer is produced in near-linear
worst-case time — no full-join materialisation, no blocking sort.

Quickstart
----------
>>> from repro import Database, parse_query, enumerate_ranked
>>> db = Database()
>>> _ = db.add_relation("R", ("author", "paper"), [(1, 10), (2, 10), (3, 20)])
>>> q = parse_query("Q(a1, a2) :- R(a1, p), R(a2, p)")   # co-author pairs
>>> [a.values for a in enumerate_ranked(q, db, k=3)]
[(1, 1), (1, 2), (2, 1)]

For repeated queries over one database, the session layer amortises
per-query work (parsing, classification, join-tree construction, the
full-reducer pass) behind LRU caches with automatic invalidation:

>>> from repro import QueryEngine
>>> engine = QueryEngine(db)
>>> [a.values for a in engine.execute("Q(a1, a2) :- R(a1, p), R(a2, p)", k=3)]
[(1, 1), (1, 2), (2, 1)]
>>> _ = engine.execute("Q(a1, a2) :- R(a1, p), R(a2, p)", k=3)
>>> engine.stats.plan_hits
1

Main entry points
-----------------
* :class:`repro.QueryEngine` — the cached session layer: parsed-query
  and prepared-plan caches, generation-counter invalidation,
  :class:`repro.EngineStats` observability;
* :func:`repro.enumerate_ranked` / :func:`repro.create_enumerator` — the
  planner that picks the right algorithm for any CQ/UCQ;
* :class:`repro.AcyclicRankedEnumerator` — Theorem 1's ``LinDelay``;
* :class:`repro.LexBacktrackEnumerator` — Algorithm 3 (lexicographic);
* :class:`repro.StarTradeoffEnumerator` — Theorem 2's tradeoff;
* :class:`repro.CyclicRankedEnumerator` — Theorem 3 (GHD-based);
* :class:`repro.UnionRankedEnumerator` — Theorem 4 (UCQs);
* :func:`repro.save_snapshot` / :func:`repro.open_database` — the
  persistent column store: save an instance once, reopen it
  memory-mapped for instant warm starts;
* :mod:`repro.workloads` — the paper's datasets and queries, synthesised;
* :mod:`repro.algorithms` — Yannakakis + the engine baselines.
"""

from .core import (
    AcyclicRankedEnumerator,
    AvgRanking,
    CompositeRanking,
    CyclicRankedEnumerator,
    Desc,
    EnumerationStats,
    LexBacktrackEnumerator,
    LexRanking,
    MaxRanking,
    MinRanking,
    MinWeightProjectionEnumerator,
    ProductRanking,
    RankedAnswer,
    RankingFunction,
    StarTradeoffEnumerator,
    SumRanking,
    TableWeight,
    UnionRankedEnumerator,
    create_enumerator,
    enumerate_ranked,
    is_star_query,
)
from .core.planner import QueryPlan, plan_query
from .data import Database, Relation
from .engine import EngineStats, PreparedPlan, QueryEngine
from .storage import (
    DurableDatabase,
    JournalError,
    SnapshotError,
    open_database,
    open_durable,
    save_snapshot,
)
from .errors import (
    CyclicQueryError,
    DecompositionError,
    NotAStarQueryError,
    QueryError,
    RankingError,
    ReproError,
    SchemaError,
    WorkloadError,
)
from .query import (
    Atom,
    Const,
    JoinProjectQuery,
    UnionQuery,
    build_join_tree,
    classify_query,
    delay_guarantee,
    find_ghd,
    is_free_connex,
    parse_query,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # data
    "Database",
    "Relation",
    # persistence + durability
    "DurableDatabase",
    "JournalError",
    "SnapshotError",
    "open_database",
    "open_durable",
    "save_snapshot",
    # session layer
    "QueryEngine",
    "PreparedPlan",
    "EngineStats",
    "QueryPlan",
    "plan_query",
    # query model
    "Atom",
    "Const",
    "JoinProjectQuery",
    "UnionQuery",
    "parse_query",
    "build_join_tree",
    "find_ghd",
    "classify_query",
    "delay_guarantee",
    "is_free_connex",
    # enumerators
    "AcyclicRankedEnumerator",
    "LexBacktrackEnumerator",
    "StarTradeoffEnumerator",
    "CyclicRankedEnumerator",
    "UnionRankedEnumerator",
    "MinWeightProjectionEnumerator",
    "create_enumerator",
    "enumerate_ranked",
    "is_star_query",
    "RankedAnswer",
    "EnumerationStats",
    # rankings
    "RankingFunction",
    "SumRanking",
    "AvgRanking",
    "MinRanking",
    "MaxRanking",
    "ProductRanking",
    "LexRanking",
    "CompositeRanking",
    "TableWeight",
    "Desc",
    # errors
    "ReproError",
    "SchemaError",
    "QueryError",
    "CyclicQueryError",
    "NotAStarQueryError",
    "DecompositionError",
    "RankingError",
    "WorkloadError",
]
