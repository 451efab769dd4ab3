"""Algorithm selection: one entry point for every query class.

``create_enumerator`` inspects the query and dispatches:

================  ====================================================
query shape        algorithm
================  ====================================================
UCQ                :class:`~repro.core.ucq.UnionRankedEnumerator`
cyclic CQ          :class:`~repro.core.cyclic.CyclicRankedEnumerator`
star + ``epsilon`` :class:`~repro.core.star.StarTradeoffEnumerator`
acyclic + LEX      :class:`~repro.core.lexicographic.LexBacktrackEnumerator`
acyclic            :class:`~repro.core.acyclic.AcyclicRankedEnumerator`
================  ====================================================

``method`` overrides the dispatch (``"lindelay"``, ``"lex-backtrack"``,
``"star"``, ``"ghd"``, ``"auto"``), and ``enumerate_ranked`` is the
one-call convenience: the paper's ``SELECT DISTINCT .. ORDER BY ..
LIMIT k``.

Planning is split in two so the data-independent half can be cached
(:mod:`repro.engine`):

* :func:`plan_query` classifies the query (hypergraph acyclicity, star
  shape, union structure) and builds the reusable structures — join
  tree for the acyclic algorithms, GHD for the cyclic one.  It never
  touches a :class:`~repro.data.database.Database`.
* :meth:`QueryPlan.instantiate` binds a plan to a database, producing a
  fresh one-shot enumerator.  ``create_enumerator`` is exactly
  ``plan_query(...).instantiate(db)``.
"""

from __future__ import annotations

from typing import Any

from ..data.database import Database
from ..errors import NotAStarQueryError, QueryError
from ..query.hypergraph import Hypergraph
from ..query.query import JoinProjectQuery, UnionQuery
from .acyclic import AcyclicRankedEnumerator
from .answers import RankedAnswer
from .base import RankedEnumeratorBase
from .cyclic import CyclicRankedEnumerator
from .lexicographic import LexBacktrackEnumerator
from .ranking import LexRanking, RankingFunction, SumRanking
from .star import StarTradeoffEnumerator, star_query_shape
from .ucq import UnionRankedEnumerator

__all__ = [
    "QueryPlan",
    "plan_query",
    "create_enumerator",
    "enumerate_ranked",
    "is_star_query",
    "METHODS",
]

METHODS = ("auto", "lindelay", "lex-backtrack", "star", "ghd")


def is_star_query(query: JoinProjectQuery) -> bool:
    """True if ``query`` matches the paper's ``Q*_m`` star shape."""
    try:
        star_query_shape(query)
        return True
    except NotAStarQueryError:
        return False


class QueryPlan:
    """The data-independent result of planning one query.

    A plan records which algorithm the dispatch table selected
    (:attr:`kind`) together with the expensive structures that depend
    only on the query — the join tree for the acyclic/lexicographic
    algorithms and the GHD for the cyclic one.  Plans are therefore
    reusable across executions and across databases with compatible
    schemas; :class:`repro.engine.QueryEngine` caches them keyed on the
    query/ranking/method fingerprint.

    Attributes
    ----------
    query / ranking / method:
        The planning inputs (``ranking`` normalised to :class:`SumRanking`).
    kind:
        One of ``"union"``, ``"cyclic"``, ``"star"``, ``"lex"``,
        ``"acyclic"`` — the selected algorithm family.
    acyclic:
        Hypergraph classification (``True`` for union plans, which
        dispatch per branch).
    join_tree / ghd:
        The pre-built structure for the selected family (``None`` where
        not applicable).
    """

    __slots__ = (
        "query",
        "ranking",
        "method",
        "kind",
        "acyclic",
        "join_tree",
        "ghd",
        "epsilon",
        "delta",
        "kwargs",
    )

    _CLASSES = {
        "union": UnionRankedEnumerator,
        "cyclic": CyclicRankedEnumerator,
        "star": StarTradeoffEnumerator,
        "lex": LexBacktrackEnumerator,
        "acyclic": AcyclicRankedEnumerator,
    }

    def __init__(
        self,
        query: JoinProjectQuery | UnionQuery,
        ranking: RankingFunction,
        method: str,
        kind: str,
        *,
        acyclic: bool = True,
        join_tree=None,
        ghd=None,
        epsilon: float | None = None,
        delta: int | None = None,
        kwargs: dict[str, Any] | None = None,
    ):
        self.query = query
        self.ranking = ranking
        self.method = method
        self.kind = kind
        self.acyclic = acyclic
        self.join_tree = join_tree
        self.ghd = ghd
        self.epsilon = epsilon
        self.delta = delta
        self.kwargs = dict(kwargs or {})

    @property
    def enumerator_class(self) -> type[RankedEnumeratorBase]:
        """The enumerator class this plan instantiates."""
        return self._CLASSES[self.kind]

    def describe(self) -> str:
        """One-line plan summary (used by ``--explain`` and the engine).

        Names the enumerator class, query shape and ranking.

        >>> from repro.query import parse_query
        >>> plan = plan_query(parse_query("Q(a1, a2) :- R(a1, p), R(a2, p)"))
        >>> plan.describe()
        'AcyclicRankedEnumerator[acyclic, rank=SUM[w(v) = v, asc]]'
        """
        shape = "union" if self.kind == "union" else (
            "acyclic" if self.acyclic else "cyclic"
        )
        rank = self.ranking.describe()
        return f"{self.enumerator_class.__name__}[{shape}, rank={rank}]"

    def instantiate(self, db: Database, **overrides: Any) -> RankedEnumeratorBase:
        """Bind the plan to a database: build a fresh one-shot enumerator.

        ``overrides`` are forwarded to the enumerator constructor on top
        of the planning-time kwargs (the warm path in
        :mod:`repro.engine` passes pre-reduced ``instances`` this way).
        """
        kwargs = dict(self.kwargs)
        kwargs.update(overrides)
        query, ranking = self.query, self.ranking

        if self.kind == "union":
            return UnionRankedEnumerator(query, db, ranking, **kwargs)

        if self.kind == "cyclic":
            kwargs.setdefault("ghd", self.ghd)
            return CyclicRankedEnumerator(query, db, ranking, **kwargs)

        if self.kind == "star":
            return StarTradeoffEnumerator(
                query, db, ranking, epsilon=self.epsilon, delta=self.delta, **kwargs
            )

        if self.kind == "lex":
            order = kwargs.pop("order", None)
            descending = kwargs.pop("descending", None)
            weight = kwargs.pop("weight", None)
            if isinstance(ranking, LexRanking):
                order = order if order is not None else ranking.order
                descending = descending if descending is not None else ranking.descending
                weight = weight if weight is not None else ranking.weight
            kwargs.setdefault("join_tree", self.join_tree)
            return LexBacktrackEnumerator(
                query, db, order=order, descending=descending or (), weight=weight, **kwargs
            )

        kwargs.setdefault("join_tree", self.join_tree)
        return AcyclicRankedEnumerator(query, db, ranking, **kwargs)


def plan_query(
    query: JoinProjectQuery | UnionQuery,
    ranking: RankingFunction | None = None,
    *,
    method: str = "auto",
    epsilon: float | None = None,
    delta: int | None = None,
    **kwargs: Any,
) -> QueryPlan:
    """Classify ``query`` and build its reusable plan (no database needed).

    This is the cacheable half of :func:`create_enumerator`: hypergraph
    classification plus join-tree / GHD construction.  See
    :class:`QueryPlan` for what the result carries.

    Cost contract: planning is polynomial in the *query* size only —
    it never touches a database, so one plan amortises over any number
    of executions and over databases with compatible schemas.  The
    delay guarantee of the eventual execution is decided here by the
    selected family: ``O(|D| log |D|)`` worst-case delay after
    ``O(|D|)`` preprocessing for acyclic plans (Theorem 1),
    ``O(|D|^{fhw} log |D|)`` for cyclic plans (Theorem 3), the
    ``O(|D|^{1-ε})``-delay / ``O(|D|^{1+ε})``-space tradeoff for star
    plans (Theorem 2), and the worst branch's bound for unions
    (Theorem 4).

    >>> from repro.query import parse_query
    >>> plan = plan_query(parse_query("Q(x, y) :- R(x, p), S(p, y)"))
    >>> plan.kind, plan.acyclic
    ('acyclic', True)
    """
    if method not in METHODS:
        raise QueryError(f"unknown method {method!r}; choose one of {METHODS}")
    ranking = ranking or SumRanking()

    if isinstance(query, UnionQuery):
        if method != "auto":
            raise QueryError("union queries dispatch per-branch; use method='auto'")
        return QueryPlan(query, ranking, method, "union", kwargs=kwargs)

    acyclic = Hypergraph(query.edge_map()).is_acyclic()

    if method == "ghd" or (method == "auto" and not acyclic):
        ghd = kwargs.pop("ghd", None)
        if ghd is None:
            from ..query.ghd import find_ghd

            ghd = find_ghd(query)
        return QueryPlan(
            query, ranking, method, "cyclic", acyclic=acyclic, ghd=ghd, kwargs=kwargs
        )
    if not acyclic:
        raise QueryError(f"method {method!r} requires an acyclic query")

    if method == "star" or (method == "auto" and (epsilon is not None or delta is not None)):
        star_query_shape(query)  # raises NotAStarQueryError on a mismatch
        return QueryPlan(
            query,
            ranking,
            method,
            "star",
            epsilon=epsilon,
            delta=delta,
            kwargs=kwargs,
        )

    kind = (
        "lex"
        if method == "lex-backtrack"
        or (method == "auto" and isinstance(ranking, LexRanking))
        else "acyclic"
    )
    join_tree = kwargs.pop("join_tree", None)
    if join_tree is None:
        from ..query.jointree import build_join_tree

        join_tree = build_join_tree(query, root=kwargs.get("root"))
    return QueryPlan(
        query, ranking, method, kind, join_tree=join_tree, kwargs=kwargs
    )


def create_enumerator(
    query: JoinProjectQuery | UnionQuery,
    db: Database,
    ranking: RankingFunction | None = None,
    *,
    method: str = "auto",
    epsilon: float | None = None,
    delta: int | None = None,
    **kwargs: Any,
) -> RankedEnumeratorBase:
    """Build the appropriate ranked enumerator for a query.

    Exactly ``plan_query(...).instantiate(db)``: a fresh one-shot
    enumerator whose iteration yields distinct answers in rank order
    under the delay guarantee of the selected family (see
    :func:`plan_query`).  Use :class:`repro.engine.QueryEngine` instead
    when executing more than one query against the same data — it
    caches the plan half of this call.

    Parameters
    ----------
    query:
        A :class:`JoinProjectQuery` or :class:`UnionQuery`.
    db:
        The database instance.
    ranking:
        Ranking function; default ascending SUM with identity weights.
    method:
        One of :data:`METHODS`; ``"auto"`` picks per the table above.
    epsilon / delta:
        Star-tradeoff knobs; supplying either selects the star structure
        for star-shaped queries (Theorem 2).
    kwargs:
        Forwarded to the selected enumerator (``root``, ``join_tree``,
        ``dedup_inserts``, ``order``, ``descending``, ``ghd``, ...).
    """
    plan = plan_query(
        query, ranking, method=method, epsilon=epsilon, delta=delta, **kwargs
    )
    return plan.instantiate(db)


def enumerate_ranked(
    query: JoinProjectQuery | UnionQuery,
    db: Database,
    ranking: RankingFunction | None = None,
    *,
    k: int | None = None,
    method: str = "auto",
    **kwargs: Any,
) -> list[RankedAnswer]:
    """One-call ranked enumeration: ``SELECT DISTINCT .. ORDER BY .. LIMIT k``.

    Returns the first ``k`` answers (all of them when ``k is None``) in
    rank order without duplicates.

    Examples
    --------
    >>> from repro.data import Database
    >>> from repro.query import parse_query
    >>> db = Database()
    >>> _ = db.add_relation("R", ("a", "b"), [(1, 10), (2, 10), (3, 99)])
    >>> q = parse_query("Q(a1, a2) :- R(a1, p), R(a2, p)")
    >>> [a.values for a in enumerate_ranked(q, db, k=3)]
    [(1, 1), (1, 2), (2, 1)]
    """
    enum = create_enumerator(query, db, ranking, method=method, **kwargs)
    if k is None:
        return enum.all()
    return enum.top_k(k)
