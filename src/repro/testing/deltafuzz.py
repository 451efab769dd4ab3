"""Seeded mutation fuzzer for incremental delta maintenance.

One long-lived :class:`~repro.engine.QueryEngine` is driven through a
randomized interleaving of appends, deletes and ranked queries.  Every
query is shadow-checked: the live engine's top-k (values *and* scores,
in order) must be bit-identical to a fresh engine built cold from the
database's current contents.  The live engine serves them from warm
state rebuilt over delta-maintained scan views and encoded images, and
from ranked state carried over each write: every query runs twice, so
the second run restarts from the state the first one kept, and a
stream op opens a stream before the next write and drains it after,
against the shadow taken when it was opened.  A fresh op runs the query
under two new ranking objects, so two new plans: both must find the
query's one data state for the current data, built at most once since
the last write.  The shadow check cannot tell and must never need to.

Everything is derived deterministically from an integer seed, so a
failure is a one-line repro.  On divergence the failing schedule is
greedily shrunk — ops dropped one at a time while the failure persists,
then unused initial rows — and reported as a
:class:`FuzzFailure` whose ``str()`` is the minimal schedule plus the
seed that produced it.

Entry points: :func:`fuzz` (used by ``repro fuzz-deltas`` and the
``tests/fuzz_deltas.py`` smoke wrapper), :func:`generate_case` /
:func:`run_case` / :func:`shrink_case` for one case at a time.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from ..core.ranking import LexRanking, RankingFunction, SumRanking
from ..data import Database
from ..engine import QueryEngine
from ..query import parse_query

__all__ = ["FuzzFailure", "FuzzCase", "fuzz", "generate_case", "run_case", "shrink_case"]

SHAPES = {
    "acyclic": "Q(a, d) :- R(a, b), S(b, c), T(c, d)",
    "star": "Q(x0, x1, x2) :- R(x0, b), R(x1, b), R(x2, b)",
    "cyclic": "Q(x, y) :- R(x, y), S(y, z), T(z, x)",
}
RANKINGS = {"sum": SumRanking, "lex": LexRanking}

DOMAIN = 4
MAX_INITIAL_ROWS = 8
MIN_OPS, MAX_OPS = 6, 14
K_CHOICES = (1, 10, 100)

#: Schedule ops, all value-level so a case prints as a repro:
#: ``("append", relation, rows)``, ``("delete", relation, row)``,
#: ``("query", ranking, k)``, ``("fresh", ranking, k)``: the query under
#: new ranking objects, and ``("stream", ranking, k, primed)``: a
#: stream opened there (after its first answer when ``primed``) and
#: drained after the next write, or at the end.
Op = tuple


@dataclass
class FuzzCase:
    """One deterministic (database, write-schedule) instance."""

    seed: int
    shape: str
    encode: bool
    relations: dict[str, list[tuple]]
    schedule: list[Op]

    @property
    def query_text(self) -> str:
        return SHAPES[self.shape]


@dataclass
class FuzzFailure:
    """A shadow-check divergence, with enough to reproduce it."""

    case: FuzzCase
    op_index: int
    got: list
    expected: list
    shrunk: "FuzzCase | None" = field(default=None)

    def __str__(self) -> str:
        case = self.shrunk or self.case
        lines = [
            f"delta fuzzer divergence (seed {self.case.seed})",
            f"  query:  {case.query_text}",
            f"  encode: {case.encode}",
            "  initial rows:",
        ]
        for name, rows in sorted(case.relations.items()):
            lines.append(f"    {name}: {rows}")
        lines.append("  minimal schedule:" if self.shrunk else "  schedule:")
        for op in case.schedule:
            lines.append(f"    {op}")
        lines.append(f"  live engine returned: {self.got}")
        lines.append(f"  cold rebuild returns: {self.expected}")
        lines.append(
            f"  repro: python -m repro fuzz-deltas --seed {self.case.seed} --rounds 1"
        )
        return "\n".join(lines)


def _random_row(arity: int, rng: random.Random) -> tuple:
    return tuple(rng.randint(0, DOMAIN) for _ in range(arity))


def generate_case(seed: int) -> FuzzCase:
    """The deterministic case for one seed."""
    rng = random.Random(f"deltafuzz/{seed}")
    shape = rng.choice(sorted(SHAPES))
    query = parse_query(SHAPES[shape])
    arities = {
        atom.relation: len(atom.variables) for atom in query.atoms
    }
    relations = {
        name: [
            _random_row(arity, rng)
            for _ in range(rng.randint(0, MAX_INITIAL_ROWS))
        ]
        for name, arity in sorted(arities.items())
    }
    # Generate the schedule against simulated contents so deletes always
    # target rows that exist at that point of the run.
    contents = {name: list(rows) for name, rows in relations.items()}
    schedule: list[Op] = []
    for _ in range(rng.randint(MIN_OPS, MAX_OPS)):
        kind = rng.randrange(6)
        name = rng.choice(sorted(contents))
        if kind <= 1:  # append burst
            rows = [
                _random_row(arities[name], rng)
                for _ in range(rng.randint(1, 3))
            ]
            contents[name].extend(rows)
            schedule.append(("append", name, tuple(rows)))
        elif kind == 2 and contents[name]:
            row = rng.choice(contents[name])
            contents[name] = [r for r in contents[name] if r != row]
            schedule.append(("delete", name, row))
        elif kind == 3:
            schedule.append(
                (
                    "stream",
                    rng.choice(sorted(RANKINGS)),
                    rng.choice(K_CHOICES),
                    rng.random() < 0.5,
                )
            )
        else:
            schedule.append(
                (
                    "fresh" if kind == 5 else "query",
                    rng.choice(sorted(RANKINGS)),
                    rng.choice(K_CHOICES),
                )
            )
    schedule.append(("query", rng.choice(sorted(RANKINGS)), rng.choice(K_CHOICES)))
    return FuzzCase(seed, shape, rng.random() < 0.5, relations, schedule)


def _answers(engine: QueryEngine, query, ranking: RankingFunction, k: int):
    return [(a.values, a.score) for a in engine.execute(query, ranking, k=k)]


def _shadow(db: Database, case: FuzzCase, query, rank_name: str, k: int):
    """Top-k of a fresh engine over a copy of ``db``'s current contents."""
    shadow = Database()
    for rel in db:
        shadow.add_relation(rel.name, rel.attrs, list(rel))
    return _answers(
        QueryEngine(shadow, encode=case.encode), query, RANKINGS[rank_name](), k
    )


def run_case(case: FuzzCase) -> FuzzFailure | None:
    """Replay one case; the first shadow-check divergence, or ``None``."""
    db = Database()
    for name, rows in sorted(case.relations.items()):
        arity = len(rows[0]) if rows else len(
            next(
                a.variables
                for a in parse_query(case.query_text).atoms
                if a.relation == name
            )
        )
        db.add_relation(name, tuple(f"c{i}" for i in range(arity)), rows)
    query = parse_query(case.query_text)
    engine = QueryEngine(db, encode=case.encode)
    # One ranking instance per name: plans cache by ranking identity, so
    # fresh instances per query would sidestep the warm path under test.
    rankings = {name: cls() for name, cls in RANKINGS.items()}
    # Streams opened and not drained yet: (op index, answers, k,
    # the rest of the stream, its shadow).
    open_streams: list[tuple] = []
    # Has the engine run the query since the last write?  Then the data
    # state for the current data exists already.
    ran = False

    def drain() -> FuzzFailure | None:
        for index, got, k, rest, expected in open_streams:
            got += [(a.values, a.score) for a in itertools.islice(rest, k - len(got))]
            if got != expected:
                return FuzzFailure(case, index, got, expected)
        open_streams.clear()
        return None

    for index, op in enumerate(case.schedule):
        if op[0] in ("append", "delete"):
            if op[0] == "append":
                db[op[1]].add_rows(list(op[2]))
            else:
                db[op[1]].remove(op[2])
            ran = False
            failure = drain()
            if failure is not None:
                return failure
            continue
        if op[0] == "stream":
            _, rank_name, k, primed = op
            expected = _shadow(db, case, query, rank_name, k)
            rest = iter(engine.stream(query, rankings[rank_name]))
            got = [(a.values, a.score) for a in itertools.islice(rest, int(primed))]
            open_streams.append((index, got, k, rest, expected))
        elif op[0] == "fresh":
            _, rank_name, k = op
            expected = _shadow(db, case, query, rank_name, k)
            builds = engine.stats.data_builds
            states = []
            for _ in range(2):
                ranking = RANKINGS[rank_name]()
                got = _answers(engine, query, ranking, k)
                if got != expected:
                    return FuzzFailure(case, index, got, expected)
                states.append(engine.prepare(query, ranking).data_state)
            shared = [
                ("data_builds", engine.stats.data_builds - builds),
                ("one state", states[0] is states[1]),
            ]
            wanted = [("data_builds", 0 if ran else 1), ("one state", True)]
            if shared != wanted:
                return FuzzFailure(case, index, shared, wanted)
        else:
            _, rank_name, k = op
            expected = _shadow(db, case, query, rank_name, k)
            # The second run restarts from the ranked state the first
            # one kept (or carried over from before the last write).
            for _ in range(2):
                got = _answers(engine, query, rankings[rank_name], k)
                if got != expected:
                    return FuzzFailure(case, index, got, expected)
        ran = True
    return drain()


def _still_fails(case: FuzzCase) -> bool:
    return run_case(case) is not None


def shrink_case(case: FuzzCase) -> FuzzCase:
    """Greedily minimise a failing case (ops first, then initial rows).

    Drops one schedule op / one initial row at a time, keeping every
    removal that preserves the failure, until a fixpoint.  The result
    still fails (it is only ever replaced by failing variants).
    """
    current = case
    changed = True
    while changed:
        changed = False
        for i in range(len(current.schedule) - 1, -1, -1):
            trial = FuzzCase(
                current.seed,
                current.shape,
                current.encode,
                {n: list(r) for n, r in current.relations.items()},
                current.schedule[:i] + current.schedule[i + 1 :],
            )
            if trial.schedule and _still_fails(trial):
                current = trial
                changed = True
        for name in sorted(current.relations):
            for j in range(len(current.relations[name]) - 1, -1, -1):
                relations = {n: list(r) for n, r in current.relations.items()}
                del relations[name][j]
                trial = FuzzCase(
                    current.seed,
                    current.shape,
                    current.encode,
                    relations,
                    list(current.schedule),
                )
                if _still_fails(trial):
                    current = trial
                    changed = True
    return current


def fuzz(
    *,
    seed: int = 0,
    rounds: int = 200,
    time_budget: float | None = None,
    on_progress: Callable[[int, int], None] | None = None,
) -> FuzzFailure | None:
    """Run ``rounds`` seeded cases starting at ``seed``.

    Returns the first divergence — already shrunk — or ``None``.  A
    ``time_budget`` (seconds) stops early without failing; cases are
    independent, so a clean partial sweep is still a clean sweep of the
    seeds it covered.
    """
    started = time.monotonic()
    for i in range(rounds):
        if time_budget is not None and time.monotonic() - started > time_budget:
            break
        if on_progress is not None:
            on_progress(i, rounds)
        failure = run_case(generate_case(seed + i))
        if failure is not None:
            failure.shrunk = shrink_case(failure.case)
            return failure
    return None
