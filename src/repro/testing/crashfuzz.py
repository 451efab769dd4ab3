"""Seeded crash-recovery fuzzer for the write-ahead delta journal.

Each round builds a snapshot-backed durable database
(:func:`repro.open_durable`), drives it through a randomized schedule
of append bursts, deletes and checkpoints, then simulates kill -9 at
seeded byte offsets into the journal — including offsets that land in
the middle of a record, the torn-write case.  For every kill point the
directory is copied, the journal copy truncated to the offset, and the
copy reopened through :func:`repro.open_database`; the recovered
database must be **bit-identical** (row-for-row, and in its ranked
top-k answers) to a cold rebuild that applies exactly the acknowledged
prefix — the ops whose journal record was fully on disk at the kill
point.  Nothing acknowledged may be lost; nothing torn may leak in.

Everything derives deterministically from an integer seed, so a failure
is a one-line repro.  On divergence the failing schedule is greedily
shrunk (ops, then initial rows) while any kill point still fails, and
reported as a :class:`CrashFailure`.

Entry points: :func:`fuzz_crashes` (used by ``repro fuzz-crashes`` and
the CI ``recovery-smoke`` job), :func:`generate_case` /
:func:`run_case` / :func:`shrink_case` for one case at a time.

Requires NumPy (snapshot *saving* does); :func:`fuzz_crashes` raises
:class:`~repro.errors.ReproError` without it so callers can skip.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

from ..data import Database
from ..errors import ReproError
from ..query import parse_query
from ..storage import kernels
from ..storage.journal import journal_path, open_durable
from ..storage.persist import open_database, save_snapshot

__all__ = [
    "CrashCase",
    "CrashFailure",
    "fuzz_crashes",
    "generate_case",
    "run_case",
    "shrink_case",
]

QUERY = "Q(a, c) :- R(a, b), S(b, c)"

DOMAIN = 5
MAX_INITIAL_ROWS = 8
MIN_OPS, MAX_OPS = 4, 10
KILLS_PER_CASE = 3

#: Schedule ops, all value-level so a case prints as a repro:
#: ``("append", relation, rows)``, ``("delete", relation, row)``,
#: ``("checkpoint",)``.
Op = tuple


@dataclass
class CrashCase:
    """One deterministic (snapshot, write-schedule, kill-points) instance."""

    seed: int
    relations: dict[str, list[tuple]]
    schedule: list[Op]
    kills: int = KILLS_PER_CASE


@dataclass
class CrashFailure:
    """A recovery divergence, with enough to reproduce it."""

    case: CrashCase
    offset: int
    journal_bytes: int
    detail: str
    shrunk: "CrashCase | None" = field(default=None)

    def __str__(self) -> str:
        case = self.shrunk or self.case
        lines = [
            f"crash fuzzer divergence (seed {self.case.seed})",
            f"  kill offset: byte {self.offset} of a "
            f"{self.journal_bytes}-byte journal",
            "  initial rows:",
        ]
        for name, rows in sorted(case.relations.items()):
            lines.append(f"    {name}: {rows}")
        lines.append("  minimal schedule:" if self.shrunk else "  schedule:")
        for op in case.schedule:
            lines.append(f"    {op}")
        lines.append(f"  {self.detail}")
        lines.append(
            f"  repro: python -m repro fuzz-crashes --seed {self.case.seed} "
            "--rounds 1"
        )
        return "\n".join(lines)


def _random_row(rng: random.Random) -> tuple:
    return (rng.randint(0, DOMAIN), rng.randint(0, DOMAIN))


def generate_case(seed: int) -> CrashCase:
    """The deterministic case for one seed."""
    rng = random.Random(f"crashfuzz/{seed}")
    relations = {
        name: [
            _random_row(rng) for _ in range(rng.randint(1, MAX_INITIAL_ROWS))
        ]
        for name in ("R", "S")
    }
    # Generate against simulated contents so deletes target rows that
    # exist at that point of the run.
    contents = {name: list(rows) for name, rows in relations.items()}
    schedule: list[Op] = []
    for _ in range(rng.randint(MIN_OPS, MAX_OPS)):
        kind = rng.randrange(6)
        name = rng.choice(sorted(contents))
        if kind <= 2:  # append burst
            rows = [_random_row(rng) for _ in range(rng.randint(1, 3))]
            contents[name].extend(rows)
            schedule.append(("append", name, tuple(rows)))
        elif kind <= 4 and contents[name]:
            row = rng.choice(contents[name])
            contents[name] = [r for r in contents[name] if r != row]
            schedule.append(("delete", name, row))
        else:
            schedule.append(("checkpoint",))
    if not any(op[0] != "checkpoint" for op in schedule):
        schedule.append(("append", "R", (_random_row(rng),)))
    return CrashCase(seed, relations, schedule)


def _build_database(relations: dict[str, list[tuple]]) -> Database:
    db = Database()
    attrs = {"R": ("a", "b"), "S": ("b", "c")}
    for name in ("R", "S"):
        db.add_relation(name, attrs[name], list(relations.get(name, ())))
    return db


def _apply(db: Database, op: Op) -> None:
    if op[0] == "append":
        db[op[1]].add_rows(list(op[2]))
    elif op[0] == "delete":
        db[op[1]].remove(op[2])


def _answers(db: Database, k: int = 8) -> list:
    from ..core import enumerate_ranked

    query = parse_query(QUERY)
    return [(a.values, a.score) for a in enumerate_ranked(query, db, k=k)]


def _state(db: Database) -> dict[str, list[tuple]]:
    return {rel.name: list(rel) for rel in db}


def run_case(case: CrashCase) -> CrashFailure | None:
    """Replay one case; the first recovery divergence, or ``None``.

    Builds the journaled directory once, then for each seeded kill
    offset copies it, truncates the journal copy (the crash image a
    kill -9 mid-append leaves behind) and shadow-checks the reopened
    copy against a cold rebuild of the acknowledged prefix.
    """
    root = tempfile.mkdtemp(prefix="crashfuzz-")
    try:
        work = os.path.join(root, "work")
        save_snapshot(_build_database(case.relations), work)
        durable = open_durable(work)
        # ``base``: schedule prefix already folded into the snapshot by
        # the latest checkpoint; ``post``: (ack-offset, op) pairs whose
        # records live in the current journal.
        base: list[Op] = []
        post: list[tuple[int, Op]] = []
        applied: list[Op] = []
        with durable:
            for op in case.schedule:
                if op[0] == "append":
                    durable.append(op[1], list(op[2]))
                    post.append((durable.journal_bytes, op))
                elif op[0] == "delete":
                    durable.delete(op[1], op[2])
                    post.append((durable.journal_bytes, op))
                else:
                    durable.checkpoint()
                    base = base + [op for _, op in post]
                    post = []
            final = durable.journal_bytes
        rng = random.Random(f"crashfuzz/{case.seed}/kills")
        offsets = sorted(
            {final} | {rng.randint(0, final) for _ in range(case.kills)}
        )
        for index, offset in enumerate(offsets):
            crash = os.path.join(root, f"crash-{index}")
            shutil.copytree(work, crash)
            with open(journal_path(crash), "r+b") as handle:
                handle.truncate(offset)
            acked = base + [op for end, op in post if end <= offset]
            cold = _build_database(case.relations)
            for op in acked:
                _apply(cold, op)
            recovered = open_database(crash)
            got, expected = _state(recovered), _state(cold)
            if got != expected:
                return CrashFailure(
                    case,
                    offset,
                    final,
                    f"recovered rows {got} != acknowledged prefix {expected}",
                )
            got_k, expected_k = _answers(recovered), _answers(cold)
            if got_k != expected_k:
                return CrashFailure(
                    case,
                    offset,
                    final,
                    f"recovered top-k {got_k} != cold rebuild {expected_k}",
                )
        return None
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _still_fails(case: CrashCase) -> bool:
    return run_case(case) is not None


def shrink_case(case: CrashCase) -> CrashCase:
    """Greedily minimise a failing case (ops first, then initial rows)."""
    current = case
    changed = True
    while changed:
        changed = False
        for i in range(len(current.schedule) - 1, -1, -1):
            trial = CrashCase(
                current.seed,
                {n: list(r) for n, r in current.relations.items()},
                current.schedule[:i] + current.schedule[i + 1 :],
                current.kills,
            )
            if trial.schedule and _still_fails(trial):
                current = trial
                changed = True
        for name in sorted(current.relations):
            for j in range(len(current.relations[name]) - 1, -1, -1):
                relations = {n: list(r) for n, r in current.relations.items()}
                del relations[name][j]
                trial = CrashCase(
                    current.seed, relations, list(current.schedule), current.kills
                )
                if _still_fails(trial):
                    current = trial
                    changed = True
    return current


def fuzz_crashes(
    *,
    seed: int = 0,
    rounds: int = 200,
    time_budget: float | None = None,
    on_progress: Callable[[int, int], None] | None = None,
) -> CrashFailure | None:
    """Run ``rounds`` seeded kill-point schedules starting at ``seed``.

    Returns the first divergence — already shrunk — or ``None``.  A
    ``time_budget`` (seconds) stops early without failing; cases are
    independent, so a clean partial sweep is still a clean sweep of the
    seeds it covered.
    """
    if not kernels.HAS_NUMPY:
        raise ReproError(
            "crash fuzzing builds snapshots, which requires NumPy; "
            "this interpreter has none"
        )
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
