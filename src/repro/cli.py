"""Command-line interface: ranked enumeration over CSV data.

Usage (also via ``python -m repro``)::

    repro "Q(a1, a2) :- E(a1, p), E(a2, p)" --data ./csvdir --k 10
    repro "Q(x, y) :- E(x, p), E(y, p)" --data ./csvdir \\
          --rank lex --desc x --explain
    repro --repl --data ./csvdir --k 10 < queries.txt

* ``--data DIR`` loads every ``*.csv`` in the directory as one relation
  each (header row = column names);
* the query is the library's Datalog-style syntax (self-joins, numeric
  or quoted-string selections, ``;``-separated unions);
* ``--rank sum|lex|min|max|avg|product`` with optional ``--weights
  table.csv`` (two columns: value, weight) and ``--desc`` attributes;
* ``--explain`` prints the chosen algorithm, the query class and the
  paper's delay guarantee instead of running the query;
* ``--repl`` reads queries from stdin (one per line) and executes them
  through a shared :class:`~repro.engine.QueryEngine` session, so
  repeated queries reuse cached plans; ``:stats`` prints the engine
  counters, ``:explain <query>`` the plan, ``:quit`` exits;
* ``--stats`` prints timing plus the engine's cache hit/miss counters,
  the per-phase (reduce/build/enumerate) timing split, and the
  vectorised-enumeration counter (``batched_combines``);
* ``--format csv|json|table`` picks the result serialisation: CSV rows
  (default), one JSON document (for benchmarks and downstream tools),
  or an aligned human-readable table.

Two subcommands front the service layer (:mod:`repro.service`)::

    repro serve --data ./csvdir --port 7461
    repro query --connect localhost:7461 "Q(x, y) :- E(x, p), E(y, p)" \\
          --rank sum --k 100 --page 25

``repro serve`` runs the asyncio ranked-query server over one shared
session engine; ``repro query --connect`` opens a server-side cursor
and pages through ranked answers (same output formats as local runs),
or ``--one-shot`` for a single eager execute.

Persistence (:mod:`repro.storage.persist`)::

    repro save --data ./csvdir --out ./snap
    repro "Q(a1, a2) :- E(a1, p), E(a2, p)" --data-snapshot ./snap --k 10
    repro serve --data-snapshot ./snap --port 7461

``repro save`` writes the loaded instance as an on-disk snapshot;
``--data-snapshot`` (here and on ``repro serve``) reopens it
memory-mapped, skipping CSV parsing and dictionary building entirely —
the session starts warm off the snapshot files.

All execution goes through the session engine: even one-shot queries
are served by a :class:`~repro.engine.QueryEngine`, which is also the
recommended library surface for repeated-query workloads.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Sequence, TextIO

from .core.planner import METHODS
from .core.ranking import (
    AvgRanking,
    LexRanking,
    MaxRanking,
    MinRanking,
    ProductRanking,
    RankingFunction,
    SumRanking,
    TableWeight,
    WeightFunction,
)
from .data.loader import load_database_dir, parse_value
from .engine import QueryEngine
from .errors import ReproError

__all__ = ["main", "build_parser"]

_RANKINGS = {
    "sum": SumRanking,
    "avg": AvgRanking,
    "min": MinRanking,
    "max": MaxRanking,
    "product": ProductRanking,
    "lex": LexRanking,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ranked enumeration of join-project queries over CSV data "
        "(Deep, Hu & Koutris, VLDB 2022).",
    )
    parser.add_argument(
        "query",
        nargs="?",
        default=None,
        help="Datalog-style query, e.g. 'Q(x,y) :- E(x,p), E(y,p)' "
        "(omit with --repl to read queries from stdin)",
    )
    parser.add_argument("--data", default=None, help="directory of <relation>.csv files")
    parser.add_argument(
        "--data-snapshot",
        default=None,
        metavar="DIR",
        help="snapshot directory written by 'repro save'; reopened memory-mapped "
        "for an instantly warm session (alternative to --data)",
    )
    parser.add_argument("--k", type=int, default=None, help="LIMIT k (default: all answers)")
    parser.add_argument(
        "--rank", choices=sorted(_RANKINGS), default="sum", help="ranking function"
    )
    parser.add_argument(
        "--weights",
        default=None,
        help="CSV of value,weight pairs used as w(v) for every head attribute "
        "(default: values are their own weights)",
    )
    parser.add_argument(
        "--desc",
        nargs="*",
        default=None,
        metavar="VAR",
        help="descending attributes (LEX) / flag for descending order (aggregates: "
        "pass with no VAR to flip the whole order)",
    )
    parser.add_argument(
        "--method", choices=METHODS, default="auto", help="force a specific algorithm"
    )
    parser.add_argument(
        "--epsilon", type=float, default=None, help="star-query tradeoff knob in [0,1]"
    )
    parser.add_argument(
        "--repl",
        action="store_true",
        help="multi-query mode: read queries from stdin (one per line) through a "
        "shared session engine with plan caching",
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json", "table"),
        default="csv",
        help="result output format: csv (default, machine-readable), json "
        "(one document with head/answers/score per answer), or table "
        "(aligned human-readable columns)",
    )
    parser.add_argument("--explain", action="store_true", help="print the plan and exit")
    parser.add_argument(
        "--stats", action="store_true", help="print timing, cache and data-structure stats"
    )
    parser.add_argument(
        "--no-header", action="store_true", help="omit the header row of the output"
    )
    return parser


def _load_weight_table(path: str) -> WeightFunction:
    table = {}
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 2:
                raise ReproError(f"{path}:{lineno}: expected 'value,weight' rows")
            table[parse_value(row[0])] = float(row[1])
    return TableWeight({}, default_table=table)


def _build_ranking(args: argparse.Namespace) -> RankingFunction:
    weight = _load_weight_table(args.weights) if args.weights else None
    descending = args.desc  # None = flag absent; [] = bare flag; [vars] = per-attr
    if args.rank == "lex":
        return LexRanking(weight=weight, descending=tuple(descending or ()))
    cls = _RANKINGS[args.rank]
    kwargs = {"descending": descending is not None}
    if weight is not None:
        return cls(weight, **kwargs)
    return cls(**kwargs)


def _print_explain(engine: QueryEngine, query: str, ranking, args) -> None:
    info = engine.explain(query, ranking, method=args.method, epsilon=args.epsilon)
    print(f"query class : {info['query class']}")
    print(f"algorithm   : {info['algorithm']}")
    print(f"plan        : {info['plan']}")
    print(f"ranking     : {info['ranking']}")
    print(f"guarantee   : {info['guarantee']}")
    print(f"|D|         : {info['|D|']}")
    if info["cached plan"]:
        print("plan cache  : hit")


def _run_one(engine: QueryEngine, query_text: str, ranking, args) -> None:
    """Execute one query through the engine and write CSV to stdout."""
    started = time.perf_counter()
    parsed = engine.parse(query_text)
    answers = engine.execute(
        parsed, ranking, k=args.k, method=args.method, epsilon=args.epsilon
    )
    elapsed = time.perf_counter() - started

    _write_answers(sys.stdout, parsed.head, answers, args)

    if args.stats:
        print(f"# {len(answers)} answers in {elapsed:.4f}s", file=sys.stderr)
        enum = engine.last_enumerator
        stats = getattr(enum, "stats", None)
        if stats is not None:
            snap = stats.snapshot()
            print(f"# stats: {snap}", file=sys.stderr)
            if "reduce_seconds" in snap:
                print(
                    "# phases: reduce={reduce_seconds:.6f}s "
                    "build={build_seconds:.6f}s "
                    "enumerate={enumerate_seconds:.6f}s".format(**snap),
                    file=sys.stderr,
                )
        print(
            f"# vectorised: batched_combines={engine.stats.batched_combines}",
            file=sys.stderr,
        )


def _json_value(value):
    """JSON-safe view of an answer component (tuples become lists)."""
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _write_answers(out: TextIO, head: Sequence[str], answers, args) -> None:
    """Serialise one result set in the requested ``--format``.

    ``csv`` is the machine-readable default (one row per answer, score
    last); ``json`` emits a single document benchmarks and downstream
    tools can load without parsing a table; ``table`` prints aligned
    columns for humans.  ``--no-header`` drops the csv header row and
    the table rule line.
    """
    if args.format == "json":
        doc = {
            "head": list(head),
            "answers": [
                {
                    "values": _json_value(answer.values),
                    "score": _json_value(answer.score),
                }
                for answer in answers
            ],
            "count": len(answers),
        }
        json.dump(doc, out, indent=2, sort_keys=False)
        out.write("\n")
        return
    if args.format == "table":
        header = list(head) + ["score"]
        rows = [
            [str(v) for v in answer.values] + [str(answer.score)]
            for answer in answers
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        if not args.no_header:
            out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
            out.write("  ".join("-" * w for w in widths) + "\n")
        for r in rows:
            out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
        return
    writer = csv.writer(out)
    if not args.no_header:
        writer.writerow(list(head) + ["score"])
    for answer in answers:
        writer.writerow(list(answer.values) + [answer.score])


def _print_engine_stats(engine: QueryEngine) -> None:
    snap = engine.stats.snapshot()
    per_query = snap.pop("per_query")
    print(f"# engine: {snap}", file=sys.stderr)
    for name, timing in per_query.items():
        print(f"# engine[{name}]: {timing}", file=sys.stderr)


def _repl(engine: QueryEngine, ranking, args, stream: TextIO) -> int:
    """Read queries from ``stream`` (one per line) against one session.

    Lines starting with ``#`` and blank lines are skipped.  ``:stats``
    prints the engine counters, ``:explain <query>`` the plan for a
    query, ``:quit`` / ``:q`` ends the session.  Errors are reported
    per line without ending the session.
    """
    exit_code = 0
    for raw in stream:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in (":quit", ":q", ":exit"):
            break
        try:
            if line == ":stats":
                _print_engine_stats(engine)
            elif line.startswith(":explain"):
                _print_explain(engine, line[len(":explain") :].strip(), ranking, args)
            else:
                _run_one(engine, line, ranking, args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            exit_code = 2
    if args.stats:
        _print_engine_stats(engine)
    return exit_code


# --------------------------------------------------------------------- #
# service subcommands: ``repro serve`` / ``repro query --connect``
# --------------------------------------------------------------------- #
class _RemoteAnswer:
    """Adapter giving wire answers the ``.values`` / ``.score`` shape
    that :func:`_write_answers` (and the library) use."""

    __slots__ = ("values", "score")

    def __init__(self, values, score):
        self.values = values
        self.score = score


def _parse_endpoint(spec: str) -> tuple[str, int]:
    from .service import DEFAULT_PORT

    host, _, port = spec.rpartition(":")
    if not host:
        return spec, DEFAULT_PORT
    try:
        return host, int(port)
    except ValueError:
        raise ReproError(f"--connect expects HOST[:PORT], got {spec!r}") from None


def _save_main(argv: Sequence[str]) -> int:
    """``repro save``: persist a CSV directory as a reopenable snapshot."""
    parser = argparse.ArgumentParser(
        prog="repro save",
        description="Load a CSV directory and write it as an on-disk snapshot "
        "that 'repro --data-snapshot' / 'repro serve --data-snapshot' reopen "
        "memory-mapped (instant warm starts, shared pages across workers).",
    )
    parser.add_argument("--data", required=True, help="directory of <relation>.csv files")
    parser.add_argument(
        "--out", required=True, metavar="DIR", help="snapshot directory to write"
    )
    args = parser.parse_args(argv)
    from .storage import save_snapshot

    try:
        db = load_database_dir(args.data)
        save_snapshot(db, args.out)
        print(f"saved {db.size} tuples over {len(db)} relations to {args.out}")
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _serve_main(argv: Sequence[str]) -> int:
    """``repro serve``: run the ranked-query service over a CSV directory."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve ranked enumeration over TCP (line-delimited JSON; "
        "see docs/service.md for the protocol).",
    )
    parser.add_argument("--data", default=None, help="directory of <relation>.csv files")
    parser.add_argument(
        "--data-snapshot",
        default=None,
        metavar="DIR",
        help="snapshot directory written by 'repro save' (alternative to --data); "
        "opened before the listener binds, so the first request is already warm",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=None, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--max-inflight", type=int, default=4, help="concurrent engine executions"
    )
    parser.add_argument(
        "--max-queue", type=int, default=256, help="admission queue bound (beyond: overloaded)"
    )
    parser.add_argument(
        "--max-live-cursors", type=int, default=64,
        help="cursors keeping live enumerator state (beyond: LRU eviction to replay)",
    )
    parser.add_argument(
        "--cursor-ttl", type=float, default=300.0, help="idle cursor time-to-live, seconds"
    )
    parser.add_argument(
        "--journal",
        action="store_true",
        help="durable mode (requires --data-snapshot): writes go through the "
        "write-ahead journal, open cursors survive a server restart, and a "
        "kill -9 loses no acknowledged write (see docs/recovery.md)",
    )
    args = parser.parse_args(argv)
    if (args.data is None) == (args.data_snapshot is None):
        parser.error("exactly one of --data or --data-snapshot is required")
    if args.journal and args.data_snapshot is None:
        parser.error("--journal requires --data-snapshot (the journal sits "
                     "beside the snapshot files)")
    from .service import DEFAULT_PORT, serve

    durable = None
    try:
        # Build the engine (and open the snapshot) *before* serve() binds
        # the listener: a bad path or refused snapshot fails fast instead
        # of accepting connections it can never answer.
        if args.journal:
            from .storage import open_durable

            durable = open_durable(args.data_snapshot)
            engine = QueryEngine(durable.db)
        elif args.data_snapshot is not None:
            engine = QueryEngine(args.data_snapshot)
        else:
            engine = QueryEngine(load_database_dir(args.data))
        serve(
            engine,
            host=args.host,
            port=DEFAULT_PORT if args.port is None else args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            max_live_cursors=args.max_live_cursors,
            cursor_ttl=args.cursor_ttl,
            durable=durable,
        )
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if durable is not None:
            durable.close()


def _fuzz_main(argv: Sequence[str]) -> int:
    """``repro fuzz-deltas``: shadow-check delta maintenance under writes."""
    parser = argparse.ArgumentParser(
        prog="repro fuzz-deltas",
        description="Fuzz incremental delta maintenance: drive one long-lived "
        "engine through seeded append/delete/query schedules and shadow-check "
        "every ranked answer against a cold rebuild (see docs/incremental.md).",
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed of the sweep")
    parser.add_argument("--rounds", type=int, default=500, help="number of seeded cases")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: bounded time budget (finishes well under 30s)",
    )
    args = parser.parse_args(argv)
    from .testing import fuzz

    rounds = min(args.rounds, 300) if args.quick else args.rounds
    budget = 20.0 if args.quick else None

    def progress(done: int, total: int) -> None:
        if done and done % 100 == 0:
            print(f"# {done}/{total} cases clean", file=sys.stderr)

    failure = fuzz(
        seed=args.seed, rounds=rounds, time_budget=budget, on_progress=progress
    )
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    print(f"fuzz-deltas: clean (seeds {args.seed}..{args.seed + rounds - 1})")
    return 0


def _fuzz_crashes_main(argv: Sequence[str]) -> int:
    """``repro fuzz-crashes``: shadow-check journal recovery under kill -9."""
    parser = argparse.ArgumentParser(
        prog="repro fuzz-crashes",
        description="Fuzz crash recovery: drive a journaled snapshot through "
        "seeded write schedules, truncate the journal at seeded kill points "
        "(including mid-record), reopen, and shadow-check the recovered "
        "database bit-identically against a cold rebuild of the acknowledged "
        "prefix (see docs/recovery.md).",
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed of the sweep")
    parser.add_argument(
        "--rounds", type=int, default=200, help="number of seeded kill-point schedules"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: bounded time budget (finishes well under 30s)",
    )
    args = parser.parse_args(argv)
    from .storage import kernels

    if not kernels.HAS_NUMPY:
        print("fuzz-crashes: skipped (snapshot saving requires NumPy)")
        return 0
    from .testing import fuzz_crashes

    rounds = min(args.rounds, 100) if args.quick else args.rounds
    budget = 20.0 if args.quick else None

    def progress(done: int, total: int) -> None:
        if done and done % 50 == 0:
            print(f"# {done}/{total} schedules clean", file=sys.stderr)

    failure = fuzz_crashes(
        seed=args.seed, rounds=rounds, time_budget=budget, on_progress=progress
    )
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    print(f"fuzz-crashes: clean (seeds {args.seed}..{args.seed + rounds - 1})")
    return 0


def _query_main(argv: Sequence[str]) -> int:
    """``repro query --connect``: page ranked answers from a running server."""
    parser = argparse.ArgumentParser(
        prog="repro query",
        description="Run a ranked query against a repro-service server, paging "
        "answers through a server-side cursor.",
    )
    parser.add_argument("query", help="Datalog-style query")
    parser.add_argument(
        "--connect", required=True, metavar="HOST[:PORT]", help="server endpoint"
    )
    parser.add_argument("--k", type=int, default=None, help="LIMIT k")
    parser.add_argument(
        "--rank", choices=sorted(_RANKINGS), default=None,
        help="ranking function (default: the server's default, SUM ascending)",
    )
    parser.add_argument(
        "--desc", nargs="*", default=None, metavar="VAR",
        help="descending attributes (LEX) / bare flag to flip aggregate order",
    )
    parser.add_argument(
        "--page", type=int, default=100, metavar="N", help="answers fetched per page"
    )
    parser.add_argument("--tenant", default="default", help="admission-control tenant id")
    parser.add_argument(
        "--one-shot", action="store_true",
        help="eager execute op instead of cursor paging",
    )
    parser.add_argument(
        "--format", choices=("csv", "json", "table"), default="csv",
        help="result output format",
    )
    parser.add_argument("--no-header", action="store_true", help="omit the header row")
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-request engine counters (kernel calls, score builds) to stderr",
    )
    args = parser.parse_args(argv)
    from .service import connect as service_connect
    from .service.protocol import decode_answers

    if args.rank == "lex":
        desc: object = list(args.desc or ())
    else:
        desc = args.desc is not None
    try:
        host, port = _parse_endpoint(args.connect)
        with service_connect(host, port, tenant=args.tenant) as client:
            if args.one_shot:
                payload = client.request(
                    "execute",
                    query=args.query,
                    k=args.k,
                    rank=args.rank,
                    desc=desc if args.rank else None,
                )
                head = payload["head"]
                rows = decode_answers(payload["answers"])
                if args.stats:
                    print(f"# stats: {payload.get('stats')}", file=sys.stderr)
            else:
                cursor = client.query(
                    args.query,
                    k=args.k,
                    rank=args.rank,
                    desc=desc if args.rank else None,
                )
                head = list(cursor.head)
                rows = []
                for page in cursor.pages(args.page):
                    rows.extend(page)
                    if args.stats:
                        print(
                            f"# page -> position={cursor.position} "
                            f"replays={cursor.replays} stats={cursor.last_stats}",
                            file=sys.stderr,
                        )
                cursor.close()
            answers = [_RemoteAnswer(values, score) for values, score in rows]
            _write_answers(sys.stdout, head, answers, args)
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "save":
        return _save_main(argv[1:])
    if argv and argv[0] == "query":
        return _query_main(argv[1:])
    if argv and argv[0] == "fuzz-deltas":
        return _fuzz_main(argv[1:])
    if argv and argv[0] == "fuzz-crashes":
        return _fuzz_crashes_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.query is None and not args.repl:
        parser.error("a query is required unless --repl is given")
    if args.repl and args.query is not None:
        parser.error("--repl reads queries from stdin; drop the positional query")
    if args.repl and args.explain:
        parser.error("--explain is per-query; use ':explain <query>' inside --repl")
    if (args.data is None) == (args.data_snapshot is None):
        parser.error("exactly one of --data or --data-snapshot is required")
    try:
        ranking = _build_ranking(args)
        if args.data_snapshot is not None:
            # The engine opens the snapshot memory-mapped and starts warm
            # (dictionary and code columns come straight off the files).
            engine = QueryEngine(args.data_snapshot)
        else:
            engine = QueryEngine(load_database_dir(args.data))

        if args.repl:
            return _repl(engine, ranking, args, sys.stdin)

        if args.explain:
            _print_explain(engine, args.query, ranking, args)
            return 0

        _run_one(engine, args.query, ranking, args)
        if args.stats:
            _print_engine_stats(engine)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
