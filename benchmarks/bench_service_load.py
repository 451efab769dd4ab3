"""Service-layer benchmark: cursor paging vs re-running, plus load p50/p99.

What the service layer is *for*, measured end to end over the real TCP
protocol against a live :class:`~repro.service.server.ReproServer`:

1. **Identity** — paging through a server-side cursor yields exactly the
   answers (values, scores, order) of a one-shot local
   :meth:`~repro.engine.QueryEngine.execute`, across rankings (SUM and
   LEX).  Every timing
   below is meaningless without this, so it runs first and hard-fails.
2. **Pagination economics** — the tentpole number: fetching answers
   1000–1100 from a *warm* cursor costs ~100 enumeration delays, a
   re-run from scratch costs preprocessing plus 1100 delays.  The gate
   requires the warm page under 10% of the cold re-run.
3. **Concurrent load** — many client threads issue mixed ops against a
   server with a small admission limit; per-request latencies are
   aggregated into p50/p99, and admission-control counters (queue
   depth peaks, rejections) are recorded alongside.

The dataset is synthesised inline (a two-hop join with numeric keys) so
this module depends on nothing beyond the library itself — the CI
``service-smoke`` job runs ``--quick`` with no extra installs.

Run:  PYTHONPATH=src python benchmarks/bench_service_load.py [--quick]

Results land in ``benchmarks/results/service_load.txt`` (human table)
and ``BENCH_service.json`` (machine-readable, with the gate verdict;
not rewritten under ``--quick``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.bench import format_table  # noqa: E402
from repro.core.ranking import LexRanking, SumRanking  # noqa: E402
from repro.data.database import Database  # noqa: E402
from repro.engine import QueryEngine  # noqa: E402
from repro.service import OverloadedError, ServerThread, connect  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RECORD_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_service.json")

QUERY = "q(a, c) :- r(a, b), s(b, c)"

#: The acceptance gate: warm-cursor page of answers 1000-1100 must cost
#: less than this fraction of the cold re-run that produces them.
TARGET_RATIO = 0.10


def build_database(n_left: int, n_right: int, fanout: int, seed: int) -> Database:
    """A two-hop join with numeric keys (so SUM and LEX both apply)."""
    rng = random.Random(seed)
    mids = max(n_left // fanout, 4)
    db = Database()
    db.add_relation(
        "r",
        ("a", "b"),
        [(rng.randrange(n_left * 10), rng.randrange(mids)) for _ in range(n_left)],
    )
    db.add_relation(
        "s",
        ("b", "c"),
        [(rng.randrange(mids), rng.randrange(n_right * 10)) for _ in range(n_right)],
    )
    return db


def _pairs(answers):
    return [(a.values, a.score) for a in answers]


# --------------------------------------------------------------------- #
# 1. identity: paged == one-shot, across rankings
# --------------------------------------------------------------------- #
def check_identity(engine: QueryEngine, handle: ServerThread, k: int, page: int):
    """Page every ranking's cursor and compare to local execute."""
    cases = []
    rankings = {"sum": SumRanking(), "lex": LexRanking()}
    for rank_name, ranking in rankings.items():
        local = _pairs(engine.execute(QUERY, ranking, k=k))
        with connect(handle.host, handle.port) as client:
            cursor = client.query(QUERY, rank=rank_name, k=k)
            paged = []
            for chunk in cursor.pages(page):
                paged.extend(chunk)
            cursor.close()
        if paged != local:
            raise SystemExit(
                f"FAIL: paged answers (rank={rank_name}) "
                "diverged from one-shot execute"
            )
        cases.append(
            {
                "rank": rank_name,
                "answers": len(paged),
                "page": page,
                "identical_to_execute": True,  # enforced above
            }
        )
    return cases


# --------------------------------------------------------------------- #
# 2. pagination economics: warm page vs cold re-run
# --------------------------------------------------------------------- #
def measure_pagination(handle: ServerThread, skip: int, page: int, repeats: int):
    """Best-of-``repeats``: fetch answers [skip, skip+page) both ways."""
    warm_best = cold_best = float("inf")
    warm_page = None
    with connect(handle.host, handle.port) as client:
        for _ in range(repeats):
            # Cold: one-shot execute of the first skip+page answers.
            started = time.perf_counter()
            cold = client.execute(QUERY, rank="sum", k=skip + page)
            cold_best = min(cold_best, time.perf_counter() - started)

            # Warm: a cursor already positioned at `skip` pays only the
            # enumeration delays of the page itself.
            cursor = client.query(QUERY, rank="sum")
            fetched = 0
            while fetched < skip:
                fetched += len(cursor.fetch(min(1000, skip - fetched)))
            started = time.perf_counter()
            warm = cursor.fetch(page)
            warm_seconds = time.perf_counter() - started
            cursor.close()
            if warm_seconds < warm_best:
                warm_best, warm_page = warm_seconds, warm
            if cold[skip : skip + page] != warm:
                raise SystemExit(
                    "FAIL: warm-cursor page != the same slice of the cold re-run"
                )
    return {
        "skip": skip,
        "page": page,
        "answers_in_page": len(warm_page or []),
        "warm_page_seconds": round(warm_best, 6),
        "cold_rerun_seconds": round(cold_best, 6),
        "ratio": round(warm_best / cold_best, 4) if cold_best else None,
    }


# --------------------------------------------------------------------- #
# 3. concurrent load: p50/p99 under admission control
# --------------------------------------------------------------------- #
def run_load(handle: ServerThread, clients: int, requests: int, k: int):
    """``clients`` threads x ``requests`` mixed ops; per-request latency."""
    latencies: list[float] = []
    rejected = [0]
    errors: list[str] = []
    lock = threading.Lock()

    def worker(worker_id: int) -> None:
        rng = random.Random(worker_id)
        try:
            with connect(
                handle.host, handle.port, tenant=f"tenant-{worker_id % 3}"
            ) as client:
                for _ in range(requests):
                    started = time.perf_counter()
                    try:
                        if rng.random() < 0.5:
                            client.execute(QUERY, rank="sum", k=k)
                        else:
                            cursor = client.query(QUERY, rank="sum", k=k)
                            cursor.fetch(k // 2 or 1)
                            cursor.fetch(k)
                            cursor.close()
                    except OverloadedError:
                        with lock:
                            rejected[0] += 1
                        continue
                    elapsed = time.perf_counter() - started
                    with lock:
                        latencies.append(elapsed)
        except Exception as exc:  # noqa: BLE001 - reported, fails the run
            with lock:
                errors.append(f"worker {worker_id}: {exc!r}")

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    if errors:
        raise SystemExit("FAIL: load workers errored: " + "; ".join(errors[:5]))
    if not latencies:
        raise SystemExit("FAIL: every load request was rejected")
    latencies.sort()

    def pct(p: float) -> float:
        return latencies[min(int(len(latencies) * p), len(latencies) - 1)]

    return {
        "clients": clients,
        "requests_per_client": requests,
        "completed": len(latencies),
        "rejected": rejected[0],
        "wall_seconds": round(wall, 4),
        "throughput_rps": round(len(latencies) / wall, 2) if wall else None,
        "p50_ms": round(pct(0.50) * 1e3, 3),
        "p99_ms": round(pct(0.99) * 1e3, 3),
        "mean_ms": round(statistics.fmean(latencies) * 1e3, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke: tiny data")
    parser.add_argument("--clients", type=int, default=None, help="load threads")
    parser.add_argument("--requests", type=int, default=None, help="ops per client")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=None,
        help="fail when warm-page/cold-rerun exceeds this "
        f"(default {TARGET_RATIO}; gate skipped under --quick)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n_left, n_right, fanout = 1500, 800, 12
        skip, page = 300, 60
        identity_k, load_k = 300, 20
        clients = args.clients or 4
        requests = args.requests or 4
        repeats = 2
    else:
        n_left, n_right, fanout = 12_000, 6_000, 16
        skip, page = 1000, 100
        identity_k, load_k = 2_000, 50
        clients = args.clients or 8
        requests = args.requests or 10
        repeats = 3

    db = build_database(n_left, n_right, fanout, seed=11)
    engine = QueryEngine(db)
    total = len(engine.execute(QUERY, SumRanking()))
    if total < skip + page:
        raise SystemExit(
            f"FAIL: workload too small ({total} answers < {skip + page}); "
            "raise the scale"
        )

    with ServerThread(
        engine, max_inflight=2, max_queue=64, max_live_cursors=32
    ) as handle:
        identity = check_identity(engine, handle, k=identity_k, page=97)
        pagination = measure_pagination(handle, skip=skip, page=page, repeats=repeats)
        load = run_load(handle, clients=clients, requests=requests, k=load_k)
        with connect(handle.host, handle.port) as client:
            server_stats = client.stats()

    max_ratio = args.max_ratio
    if max_ratio is None and not args.quick:
        max_ratio = TARGET_RATIO
    gate = {
        "target_ratio": max_ratio,
        "enforced": max_ratio is not None,
        "reason_skipped": None if max_ratio is not None else "quick mode",
    }

    rows = [
        (
            f"identity {c['rank']}",
            "-",
            "-",
            str(c["answers"]),
            "identical",
        )
        for c in identity
    ]
    rows.append(
        (
            f"warm page [{skip}:{skip + page}]",
            f"{pagination['warm_page_seconds']:.4f}",
            f"{pagination['ratio']:.1%} of cold",
            str(pagination["answers_in_page"]),
            "resumed heap",
        )
    )
    rows.append(
        (
            f"cold re-run k={skip + page}",
            f"{pagination['cold_rerun_seconds']:.4f}",
            "100%",
            str(skip + page),
            "(baseline)",
        )
    )
    rows.append(
        (
            f"load {clients}x{requests}",
            f"{load['wall_seconds']:.2f}",
            f"p50={load['p50_ms']}ms p99={load['p99_ms']}ms",
            str(load["completed"]),
            f"rejected={load['rejected']}",
        )
    )
    table = format_table(
        f"Service load [two-hop |D|={db.size}, answers={total}, "
        f"max_inflight=2, cores={os.cpu_count()}]",
        ("case", "seconds", "relative", "answers", "note"),
        rows,
        note="warm page = fetch on an open cursor; cold = one-shot execute over TCP",
    )
    print(table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "service_load.txt"), "w") as fh:
        fh.write(table + "\n")

    record = {
        "workload": "synthetic two-hop",
        "|D|": db.size,
        "answers": total,
        "quick": bool(args.quick),
        "cores": os.cpu_count(),
        "identity": identity,
        "pagination": pagination,
        "load": load,
        "admission": server_stats.get("admission"),
        "cursors": server_stats.get("cursors"),
        "gate": gate,
    }
    if args.quick:
        # Smoke scale: the checked-in record stays the full-scale one.
        print(f"--quick: record not written to {os.path.normpath(RECORD_JSON)}")
    else:
        with open(os.path.normpath(RECORD_JSON), "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"record written to {os.path.normpath(RECORD_JSON)}")

    if max_ratio is not None:
        if pagination["ratio"] is None or pagination["ratio"] >= max_ratio:
            print(
                f"FAIL: warm page cost {pagination['ratio']} of a cold re-run "
                f">= allowed {max_ratio}",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: warm page at {pagination['ratio']:.1%} of a cold re-run "
            f"(< {max_ratio:.0%})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
