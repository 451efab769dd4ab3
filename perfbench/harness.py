"""Shared plumbing for the end-to-end benchmark.

A workload module (``deep``, ``topk``, ``urlrw``) supplies these steps:

* ``generate(seed)`` -> raw inputs (rows, weights, request parameters),
  made from the seed alone and never timed;
* ``setup(inputs)`` -> a ready :class:`State` (timed: this is ``setup_s``);
* ``cycle(state, seed)`` -> the deterministic list of requests one pass
  over the workload's mix issues;
* ``execute(state, request)`` -> a list of :class:`Sample` records;
* ``verify(state, samples)`` -> a list of failure messages, run after
  the timed loop;
* ``sizes(state)`` -> per-relation row counts for the run record;

and optionally ``report(state)`` (extra fields for the run record),
``COUNT_WINDOW`` (requests whose exact work counts are recorded) and
``MIN_REQUESTS`` (requests an untraced run issues at the least).

This module turns samples into the metrics named in ``BENCHMARK.json``
and writes the per-run records under ``.perfbench_out/``.

The end-to-end timings are scaled to a reference host speed.  On a
shared 2-core VM whole runs went up to 1.8x slower for minutes at a
time while the work (exact counts) stayed the same, so raw times of two
sets of runs did not agree.  Before every request and every set-up the
loop times one fixed unit of work shaped like the engine's hot loop
(:func:`calibrate`), and once more after the last; each request's (and
set-up's) time is multiplied by ``CAL_REF_S`` / (geometric mean of the
two calibrations around it) before the medians are taken
(:func:`bracket_scales`).  The raw values and the calibration medians
are kept in the run record.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array

#: Per-run records (counts, reproducibility record, spans, layer table)
#: land here, relative to the directory the benchmark runs from.
OUT_DIR = ".perfbench_out"

#: Time of one :func:`calibrate` on the reference host (about what it
#: takes on a quiet 2-core x86-64 VM with CPython 3.11).
CAL_REF_S = 0.0125

#: The calibration's fixed input: a 6 000-edge bipartite graph and
#: weights of its left side.
_CAL_RNG = random.Random(1)
_CAL_EDGES = [(_CAL_RNG.randrange(1500), _CAL_RNG.randrange(2500)) for _ in range(6000)]
_CAL_WEIGHTS = [_CAL_RNG.random() for _ in range(1500)]
_CAL_ANSWERS = 3000


class Sample:
    """One request as the client saw it.

    While the request runs, ``arrivals`` collects ``(perf_counter,
    answers)`` events — one per answer for streamed enumerations, one per
    page or returned list otherwise — and ``answers`` the ``(values,
    score)`` pairs.  :meth:`finish` then folds both into a few numbers,
    compact arrays of arrival gaps and a digest, so a long run keeps no
    per-answer objects alive: a heap that grows with the number of
    requests issued made peak RSS, and every later garbage collection,
    depend on how fast the host ran.  ``counts`` holds the exact work
    counts of the request.
    """

    __slots__ = (
        "cls", "rid", "issued", "arrivals", "answers", "digest", "counts", "error", "extra",
        "n", "first", "first_count", "last", "events", "gaps", "gap_counts",
    )

    def __init__(self, cls: str, issued: float):
        self.cls = cls
        self.rid = None
        self.issued = issued
        self.arrivals: list[tuple[float, int]] | None = []
        self.answers: list | None = []
        self.digest: str | None = None
        self.counts: dict = {}
        self.error: str | None = None
        self.extra: dict = {}

    def finish(self) -> None:
        """Fold ``arrivals`` and ``answers`` into their summary."""
        arrivals = self.arrivals
        self.n = sum(count for _t, count in arrivals)
        self.events = len(arrivals)
        self.first, self.first_count = next(
            ((t, count) for t, count in arrivals if count), (None, 0)
        )
        self.last = arrivals[-1][0] if arrivals else self.issued
        # Gap before each arrival that brought answers (issue -> first,
        # then arrival -> arrival); the rest of a page arrived with no gap.
        self.gaps, self.gap_counts = array("d"), array("l")
        prev = self.issued
        for t, count in arrivals:
            if count:
                self.gaps.append(t - prev)
                self.gap_counts.append(count)
            prev = t
        self.digest = digest(self.answers or ())
        self.arrivals = self.answers = None


class State:
    """What ``setup`` builds; ``close`` releases files, threads, sockets."""

    def __init__(self, **parts):
        self.__dict__.update(parts)

    def close(self) -> None:
        for closer in getattr(self, "closers", ()):
            closer()


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """The ``q``-quantile (``q`` a multiple of 0.01), inclusive method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def by_class(samples, fn) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for s in samples:
        if s.error is None:
            value = fn(s)
            if value is not None:
                groups.setdefault(s.cls, []).append(value)
    return groups


def class_geomean_of_medians(samples, fn) -> float:
    """Geometric mean over request classes of each class's median.

    Requests in a mix differ by orders of magnitude; a plain median
    jumps between classes when two sit close, while the per-class
    median + geometric mean moves only when the classes move.
    """
    return geomean(median(v) for v in by_class(samples, fn).values())


def ttf_seconds(s: Sample):
    return None if s.first is None else s.first - s.issued


def ttk_seconds(s: Sample):
    return s.last - s.issued


def gaps_seconds(samples) -> list[float]:
    """The gap before every answer: issue -> first, then answer -> answer."""
    gaps: list[float] = []
    for s in samples:
        if s.error is None:
            for gap, count in zip(s.gaps, s.gap_counts):
                gaps.append(gap)
                gaps.extend([0.0] * (count - 1))
    return gaps


def emission(s: Sample) -> tuple[int, float]:
    """Answers emitted after the first answer's arrival, and their time.

    A request that delivers everything in one arrival (a LIMIT list)
    has no emission phase apart from its first answer; it counts all its
    answers over its whole time.
    """
    if s.events < 2:
        return s.n, s.last - s.issued
    return s.n - s.first_count, s.last - s.first


def calibrate() -> float:
    """Seconds taken by one fixed unit of work shaped like the hot loop.

    A small pure-Python ranked enumeration: the first ``_CAL_ANSWERS``
    pairs of the 2-hop join over ``_CAL_EDGES`` by summed weight (group
    by join key, sort, heap pops, tuple and set churn).  It runs here,
    not in the program, so a change to the program never moves it.  Of
    the calibrations tried it tracked the engine's slow phases best:
    with other processes saturating the CPU, thrashing memory, or both,
    3hop and 4hop request times over it stayed within +-7% while raw
    times moved by up to 2.2x (a 5 ms heap + NumPy sort loop missed most
    of the CPU contention: it fits in one scheduler slice).
    """
    started = time.perf_counter()
    weight = _CAL_WEIGHTS.__getitem__
    by_key: dict[int, list[int]] = {}
    for a, p in _CAL_EDGES:
        by_key.setdefault(p, []).append(a)
    lists = {p: sorted(set(v), key=weight) for p, v in by_key.items()}
    heap = [(weight(left[0]) * 2, p, 0, 0) for p, left in lists.items()]
    heapq.heapify(heap)
    seen = set()
    while heap and len(seen) < _CAL_ANSWERS:
        _score, p, i, j = heapq.heappop(heap)
        left = lists[p]
        seen.add((left[i], left[j]))
        if j + 1 < len(left):
            heapq.heappush(heap, (weight(left[i]) + weight(left[j + 1]), p, i, j + 1))
        if j == i and i + 1 < len(left):
            heapq.heappush(heap, (weight(left[i + 1]) * 2, p, i + 1, i + 1))
    return time.perf_counter() - started


def bracket_scales(calibrations) -> list[float]:
    """``CAL_REF_S`` / (geometric mean of the calibrations before and after
    each timed step): ``calibrations`` has one more entry than there are
    steps.

    The host's speed also switches within a run, in less than a second
    (one run's calibrations ranged from 8 to 15 ms), so the nearest
    calibrations say most about a request.  Over five paper-deep runs the
    class-geomean ttk spread (coefficient of variation) was 0.087 raw,
    0.088 against the run's median calibration, 0.043 against the median
    of the five nearest, and 0.022 against the two that bracket each
    request; on url-rw 0.046 raw and 0.022 bracketed.
    """
    return [
        CAL_REF_S / math.sqrt(before * after)
        for before, after in zip(calibrations, calibrations[1:])
    ]


def end_to_end(samples, setup_times, setup_calibrations, calibrations) -> tuple[dict, dict]:
    """The ``end_to_end`` metrics of ``BENCHMARK.json`` for one run.

    ``calibrations[i]`` and ``calibrations[i + 1]`` were taken before and
    after request ``i``; ``setup_calibrations`` likewise bracket each
    set-up.  Returns ``(metrics, raw)``: timings scaled to the reference
    host speed, and the same before scaling (plus the calibration
    medians).
    """
    ok = [s for s in samples if s.error is None]
    scale = bracket_scales(calibrations)

    def summarise(factor):
        # Answers and time of one pass over the mix (per-class medians), so
        # a run that stops part-way through a pass weighs no class twice.
        emitted = sum(median(v) for v in by_class(ok, lambda s: emission(s)[0]).values())
        busy = sum(
            median(v) for v in by_class(ok, lambda s: emission(s)[1] * factor(s)).values()
        )
        return {
            "ttf_ms": class_geomean_of_medians(
                ok, lambda s: None if s.first is None else ttf_seconds(s) * factor(s)
            ) * 1e3,
            "ttk_ms": class_geomean_of_medians(ok, lambda s: ttk_seconds(s) * factor(s)) * 1e3,
            "answers_per_s": emitted / busy if busy else 0.0,
        }

    raw = summarise(lambda s: 1.0)
    raw.update(
        setup_s=median(setup_times),
        calibration_ms=median(calibrations) * 1e3,
        setup_calibration_ms=median(setup_calibrations) * 1e3,
    )
    scaled = summarise(lambda s: scale[s.rid])
    setup_scale = bracket_scales(setup_calibrations)
    metrics = {
        "ttf_ms": (scaled["ttf_ms"], "ms"),
        "ttk_ms": (scaled["ttk_ms"], "ms"),
        "answers_per_s": (scaled["answers_per_s"], "1/s"),
        "setup_s": (median(t * f for t, f in zip(setup_times, setup_scale)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return metrics, raw


def tail_metrics(samples) -> dict:
    """The tail metrics kept per-layer: they are too noisy to bound."""
    ok = [s for s in samples if s.error is None]
    ttks = [ttk_seconds(s) for s in ok]
    return {
        "ttk_p90_ms": (quantile(ttks, 0.9) * 1e3, "ms"),
        "delay_p99_us": (quantile(gaps_seconds(ok), 0.99) * 1e6, "us"),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# the timed loop
# --------------------------------------------------------------------- #
def timed_setup(module, inputs, *, min_repeats: int, min_seconds: float, max_repeats: int):
    """Repeat ``setup`` until both floors are met; keep the last state.

    A set-up of a few milliseconds is all timer and allocator noise when
    taken once, so short ones are repeated (up to ``max_repeats``) and
    ``setup_s`` is their median.  The previous state's garbage is
    collected before each one, untimed, so no set-up pays for another's.
    Returns ``(state, set-up times, calibration times)``; a calibration
    is taken before each set-up and after the last.
    """
    times, calibrations = [], []
    state = None
    while len(times) < max_repeats and (
        len(times) < min_repeats or sum(times) < min_seconds
    ):
        if state is not None:
            state.close()
            state = None
        gc.collect()
        calibrations.append(calibrate())
        started = time.perf_counter()
        state = module.setup(inputs)
        times.append(time.perf_counter() - started)
    calibrations.append(calibrate())
    return state, times, calibrations


def run_requests(module, state, requests, *, seconds, at_least=0, tracer=None, traced=None):
    """Issue ``requests`` in order, wrapping around, closed loop.

    Issues at least ``at_least`` requests, then stops once ``seconds``
    of wall time have gone by.  A request that raises is recorded as
    failed and the loop goes on.  Each sample is folded into its summary
    (:meth:`Sample.finish`).  Request ``i`` runs with ``tracer``'s
    wrappers installed when ``traced(i)`` is true.  Returns ``(samples,
    requests issued, calibration times)``; a calibration is taken before
    each request (untimed, after the collection) and after the last.
    """
    samples: list[Sample] = []
    calibrations: list[float] = []
    started = time.perf_counter()
    issued = 0
    while issued < at_least or time.perf_counter() - started < seconds:
        request = requests[issued % len(requests)]
        # Every request starts from a collected heap (untimed), so where a
        # collection lands does not depend on what ran before it.
        gc.collect()
        calibrations.append(calibrate())
        on = tracer is not None and traced(issued)
        if on:
            tracer.rid = issued
            tracer.install()
        try:
            produced = module.execute(state, request)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            failed = Sample(request["cls"], time.perf_counter())
            failed.error = f"{type(exc).__name__}: {exc}"
            produced = [failed]
        finally:
            if on:
                tracer.uninstall()
        for sample in produced:
            sample.rid = issued
            sample.extra["traced"] = on
            sample.finish()
        samples.extend(produced)
        issued += 1
    calibrations.append(calibrate())
    return samples, issued, calibrations


def digest(answers) -> str:
    """Order-sensitive fingerprint of ``(values, score)`` pairs."""
    return hashlib.sha256(repr(list(answers)).encode()).hexdigest()


def work_counts(engine, enum, before: dict) -> dict:
    """Exact counts for one request: enumerator stats + engine deltas."""
    stats = enum.stats
    heap = stats.heap_stats
    after = engine.stats.snapshot()
    counts = {
        key: after[key] - before[key]
        for key in (
            "plan_hits",
            "plan_misses",
            "kernel_calls",
            "kernel_fallbacks",
            "score_builds",
            "score_fallbacks",
            "batched_combines",
            "bulk_topk_calls",
            "bulk_topk_fallbacks",
            "delta_applies",
            "delta_fallbacks",
            "encode_builds",
        )
    }
    counts.update(
        answers=stats.answers,
        pops=heap.pops if heap is not None else 0,
        pushes=heap.pushes if heap is not None else 0,
        cells_created=stats.cells_created,
        peak_pq_entries=stats.peak_pq_entries,
        max_pq_ops_between_answers=max(stats.pq_ops_per_answer, default=0),
    )
    return counts


# --------------------------------------------------------------------- #
# records
# --------------------------------------------------------------------- #
def out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def write_json(name: str, payload) -> str:
    path = out_path(name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def source_digest(root: str) -> str:
    """SHA-256 over the program's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def reproducibility(root: str, seed: int, sizes: dict, requests: dict, engine_args: dict) -> dict:
    import numpy

    return {
        "seed": seed,
        "relation_sizes": sizes,
        "requests": requests,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "engine_args": engine_args,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "platform": platform.platform(),
    }


def relation_sizes(db, prefix: str = "") -> dict:
    return {f"{prefix}{name}": len(db[name]) for name in sorted(db.names())}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def run_py(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run ``perfbench/run.py`` once in a child process; its result object."""
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(root, "perfbench", "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
