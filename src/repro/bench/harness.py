"""Experiment harness: timed k-sweeps across algorithms.

The paper's figures all share one shape: *time to produce the top-k
answers* as a function of ``k``, per algorithm, per query, per dataset.
:func:`sweep` runs exactly that — a fresh enumerator per measurement
(preprocessing included, as in the paper, whose engines also start
cold) — and returns :class:`Measurement` rows that
:mod:`repro.bench.reporting` renders as paper-style tables.

For repeated-query workloads the harness also offers *engine sweeps*
(:func:`engine_sweep`): the same measurements run through a
:class:`~repro.engine.QueryEngine`, either ``cold`` (a fresh engine per
measurement — per-query construction, as above) or ``warm`` (one shared
session engine, so repeated measurements reuse cached plans and reduced
instances).  Comparing the two modes is how figures report *amortised*
latency.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Sequence

from ..core.base import RankedEnumeratorBase
from ..data.database import Database
from ..engine import QueryEngine

__all__ = [
    "Measurement",
    "time_top_k",
    "sweep",
    "measure_phases",
    "time_engine_top_k",
    "engine_sweep",
]

EnumFactory = Callable[[], RankedEnumeratorBase]


class Measurement:
    """One timed run: algorithm x k -> seconds (+ extras).

    Attributes
    ----------
    algorithm / k / seconds / answers:
        The sweep coordinates and outcome; ``answers`` can be smaller
        than ``k`` when the output is exhausted.
    extras:
        Free-form metrics (peak PQ entries, intermediate tuples, ...).
    """

    __slots__ = ("algorithm", "k", "seconds", "answers", "extras")

    def __init__(
        self,
        algorithm: str,
        k: int | None,
        seconds: float,
        answers: int,
        extras: dict[str, Any] | None = None,
    ):
        self.algorithm = algorithm
        self.k = k
        self.seconds = seconds
        self.answers = answers
        self.extras = extras or {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Measurement({self.algorithm}, k={self.k}, "
            f"{self.seconds:.4f}s, answers={self.answers})"
        )


def _extract_extras(enum: RankedEnumeratorBase) -> dict[str, Any]:
    extras: dict[str, Any] = {}
    stats = getattr(enum, "stats", None)
    if stats is not None:
        extras["peak_pq_entries"] = getattr(stats, "peak_pq_entries", 0)
        extras["preprocess_seconds"] = getattr(stats, "preprocess_seconds", 0.0)
    for attr in (
        "intermediate_tuples",
        "peak_intermediate",
        "output_size",
        "heavy_output_size",
        "materialised_tuples",
        "full_results_consumed",
    ):
        value = getattr(enum, attr, None)
        if value is not None:
            extras[attr] = value
    return extras


def time_top_k(factory: EnumFactory, k: int | None, *, label: str = "") -> Measurement:
    """Time one cold run: build + preprocess + enumerate ``k`` answers."""
    started = time.perf_counter()
    enum = factory()
    answers = enum.all() if k is None else enum.top_k(k)
    elapsed = time.perf_counter() - started
    return Measurement(label or type(enum).__name__, k, elapsed, len(answers), _extract_extras(enum))


def sweep(
    algorithms: Mapping[str, EnumFactory],
    ks: Sequence[int | None],
    *,
    repeats: int = 1,
) -> list[Measurement]:
    """Run every algorithm at every ``k`` (fresh enumerator per point).

    ``repeats > 1`` keeps the *median* run per point, mirroring the
    paper's "median of 5 after dropping fastest/slowest" protocol in
    spirit at laptop scale.
    """
    out: list[Measurement] = []
    for name, factory in algorithms.items():
        for k in ks:
            runs = sorted(
                (time_top_k(factory, k, label=name) for _ in range(max(1, repeats))),
                key=lambda m: m.seconds,
            )
            out.append(runs[len(runs) // 2])
    return out


def time_engine_top_k(
    engine: QueryEngine,
    query,
    k: int | None,
    ranking=None,
    *,
    label: str = "",
    **kwargs: Any,
) -> Measurement:
    """Time one engine execution (plan lookup + build + enumerate ``k``).

    Cache effects are *included*: on a warm engine this measures the
    amortised path, on a fresh engine the cold path — which is the
    point of :func:`engine_sweep`'s two modes.
    """
    hits_before = engine.stats.plan_hits
    started = time.perf_counter()
    answers = engine.execute(query, ranking, k=k, **kwargs)
    elapsed = time.perf_counter() - started
    enum = engine.last_enumerator
    extras = _extract_extras(enum) if enum is not None else {}
    extras["plan_cache_hit"] = engine.stats.plan_hits > hits_before
    name = label or (query if isinstance(query, str) else getattr(query, "name", "?"))
    return Measurement(name, k, elapsed, len(answers), extras)


def engine_sweep(
    db: Database,
    workload: Mapping[str, Any],
    ks: Sequence[int | None],
    *,
    ranking=None,
    repeats: int = 1,
    mode: str = "warm",
    **kwargs: Any,
) -> list[Measurement]:
    """Run a repeated-query workload through the session engine.

    Parameters
    ----------
    db:
        The database to serve.
    workload:
        ``label -> query`` (text or parsed) mapping, mirroring
        :func:`sweep`'s ``algorithms`` mapping.
    ks:
        The ``k`` sweep (``None`` = all answers).
    mode:
        ``"warm"`` — one shared engine for the whole sweep, so every
        measurement after the first per query reuses the cached plan
        (amortised latency); ``"cold"`` — a fresh engine per
        measurement (per-query construction, comparable to
        :func:`sweep`).
    repeats:
        Keep the median of this many runs per point (warm mode primes
        the plan cache with one untimed execution first, so *every*
        kept run measures the steady state).
    """
    if mode not in ("warm", "cold"):
        raise ValueError(f"engine_sweep mode must be 'warm' or 'cold', got {mode!r}")
    out: list[Measurement] = []
    shared = QueryEngine(db) if mode == "warm" else None
    for name, query in workload.items():
        for k in ks:
            runs: list[Measurement] = []
            if shared is not None:
                shared.execute(query, ranking, k=k, **kwargs)  # prime the caches
            for _ in range(max(1, repeats)):
                engine = shared if shared is not None else QueryEngine(db)
                runs.append(
                    time_engine_top_k(engine, query, k, ranking, label=name, **kwargs)
                )
            runs.sort(key=lambda m: m.seconds)
            out.append(runs[len(runs) // 2])
    return out


def measure_phases(
    factory: EnumFactory, k: int | None = None, *, label: str = ""
) -> Measurement:
    """Time preprocessing and enumeration separately (Figure 7's split)."""
    enum = factory()
    t0 = time.perf_counter()
    enum.preprocess()
    t_pre = time.perf_counter() - t0
    t0 = time.perf_counter()
    answers = enum.all() if k is None else enum.top_k(k)
    t_enum = time.perf_counter() - t0
    extras = _extract_extras(enum)
    extras["phase_preprocess_seconds"] = t_pre
    extras["phase_enumerate_seconds"] = t_enum
    return Measurement(
        label or type(enum).__name__, k, t_pre + t_enum, len(answers), extras
    )
