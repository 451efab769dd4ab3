"""Vectorised NumPy join kernels over dense code columns.

The storage layer encodes join keys to dense integers
(:mod:`repro.storage.dictionary`), and a :class:`~repro.storage.columnstore.ColumnStore`
already holds tuples column-major — so the hot relational primitives
(the Yannakakis reducer's two semi-join sweeps, ``antijoin``, grouping
and the GHD bag materialisation) are one array away from
running as batched NumPy operations instead of per-row Python loops.
This module is that array layer:

* **representation** — :func:`column_array` / :func:`codes_matrix` turn
  integer-valued columns and row lists into ``int64`` arrays, returning
  ``None`` (never a lossy cast) whenever the values are not exactly
  representable: floats, bools, strings and out-of-``int64`` integers
  all refuse;
* **key packing** — :func:`pack_columns` / :func:`pack_pair`
  radix-combine multi-column keys into a single ``int64`` per row (the
  per-column radix is the value span, computed jointly over both sides
  so packed equality is key-tuple equality), refusing on overflow;
* **membership** — :func:`semijoin_mask` / :func:`antijoin_mask` via
  ``np.isin`` (sorted-array membership, ``O((n+m) log m)``);
* **grouping** — :func:`group_indices` builds hash groups in one
  stable argsort pass, group contents and order identical to the
  Python dict build;
* **joins** — :func:`join_indices` / :func:`cross_indices` produce
  matching row-index pairs in exactly the left-major,
  right-store-order sequence of the Python hash join.

Every kernel is exact or refuses: a ``None`` return tells the caller to
use the pure-Python implementation, so outputs (values, scores, ties,
order) are identical whichever path runs.  NumPy itself is optional —
install the ``fast`` extra (``pip install repro[fast]``); without it
:func:`enabled` is ``False`` and every consumer stays on Python rows.

The module-level :data:`counters` record kernel invocations and
fallbacks; :class:`~repro.engine.stats.EngineStats` surfaces them per
engine as ``kernel_calls`` / ``kernel_fallbacks``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from itertools import chain, repeat
from operator import is_, itemgetter
from typing import Any, Sequence

try:  # pragma: no branch - one of the two arms runs per process
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised via import stubbing
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

__all__ = [
    "HAS_NUMPY",
    "KERNEL_MIN_ROWS",
    "KernelCounters",
    "Tally",
    "antijoin_mask",
    "codes_matrix",
    "column_array",
    "counters",
    "cross_indices",
    "distinct_indices",
    "enabled",
    "group_indices",
    "join_indices",
    "pack_columns",
    "pack_pair",
    "semijoin_mask",
    "set_enabled",
    "shard_ids",
]

Row = tuple

#: Below this many input rows the per-call dispatch sites — the
#: standalone ``semijoin``/``antijoin`` helpers (total rows across both
#: sides) and shard partitioning (relation size) — stay on the
#: single-pass Python implementations, where per-call array conversion
#: or kernel setup would cost more than it saves.  Read at every
#: dispatch, so a test can force kernels onto tiny inputs by patching
#: it.  (The batched reducer path converts through store-level caches
#: and has no such floor.)
KERNEL_MIN_ROWS = 1024

#: Packed multi-column keys must stay well inside signed 64 bits.
_MAX_PACKED = 1 << 62


class Tally:
    """One scope's share of the counters (see :meth:`KernelCounters.collect`).

    ``reasons`` breaks the fallback total down by reason code (e.g.
    ``"conversion"`` vs ``"unbatchable-ranking"``), so callers can tell
    "the data refused the arrays" apart from "the ranking has no array
    form" without re-running anything.
    """

    __slots__ = ("calls", "fallbacks", "reasons")

    def __init__(self):
        self.calls = 0
        self.fallbacks = 0
        self.reasons: dict[str, int] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tally(calls={self.calls}, fallbacks={self.fallbacks})"


class KernelCounters:
    """Process-wide, thread-safe instrumentation with scoped collection.

    Global totals (``calls`` / ``fallbacks``) are incremented under a
    lock.  Attribution to one engine is done with *tally scopes*: a
    caller enters :meth:`collect`, and every increment made on the same
    thread is added to the scope's :class:`Tally` as well.  All counted
    work runs on the thread that opened the scope (sharded executions
    run their shards in other *processes*, which count nothing here),
    so two engines executing concurrently on different threads never
    see each other's increments — the race the old snapshot-diff
    accounting had.
    """

    __slots__ = ("calls", "fallbacks", "reasons", "_lock", "_local")

    def __init__(self):
        self.calls = 0
        self.fallbacks = 0
        self.reasons: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _scopes(self) -> list[Tally]:
        scopes = getattr(self._local, "scopes", None)
        if scopes is None:
            scopes = self._local.scopes = []
        return scopes

    def record_call(self) -> None:
        with self._lock:
            self.calls += 1
            for tally in self._scopes():
                tally.calls += 1

    def record_fallback(self, reason: str = "conversion") -> None:
        """Count one refusal, tagged with *why* the array path declined.

        Established reason codes: ``"conversion"`` (values not exactly
        int64-representable), ``"pack-overflow"`` (multi-column key span
        exceeds 64 bits), ``"non-real-weight"`` / ``"missing-weight"``
        (score columns), ``"unbatchable-ranking"`` (the ranking has no
        array form — LEX/composite), ``"no-key-array"`` /
        ``"scalar-child-keys"`` / ``"combine-refused"`` / ``"non-finite-key"``
        (the array queue build of a join-tree node declined).
        """
        with self._lock:
            self.fallbacks += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
            for tally in self._scopes():
                tally.fallbacks += 1
                tally.reasons[reason] = tally.reasons.get(reason, 0) + 1

    @contextmanager
    def collect(self):
        """Scope: attribute increments on this thread to a fresh tally."""
        tally = Tally()
        scopes = self._scopes()
        with self._lock:
            scopes.append(tally)
        try:
            yield tally
        finally:
            with self._lock:
                scopes.remove(tally)

    def snapshot(self) -> tuple[int, int]:
        with self._lock:
            return (self.calls, self.fallbacks)

    def reasons_snapshot(self) -> dict[str, int]:
        """The fallback-reason breakdown (a copy; totals sum to ``fallbacks``)."""
        with self._lock:
            return dict(self.reasons)

    def reset(self) -> None:
        with self._lock:
            self.calls = 0
            self.fallbacks = 0
            self.reasons.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelCounters(calls={self.calls}, fallbacks={self.fallbacks})"


counters = KernelCounters()


_enabled = True


def enabled() -> bool:
    """True when NumPy is importable and kernels are not switched off."""
    return HAS_NUMPY and _enabled


def set_enabled(flag: bool) -> None:
    """Force-disable (or re-enable) every kernel dispatch site.

    The row-at-a-time implementations are always available; benchmarks
    and tests use this switch to compare the two paths on identical
    inputs.
    """
    global _enabled
    _enabled = bool(flag)


# ---------------------------------------------------------------------- #
# representation: columns and row lists as int64 arrays
# ---------------------------------------------------------------------- #
def column_array(values: Sequence[Any]):
    """``values`` as a 1-D ``int64`` array, or ``None`` if not exact.

    Only genuinely integer-valued columns qualify: floats (silent
    truncation), bools (identity-changing normalisation), strings,
    integers beyond 64 bits (object dtype) and sequence-valued cells
    (NumPy would build a multi-dimensional array, or raise on ragged
    input) all return ``None``, which callers treat as "use the Python
    path".
    """
    if np is None:
        return None
    if not len(values):
        return np.empty(0, dtype=np.int64)
    try:
        arr = np.asarray(values)
    except (ValueError, OverflowError):  # ragged nested sequences etc.
        return None
    if arr.ndim != 1:
        return None
    if arr.dtype == np.int64:
        return arr
    if arr.dtype.kind == "i":  # smaller signed ints widen losslessly
        return arr.astype(np.int64)
    return None


def codes_matrix(rows: Sequence[Row], width: int):
    """A row list as an ``(n, width)`` ``int64`` matrix, or ``None``.

    Row ``i`` of the matrix corresponds to ``rows[i]``; conversion
    refuses (returns ``None``) under the same rules as
    :func:`column_array`.
    """
    if np is None:
        return None
    n = len(rows)
    if width == 0 or n == 0:
        return np.empty((n, width), dtype=np.int64)
    cols = []
    for i in range(width):
        arr = column_array([r[i] for r in rows])
        if arr is None:
            return None
        cols.append(arr)
    return np.stack(cols, axis=1)


def key_columns(rows: Sequence[Row], positions: Sequence[int]):
    """The key columns of a row list as ``int64`` arrays, or ``None``."""
    cols = []
    for i in positions:
        arr = column_array([r[i] for r in rows])
        if arr is None:
            return None
        cols.append(arr)
    return cols


def rows_exactly_int(rows: Sequence[Row], positions: Sequence[int] | None = None) -> bool:
    """True when every (selected) cell is exactly ``int`` — no subclasses.

    :func:`column_array` accepts anything NumPy coerces to an integer
    dtype, which keeps membership/grouping kernels correct (they return
    the *original* tuples, and ``True == 1`` decisions agree with
    Python sets) but is too loose for kernels that **rebuild** rows
    from codes: a ``True`` or ``IntEnum`` cell would come back as a
    plain ``int``.  Those emit sites run this linear pre-scan first —
    cheap next to the superlinear joins it guards — and fall back to
    the Python path on anything exotic.
    """
    if positions is None:
        return all(map(is_, map(type, chain.from_iterable(rows)), repeat(int)))
    return all(
        all(map(is_, map(type, map(itemgetter(i), rows)), repeat(int))) for i in positions
    )


# ---------------------------------------------------------------------- #
# shard assignment: hash a whole key column in one array op
# ---------------------------------------------------------------------- #
def shard_ids(values: Sequence[Any], shards: int):
    """Stable shard index per value as a plain list, or ``None``.

    The vectorised twin of ``stable_shard`` in
    :mod:`repro.data.partition`, for the columns where the two are
    *provably* identical: exactly-integer columns, where the stable
    hash is the value itself and ``%`` with a positive modulus agrees
    between NumPy and Python (both floor, including for negatives).
    Anything else — floats, strings, bools-as-a-column — refuses, and
    the caller runs the per-row CRC loop.
    """
    arr = column_array(values)
    if arr is None:
        counters.record_fallback("conversion")
        return None
    counters.record_call()
    return (arr % shards).tolist()


# ---------------------------------------------------------------------- #
# key packing: multi-column keys -> one int64 per row
# ---------------------------------------------------------------------- #
def _spans(column_pairs):
    """Joint (lo, span) per aligned column pair; None on packed overflow."""
    packed_span = 1
    spans = []
    for left_col, right_col in column_pairs:
        sides = [c for c in (left_col, right_col) if c is not None and len(c)]
        if not sides:
            lo, hi = 0, 0
        else:
            lo = min(int(c.min()) for c in sides)
            hi = max(int(c.max()) for c in sides)
        span = hi - lo + 1
        packed_span *= span
        if packed_span > _MAX_PACKED:
            return None
        spans.append((lo, span))
    return spans


def _pack(cols, spans):
    keys = (cols[0] - spans[0][0]).astype(np.int64, copy=False)
    for col, (lo, span) in zip(cols[1:], spans[1:]):
        keys *= span
        keys += col - lo
    return keys


def pack_columns(cols):
    """One-sided radix pack of aligned key columns; ``None`` on overflow."""
    if len(cols) == 1:
        return cols[0]
    spans = _spans([(c, None) for c in cols])
    if spans is None:
        return None
    return _pack(cols, spans)


def pack_pair(left_cols, right_cols):
    """Pack both sides of a join key into comparable ``int64`` keys.

    The radix per column is computed **jointly** over both sides, so
    equal key tuples pack to equal ints and unequal ones never collide.
    Returns ``(left_keys, right_keys)`` or ``None`` when the combined
    span cannot fit 64 bits (the caller falls back to Python).
    """
    if len(left_cols) == 1:
        return left_cols[0], right_cols[0]
    spans = _spans(list(zip(left_cols, right_cols)))
    if spans is None:
        return None
    return _pack(left_cols, spans), _pack(right_cols, spans)


# ---------------------------------------------------------------------- #
# membership: semi-join and anti-join masks
# ---------------------------------------------------------------------- #
def semijoin_mask(left_keys, right_keys):
    """Boolean mask: which left keys have a partner on the right."""
    counters.record_call()
    if len(right_keys) == 0:
        return np.zeros(len(left_keys), dtype=bool)
    return np.isin(left_keys, right_keys)


def antijoin_mask(left_keys, right_keys):
    """Boolean mask: which left keys have **no** partner on the right."""
    counters.record_call()
    if len(right_keys) == 0:
        return np.ones(len(left_keys), dtype=bool)
    return ~np.isin(left_keys, right_keys)


# ---------------------------------------------------------------------- #
# grouping: hash buckets in one stable sort pass
# ---------------------------------------------------------------------- #
def group_indices(keys):
    """Groups of equal keys as ``(first_row, row_indices)`` pairs.

    Row indices within a group ascend (store order) and groups are
    returned in first-occurrence order — exactly the bucket contents
    and dict insertion order of the Python single-pass group-by.
    """
    counters.record_call()
    order = np.argsort(keys, kind="stable")
    if len(order) == 0:
        return []
    sk = keys[order]
    starts = np.nonzero(np.r_[True, sk[1:] != sk[:-1]])[0]
    ends = np.r_[starts[1:], len(sk)]
    groups = [
        (int(order[s]), order[s:e]) for s, e in zip(starts.tolist(), ends.tolist())
    ]
    groups.sort(key=lambda g: g[0])
    return groups


# ---------------------------------------------------------------------- #
# joins: matching index pairs in Python hash-join order
# ---------------------------------------------------------------------- #
def join_indices(left_keys, right_keys):
    """``(left_idx, right_idx)`` of every matching pair.

    Pairs come out left-major with right matches in store order — the
    exact sequence of ``for lrow: for rrow in bucket[key]``.
    """
    counters.record_call()
    order = np.argsort(right_keys, kind="stable")
    rs = right_keys[order]
    starts = np.searchsorted(rs, left_keys, side="left")
    ends = np.searchsorted(rs, left_keys, side="right")
    cnt = ends - starts
    total = int(cnt.sum())
    left_idx = np.repeat(np.arange(len(left_keys)), cnt)
    if total == 0:
        return left_idx, left_idx
    offsets = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    right_idx = order[np.repeat(starts, cnt) + offsets]
    return left_idx, right_idx


def cross_indices(n_left: int, n_right: int):
    """Index pairs of the cartesian product, left-major."""
    counters.record_call()
    return (
        np.repeat(np.arange(n_left), n_right),
        np.tile(np.arange(n_right), n_left),
    )


# ---------------------------------------------------------------------- #
# dedup: first-occurrence distinct rows
# ---------------------------------------------------------------------- #
def distinct_indices(matrix):
    """Ascending indices of each first-occurring distinct row, or ``None``.

    ``matrix[distinct_indices(matrix)]`` equals the Python
    seen-set dedup of the same rows, order included.
    """
    n, width = matrix.shape
    if width == 0:
        return np.arange(min(n, 1))
    keys = pack_columns([matrix[:, i] for i in range(width)])
    if keys is None:
        counters.record_fallback("pack-overflow")
        return None
    counters.record_call()
    _unique, first = np.unique(keys, return_index=True)
    first.sort()
    return first
