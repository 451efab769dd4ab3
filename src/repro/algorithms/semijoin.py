"""Semi-join primitives over positional row lists.

The enumerators and the Yannakakis reducer work on *atom instances*:
plain lists of tuples whose columns align with an atom's variable tuple.
These helpers implement the hash-based primitives over that
representation.

Both :func:`semijoin` and :func:`antijoin` dispatch large multi-column
inputs to the vectorised membership kernels
(:mod:`repro.storage.kernels`) when the key columns are integer-valued —
packed ``int64`` keys and one ``np.isin`` pass instead of a per-row
tuple build + set probe — and fall back to the set-based path otherwise.
The size floor is the shared :data:`repro.storage.kernels.KERNEL_MIN_ROWS`
threshold (1024 total rows across both sides — deliberately raised from
the earlier standalone 512 when the thresholds were unified).
Outputs are identical either way (the surviving rows are the original
tuple objects, in input order).
"""

from __future__ import annotations

from typing import Sequence

from ..storage import kernels

__all__ = ["shared_positions", "key_set", "semijoin", "antijoin"]

Row = tuple


def shared_positions(
    vars_a: Sequence[str], vars_b: Sequence[str]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Aligned column positions of the shared variables of two schemas.

    The shared variables are taken in ``vars_a`` order; the returned
    position tuples project rows of either side onto the same key space.

    >>> shared_positions(("a", "b", "c"), ("c", "b", "d"))
    ((1, 2), (1, 0))
    """
    shared = [v for v in vars_a if v in vars_b]
    pos_a = tuple(vars_a.index(v) for v in shared)
    pos_b = tuple(vars_b.index(v) for v in shared)
    return pos_a, pos_b


def key_set(rows: Sequence[Row], positions: Sequence[int]) -> set[tuple]:
    """Distinct projections of ``rows`` onto ``positions``."""
    pos = tuple(positions)
    return {tuple(r[i] for i in pos) for r in rows}


def _kernel_filter(
    left_rows: Sequence[Row],
    left_positions: Sequence[int],
    right_rows: Sequence[Row],
    right_positions: Sequence[int],
    *,
    anti: bool,
) -> list[Row] | None:
    """Surviving left rows via an array membership mask, or ``None``.

    Only attempted where the kernels actually win: multi-column keys
    (the Python path must build a tuple per row) on inputs large enough
    to amortise the per-call column conversion.  Single-column keys stay
    on Python sets, which are already tuple-free and fast.
    """
    if len(left_positions) < 2 or not kernels.enabled():
        return None
    if len(left_rows) + len(right_rows) < kernels.KERNEL_MIN_ROWS:
        return None
    # Cheap first-row probe before any O(n) column conversion: string-
    # or otherwise fat-keyed data answers with two type checks per call
    # instead of a full wasted pass (the conversion still validates
    # every cell when the probe passes).
    if left_rows and any(type(left_rows[0][i]) is not int for i in left_positions):
        kernels.counters.record_fallback()
        return None
    if right_rows and any(
        type(right_rows[0][j]) is not int for j in right_positions
    ):
        kernels.counters.record_fallback()
        return None
    left_cols = kernels.key_columns(left_rows, left_positions)
    right_cols = kernels.key_columns(right_rows, right_positions)
    if left_cols is None or right_cols is None:
        kernels.counters.record_fallback()
        return None
    packed = kernels.pack_pair(left_cols, right_cols)
    if packed is None:
        kernels.counters.record_fallback()
        return None
    mask = kernels.antijoin_mask(*packed) if anti else kernels.semijoin_mask(*packed)
    return [left_rows[i] for i in kernels.np.nonzero(mask)[0].tolist()]


def semijoin(
    left_rows: Sequence[Row],
    left_positions: Sequence[int],
    right_rows: Sequence[Row],
    right_positions: Sequence[int],
) -> list[Row]:
    """``left ⋉ right``: left rows with a join partner on the right.

    With no shared columns (both position tuples empty) this degenerates
    to "keep left iff right is non-empty", which is the correct semantics
    for cartesian-product join-tree edges.  The single-column case — by
    far the most common in the paper's queries — avoids per-row tuple
    construction (this sits on the lexicographic enumerator's hot path).
    """
    if not left_positions and not right_positions:
        return list(left_rows) if right_rows else []
    if len(left_positions) == 1 and len(right_positions) == 1:
        j = right_positions[0]
        keys = {r[j] for r in right_rows}
        i = left_positions[0]
        return [r for r in left_rows if r[i] in keys]
    vectorised = _kernel_filter(
        left_rows, left_positions, right_rows, right_positions, anti=False
    )
    if vectorised is not None:
        return vectorised
    keys = key_set(right_rows, right_positions)
    pos = tuple(left_positions)
    return [r for r in left_rows if tuple(r[i] for i in pos) in keys]


def antijoin(
    left_rows: Sequence[Row],
    left_positions: Sequence[int],
    right_rows: Sequence[Row],
    right_positions: Sequence[int],
) -> list[Row]:
    """``left ▷ right``: left rows with *no* join partner on the right."""
    if not left_positions and not right_positions:
        return [] if right_rows else list(left_rows)
    if not right_rows:
        return list(left_rows)
    if len(left_positions) == 1 and len(right_positions) == 1:
        # Mirror of semijoin's fast path: no per-row key tuples.
        j = right_positions[0]
        keys = {r[j] for r in right_rows}
        i = left_positions[0]
        return [r for r in left_rows if r[i] not in keys]
    vectorised = _kernel_filter(
        left_rows, left_positions, right_rows, right_positions, anti=True
    )
    if vectorised is not None:
        return vectorised
    keys = key_set(right_rows, right_positions)
    pos = tuple(left_positions)
    return [r for r in left_rows if tuple(r[i] for i in pos) not in keys]
