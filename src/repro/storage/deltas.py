"""Store deltas: describing mutations precisely enough to update, not rebuild.

Every mutation of a :class:`~repro.storage.columnstore.ColumnStore` used
to be observable only through the version counter — a one-bit "something
changed" signal that forces every derived structure (access paths, score
columns, the engine's warm reduced instances, the encoded image) to
rebuild from scratch.  A :class:`StoreDelta` records *what* changed:

* an **append delta** names the contiguous row range added at the end of
  the store (existing row indices are untouched);
* a **delete delta** names the removed physical row indices *and carries
  the removed row tuples* — the store compacts its columns on delete, so
  the post-delete store is bit-identical to a cold build from the
  surviving rows, and consumers that kept per-row state remap through
  the delta instead of re-deriving it.

The :class:`DeltaLog` is the bounded history a store keeps alongside its
version counter.  Consumers remember the last version they incorporated
and ask :meth:`DeltaLog.since` for the gap; the answer is either the
exact delta sequence (possibly empty) or ``None`` — history compacted
away, or a mutation that was not expressed as a delta — in which case
the consumer falls back to the full rebuild it would have done anyway.
Fallback is always correct; deltas are purely an optimisation contract.
"""

from __future__ import annotations

from typing import Iterator, Sequence

__all__ = ["StoreDelta", "DeltaLog", "coalesced"]

Row = tuple


class StoreDelta:
    """One mutation of a column store, in replayable form.

    Exactly one of the two shapes:

    * ``append_count > 0, removed == ()`` — rows were appended at
      positions ``[base_rows, base_rows + append_count)``; ``appended``
      holds their tuples (so a consumer maintaining a *derived* store —
      the encoded image — can replay the gap without reconstructing
      intermediate states);
    * ``append_count == 0, removed != ()`` — the rows at the (sorted,
      pre-delete) positions ``removed`` were deleted.

    ``version`` is the store version *after* this delta applied;
    ``base_rows`` the row count before it.
    """

    __slots__ = (
        "version",
        "base_rows",
        "append_count",
        "appended",
        "removed",
    )

    def __init__(
        self,
        version: int,
        base_rows: int,
        append_count: int = 0,
        appended: Sequence[Row] = (),
        removed: Sequence[int] = (),
    ):
        self.version = version
        self.base_rows = base_rows
        self.append_count = append_count
        self.appended = tuple(appended)
        self.removed = tuple(removed)

    @property
    def is_append(self) -> bool:
        return self.append_count > 0

    def keep_mask(self) -> bytearray:
        """One byte per pre-delete row, 0 at the removed positions.

        Feed it to ``itertools.compress`` to compact any list aligned
        with the pre-delete rows in one C-level pass.
        """
        keep = bytearray(b"\x01") * self.base_rows
        for i in self.removed:
            keep[i] = 0
        return keep

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_append:
            return f"StoreDelta(v={self.version}, +{self.append_count})"
        return f"StoreDelta(v={self.version}, -{len(self.removed)})"


class DeltaLog:
    """A bounded, contiguous history of one store's deltas.

    The log covers the version interval ``(base_version, head_version]``
    with one entry per version step.  Recording past the bound drops the
    oldest entries (advancing ``base_version``) — consumers that fell
    that far behind rebuild, which is the pre-delta behaviour.
    """

    #: History bound: a consumer more than this many mutations behind
    #: would pay delta replay comparable to a rebuild anyway.
    MAX_ENTRIES = 64

    __slots__ = ("base_version", "entries")

    def __init__(self, base_version: int = 0):
        self.base_version = base_version
        self.entries: list[StoreDelta] = []

    @property
    def head_version(self) -> int:
        return self.entries[-1].version if self.entries else self.base_version

    def record(self, delta: StoreDelta) -> None:
        """Append one delta (must continue the version sequence)."""
        self.entries.append(delta)
        overflow = len(self.entries) - self.MAX_ENTRIES
        if overflow > 0:
            self.base_version = self.entries[overflow - 1].version
            del self.entries[:overflow]

    def barrier(self, version: int) -> None:
        """Cut history: a mutation happened that no delta describes."""
        self.base_version = version
        self.entries.clear()

    def since(self, version: int) -> list[StoreDelta] | None:
        """Deltas to replay from ``version`` to the head, oldest first.

        ``None`` when the gap is not covered (history compacted, a
        barrier intervened, or ``version`` is from the future — a
        consumer bound to a different store object).
        """
        if version == self.head_version:
            return []
        if version < self.base_version or version > self.head_version:
            return None
        return [d for d in self.entries if d.version > version]

    def __iter__(self) -> Iterator[StoreDelta]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeltaLog(base=v{self.base_version}, entries={len(self.entries)})"


def coalesced(deltas: Sequence[StoreDelta]) -> list[StoreDelta]:
    """``deltas`` with each run of consecutive appends, and each run of
    consecutive deletes, merged into one delta with the same effect, so
    a consumer replays a gap of small writes — four single-row deletes,
    say — in one pass per run instead of one per write."""
    out: list[StoreDelta] = []
    for delta in deltas:
        last = out[-1] if out else None
        if last is None or last.is_append != delta.is_append:
            out.append(delta)
        elif delta.is_append:
            out[-1] = StoreDelta(
                delta.version,
                last.base_rows,
                append_count=last.append_count + delta.append_count,
                appended=last.appended + delta.appended,
            )
        else:
            # ``delta.removed`` counts the rows ``last`` left: shift each
            # past the positions ``last`` removed at or before it.
            earlier, shifted, shift = last.removed, [], 0
            for position in delta.removed:
                while shift < len(earlier) and earlier[shift] <= position + shift:
                    shift += 1
                shifted.append(position + shift)
            out[-1] = StoreDelta(
                delta.version, last.base_rows, removed=sorted(earlier + tuple(shifted))
            )
    return out
