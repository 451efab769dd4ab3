"""The paper's ``cell`` data structure (Definition 1).

A cell ``c = ⟨t, [p_1 .. p_k], q⟩`` holds a tuple of its join-tree node,
one pointer per child to a cell of that child, and a ``next`` pointer to
another cell of the *same* node.  ``next`` chains materialise, per node
and anchor value, the distinct ranked partial outputs — the memoisation
that makes Algorithm 2's delay bound work (every parent that reaches a
chained cell follows it in O(1) instead of recomputing).

We additionally cache on the cell:

* ``key`` — the rank key of its partial output (so priority-queue
  comparisons are O(1), as the paper's constant-time ``rank(output(c))``
  assumption requires);
* ``out`` — the materialised partial output over ``A^π_i`` in the
  subtree's in-order layout (the paper's ``output(c)``), used both for
  emission and for deterministic tie-breaking;
* ``own_key`` / ``own_out`` — the node-local contribution, shared
  unchanged by all successor cells of the same tuple;
* ``group`` — the priority queue ``PQ_i[u]`` the cell belongs to (its
  node's queue for its anchor value ``u``), so ``Topdown`` reaches the
  queue to advance without looking the anchor up.
"""

from __future__ import annotations

from itertools import count
from typing import Any

__all__ = ["Cell", "UNSET"]

_uid = count()


class _Unset:
    """Sentinel for a ``next`` pointer that has not been computed yet.

    Distinct from ``None``, which means "computed: there is no next
    distinct partial output" (the paper's ``⊥`` after exhaustion).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNSET"


UNSET = _Unset()


class Cell:
    """One cell: a node tuple plus child pointers plus the next-chain."""

    __slots__ = ("row", "children", "next", "key", "out", "own_key", "own_out", "uid", "group")

    def __init__(
        self,
        row: tuple,
        children: tuple["Cell", ...],
        key: Any,
        out: tuple,
        own_key: Any,
        own_out: tuple,
        group: Any = None,
    ):
        self.row = row
        self.children = children
        self.next: Any = UNSET  # UNSET | None | Cell
        self.key = key
        self.out = out
        self.own_key = own_key
        self.own_out = own_out
        # Stable identity for duplicate-insert suppression.  Object ids
        # cannot be used: popped duplicate cells are garbage-collected and
        # CPython reuses their addresses, which would suppress unrelated
        # fresh cells (a real bug found by the fuzz suite).
        self.uid = next(_uid)
        self.group = group

    @property
    def sort_key(self) -> tuple:
        """Priority-queue key: rank key, ties broken by the partial output."""
        return (self.key, self.out)

    def same_output(self, other: "Cell") -> bool:
        """The paper's ``is_equal``: same rank and same partial output."""
        return self.key == other.key and self.out == other.out

    def identity(self) -> tuple:
        """Structural identity used to suppress duplicate inserts:
        the node tuple plus the stable uids of the child cells."""
        return (self.row, tuple(c.uid for c in self.children))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nxt = "⊥" if self.next is None else ("?" if self.next is UNSET else "→")
        return f"Cell(t={self.row}, out={self.out}, key={self.key}, next={nxt})"
