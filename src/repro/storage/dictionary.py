"""Order-preserving dictionary encoding of database values.

One :class:`Dictionary` spans a whole database: every distinct value in
any column of any relation receives one dense integer code.  A single
global code space is what makes *encoded equality = value equality
across relations* — the property every hash join, semi-join and
duplicate check relies on — without per-query
translation tables.

Codes are assigned **order-preserving within type groups**: all numeric
values (``int``/``float``/``bool`` — Python compares and hashes these as
one equivalence family) come first in ascending order, then strings,
then bytes, then any remaining types grouped by type name.  Whenever a
comparison between two plain values is well defined, the same comparison
between their codes agrees — which is exactly the contract the ranked
enumerators need for heap tie-breaking, ``LEX`` keys and sorted-domain
walks to be identical under encoding.  (Comparisons across groups, e.g.
``3 < "a"``, raise ``TypeError`` on plain values; codes give them *some*
stable order instead, so encoded execution only differs where plain
execution would crash.)

The code for a value **missing** from the dictionary is the sentinel
:data:`MISSING` (−1), which equals no real code: a query constant that
appears nowhere in the database selects nothing, exactly like the plain
path.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["Dictionary", "MISSING", "code_order"]

#: Sentinel code for values absent from the dictionary (matches nothing).
MISSING = -1


def _group_key(value: Any):
    """Sort key grouping values into mutually comparable families."""
    if isinstance(value, (bool, int, float)):
        return (0, "")
    if isinstance(value, str):
        return (1, "")
    if isinstance(value, bytes):
        return (2, "")
    return (3, type(value).__name__)


def code_order(values: Iterable[Any]) -> list[Any]:
    """Distinct ``values`` in the order a :class:`Dictionary` gives their
    codes: by type group, then ascending within a group.

    Plain values in this order are in the order of their codes, so a
    consumer that walks values in this order walks them alike in plain
    and encoded execution.
    """
    values = list(values)
    groups: dict[tuple, list] = {}
    if len({type(v) for v in values}) == 1:  # one group: the common case
        groups[()] = values
    else:
        for v in values:
            groups.setdefault(_group_key(v), []).append(v)
    ordered: list[Any] = []
    for gk in sorted(groups):
        members = groups[gk]
        try:
            members.sort()
        except TypeError:
            # Exotic same-named types that do not compare: fall back
            # to a stable repr order (plain execution could not have
            # compared them either).
            members.sort(key=repr)
        ordered.extend(members)
    return ordered


class Dictionary:
    """A dense, order-preserving value ⇄ code mapping.

    Examples
    --------
    >>> d = Dictionary.build([["b", 10, "a"], [7, 10]])
    >>> [d.decode(c) for c in range(len(d))]
    [7, 10, 'a', 'b']
    >>> d.encode("a"), d.encode(10), d.encode("zzz")
    (2, 1, -1)
    >>> d.encode_row(("b", 7))
    (3, 0)
    """

    __slots__ = ("values", "_codes")

    def __init__(self, values: list[Any]):
        #: ``code -> value`` (list index is the code).
        self.values = values
        self._codes: dict[Any, int] | None = None

    @classmethod
    def build(cls, value_lists: Iterable[Iterable[Any]]) -> "Dictionary":
        """Build from any iterable of value iterables (e.g. columns).

        Values equal across numeric types (``1 == 1.0 == True``) collapse
        to one code; the first-seen representative is what ``decode``
        returns.
        """
        distinct: dict[Any, None] = {}
        for values in value_lists:
            for v in values:
                if v not in distinct:
                    distinct[v] = None
        return cls(code_order(distinct))

    # ------------------------------------------------------------------ #
    # mappings
    # ------------------------------------------------------------------ #
    @property
    def codes(self) -> dict[Any, int]:
        """``value -> code``, built lazily (decode-only users skip it)."""
        if self._codes is None:
            self._codes = {v: i for i, v in enumerate(self.values)}
        return self._codes

    def __len__(self) -> int:
        return len(self.values)

    def encode(self, value: Any) -> int:
        """Code of one value (:data:`MISSING` when absent)."""
        return self.codes.get(value, MISSING)

    def decode(self, code: int):
        """Value of one code."""
        return self.values[code]

    def encode_row(self, row: tuple) -> tuple:
        """Encode every component of a row tuple."""
        codes = self.codes
        return tuple(codes.get(v, MISSING) for v in row)

    def encode_column(self, column: list[Any]) -> list[int]:
        """Encode one column list (all values must be present)."""
        codes = self.codes
        return [codes[v] for v in column]

    def covers(self, value_lists: Iterable[Iterable[Any]]) -> bool:
        """True when every value in the input already has a code."""
        codes = self.codes
        for values in value_lists:
            for v in values:
                if v not in codes:
                    return False
        return True

    # ------------------------------------------------------------------ #
    # incremental code assignment
    # ------------------------------------------------------------------ #
    def extend_if_ordered(self, values: Iterable[Any]) -> bool:
        """Append codes for new values *only* when order is preserved.

        The append keeps code order ≅ value order exactly when every new
        value sorts strictly after every existing value (and after the
        other new values already appended): the new codes land at the
        end of the code space, where the order isomorphism says they
        belong.  Typical append workloads — monotonically increasing
        keys, log-style identifiers — qualify; anything else returns
        ``False`` with the dictionary *unmodified*, and the caller
        rebuilds (the pre-incremental behaviour).
        """
        codes = self.codes
        fresh: list[Any] = []
        seen: dict[Any, None] = {}
        last = self.values[-1] if self.values else None
        for v in values:
            if v in codes or v in seen:
                continue
            if last is not None:
                gk_last, gk_new = _group_key(last), _group_key(v)
                if gk_new < gk_last:
                    return False
                if gk_new == gk_last:
                    try:
                        if not (last < v):
                            return False
                    except TypeError:
                        return False
            seen[v] = None
            fresh.append(v)
            last = v
        for v in fresh:
            codes[v] = len(self.values)
            self.values.append(v)
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dictionary(n={len(self.values)})"

    # ------------------------------------------------------------------ #
    # pickling: ship the value list only; codes rebuild on demand
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        return self.values

    def __setstate__(self, state) -> None:
        self.values = state
        self._codes = None
