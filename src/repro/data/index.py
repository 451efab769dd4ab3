"""Grouping rows by key columns.

Relations are read through their scan path
(:meth:`repro.data.relation.Relation.instance_rows`); code that needs
equi-lookups over such rows — the star and cyclic enumerators, the
baseline join and the Yannakakis join helper — groups them with
:func:`group_by`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["group_by"]

Row = tuple


def group_by(rows: Iterable[Row], key_positions: Sequence[int]) -> dict[tuple, list[Row]]:
    """Group rows by the values at ``key_positions``.

    This is the primitive behind hash joins and semi-joins: one linear
    pass, one dict.  Returns ``{key tuple: [rows...]}``; groups keep
    first-occurrence order and rows keep input order.  An empty key puts
    every row in the one group ``()``.

    Examples
    --------
    >>> group_by([(1, "x"), (2, "z"), (1, "y")], (0,))
    {(1,): [(1, 'x'), (1, 'y')], (2,): [(2, 'z')]}
    >>> group_by([(1, "x"), (2, "z")], ())
    {(): [(1, 'x'), (2, 'z')]}
    """
    key = tuple(key_positions)
    out: dict[tuple, list[Row]] = {}
    for t in rows:
        k = tuple(t[i] for i in key)
        bucket = out.get(k)
        if bucket is None:
            out[k] = [t]
        else:
            bucket.append(t)
    return out
