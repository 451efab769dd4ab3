"""Ranking functions (paper §2.1).

The paper focuses on two rankings over the projection attributes:

* ``SUM`` — ``rank(t) = Σ_{A ∈ head} w(t[A])`` for a per-value weight
  function ``w`` (paper Example 3);
* ``LEXICOGRAPHIC`` — compare head attributes in a given order, each
  ascending or descending.

and notes that the machinery extends directly to other *decomposable*
functions; we also ship ``MIN``, ``MAX``, ``AVG``, ``PRODUCT`` and a
composite ``then_by`` combinator (used to repair the Algorithm 6 baseline,
see :mod:`repro.algorithms.existing`).

Design
------
A ranking function is a small spec object; the enumerators call
:meth:`RankingFunction.bind` with the mapping ``variable -> global
position`` to obtain a :class:`BoundRanking` that produces *keys*:

* ``key(pairs)`` turns ``[(var, value), ...]`` (a node's owned head
  variables) into a partial key;
* ``combine(keys)`` merges the keys of a node and its children —
  **monotone in every argument**, which is exactly the property the
  correctness proof of Algorithm 2 needs (Lemma 3, cases 1–3);
* keys are plain comparable Python values, so priority queues order
  partial answers by comparing ``(key, partial output)`` tuples — the
  paper's tie-break "by the lexicographic order of ``output(c)``".

For ``LEXICOGRAPHIC`` the key is a tuple of ``(global position, value)``
pairs kept sorted by position; merging two such keys is monotone for any
assignment of positions, so the general algorithm supports arbitrary
lexicographic orders without the paper's ``10^(m-i)`` weight transform
(which assumes bounded domains).

Batched keys
------------
The aggregate rankings additionally support a *vectorised* key path:
:meth:`BoundRanking.combine_score_arrays` turns per-attribute weight
arrays (score columns served by the storage layer, see
:mod:`repro.storage.scores`) into a per-row key array with NumPy
reductions, and :func:`batched_node_keys` / :func:`batched_output_keys`
are the enumerator-facing glue.  The contract is exact-or-refuse, like
the join kernels: the array keys are bit-identical to the scalar
``key()`` path (the float operations are performed in the same order),
and anything the arrays cannot reproduce — LEX and composite keys,
non-real or missing weights, non-``int`` values — returns ``None`` so
the scalar path runs unchanged.  This module is the only non-storage
module allowed to touch raw score arrays (``tools/check_layering.py``).

The enumeration phase has its own array algebra on top of the scoring
one: :meth:`BoundRanking.combine_key_arrays` is the array form of
:meth:`BoundRanking.combine` over *already-signed key* arrays (a node's
own keys plus one child-top key column per child), used by the array
queue build in :mod:`repro.core.acyclic`.  :data:`combine_counters`
records that dispatch site's successes and reason-coded refusals;
:class:`~repro.engine.stats.EngineStats` surfaces the successes as
``batched_combines``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from ..errors import RankingError
from ..storage import kernels, scores

__all__ = [
    "WeightFunction",
    "IdentityWeight",
    "TableWeight",
    "CallableWeight",
    "RankingFunction",
    "BoundRanking",
    "SumRanking",
    "AvgRanking",
    "MinRanking",
    "MaxRanking",
    "ProductRanking",
    "LexRanking",
    "CompositeRanking",
    "Desc",
    "batched_column_keys",
    "batched_node_key_array",
    "batched_node_keys",
    "batched_output_keys",
    "batched_weight_table",
    "combine_counters",
]

#: Instrumentation for the enumeration-phase array dispatch site (same
#: thread-safe, scope-collecting class as the kernel counters): per-node
#: batched ``combine`` passes in queue construction.  Refusals carry
#: reason codes (``reasons_snapshot()``).
combine_counters = kernels.KernelCounters()

Pair = tuple[str, Any]


# --------------------------------------------------------------------- #
# weight functions
# --------------------------------------------------------------------- #
class WeightFunction:
    """Maps ``(attribute, value)`` to a real weight (paper's ``w``)."""

    def __call__(self, attr: str, value: Any) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class IdentityWeight(WeightFunction):
    """The value *is* its weight (requires numeric attribute values)."""

    def __call__(self, attr: str, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RankingError(
                f"IdentityWeight needs numeric values; got {value!r} for {attr!r}. "
                "Use TableWeight or CallableWeight for non-numeric domains."
            )
        return value

    def describe(self) -> str:
        return "w(v) = v"


class TableWeight(WeightFunction):
    """Weights from per-attribute lookup tables.

    Parameters
    ----------
    tables:
        ``{attribute: {value: weight}}``.  Attributes absent from the
        mapping fall back to ``default_table`` (shared across attributes,
        e.g. one entity-weight table used by several self-join variables).
    default:
        Weight for values missing from their table (``None`` = raise).
    """

    def __init__(
        self,
        tables: Mapping[str, Mapping[Any, float]],
        *,
        default_table: Mapping[Any, float] | None = None,
        default: float | None = None,
    ):
        self.tables = {a: dict(t) for a, t in tables.items()}
        self.default_table = dict(default_table) if default_table is not None else None
        self.default = default

    def __call__(self, attr: str, value: Any) -> float:
        table = self.tables.get(attr, self.default_table)
        if table is None:
            raise RankingError(f"no weight table for attribute {attr!r}")
        w = table.get(value, self.default)
        if w is None:
            raise RankingError(f"no weight for value {value!r} of attribute {attr!r}")
        return w

    def describe(self) -> str:
        return f"table weights over {sorted(self.tables)}"


class CallableWeight(WeightFunction):
    """Adapter for an arbitrary ``f(attr, value) -> float``."""

    def __init__(self, fn: Callable[[str, Any], float], *, label: str = "callable"):
        self.fn = fn
        self.label = label

    def __call__(self, attr: str, value: Any) -> float:
        return self.fn(attr, value)

    def describe(self) -> str:
        return self.label


# --------------------------------------------------------------------- #
# descending-order value wrapper
# --------------------------------------------------------------------- #
class Desc:
    """Total-order-reversing wrapper used inside LEX keys for DESC attributes."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "Desc") -> bool:
        return other.value < self.value

    def __le__(self, other: "Desc") -> bool:
        return other.value <= self.value

    def __gt__(self, other: "Desc") -> bool:
        return other.value > self.value

    def __ge__(self, other: "Desc") -> bool:
        return other.value >= self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Desc) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Desc", self.value))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Desc({self.value!r})"


# --------------------------------------------------------------------- #
# ranking specs and bound rankings
# --------------------------------------------------------------------- #
class BoundRanking:
    """A ranking bound to concrete head-variable positions.

    Subclasses define the key algebra.  ``zero`` is the key of an empty
    variable set (a node that owns no projection variables).

    ``strictly_monotone`` declares that increasing a child's
    ``(key, partial output)`` strictly increases the combined parent's
    ``(key, partial output)``.  SUM and LEX have this property, which is
    what makes Lawler-style successor generation emit ties in
    deterministic output order and keep duplicates adjacent.  MIN/MAX
    (and PRODUCT, whose zero weights can freeze the combined key) are
    only *weakly* monotone: the combined key never decreases, but equal
    keys can arrive out of output order — the enumerator then buffers
    one key group at a time (see
    :meth:`repro.core.acyclic.AcyclicRankedEnumerator.__iter__`).
    """

    zero: Any = 0.0
    strictly_monotone: bool = True

    def key(self, pairs: Sequence[Pair]) -> Any:
        """Key of a set of ``(variable, value)`` pairs."""
        raise NotImplementedError

    def combine(self, keys: Sequence[Any]) -> Any:
        """Merge node + children keys; monotone in every argument."""
        raise NotImplementedError

    def final_score(self, key: Any) -> Any:
        """User-facing score derived from a full-output key."""
        return key

    def key_of_output(self, variables: Sequence[str], values: Sequence[Any]) -> Any:
        """Key of a complete output tuple (used by sort-based baselines)."""
        return self.key(list(zip(variables, values)))

    # ------------------------------------------------------------------ #
    # batched (array) keys — exact-or-refuse, see module docstring
    # ------------------------------------------------------------------ #
    def batch_weight(self) -> "WeightFunction | None":
        """The weight function driving the batched key path.

        ``None`` declares the key algebra non-batchable (LEX, composite
        and any user subclass that does not opt in): the enumerators
        then compute every key through :meth:`key`, unchanged.
        """
        return None

    def combine_score_arrays(self, arrays: Sequence[Any]):
        """Per-row key array from per-attribute raw weight arrays.

        ``arrays[j][i]`` is ``weight(attr_j, row_i[attr_j])`` as
        ``float64``; the result's entry ``i`` must be bit-identical to
        ``key([(attr_0, row_i[..]), ...])``.  ``None`` refuses (the
        scalar path runs, including any error it raises).
        """
        return None

    def combine_key_arrays(self, arrays: Sequence[Any]):
        """Per-row combined keys from aligned *key* arrays.

        The array form of :meth:`combine`: ``arrays[j][i]`` is part
        ``j``'s key for row ``i`` (a node's own key plus one child-top
        key per child), already signed — unlike
        :meth:`combine_score_arrays`, no direction sign is applied
        here.  The result's entry ``i`` must be bit-identical to
        ``combine([arrays[0][i], arrays[1][i], ...])``.  ``None``
        refuses (LEX/composite keys are not flat floats), and the
        enumerator's scalar combine loop runs unchanged.
        """
        return None

    def key_sort_columns(self, variables: Sequence[str], columns: Sequence[Any]):
        """Sort columns standing in for keys that the output determines.

        For a key algebra in which every partial output's key is
        ``key(zip(variables, output))``, whatever the join tree's
        shape: ``columns[j]`` holds ``variables[j]``'s ``int64`` values,
        one entry per row, and the result is a list of arrays, most
        significant first, whose lexicographic order over the rows is
        the order of the rows' keys, ties exactly where the keys are
        equal.  ``None`` refuses (the default: keys are combined from
        the parts, or not representable), and the enumerator builds its
        queues the scalar way.
        """
        return None


class RankingFunction:
    """Base spec; :meth:`bind` produces the operational object."""

    #: human-readable kind used in reports ("sum", "lexicographic", ...)
    kind: str = "abstract"

    def bind(self, positions: Mapping[str, int]) -> BoundRanking:
        """Bind to ``variable -> global output position``.

        The position map is only semantically relevant for
        ``LEXICOGRAPHIC``; the aggregate rankings ignore it.
        """
        raise NotImplementedError

    def then_by(self, secondary: "RankingFunction") -> "CompositeRanking":
        """Order by ``self``, break ties by ``secondary``."""
        return CompositeRanking(self, secondary)

    def describe(self) -> str:
        return self.kind


class _AggregateBound(BoundRanking):
    """Shared machinery for SUM/MIN/MAX/PRODUCT-style numeric keys."""

    def __init__(self, weight: WeightFunction, sign: float):
        self.weight = weight
        self.sign = sign

    def _w(self, attr: str, value: Any) -> float:
        return self.sign * self.weight(attr, value)

    def batch_weight(self) -> WeightFunction:
        return self.weight


class _SumBound(_AggregateBound):
    zero = 0.0

    def key(self, pairs: Sequence[Pair]) -> float:
        return sum(self._w(a, v) for a, v in pairs)

    def combine(self, keys: Sequence[float]) -> float:
        return sum(keys)

    def final_score(self, key: float) -> float:
        return self.sign * key

    def combine_score_arrays(self, arrays):
        # Mirrors key()'s ``sum()`` operation for operation — the int-0
        # start included, so signed zeros come out bit-identical.
        acc = 0.0 + self.sign * arrays[0]
        for arr in arrays[1:]:
            acc = acc + self.sign * arr
        return acc

    def combine_key_arrays(self, arrays):
        # combine() is sum(keys): int-0 start, then left-to-right adds.
        # Keys are already signed, so no sign is applied here.
        acc = 0.0 + arrays[0]
        for arr in arrays[1:]:
            acc = acc + arr
        return acc


class SumRanking(RankingFunction):
    """``SUM`` ranking: ``rank(t) = Σ w(t[A])`` (ascending by default).

    Parameters
    ----------
    weight:
        Per-value weight function; defaults to :class:`IdentityWeight`.
    descending:
        Enumerate largest-sum first (the paper's DBLP queries use
        ``ORDER BY w1 + w2`` with either direction; descending is
        implemented by negating weights, which keeps combine monotone).
    """

    kind = "sum"

    def __init__(self, weight: WeightFunction | None = None, *, descending: bool = False):
        self.weight = weight or IdentityWeight()
        self.descending = descending

    def bind(self, positions: Mapping[str, int]) -> BoundRanking:
        return _SumBound(self.weight, -1.0 if self.descending else 1.0)

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"SUM[{self.weight.describe()}, {direction}]"


class _AvgBound(_SumBound):
    def __init__(self, weight: WeightFunction, sign: float, arity: int):
        super().__init__(weight, sign)
        self.arity = max(arity, 1)

    def final_score(self, key: float) -> float:
        return self.sign * key / self.arity


class AvgRanking(SumRanking):
    """``AVG`` over the head attributes.

    Because the head size is fixed per query, AVG induces the same order
    as SUM; only the reported score is divided by the head arity (one of
    the paper's "straightforward extensions").
    """

    kind = "avg"

    def bind(self, positions: Mapping[str, int]) -> BoundRanking:
        return _AvgBound(self.weight, -1.0 if self.descending else 1.0, len(positions))


class _MinBound(_AggregateBound):
    zero = float("inf")
    strictly_monotone = False

    def key(self, pairs: Sequence[Pair]) -> float:
        return min((self._w(a, v) for a, v in pairs), default=self.zero)

    def combine(self, keys: Sequence[float]) -> float:
        return min(keys) if keys else self.zero

    def final_score(self, key: float) -> float:
        return self.sign * key

    def combine_score_arrays(self, arrays):
        acc = self.sign * arrays[0]
        np = kernels.np
        for arr in arrays[1:]:
            acc = np.minimum(acc, self.sign * arr)
        return acc

    def combine_key_arrays(self, arrays):
        acc = arrays[0]
        np = kernels.np
        for arr in arrays[1:]:
            acc = np.minimum(acc, arr)
        return acc


class MinRanking(RankingFunction):
    """Rank by the minimum attribute weight (ascending)."""

    kind = "min"

    def __init__(self, weight: WeightFunction | None = None, *, descending: bool = False):
        self.weight = weight or IdentityWeight()
        self.descending = descending

    def bind(self, positions: Mapping[str, int]) -> BoundRanking:
        # Descending-min == ascending over negated weights *maximised*;
        # handled by sign inside a max-style bound.
        if self.descending:
            return _MaxBound(self.weight, -1.0)
        return _MinBound(self.weight, 1.0)

    def describe(self) -> str:
        return f"MIN[{self.weight.describe()}]"


class _MaxBound(_AggregateBound):
    zero = float("-inf")
    strictly_monotone = False

    def key(self, pairs: Sequence[Pair]) -> float:
        return max((self._w(a, v) for a, v in pairs), default=self.zero)

    def combine(self, keys: Sequence[float]) -> float:
        return max(keys) if keys else self.zero

    def final_score(self, key: float) -> float:
        return self.sign * key

    def combine_score_arrays(self, arrays):
        acc = self.sign * arrays[0]
        np = kernels.np
        for arr in arrays[1:]:
            acc = np.maximum(acc, self.sign * arr)
        return acc

    def combine_key_arrays(self, arrays):
        acc = arrays[0]
        np = kernels.np
        for arr in arrays[1:]:
            acc = np.maximum(acc, arr)
        return acc


class MaxRanking(RankingFunction):
    """Rank by the maximum attribute weight (ascending)."""

    kind = "max"

    def __init__(self, weight: WeightFunction | None = None, *, descending: bool = False):
        self.weight = weight or IdentityWeight()
        self.descending = descending

    def bind(self, positions: Mapping[str, int]) -> BoundRanking:
        if self.descending:
            return _MinBound(self.weight, -1.0)
        return _MaxBound(self.weight, 1.0)

    def describe(self) -> str:
        return f"MAX[{self.weight.describe()}]"


class _ProductBound(BoundRanking):
    strictly_monotone = False  # zero weights freeze the combined product

    def __init__(self, weight: WeightFunction, descending: bool):
        self.weight = weight
        self.descending = descending
        # Keys carry the direction as their sign: ascending keys are the
        # (non-negative) products themselves, descending keys are their
        # negation, so smaller key == enumerated earlier in both modes.
        self.zero = -1.0 if descending else 1.0

    def _w(self, attr: str, value: Any) -> float:
        w = self.weight(attr, value)
        if w < 0:
            raise RankingError(
                f"PRODUCT ranking requires non-negative weights, got {w} for "
                f"{attr!r}={value!r} (multiplication is not monotone otherwise)"
            )
        return w

    def key(self, pairs: Sequence[Pair]) -> float:
        out = 1.0
        for a, v in pairs:
            out *= self._w(a, v)
        return -out if self.descending else out

    def combine(self, keys: Sequence[float]) -> float:
        out = 1.0
        for k in keys:
            out *= abs(k)
        return -out if self.descending else out

    def final_score(self, key: float) -> float:
        return abs(key)

    def batch_weight(self) -> WeightFunction:
        return self.weight

    def combine_score_arrays(self, arrays):
        np = kernels.np
        for arr in arrays:
            # key() raises for negative weights; refuse so the scalar
            # path raises the identical RankingError.
            if bool((arr < 0).any()):
                return None
        acc = 1.0 * arrays[0]
        for arr in arrays[1:]:
            acc = acc * arr
        return np.negative(acc) if self.descending else acc

    def combine_key_arrays(self, arrays):
        # combine() multiplies 1.0 by abs(k) for every key (keys carry
        # the direction as their sign); mirror it op for op.
        np = kernels.np
        acc = 1.0 * np.abs(arrays[0])
        for arr in arrays[1:]:
            acc = acc * np.abs(arr)
        return np.negative(acc) if self.descending else acc


class ProductRanking(RankingFunction):
    """Rank by the product of non-negative attribute weights.

    One of the paper's "circuits that use sum and products" extensions;
    monotone combination requires non-negative weights, validated at key
    creation.
    """

    kind = "product"

    def __init__(self, weight: WeightFunction | None = None, *, descending: bool = False):
        self.weight = weight or IdentityWeight()
        self.descending = descending

    def bind(self, positions: Mapping[str, int]) -> BoundRanking:
        return _ProductBound(self.weight, self.descending)

    def describe(self) -> str:
        return f"PRODUCT[{self.weight.describe()}]"


class _LexBound(BoundRanking):
    zero = ()

    def __init__(
        self,
        positions: Mapping[str, int],
        desc_vars: frozenset[str],
        weight: WeightFunction | None,
    ):
        self.positions = dict(positions)
        self.desc_vars = desc_vars
        self.weight = weight

    def _value_key(self, attr: str, value: Any) -> Any:
        # Weighted LEX compares per-attribute weights, with the raw value
        # as a deterministic refinement of weight ties.
        if self.weight is not None:
            return (self.weight(attr, value), value)
        return value

    def key(self, pairs: Sequence[Pair]) -> tuple:
        items = []
        for attr, value in pairs:
            pos = self.positions.get(attr)
            if pos is None:
                raise RankingError(f"LEX ranking has no position for variable {attr!r}")
            vk = self._value_key(attr, value)
            items.append((pos, Desc(vk) if attr in self.desc_vars else vk))
        items.sort(key=lambda iv: iv[0])
        return tuple(items)

    def combine(self, keys: Sequence[tuple]) -> tuple:
        merged: list[tuple[int, Any]] = []
        for k in keys:
            merged.extend(k)
        merged.sort(key=lambda iv: iv[0])
        return tuple(merged)

    def key_sort_columns(self, variables: Sequence[str], columns: Sequence[Any]):
        """LEX keys as columns: per variable in comparison order, its
        weight (when weighted) and its value, negated when descending."""
        np = kernels.np
        out = []
        pairs = sorted(zip(variables, columns), key=lambda vc: self.positions.get(vc[0], -1))
        for var, col in pairs:
            if var not in self.positions:
                return None  # key() raises; let the scalar path do it
            parts = [col]
            if self.weight is not None:
                weights = _weight_column(self.weight, var, col)
                if weights is None:
                    return None
                parts = [weights, col]
            if var in self.desc_vars:
                if len(col) and col.min() == np.iinfo(np.int64).min:
                    return None
                parts = [-part for part in parts]
            out.extend(parts)
        return out

    def final_score(self, key: tuple) -> tuple:
        out = []
        for _, v in key:
            if isinstance(v, Desc):
                v = v.value
            if self.weight is not None:
                v = v[1]  # unwrap the (weight, value) refinement
            out.append(v)
        return tuple(out)


def _weight_column(weight: WeightFunction, attr: str, column):
    """``weight(attr, v)`` for each ``v`` of an ``int64`` column, as an
    exact ``float64`` array, or ``None``: a weight call raises, or a
    weight is NaN, not a real number or an ``int`` past ``2**53``."""
    np = kernels.np
    values, inverse = np.unique(column, return_inverse=True)
    weights = []
    for value in values.tolist():
        try:
            w = weight(attr, value)
        except Exception:
            return None
        if isinstance(w, float) and w == w:
            weights.append(w)
        elif isinstance(w, int) and abs(w) <= 2**53:
            weights.append(w)
        else:
            return None
    return np.asarray(weights, dtype=np.float64)[inverse.reshape(-1)]


class LexRanking(RankingFunction):
    """``LEXICOGRAPHIC`` ranking over the head variables.

    Parameters
    ----------
    order:
        Variable comparison order; defaults to the query head order at
        bind time (positions supplied by the enumerator).
    descending:
        Variables to compare in descending order (the paper's
        ``ORDER BY A1 ASC, A2 DESC ...`` generality).
    weight:
        Optional per-value weight function: compare attributes by
        ``w(value)`` instead of the raw value (the paper's
        ``ORDER BY A1.weight, A2.weight`` queries), refined by the raw
        value on weight ties for determinism.
    """

    kind = "lexicographic"

    def __init__(
        self,
        order: Sequence[str] | None = None,
        descending: Iterable[str] = (),
        *,
        weight: WeightFunction | None = None,
    ):
        self.order = tuple(order) if order is not None else None
        self.descending = frozenset(descending)
        self.weight = weight

    def bind(self, positions: Mapping[str, int]) -> BoundRanking:
        if self.order is not None:
            missing = [v for v in positions if v not in self.order]
            if missing:
                raise RankingError(f"LEX order {self.order} is missing variables {missing}")
            pos = {v: i for i, v in enumerate(self.order) if v in positions}
        else:
            pos = dict(positions)
        unknown = self.descending - set(pos)
        if unknown:
            raise RankingError(f"descending variables {sorted(unknown)} not in the head")
        return _LexBound(pos, self.descending, self.weight)

    def describe(self) -> str:
        order = "head order" if self.order is None else ",".join(self.order)
        desc = f" desc={sorted(self.descending)}" if self.descending else ""
        w = f" w={self.weight.describe()}" if self.weight is not None else ""
        return f"LEX[{order}{desc}{w}]"


class _CompositeBound(BoundRanking):
    def __init__(self, primary: BoundRanking, secondary: BoundRanking):
        self.primary = primary
        self.secondary = secondary
        self.zero = (primary.zero, secondary.zero)
        # Strictness of the pair is inherited from the primary only: a
        # weak primary can hold the first component constant while the
        # secondary moves arbitrarily.
        self.strictly_monotone = primary.strictly_monotone

    def key(self, pairs: Sequence[Pair]) -> tuple:
        return (self.primary.key(pairs), self.secondary.key(pairs))

    def combine(self, keys: Sequence[tuple]) -> tuple:
        return (
            self.primary.combine([k[0] for k in keys]),
            self.secondary.combine([k[1] for k in keys]),
        )

    def final_score(self, key: tuple) -> tuple:
        return (self.primary.final_score(key[0]), self.secondary.final_score(key[1]))


class CompositeRanking(RankingFunction):
    """Primary ranking with a secondary tie-break ranking.

    Both components must themselves be monotone-decomposable, which makes
    the pairwise combination monotone again.  Used by the Algorithm 6
    baseline to keep equal projections adjacent.
    """

    kind = "composite"

    def __init__(self, primary: RankingFunction, secondary: RankingFunction):
        self.primary = primary
        self.secondary = secondary

    def bind(self, positions: Mapping[str, int]) -> BoundRanking:
        return _CompositeBound(self.primary.bind(positions), self.secondary.bind(positions))

    def describe(self) -> str:
        return f"{self.primary.describe()} then {self.secondary.describe()}"


# --------------------------------------------------------------------- #
# batched key computation: score columns -> per-row key arrays
# --------------------------------------------------------------------- #
def _view_score_array(instances, alias: str, rows, position: int, attr: str, weight):
    """Weights aligned with ``instances[alias]`` via the storage cache.

    Available when the instances remember their source scan view
    (:class:`~repro.algorithms.yannakakis.AtomInstances` /
    ``ReducedInstances``): the view-aligned score column comes out of
    the relation's access-path cache — materialised once per store
    version — and the reducer's survivor indices project it onto the
    surviving rows in one gather.
    """
    source_of = getattr(instances, "source_of", None)
    if source_of is None:
        return None
    source = source_of(alias)
    if source is None:
        return None
    relation, positions, selections, distinct = source
    view = relation.scan().scores_view(
        positions, selections, distinct, index=position, attr=attr, weight=weight
    )
    if view is None:
        return None
    survivors = instances.survivors_of(alias)
    arr = view.take(survivors)
    if arr is None or len(arr) != len(rows):
        return None
    return arr


def batched_node_key_array(
    bound: BoundRanking, instances, alias: str, own_pairs: Sequence[tuple[str, int]]
):
    """Rank keys of one join-tree node's rows as a ``float64`` array.

    ``own_pairs`` is the node's owned head variables with their column
    positions in ``instances[alias]`` (the enumerator's ``_RTNode``
    layout).  Entry ``i`` of the result is bit-identical to
    ``bound.key([(var, rows[i][pos]) for var, pos in own_pairs])``;
    ``None`` means "compute keys the scalar way" — non-batchable
    rankings, non-``int`` values, weights the arrays cannot represent.
    """
    if not own_pairs or not scores.enabled():
        return None
    weight = bound.batch_weight()
    if weight is None:
        scores.counters.record_fallback("unbatchable-ranking")
        return None
    rows = instances[alias]
    if not rows:
        return None
    arrays = []
    for var, position in own_pairs:
        arr = _view_score_array(instances, alias, rows, position, var, weight)
        if arr is None:
            arr = scores.adhoc_score_array(rows, position, var, weight)
        if arr is None:
            return None
        arrays.append(arr)
    keys = bound.combine_score_arrays(arrays)
    if keys is None:
        scores.counters.record_fallback("combine-refused")
        return None
    return keys


def batched_node_keys(
    bound: BoundRanking, instances, alias: str, own_pairs: Sequence[tuple[str, int]]
) -> list | None:
    """:func:`batched_node_key_array` as a plain float list (or ``None``)."""
    keys = batched_node_key_array(bound, instances, alias, own_pairs)
    return None if keys is None else keys.tolist()


def batched_output_keys(
    bound: BoundRanking, variables: Sequence[str], rows: Sequence[tuple]
) -> list | None:
    """Rank keys of complete output tuples as a plain float list.

    The array form of :meth:`BoundRanking.key_of_output` (the star
    structure's heavy-output sort); same exact-or-refuse contract as
    :func:`batched_node_keys`.
    """
    if not variables or not rows or not scores.enabled():
        return None
    weight = bound.batch_weight()
    if weight is None:
        scores.counters.record_fallback("unbatchable-ranking")
        return None
    arrays = []
    for position, var in enumerate(variables):
        arr = scores.adhoc_score_array(rows, position, var, weight)
        if arr is None:
            return None
        arrays.append(arr)
    keys = bound.combine_score_arrays(arrays)
    if keys is None:
        scores.counters.record_fallback("combine-refused")
        return None
    return keys.tolist()


def batched_column_keys(bound: BoundRanking, variables: Sequence[str], columns):
    """Rank keys of output tuples held as aligned ``int64`` code columns.

    The column-native sibling of :func:`batched_output_keys` for
    callers that already hold the candidate tuples as arrays (the star
    enumerator's joined heavy fragments); ``columns[j]`` is variable
    ``variables[j]``'s values, pre-checked by the caller to come from
    exactly-``int`` cells.  Returns a ``float64`` key array whose entry
    ``i`` is bit-identical to ``bound.key_of_output(variables,
    row_i)``, or ``None`` to refuse.
    """
    if not variables or not scores.enabled():
        return None
    weight = bound.batch_weight()
    if weight is None:
        scores.counters.record_fallback("unbatchable-ranking")
        return None
    arrays = []
    for var, column in zip(variables, columns):
        view = scores.build_score_view(column, var, weight)
        if view is None:
            return None
        arr = view.take(None)
        if arr is None:
            scores.counters.record_fallback("missing-weight")
            return None
        arrays.append(arr)
    keys = bound.combine_score_arrays(arrays)
    if keys is None:
        scores.counters.record_fallback("combine-refused")
        return None
    return keys


def batched_weight_table(
    weight: WeightFunction, attr: str, rows: Sequence[tuple], position: int
) -> dict | None:
    """``{value: weight(attr, value)}`` over one column's distinct values.

    The lexicographic backtracker's score-column analogue: the distinct
    pass runs as one array operation and the weight function is called
    once per distinct value, with the **raw** result cached — LEX
    comparison keys embed the weight call's exact return value (an
    ``int`` weight orders the same as its float but is a different
    key), so no ``float64`` conversion is applied.  Values whose weight
    call raises are left out of the table: the caller's per-value
    fallback then re-calls the weight function and raises the identical
    error at the identical point.  ``None`` refuses (scores disabled,
    non-``int`` cells).
    """
    if not scores.enabled():
        return None
    if not rows:
        return {}
    if not kernels.rows_exactly_int(rows, (position,)):
        scores.counters.record_fallback("conversion")
        return None
    column = kernels.column_array([row[position] for row in rows])
    if column is None:
        scores.counters.record_fallback("conversion")
        return None
    table: dict[int, Any] = {}
    for value in kernels.np.unique(column).tolist():
        try:
            table[value] = weight(attr, value)
        except Exception:
            continue
    scores.counters.record_call()
    return table
