"""Score columns: per-value ranking weights as storage-layer arrays.

The ranked enumerators spend their non-join preprocessing time turning
tuples into rank keys — per partial answer, one
:class:`~repro.core.ranking.WeightFunction` call per owned head
variable, each a Python dict lookup (and, under dictionary encoding, a
second memo hop through ``DecodingWeight``).  This module batches that
scalar-per-row work into array operations at the storage boundary, the
same move :mod:`repro.storage.kernels` made for the join primitives.
It splits the work along the paper's line between data and ranking:

* a column's **domain** — its sorted distinct values and the row
  inverse into them (:func:`column_domain`) — depends on the data
  alone.  ``ScanPath`` keeps one per view column, next to its code
  matrices, built once per store version and dropped by any write;
  under encoded execution the values are dictionary codes;
* a ranking's **weights** are evaluated over a whole domain in one
  batched call (:func:`weigh_domain`, through
  :meth:`WeightFunction.weigh <repro.core.ranking.WeightFunction.weigh>`),
  so a fresh weight function costs one call per distinct value and one
  gather through the inverse;
* a :class:`ScoreView` is the resulting row-aligned weight array of one
  scan view column (built by ``ScanPath.scores_view`` and cached there
  per weight function, like the ``codes_view`` matrices), and
  :meth:`ScoreView.take` gathers the weights of any row subset (the
  full reducer's survivor indices) in one indexed load.

The contract is the kernel layer's **exact or refuse**, and
:func:`weigh_domain` is the one place that applies it: a score array
either reproduces the scalar weight path bit-for-bit — weights come
from the same :class:`WeightFunction`, on values pre-checked to be
exactly ``int`` — or the build returns ``None`` and the consumer stays
on per-row Python keys.  A weight function that *raises* (or has no
weight) for some value marks that value missing instead of failing the
build: the batch path then refuses only when a missing value is
actually used, which is precisely when the scalar path would raise.
The score views, the lexicographic weight tables and the
lexicographic sort columns all weigh through it, each with its own
rule on top.

The module-level :data:`counters` mirror the kernel counters
(:class:`~repro.storage.kernels.KernelCounters` — thread-safe, scoped);
:class:`~repro.engine.stats.EngineStats` surfaces them per engine as
``score_builds`` / ``score_fallbacks``.
"""

from __future__ import annotations

from typing import Any

from . import kernels

__all__ = [
    "ScoreView",
    "build_score_view",
    "column_domain",
    "counters",
    "enabled",
    "set_enabled",
    "weigh",
    "weigh_domain",
    "weigh_each",
]

counters = kernels.KernelCounters()

_enabled = True


def enabled() -> bool:
    """True when NumPy is importable and score columns are switched on."""
    return kernels.enabled() and _enabled


def set_enabled(flag: bool) -> None:
    """Force-disable (or re-enable) the batched scoring path.

    The per-row scalar key computation is always available; benchmarks
    and tests use this switch to compare the two paths on identical
    inputs without disabling the join kernels.
    """
    global _enabled
    _enabled = bool(flag)


def column_domain(values):
    """``(domain, inverse)`` of a 1-D ``int64`` array: its sorted
    distinct values, and each entry's position among them."""
    domain, inverse = kernels.np.unique(values, return_inverse=True)
    return domain, inverse.reshape(-1)


def weigh_each(weight, attr: str, values) -> list:
    """``weight(attr, v)`` for each of ``values``, ``None`` where the
    call raises (the scalar path raises there too, if the value is
    ever used)."""
    out = []
    for value in values:
        try:
            out.append(weight(attr, value))
        except Exception:
            out.append(None)
    return out


def _owner(cls, name: str):
    """The class in ``cls``'s MRO that defines ``name``, or ``None``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    return None


def weigh(weight, attr: str, values) -> list:
    """``weight``'s results over ``values`` in one batched call
    (:meth:`~repro.core.ranking.WeightFunction.weigh`), ``None`` for a
    value without a weight.

    The batch method is trusted only where it is defined no higher in
    the class hierarchy than ``__call__``: a subclass that overrides
    ``__call__`` alone (say, to scale a table's weights) must not be
    weighed by its parent's table lookup, so it — like a plain
    callable — is called per value.
    """
    cls = type(weight)
    batch = _owner(cls, "weigh")
    if batch is None or not issubclass(batch, _owner(cls, "__call__")):
        return weigh_each(weight, attr, values)
    return weight.weigh(attr, values)


def weigh_domain(weight, attr: str, domain):
    """``weight`` over a sorted ``int64`` domain: ``(raw, weights,
    missing)``.

    ``raw`` holds the weight calls' own results (``None`` where a value
    has no weight) — what LEX's weight tables keep.  ``weights`` are
    their ``float64`` images — the same correctly-rounded conversion
    CPython applies when the scalar path computes ``sign * w`` — and
    ``missing`` (``None`` when nothing is) marks values without a
    usable weight: the call raised or found no weight, the weight is
    NaN (array min/max/sum order NaNs differently from Python), or an
    ``int`` weight overflows ``float64``.  ``weights`` and ``missing``
    are ``None`` when any weight is a ``bool`` or not a real number:
    the float key algebra differs, so the float consumers refuse.  The
    caller guarantees the domain's values are exactly ``int``, so the
    weight function sees what the scalar path passes it.
    """
    np = kernels.np
    raw = weigh(weight, attr, domain.tolist())
    holes = None
    exact = raw
    if not set(map(type, raw)) <= {float, int}:
        for w in raw:
            if w is not None and (isinstance(w, bool) or not isinstance(w, (int, float))):
                return raw, None, None
        holes = [w is None for w in raw]
        exact = [0.0 if w is None else w for w in raw]
    try:
        weights = np.array(exact, dtype=np.float64)
    except OverflowError:  # an int past float64's range
        holes = holes or [False] * len(raw)
        weights = np.zeros(len(raw), dtype=np.float64)
        for i, w in enumerate(exact):
            try:
                weights[i] = float(w)
            except OverflowError:
                holes[i] = True
    missing = np.isnan(weights)
    if holes is not None:
        missing |= np.array(holes, dtype=bool)
    return raw, weights, (missing if missing.any() else None)


class ScoreView:
    """One weight function's weights, row-for-row over one view column.

    ``scores[i]`` is the raw (unsigned) weight of view row ``i``'s
    value for one attribute; ``missing`` flags rows whose weight the
    function could not produce.  Built and cached by
    ``ScanPath.scores_view`` per (view signature, column, attribute,
    weight function), and carried over store deltas with the scan path.
    """

    __slots__ = ("scores", "missing")

    def __init__(self, scores, missing):
        self.scores = scores
        self.missing = missing  # bool array or None

    def __len__(self) -> int:
        return len(self.scores)

    def take(self, indices):
        """Weights of the given view rows (``None`` indices = all rows).

        Returns ``None`` when the subset touches a missing weight —
        the scalar fallback then raises the weight function's own
        error, on the same value, where the batch path cannot.
        """
        if indices is None:
            if self.missing is not None and self.missing.any():
                return None
            return self.scores
        if self.missing is not None and self.missing[indices].any():
            return None
        return self.scores[indices]


def build_score_view(domain, inverse, attr: str, weight) -> ScoreView | None:
    """Row-aligned score view of one column, or ``None``.

    ``(domain, inverse)`` is the column's :func:`column_domain` (kept by
    ``ScanPath`` per view column, or computed for an ad-hoc column);
    the caller guarantees the underlying values are exactly ``int``.
    Weights are evaluated once per distinct value (:func:`weigh_domain`)
    and broadcast back through the inverse — the per-row work the
    scalar path repeats per tuple collapses into one gather.
    """
    if not enabled():
        return None
    _raw, weights, missing = weigh_domain(weight, attr, domain)
    if weights is None:
        counters.record_fallback("non-real-weight")
        return None
    counters.record_call()
    return ScoreView(weights[inverse], None if missing is None else missing[inverse])


def adhoc_score_array(rows, position: int, attr: str, weight) -> Any | None:
    """Raw weight array for one column of a plain row list, or ``None``.

    The uncached counterpart of ``ScanPath.scores_view`` for row lists
    that no longer know their access path (star sub-instances,
    caller-supplied instances, Python-reduced state): pre-checks the
    values are exactly ``int``, converts the column once and builds a
    one-off score view over it.
    """
    if not enabled():
        return None
    if not kernels.rows_exactly_int(rows, (position,)):
        counters.record_fallback("conversion")
        return None
    column = kernels.column_array([row[position] for row in rows])
    if column is None:
        counters.record_fallback("conversion")
        return None
    view = build_score_view(*column_domain(column), attr, weight)
    if view is None:
        return None
    taken = view.take(None)
    if taken is None:
        counters.record_fallback("missing-weight")
    return taken
