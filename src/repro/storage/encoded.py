"""Encoded execution: run queries over the dictionary-encoded database.

:class:`EncodedDatabase` maintains the encoded image of one base
database — a parallel :class:`~repro.data.database.Database` whose
relations hold dense integer codes instead of raw values — together
with everything needed to execute queries over it transparently:

* **query translation** (:meth:`EncodedDatabase.encode_query`): constant
  selections are mapped into code space (a constant absent from the
  data becomes the never-matching sentinel);
* **ranking translation** (:func:`wrap_ranking`): weight functions are
  wrapped to decode before weighing, so SUM/MIN/MAX/AVG/PRODUCT keys
  are bit-identical to plain execution, and LEX keys compare codes —
  order-isomorphic to the raw values by the dictionary's
  order-preservation guarantee;
* **decode at emission** (:func:`decoded_answers`, behind
  :class:`DecodingEnumerator`):
  answers leave the enumerator as codes and are translated back to
  values (and LEX scores to value tuples) at the last possible moment.

Cache policy (the engine's contract): the encoded image is revalidated
against :attr:`Database.generation` before every use.  On a mutation,
relations whose own generation is unchanged are **not** re-encoded; the
dictionary itself is rebuilt only when the mutation introduced values
it has never seen (rebuilding re-sorts the code space, which bumps the
``epoch`` and drops every per-epoch derived cache).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from ..core.answers import RankedAnswer
from ..core.base import RankedEnumeratorBase
from ..core.ranking import (
    AvgRanking,
    CompositeRanking,
    LexRanking,
    MaxRanking,
    MinRanking,
    ProductRanking,
    RankingFunction,
    SumRanking,
    WeightFunction,
)
from . import scores
from .columnstore import ColumnStore
from .deltas import coalesced
from .dictionary import MISSING, Dictionary, _group_key

__all__ = [
    "DecodingEnumerator",
    "DecodingWeight",
    "EncodedDatabase",
    "decoded_answers",
    "make_score_decoder",
    "wrap_ranking",
]

#: Ranking classes whose encoded execution is known-identical.  Exact
#: types only: a user subclass may override key algebra in ways the
#: wrapper cannot see, and then the engine falls back to plain rows.
_WRAPPABLE = (
    SumRanking,
    AvgRanking,
    MinRanking,
    MaxRanking,
    ProductRanking,
    LexRanking,
    CompositeRanking,
)


#: Placeholder distinguishing "never computed" from any real weight.
_UNSET = object()


class DecodingWeight(WeightFunction):
    """``w'(attr, code) = w(attr, decode(code))`` — weights in value space.

    Weights are memoised per ``(attribute, code)`` in dense arrays: one
    of dictionary encoding's structural wins is that a value's weight is
    resolved **once per distinct value**, then reused by plain list
    indexing for every tuple occurrence — instead of re-hashing a fat
    key into a weight table per tuple.  Sound because weight functions
    are pure (the plan cache already relies on that).

    On the batched ranking path this per-row memo hop disappears
    entirely: :mod:`repro.storage.scores` weighs a column's distinct
    codes in one :meth:`weigh` call, which decodes them and hands the
    values to the base function's own batched :meth:`weigh`, and every
    per-tuple access is then an array gather through the column's
    (data-only) row inverse.  The memo only serves the scalar fallback
    and LEX's weighted comparisons outside its weight tables.
    """

    def __init__(self, base: WeightFunction, dictionary: Dictionary):
        self.base = base
        self.dictionary = dictionary
        self._memo: dict[str, list] = {}

    def __call__(self, attr: str, code: int) -> float:
        memo = self._memo.get(attr)
        if memo is None:
            memo = self._memo[attr] = [_UNSET] * len(self.dictionary.values)
        elif code >= len(memo):
            # The dictionary grew in place (incremental code assignment
            # for appended values): grow the memo to match.
            memo.extend([_UNSET] * (len(self.dictionary.values) - len(memo)))
        weight = memo[code]
        if weight is _UNSET:
            weight = memo[code] = self.base(attr, self.dictionary.values[code])
        return weight

    def weigh(self, attr: str, codes) -> list:
        values = self.dictionary.values
        return scores.weigh(self.base, attr, [values[code] for code in codes])

    def describe(self) -> str:
        return self.base.describe()

    def __getstate__(self):
        # A copy rebuilds the memo on its own access pattern; _UNSET is
        # process-local so the arrays must not travel.
        return (self.base, self.dictionary)

    def __setstate__(self, state) -> None:
        self.base, self.dictionary = state
        self._memo = {}


def wrap_ranking(
    ranking: RankingFunction | None, dictionary: Dictionary
) -> RankingFunction | None:
    """The code-space twin of ``ranking``, or ``None`` when unsupported.

    ``ranking=None`` (the planner's default ascending SUM over identity
    weights) *is* supported: identity weights need the decode wrapper
    like any other weight function.
    """
    if ranking is None:
        return SumRanking(DecodingWeight(_identity(), dictionary))
    if type(ranking) not in _WRAPPABLE:
        return None
    if isinstance(ranking, CompositeRanking):
        primary = wrap_ranking(ranking.primary, dictionary)
        secondary = wrap_ranking(ranking.secondary, dictionary)
        if primary is None or secondary is None:
            return None
        return CompositeRanking(primary, secondary)
    if isinstance(ranking, LexRanking):
        weight = (
            None
            if ranking.weight is None
            else DecodingWeight(ranking.weight, dictionary)
        )
        return LexRanking(
            order=ranking.order, descending=ranking.descending, weight=weight
        )
    # The aggregate family shares one constructor signature.
    return type(ranking)(
        DecodingWeight(ranking.weight, dictionary), descending=ranking.descending
    )


def _identity() -> WeightFunction:
    from ..core.ranking import IdentityWeight

    return IdentityWeight()


def make_score_decoder(
    kind: str, ranking: RankingFunction | None, dictionary: Dictionary
) -> Callable[[Any], Any]:
    """How to translate an encoded answer's *score* back to value space.

    Aggregate rankings already produce value-space scores (their weights
    decode), so the decoder is the identity.  Lexicographic scores are
    tuples of head values — i.e. codes under encoding — and decode
    elementwise; composites recurse pairwise.  ``kind == "lex"`` covers
    the backtracking enumerator, whose score is the comparison tuple
    regardless of the plan's ranking object.
    """
    values = dictionary.values

    def lex(score: Any) -> Any:
        return tuple(values[c] for c in score)

    if kind == "lex" or isinstance(ranking, LexRanking):
        return lex
    if isinstance(ranking, CompositeRanking):
        first = make_score_decoder(kind, ranking.primary, dictionary)
        second = make_score_decoder(kind, ranking.secondary, dictionary)
        return lambda score: (first(score[0]), second(score[1]))
    return lambda score: score


def decoded_answers(
    answers: Iterable[RankedAnswer],
    values: list,
    decode_score: Callable[[Any], Any],
) -> Iterator[RankedAnswer]:
    """Translate a code-space answer stream back to values, lazily.

    ``values`` is the dictionary's code -> value table, passed in (not
    looked up per answer) so a stream keeps the table it was opened
    with: a later dictionary rebuild cannot reach answers already in
    flight.  Values decode elementwise, the score goes through the
    plan-specific ``decode_score`` and :attr:`RankedAnswer.key` passes
    through unchanged (keys are only compared, never displayed, and all
    streams of one execution share the dictionary, so comparisons stay
    consistent).  Closing the generator closes the source stream.
    """
    stream = iter(answers)
    try:
        for a in stream:
            yield RankedAnswer(
                tuple(values[c] for c in a.values), decode_score(a.score), key=a.key
            )
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()


class DecodingEnumerator(RankedEnumeratorBase):
    """Wraps an enumerator running in code space; decodes at emission
    (:func:`decoded_answers`)."""

    def __init__(
        self,
        inner: RankedEnumeratorBase,
        dictionary: Dictionary,
        score_decoder: Callable[[Any], Any],
    ):
        self.inner = inner
        self.dictionary = dictionary
        self.score_decoder = score_decoder

    def preprocess(self) -> "DecodingEnumerator":
        self.inner.preprocess()
        return self

    def __iter__(self) -> Iterator[RankedAnswer]:
        return decoded_answers(self.inner, self.dictionary.values, self.score_decoder)

    def top_k(self, k: int) -> list[RankedAnswer]:
        """Delegate to the inner enumerator's ``top_k`` and decode.

        The inner enumerator serves the request and accounts its own
        enumeration time; this layer only decodes the ``k`` answers.
        """
        return list(
            decoded_answers(
                self.inner.top_k(k), self.dictionary.values, self.score_decoder
            )
        )

    @property
    def stats(self):
        """The inner enumerator's instrumentation."""
        return self.inner.stats

    def fresh(self) -> "DecodingEnumerator":
        return DecodingEnumerator(
            self.inner.fresh(), self.dictionary, self.score_decoder
        )


def profits_from_encoding(db, *, sample: int = 64) -> bool:
    """Heuristic: does this database carry fat (non-numeric) join keys?

    Dictionary codes are dense ints; when every column already holds
    ints/floats there is nothing to compress or speed up and the code
    indirection only costs.  Samples the head of each column — a miss
    (rare fat values deep in a numeric column) merely forgoes the
    optimisation, never correctness.
    """
    for rel in db:
        store = rel._store
        for column in store.columns:
            for value in column[:sample]:
                if not isinstance(value, (int, float)):
                    return True
    return False


class EncodedDatabase:
    """The dictionary-encoded image of one base database.

    Construct once per session (the engine does) and call
    :meth:`refresh` before each use; everything else is cached per
    dictionary *epoch* and per relation generation.
    """

    __slots__ = (
        "base",
        "database",
        "dictionary",
        "epoch",
        "_generation",
        "_relations",
        "_queries",
        "_rankings",
        "_weights",
        "_missing_consts",
    )

    def __init__(self, base):
        self.base = base
        self.database = None
        self.dictionary: Dictionary | None = None
        #: Bumped whenever the dictionary is rebuilt (code space changed);
        #: every per-epoch cache keys on it.
        self.epoch = 0
        self._generation: int | None = None
        # name -> (source relation, source generation, encoded relation,
        #          source store, source store version)
        self._relations: dict[str, tuple] = {}
        self._queries: dict[tuple, Any] = {}
        self._rankings: dict[tuple, tuple] = {}
        self._weights: dict[tuple, tuple] = {}
        #: Raw query constants that encoded to the never-matching
        #: sentinel this epoch.  If a write later *introduces* such a
        #: value, the cached encoded queries (and any prepared plans
        #: built from them) would silently keep selecting nothing, so
        #: incremental dictionary extension refuses and the full rebuild
        #: bumps the epoch instead.
        self._missing_consts: set = set()

    # ------------------------------------------------------------------ #
    # the encoded image
    # ------------------------------------------------------------------ #
    def refresh(self) -> "EncodedDatabase":
        """Revalidate against the base generation; re-encode the delta."""
        from ..data.database import Database
        from ..data.relation import Relation

        generation = self.base.generation
        if self.database is not None and generation == self._generation:
            return self

        if self._try_incremental():
            self._generation = generation
            return self

        stores = {rel.name: rel._store for rel in self.base}
        if self.dictionary is None or not self.dictionary.covers(
            store.columns[i] for store in stores.values() for i in range(store.arity)
        ):
            self.dictionary = Dictionary.build(
                store.columns[i]
                for store in stores.values()
                for i in range(store.arity)
            )
            self.epoch += 1
            self._relations.clear()
            self._queries.clear()
            self._rankings.clear()
            self._weights.clear()
            self._missing_consts = set()

        encode_column = self.dictionary.encode_column
        database = Database()
        for rel in self.base:
            cached = self._relations.get(rel.name)
            if (
                cached is not None
                and cached[0] is rel
                and cached[1] == rel.generation
            ):
                encoded = cached[2]
            else:
                store = ColumnStore.from_columns(
                    [encode_column(col) for col in rel._store.columns]
                )
                encoded = Relation._from_store(rel.name, rel.attrs, store)
            self._relations[rel.name] = (
                rel,
                rel.generation,
                encoded,
                rel._store,
                rel._store.version,
            )
            database.add(encoded)
        self.database = database
        self._generation = generation
        return self

    def _try_incremental(self) -> bool:
        """Replay base-store deltas into the encoded image, in place.

        Success keeps the SAME :class:`Database` object (and the same
        encoded relation/store objects) — the identity the engine's
        warm-state caches key on — and writes through the encoded
        stores' mutation interface, so the encoded image emits its own
        deltas and every downstream delta consumer (access paths, warm
        reduced instances) can maintain rather than rebuild.  Never-seen
        appended values get codes incrementally when they sort after the
        whole existing code space (:meth:`Dictionary.extend_if_ordered`
        — the append-only/monotone-key workload); anything that would
        change existing codes, match a constant that previously encoded
        to the missing sentinel, or fall outside the delta logs returns
        ``False`` and the full (epoch-bumping when needed) rebuild runs.
        """
        if self.database is None or self.dictionary is None:
            return False
        base_rels = {rel.name: rel for rel in self.base}
        if set(base_rels) != set(self._relations):
            return False
        codes = self.dictionary.codes
        pending = []
        new_values: set = set()
        for name, entry in self._relations.items():
            rel, cached_generation, encoded, store, version = entry
            if base_rels[name] is not rel or rel._store is not store:
                return False
            if store.version == version:
                continue
            deltas = store.deltas_since(version)
            if not deltas:
                return False  # None: gap not replayable; []: impossible here
            for delta in deltas:
                for row in delta.appended:
                    for value in row:
                        if value not in codes:
                            new_values.add(value)
            pending.append((name, rel, encoded, store, deltas))
        if new_values:
            if not new_values.isdisjoint(self._missing_consts):
                return False
            try:
                ordered = sorted(new_values, key=lambda v: (_group_key(v), v))
            except TypeError:
                return False
            if not self.dictionary.extend_if_ordered(ordered):
                return False
        encode_row = self.dictionary.encode_row
        for name, rel, encoded, store, deltas in pending:
            encoded_store = encoded._store
            for delta in coalesced(deltas):
                if delta.is_append:
                    encoded_store.append_rows(
                        [encode_row(row) for row in delta.appended]
                    )
                else:
                    # Base and encoded stores stay aligned row-for-row,
                    # so delete positions transfer verbatim.
                    encoded_store.delete_rows(delta.removed)
            self._relations[name] = (rel, rel.generation, encoded, store, store.version)
        return True

    # ------------------------------------------------------------------ #
    # translation caches
    # ------------------------------------------------------------------ #
    def encode_query(self, query):
        """``query`` with every constant selection mapped into code space."""
        from ..query.query import Atom, Const, JoinProjectQuery, UnionQuery

        key = (query, self.epoch)
        cached = self._queries.get(key)
        if cached is not None:
            return cached
        assert self.dictionary is not None
        encode = self.dictionary.encode
        missing = self._missing_consts

        def encode_const(term: Const) -> Const:
            code = encode(term.value)
            if code == MISSING:
                # Remember the raw value: should a write introduce it
                # later, this cached translation would be silently
                # wrong, so incremental refresh must force a rebuild.
                missing.add(term.value)
            return Const(code)

        def encode_atom(atom: Atom) -> Atom:
            if not atom.selections:
                return atom
            terms = tuple(
                encode_const(t) if isinstance(t, Const) else t for t in atom.terms
            )
            return Atom(atom.relation, terms, alias=atom.alias)

        if isinstance(query, UnionQuery):
            encoded = UnionQuery(
                [
                    JoinProjectQuery(
                        [encode_atom(a) for a in branch.atoms],
                        branch.head,
                        name=branch.name,
                    )
                    for branch in query.branches
                ],
                name=query.name,
            )
        else:
            encoded = JoinProjectQuery(
                [encode_atom(a) for a in query.atoms], query.head, name=query.name
            )
        self._queries[key] = encoded
        return encoded

    def wrap_ranking(self, ranking: RankingFunction | None):
        """Cached :func:`wrap_ranking` — stable object identity per epoch,
        so the engine's plan fingerprints keep hitting."""
        assert self.dictionary is not None
        key = (id(ranking), self.epoch)
        cached = self._rankings.get(key)
        if cached is not None and cached[0] is ranking:
            return cached[1]
        wrapped = wrap_ranking(ranking, self.dictionary)
        self._rankings[key] = (ranking, wrapped)
        return wrapped

    def wrap_weight(self, weight: WeightFunction):
        """Cached decode wrapper for a bare weight function kwarg."""
        assert self.dictionary is not None
        key = (id(weight), self.epoch)
        cached = self._weights.get(key)
        if cached is not None and cached[0] is weight:
            return cached[1]
        wrapped = DecodingWeight(weight, self.dictionary)
        self._weights[key] = (weight, wrapped)
        return wrapped

    def decoder(self, kind: str, ranking: RankingFunction | None):
        """Answer-score decoder for one plan (see :func:`make_score_decoder`)."""
        assert self.dictionary is not None
        return make_score_decoder(kind, ranking, self.dictionary)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n = len(self.dictionary) if self.dictionary is not None else 0
        return f"EncodedDatabase(epoch={self.epoch}, dict={n})"
