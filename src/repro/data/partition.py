"""Hash partitioning of a database for sharded ranked enumeration.

The parallel subsystem (:mod:`repro.parallel`) scales enumeration by
splitting the input into ``k`` *shards*, running one enumerator per
shard, and recombining the ranked shard streams with an
order-preserving merge.  This module is the data half of that story:

* :func:`choose_partition_attribute` picks the join variable whose
  hash classes split the most work (the variable shared by the most
  atoms, weighted by the tuples behind them);
* :func:`partition_query` materialises the shards.

Partitioning is **per atom**, not per relation: every atom of the
query gets its own shard relation, named after the atom's alias, and
the query is rewritten so each atom reads its private relation.  This
is what makes self-joins shardable — the two atoms of the 2-hop query
``Q(a1, a2) :- R(a1, p), R(a2, p)`` both bind the partition variable
``p`` to column 1 of ``R``, but a chain ``R(x, y), R(y, z)`` binds
``y`` to different columns per atom, which a single partition of ``R``
cannot serve.

Correctness invariant (what the merge relies on):

* an atom that *binds* the partition variable ``v`` keeps, in shard
  ``s``, exactly the rows whose ``v``-column hashes to ``s``;
* an atom that does not bind ``v`` is *replicated* (every shard sees
  all of its rows, sharing the tuple list in process).

Any join answer binds ``v`` to a single value, so all of its witness
tuples land together in the shard that value hashes to: shard ``s``
enumerates exactly the answers whose ``v``-value hashes to ``s``.
When ``v`` is projected away, one output tuple can be derived from
several ``v``-values and hence surface in several shards — the merge
de-duplicates adjacent equal outputs, which suffices because rank keys
are functions of the output values (see :mod:`repro.parallel.merge`).

Hashing is *stable* (CRC-based, not Python's salted ``hash``) so shard
assignment is reproducible across processes and runs.

Examples
--------
>>> from repro.data import Database
>>> from repro.query import parse_query
>>> db = Database()
>>> _ = db.add_relation("R", ("a", "p"), [(1, 10), (2, 10), (3, 99)])
>>> q = parse_query("Q(a1, a2) :- R(a1, p), R(a2, p)")
>>> choose_partition_attribute(q, db)
'p'
>>> part = partition_query(q, db, shards=2)
>>> part.attribute, len(part.databases)
('p', 2)
>>> sorted(shard_db.size for shard_db in part.databases)  # per-atom shards
[2, 4]
"""

from __future__ import annotations

import zlib
from typing import Any, Sequence

from ..errors import SchemaError
from ..query.query import Atom, JoinProjectQuery, UnionQuery
from ..storage import kernels
from .database import Database
from .relation import Relation

__all__ = [
    "QueryPartition",
    "choose_partition_attribute",
    "partition_query",
    "rewrite_for_sharding",
    "stable_shard",
]


def _stable_hash(value: Any) -> int:
    """A deterministic, process-independent hash for shard assignment.

    Integers map to themselves (so small consecutive keys spread evenly
    and tests are easy to reason about); everything else goes through
    CRC32 of its ``repr``.  Python's built-in ``hash`` is unsuitable:
    string hashing is salted per process, and shard assignment must
    agree between the parent and any worker that re-derives it.

    Invariant: values that compare equal must hash equal, or the
    witnesses of one join value would be split across shards and the
    answer silently lost.  Join keys compare across numeric types
    (``10 == 10.0 == True and 1``), so bools and integral floats are
    canonicalised to ``int`` before hashing — mixed-type key columns
    are realistic because the CSV loader types each cell independently.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return zlib.crc32(repr(value).encode("utf-8"))


def stable_shard(value: Any, shards: int) -> int:
    """Shard index of ``value`` under stable hashing (in ``[0, shards)``).

    >>> stable_shard(10, 4), stable_shard(11, 4)
    (2, 3)
    >>> stable_shard("alice", 4) == stable_shard("alice", 4)
    True
    """
    return _stable_hash(value) % shards


def _query_atoms(query: JoinProjectQuery | UnionQuery) -> list[Atom]:
    if isinstance(query, UnionQuery):
        return [atom for branch in query.branches for atom in branch.atoms]
    return list(query.atoms)


def choose_partition_attribute(
    query: JoinProjectQuery | UnionQuery, db: Database | None = None
) -> str | None:
    """Pick the join variable that shards the most work.

    Scores every body variable by ``(number of atoms binding it, total
    tuples behind those atoms)`` and returns the maximum; atoms binding
    the winner are partitioned, the rest are replicated.  Every valid
    query binds at least one variable (atoms without variables are
    rejected at construction), so a variable is always returned; the
    ``None`` branch is a defensive fallback for variable-free inputs,
    and callers treat ``None`` as "use a single shard".

    The tuple-count term needs a database; without one the choice is
    structural only (atom counts, ties broken by first appearance).
    """
    atoms = _query_atoms(query)
    order: dict[str, int] = {}
    coverage: dict[str, int] = {}
    tuples: dict[str, int] = {}
    for atom in atoms:
        size = 0
        if db is not None:
            rel = db.get(atom.relation)
            size = len(rel) if rel is not None else 0
        for var in atom.variables:
            if var not in order:
                order[var] = len(order)
            coverage[var] = coverage.get(var, 0) + 1
            tuples[var] = tuples.get(var, 0) + size
    if not coverage:
        return None
    return max(
        coverage,
        key=lambda v: (coverage[v], tuples[v], -order[v]),
    )


class QueryPartition:
    """The result of hash-partitioning one query's data into shards.

    Attributes
    ----------
    query:
        The rewritten query: structurally identical to the original
        (same head, same variables, same join structure), but every
        atom reads its own alias-named relation so shards can filter
        per atom.  Plans built for this query are shard-independent.
    databases:
        One :class:`~repro.data.database.Database` per shard, holding
        exactly the alias-named relations the rewritten query reads.
    attribute:
        The partition variable, or ``None`` when partitioning was not
        possible (then there is exactly one full shard).
    shards:
        Number of shards (``len(databases)``).
    partitioned_aliases / replicated_aliases:
        Which atoms were hash-split vs fully replicated.
    """

    __slots__ = (
        "query",
        "databases",
        "attribute",
        "shards",
        "partitioned_aliases",
        "replicated_aliases",
        "shard_plan",
    )

    def __init__(
        self,
        query: JoinProjectQuery | UnionQuery,
        databases: list[Database],
        attribute: str | None,
        partitioned_aliases: Sequence[str],
        replicated_aliases: Sequence[str],
        shard_plan: Sequence[tuple] = (),
    ):
        self.query = query
        self.databases = databases
        self.attribute = attribute
        self.shards = len(databases)
        self.partitioned_aliases = tuple(partitioned_aliases)
        self.replicated_aliases = tuple(replicated_aliases)
        #: How each shard relation derives from the source database:
        #: ``(shard-local name, source relation, partition column or
        #: None)`` per atom.  Shard assignment is a pure function of
        #: this plan (stable hashing), which is what lets the process
        #: backend ship a shard *by reference* — a worker holding the
        #: same source data (e.g. a mapped snapshot) re-derives its
        #: shard instead of receiving it pickled.
        self.shard_plan = tuple(shard_plan)

    def shard_sizes(self) -> list[int]:
        """``|D_s|`` per shard (replicated tuples counted per shard)."""
        return [shard_db.size for shard_db in self.databases]

    def describe(self) -> str:
        """One-line summary used by ``--explain`` and the benchmarks."""
        if self.attribute is None:
            return "unpartitioned[1 shard]"
        return (
            f"hash[{self.attribute}] x {self.shards} shards "
            f"(split: {len(self.partitioned_aliases)}, "
            f"replicated: {len(self.replicated_aliases)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryPartition({self.describe()})"


def _rewrite_atom(atom: Atom, rel_name: str) -> Atom:
    return Atom(rel_name, atom.terms, alias=atom.alias)


def rewrite_for_sharding(
    query: JoinProjectQuery | UnionQuery,
) -> JoinProjectQuery | UnionQuery:
    """The per-atom rewrite of ``query``, without touching any data.

    Every atom is pointed at its own deterministically named relation
    (``__shard_<alias>``, or ``__b<i>_<alias>`` inside union branches)
    so each shard database can filter per atom.  The rewrite is a pure
    function of the query — :func:`partition_query` produces shard
    databases for exactly these names, and because plans are
    data-independent, a plan built for the rewritten query (e.g. by the
    engine's parallel plan cache) instantiates against any shard of any
    partition of the same query.
    """
    if isinstance(query, UnionQuery):
        return UnionQuery(
            [
                JoinProjectQuery(
                    [
                        _rewrite_atom(atom, f"__b{b_idx}_{atom.alias}")
                        for atom in branch.atoms
                    ],
                    branch.head,
                    name=branch.name,
                )
                for b_idx, branch in enumerate(query.branches)
            ],
            name=query.name,
        )
    return JoinProjectQuery(
        [_rewrite_atom(atom, f"__shard_{atom.alias}") for atom in query.atoms],
        query.head,
        name=query.name,
    )


def _partition_rows(
    rel: Relation, column: int, shards: int
) -> list[list[tuple]]:
    """Split rows by the stable hash of one column.

    Reads the partition column directly off the columnar scan path (one
    list, no per-row tuple indexing); encoded-database callers get
    dense-int keys here, which `_stable_hash` maps to themselves.
    """
    buckets: list[list[tuple]] = [[] for _ in range(shards)]
    scan = rel.scan()
    keys = scan.column(column)
    rows = scan.rows()
    if kernels.enabled() and len(rows) >= kernels.KERNEL_MIN_ROWS:
        # Kernel path: hash the whole key column in one array op.  Only
        # taken when it is *exactly* the scalar assignment — integer
        # keys map to themselves under ``_stable_hash`` and NumPy's
        # ``%`` agrees with Python's for a positive modulus — and the
        # helper refuses (returning ``None``) any column where it could
        # not be (floats, strings, over-wide ints), falling back to the
        # per-row loop below.
        ids = kernels.shard_ids(keys, shards)
        if ids is not None:
            for shard, row in zip(ids, rows):
                buckets[shard].append(row)
            return buckets
    for key, row in zip(keys, rows):
        buckets[_stable_hash(key) % shards].append(row)
    return buckets


def _shard_atom(
    atom: Atom,
    rel_name: str,
    db: Database,
    attribute: str | None,
    shard_dbs: list[Database],
    partitioned: list[str],
    replicated: list[str],
    shard_plan: list[tuple],
) -> None:
    rel = db.get(atom.relation)
    if rel is None:
        raise SchemaError(
            f"cannot partition: database has no relation named {atom.relation!r}"
        )
    if attribute is not None and attribute in atom.var_set:
        column = atom.variable_positions[atom.variables.index(attribute)]
        buckets = _partition_rows(rel, column, len(shard_dbs))
        for shard_db, rows in zip(shard_dbs, buckets):
            shard_db.add(Relation(rel_name, rel.attrs, rows))
        partitioned.append(atom.alias)
        shard_plan.append((rel_name, atom.relation, column))
    else:
        for shard_db in shard_dbs:
            # Replicas share the parent's tuple list (copy-on-pickle for
            # the process backend, zero-copy for the serial backend).
            shard_db.add(rel.renamed(rel_name))
        replicated.append(atom.alias)
        shard_plan.append((rel_name, atom.relation, None))


def partition_query(
    query: JoinProjectQuery | UnionQuery,
    db: Database,
    shards: int,
    *,
    attribute: str | None = None,
) -> QueryPartition:
    """Hash-partition ``db`` into ``shards`` per-atom shard databases.

    Parameters
    ----------
    query:
        The query to shard; rewritten per atom (see module docstring).
    db:
        The full database.
    shards:
        Number of shards (>= 1).  ``shards == 1`` degenerates to one
        full copy-free shard, which keeps the parallel code path
        exercisable without splitting anything.
    attribute:
        Partition variable override; defaults to
        :func:`choose_partition_attribute`.  When no variable is
        usable the result has a single replicated shard and
        ``attribute is None``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if attribute is None:
        attribute = choose_partition_attribute(query, db)
    elif attribute not in {
        v for atom in _query_atoms(query) for v in atom.variables
    }:
        raise SchemaError(
            f"partition attribute {attribute!r} does not appear in the query"
        )
    if attribute is None:
        shards = 1

    shard_dbs = [Database() for _ in range(shards)]
    partitioned: list[str] = []
    replicated: list[str] = []
    shard_plan: list[tuple] = []

    rewritten = rewrite_for_sharding(query)
    for atom, new_atom in zip(_query_atoms(query), _query_atoms(rewritten)):
        _shard_atom(
            atom,
            new_atom.relation,
            db,
            attribute,
            shard_dbs,
            partitioned,
            replicated,
            shard_plan,
        )

    return QueryPartition(
        rewritten, shard_dbs, attribute, partitioned, replicated, shard_plan
    )
