"""Ranked enumeration for cyclic queries via GHDs (paper §5, Theorem 3).

The recipe: pick a generalized hypertree decomposition of width
``fhw``; materialise, per bag, the join of the atoms it contains
(projected onto the bag variables, extended with unary domains for bag
variables covered only fractionally); the bag relations then form an
*acyclic* query over the bag tree, and Theorem 1's enumerator applies
unchanged.  Total: ``O(|D|^fhw log |D|)`` preprocessing and delay.

The materialisation is exact: every original atom is fully contained in
at least one bag (GHD property (i)) and is therefore enforced there; the
running-intersection property of the bag tree glues the bags back into
precisely the original join.

The materialised, reduced bags (:class:`GHDBags`) depend on the data
alone, so they can be built once and shared by every ranking of a query
(``bags=``): the engine does this per database generation.

Note: Theorem 4's further improvement to submodular width uses PANDA's
data-dependent decompositions, which are out of scope (see DESIGN.md);
this module delivers the ``fhw`` bound, which already covers every
cyclic experiment in the paper (4/6/8-cycles, butterfly, bowtie).
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from ..algorithms.yannakakis import atom_instances, full_reduce, instance_matrix
from ..data.database import Database
from ..data.relation import Relation
from ..data.index import group_by
from ..errors import DecompositionError
from ..query.ghd import GHD, find_ghd
from ..query.jointree import build_join_tree
from ..query.query import Atom, JoinProjectQuery
from ..storage import kernels
from .acyclic import AcyclicRankedEnumerator
from .answers import EnumerationStats, RankedAnswer
from .base import RankedEnumeratorBase
from .ranking import RankingFunction, SumRanking

__all__ = ["CyclicRankedEnumerator", "GHDBags", "materialise_bags"]

Row = tuple


class GHDBags:
    """A GHD's bags materialised over one database and fully reduced.

    What every ranking of a cyclic query shares, since Theorem 3's
    ``O(|D|^fhw)`` step comes before any ranking applies: the bag
    query, its join tree, the database of bag relations (whose scan,
    code and int-column caches stay with them) and the bag instances
    after the full reducer.  Built by :func:`materialise_bags`; the
    engine keeps one per query and database generation and hands it to
    every :class:`CyclicRankedEnumerator` of the query (``bags=``).

    Attributes
    ----------
    query / join_tree:
        The acyclic query over the bag relations and its join tree.
    db / instances:
        The bag relations, and their rows after the full reducer.
    materialised_tuples:
        Bag tuples materialised (the ``O(|D|^fhw)`` cost driver).
    """

    __slots__ = ("query", "join_tree", "db", "instances", "materialised_tuples")

    def __init__(self, query, join_tree, db, instances, materialised_tuples):
        self.query = query
        self.join_tree = join_tree
        self.db = db
        self.instances = instances
        self.materialised_tuples = materialised_tuples


def materialise_bags(query: JoinProjectQuery, db: Database, ghd: GHD) -> GHDBags:
    """Materialise every bag of ``ghd`` over ``db`` and reduce the bag tree.

    Per bag: the join of the atoms it contains, extended with unary
    domains for variables covered only fractionally, projected onto the
    bag and de-duplicated (:func:`_materialise_bag`).  The bag relations
    then form an acyclic query whose instances go through the full
    reducer once, here.
    """
    instances = atom_instances(query, db)
    atoms_by_alias = {atom.alias: atom for atom in query.atoms}
    bag_db = Database()
    bag_atoms: list[Atom] = []
    materialised = 0
    for bag in ghd.bags:
        bag_vars = tuple(sorted(bag.variables))
        name = f"__bag{bag.bag_id}"
        relation = _materialise_bag(bag, name, bag_vars, instances, atoms_by_alias)
        materialised += len(relation)
        bag_db.add(relation)
        bag_atoms.append(Atom(name, bag_vars))
    bag_query = JoinProjectQuery(bag_atoms, query.head, name=f"{query.name}_ghd")
    tree = build_join_tree(bag_query)
    # Both materialisation paths de-duplicate the bag rows already, so
    # the bag atoms bind without a second distinct pass.
    reduced = full_reduce(tree, atom_instances(bag_query, bag_db, distinct=False))
    return GHDBags(bag_query, tree, bag_db, reduced, materialised)


class CyclicRankedEnumerator(RankedEnumeratorBase):
    """Theorem 3: GHD materialisation + acyclic ranked enumeration.

    Parameters
    ----------
    query:
        Any join-project query (typically cyclic; acyclic inputs work
        too, with a single-bag or width-1 decomposition).
    db:
        The database instance.
    ranking:
        Any decomposable ranking; default ascending SUM.
    ghd:
        Optional pre-built decomposition; defaults to
        :func:`repro.query.ghd.find_ghd`.
    bags:
        Optional bags already materialised and reduced over ``ghd``
        (:func:`materialise_bags`); they are read, never modified, and
        :meth:`preprocess` then reads nothing from ``db``.

    Attributes
    ----------
    materialised_tuples:
        Total bag-relation tuples built during preprocessing (the
        ``O(|D|^fhw)`` cost driver, reported by the cyclic benchmarks).
    stats:
        The inner acyclic enumerator's work, rolled up: its answers,
        cells, heap (pushes, pops, peak entries, operations per answer)
        and build time; ``reduce_seconds`` also covers the bag
        materialisation when this enumerator did it.
    """

    def __init__(
        self,
        query: JoinProjectQuery,
        db: Database,
        ranking: RankingFunction | None = None,
        *,
        ghd: GHD | None = None,
        bags: GHDBags | None = None,
        dedup_inserts: bool = True,
    ):
        self.query = query
        self.db = db
        self.ranking = ranking or SumRanking()
        self.ghd = ghd if ghd is not None else find_ghd(query)
        if self.ghd.query.atoms != query.atoms:
            raise DecompositionError("the GHD belongs to a different query")
        self._bags = bags
        self._dedup_inserts = dedup_inserts
        self.stats = EnumerationStats()
        self.materialised_tuples = 0
        self._inner: AcyclicRankedEnumerator | None = None
        self._exhausted = False

    # ------------------------------------------------------------------ #
    # preprocessing: bag materialisation
    # ------------------------------------------------------------------ #
    def preprocess(self) -> "CyclicRankedEnumerator":
        if self._inner is not None:
            return self
        started = time.perf_counter()
        bags = self._bags
        if bags is None:
            bags = materialise_bags(self.query, self.db, self.ghd)
        self.materialised_tuples = bags.materialised_tuples
        self._inner = AcyclicRankedEnumerator(
            bags.query,
            bags.db,
            self.ranking,
            join_tree=bags.join_tree,
            instances=bags.instances,
            already_reduced=True,
            dedup_inserts=self._dedup_inserts,
        )
        materialised = time.perf_counter()
        self._inner.preprocess()
        inner = self._inner.stats
        self.stats.heap_stats = inner.heap_stats
        self.stats.pq_ops_per_answer = inner.pq_ops_per_answer
        self.stats.cells_created = inner.cells_created
        self.stats.reduce_seconds = materialised - started + inner.reduce_seconds
        self.stats.build_seconds = inner.build_seconds
        self.stats.preprocess_seconds = time.perf_counter() - started
        return self

    # ------------------------------------------------------------------ #
    # enumeration: delegate to the acyclic enumerator over the bag tree
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[RankedAnswer]:
        self.preprocess()
        if self._exhausted:
            raise DecompositionError(
                "enumerator already consumed; call fresh() to enumerate again"
            )
        self._exhausted = True
        assert self._inner is not None
        stats, inner = self.stats, self._inner.stats
        for answer in self._inner:
            stats.answers = inner.answers
            stats.cells_created = inner.cells_created
            yield answer
        stats.cells_created = inner.cells_created

    @property
    def inner_stats(self) -> EnumerationStats:
        """Statistics of the inner acyclic enumerator."""
        assert self._inner is not None, "preprocess first"
        return self._inner.stats

    def fresh(self) -> "CyclicRankedEnumerator":
        """A new enumerator with identical configuration."""
        return CyclicRankedEnumerator(
            self.query,
            self.db,
            self.ranking,
            ghd=self.ghd,
            bags=self._bags,
            dedup_inserts=self._dedup_inserts,
        )


def _materialise_bag(
    bag,
    name: str,
    bag_vars: tuple[str, ...],
    instances: dict[str, list[Row]],
    atoms_by_alias: dict[str, Atom],
) -> Relation:
    """Join the atoms contained in a bag, extend uncovered variables
    with unary domains, project onto the bag and de-duplicate.

    Integer-coded instances (encoded execution, plain-int data) run
    the whole pipeline — joins, projection, dedup — as array
    kernels and keep the result as the relation's code matrix; the
    row-at-a-time hash join below is the automatic fallback and
    produces identical rows in identical order.
    """
    if kernels.enabled():
        matrix = _materialise_bag_kernel(bag, bag_vars, instances, atoms_by_alias)
        if matrix is not None:
            return Relation.from_code_matrix(name, bag_vars, matrix)
        kernels.counters.record_fallback()
    components: list[tuple[tuple[str, ...], list[Row]]] = []
    covered: set[str] = set()
    for alias in bag.contained_atom_aliases:
        atom = atoms_by_alias[alias]
        components.append((atom.variables, instances[alias]))
        covered |= atom.var_set

    # Variables in the bag covered only fractionally by the edge
    # cover: give them their active domain (projection of the
    # smallest relation containing them) so the bag relation has the
    # full schema.  This is a superset of the true projection, which
    # is sound — the enforcing bag filters it during the join.
    for var in bag_vars:
        if var in covered:
            continue
        holders = [
            (alias, atom.variables.index(var))
            for alias, atom in atoms_by_alias.items()
            if var in atom.var_set
        ]
        if not holders:  # pragma: no cover - query validation precludes
            raise DecompositionError(f"variable {var!r} appears in no atom")
        alias, pos = min(holders, key=lambda ap: len(instances[ap[0]]))
        domain = sorted({row[pos] for row in instances[alias]})
        components.append(((var,), [(v,) for v in domain]))
        covered.add(var)

    # Greedy join order: always merge a component sharing variables
    # with the accumulated result when possible (delays cartesian
    # blow-ups to the end, where they are required by the cover).
    acc_vars, acc_rows = components[0]
    remaining = components[1:]
    while remaining:
        pick = next(
            (i for i, (vs, _r) in enumerate(remaining) if set(vs) & set(acc_vars)),
            0,
        )
        comp_vars, comp_rows = remaining.pop(pick)
        acc_rows, acc_vars = _hash_join(acc_rows, acc_vars, comp_rows, comp_vars)

    positions = tuple(acc_vars.index(v) for v in bag_vars)
    seen: set[Row] = set()
    out: list[Row] = []
    for row in acc_rows:
        projected = tuple(row[i] for i in positions)
        if projected not in seen:
            seen.add(projected)
            out.append(projected)
    return Relation(name, bag_vars, out)


def _materialise_bag_kernel(
    bag,
    bag_vars: tuple[str, ...],
    instances: dict[str, list[Row]],
    atoms_by_alias: dict[str, Atom],
):
    """The bag join as array kernels: the bag's ``int64`` matrix, or
    ``None`` → row-at-a-time path.

    Mirrors the Python materialisation step for step — same
    component order, same greedy join order, same left-major join
    sequence, same first-occurrence dedup — so the returned rows
    are identical, in identical order.
    """
    np = kernels.np
    components: list[tuple[tuple[str, ...], Any]] = []
    covered: set[str] = set()
    for alias in bag.contained_atom_aliases:
        atom = atoms_by_alias[alias]
        matrix = instance_matrix(instances, alias, len(atom.variables))
        # Unlike the reducer (which re-emits the original tuples),
        # the bag rows are rebuilt from codes — so the inputs must
        # be exactly ints, not merely int-coercible (bool, IntEnum).
        if matrix is None or not kernels.rows_exactly_int(instances[alias]):
            return None
        components.append((atom.variables, matrix))
        covered |= atom.var_set

    for var in bag_vars:
        if var in covered:
            continue
        holders = [
            (alias, atom.variables.index(var))
            for alias, atom in atoms_by_alias.items()
            if var in atom.var_set
        ]
        if not holders:  # pragma: no cover - query validation precludes
            raise DecompositionError(f"variable {var!r} appears in no atom")
        alias, pos = min(holders, key=lambda ap: len(instances[ap[0]]))
        source = instance_matrix(
            instances, alias, len(atoms_by_alias[alias].variables)
        )
        if source is None or not kernels.rows_exactly_int(
            instances[alias], (pos,)
        ):
            return None
        # np.unique ascending == sorted(set(...)) on integers.
        components.append(((var,), np.unique(source[:, pos]).reshape(-1, 1)))
        covered.add(var)

    acc_vars, acc = components[0]
    remaining = components[1:]
    while remaining:
        pick = next(
            (i for i, (vs, _m) in enumerate(remaining) if set(vs) & set(acc_vars)),
            0,
        )
        comp_vars, comp = remaining.pop(pick)
        joined = _kernel_join(acc, acc_vars, comp, comp_vars)
        if joined is None:
            return None
        acc, acc_vars = joined

    positions = [acc_vars.index(v) for v in bag_vars]
    projected = acc[:, positions]
    first = kernels.distinct_indices(projected)
    if first is None:
        return None
    return projected[first]


def _kernel_join(
    left,
    left_vars: tuple[str, ...],
    right,
    right_vars: tuple[str, ...],
):
    """Hash join two code matrices (cartesian when disjoint).

    Output row order matches :func:`_hash_join` exactly: left-major,
    right matches in store order.  ``None`` when the join key does not
    pack into 64 bits.
    """
    np = kernels.np
    shared = [v for v in left_vars if v in right_vars]
    l_pos = tuple(left_vars.index(v) for v in shared)
    r_pos = tuple(right_vars.index(v) for v in shared)
    extra = [i for i, v in enumerate(right_vars) if v not in left_vars]
    out_vars = tuple(left_vars) + tuple(right_vars[i] for i in extra)
    width = len(out_vars)
    if len(left) == 0 or len(right) == 0:
        return np.empty((0, width), dtype=np.int64), out_vars
    if not l_pos:
        left_idx, right_idx = kernels.cross_indices(len(left), len(right))
    else:
        packed = kernels.pack_pair(
            [left[:, i] for i in l_pos], [right[:, j] for j in r_pos]
        )
        if packed is None:
            return None
        left_idx, right_idx = kernels.join_indices(*packed)
    parts = [left[left_idx]]
    if extra:
        parts.append(right[right_idx][:, extra])
    return (
        parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1),
        out_vars,
    )


def _hash_join(
    left_rows: list[Row],
    left_vars: tuple[str, ...],
    right_rows: list[Row],
    right_vars: tuple[str, ...],
) -> tuple[list[Row], tuple[str, ...]]:
    """Hash join two positional row lists (cartesian when disjoint)."""
    shared = [v for v in left_vars if v in right_vars]
    l_pos = tuple(left_vars.index(v) for v in shared)
    r_pos = tuple(right_vars.index(v) for v in shared)
    extra = [i for i, v in enumerate(right_vars) if v not in left_vars]
    out_vars = left_vars + tuple(right_vars[i] for i in extra)
    index = group_by(right_rows, r_pos)
    out: list[Row] = []
    for lrow in left_rows:
        key = tuple(lrow[i] for i in l_pos)
        for rrow in index.get(key, ()):
            out.append(lrow + tuple(rrow[i] for i in extra))
    return out, out_vars
