"""The Yannakakis algorithm: full reducer and join evaluation.

Both the preprocessing phase of Algorithm 1 and the star-query
preprocessing (Algorithm 4) start with the classic Yannakakis machinery
[70]:

* :func:`full_reduce` — two semi-join sweeps over a join tree that delete
  every *dangling* tuple (one that participates in no join result); for
  acyclic queries the reduced instance is globally consistent.
* :func:`project_join` — the multiway bottom-up join that materialises,
  per node, the subquery result over ``A^π_i ∪ anchor(R_i)`` (with early
  projection + dedup), and thus the distinct projected output at the
  root.  This is the paper's "BFS" building block and the engine of the
  heavy-output materialisation ``O_H``.
* :func:`evaluate` — convenience: distinct ``Q(D)`` as a set of head
  tuples.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..data.database import Database
from ..data.index import group_by
from ..errors import QueryError
from ..query.jointree import JoinTree, JoinTreeNode, build_join_tree
from ..query.query import JoinProjectQuery
from ..storage import kernels, scores
from .semijoin import semijoin, shared_positions

__all__ = [
    "AtomInstances",
    "ReducedInstances",
    "atom_instances",
    "instance_domain",
    "full_reduce",
    "reduction_diff",
    "project_join",
    "evaluate",
]

Row = tuple
Instances = dict[str, list[Row]]


class AtomInstances(dict):
    """Per-alias row lists that can also serve their code matrices.

    Behaves exactly like the plain ``dict[str, list[Row]]`` every
    consumer expects; additionally each alias bound through
    :func:`atom_instances` remembers its relation + view signature, so
    the vectorised reducer and the GHD bag materialiser can fetch the
    ``int64`` matrix aligned with the row list
    (:meth:`repro.data.relation.Relation.instance_codes`) without
    re-converting tuples — the matrices are cached at the storage layer
    per store version.  :meth:`exactly_int` and :meth:`domain` remember
    their answers, and :meth:`derived` keeps what consumers derive from
    one alias's rows, so a warm plan that reuses one instances object
    scans its rows and lays out its join-tree nodes once, whatever
    ranking each execution brings.

    A binding holds for the relation's contents when it was made: once
    the relation is written (its ``generation`` moves), :meth:`codes`
    and :meth:`source_of` answer ``None`` for it — the storage caches
    then describe rows these instances do not hold — and consumers fall
    back to the row lists, which do not change.
    """

    __slots__ = ("_sources", "_exact_int", "_domains", "_derived")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sources: dict[str, tuple] = {}
        self._exact_int: dict[tuple, tuple] = {}
        self._domains: dict[tuple, tuple] = {}
        self._derived: dict[str, tuple] = {}

    def bind_source(self, alias, relation, positions, selections, distinct) -> None:
        """Record where an alias's rows came from (enables ``codes``)."""
        self._sources[alias] = (
            (relation, tuple(positions), tuple(selections), bool(distinct)),
            relation.generation,
        )

    def codes(self, alias: str):
        """The code matrix aligned with ``self[alias]``, or ``None``."""
        source = self.source_of(alias)
        if source is None:
            return None
        relation, positions, selections, distinct = source
        return relation.instance_codes(positions, selections, distinct=distinct)

    def exactly_int(self, alias: str, positions: tuple[int, ...]) -> bool:
        """:func:`~repro.storage.kernels.rows_exactly_int` over
        ``self[alias]`` at ``positions``, memoised per ``(alias,
        positions)`` for as long as the alias keeps the same row list."""
        rows = self[alias]
        hit = self._exact_int.get((alias, positions))
        if hit is not None and hit[0] is rows:
            return hit[1]
        verdict = kernels.rows_exactly_int(rows, positions)
        self._exact_int[(alias, positions)] = (rows, verdict)
        return verdict

    def domain(self, alias: str, position: int):
        """The sorted distinct values of ``self[alias]`` at ``position``
        as an ``int64`` array, or ``None`` when they are not exactly
        ``int`` (or NumPy is absent); memoised like :meth:`exactly_int`."""
        rows = self[alias]
        hit = self._domains.get((alias, position))
        if hit is not None and hit[0] is rows:
            return hit[1]
        domain = None
        if kernels.enabled() and self.exactly_int(alias, (position,)):
            matrix = self.codes(alias)
            if matrix is not None and len(matrix) == len(rows):
                column = matrix[:, position]
            else:
                column = kernels.column_array([row[position] for row in rows])
            if column is not None:
                domain = scores.column_domain(column)[0]
        self._domains[(alias, position)] = (rows, domain)
        return domain

    def derived(self, alias: str) -> dict:
        """A dict for state that depends on ``self[alias]`` alone, such
        as a join-tree node's queue layout
        (:class:`~repro.core.acyclic._NodeLayout`): kept like
        :meth:`exactly_int`'s answers, for as long as the alias keeps
        the same row list."""
        rows = self[alias]
        hit = self._derived.get(alias)
        if hit is None or hit[0] is not rows:
            hit = self._derived[alias] = (rows, {})
        return hit[1]

    def source_of(self, alias: str):
        """``(relation, positions, selections, distinct)`` or ``None``.

        How the batched ranking path (:func:`repro.core.ranking.batched_node_keys`)
        reaches the storage-cached score columns aligned with this
        alias's rows.  ``None`` too once the relation was written after
        the binding: its views no longer describe these rows.
        """
        bound = self._sources.get(alias)
        if bound is None or bound[0][0].generation != bound[1]:
            return None
        return bound[0]

    def survivors_of(self, alias: str):
        """Row indices of ``self[alias]`` within the source view.

        ``None`` means "all view rows, in view order" — true by
        construction for unreduced instances; :class:`ReducedInstances`
        overrides this with the reducer's survivor arrays.
        """
        return None


class ReducedInstances(AtomInstances):
    """Fully-reduced per-alias rows that remember where they came from.

    Produced by the vectorised reducer: each alias's surviving rows are
    a gather of the original view list, and the gather indices are kept
    so downstream array consumers (score columns) can project any
    view-aligned array onto the reduced rows without re-deriving
    anything.  The reducer's own reduced code matrices are kept too, so
    :meth:`codes` answers from them, whatever was written since.
    Behaves exactly like the plain dict the scalar reducer returns.
    """

    __slots__ = ("_survivors", "_matrices")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._survivors: dict[str, object] = {}
        self._matrices: dict[str, object] = {}

    @classmethod
    def from_reduction(
        cls, source: Mapping[str, list[Row]], rows_by_alias, survivors, matrices
    ):
        out = cls(rows_by_alias)
        out._matrices = matrices
        sources = getattr(source, "_sources", {})
        survivors_of = getattr(source, "survivors_of", None)
        for alias in rows_by_alias:
            if alias in sources:
                out._sources[alias] = sources[alias]
            kept = survivors.get(alias)
            # Compose with the input's own survivors (re-reducing an
            # already-reduced instance): the stored indices must always
            # be relative to the *view*, whatever the input was.
            prior = survivors_of(alias) if survivors_of is not None else None
            if prior is not None:
                kept = prior if kept is None else prior[kept]
            out._survivors[alias] = kept
        return out

    def survivors_of(self, alias: str):
        return self._survivors.get(alias)

    def codes(self, alias: str):
        return self._matrices.get(alias)


def atom_instances(
    query: JoinProjectQuery, db: Database, *, distinct: bool = True
) -> Instances:
    """Bind every atom to its relation's rows (validating arities).

    Equality selections (:class:`~repro.query.query.Const` terms) are
    applied here, and rows are projected onto the atom's variable
    columns, so every downstream consumer sees rows aligned with
    ``atom.variables``.  Set semantics: duplicate rows are dropped by
    default, matching the paper's model (a database is a *set* of
    tuples).

    Physically this binds each atom through its relation's scan access
    path (:meth:`repro.data.relation.Relation.instance_rows`), whose
    select/project views are cached per atom signature — repeated cold
    executions of the same query re-project nothing.  The returned
    lists are shared cache state: rebind or filter them into fresh
    lists, never mutate them in place (``full_reduce`` and every
    enumerator already copy before filtering).
    """
    out = AtomInstances()
    for atom in query.atoms:
        rel = db[atom.relation]
        if rel.arity != atom.arity:
            raise QueryError(
                f"atom {atom!r} has {atom.arity} terms but relation "
                f"{rel.name!r} has arity {rel.arity}"
            )
        out[atom.alias] = rel.instance_rows(
            atom.variable_positions, atom.selections, distinct=distinct
        )
        out.bind_source(
            atom.alias, rel, atom.variable_positions, atom.selections, distinct
        )
    return out


def instance_matrix(instances: Mapping[str, list[Row]], alias: str, width: int):
    """The code matrix for one bound alias, or ``None``.

    Prefers the storage-cached matrix of an :class:`AtomInstances`
    binding; falls back to a one-off conversion of the row list.  The
    length check guards against any drift between a cached matrix and
    the row list it must mirror.
    """
    rows = instances[alias]
    codes_of = getattr(instances, "codes", None)
    matrix = codes_of(alias) if codes_of is not None else None
    if matrix is None:
        matrix = kernels.codes_matrix(rows, width)
    if matrix is None or len(matrix) != len(rows):
        return None
    return matrix


def instance_domain(instances: Mapping[str, list[Row]], alias: str, position: int):
    """The sorted distinct values of ``instances[alias]`` at
    ``position`` as an ``int64`` array, or ``None`` (values not exactly
    ``int``, or NumPy absent): memoised by :class:`AtomInstances`
    (:meth:`AtomInstances.domain`), a one-off pass over any other
    mapping."""
    if isinstance(instances, AtomInstances):
        return instances.domain(alias, position)
    return AtomInstances({alias: instances[alias]}).domain(alias, position)


def full_reduce(
    tree: JoinTree,
    instances: Mapping[str, list[Row]],
    *,
    use_kernels: bool | None = None,
) -> Instances:
    """Remove all dangling tuples (two semi-join sweeps, O(|D|) passes).

    Returns fresh per-alias row lists; the input mapping is not mutated.
    The vectorised sweep returns them as a :class:`ReducedInstances`
    (still a plain dict to every existing consumer) carrying the
    source-view bindings and survivor index arrays that let the score
    columns of :mod:`repro.storage.scores` project onto the reduced
    rows; the scalar sweep returns an ordinary dict.

    When the instances are integer-coded (dictionary-encoded execution,
    or plain integer data) and NumPy is available, the sweeps run as
    array kernels — packed keys, ``np.isin`` membership masks, index
    gathers — with output lists identical to the row-at-a-time path
    (same tuples, same order).  ``use_kernels`` forces the choice for
    the batched sweep (``None`` = automatic); non-representable data
    falls back transparently.  Note that the fallback sweep runs
    through :func:`~repro.algorithms.semijoin.semijoin`, whose own
    large-multi-column kernel dispatch still applies — use
    :func:`repro.storage.kernels.set_enabled` to disable vectorisation
    entirely (as the benchmarks do for their row-at-a-time baselines).
    """
    if use_kernels is None:
        use_kernels = kernels.enabled()
    if use_kernels and kernels.enabled():
        state = _kernel_full_reduce(tree, instances)
        if state is not None:
            return state
        kernels.counters.record_fallback()

    state: Instances = {alias: list(rows) for alias, rows in instances.items()}

    # Bottom-up: parent ⋉ child for every edge, children first.
    for node in tree.post_order():
        for child in node.children:
            p_pos, c_pos = shared_positions(node.atom.variables, child.atom.variables)
            state[node.alias] = semijoin(
                state[node.alias], p_pos, state[child.alias], c_pos
            )

    # Top-down: child ⋉ parent, parents first.
    for node in tree.pre_order():
        for child in node.children:
            p_pos, c_pos = shared_positions(node.atom.variables, child.atom.variables)
            state[child.alias] = semijoin(
                state[child.alias], c_pos, state[node.alias], p_pos
            )
    return state


def _kernel_full_reduce(
    tree: JoinTree, instances: Mapping[str, list[Row]]
) -> Instances | None:
    """Both semi-join sweeps as array ops; ``None`` → caller falls back.

    Per alias the reducer tracks the surviving-row index array instead
    of rebuilding row lists per edge; the final lists are gathered from
    the *original* tuples, so output identity (objects included) is
    exact.
    """
    np = kernels.np
    matrices = {}
    for node in tree.nodes:
        matrix = instance_matrix(instances, node.alias, len(node.atom.variables))
        if matrix is None:
            return None
        matrices[node.alias] = matrix

    current = matrices
    survivors: dict[str, object] = {}

    def filter_with(alias: str, mask) -> None:
        if mask.all():
            return
        selected = np.nonzero(mask)[0]
        current[alias] = current[alias][selected]
        kept = survivors.get(alias)
        survivors[alias] = selected if kept is None else kept[selected]

    def semi(a_alias, a_pos, b_alias, b_pos) -> bool:
        """``a ⋉ b`` in place; False → unpackable key (full fallback)."""
        a_mat, b_mat = current[a_alias], current[b_alias]
        if not a_pos:  # cartesian edge: keep a iff b is non-empty
            if len(b_mat) == 0 and len(a_mat):
                filter_with(a_alias, np.zeros(len(a_mat), dtype=bool))
            return True
        if len(a_mat) == 0:
            return True
        if len(b_mat) == 0:
            filter_with(a_alias, np.zeros(len(a_mat), dtype=bool))
            return True
        packed = kernels.pack_pair(
            [a_mat[:, i] for i in a_pos], [b_mat[:, j] for j in b_pos]
        )
        if packed is None:
            return False
        filter_with(a_alias, kernels.semijoin_mask(*packed))
        return True

    for node in tree.post_order():
        for child in node.children:
            p_pos, c_pos = shared_positions(node.atom.variables, child.atom.variables)
            if not semi(node.alias, p_pos, child.alias, c_pos):
                return None
    for node in tree.pre_order():
        for child in node.children:
            p_pos, c_pos = shared_positions(node.atom.variables, child.atom.variables)
            if not semi(child.alias, c_pos, node.alias, p_pos):
                return None

    rows_by_alias: Instances = {}
    for alias, rows in instances.items():
        kept = survivors.get(alias)
        rows_by_alias[alias] = (
            list(rows) if kept is None else [rows[i] for i in kept.tolist()]
        )
    return ReducedInstances.from_reduction(instances, rows_by_alias, survivors, current)


def _absent(keys, others, *, ordered: bool = False):
    """Mask over ``keys``: which are not among ``others`` (both unique;
    both ascending when ``ordered``).

    Sorts both sides and searches the sorted ``keys`` in order: on
    27 000 keys this measured 1.7 ms against 9.1 ms for ``np.isin``,
    whose stable sort dominates (2-core x86-64 VM, NumPy 2.4).
    """
    np = kernels.np
    if not len(others):
        return np.ones(len(keys), dtype=bool)
    if ordered:
        order, ordered_keys = None, keys
    else:
        order = np.argsort(keys)
        ordered_keys = keys[order]
        others = np.sort(others)
    at = np.minimum(np.searchsorted(others, ordered_keys), len(others) - 1)
    absent = others[at] != ordered_keys
    if order is None:
        return absent
    out = np.empty(len(keys), dtype=bool)
    out[order] = absent
    return out


def _same_view(old, new, alias) -> bool:
    """Did both reductions gather ``alias`` from one unchanged view (same
    relation object, signature and generation)?"""
    a = getattr(old, "_sources", {}).get(alias)
    b = getattr(new, "_sources", {}).get(alias)
    if a is None or b is None:
        return False
    (relation, *signature), generation = a
    return relation is b[0][0] and signature == list(b[0][1:]) and generation == b[1]


def reduction_diff(old: Instances, new: Instances) -> dict[str, tuple] | None:
    """The rows each alias gained and lost from ``old`` to ``new``, two
    reductions of one plan: ``{alias: (added, removed)}``, index arrays
    into ``new[alias]`` and ``old[alias]``.

    An alias whose relation was not written compares the two survivor
    index arrays into its one view (both ascending).  Any other alias
    compares the reducer's own code matrices, each row packed into one
    key.  ``None`` when a side has no matrix (the scalar reducer ran),
    when a key does not pack, or when the rows both hold are not in the
    same relative order — the order every consumer's tie-breaks follow.
    """
    np = kernels.np
    codes_old = getattr(old, "codes", None)
    codes_new = getattr(new, "codes", None)
    if codes_old is None or codes_new is None or old.keys() != new.keys():
        return None
    diff = {}
    for alias in new:
        a, b = codes_old(alias), codes_new(alias)
        if a is None or b is None:
            return None
        if len(a) == len(b) and np.array_equal(a, b):
            none = np.zeros(0, dtype=np.int64)
            diff[alias] = (none, none)
            continue
        if _same_view(old, new, alias):
            keys = [old.survivors_of(alias), new.survivors_of(alias)]
            old_keys, new_keys = [
                np.arange(len(m)) if k is None else k for k, m in zip(keys, (a, b))
            ]
            diff[alias] = (
                np.flatnonzero(_absent(new_keys, old_keys, ordered=True)),
                np.flatnonzero(_absent(old_keys, new_keys, ordered=True)),
            )
            continue
        if not a.shape[1]:  # no variables: at most the one empty row
            diff[alias] = (np.arange(len(b)), np.arange(len(a)))
            continue
        packed = kernels.pack_pair(list(a.T), list(b.T))
        if packed is None:
            return None
        # Only the span between the rows both reductions start and end
        # with can differ: a small write usually leaves a short one.
        old_keys, new_keys = packed
        n = min(len(old_keys), len(new_keys))
        head = _common_run(old_keys, new_keys, n)
        tail = _common_run(old_keys[head:][::-1], new_keys[head:][::-1], n - head)
        old_keys = old_keys[head : len(old_keys) - tail]
        new_keys = new_keys[head : len(new_keys) - tail]
        removed = _absent(old_keys, new_keys)
        added = _absent(new_keys, old_keys)
        if not np.array_equal(old_keys[~removed], new_keys[~added]):
            return None
        diff[alias] = (head + np.flatnonzero(added), head + np.flatnonzero(removed))
    return diff


def _common_run(a, b, limit: int) -> int:
    """How many of their first ``limit`` entries ``a`` and ``b`` share
    before the first that differs."""
    differ = a[:limit] != b[:limit]
    return int(differ.argmax()) if differ.any() else limit


def _join_on(
    left_rows: Sequence[Row],
    left_vars: Sequence[str],
    right_rows: Sequence[Row],
    right_vars: Sequence[str],
) -> tuple[list[Row], tuple[str, ...]]:
    """Hash join; output schema = left vars ++ (right vars \\ left vars)."""
    l_pos, r_pos = shared_positions(left_vars, right_vars)
    extra_positions = [i for i, v in enumerate(right_vars) if v not in left_vars]
    out_vars = tuple(left_vars) + tuple(right_vars[i] for i in extra_positions)
    index = group_by(right_rows, r_pos)
    out: list[Row] = []
    for lrow in left_rows:
        key = tuple(lrow[i] for i in l_pos)
        for rrow in index.get(key, ()):
            out.append(lrow + tuple(rrow[i] for i in extra_positions))
    return out, out_vars


def project_join(
    tree: JoinTree, instances: Mapping[str, list[Row]]
) -> tuple[list[Row], tuple[str, ...]]:
    """Distinct projected output via the join tree with early projection.

    At every node the intermediate result is projected onto
    ``A^π_i ∪ anchor(R_i)`` and de-duplicated before flowing upward —
    the multiway plan the paper contrasts with engines' binary plans.

    Returns ``(rows, head_order)`` where ``head_order`` is the tree's
    in-order projection layout (root's ``A^π``); callers reorder to the
    query head as needed.
    """

    def walk(node: JoinTreeNode) -> tuple[list[Row], tuple[str, ...]]:
        rows: list[Row] = list(instances[node.alias])
        variables: tuple[str, ...] = node.atom.variables
        for child in node.children:
            child_rows, child_vars = walk(child)
            rows, variables = _join_on(rows, variables, child_rows, child_vars)
        keep = tuple(node.subtree_head_vars) + tuple(
            v for v in node.anchor if v not in node.subtree_head_vars
        )
        pos = tuple(variables.index(v) for v in keep)
        seen: set[Row] = set()
        projected: list[Row] = []
        for r in rows:
            p = tuple(r[i] for i in pos)
            if p not in seen:
                seen.add(p)
                projected.append(p)
        return projected, keep

    rows, variables = walk(tree.root)
    head_order = tree.output_order
    pos = tuple(variables.index(v) for v in head_order)
    return [tuple(r[i] for i in pos) for r in rows], head_order


def evaluate(
    query: JoinProjectQuery,
    db: Database,
    *,
    tree: JoinTree | None = None,
    reduce_first: bool = True,
) -> set[Row]:
    """Distinct ``Q(D)`` as a set of tuples aligned with ``query.head``."""
    if tree is None:
        tree = build_join_tree(query)
    instances = atom_instances(query, db)
    if reduce_first:
        instances = full_reduce(tree, instances)
    rows, order = project_join(tree, instances)
    reorder = tuple(order.index(v) for v in query.head)
    return {tuple(r[i] for i in reorder) for r in rows}
