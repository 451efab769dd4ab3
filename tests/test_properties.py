"""Property-based tests (hypothesis) on the core invariants.

Strategy: generate small random databases for a portfolio of query
shapes and assert that every enumeration algorithm reproduces the
brute-force oracle's exact ranked sequence, plus structural invariants
of the heap, the ranking algebra, and the reducer.
"""

from hypothesis import given, settings, strategies as st

from repro.algorithms import EngineBaseline, FullQueryRankedBaseline
from repro.algorithms.naive import join_results, ranked_output
from repro.algorithms.yannakakis import atom_instances, evaluate, full_reduce
from repro.core import (
    AcyclicRankedEnumerator,
    CyclicRankedEnumerator,
    LexBacktrackEnumerator,
    StarTradeoffEnumerator,
)
from repro.core.heap import RankHeap
from repro.core.ranking import LexRanking, SumRanking
from repro.data import Database
from repro.query import build_join_tree, parse_query

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
values = st.integers(min_value=0, max_value=3)


def rows(arity: int, max_rows: int = 8):
    return st.lists(
        st.tuples(*([values] * arity)), min_size=0, max_size=max_rows
    )


def db_strategy(query):
    names = sorted({a.relation for a in query.atoms})
    arities = {
        n: len(next(a for a in query.atoms if a.relation == n).variables)
        for n in names
    }
    return st.fixed_dictionaries({n: rows(arities[n]) for n in names}).map(
        lambda spec: Database.from_dict(
            {
                n: (tuple(f"c{i}" for i in range(arities[n])), spec[n])
                for n in names
            }
        )
    )


PATH4 = parse_query("Q(a, e) :- R1(a,b), R2(b,c), R3(c,d), R4(d,e)")
STAR3 = parse_query("Q(x1, x2, x3) :- R(x1, b), R(x2, b), R(x3, b)")
MIXED = parse_query("Q(w, x) :- R(x, y), S(y, z), T(z, w)")
TRIANGLE = parse_query("Q(x, y) :- R(x, y), S(y, z), T(z, x)")


# ---------------------------------------------------------------------- #
# enumerator == oracle, exact ranked sequence
# ---------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(db=db_strategy(PATH4))
def test_acyclic_matches_oracle_on_paths(db):
    expected = ranked_output(PATH4, db)
    got = [(a.values, a.score) for a in AcyclicRankedEnumerator(PATH4, db)]
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(db=db_strategy(STAR3), epsilon=st.sampled_from([0.0, 0.5, 1.0]))
def test_star_matches_oracle_across_tradeoff(db, epsilon):
    expected = ranked_output(STAR3, db)
    got = [
        (a.values, a.score)
        for a in StarTradeoffEnumerator(STAR3, db, epsilon=epsilon)
    ]
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(db=db_strategy(MIXED))
def test_lex_backtracker_matches_oracle(db):
    expected = [v for v, _ in ranked_output(MIXED, db, LexRanking())]
    got = [a.values for a in LexBacktrackEnumerator(MIXED, db)]
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(db=db_strategy(TRIANGLE))
def test_cyclic_matches_oracle(db):
    expected = ranked_output(TRIANGLE, db)
    got = [(a.values, a.score) for a in CyclicRankedEnumerator(TRIANGLE, db)]
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(db=db_strategy(MIXED))
def test_baselines_match_oracle(db):
    expected = ranked_output(MIXED, db)
    for cls in (EngineBaseline, FullQueryRankedBaseline):
        got = [(a.values, a.score) for a in cls(MIXED, db)]
        assert got == expected


@settings(max_examples=40, deadline=None)
@given(db=db_strategy(PATH4))
def test_scores_non_decreasing_and_distinct_outputs(db):
    answers = AcyclicRankedEnumerator(PATH4, db).all()
    scores = [a.score for a in answers]
    assert scores == sorted(scores)
    seen = [a.values for a in answers]
    assert len(seen) == len(set(seen))


@settings(max_examples=40, deadline=None)
@given(db=db_strategy(PATH4), k=st.integers(min_value=0, max_value=8))
def test_top_k_is_prefix_of_full(db, k):
    full = [a.values for a in AcyclicRankedEnumerator(PATH4, db)]
    top = [a.values for a in AcyclicRankedEnumerator(PATH4, db).top_k(k)]
    assert top == full[: min(k, len(full))]


# ---------------------------------------------------------------------- #
# substrate invariants
# ---------------------------------------------------------------------- #
@settings(max_examples=50, deadline=None)
@given(db=db_strategy(PATH4))
def test_full_reduce_is_exact(db):
    tree = build_join_tree(PATH4)
    reduced = full_reduce(tree, atom_instances(PATH4, db))
    bindings = join_results(PATH4, db)
    for atom in PATH4.atoms:
        participating = {tuple(b[v] for v in atom.variables) for b in bindings}
        assert set(reduced[atom.alias]) == participating


@settings(max_examples=50, deadline=None)
@given(db=db_strategy(MIXED))
def test_evaluate_equals_bruteforce_distinct(db):
    expected = {tuple(b[v] for v in MIXED.head) for b in join_results(MIXED, db)}
    assert evaluate(MIXED, db) == expected


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.integers(-100, 100), min_size=0, max_size=50))
def test_heap_sorts(keys):
    heap = RankHeap()
    for key in keys:
        heap.push(key, (), key)
    out = [heap.pop() for _ in range(len(keys))]
    assert out == sorted(keys)


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(st.integers(0, 9), min_size=1, max_size=4),
    ys=st.lists(st.integers(0, 9), min_size=1, max_size=4),
)
def test_sum_combine_commutative_associative(xs, ys):
    bound = SumRanking().bind({})
    assert bound.combine(xs + ys) == bound.combine([bound.combine(xs), bound.combine(ys)])


@settings(max_examples=100, deadline=None)
@given(
    parent=st.integers(0, 9),
    small=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    large=st.tuples(st.integers(0, 9), st.integers(0, 9)),
)
def test_lex_combine_monotone(parent, small, large):
    # Monotonicity of LEX merge with interleaved positions (the property
    # Lemma 3's proof needs from every ranking).
    if small > large:
        small, large = large, small
    positions = {"a": 0, "b": 1, "c": 2}
    bound = LexRanking().bind(positions)
    p_key = bound.key([("b", parent)])
    k_small = bound.key([("a", small[0]), ("c", small[1])])
    k_large = bound.key([("a", large[0]), ("c", large[1])])
    assert (k_small <= k_large) == (small <= large)
    assert bound.combine([p_key, k_small]) <= bound.combine([p_key, k_large])
