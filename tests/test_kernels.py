"""Kernel-vs-Python identity and fallback behaviour.

The contract under test (ISSUE 4): every vectorised kernel either
produces output *identical* to the row-at-a-time implementation —
values, order, ties — or refuses and the Python path runs.  The suite
drives both paths over random instances (single- and multi-column keys,
empty inputs, all-dangling relations), the encoded engine, the GHD bag
materialisation, and the no-NumPy degradation via import stubbing.
"""

import importlib
import random
import sys
import warnings

import pytest

from repro.algorithms.semijoin import antijoin, semijoin
from repro.algorithms.yannakakis import atom_instances, full_reduce
from repro.core.cyclic import CyclicRankedEnumerator
from repro.core.ranking import LexRanking
from repro.data import Database
from repro.engine import QueryEngine
from repro.query import parse_query
from repro.query.jointree import build_join_tree
from repro.storage import kernels


@pytest.fixture
def kernels_enabled():
    """Guarantee kernels are on during the test and restored after."""
    kernels.set_enabled(True)
    yield
    kernels.set_enabled(True)


def _with_kernels(flag, fn):
    kernels.set_enabled(flag)
    try:
        return fn()
    finally:
        kernels.set_enabled(True)


def random_rows(n, width, domain, seed):
    rng = random.Random(seed)
    return [
        tuple(rng.randrange(domain) for _ in range(width)) for _ in range(n)
    ]


# --------------------------------------------------------------------- #
# primitive conversion rules: exact or refuse
# --------------------------------------------------------------------- #
class TestConversionRules:
    def test_int_columns_convert(self):
        assert kernels.column_array([1, 2, 3]) is not None
        assert kernels.codes_matrix([(1, 2), (3, 4)], 2).shape == (2, 2)

    def test_lossy_values_refuse(self):
        assert kernels.column_array([1.5, 2]) is None        # silent truncation
        assert kernels.column_array([True, False]) is None   # bool normalisation
        assert kernels.column_array(["a", "b"]) is None      # strings
        assert kernels.column_array([2**70]) is None         # beyond int64
        assert kernels.codes_matrix([(1, "a")], 2) is None

    def test_sequence_valued_cells_refuse(self):
        # NumPy would build a 2-D array from tuple cells (or raise on
        # ragged input); both must refuse, not crash — tuples are
        # hashable and the set-based path handles them fine.
        assert kernels.column_array([(1, 2), (3, 4)]) is None   # nested, regular
        assert kernels.column_array([(1, 2), 3]) is None        # ragged
        assert kernels.codes_matrix([(0, (1, 2)), (1, (3, 4))], 2) is None

    def test_empty_and_zero_width(self):
        assert kernels.codes_matrix([], 3).shape == (0, 3)
        assert kernels.codes_matrix([(), ()], 0).shape == (2, 0)

    def test_pack_pair_overflow_refuses(self):
        np = kernels.np
        wide = [np.array([0, 2**40]), np.array([0, 2**40])]
        assert kernels.pack_pair(wide, wide) is None

    def test_pack_pair_joint_radix(self):
        np = kernels.np
        left = [np.array([1, 2]), np.array([7, 9])]
        right = [np.array([2, 5]), np.array([9, 7])]
        lk, rk = kernels.pack_pair(left, right)
        # (2, 9) appears on both sides and must pack equal.
        assert lk[1] == rk[0]
        assert lk[0] != rk[0] and lk[0] != rk[1]


# --------------------------------------------------------------------- #
# semijoin / antijoin: kernel output == set-based output
# --------------------------------------------------------------------- #
class TestSemijoinIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_multicolumn_dispatch_matches_python(self, seed, kernels_enabled):
        left = random_rows(700, 3, 12, seed)
        right = random_rows(650, 3, 12, seed + 100)
        pos = (0, 2)
        for op in (semijoin, antijoin):
            fast = op(left, pos, right, pos)
            slow = _with_kernels(False, lambda: op(left, pos, right, pos))
            assert fast == slow
            # surviving rows are the original tuple objects
            assert all(a is b for a, b in zip(fast, slow)) or fast == slow

    def test_antijoin_single_column_fast_path(self):
        left = [(1, "x"), (2, "y"), (3, "z")]
        right = [(9, 2), (9, 4)]
        assert antijoin(left, (0,), right, (1,)) == [(1, "x"), (3, "z")]
        assert antijoin(left, (0,), [], (1,)) == left
        assert semijoin(left, (0,), right, (1,)) == [(2, "y")]

    def test_tuple_valued_keys_fall_back(self, kernels_enabled):
        # Regression: tuple-valued cells crashed the kernel dispatch
        # (np.asarray builds a 2-D array / raises on ragged columns).
        left = [(i, (i, 1)) for i in range(600)]
        right = [(i, (i, 1)) for i in range(0, 600, 2)]
        out = semijoin(left, (0, 1), right, (0, 1))
        assert out == _with_kernels(
            False, lambda: semijoin(left, (0, 1), right, (0, 1))
        )
        assert len(out) == 300

    def test_non_integer_keys_fall_back(self, kernels_enabled):
        left = [(f"u{i}", f"v{i % 5}", i) for i in range(600)]
        right = [(f"u{i % 7}", f"v{i % 5}", i) for i in range(600)]
        before = kernels.counters.fallbacks
        out = semijoin(left, (0, 1), right, (0, 1))
        assert out == _with_kernels(
            False, lambda: semijoin(left, (0, 1), right, (0, 1))
        )
        assert kernels.counters.fallbacks > before

    def test_packed_overflow_falls_back(self, kernels_enabled):
        big = 2**40
        left = [(i * big, i * big, i) for i in range(300)]
        right = [(i * big, i * big, i) for i in range(0, 600, 2)]
        out = antijoin(left, (0, 1), right, (0, 1))
        assert out == _with_kernels(
            False, lambda: antijoin(left, (0, 1), right, (0, 1))
        )


# --------------------------------------------------------------------- #
# the reducer: kernel sweeps == Python sweeps
# --------------------------------------------------------------------- #
def _reduce_both_ways(query_text, db):
    query = parse_query(query_text)
    tree = build_join_tree(query)
    instances = atom_instances(query, db)
    fast = full_reduce(tree, instances, use_kernels=True)
    slow = full_reduce(tree, instances, use_kernels=False)
    return fast, slow


class TestFullReduceIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_chain_random_instances(self, seed, kernels_enabled):
        db = Database()
        db.add_relation("R", ("a", "b"), random_rows(400, 2, 30, seed))
        db.add_relation("S", ("b", "c"), random_rows(350, 2, 30, seed + 1))
        db.add_relation("T", ("c", "d"), random_rows(300, 2, 30, seed + 2))
        fast, slow = _reduce_both_ways(
            "Q(a, d) :- R(a, b), S(b, c), T(c, d)", db
        )
        assert fast == slow

    @pytest.mark.parametrize("seed", range(3))
    def test_multicolumn_keys(self, seed, kernels_enabled):
        db = Database()
        db.add_relation("R", ("a", "b", "c"), random_rows(400, 3, 8, seed))
        db.add_relation("S", ("b", "c", "d"), random_rows(380, 3, 8, seed + 9))
        fast, slow = _reduce_both_ways("Q(a, d) :- R(a, b, c), S(b, c, d)", db)
        assert fast == slow
        assert any(fast.values())  # the workload actually joins

    def test_star_and_self_join(self, kernels_enabled):
        db = Database()
        db.add_relation("E", ("a", "p"), random_rows(500, 2, 40, 3))
        fast, slow = _reduce_both_ways(
            "Q(a1, a2, a3) :- E(a1, p), E(a2, p), E(a3, p)", db
        )
        assert fast == slow

    def test_empty_inputs(self, kernels_enabled):
        db = Database()
        db.add_relation("R", ("a", "b"), [])
        db.add_relation("S", ("b", "c"), [(1, 2)])
        fast, slow = _reduce_both_ways("Q(a, c) :- R(a, b), S(b, c)", db)
        assert fast == slow
        assert fast == {"R": [], "S": []}

    def test_all_dangling(self, kernels_enabled):
        db = Database()
        db.add_relation("R", ("a", "b"), [(i, i) for i in range(100)])
        db.add_relation("S", ("b", "c"), [(i, i) for i in range(1000, 1100)])
        fast, slow = _reduce_both_ways("Q(a, c) :- R(a, b), S(b, c)", db)
        assert fast == slow
        assert fast["R"] == [] and fast["S"] == []

    def test_plain_dict_instances_convert(self, kernels_enabled):
        # A mapping without the AtomInstances codes accessor exercises
        # the one-off row-list conversion inside the kernel reducer.
        db = Database()
        db.add_relation("R", ("a", "b"), random_rows(300, 2, 20, 5))
        db.add_relation("S", ("b", "c"), random_rows(300, 2, 20, 6))
        query = parse_query("Q(a, c) :- R(a, b), S(b, c)")
        tree = build_join_tree(query)
        instances = dict(atom_instances(query, db))
        fast = full_reduce(tree, instances, use_kernels=True)
        slow = full_reduce(tree, instances, use_kernels=False)
        assert fast == slow

    def test_string_data_falls_back_identically(self, kernels_enabled):
        db = Database()
        db.add_relation(
            "R", ("a", "b"), [(f"u{i}", f"p{i % 9}") for i in range(200)]
        )
        db.add_relation(
            "S", ("b", "c"), [(f"p{i % 11}", f"w{i}") for i in range(200)]
        )
        before = kernels.counters.fallbacks
        fast, slow = _reduce_both_ways("Q(a, c) :- R(a, b), S(b, c)", db)
        assert fast == slow
        assert kernels.counters.fallbacks > before

    def test_survivors_are_original_tuples(self, kernels_enabled):
        db = Database()
        db.add_relation("R", ("a", "b"), random_rows(200, 2, 10, 7))
        db.add_relation("S", ("b", "c"), random_rows(200, 2, 10, 8))
        query = parse_query("Q(a, c) :- R(a, b), S(b, c)")
        tree = build_join_tree(query)
        instances = atom_instances(query, db)
        reduced = full_reduce(tree, instances, use_kernels=True)
        originals = {id(row) for row in instances["R"]}
        assert all(id(row) in originals for row in reduced["R"])


# --------------------------------------------------------------------- #
# GHD bag materialisation: kernel join pipeline == hash-join pipeline
# --------------------------------------------------------------------- #
class TestCyclicBagIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_triangle(self, seed, kernels_enabled):
        db = Database()
        db.add_relation("R", ("a", "b"), random_rows(250, 2, 25, seed))
        db.add_relation("S", ("b", "c"), random_rows(250, 2, 25, seed + 50))
        db.add_relation("T", ("c", "a"), random_rows(250, 2, 25, seed + 99))
        query = parse_query("Q(a, b, c) :- R(a, b), S(b, c), T(c, a)")
        fast_enum = CyclicRankedEnumerator(query, db).preprocess()
        fast = [(x.values, x.score) for x in fast_enum]
        slow_enum = _with_kernels(
            False, lambda: CyclicRankedEnumerator(query, db).preprocess()
        )
        slow = [(x.values, x.score) for x in slow_enum]
        assert fast == slow
        assert fast_enum.materialised_tuples == slow_enum.materialised_tuples

    def test_bag_relations_match_the_python_join(self, kernels_enabled):
        # Kernel bags are built from their code matrix; the rows must be
        # the hash join's, in its order, and exactly ints.
        db = Database()
        db.add_relation("R", ("a", "b"), random_rows(200, 2, 20, 7))
        query = parse_query("Q(a1, a2) :- R(a1, p1), R(a2, p1), R(a2, p2), R(a1, p2)")
        fast = CyclicRankedEnumerator(query, db).preprocess()._inner.db
        slow = _with_kernels(
            False, lambda: CyclicRankedEnumerator(query, db).preprocess()
        )._inner.db
        assert fast.names() == slow.names()
        for name in fast.names():
            rows = fast[name].tuples
            assert rows == slow[name].tuples
            assert all(type(v) is int for row in rows for v in row)

    def test_bool_cells_preserve_identity(self, kernels_enabled):
        # Regression: bag rows are rebuilt from codes, so a True cell in
        # an int column must force the Python path — answers carried
        # (1, 2, 3) instead of (True, 2, 3) under kernels otherwise.
        db = Database()
        db.add_relation("R", ("a", "b"), [(True, 2), (2, 3), (5, 6)])
        db.add_relation("S", ("b", "c"), [(2, 3), (3, 4), (6, 7)])
        db.add_relation("T", ("c", "a"), [(3, 1), (4, 2), (7, 5)])
        query = parse_query("Q(a, b, c) :- R(a, b), S(b, c), T(c, a)")
        ranking = LexRanking()  # the default SUM weight rejects bools
        fast = [
            x.values
            for x in CyclicRankedEnumerator(query, db, ranking).preprocess()
        ]
        slow = _with_kernels(
            False,
            lambda: [
                x.values
                for x in CyclicRankedEnumerator(query, db, ranking).preprocess()
            ],
        )
        assert fast == slow
        assert [type(v) for row in fast for v in row] == [
            type(v) for row in slow for v in row
        ]

    def test_four_cycle_lex(self, kernels_enabled):
        db = Database()
        for name, attrs in (
            ("E1", ("a", "b")),
            ("E2", ("b", "c")),
            ("E3", ("c", "d")),
            ("E4", ("d", "a")),
        ):
            db.add_relation(name, attrs, random_rows(200, 2, 15, hash(name) % 97))
        query = parse_query(
            "Q(a, b, c, d) :- E1(a, b), E2(b, c), E3(c, d), E4(d, a)"
        )
        fast = [
            (x.values, x.score)
            for x in CyclicRankedEnumerator(query, db, LexRanking()).preprocess()
        ]
        slow = _with_kernels(
            False,
            lambda: [
                (x.values, x.score)
                for x in CyclicRankedEnumerator(
                    query, db, LexRanking()
                ).preprocess()
            ],
        )
        assert fast == slow


# --------------------------------------------------------------------- #
# the engine: encoded + kernels vs plain-row execution
# --------------------------------------------------------------------- #
class TestEngineIdentity:
    def test_encoded_session_matches_plain(self, kernels_enabled):
        rng = random.Random(11)
        edges = [
            (f"http://u/{rng.randrange(60)}", f"http://p/{rng.randrange(40)}")
            for _ in range(800)
        ]
        db = Database()
        db.add_relation("E", ("a", "p"), edges)
        query = "Q(a1, a2) :- E(a1, p), E(a2, p)"
        encoded = QueryEngine(db, encode=True)
        plain = QueryEngine(db, encode=False)
        for ranking in (LexRanking(), LexRanking(descending=("a1", "a2"))):
            fast = [
                (x.values, x.score) for x in encoded.execute(query, ranking, k=50)
            ]
            slow = _with_kernels(
                False,
                lambda r=ranking: [
                    (x.values, x.score) for x in plain.execute(query, r, k=50)
                ],
            )
            assert fast == slow
        assert encoded.stats.kernel_calls > 0

    def test_counters_in_snapshot(self, kernels_enabled):
        db = Database()
        db.add_relation("R", ("a", "b"), random_rows(50, 2, 10, 1))
        engine = QueryEngine(db)
        engine.execute("Q(a, b) :- R(a, b)")
        snapshot = engine.stats.snapshot()
        assert "kernel_calls" in snapshot and "kernel_fallbacks" in snapshot


# --------------------------------------------------------------------- #
# access paths: code views stay aligned with row views
# --------------------------------------------------------------------- #
class TestAccessPathKernels:
    def test_codes_view_alignment(self, kernels_enabled):
        rows = random_rows(300, 3, 6, 23)
        db = Database()
        rel = db.add_relation("R", ("a", "b", "c"), rows)
        for positions, selections, distinct in (
            ((0, 1, 2), (), False),
            ((2, 0), (), True),
            ((1,), ((0, rows[0][0]),), False),
            ((1,), ((0, rows[0][0]),), True),
        ):
            view = rel.instance_rows(positions, selections, distinct=distinct)
            matrix = rel.instance_codes(positions, selections, distinct=distinct)
            assert matrix is not None
            assert [tuple(r) for r in matrix.tolist()] == view

    def test_codes_view_refuses_fat_values(self, kernels_enabled):
        db = Database()
        rel = db.add_relation("R", ("a", "b"), [("x", 1), ("y", 2)])
        assert rel.instance_codes((0, 1)) is None


# --------------------------------------------------------------------- #
# no-NumPy degradation
# --------------------------------------------------------------------- #
class TestWithoutNumpy:
    def test_disabled_flag_runs_pure_python(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        assert not kernels.enabled()
        db = Database()
        db.add_relation("R", ("a", "b"), random_rows(300, 2, 20, 2))
        db.add_relation("S", ("b", "c"), random_rows(300, 2, 20, 3))
        engine = QueryEngine(db)
        answers = engine.execute("Q(a, c) :- R(a, b), S(b, c)", k=10)
        assert len(answers) == 10
        assert engine.stats.kernel_calls == 0

    def test_import_with_numpy_stubbed_out(self, monkeypatch):
        # Simulate `import numpy` failing at module import time.
        monkeypatch.setitem(sys.modules, "numpy", None)
        try:
            importlib.reload(kernels)
            assert kernels.HAS_NUMPY is False
            assert not kernels.enabled()
            assert kernels.column_array([1, 2]) is None
            assert kernels.codes_matrix([(1, 2)], 2) is None
            db = Database()
            db.add_relation("R", ("a", "b"), [(1, 2), (2, 2), (3, 9)])
            got = [
                a.values
                for a in QueryEngine(db).execute("Q(x, y) :- R(x, p), R(y, p)")
            ]
            assert (1, 2) in got
        finally:
            monkeypatch.delitem(sys.modules, "numpy", raising=False)
            with warnings.catch_warnings():
                # NumPy warns about being re-imported; test-only noise.
                warnings.simplefilter("ignore", UserWarning)
                importlib.reload(kernels)
        assert kernels.HAS_NUMPY

    def test_generators_require_numpy_with_advice(self, monkeypatch):
        from repro.workloads import generators
        from repro.errors import WorkloadError

        monkeypatch.setattr(generators, "np", None)
        with pytest.raises(WorkloadError, match="repro\\[fast\\]"):
            generators.zipf_bipartite(10, 10, 5)
        with pytest.raises(WorkloadError, match="numpy"):
            generators.power_law_graph(10, 5)
