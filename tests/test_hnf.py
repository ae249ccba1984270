import math
import pickle
import tracemalloc
from itertools import groupby, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcount import (
    CapacityError,
    HnfMatrix,
    count_by_enumeration,
    count_by_recursion,
    enumerate_hnf,
    enumerate_lines,
    validate_hnf,
)
from latcount import hnf
from latcount.core import walk
from oracles import brute_hnf_matrices


class TestHnfMatrix:
    def test_basic_properties(self):
        matrix = HnfMatrix(2, ((1, 0), (1, 2)))
        assert matrix.diagonal == (1, 2)
        assert matrix.determinant() == 2

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            HnfMatrix(2, ((1, 0),))
        with pytest.raises(ValueError):
            HnfMatrix(2, ((1, 0, 0), (0, 1, 0)))
        with pytest.raises(ValueError):
            HnfMatrix(0, ())

    # repr text recorded from the frozen dataclass that HnfMatrix used to be
    def test_repr(self):
        assert repr(HnfMatrix(2, [[2, 0], [1, 2]])) == "HnfMatrix(n=2, rows=((2, 0), (1, 2)))"
        assert repr(next(enumerate_hnf(3, 4))) == (
            "HnfMatrix(n=3, rows=((1, 0, 0), (0, 1, 0), (0, 0, 4)))"
        )

    def test_rows_become_tuples_of_tuples(self):
        matrix = HnfMatrix(n=2, rows=[[1, 0], iter((1, 2))])
        assert matrix.rows == ((1, 0), (1, 2))
        assert type(matrix.rows) is tuple
        assert all(type(row) is tuple for row in matrix.rows)

    def test_rejection_messages(self):
        with pytest.raises(ValueError, match=r"^dimension must be >= 1, got 0$"):
            HnfMatrix(0, ())
        with pytest.raises(ValueError, match=r"^need a 2x2 matrix, got \(\(1, 0\),\)$"):
            HnfMatrix(2, [[1, 0]])

    def test_equality_and_hash(self):
        matrix = HnfMatrix(2, ((2, 0), (1, 2)))
        assert matrix == HnfMatrix(2, [[2, 0], [1, 2]])
        assert hash(matrix) == hash(HnfMatrix(2, [[2, 0], [1, 2]]))
        assert matrix != HnfMatrix(2, ((2, 0), (0, 2)))
        assert matrix != (2, ((2, 0), (1, 2)))

    def test_trusted_equals_and_hashes_like_checked(self):
        for n, m in [(1, 5), (2, 12), (3, 8)]:
            for matrix in enumerate_hnf(n, m):
                checked = HnfMatrix(n, matrix.rows)
                trusted = HnfMatrix._trusted(n, matrix.rows)
                assert type(trusted) is HnfMatrix
                assert trusted == checked and hash(trusted) == hash(checked)
                assert repr(trusted) == repr(checked)

    def test_fields_cannot_be_assigned_or_deleted(self):
        for matrix in (HnfMatrix(1, ((3,),)), HnfMatrix._trusted(1, ((3,),))):
            for name in ("n", "rows", "other"):
                with pytest.raises(AttributeError):
                    setattr(matrix, name, 2)
                with pytest.raises(AttributeError):
                    delattr(matrix, name)
            assert (matrix.n, matrix.rows) == (1, ((3,),))

    def test_pickle_round_trip(self):
        matrix = HnfMatrix(2, ((2, 0), (1, 2)))
        assert pickle.loads(pickle.dumps(matrix)) == matrix

    def test_serialization_round_trip(self):
        matrix = HnfMatrix(2, ((2, 0), (1, 2)))
        assert matrix.to_line() == "2,0;1,2"
        assert HnfMatrix.from_line("2,0;1,2") == matrix

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=8))
    def test_round_trip_over_stream(self, n, m):
        for matrix in islice(enumerate_hnf(n, m), 25):
            assert HnfMatrix.from_line(matrix.to_line()) == matrix


class TestValidate:
    def test_examples(self):
        assert validate_hnf(HnfMatrix(2, ((2, 0), (0, 1))), 2)
        assert validate_hnf(HnfMatrix(2, ((1, 0), (1, 2))), 2)
        # 1 > 2 fails in the second row
        assert not validate_hnf(HnfMatrix(2, ((2, 0), (2, 1))), 2)

    def test_rejects_upper_triangle_entries(self):
        assert not validate_hnf(HnfMatrix(2, ((1, 1), (0, 2))), 2)

    def test_rejects_wrong_determinant(self):
        assert not validate_hnf(HnfMatrix(2, ((1, 0), (0, 2))), 3)

    def test_rejects_nonpositive_diagonal(self):
        assert not validate_hnf(HnfMatrix(2, ((0, 0), (0, 2))), 0)
        assert not validate_hnf(HnfMatrix(2, ((-1, 0), (0, -2))), 2)


class TestEnumerate:
    def test_dimension_one(self):
        assert [mx.rows for mx in enumerate_hnf(1, 5)] == [((5,),)]

    def test_two_by_two_index_two(self):
        assert [mx.to_line() for mx in enumerate_hnf(2, 2)] == [
            "1,0;0,2",
            "1,0;1,2",
            "2,0;0,1",
        ]

    def test_three_by_three_index_two(self):
        matrices = list(enumerate_hnf(3, 2))
        assert len(matrices) == 7
        # diagonal tuples come out lexicographically, contributing 4 + 2 + 1
        diagonals = [mx.diagonal for mx in matrices]
        assert diagonals == [(1, 1, 2)] * 4 + [(1, 2, 1)] * 2 + [(2, 1, 1)]

    def test_matches_brute_force_scan_2d(self):
        for m in range(1, 13):
            ours = sorted(mx.rows for mx in enumerate_hnf(2, m))
            assert ours == brute_hnf_matrices(2, m, m)

    def test_matches_brute_force_scan_3d(self):
        for m in range(1, 7):
            ours = sorted(mx.rows for mx in enumerate_hnf(3, m))
            assert ours == brute_hnf_matrices(3, m, m)

    def test_sound_and_duplicate_free(self):
        for n in range(1, 5):
            for m in range(1, 13):
                seen = set()
                for matrix in enumerate_hnf(n, m):
                    assert validate_hnf(matrix, m)
                    assert matrix.rows not in seen
                    seen.add(matrix.rows)
                assert len(seen) == count_by_recursion(n, m).value

    def test_per_diagonal_counts(self):
        # for a fixed diagonal the free entries of row i each range over
        # [0, r_ii), giving r_ii^(i-1) matrices per row
        for n, m in [(2, 12), (3, 8), (4, 6)]:
            stream = enumerate_hnf(n, m)
            for diagonal, group in groupby(stream, key=lambda mx: mx.diagonal):
                expected = math.prod(d ** i for i, d in enumerate(diagonal))
                assert sum(1 for _ in group) == expected

    def test_stream_order_is_deterministic(self):
        lines = [mx.to_line() for mx in enumerate_hnf(3, 4)]
        assert lines == [mx.to_line() for mx in enumerate_hnf(3, 4)]
        assert lines == sorted(lines, key=lambda line: HnfMatrix.from_line(line).diagonal)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            next(enumerate_hnf(0, 2))
        with pytest.raises(ValueError):
            next(enumerate_hnf(2, 0))


class TestOdometer:
    def test_lines_match_to_line(self):
        for n in range(1, 5):
            for m in range(1, 25):
                assert list(enumerate_lines(n, m)) == [mx.to_line() for mx in enumerate_hnf(n, m)]

    def test_matrices_match_the_validating_constructor(self):
        for n in range(1, 5):
            for m in range(1, 25):
                for matrix in enumerate_hnf(n, m):
                    assert type(matrix.rows) is tuple
                    for row in matrix.rows:
                        assert type(row) is tuple and all(type(entry) is int for entry in row)
                    assert matrix == HnfMatrix(n, matrix.rows)

    def test_levels_past_the_listed_bound(self):
        # the first diagonal, (1, 1, m), has two entry levels bounded by m
        m = hnf.LISTED_BOUND + 1
        head = 2 * m + 1
        expected = [f"1,0,0;0,1,0;{a},{b},{m}" for a in range(3) for b in range(m)][:head]
        assert list(islice(enumerate_lines(3, m), head)) == expected
        assert [mx.to_line() for mx in islice(enumerate_hnf(3, m), head)] == expected

    # (1, 1, 1, 61) comes first and has 61^3 last rows; the first diagonal of
    # the prime 1,000,003 has a level of 1,000,003 entries.
    @pytest.mark.parametrize("stream", [enumerate_hnf, enumerate_lines])
    @pytest.mark.parametrize("n, m", [(4, 61), (2, 1_000_003)])
    def test_memory_does_not_grow_with_the_diagonal(self, stream, n, m):
        tracemalloc.start()
        try:
            items = list(islice(stream(n, m), 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(items) == 10
        assert peak < 2 * 2**20


class TestWalk:
    def test_a_chain_deeper_than_the_stack_yields_its_leaf(self):
        levels = [lambda node: iter((node + 1,))] * 5000
        assert list(walk(0, levels)) == [5000]

    def test_leaves_come_in_product_order(self):
        factors = [range(3), "ab", (), (7,)]
        for k in range(1, len(factors) + 1):
            # zip(f) wraps each element of f in a 1-tuple
            levels = [lambda node, f=f: map(node.__add__, zip(f)) for f in factors[:k]]
            assert list(walk((), levels)) == list(product(*factors[:k]))
        # a node's children may depend on the node, and may be none
        levels = [lambda a: iter(range(4)), lambda a: map((a,).__add__, zip(range(a)))]
        assert list(walk(0, levels)) == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]

    def test_levels_of_a_trillion_children_are_read_lazily(self):
        levels = [lambda node: map(node.__add__, range(10**12))] * 2
        tracemalloc.start()
        try:
            head = list(islice(walk(0, levels), 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert head == [0, 1, 2, 3, 4]
        assert peak < 2**20


class TestCountByEnumeration:
    def test_examples(self):
        assert count_by_enumeration(2, 2, cap=100).value == 3
        assert count_by_enumeration(1, 700, cap=10).value == 1
        assert count_by_enumeration(3, 4, cap=10**5).value == 35
        assert count_by_enumeration(3, 4, cap=10**5).value == count_by_recursion(3, 4).value

    def test_cap_is_inclusive(self):
        assert count_by_enumeration(2, 2, cap=3).value == 3

    def test_capacity_error_reports_cap_and_partial_count(self):
        with pytest.raises(CapacityError) as excinfo:
            count_by_enumeration(2, 2, cap=2)
        message = str(excinfo.value)
        assert "2" in message and "3 matrices" in message

    def test_completeness_quick_grid(self):
        for n in range(1, 5):
            for m in range(1, 16):
                assert count_by_enumeration(n, m, cap=10**5).value == count_by_recursion(n, m).value

    def test_cap_stops_a_huge_enumeration(self):
        with pytest.raises(CapacityError):
            count_by_enumeration(6, 97, cap=10)

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            count_by_enumeration(2, 2, cap=0)
