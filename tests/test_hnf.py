import math
from itertools import groupby, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcount import (
    CapacityError,
    HnfMatrix,
    count_by_enumeration,
    count_by_recursion,
    enumerate_hnf,
    validate_hnf,
)
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

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            count_by_enumeration(2, 2, cap=0)
