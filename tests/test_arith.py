import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcount import (
    CapacityError,
    Factorization,
    divisors,
    factorize,
    is_prime,
    ordered_factorization_count,
    ordered_factorizations,
)
from oracles import brute_divisor_lists, brute_divisors, brute_ordered_factorizations


class TestFactorize:
    def test_one_has_empty_factor_list(self):
        fact = factorize(1)
        assert fact.value == 1
        assert fact.factors == ()

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_prime_9973(self):
        # no divisor up to sqrt(9973) ~ 99.8, checked here independently
        assert all(9973 % d for d in range(2, 100))
        assert factorize(9973).factors == ((9973, 1),)

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_capacity_error_names_the_bound(self):
        # 101 * 103 has no factor below 10, so trial division must give up
        with pytest.raises(CapacityError, match="10"):
            factorize(101 * 103, bound=10)

    def test_large_prime_cofactor_is_accepted(self):
        # certifying 999999999989 needs divisors only up to ~10^6 < bound
        fact = factorize(2 * 999999999989)
        assert fact.factors == ((2, 1), (999999999989, 1))

    def test_repeated_calls_share_one_factorization(self):
        p = 1_000_003
        assert factorize(p) is factorize(p)
        assert factorize(p, bound=2000) is not factorize(p)

    def test_env_var_overrides_bound(self, monkeypatch):
        monkeypatch.setenv("LATCOUNT_TRIAL_DIVISION_BOUND", "10")
        with pytest.raises(CapacityError):
            factorize(101 * 103)
        monkeypatch.delenv("LATCOUNT_TRIAL_DIVISION_BOUND")
        assert factorize(101 * 103).factors == ((101, 1), (103, 1))

    @given(st.integers(min_value=1, max_value=10**6))
    def test_roundtrip(self, m):
        fact = factorize(m)
        assert math.prod(p**e for p, e in fact.factors) == m
        primes = [p for p, _ in fact.factors]
        assert primes == sorted(set(primes))
        assert all(e >= 1 for _, e in fact.factors)

    def test_product_invariant_to_ten_thousand(self):
        for m in range(1, 10**4 + 1):
            fact = factorize(m)
            assert math.prod(p**e for p, e in fact.factors) == m


class TestFactorizationType:
    def test_rejects_composite_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            Factorization(4, ((4, 1),))

    def test_rejects_wrong_product(self):
        with pytest.raises(ValueError, match="multiply"):
            Factorization(10, ((2, 1), (3, 1)))

    def test_rejects_unsorted_primes(self):
        with pytest.raises(ValueError, match="increasing"):
            Factorization(6, ((3, 1), (2, 1)))

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            Factorization(3, ((3, 0),))


class TestIsPrime:
    def test_small_values(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            is_prime(101 * 103, bound=10)


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(6) == [1, 2, 3, 6]
        assert len(divisors(36)) == 9
        assert divisors(36) == brute_divisors(36)

    def test_matches_brute_force_to_ten_thousand(self):
        brute = brute_divisor_lists(10**4)
        for m in range(1, 10**4 + 1):
            assert divisors(m) == brute[m]

    @given(st.integers(min_value=1, max_value=3000))
    def test_matches_per_candidate_scan(self, m):
        assert divisors(m) == brute_divisors(m)


class TestOrderedFactorizations:
    def test_examples(self):
        assert list(ordered_factorizations(2, 2)) == [(1, 2), (2, 1)]
        assert list(ordered_factorizations(1, 3)) == [(1, 1, 1)]
        assert list(ordered_factorizations(4, 2)) == [(1, 4), (2, 2), (4, 1)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(ordered_factorizations(6, 0))
        with pytest.raises(ValueError):
            list(ordered_factorizations(0, 2))

    def test_lexicographic_complete_and_duplicate_free(self):
        for m in range(1, 201):
            fact = factorize(m)
            for n in range(1, 5):
                tuples = list(ordered_factorizations(m, n))
                expected = math.prod(math.comb(e + n - 1, n - 1) for _, e in fact.factors)
                assert len(tuples) == expected == ordered_factorization_count(m, n)
                assert len(set(tuples)) == len(tuples)
                assert tuples == sorted(tuples)
                assert all(math.prod(parts) == m for parts in tuples)

    def test_matches_brute_force(self):
        for m, n in [(12, 2), (30, 3), (16, 4), (7, 3)]:
            assert list(ordered_factorizations(m, n)) == brute_ordered_factorizations(m, n)

    def test_stream_is_lazy(self):
        # 2^30 has ~5.9 million 8-tuples; taking three must be instant
        stream = ordered_factorizations(2**30, 8)
        first_three = list(islice(stream, 3))
        assert first_three == [
            (1, 1, 1, 1, 1, 1, 1, 2**30),
            (1, 1, 1, 1, 1, 1, 2, 2**29),
            (1, 1, 1, 1, 1, 1, 4, 2**28),
        ]


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=3))
def test_tuple_products_and_counts_property(m, n):
    tuples = list(ordered_factorizations(m, n))
    assert len(tuples) == ordered_factorization_count(m, n)
    assert all(math.prod(parts) == m for parts in tuples)
