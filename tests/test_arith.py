import math
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latcount.arith
from latcount import (
    CapacityError,
    divisors,
    factorize,
    is_prime,
    ordered_factorization_count,
    ordered_factorizations,
)
from latcount.arith import DivisorIndex, _divisor_table, _divisor_table_size
from oracles import (
    brute_divisor_lists,
    brute_divisors,
    brute_factorization,
    brute_ordered_factorizations,
    sieve_primes,
)

BOUND = "LATCOUNT_TRIAL_DIVISION_BOUND"


class TestFactorize:
    def test_one_has_empty_factor_list(self):
        assert factorize(1) == ()

    def test_twelve(self):
        assert factorize(12) == ((2, 2), (3, 1))

    def test_prime_9973(self):
        # no divisor up to sqrt(9973) ~ 99.8, checked here independently
        assert all(9973 % d for d in range(2, 100))
        assert factorize(9973) == ((9973, 1),)

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_capacity_error_names_the_bound(self, monkeypatch):
        # 101 * 103 has no factor below 10, so trial division must give up
        monkeypatch.setenv(BOUND, "10")
        with pytest.raises(CapacityError, match="10"):
            factorize(101 * 103)

    def test_large_prime_cofactor_is_accepted(self):
        # certifying 999999999989 needs divisors only up to ~10^6 < bound
        assert factorize(2 * 999999999989) == ((2, 1), (999999999989, 1))

    def test_repeated_calls_share_one_factorization(self, monkeypatch):
        p = 1_000_003
        assert factorize(p) is factorize(p)
        monkeypatch.setenv(BOUND, "2000")
        under_2000 = factorize(p)
        monkeypatch.delenv(BOUND)
        assert under_2000 is not factorize(p)

    def test_never_calls_is_prime(self, monkeypatch):
        # each prime is proven as trial division finds it, never a second time
        def refuse(p):
            raise AssertionError(f"is_prime({p}) called")

        monkeypatch.setattr(latcount.arith, "is_prime", refuse)
        latcount.arith._factorize.cache_clear()
        assert factorize(6 * 1009733815633) == ((2, 1), (3, 1), (1009733815633, 1))

    def test_env_var_overrides_bound(self, monkeypatch):
        monkeypatch.setenv("LATCOUNT_TRIAL_DIVISION_BOUND", "10")
        with pytest.raises(CapacityError):
            factorize(101 * 103)
        monkeypatch.delenv("LATCOUNT_TRIAL_DIVISION_BOUND")
        assert factorize(101 * 103) == ((101, 1), (103, 1))

    @given(st.integers(min_value=1, max_value=10**6))
    def test_roundtrip(self, m):
        fact = factorize(m)
        assert math.prod(p**e for p, e in fact) == m
        primes = [p for p, _ in fact]
        assert primes == sorted(set(primes))
        assert all(e >= 1 for _, e in fact)

    def test_product_invariant_to_ten_thousand(self):
        for m in range(1, 10**4 + 1):
            fact = factorize(m)
            assert math.prod(p**e for p, e in fact) == m
            assert fact == brute_factorization(m)

    @pytest.mark.parametrize(
        "m",
        [
            # primes on either side of the wheel's gaps, and squares that end the search
            7**2,
            11 * 13**2,
            29 * 31,
            31**2 * 37,
            59 * 61,
            89**2,
            211**3,
            419 * 421,
            149 * 151 * 179 * 181,
            2 * 3 * 5 * 1_000_081,
            1_000_289 * 1_000_291,
        ],
    )
    def test_primes_beside_the_wheel_gaps(self, m):
        assert factorize(m) == brute_factorization(m)

    @pytest.mark.parametrize(
        "m, bound",
        [(9, 2), (25, 4), (49, 6), (121, 10), (31**2, 30), (7 * 31**2, 30), (31 * 37**2, 36)],
    )
    def test_first_candidate_past_the_bound_refuses(self, monkeypatch, m, bound):
        # the search restarts at each prime found, so the wheel is entered at 7 and at 31 too
        monkeypatch.setenv(BOUND, str(bound))
        with pytest.raises(CapacityError, match=f"trial-division bound {bound}$"):
            factorize(m)
        monkeypatch.setenv(BOUND, str(bound + 1))
        assert factorize(m) == brute_factorization(m)


class TestIsPrime:
    def test_small_values(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setenv(BOUND, "10")
        with pytest.raises(CapacityError):
            is_prime(101 * 103)

    def test_matches_sieve_and_factorize(self):
        primes = set(sieve_primes(10**4))
        for p in range(-3, 10**4 + 1):
            assert is_prime(p) == (p in primes)
            if p >= 2:
                assert is_prime(p) == (factorize(p) == ((p, 1),))

    def test_both_refuse_past_the_bound_and_name_it(self, monkeypatch):
        monkeypatch.setenv(BOUND, "10")
        with pytest.raises(CapacityError, match="trial-division bound 10$"):
            is_prime(101 * 103)
        with pytest.raises(CapacityError, match="trial-division bound 10$"):
            factorize(101 * 103)


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
                expected = math.prod(math.comb(e + n - 1, n - 1) for _, e in fact)
                assert len(tuples) == expected == ordered_factorization_count(m, n)
                assert len(set(tuples)) == len(tuples)
                assert tuples == sorted(tuples)
                assert all(math.prod(parts) == m for parts in tuples)

    def test_matches_brute_force(self):
        for m, n in [(12, 2), (30, 3), (16, 4), (7, 3), (2 * 3 * 5 * 7 * 11, 4), (2**4 * 3**2, 5)]:
            assert list(ordered_factorizations(m, n)) == brute_ordered_factorizations(m, n)

    def test_two_parts_need_only_the_divisors_of_m(self):
        # the product of the first 15 primes: a full index would hold 3^15 entries
        m = math.prod(sieve_primes(47))
        tracemalloc.start()
        try:
            first = next(ordered_factorizations(m, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == (1, m)
        assert peak < 8 * 2**20

    def test_more_parts_than_the_stack_is_deep(self):
        assert next(ordered_factorizations(2, 3000)) == (1,) * 2999 + (2,)

    def test_stream_is_lazy(self):
        # 2^30 has ~5.9 million 8-tuples; taking three must be instant
        stream = ordered_factorizations(2**30, 8)
        first_three = list(islice(stream, 3))
        assert first_three == [
            (1, 1, 1, 1, 1, 1, 1, 2**30),
            (1, 1, 1, 1, 1, 1, 2, 2**29),
            (1, 1, 1, 1, 1, 1, 4, 2**28),
        ]


class TestDivisorIndex:
    def test_entries_are_the_divisor_lists(self):
        for m in (1, 12, 5040, 2**10 * 3):
            index = DivisorIndex(m)
            assert index[m] == divisors(m)
            for q in reversed(divisors(m)):
                assert index[q] == brute_divisors(q)
            assert len(index) == len(index[m])

    def test_only_divisors_of_m_are_keys(self):
        index = DivisorIndex(12)
        for q in (0, 5, 8, 24, -6):
            with pytest.raises(KeyError):
                index[q]

    def test_entries_share_the_int_objects_of_m_s_list(self):
        m = 2**40 * 3**5 * 5**10
        index = DivisorIndex(m)
        roots = {id(d) for d in index[m]}
        for q in index[m][::7]:
            assert {id(e) for e in index[q]} <= roots

    def test_a_parent_chain_longer_than_the_stack_fills_by_a_loop(self):
        # index[1] is reached from 2^1100 through 1100 missing parents
        index = DivisorIndex(2**1100)
        assert index[1] == [1]
        assert index[2**700] == [2**k for k in range(701)]

    def test_never_outgrows_the_tuples_emitted_plus_tau_m(self, monkeypatch):
        made = []

        class Recorded(DivisorIndex):
            def __init__(self, m):
                super().__init__(m)
                made.append(self)

        monkeypatch.setattr(latcount.arith, "DivisorIndex", Recorded)
        for m, n in [(720720, 2), (720720, 3), (720720, 4), (2**12 * 3**5, 5), (1202570211570, 3)]:
            tau = len(divisors(m))
            for emitted, _ in enumerate(islice(ordered_factorizations(m, n), 20_000), 1):
                pointers = sum(map(len, made[-1].values()))
                assert pointers <= emitted + tau, (m, n, emitted)
            if n == 2:
                assert len(made[-1]) == 1


class TestDivisorTable:
    def test_entries_are_the_divisor_lists_to_five_thousand(self):
        table = _divisor_table(5000)
        assert table[0] == []
        for m in range(1, 5001):
            assert table[m] == divisors(m) == brute_divisors(m), m

    def test_entries_share_one_int_object_per_divisor(self):
        table = _divisor_table(3000)
        for q in range(1, 3001):
            assert all(d is table[d][-1] for d in table[q])

    def test_size_is_the_pointer_count_for_every_max_m_to_two_thousand(self):
        # Entries do not depend on max_m, so one table gives every prefix's count.
        table = _divisor_table(2000)
        pointers = 0
        for max_m in range(1, 2001):
            pointers += len(table[max_m])
            assert _divisor_table_size(max_m) == pointers, max_m

    def test_size_near_the_sweep_budget_without_building_the_table(self):
        # sum over q <= M of tau(q) counts the pairs d * k <= M: M // d of them for each d.
        assert _divisor_table_size(1015) == 7189
        assert _divisor_table_size(548) == 3543
        for max_m in (80_000, 86_762, 86_763, 86_764, 90_000):
            assert _divisor_table_size(max_m) == sum(max_m // d for d in range(1, max_m + 1))


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=3))
def test_tuple_products_and_counts_property(m, n):
    tuples = list(ordered_factorizations(m, n))
    assert len(tuples) == ordered_factorization_count(m, n)
    assert all(math.prod(parts) == m for parts in tuples)
