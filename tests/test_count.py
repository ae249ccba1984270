import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import latcount.count
from latcount import (
    CountResult,
    DiscrepancyError,
    Method,
    count_all_methods,
    count_by_dirichlet,
    count_by_factorization_sum,
    count_by_gruber,
    count_by_recursion,
    count_table,
    dirichlet_coefficients,
    gauss_binomial_at,
    ordered_factorization_count,
    run_count,
)
from oracles import brute_sigma, sieve_primes

METHODS = {
    Method.FACTORIZATION_SUM: count_by_factorization_sum,
    Method.RECURSION: count_by_recursion,
    Method.GRUBER: count_by_gruber,
    Method.DIRICHLET: count_by_dirichlet,
}


class TestFactorizationSum:
    def test_dimension_one_is_always_one(self):
        for m in (1, 2, 17, 360, 10**6):
            assert count_by_factorization_sum(1, m).value == 1

    def test_frozen_examples(self):
        assert count_by_factorization_sum(2, 2).value == 3
        assert count_by_factorization_sum(3, 2).value == 7

    def test_work_stats_count_tuples(self):
        result = count_by_factorization_sum(2, 4)
        assert result.work_stats["tuples"] == 3


class TestRecursion:
    def test_base_case(self):
        assert count_by_recursion(1, 10**6).value == 1

    def test_frozen_examples(self):
        assert count_by_recursion(2, 6).value == 12  # sigma(6)
        assert count_by_recursion(3, 4).value == 1 + 2 * 3 + 4 * 7  # 35

    def test_sigma_at_dimension_two(self):
        for m in range(1, 100):
            assert count_by_recursion(2, m).value == sum(d for d in range(1, m + 1) if m % d == 0)

    def test_divisor_visits_are_n_minus_one_passes_over_the_index(self):
        # one pass reads tau(d) divisors for each d | m: the 3-part factorizations of m
        for n, m in [(1, 360), (2, 1), (3, 720720), (5, 2**10 * 3**4), (4, 1202570211570)]:
            visits = count_by_recursion(n, m).work_stats["divisor_visits"]
            assert visits == (n - 1) * ordered_factorization_count(m, 3)
        assert count_by_recursion(4, 1202570211570).work_stats["divisor_visits"] == 3 * 3**11


class TestDeepDivisorChains:
    # 2^1000 has a chain of 1000 divisors, each the parent of the next
    def test_recursion_at_two_to_the_thousand(self):
        assert count_by_recursion(3, 2**1000).value == count_by_gruber(3, 2**1000).value

    def test_factorization_sum_at_two_to_the_sixty(self):
        assert count_by_factorization_sum(3, 2**60).value == count_by_gruber(3, 2**60).value


class TestGruber:
    def test_empty_product_at_m_one(self):
        for n in (1, 2, 5, 9):
            assert count_by_gruber(n, 1).value == 1

    def test_dimension_one(self):
        # the second product form is empty when n = 1
        for m in (1, 2, 360):
            assert count_by_gruber(1, m).value == 1

    def test_frozen_examples(self):
        assert count_by_gruber(2, 4).value == 7
        assert count_by_gruber(3, 6).value == 7 * 13

    def test_agrees_with_recursion(self):
        for n in range(1, 5):
            for m in range(1, 60):
                assert count_by_gruber(n, m).value == count_by_recursion(n, m).value


class TestCrossMethod:
    def test_agreement_on_small_grid(self):
        for n in range(1, 5):
            table = dirichlet_coefficients(n, 120)
            for m in range(1, 121):
                values = {f(n, m).value for f in METHODS.values()}
                assert values == {table[m]}, f"disagreement at n={n}, m={m}: {values}"

    def test_monotone_growth_in_dimension(self):
        for m in range(1, 200):
            previous = 0
            for n in range(1, 5):
                value = count_by_recursion(n, m).value
                assert value >= previous
                previous = value

    def test_prime_values(self):
        for p in sieve_primes(100):
            for n in range(1, 7):
                expected = sum(p**i for i in range(n))
                assert count_by_gruber(n, p).value == expected
                assert expected == gauss_binomial_at(n, 1, p)

    def test_prime_power_values_are_q_binomials(self):
        for p in (2, 3, 5):
            for n in range(1, 6):
                for k in range(7):
                    expected = gauss_binomial_at(n + k - 1, k, p)
                    assert count_by_recursion(n, p**k).value == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    def test_multiplicativity_property(self, n, a, b):
        assume(math.gcd(a, b) == 1)
        for method in METHODS.values():
            assert method(n, a * b).value == method(n, a).value * method(n, b).value


class TestHarness:
    def test_all_methods_with_enumeration(self):
        results = count_all_methods(2, 2)
        assert [str(r.method) for r in results] == [
            "dirichlet",
            "factorization-sum",
            "gruber",
            "hnf",
            "recursion",
        ]
        assert {r.value for r in results} == {3}

    def test_trivial_dimension(self):
        results = count_all_methods(1, 7)
        assert {r.value for r in results} == {1}
        assert len(results) == 5

    def test_enumeration_joins_under_the_cap(self):
        results = count_all_methods(4, 12)
        assert len(results) == 5
        assert Method.HNF in {r.method for r in results}
        assert len({r.value for r in results}) == 1

    def test_enumeration_skipped_above_cap(self):
        results = count_all_methods(3, 720)
        # f_3(720) = 2,623,530 > DEFAULT_ENUMERATION_CAP, so enumeration must be skipped
        assert Method.HNF not in {r.method for r in results}
        assert {r.value for r in results} == {2_623_530}

    def test_dirichlet_skipped_above_its_limit(self):
        # 10000000019 is prime and far above MAX_DIRICHLET_LIMIT
        results = count_all_methods(2, 10000000019)
        assert [str(r.method) for r in results] == ["factorization-sum", "gruber", "recursion"]
        assert {r.value for r in results} == {brute_sigma(10000000019)}

    def test_discrepancy_raises_with_all_values(self, monkeypatch):
        def wrong_gruber(n, m):
            return CountResult(999, Method.GRUBER)

        monkeypatch.setattr(latcount.count, "count_by_gruber", wrong_gruber)
        with pytest.raises(DiscrepancyError) as excinfo:
            count_all_methods(2, 6)
        err = excinfo.value
        assert (err.n, err.m) == (2, 6)
        assert ("gruber", 999) in err.results
        assert ("recursion", 12) in err.results
        assert "999" in str(err)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_all_methods(0, 5)
        with pytest.raises(ValueError):
            count_by_recursion(2, 0)


class TestRequestDispatch:
    def test_request_validation(self):
        for method in Method:
            with pytest.raises(ValueError):
                run_count(0, 5, method)
            with pytest.raises(ValueError):
                run_count(2, 0, method)

    def test_dispatch_each_method(self):
        for method in Method:
            result = run_count(2, 6, method)
            assert result.value == 12
            assert result.method == method
        assert run_count(2, 6, "recursion").method is Method.RECURSION

    def test_table_matches_single_counts(self):
        expected = [count_by_gruber(3, m).value for m in range(1, 13)]
        for method in Method:
            table = list(count_table(3, 12, method))
            assert [r.method for r in table] == [method] * 12
            assert [r.value for r in table] == expected

    def test_table_rejects_bad_arguments(self):
        for method in Method:
            with pytest.raises(ValueError):
                count_table(0, 5, method)
            with pytest.raises(ValueError):
                count_table(2, 0, method)

    def test_result_requires_positive_value(self):
        with pytest.raises(ValueError):
            CountResult(0, Method.GRUBER)
