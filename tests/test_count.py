import math
import pickle
import time
import tracemalloc
from itertools import islice
from operator import attrgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import latcount.arith
import latcount.count
from latcount import (
    CapacityError,
    CountResult,
    DiscrepancyError,
    ExactnessError,
    Method,
    count_all_methods,
    count_by_dirichlet,
    count_by_factorization_sum,
    count_by_gruber,
    count_by_recursion,
    count_table,
    dirichlet_coefficients,
    divisors,
    gauss_binomial_at,
    ordered_factorization_count,
    run_count,
)
from latcount.arith import DivisorIndex, _divisor_table, factorize
from latcount.count import FORMULA_METHODS, _exponents, _factorization_sum, check_enumeration_size
from latcount.count import first_disagreement, left_out_methods
from latcount.hnf import DEFAULT_ENUMERATION_CAP
from latcount.series import MAX_DIRICHLET_LIMIT
from oracles import brute_factorization, brute_ordered_factorizations, brute_sigma
from oracles import brute_tuple_sums, sieve_primes

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

    def test_fold_matches_the_brute_force_tuples_over_both_indexes(self):
        # The last three parts fold to q^(n-3) * sum over c | q of c * sigma(c): checked
        # against every tuple listed.
        sums, counts = brute_tuple_sums(6, 2000)
        table = _divisor_table(2000)
        for m in range(1, 2001):
            indexes = (DivisorIndex(m), table)
            for n in range(1, 7):
                tuples = ordered_factorization_count(m, n)
                assert counts[n][m] == tuples, (n, m)
                for index in indexes:
                    stats = {}
                    assert _factorization_sum(n, m, index, stats) == sums[n][m], (n, m)
                    assert stats["tuples"] == tuples, (n, m)

    def test_fold_counts_every_tuple_up_to_seven_parts_over_both_indexes(self):
        table = _divisor_table(400)
        for m in range(1, 401):
            tau = len(table[m])
            for n in range(1, 8):
                expected = (count_by_gruber(n, m).value, ordered_factorization_count(m, n))
                index = DivisorIndex(m)
                for lists in (index, table):
                    stats = {}
                    value = _factorization_sum(n, m, lists, stats)
                    assert (value, stats["tuples"]) == expected, (n, m)
                # The index holds no more pointers than the tuples counted, plus tau(m).
                assert sum(map(len, index.values())) <= expected[1] + tau, (n, m)

    def test_fold_at_the_smallest_and_a_large_n(self):
        # Over m = 2 the tuples put the one 2 in part i, of weight 2^i: f_n(2) = 2^n - 1.
        for n in (2, 3, 4, 990, 1000):
            for index in (DivisorIndex(2), _divisor_table(2)):
                stats = {}
                assert _factorization_sum(n, 2, index, stats) == 2**n - 1, n
                assert stats["tuples"] == n
        tuples = brute_ordered_factorizations(12, 2)
        stats = {}
        value = _factorization_sum(2, 12, DivisorIndex(12), stats)
        assert value == sum(d2 for _, d2 in tuples) == brute_sigma(12)
        assert stats["tuples"] == len(tuples)

    def test_the_uncounted_body_equals_the_counted_one_over_both_indexes(self):
        # The sweeps call the body with no counter, and with one list of exponents for every n.
        table = _divisor_table(400)
        shared = _exponents(7)
        for m in range(1, 401):
            index = DivisorIndex(m)
            for n in range(1, 8):
                for lists in (index, table):
                    stats = {}
                    counted = _factorization_sum(n, m, lists, stats)
                    assert stats["tuples"] == ordered_factorization_count(m, n), (n, m)
                    assert _factorization_sum(n, m, lists) == counted, (n, m)
                    assert _factorization_sum(n, m, lists, exponents=shared) == counted, (n, m)

    def test_the_sweep_s_sigma_and_fold_equal_the_brute_force_tuples(self):
        # fold[q] = sum over c | q of c * sigma(c) is f_3(q): the sweep's levels 2 and 3.
        sums, _ = brute_tuple_sums(3, 2000)
        levels = [list(level) for level in latcount.count._factorization_sum_table(3, 2000)]
        assert levels[1] == sums[2][1:]
        assert levels[2] == sums[3][1:]
        assert levels[2] == [count_by_gruber(3, m).value for m in range(1, 2001)]

    @staticmethod
    def _count_folds(monkeypatch):
        """The q of every fold made, in order, from the last entry of q's divisor list."""
        made = []
        real_fold = latcount.count._fold

        def counted_fold(divs, sigmas):
            made.append(divs[-1] if divs else 0)
            return real_fold(divs, sigmas)

        monkeypatch.setattr(latcount.count, "_fold", counted_fold)
        return made

    def test_a_single_count_makes_each_fold_once(self, monkeypatch):
        made = self._count_folds(monkeypatch)
        for m in (12, 720, 5040):
            made.clear()
            assert count_by_factorization_sum(3, m).value == count_by_gruber(3, m).value
            assert made == [m]
            for n in range(4, 8):
                made.clear()
                result = count_by_factorization_sum(n, m)
                assert result.value == count_by_gruber(n, m).value, (n, m)
                assert result.work_stats["tuples"] == ordered_factorization_count(m, n)
                # Every divisor q > 1 of m is left by some prefix of n - 3 parts.
                assert sorted(made) == divisors(m)[1:], (n, m)

    def test_a_sweep_makes_each_fold_once_for_every_level(self, monkeypatch):
        made = self._count_folds(monkeypatch)
        assert first_disagreement(6, 300) is None
        assert made == [0, *range(1, 301)]
        made.clear()
        assert list(count_table(5, 300, Method.FACTORIZATION_SUM)) == [
            count_by_gruber(5, m).value for m in range(1, 301)
        ]
        assert made == [0, *range(1, 301)]
        # Levels 1 and 2 need no fold.
        made.clear()
        sigmas = list(map(brute_sigma, range(1, 301)))
        assert list(count_table(2, 300, Method.FACTORIZATION_SUM)) == sigmas
        assert made == []

    def test_m_one_makes_no_exponent(self, monkeypatch):
        # f_n(1) is one tuple at any n, so no list of n - 2 exponents is made for it.
        monkeypatch.setattr(latcount.count, "_exponents", None)
        result = count_by_factorization_sum(10**7, 1)
        assert (result.value, result.work_stats["tuples"]) == (1, 1)
        assert list(count_table(10**7, 1, Method.FACTORIZATION_SUM)) == [1]

    def test_count_queries_inputs_agree_with_gruber(self):
        # the factorization-sum queries of the count-queries benchmark on seeds 1 and 11
        for m in (53130, 1312311):
            result = count_by_factorization_sum(7, m)
            assert result.value == count_by_gruber(7, m).value
            assert result.work_stats["tuples"] == ordered_factorization_count(m, 7)


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
        # one pass over the grid adds every entry with e_i < r_i into the next along axis i
        for n, m in [(1, 360), (2, 1), (3, 720720), (5, 2**10 * 3**4), (4, 1202570211570)]:
            visits = count_by_recursion(n, m).work_stats["divisor_visits"]
            tau = len(divisors(m))
            adds = sum(tau // (r + 1) * r for _, r in brute_factorization(m))
            assert visits == (n - 1) * adds, (n, m)
        assert count_by_recursion(4, 1202570211570).work_stats["divisor_visits"] == 3 * 11 * 2**10

    def test_grid_matches_gruber_and_the_sweep_to_two_thousand(self):
        for n in range(1, 7):
            gruber = list(count_table(n, 2000, Method.GRUBER))
            sweep = list(count_table(n, 2000, Method.RECURSION))
            grid = [count_by_recursion(n, m).value for m in range(1, 2001)]
            assert grid == gruber == sweep, n

    def test_grid_at_uneven_shapes(self):
        # m = 1 is an empty grid, a prime one axis of two entries, and the last
        # mixes axes of 11, 6 and 4 entries: strided slices and contiguous runs.
        for m in (1, 1000003, 2**10 * 3**5 * 5**3, 5**3 * 3**5 * 2**10 * 1000003):
            for n in (1, 2, 3, 4, 7):
                assert count_by_recursion(n, m).value == count_by_gruber(n, m).value, (n, m)


class TestDeepDivisorChains:
    # 2^1000 has a chain of 1000 divisors, each the parent of the next
    def test_recursion_at_two_to_the_thousand(self):
        assert count_by_recursion(3, 2**1000).value == count_by_gruber(3, 2**1000).value

    def test_factorization_sum_at_two_to_the_sixty(self):
        assert count_by_factorization_sum(3, 2**60).value == count_by_gruber(3, 2**60).value

    def test_factorization_sum_in_more_dimensions_than_the_stack_is_deep(self):
        result = count_by_factorization_sum(3000, 2)
        assert result.work_stats["tuples"] == 3000
        assert result.value == count_by_gruber(3000, 2).value


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

    def test_left_out_methods_name_each_skip_and_its_reason(self):
        assert left_out_methods(4, 5040, 891_777_744_000) == {
            Method.HNF: "it would emit 891777744000 matrices, above the default cap 1000000"
        }
        assert left_out_methods(3, 720, count_by_gruber(3, 720).value) == {
            Method.HNF: "it would emit 2623530 matrices, above the default cap 1000000"
        }
        assert left_out_methods(2, 10000000019, 10000000020) == {
            Method.DIRICHLET: "m=10000000019 is above its limit 1048576",
            Method.HNF: "it would emit 10000000020 matrices, above the default cap 1000000",
        }
        assert left_out_methods(2, MAX_DIRICHLET_LIMIT, DEFAULT_ENUMERATION_CAP) == {}

    def test_left_out_methods_leave_dirichlet_out_by_its_cell_budget(self):
        assert left_out_methods(5, 2**18, 1) == {}
        assert left_out_methods(5, 2**18 + 1, 1) == {
            Method.DIRICHLET: "it would cost 1048580 cells in its convolutions, "
            "above the limit 1048576"
        }
        assert left_out_methods(2, MAX_DIRICHLET_LIMIT + 1, 1) == {
            Method.DIRICHLET: "m=1048577 is above its limit 1048576"
        }

    def test_all_never_refuses_for_dirichlet(self, monkeypatch):
        def unbuilt(n, m):
            raise AssertionError(f"dirichlet was run at ({n}, {m})")

        monkeypatch.setitem(latcount.count._DISPATCH, Method.DIRICHLET, unbuilt)
        results = count_all_methods(1000, 1049)
        assert [str(r.method) for r in results] == ["factorization-sum", "gruber", "recursion"]

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
        # Enumeration emits every matrix it counts, so past n = 3 it sweeps less far.
        for method in Method:
            for n in range(1, 6):
                max_m = 12 if method is Method.HNF and n > 3 else 60
                table = list(count_table(n, max_m, method))
                assert all(type(value) is int for value in table), (method, n)
                expected = [run_count(n, m, method).value for m in range(1, max_m + 1)]
                assert table == expected, (method, n)

    def test_formula_methods_are_in_method_name_order(self):
        # verify names the four values of a failing m in this order.
        assert list(FORMULA_METHODS) == sorted(FORMULA_METHODS, key=attrgetter("value"))
        assert set(FORMULA_METHODS) == set(Method) - {Method.HNF}

    def test_factorization_sum_table_matches_single_counts(self):
        for n in range(1, 6):
            table = list(count_table(n, 300, Method.FACTORIZATION_SUM))
            assert table == [count_by_factorization_sum(n, m).value for m in range(1, 301)]

    def test_recursion_table_matches_single_counts(self):
        for n in range(1, 7):
            for max_m in (1, 2, 3, 300):
                table = list(count_table(n, max_m, Method.RECURSION))
                assert table == [count_by_recursion(n, m).value for m in range(1, max_m + 1)]

    def test_gruber_table_matches_single_counts(self):
        for n in range(1, 7):
            expected = [count_by_gruber(n, m).value for m in range(1, 3001)]
            for max_m in (1, 2, 3, 4, 3000):
                table = list(count_table(n, max_m, Method.GRUBER))
                assert table == expected[:max_m], (n, max_m)

    def test_gruber_table_makes_the_n_th_level_alone(self, monkeypatch):
        # No level below n is made, so n costs nothing where max_m is 1.
        start = time.perf_counter()
        for n in (10**6, 10**9):
            assert list(count_table(n, 1, Method.GRUBER)) == [1]
        assert time.perf_counter() - start < 1
        calls = []
        real_body = latcount.count._gruber

        def counted_body(n, m, factors):
            calls.append(n)
            return real_body(n, m, factors)

        monkeypatch.setattr(latcount.count, "_gruber", counted_body)
        assert list(count_table(5, 50, Method.GRUBER)) == [
            count_by_gruber(5, m).value for m in range(1, 51)
        ]
        assert set(calls) == {5}

    def test_gruber_table_counts_each_prime_power_once(self, monkeypatch):
        calls = []
        bounds_read = []
        real_body = latcount.count._gruber

        def counted_body(n, m, factors):
            calls.append((m, factors))
            return real_body(n, m, factors)

        def counted_bound():
            bounds_read.append(1)
            return latcount.arith.trial_division_bound()

        monkeypatch.setattr(latcount.count, "_gruber", counted_body)
        monkeypatch.setattr(latcount.count, "trial_division_bound", counted_bound)
        # The sweep's own split gives each prime power's factorization: nothing is factored again.
        monkeypatch.setattr(latcount.count, "factorize", None)
        values = list(count_table(4, 1000, Method.GRUBER))
        prime_powers = [m for m in range(2, 1001) if len(brute_factorization(m)) == 1]
        assert calls == [(m, tuple(brute_factorization(m))) for m in prime_powers]
        assert bounds_read == [1]
        monkeypatch.undo()
        assert values == [count_by_gruber(4, m).value for m in range(1, 1001)]

    @staticmethod
    def _shift_second_form(monkeypatch, n_fault, m_fault):
        """Make the Gruber body's second product form read p^(r+1) at (n_fault, m_fault)."""
        real_body = latcount.count._gruber

        class Shifting:
            # Three passes: the budget's, the first form's and the second form's.
            def __init__(self, factors):
                (p, r), = factors
                self.passes = iter((factors, factors, ((p, r + 1),)))

            def __iter__(self):
                return iter(next(self.passes))

        def faulty_body(n, m, factors):
            if (n, m) == (n_fault, m_fault):
                factors = Shifting(factors)
            return real_body(n, m, factors)

        monkeypatch.setattr(latcount.count, "_gruber", faulty_body)

    def test_gruber_table_checks_both_forms_at_every_prime_power(self, monkeypatch):
        expected = [count_by_gruber(3, m).value for m in range(1, 61)]
        for m in (m for m in range(2, 61) if len(brute_factorization(m)) == 1):
            monkeypatch.undo()
            self._shift_second_form(monkeypatch, 3, m)
            table = count_table(3, 60, Method.GRUBER)
            assert list(islice(table, m - 1)) == expected[: m - 1], m
            with pytest.raises(ExactnessError, match=f"^product forms disagree for n=3, m={m}: "):
                next(table)
        # verify's sweep reads the same body, at every level.
        monkeypatch.undo()
        self._shift_second_form(monkeypatch, 4, 49)
        with pytest.raises(ExactnessError, match="^product forms disagree for n=4, m=49: "):
            first_disagreement(5, 60)

    @pytest.mark.parametrize("bound, m", [(2, 9), (3, 25), (10, 121)])
    def test_gruber_table_refuses_at_the_first_m_it_cannot_factor(self, monkeypatch, bound, m):
        monkeypatch.setenv("LATCOUNT_TRIAL_DIVISION_BOUND", str(bound))
        table = count_table(3, 200, Method.GRUBER)
        assert list(islice(table, m - 1)) == [
            count_by_gruber(3, k).value for k in range(1, m)
        ]
        with pytest.raises(CapacityError) as excinfo:
            next(table)
        assert str(excinfo.value) == (
            f"cannot factor {m}: no prime factor of {m} below trial-division bound {bound}"
        )

    @staticmethod
    def _forbid(monkeypatch, name):
        def unbuilt(m):
            raise AssertionError(f"{name}({m}) was built")

        monkeypatch.setattr(latcount.count, name, unbuilt)

    def test_recursion_table_builds_no_divisor_index(self, monkeypatch):
        expected = [count_by_recursion(4, m).value for m in range(1, 301)]
        # No budget edge either: with none left, the sweep still makes no table.
        monkeypatch.setattr(latcount.count, "MAX_DIVISOR_TABLE_POINTERS", 0)
        self._forbid(monkeypatch, "DivisorIndex")
        self._forbid(monkeypatch, "_divisor_table")
        assert list(count_table(4, 300, Method.RECURSION)) == expected

    def test_recursion_table_past_the_old_divisor_budget(self):
        # 86,764 is the first max_m whose divisor table is over budget.
        table = list(count_table(4, 86_764, Method.RECURSION))
        assert len(table) == 86_764
        for m in (*range(1, 50), 720, 65_536, 83_160, 86_763, 86_764):
            assert table[m - 1] == count_by_gruber(4, m).value, m

    def test_table_over_the_divisor_budget_is_refused(self, monkeypatch):
        # The divisor table is the sweep's memory; no sweep falls back to one index per m.
        self._forbid(monkeypatch, "_divisor_table")
        self._forbid(monkeypatch, "DivisorIndex")
        message = (
            "the factorization-sum sweep up to m=86764 would hold 1000008 divisor-table "
            "pointers, above the limit 1000000"
        )
        for n in (2, 3):
            with pytest.raises(CapacityError) as excinfo:
                count_table(n, 86_764, Method.FACTORIZATION_SUM)
            assert str(excinfo.value) == message
        with pytest.raises(CapacityError, match="^the factorization-sum sweep up to m=86764 "):
            first_disagreement(2, 86_764)

    def test_level_one_alone_makes_no_divisor_table(self, monkeypatch):
        # f_1 = 1 reads no divisor list, so neither the table nor its budget is reached.
        self._forbid(monkeypatch, "_divisor_table")
        self._forbid(monkeypatch, "DivisorIndex")
        assert list(count_table(1, 86_764, Method.FACTORIZATION_SUM)) == [1] * 86_764
        assert first_disagreement(1, 86_764) is None

    def test_divisor_budget_admits_max_m_to_86763(self):
        budget = latcount.count.MAX_DIVISOR_TABLE_POINTERS
        assert latcount.count._divisor_table_size(86_763) <= budget
        assert latcount.count._divisor_table_size(86_764) > budget

    @staticmethod
    def _traced_while_read(make):
        """Bytes traced once make() returns and once its results are read: (holding, left)."""
        tracemalloc.start()
        try:
            results = make()
            holding, _ = tracemalloc.get_traced_memory()
            for _ in results:
                pass
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return holding, left

    def test_table_frees_its_divisor_table_when_exhausted(self, monkeypatch):
        # Factorization-sum reads the table as its results are read.
        holding, left = self._traced_while_read(
            lambda: count_table(4, 20_000, Method.FACTORIZATION_SUM)
        )
        assert holding > 2_000_000
        assert left < 100_000
        # The recursion makes no table, and holds nothing once its results are read.
        self._forbid(monkeypatch, "_divisor_table")
        _, left = self._traced_while_read(lambda: count_table(3, 20_000, Method.RECURSION))
        assert left < 100_000

    def test_table_predicts_each_enumeration_once(self, monkeypatch):
        calls = []

        def counted_gruber(n, m):
            calls.append(m)
            return count_by_gruber(n, m)

        monkeypatch.setattr(latcount.count, "count_by_gruber", counted_gruber)
        assert list(count_table(3, 40, Method.HNF)) == [
            count_by_gruber(3, m).value for m in range(1, 41)
        ]
        assert calls == list(range(1, 41))

    def test_table_rejects_bad_arguments(self):
        for method in Method:
            with pytest.raises(ValueError):
                count_table(0, 5, method)
            with pytest.raises(ValueError):
                count_table(2, 0, method)

    def test_result_requires_positive_value(self):
        with pytest.raises(ValueError):
            CountResult(0, Method.GRUBER)


class TestFirstDisagreement:
    def test_each_sweep_gives_count_tables_values_at_every_level(self):
        for method in FORMULA_METHODS:
            levels = [list(level) for level in latcount.count._TABLES[method](6, 60)]
            assert levels == [list(count_table(n, 60, method)) for n in range(1, 7)], method
        assert first_disagreement(6, 60) is None

    @staticmethod
    def _skew(monkeypatch, method, fault_n, fault_m):
        real_sweep = latcount.count._TABLES[method]

        def skewed_sweep(n_max, max_m):
            for n, level in enumerate(real_sweep(n_max, max_m), start=1):
                level = list(level)
                if n == fault_n:
                    level[fault_m - 1] += 1
                yield level

        monkeypatch.setitem(latcount.count._TABLES, method, skewed_sweep)

    def test_the_first_fault_in_n_major_order_is_named(self, monkeypatch):
        self._skew(monkeypatch, Method.GRUBER, 3, 41)
        self._skew(monkeypatch, Method.RECURSION, 4, 2)
        self._skew(monkeypatch, Method.DIRICHLET, 3, 40)
        value = count_by_gruber(3, 40).value
        assert first_disagreement(5, 60) == (
            3,
            40,
            [
                (Method.DIRICHLET, value + 1),
                (Method.FACTORIZATION_SUM, value),
                (Method.GRUBER, value),
                (Method.RECURSION, value),
            ],
        )

    def test_each_method_sweeps_once_for_every_n(self, monkeypatch):
        calls = {}

        def counted(name, real):
            calls[name] = []

            def call(*args):
                calls[name].append(args)
                return real(*args)

            monkeypatch.setattr(latcount.count, name, call)

        counted("_dirichlet_levels", latcount.series._dirichlet_levels)
        counted("_divisor_table", _divisor_table)
        counted("_least_prime", latcount.arith._least_prime)
        counted("_gruber", latcount.count._gruber)
        assert first_disagreement(5, 200) is None
        prime_powers = [m for m in range(2, 201) if len(brute_factorization(m)) == 1]
        assert calls["_dirichlet_levels"] == [(5, 200)]
        assert calls["_divisor_table"] == [(200,)]
        assert [m for m, _ in calls["_least_prime"]] == list(range(2, 201))
        assert calls["_gruber"] == [
            (n, m, tuple(brute_factorization(m))) for n in range(1, 6) for m in prime_powers
        ]


class TestFaults:
    """One plausible bug in a primitive the factorization sum reads, and the check that catches it."""

    def test_a_divisor_dropped_from_the_table_is_caught_by_the_sweeps(self, monkeypatch):
        real_table = latcount.count._divisor_table

        def faulty_table(max_m):
            table = real_table(max_m)
            table[12] = [d for d in table[12] if d != 4]
            return table

        monkeypatch.setattr(latcount.count, "_divisor_table", faulty_table)
        found = first_disagreement(4, 200)
        assert found is not None
        n, m, values = found
        assert (n, m) == (2, 12)
        assert dict(values)[Method.FACTORIZATION_SUM] == brute_sigma(12) - 4

    def test_a_divisor_dropped_from_m_s_own_list_is_caught_by_all_methods(self, monkeypatch):
        real_divisors = latcount.arith.divisors

        def faulty_divisors(m):
            return [d for d in real_divisors(m) if (m, d) != (12, 4)]

        monkeypatch.setattr(latcount.arith, "divisors", faulty_divisors)
        for n in (2, 3, 4):
            with pytest.raises(ExactnessError) as excinfo:
                count_all_methods(n, 12)
            values = dict(excinfo.value.results)
            assert values["factorization-sum"] != values["gruber"], n

    def test_a_divisor_dropped_from_a_filtered_entry_is_caught_by_all_methods(self, monkeypatch):
        # The fold reads sigma(6) from the index entry of 6, made by filtering 12's, either
        # when 6 is asked for or on the way to one of its divisors.
        real_missing = DivisorIndex.__missing__

        def faulty_missing(index, q):
            real_missing(index, q)
            if 2 in index.get(6, ()):
                index[6] = [1, 3, 6]
            return index[q]

        monkeypatch.setattr(DivisorIndex, "__missing__", faulty_missing)
        for n in (3, 4, 5):
            with pytest.raises(ExactnessError) as excinfo:
                count_all_methods(n, 12)
            values = dict(excinfo.value.results)
            assert values["factorization-sum"] != values["gruber"], n


class TestSweepBudgets:
    def test_recursion_sweep_refuses_past_its_cells_before_the_first_level(self, monkeypatch):
        cap = latcount.count.MAX_RECURSION_CELLS
        assert latcount.count._recursion_cells(4, 224_152) <= cap
        with pytest.raises(CapacityError) as excinfo:
            count_table(4, 224_153, Method.RECURSION)
        assert str(excinfo.value) == (
            "the recursion sweep up to n=4, m=224153 would cost 8388612 cells, "
            "above the limit 8388608"
        )
        # verify meets the factorization-sum sweep's divisor budget first; with that sweep
        # set aside, the recursion's budget refuses verify on its own.
        with pytest.raises(CapacityError, match="^the factorization-sum sweep up to m=224153 "):
            first_disagreement(4, 224_153)
        unmade_levels = lambda n_max, max_m: (iter(()) for _ in range(n_max))  # noqa: E731
        monkeypatch.setitem(latcount.count._TABLES, Method.FACTORIZATION_SUM, unmade_levels)
        with pytest.raises(CapacityError, match="recursion sweep up to n=4, m=224153 "):
            first_disagreement(4, 224_153)
        # In n, each cell counts once more for every 512 bits of its values.
        assert list(count_table(23_046, 2, Method.RECURSION)) == [1, 2**23_046 - 1]
        with pytest.raises(CapacityError, match="up to n=23047, m=2 would cost 8388744 cells"):
            count_table(23_047, 2, Method.RECURSION)

    def test_tuple_counts_match_the_ordered_factorization_counts(self):
        # D_k(M), the k-tuples with product <= M, is the sum of T_k(m) over m <= M.
        running = [0] * 8
        for max_m in range(1, 2001):
            for k in range(1, 8):
                running[k] += ordered_factorization_count(max_m, k)
            if max_m <= 300 or max_m % 97 == 0 or max_m == 2000:
                counts = list(islice(latcount.count._tuple_counts(max_m), 7))
                assert counts == running[1:], max_m
        # Two parts are the divisor table's pointers.
        for max_m in (86_763, 86_764, 10**6):
            counts = latcount.count._tuple_counts(max_m)
            assert list(islice(counts, 2))[1] == latcount.count._divisor_table_size(max_m)

    def test_factorization_sum_sweep_refuses_past_its_cells_before_the_table(self, monkeypatch):
        cap = latcount.count.MAX_FACTORIZATION_SUM_SWEEP_CELLS
        cells = latcount.count._factorization_sum_sweep_cells
        # verify makes levels 1 .. n, and table the n-th alone: the last max_m admitted at n,
        # and the last n admitted at m = 2.
        for n, max_m, lowest in [(4, 69_122, 1), (5, 18_959, 1), (4, 83_644, 4), (5, 23_173, 5)]:
            assert cells(n, max_m, lowest) <= cap < cells(n, max_m + 1, lowest), (n, max_m)
        assert cells(1_168, 2, 1) <= cap < cells(1_169, 2, 1)
        assert cells(36_864, 2, 36_864) <= cap < cells(36_865, 2, 36_865)
        # The largest sweep a test runs: table --n 1100 --max-m 4, in about 2 s.
        assert cells(1_100, 4, 1_100) <= cap
        TestRequestDispatch._forbid(monkeypatch, "_divisor_table")
        with pytest.raises(CapacityError) as excinfo:
            count_table(4, 83_645, Method.FACTORIZATION_SUM)
        assert str(excinfo.value) == (
            "the factorization-sum sweep up to n=4, m=83645 would cost at least 45000081 cells, "
            "above the limit 45000000"
        )
        message = "^the factorization-sum sweep up to n=4, m=69123 would cost at least 45000071 "
        with pytest.raises(CapacityError, match=message):
            first_disagreement(4, 69_123)
        with pytest.raises(CapacityError, match="^the factorization-sum sweep up to n=36865, m=2 "):
            count_table(36_865, 2, Method.FACTORIZATION_SUM)
        # Far past the edge, the sum stops at the first level past the limit, and a table
        # refuses its n-th level from a level below it.
        start = time.perf_counter()
        for n in (10**6, 10**9):
            with pytest.raises(CapacityError, match=f"^the factorization-sum sweep up to n={n}, "):
                count_table(n, 1000, Method.FACTORIZATION_SUM)
            with pytest.raises(CapacityError, match=f"^the factorization-sum sweep up to n={n}, "):
                next(latcount.count._factorization_sum_table(n, 2))
        assert time.perf_counter() - start < 1

    def test_gruber_refuses_past_its_squared_bits_before_the_first_product(self):
        # f_2(3^r) = (3^(r+1) - 1) / 2
        assert count_by_gruber(2, 3**7209).value == (3**7210 - 1) // 2
        with pytest.raises(CapacityError) as excinfo:
            count_by_gruber(2, 3**7210)
        assert str(excinfo.value) == (
            "Gruber's products for n=2 at an m of 11428 bits would cost 2000209793688 "
            "squared bits, above the limit 2000000000000"
        )

    def test_an_enumeration_past_gruber_budget_is_refused_by_it(self):
        message = "Gruber's products for n=2 at an m of 20001 bits would cost "
        with pytest.raises(CapacityError, match=message):
            run_count(2, 2**20000, "hnf")
        with pytest.raises(CapacityError, match=message):
            check_enumeration_size(2, 2**20000)


class TestSingleCountBudgets:
    PRIMORIAL_31 = math.prod(sieve_primes(31))  # 11 primes, tau = 2048, 38 bits

    def test_recursion_refuses_past_its_levels_before_the_grid(self, monkeypatch):
        cap = latcount.count.MAX_RECURSION_GRID_CELLS
        factors = factorize(self.PRIMORIAL_31)
        assert latcount.count._recursion_grid_cells(385, factors, 38) <= cap
        # accumulate makes each prime's powers for the grid's divisors, before the first level.
        monkeypatch.setattr(latcount.count, "accumulate", None)
        with pytest.raises(CapacityError) as excinfo:
            count_by_recursion(386, self.PRIMORIAL_31)
        assert str(excinfo.value) == (
            "the recursion's levels for n=386 at an m of 38 bits would cost 300410880 cells, "
            "above the limit 300000000"
        )
        # n = 1000 would hold its 2048 values at 75 cells each.
        with pytest.raises(CapacityError, match="^the recursion's 2048 values for n=1000 at an m"):
            count_by_recursion(1000, self.PRIMORIAL_31)

    def test_recursion_refuses_m_s_divisor_list_as_the_index_does(self, monkeypatch):
        # 2^8190's divisor list is admitted; at n = 3 its values are not.
        assert count_by_recursion(2, 2**8190).value == 2**8191 - 1
        monkeypatch.setattr(latcount.count, "accumulate", None)
        for n in (1, 2, 3):
            with pytest.raises(CapacityError, match="^listing the 25010001 divisors of an m of"):
                count_by_recursion(n, 10**5000)
        with pytest.raises(CapacityError) as excinfo:
            count_by_recursion(3, 2**8190)
        assert str(excinfo.value) == (
            "the recursion's 8191 values for n=3 at an m of 8191 bits would hold 262112 cells, "
            "above the limit 131072"
        )

    def test_factorization_sum_refuses_past_its_cells_before_the_first_prefix(self):
        cap = latcount.count.MAX_FACTORIZATION_SUM_CELLS
        # (7, 720720) walks 14.1 M tuples in about 2 s; it is the last n admitted at that m.
        assert latcount.count._factorization_sum_cells(7, factorize(720720), 20) <= cap
        with pytest.raises(CapacityError) as excinfo:
            count_by_factorization_sum(8, 720720)
        assert str(excinfo.value) == (
            "the 48660480 8-part factorizations of an m of 20 bits would cost 487658448 cells, "
            "above the limit 100000000"
        )
        # In n, each cell counts once more for every 512 bits of m^(n-1).
        result = count_by_factorization_sum(14_080, 2)
        assert (result.value, result.work_stats["tuples"]) == (2**14_080 - 1, 14_080)
        with pytest.raises(CapacityError, match="^the 14081 14081-part .* 101708152 cells"):
            count_by_factorization_sum(14_081, 2)

    def test_factorization_sum_cells_bound_the_tuples(self):
        for m in (1, 2, 12, 720720, 2**10 * 3**4):
            factors = factorize(m)
            for n in range(1, 9):
                cells = latcount.count._factorization_sum_cells(n, factors, m.bit_length())
                assert cells >= ordered_factorization_count(m, n), (n, m)

    def test_all_methods_refuse_before_gruber_s_products(self, monkeypatch):
        # Gruber's products at (2, 10^5000) are inside their budget and take about 1 s.
        monkeypatch.setattr(latcount.count, "count_by_gruber", None)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="^listing the 25010001 divisors"):
            count_all_methods(2, 10**5000)
        assert time.perf_counter() - start < 0.1
        with pytest.raises(CapacityError, match="^the 48660480 8-part factorizations"):
            count_all_methods(8, 720720)
        # f_n(1) has one tuple, but the recursion's levels count n bits for every value.
        with pytest.raises(CapacityError, match="^the recursion's levels for n=400000 "):
            count_all_methods(400_000, 1)


class TestCountResultType:
    # repr text recorded from the frozen dataclass that CountResult used to be
    def test_repr(self):
        assert repr(CountResult(91, Method.GRUBER)) == (
            "CountResult(value=91, method=<Method.GRUBER: 'gruber'>, work_stats={})"
        )
        assert repr(CountResult(3, Method.HNF, {"matrices": 3})) == (
            "CountResult(value=3, method=<Method.HNF: 'hnf'>, work_stats={'matrices': 3})"
        )

    def test_keyword_construction(self):
        result = CountResult(value=12, method=Method.RECURSION, work_stats={"divisor_visits": 9})
        assert (result.value, result.method, result.work_stats) == (
            12,
            Method.RECURSION,
            {"divisor_visits": 9},
        )
        assert result == CountResult(12, Method.RECURSION)

    def test_equality_and_hash_ignore_work_stats(self):
        plain = CountResult(91, Method.GRUBER)
        with_stats = CountResult(91, Method.GRUBER, {"tuples": 5})
        assert plain == with_stats
        assert hash(plain) == hash(with_stats)
        assert len({plain, with_stats}) == 1
        assert plain != CountResult(91, Method.RECURSION)
        assert plain != CountResult(92, Method.GRUBER)
        assert plain != (91, Method.GRUBER)

    def test_each_instance_gets_its_own_work_stats(self):
        first = CountResult(1, Method.HNF)
        second = CountResult(1, Method.HNF)
        first.work_stats["matrices"] = 1
        assert second.work_stats == {}
        assert first.work_stats is not second.work_stats

    def test_fields_cannot_be_assigned_or_deleted(self):
        result = CountResult(3, Method.GRUBER)
        for name in ("value", "method", "work_stats", "other"):
            with pytest.raises(AttributeError):
                setattr(result, name, 5)
            with pytest.raises(AttributeError):
                delattr(result, name)
        assert (result.value, result.method, result.work_stats) == (3, Method.GRUBER, {})

    def test_rejection_message(self):
        with pytest.raises(ValueError, match=r"^count must be >= 1, got 0$"):
            CountResult(0, Method.GRUBER)

    def test_pickle_round_trip(self):
        result = CountResult(35, Method.FACTORIZATION_SUM, {"tuples": 6})
        copy = pickle.loads(pickle.dumps(result))
        assert copy == result
        assert copy.work_stats == {"tuples": 6}
