import sys
import tracemalloc
from pathlib import Path

import pytest
import latcount.qcalc
import latcount.series
from hypothesis import given, settings
from hypothesis import strategies as st

from latcount import (
    CapacityError,
    QPolynomial,
    TSeries,
    UsageError,
    count_by_dirichlet,
    count_by_gruber,
    dirichlet_coefficients,
    euler_factor,
    factorize,
    geometric_factor,
    lhs_product,
    rhs_sum,
)
from latcount.series import (
    LHS_PRODUCT_CELLS,
    MAX_DIRICHLET_CELLS,
    MAX_DIRICHLET_LIMIT,
    MAX_EULER_SQUARED_BITS,
    MAX_LHS_CELLS,
    identity_sides,
)
from oracles import (
    brute_sigma,
    dirichlet_by_descending_divisors,
    dirichlet_by_divisor_sums,
    poly_mul,
    verify_generating_identity,
)


PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def poly(*coeffs):
    return QPolynomial(coeffs)


class TestTSeries:
    def test_requires_a_constant_term(self):
        with pytest.raises(ValueError):
            TSeries([])

    def test_addition_and_equality(self):
        a = TSeries([poly(1), poly(0, 1)])
        b = TSeries([poly(2), poly(1)])
        total = TSeries([x + y for x, y in zip(a.coefficients, b.coefficients)])
        assert total == TSeries([poly(3), poly(1, 1)])
        assert a != b
        assert a == TSeries([poly(1), poly(0, 1)])

    def test_multiplication_truncates(self):
        a = TSeries([poly(1), poly(1), poly(1)])
        product = a * a
        assert product.truncation_order == 2
        assert product.coefficients == (poly(1), poly(2), poly(3))

    def test_cancelling_sums_leave_a_shorter_or_zero_t_power(self):
        a = TSeries([poly(1), poly(1, 1, 1), poly(0, 2)])
        b = TSeries([poly(1), poly(0, 0, -1), poly(-1, -1, -1)])
        product = a * b
        # t^1 is (1 + q + q^2) - q^2, and (1 + t)(1 - t) has no t^1 term.
        assert product.coefficients[1] == poly(1, 1)
        assert product.coefficients == _oracle_product(a, b)
        assert (TSeries([poly(1), poly(1)]) * TSeries([poly(1), poly(-1)])).coefficients == (
            poly(1),
            poly(),
        )

    def test_order_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            TSeries([poly(1)]) * TSeries([poly(1), poly(1)])

    def test_render_lines(self):
        a = TSeries([poly(1), poly(1, 1)])
        assert a.render_lines() == ["t^0: 1", "t^1: 1 + q"]


def _oracle_product(a, b):
    """The truncated product of two TSeries, each t-power summed from oracle products."""
    coefficients = []
    for k in range(a.truncation_order + 1):
        products = [
            poly_mul(list(a.coefficients[i].coefficients), list(b.coefficients[k - i].coefficients))
            for i in range(k + 1)
        ]
        width = max(map(len, products))
        total = (sum(p[d] for p in products if d < len(p)) for d in range(width))
        coefficients.append(QPolynomial(total))
    return tuple(coefficients)


def _series_pair(order):
    # Small signed coefficients, so that the sums of products often cancel.
    coefficients = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=8)
    series = st.lists(coefficients, min_size=order + 1, max_size=order + 1)
    return st.tuples(series, series)


@given(st.integers(min_value=0, max_value=5).flatmap(_series_pair))
def test_product_matches_the_oracle_property(pair):
    # The oracle's coefficients are canonical, so equality makes the product's canonical too.
    a, b = (TSeries([QPolynomial(c) for c in coefficients]) for coefficients in pair)
    assert (a * b).coefficients == _oracle_product(a, b)


class TestGeneratingIdentity:
    def test_geometric_factor_examples(self):
        assert geometric_factor(0, 3).coefficients == (poly(1),) * 4
        assert geometric_factor(1, 2).coefficients == (
            poly(1),
            poly(0, 1),
            poly(0, 0, 1),
        )
        assert geometric_factor(2, 2).coefficients == (
            poly(1),
            poly(0, 0, 1),
            poly(0, 0, 0, 0, 1),
        )

    def test_lhs_examples(self):
        assert lhs_product(1, 4).coefficients == (poly(1),) * 5
        assert lhs_product(2, 2).coefficients == (poly(1), poly(1, 1), poly(1, 1, 1))
        assert lhs_product(2, 1).coefficients == (poly(1), poly(1, 1))

    def test_rhs_examples(self):
        assert rhs_sum(1, 3).coefficients == (poly(1),) * 4
        assert rhs_sum(2, 1).coefficients == (poly(1), poly(1, 1))
        assert rhs_sum(3, 1).coefficients == (poly(1), poly(1, 1, 1))

    def test_identity_holds(self):
        assert verify_generating_identity(1, 10)
        assert verify_generating_identity(3, 8)
        assert verify_generating_identity(5, 10)

    def test_identity_grid(self):
        for n in range(1, 5):
            for order in range(9):
                assert verify_generating_identity(n, order)

    def test_truncation_coherence(self):
        for n in (1, 2, 4):
            full_lhs = lhs_product(n, 8)
            full_rhs = rhs_sum(n, 8)
            for order in range(9):
                assert full_lhs.coefficients[: order + 1] == lhs_product(n, order).coefficients
                assert full_rhs.coefficients[: order + 1] == rhs_sum(n, order).coefficients

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lhs_product(0, 3)
        with pytest.raises(ValueError):
            rhs_sum(2, -1)
        with pytest.raises(ValueError):
            geometric_factor(-1, 3)

    def test_rhs_size_is_predicted_by_one_q_pascal_row(self):
        for n in range(1, 6):
            for order in range(9):
                held = sum(len(c.coefficients) for c in rhs_sum(n, order).coefficients)
                assert latcount.qcalc._last_row_size(n - 1 + order, n - 1) == held

    def test_rhs_over_the_budget_is_refused_before_any_q_binomial(self, monkeypatch):
        def unbuilt(m, k):
            raise AssertionError(f"gauss_binomial({m}, {k}) was called")

        monkeypatch.setattr(latcount.series, "gauss_binomial", unbuilt)
        with pytest.raises(CapacityError) as excinfo:
            rhs_sum(2, 1413)
        assert str(excinfo.value) == (
            "rhs_sum(2, 1413) would hold 1000405 coefficients in its q-binomials, "
            "above the limit 1000000"
        )

    def test_rhs_budget_admits_998991_and_one_million_coefficients(self, monkeypatch):
        monkeypatch.setattr(latcount.series, "gauss_binomial", lambda m, k: QPolynomial.one())
        assert latcount.qcalc._last_row_size(1413, 1) == 998_991
        assert latcount.qcalc._last_row_size(999_999, 0) == 1_000_000
        for n, order in ((2, 1412), (1, 999_999)):
            assert rhs_sum(n, order).truncation_order == order

    def test_lhs_cells_are_the_cells_of_its_products(self, monkeypatch):
        cells = 0
        multiply = QPolynomial.__mul__

        def counted(a, b):
            nonlocal cells
            product = multiply(a, b)
            cells += len(product.coefficients)
            return product

        monkeypatch.setattr(QPolynomial, "__mul__", counted)
        for n in range(1, 7):
            for order in range(9):
                cells = 0
                lhs_product(n, order)
                assert latcount.series._lhs_cells(n, order) == cells, (n, order)

    @pytest.mark.parametrize("n, last", [(2, 491), (12, 98), (200, 13)])
    def test_lhs_budget_admits_the_last_order_and_refuses_the_next(self, monkeypatch, n, last):
        products = []
        monkeypatch.setattr(TSeries, "__mul__", lambda a, b: products.append(b) or a)
        fixed = (n - 1) * LHS_PRODUCT_CELLS
        assert latcount.series._lhs_cells(n, last) + fixed <= MAX_LHS_CELLS
        assert lhs_product(n, last).truncation_order == last
        assert len(products) == n - 1
        products.clear()
        predicted = latcount.series._lhs_cells(n, last + 1) + fixed
        with pytest.raises(CapacityError) as excinfo:
            lhs_product(n, last + 1)
        assert str(excinfo.value) == (
            f"lhs_product({n}, {last + 1}) would cost {predicted} cells in its products, "
            f"above the limit {MAX_LHS_CELLS}"
        )
        assert predicted > MAX_LHS_CELLS
        assert products == []

    def test_lhs_budget_charges_each_product_a_fixed_cost(self, monkeypatch):
        # At t-order 0 each product touches one cell, so the fixed cost is what bounds n.
        products = []
        monkeypatch.setattr(TSeries, "__mul__", lambda a, b: products.append(b) or a)
        assert lhs_product(219_781, 0).truncation_order == 0
        assert len(products) == 219_780
        products.clear()
        with pytest.raises(CapacityError) as excinfo:
            lhs_product(219_782, 0)
        assert str(excinfo.value) == (
            "lhs_product(219782, 0) would cost 20000071 cells in its products, "
            "above the limit 20000000"
        )
        assert products == []

    def test_lhs_budget_is_over_ten_times_the_largest_benchmark_lhs(self):
        sys.path.insert(0, PERFBENCH)
        try:
            import workloads
        finally:
            sys.path.remove(PERFBENCH)
        pairs = {pair for triple in workloads.series_triples() for pair in triple}
        largest = max(latcount.series._lhs_cells(n, order) for n, order in pairs)
        assert largest == latcount.series._lhs_cells(15, 19) == 263_620
        assert 10 * largest <= MAX_LHS_CELLS

    def test_geometric_factor_admits_998991_and_refuses_1000405_coefficients(self):
        held = sum(len(c.coefficients) for c in geometric_factor(1, 1412).coefficients)
        assert held == 998_991
        with pytest.raises(CapacityError) as excinfo:
            geometric_factor(1, 1413)
        assert str(excinfo.value) == (
            "geometric_factor(1, 1413) would hold 1000405 coefficients in its monomials, "
            "above the limit 1000000"
        )

    def test_n_one_lhs_admits_and_refuses_the_orders_the_rhs_does(self, monkeypatch):
        # n = 1 makes no products, so only the one factor's size bounds the lhs.
        powers = []
        one = QPolynomial.one()
        monkeypatch.setattr(
            QPolynomial, "monomial", classmethod(lambda cls, power: powers.append(power) or one)
        )
        assert lhs_product(1, 999_999).truncation_order == 999_999
        assert len(powers) == 10**6
        powers.clear()
        with pytest.raises(CapacityError, match=r"^geometric_factor\(0, 1000000\) would hold"):
            lhs_product(1, 10**6)
        assert powers == []

    def test_n_one_over_the_budget_is_refused_before_allocating(self):
        tracemalloc.start()
        try:
            for side in (lhs_product, rhs_sum):
                with pytest.raises(CapacityError, match="above the limit 1000000$"):
                    side(1, 10**6)
            with pytest.raises(CapacityError, match="1000000001 coefficients"):
                verify_generating_identity(1, 10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_identity_sides_are_the_two_sides(self):
        for n, order in ((1, 4), (3, 5), (5, 2)):
            assert identity_sides(n, order) == (lhs_product(n, order), rhs_sum(n, order))

    def test_a_q_pascal_row_over_its_cap_is_refused_before_any_product(self, monkeypatch):
        # (2000, 1)'s products touch 4,001,998 cells, inside their budget, so the
        # first refusal is the rhs's second q-binomial.
        products = []
        multiply = TSeries.__mul__
        monkeypatch.setattr(TSeries, "__mul__", lambda a, b: products.append(b) or multiply(a, b))
        with pytest.raises(CapacityError) as excinfo:
            verify_generating_identity(2000, 1)
        assert str(excinfo.value) == (
            "gauss_binomial(2000, 1) would hold 2001000 coefficients in its last q-Pascal row, "
            "above the limit 1000000"
        )
        assert products == []

    def test_bad_arguments_are_usage_errors_before_any_budget(self):
        for n, order in ((0, 3), (-10**6, 10**6), (2, -1)):
            with pytest.raises(UsageError):
                identity_sides(n, order)

    @pytest.mark.parametrize(
        "function, args", [(rhs_sum, (3,)), (lhs_product, (3,)), (euler_factor, (2, 3))]
    )
    def test_negative_truncation_order_is_a_usage_error(self, function, args):
        with pytest.raises(UsageError, match=r"^truncation order must be >= 0, got -1$"):
            function(*args, -1)


class TestEulerFactor:
    def test_examples(self):
        assert euler_factor(2, 1, 3) == [1, 1, 1, 1]
        assert euler_factor(2, 3, 2) == [1, 7, 35]
        assert euler_factor(3, 2, 2) == [1, 4, 13]

    def test_rejects_non_primes(self):
        for bad in (1, 4, 6, 9, 100):
            with pytest.raises(ValueError, match="prime"):
                euler_factor(bad, 2, 1)

    def test_local_coefficients_match_the_product_formula(self):
        for p in (2, 3, 5, 7):
            for n in range(1, 6):
                local = euler_factor(p, n, 5)
                for k in range(6):
                    assert local[k] == count_by_gruber(n, p**k).value

    def test_predicted_squared_bits_bound_every_coefficient_and_line(self):
        line = latcount.series.EULER_LINE_BITS**2
        for p in (2, 3, 5, 7, 1000003):
            for n in range(1, 8):
                for order in (0, 1, 2, 5, 17, 40):
                    printed = sum(c.bit_length() ** 2 + line for c in euler_factor(p, n, order))
                    assert printed <= latcount.series._euler_squared_bits(p, n, order)

    @pytest.mark.parametrize("p, n, last", [(2, 2, 10563), (1000003, 2, 1440), (2, 1, 624995)])
    def test_budget_admits_the_last_order_and_refuses_the_next(self, monkeypatch, p, n, last):
        # Each last order takes about 2 s to print as a process; here no value is computed.
        calls = []
        monkeypatch.setattr(latcount.series, "gauss_binomial_at", lambda m, k, q0: calls.append(k))
        assert len(euler_factor(p, n, last)) == last + 1
        assert len(calls) == last + 1
        calls.clear()
        predicted = latcount.series._euler_squared_bits(p, n, last + 1)
        with pytest.raises(CapacityError) as excinfo:
            euler_factor(p, n, last + 1)
        assert str(excinfo.value) == (
            f"euler_factor({p}, {n}, {last + 1}) would cost {predicted} squared bits to print, "
            f"above the limit {MAX_EULER_SQUARED_BITS}"
        )
        assert latcount.series._euler_squared_bits(p, n, last) <= MAX_EULER_SQUARED_BITS
        assert predicted > MAX_EULER_SQUARED_BITS
        assert calls == []


class TestDirichletCoefficients:
    def test_zeta_stream(self):
        assert dirichlet_coefficients(1, 10) == [0] + [1] * 10

    def test_sigma_stream(self):
        assert dirichlet_coefficients(2, 6) == [0, 1, 3, 4, 7, 6, 12]

    def test_dimension_three(self):
        assert dirichlet_coefficients(3, 4) == [0, 1, 7, 13, 35]

    def test_leading_coefficient_is_one(self):
        for n in range(1, 7):
            assert dirichlet_coefficients(n, 5)[1] == 1

    def test_sigma_against_brute_force(self):
        coefficients = dirichlet_coefficients(2, 1000)
        for m in range(1, 1001):
            assert coefficients[m] == brute_sigma(m)

    def test_global_equals_product_of_local_factors(self):
        for n in range(1, 5):
            coefficients = dirichlet_coefficients(n, 200)
            for m in range(1, 201):
                expected = 1
                for p, r in factorize(m):
                    expected *= euler_factor(p, n, r)[r]
                assert coefficients[m] == expected

    def test_matches_the_divisor_sum_definition(self):
        # Limits below 4 and of both parities, where limit // 2 and the d = 1 pass meet.
        for n in range(1, 7):
            expected = dirichlet_by_divisor_sums(n, 60)
            for limit in range(1, 61):
                assert dirichlet_coefficients(n, limit) == expected[: limit + 1], (n, limit)

    def test_equals_the_descending_loop_at_every_limit_to_300(self):
        for n in range(1, 7):
            expected = dirichlet_by_descending_divisors(n, 300)
            for limit in range(1, 301):
                assert dirichlet_coefficients(n, limit) == expected[: limit + 1], (n, limit)

    def test_equals_the_descending_loop_at_the_split_and_run_edges(self):
        # The split at r = isqrt(limit), the dyadic blocks above it, and the
        # cut of each slice update into runs; the first block run longer than
        # one run comes just past limit 4 * run.
        run = latcount.series._RUN
        limits = {r * r + e for r in (2, 3, 10, 31, 32, 45, 70) for e in (-1, 0, 1)}
        limits |= {2**k + e for k in range(2, 13) for e in (-1, 1)}
        limits |= {j * run + e for j in range(1, 5) for e in (-1, 1)}
        limits |= {4 * run + e for e in range(2, 9)} | {5000}
        for n in range(1, 7):
            expected = dirichlet_by_descending_divisors(n, max(limits))
            for limit in sorted(limits):
                assert dirichlet_coefficients(n, limit) == expected[: limit + 1], (n, limit)

    def test_peak_memory_is_one_list_and_the_powers_to_half_the_limit(self):
        # One list of 2 * 10^4 ints and the powers to 10^4 peak at 1.6 MB; three lists, 2.4 MB.
        tracemalloc.start()
        try:
            dirichlet_coefficients(3, 2 * 10**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6

    def test_limit_above_the_cap_is_refused_before_allocating(self):
        assert len(dirichlet_coefficients(1, MAX_DIRICHLET_LIMIT)) == MAX_DIRICHLET_LIMIT + 1
        tracemalloc.start()
        try:
            for limit in (MAX_DIRICHLET_LIMIT + 1, 10**10):
                with pytest.raises(CapacityError, match=str(MAX_DIRICHLET_LIMIT)):
                    dirichlet_coefficients(5, limit)
                with pytest.raises(CapacityError):
                    count_by_dirichlet(5, limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_cell_budget_edges_at_n_2(self):
        # At n = 2 the cells are the limit, so both budgets admit 2^20 and refuse 2^20 + 1.
        assert latcount.series._dirichlet_cells(2, MAX_DIRICHLET_LIMIT) == MAX_DIRICHLET_CELLS
        with pytest.raises(CapacityError) as excinfo:
            dirichlet_coefficients(2, MAX_DIRICHLET_LIMIT + 1)
        assert str(excinfo.value) == (
            "Dirichlet coefficients up to 1048577 would need lists of 1048578 entries, "
            "above the limit 1048576"
        )

    def test_cell_budget_edges_at_n_5(self):
        # the last limit admitted at n = 5: 4 shifts of 2^18 cells, about 3 s
        table = dirichlet_coefficients(5, 2**18)
        assert table[2**18] == count_by_gruber(5, 2**18).value
        with pytest.raises(CapacityError) as excinfo:
            dirichlet_coefficients(5, 2**18 + 1)
        assert str(excinfo.value) == (
            "dirichlet_coefficients(5, 262145) would cost 1048580 cells in its convolutions, "
            "above the limit 1048576"
        )

    def test_wide_cells_cost_more(self):
        # (1000, 1049) is 2^20 cells of up to 10,989 bits; unweighted it ran for 42 s
        assert latcount.series._dirichlet_cells(1000, 1049) == 1_047_951 * 22
        with pytest.raises(CapacityError, match="would cost 23054922 cells"):
            dirichlet_coefficients(1000, 1049)
        assert latcount.series._dirichlet_cells(1000, 74) <= MAX_DIRICHLET_CELLS
        assert latcount.series._dirichlet_cells(1000, 75) > MAX_DIRICHLET_CELLS

    def test_count_by_dirichlet(self):
        assert count_by_dirichlet(2, 6).value == 12
        assert count_by_dirichlet(1, 999).value == 1
        assert count_by_dirichlet(4, 8).value == count_by_gruber(4, 8).value


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=120))
def test_dirichlet_matches_gruber_property(n, m):
    assert count_by_dirichlet(n, m).value == count_by_gruber(n, m).value


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=3000))
def test_dirichlet_equals_the_descending_loop_property(n, limit):
    assert dirichlet_coefficients(n, limit) == dirichlet_by_descending_divisors(n, limit)
