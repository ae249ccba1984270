import math
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
import latcount.qcalc
from hypothesis import given
from hypothesis import strategies as st

from latcount import (
    CapacityError,
    QPolynomial,
    format_qpolynomial,
    gauss_binomial,
    gauss_binomial_at,
)
from latcount.core import MAX_PREDICTED_BYTES, MAX_PREDICTED_NS
from latcount.qcalc import first_asymmetric_pair
from oracles import poly_mul, poly_value, q_factorial, qbinomial_by_quotient

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


class TestQPolynomial:
    def test_trailing_zeros_are_stripped(self):
        assert QPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
        assert QPolynomial([0, 0]).coefficients == ()
        assert QPolynomial([]).is_zero()

    def test_degree(self):
        assert QPolynomial.zero().degree == -1
        assert QPolynomial.one().degree == 0
        assert QPolynomial([0, 0, 5]).degree == 2

    def test_arithmetic(self):
        a = QPolynomial([1, 2])
        b = QPolynomial([3, 0, 1])
        assert (a + b).coefficients == (4, 2, 1)
        assert (a * b).coefficients == (3, 6, 1, 2)
        assert (a * 0).is_zero()
        assert (3 * a).coefficients == (3, 6)

    def test_products_skip_zero_terms_in_either_order(self):
        products = 0

        class Counted(int):
            def __mul__(self, other):
                nonlocal products
                products += 1
                return int(self) * int(other)

            __rmul__ = __mul__

        monomial = QPolynomial.monomial(999, Counted(1))
        dense = QPolynomial([Counted(c) for c in range(1, 51)])
        expected = QPolynomial((0,) * 999 + tuple(range(1, 51)))
        for left, right in ((monomial, dense), (dense, monomial)):
            products = 0
            assert left * right == expected
            assert products == 50

    def test_evaluate(self):
        p = QPolynomial([1, 2, 3]).coefficients  # 1 + 2q + 3q^2
        assert poly_value(p, 0) == 1
        assert poly_value(p, 1) == 6
        assert poly_value(p, 10) == 321
        assert poly_value(QPolynomial.zero().coefficients, 7) == 0

    def test_equality_and_hash(self):
        assert QPolynomial([1, 1]) == QPolynomial((1, 1, 0))
        assert hash(QPolynomial([1, 1])) == hash(QPolynomial((1, 1)))
        assert QPolynomial([1]) != QPolynomial([2])

    def test_formatting(self):
        assert str(QPolynomial.zero()) == "0"
        assert str(QPolynomial([5])) == "5"
        assert str(QPolynomial([1, 1, 2, 1, 1])) == "1 + q + 2*q^2 + q^3 + q^4"
        assert str(QPolynomial([0, 3, 0, 1])) == "3*q + q^3"
        assert format_qpolynomial(QPolynomial([1, -2])) == "1 - 2*q"

    def test_monomial(self):
        assert QPolynomial.monomial(3).coefficients == (0, 0, 0, 1)
        assert QPolynomial.monomial(0, 4).coefficients == (4,)
        with pytest.raises(ValueError):
            QPolynomial.monomial(-1)


class TestGaussBinomial:
    def test_edge_cases(self):
        for m in range(8):
            assert gauss_binomial(m, 0) == QPolynomial.one()
            assert gauss_binomial(m, m) == QPolynomial.one()
        assert gauss_binomial(3, 5).is_zero()

    def test_frozen_examples(self):
        assert gauss_binomial(2, 1) == QPolynomial([1, 1])
        # computed independently via the factorial-quotient oracle
        assert qbinomial_by_quotient(4, 2) == [1, 1, 2, 1, 1]
        assert gauss_binomial(4, 2) == QPolynomial([1, 1, 2, 1, 1])

    def test_matches_quotient_definition(self):
        for m in range(11):
            for k in range(m + 1):
                assert list(gauss_binomial(m, k).coefficients) == qbinomial_by_quotient(m, k)

    def test_symmetry(self):
        for m in range(13):
            for k in range(m + 1):
                assert gauss_binomial(m, k) == gauss_binomial(m, m - k)

    def test_factorial_consistency(self):
        for m in range(11):
            for k in range(m + 1):
                factors = QPolynomial(q_factorial(m - k)) * QPolynomial(q_factorial(k))
                assert gauss_binomial(m, k) * factors == QPolynomial(q_factorial(m))

    def test_degree_and_positivity(self):
        for m in range(13):
            for k in range(m + 1):
                poly = gauss_binomial(m, k)
                assert poly.degree == k * (m - k)
                assert all(c >= 0 for c in poly.coefficients)

    def test_nothing_outlives_a_call(self):
        tracemalloc.start()
        try:
            gauss_binomial(60, 30)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20

    def test_row_over_the_cap_is_refused_before_it_exists(self):
        # (2000, 3) peaked at 173 MB before the cap; its last row holds 999 * 5993 terms.
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as refusal:
                gauss_binomial(2000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert str(refusal.value) == (
            "gauss_binomial(2000, 3) would hold 300189310 bytes in its q-Pascal row, "
            f"above the limit {MAX_PREDICTED_BYTES}"
        )

    def test_cap_sits_between_the_largest_rows_in_use_and_the_first_refused(self):
        # (1000, 2) holds 999 * 999 coefficients, (120, 60) holds 61 * 1801.
        assert gauss_binomial(1000, 2).degree == 1996
        assert gauss_binomial(120, 60).degree == 3600
        # For k = 1 the last row holds m(m+1)/2 coefficients, 10 bytes each with no int:
        # m = 4457 fits, 4458 does not.
        assert gauss_binomial(4457, 1).degree == 4456
        with pytest.raises(CapacityError) as excinfo:
            gauss_binomial(4458, 1)
        assert str(excinfo.value) == (
            "gauss_binomial(4458, 1) would hold 100015230 bytes in its q-Pascal row, "
            "above the limit 100000000"
        )

    @pytest.mark.parametrize("m, k", [(40002, 40000), (333334, 333332), (250, 125)])
    def test_a_grid_over_its_time_is_refused_at_once(self, m, k):
        # The old coefficient cap admitted all three: (250, 125) ran 4.2 s, and (5002, 5000),
        # 12,500,000 cells, 0.53 s, so (40002, 40000) would run about 35 s.  (333334, 333332)'s
        # row is over the byte limit as well, which is asked first.
        began = time.perf_counter()
        with pytest.raises(CapacityError, match=rf"^gauss_binomial\({m}, {k}\) would "):
            gauss_binomial(m, k)
        assert time.perf_counter() - began < 0.1

    def test_the_grids_in_use_still_answer(self):
        assert gauss_binomial(5002, 5000).degree == 10000
        assert gauss_binomial(120, 60).degree == 3600
        # the last admitted grids of the two shapes, about 1.5 s each, are predicted, not run
        for last, first in (((8816, 8814), (8817, 8815)), ((208, 104), (210, 105))):
            ns = latcount.qcalc._grid_ns
            assert ns(*last) <= MAX_PREDICTED_NS < ns(*first)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            gauss_binomial(-1, 0)
        with pytest.raises(ValueError):
            gauss_binomial(3, -2)


class TestSymmetrySweep:
    def test_every_pair_up_to_the_bound_is_symmetric(self):
        assert first_asymmetric_pair(0) is None
        assert first_asymmetric_pair(14) is None

    def test_over_its_budget_it_is_refused_before_the_first_q_binomial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(latcount.qcalc, "gauss_binomial", lambda m, k: calls.append((m, k)))
        with pytest.raises(CapacityError) as excinfo:
            first_asymmetric_pair(53)
        # the grids up to m=52 take 1,835,814,668 ns; the sum first passes the limit at m=53
        assert str(excinfo.value) == (
            "qbinomial-symmetry up to m=53 (n-max + t-order) would take at least 2005549874 ns "
            "in its q-Pascal grids, above the limit 2000000000"
        )
        assert calls == []

    def test_budget_is_over_ten_times_the_largest_benchmark_sweep(self, monkeypatch):
        sys.path.insert(0, PERFBENCH)
        try:
            import workloads
        finally:
            sys.path.remove(PERFBENCH)
        largest = max(n_max for n_max, _, _ in workloads.VERIFY_SHAPES)
        bound = largest + max(workloads.VERIFY_T_ORDERS)
        assert bound == 15
        predictions = {}
        monkeypatch.setattr(
            latcount.qcalc, "check_budget", lambda p, limit, work: predictions.update({limit: p})
        )
        monkeypatch.setattr(latcount.qcalc, "gauss_binomial", lambda m, k: None)
        first_asymmetric_pair(bound)
        assert 10 * predictions[MAX_PREDICTED_BYTES] <= MAX_PREDICTED_BYTES
        assert 10 * predictions[MAX_PREDICTED_NS] <= MAX_PREDICTED_NS

    def test_an_injected_fault_returns_the_first_failing_pair(self, monkeypatch):
        real_binomial = latcount.qcalc.gauss_binomial

        def skewed_binomial(m, k):
            # [6 choose 4] and [7 choose 1] come out as [m choose 0] = 1
            return real_binomial(m, 0 if (m, k) in {(6, 4), (7, 1)} else k)

        monkeypatch.setattr(latcount.qcalc, "gauss_binomial", skewed_binomial)
        assert first_asymmetric_pair(5) is None
        # (6, 4) is compared as its mirror (6, 2), which comes before (7, 1)
        assert first_asymmetric_pair(9) == (6, 2)


class TestGaussBinomialAt:
    def test_frozen_examples(self):
        assert gauss_binomial_at(4, 2, 1) == 6
        assert gauss_binomial_at(3, 1, 2) == 1 + 2 + 4 == 7
        assert gauss_binomial_at(4, 2, 2) == 35

    def test_q1_specialization_is_binomial(self):
        for m in range(13):
            for k in range(m + 1):
                assert gauss_binomial_at(m, k, 1) == math.comb(m, k)

    def test_evaluation_homomorphism(self):
        for q0 in (2, 3, 5):
            for m in range(11):
                for k in range(m + 1):
                    value = gauss_binomial_at(m, k, q0)
                    assert poly_value(gauss_binomial(m, k).coefficients, q0) == value

    def test_vanishing_above_m(self):
        assert gauss_binomial_at(2, 5, 3) == 0

    def test_takes_the_shorter_product(self):
        # One step for k = m - 1, where the product over k would take 99,999 big-integer steps.
        m = 100_000
        assert gauss_binomial_at(m, m - 1, 2) == 2**m - 1
        assert gauss_binomial_at(m, m - 2, 3) == gauss_binomial_at(m, 2, 3)
        assert gauss_binomial_at(m, 2, 3) == (3**m - 1) * (3 ** (m - 1) - 1) // 16

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gauss_binomial_at(3, 1, 0)
        with pytest.raises(ValueError):
            gauss_binomial_at(-1, 0, 2)


# Signed coefficients with interior zeros; trailing zeros are stripped on
# construction, and an all-zero list is the zero polynomial.
_coefficients = st.one_of(st.just(0), st.integers(min_value=-(10**6), max_value=10**6))
_coefficient_lists = st.lists(_coefficients, max_size=12)


def _assert_is_polynomial(poly, value, points):
    """poly is canonical and equals `value` at enough distinct integers.

    `points` exceeds the degree of the exact result, and `poly` is checked at
    more points than its own degree too, so agreement makes the two the same
    polynomial, whatever route computed `poly`.
    """
    coeffs = poly.coefficients
    assert not coeffs or coeffs[-1] != 0
    points = max(points, len(coeffs))
    for x in range(-(points // 2), points - points // 2):
        assert poly_value(coeffs, x) == value(x)


@given(_coefficient_lists, _coefficient_lists)
def test_product_and_sum_are_exact_property(left, right):
    a, b = QPolynomial(left), QPolynomial(right)
    points = len(left) + len(right)
    for poly in (a * b, b * a):
        _assert_is_polynomial(poly, lambda x: poly_value(left, x) * poly_value(right, x), points)
    for poly in (a + b, b + a):
        _assert_is_polynomial(poly, lambda x: poly_value(left, x) + poly_value(right, x), points)


def _canonical(coefficients):
    coefficients = list(coefficients)
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    return tuple(coefficients)


@given(
    st.sampled_from([1, -1, 7, -(10**6)]),
    st.integers(min_value=0, max_value=60),
    st.lists(_coefficients, max_size=40),
)
def test_monomial_product_is_the_shifted_and_scaled_operand_property(c, j, other):
    # The zero polynomial and lists with interior and trailing zeros are all
    # drawn; expected is canonical, so equal tuples make the product canonical.
    monomial = QPolynomial.monomial(j, c)
    expected = _canonical(poly_mul([0] * j + [c], other))
    for product in (monomial * QPolynomial(other), QPolynomial(other) * monomial):
        assert type(product.coefficients) is tuple
        assert product.coefficients == expected


@given(_coefficient_lists, st.integers(min_value=-50, max_value=50))
def test_scalar_product_is_exact_property(left, scalar):
    a = QPolynomial(left)
    for poly in (a * scalar, scalar * a):
        _assert_is_polynomial(poly, lambda x: poly_value(left, x) * scalar, len(left))


@given(
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=1, max_value=7),
)
def test_symmetry_and_evaluation_property(m, k, q0):
    if k > m:
        assert gauss_binomial(m, k).is_zero()
        assert gauss_binomial_at(m, k, q0) == 0
    else:
        assert gauss_binomial(m, k) == gauss_binomial(m, m - k)
        assert poly_value(gauss_binomial(m, k).coefficients, q0) == gauss_binomial_at(m, k, q0)
