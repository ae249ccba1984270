"""Gaussian-binomial calculus over exact integer polynomials in q.

The q-binomial coefficient is built from the two-index q-Pascal recurrence

    G[i][j] = G[i-1][j] + q^i * G[i][j-1],    G[0][j] = G[i][0] = 1,

for G[i][j] = [i+j choose i]_q (Andrews, The Theory of Partitions, ch. 3).
[m choose k] = G[k][m-k] is reached by rolling one row of m-k+1 lists of
ints over i = 1 .. k, each step adding q^i * row[j-1] into row[j] in place,
and only the last entry becomes a QPolynomial; nothing outlives the call.
Entry j has degree i*j after pass i, so the last row holds
(m-k+1)*(k*(m-k)/2 + 1) coefficients; that is predicted before the row is
made and capped at MAX_QPASCAL_COEFFICIENTS.  A product a*b by a monomial
c*q^j is the other factor shifted and scaled, len(other) coefficient
products; any other product makes nnz(a)*nnz(b), nnz counting the nonzero
coefficients.  The recurrence is division-free and
stays inside integer polynomial arithmetic; the textbook quotient of
q-factorials lives only in tests/oracles.py, as a test oracle.  Evaluated
q-binomials (`gauss_binomial_at`) take an independent route through exact
integer division, over the shorter of the two products for [m choose k] and
[m choose m-k], so the two can cross-check each other.
"""

from __future__ import annotations

import operator
from itertools import repeat
from math import comb
from typing import Iterable

from .core import ExactnessError, check_at_least, check_budget

# The most coefficients the last q-Pascal row may hold, about 9x the largest
# a test or benchmark makes ((120, 60): 109,861).  Under tracemalloc (1000, 2),
# 998,001 coefficients, peaks at 12 MB; (2000, 3) would hold 5,987,007.
MAX_QPASCAL_COEFFICIENTS = 10**6


class QPolynomial:
    """A univariate polynomial in q with arbitrary-precision integer coefficients.

    Coefficients are stored densely: index i holds the coefficient of q^i.
    The representation is canonical (no trailing zeros; the zero polynomial
    stores nothing), so equality and hashing are structural.  Instances are
    immutable and safe to share between threads.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coefficient: int = 1) -> "QPolynomial":
        """coefficient * q**power"""
        check_at_least(power, 0, "power")
        return cls((0,) * power + (coefficient,))

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPolynomial((*map(operator.add, a, b), *a[len(b):]))

    @classmethod
    def _trusted(cls, coeffs: tuple[int, ...]) -> "QPolynomial":
        """Build without __init__'s copy and strip, from a tuple already canonical."""
        poly = object.__new__(cls)
        poly._coeffs = coeffs
        return poly

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial(tuple(c * other for c in self._coeffs))
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return QPolynomial()
        # A monomial c*q^j, found by counting its zeros in C, times the other
        # operand is that operand shifted by j and scaled by c: len(other)
        # coefficient products, even when c is 1.  Both operands are canonical
        # and c != 0, so the result has no trailing zero.
        if b.count(0) == len(b) - 1:
            a, b = b, a
        if a.count(0) == len(a) - 1:
            scaled = map(operator.mul, b, repeat(a[-1]))
            return QPolynomial._trusted((0,) * (len(a) - 1) + tuple(scaled))
        # The full Cauchy convolution over the nonzero terms only: a product
        # costs nnz(a) * nnz(b) coefficient products in either order.
        a = [(i, c) for i, c in enumerate(self._coeffs) if c]
        b = [(j, c) for j, c in enumerate(other._coeffs) if c]
        coeffs = [0] * (self.degree + other.degree + 1)
        for i, ca in a:
            for j, cb in b:
                coeffs[i + j] += ca * cb
        return QPolynomial(coeffs)

    __rmul__ = __mul__

    def evaluate(self, q0: int) -> int:
        """Exact value at q = q0, by Horner's rule."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * q0 + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        return format_qpolynomial(self)


def format_qpolynomial(poly: QPolynomial) -> str:
    """Render as "c0 + c1*q + c2*q^2 + ..." with zero terms omitted."""
    if poly.is_zero():
        return "0"
    terms = []
    for i, c in enumerate(poly.coefficients):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("q" if c == 1 else f"{c}*q")
        else:
            terms.append(f"q^{i}" if c == 1 else f"{c}*q^{i}")
    return " + ".join(terms).replace("+ -", "- ")


def _last_row_size(m: int, k: int) -> int:
    """The coefficients in gauss_binomial(m, k)'s last q-Pascal row, for 0 <= k <= m."""
    # Entry j of the last row has degree k*j; the m-k+1 entries average k*(m-k)/2 + 1.
    return (m - k + 1) * (k * (m - k) + 2) // 2


def gauss_binomial(m: int, k: int) -> QPolynomial:
    """The Gaussian binomial coefficient [m choose k]_q as a polynomial.

    Has degree k*(m-k) and nonnegative coefficients; k > m yields the zero
    polynomial (the vanishing convention), so series code can sum freely.
    A last row of more than MAX_QPASCAL_COEFFICIENTS coefficients raises
    CapacityError before the row is made.
    """
    check_at_least(m, 0, "m")
    check_at_least(k, 0, "k")
    if k > m:
        return QPolynomial.zero()
    if k == m:
        # A row of one entry, which each of the k passes would leave at 1.
        return QPolynomial.one()
    work = f"gauss_binomial({m}, {k}) would hold {{}} coefficients in its last q-Pascal row"
    check_budget(_last_row_size(m, k), MAX_QPASCAL_COEFFICIENTS, work)
    # After pass i, row[j] = [i+j choose i]_q, held as a list of ints.  The grid
    # is always k passes of m-k steps, never the mirror [m choose m-k], so that
    # the symmetry checks compare two different computations.  Each step grows
    # high to its new degree i*j, then adds q^i * low into it in place.
    row = [[1] for _ in range(m - k + 1)]
    for i in range(1, k + 1):
        for j in range(1, m - k + 1):
            high, low = row[j], row[j - 1]
            high.extend(repeat(0, i + len(low) - len(high)))
            high[i:] = map(operator.add, high[i:], low)
    # The leading coefficient of a q-binomial is 1, so the last entry is canonical.
    return QPolynomial._trusted(tuple(row[-1]))


def gauss_binomial_at(m: int, k: int, q0: int) -> int:
    """The Gaussian binomial [m choose k] evaluated at q = q0, exactly.

    Computed directly in the integers: the running product

        prod_{j=1..k} (q0^(m-k+j) - 1) / (q0^j - 1)

    is an integer after every step, and each division is checked: an
    inexact one raises ExactnessError.  [m choose k] = [m choose m-k], so the
    product runs over the smaller of k and m-k, and [n+k-1 choose k] at a
    fixed n takes n-1 steps however large k is.  At q0 = 1 this is the
    ordinary binomial coefficient C(m, k).
    """
    check_at_least(m, 0, "m")
    check_at_least(k, 0, "k")
    check_at_least(q0, 1, "evaluation point")
    if k > m:
        return 0
    if q0 == 1:
        return comb(m, k)
    k = min(k, m - k)
    value = 1
    for j in range(1, k + 1):
        value, remainder = divmod(value * (q0 ** (m - k + j) - 1), q0**j - 1)
        if remainder:
            raise ExactnessError(f"inexact division in gauss_binomial_at({m}, {k}, {q0})")
    return value
