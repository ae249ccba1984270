"""Gaussian-binomial calculus over exact integer polynomials in q.

The q-binomial coefficient is built from the two-index q-Pascal recurrence

    G[i][j] = G[i-1][j] + q^i * G[i][j-1],    G[0][j] = G[i][0] = 1,

for G[i][j] = [i+j choose i]_q (Andrews, The Theory of Partitions, ch. 3).
[m choose k] = G[k][m-k] is reached by rolling one row of m-k+1 lists of
ints over i = 1 .. k, each step adding q^i * row[j-1] into row[j] in place,
and only the last entry becomes a QPolynomial; nothing outlives the call.
Entry j has degree i*j after pass i, so the last row holds
(m-k+1)*(k*(m-k)/2 + 1) coefficients.  Before the row is made, its bytes
are refused above MAX_PREDICTED_BYTES, and the time of its grid, whose
cells are weighted by the bits of the coefficients, above
MAX_PREDICTED_NS.  A product a*b by a monomial
c*q^j is the other factor shifted and scaled, len(other) coefficient
products; any other product makes nnz(a)*nnz(b), nnz counting the nonzero
coefficients.  The recurrence is division-free and
stays inside integer polynomial arithmetic; the textbook quotient of
q-factorials lives only in tests/oracles.py, as a test oracle.  Evaluated
q-binomials (`gauss_binomial_at`) take an independent route through exact
integer division, over the shorter of the two products for [m choose k] and
[m choose m-k], so the two can cross-check each other.  The symmetry sweep
(`first_asymmetric_pair`) compares [m choose k] with [m choose m-k] for
every m up to a bound, after its largest pair's bytes and the time of all
of its grids are checked against the same limits.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from itertools import repeat
from math import comb

from .core import MAX_PREDICTED_BYTES, MAX_PREDICTED_NS, ExactnessError, check_at_least
from .core import check_budget, int_bytes


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


def _coefficient_bits(m: int, k: int) -> int:
    """A bound on the bits of the coefficients of [m choose k], and of every q-binomial in its box.

    Each is at most C(m-1, s-1), s = min(k, m-k): fix the other s-1 parts of
    a partition in the s by m-s box and the first is determined.  That is
    below both 2^(m-1) and m^(s-1).
    """
    return min(m - 1, (min(k, m - k) - 1) * m.bit_length()) if 0 < k < m else 0


def _row_bytes(m: int, k: int) -> int:
    """The bytes gauss_binomial(m, k)'s last q-Pascal row holds, for 0 <= k <= m.

    Each coefficient is a list slot, 10 bytes with the room a list keeps to
    grow, and an int of `_coefficient_bits(m, k)` bits; the last step holds
    two more copies of the last entry, k(m-k) + 1 coefficients.  Each of the
    m-k+1 entries costs 120 bytes more, as a list or as a QPolynomial.  At
    k = m no row is made.
    """
    slots = _last_row_size(m, k) + 2 * (k * (m - k) + 1)
    return slots * (10 + int_bytes(_coefficient_bits(m, k))) + 120 * (m - k + 1) if k < m else 0


def _grid_ns(m: int, k: int) -> int:
    """The nanoseconds gauss_binomial(m, k)'s q-Pascal grid takes, for 0 <= k <= m.

    Step (i, j) adds the i(j-1) + 1 coefficients of row[j-1] into row[j], so
    the k passes of m-k steps add k(k+1)/2 (m-k)(m-k-1)/2 + k(m-k) cells,
    each about 50 ns and 1 ns more per 12 bits of `_coefficient_bits`.  Each
    step takes about 1000 ns more, and each call 2000.
    """
    cells = k * (k + 1) // 2 * ((m - k) * (m - k - 1) // 2) + k * (m - k)
    return cells * (50 + _coefficient_bits(m, k) // 12) + 1000 * k * (m - k) + 2000


def gauss_binomial(m: int, k: int) -> QPolynomial:
    """The Gaussian binomial coefficient [m choose k]_q as a polynomial.

    Has degree k*(m-k) and nonnegative coefficients; k > m yields the zero
    polynomial (the vanishing convention), so series code can sum freely.
    The last row's bytes above MAX_PREDICTED_BYTES, or the grid's time above
    MAX_PREDICTED_NS, raise CapacityError before the row is made.
    """
    check_at_least(m, 0, "m")
    check_at_least(k, 0, "k")
    if k > m:
        return QPolynomial.zero()
    if k == m:
        # A row of one entry, which each of the k passes would leave at 1.
        return QPolynomial.one()
    call = f"gauss_binomial({m}, {k}) would"
    check_budget(_row_bytes(m, k), MAX_PREDICTED_BYTES, call + " hold {} bytes in its q-Pascal row")
    check_budget(_grid_ns(m, k), MAX_PREDICTED_NS, call + " take {} ns in its q-Pascal grid")
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


def _symmetry_pairs(bound: int):
    """The (m, k) whose [m choose k] and [m choose m-k] are compared: each unordered pair once."""
    return ((m, k) for m in range(bound + 1) for k in range((m + 1) // 2))


def first_asymmetric_pair(bound: int) -> tuple[int, int] | None:
    """The first (m, k) with m <= bound and [m choose k] != [m choose m-k], or None.

    Each unordered pair is compared once, k < m-k, in order of m and then k;
    (m, k) fails exactly when (m, m-k) does, so this is the first failing k
    of its row.  bound is `verify`'s n-max + t-order.  Before the first
    q-binomial is made, the largest pair's bytes above MAX_PREDICTED_BYTES,
    or the time of every pair's grids above MAX_PREDICTED_NS, raise
    CapacityError.  The pairs are summed in order of m until either passes
    its limit, so a refused sweep's predictions are lower bounds.
    """
    largest = ns = 0
    for m, k in _symmetry_pairs(bound):
        # [m choose k]'s k(m-k) + 1 coefficients are held while [m choose m-k] is made.
        held = (k * (m - k) + 1) * (10 + int_bytes(_coefficient_bits(m, k)))
        largest = max(largest, _row_bytes(m, k), held + _row_bytes(m, m - k))
        ns += _grid_ns(m, k) + _grid_ns(m, m - k)
        if largest > MAX_PREDICTED_BYTES or ns > MAX_PREDICTED_NS:
            break
    sweep = f"qbinomial-symmetry up to m={bound} (n-max + t-order) would"
    check_budget(largest, MAX_PREDICTED_BYTES, f"{sweep} hold {{}} bytes in its largest pair")
    check_budget(ns, MAX_PREDICTED_NS, f"{sweep} take at least {{}} ns in its q-Pascal grids")
    pairs = _symmetry_pairs(bound)
    failing = ((m, k) for m, k in pairs if gauss_binomial(m, k) != gauss_binomial(m, m - k))
    return next(failing, None)


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
