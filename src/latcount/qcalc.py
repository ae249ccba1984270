"""Gaussian-binomial calculus over exact integer polynomials in q.

The q-binomial coefficient is built with the division-free q-Pascal
recurrence

    B(m, k) = B(m-1, k-1) + q^k * B(m-1, k),    B(m, 0) = B(m, m) = 1,

which stays inside integer polynomial arithmetic; the textbook quotient of
q-factorials lives only in tests/oracles.py, as a test oracle.  Evaluated
q-binomials (`gauss_binomial_at`) take an independent route through exact
integer division so the two can cross-check each other.
"""

from __future__ import annotations

import functools
from math import comb
from typing import Iterable

from .core import ExactnessError


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
        if power < 0:
            raise ValueError(f"power must be >= 0, got {power}")
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

    def __getitem__(self, i: int) -> int:
        """Coefficient of q^i (0 beyond the degree)."""
        if i < 0:
            raise IndexError("negative powers do not occur")
        if i >= len(self._coeffs):
            return 0
        return self._coeffs[i]

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        coeffs = list(a)
        for i, c in enumerate(b):
            coeffs[i] += c
        return QPolynomial(coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial(tuple(c * other for c in self._coeffs))
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPolynomial()
        a, b = self._coeffs, other._coeffs
        coeffs = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    coeffs[i + j] += ca * cb
        return QPolynomial(coeffs)

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPolynomial":
        """Multiply by q**k."""
        if k < 0:
            raise ValueError(f"shift must be >= 0, got {k}")
        if self.is_zero():
            return self
        return QPolynomial((0,) * k + self._coeffs)

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


@functools.lru_cache(maxsize=None)
def _gauss_binomial(m: int, k: int) -> QPolynomial:
    if k == 0 or k == m:
        return QPolynomial.one()
    if k > m:
        return QPolynomial.zero()
    # q-Pascal: B(m, k) = B(m-1, k-1) + q^k * B(m-1, k)
    return _gauss_binomial(m - 1, k - 1) + _gauss_binomial(m - 1, k).shift(k)


def gauss_binomial(m: int, k: int) -> QPolynomial:
    """The Gaussian binomial coefficient [m choose k]_q as a polynomial.

    Has degree k*(m-k) and nonnegative coefficients; k > m yields the zero
    polynomial (the vanishing convention), so series code can sum freely.
    """
    if m < 0 or k < 0:
        raise ValueError(f"gauss_binomial needs m, k >= 0, got m={m}, k={k}")
    if k > m:
        return QPolynomial.zero()
    # Fill the memo table bottom-up so recursion depth stays O(1) even for
    # large m (the recurrence would otherwise nest m levels deep).
    for mm in range(2, m + 1):
        for kk in range(1, min(mm - 1, k) + 1):
            _gauss_binomial(mm, kk)
    return _gauss_binomial(m, k)


def gauss_binomial_at(m: int, k: int, q0: int) -> int:
    """The Gaussian binomial [m choose k] evaluated at q = q0, exactly.

    Computed directly in the integers: the running product

        prod_{j=1..k} (q0^(m-k+j) - 1) / (q0^j - 1)

    is an integer after every step, and each division is checked: an
    inexact one raises ExactnessError.  At q0 = 1 this is the ordinary
    binomial coefficient C(m, k).
    """
    if m < 0 or k < 0:
        raise ValueError(f"gauss_binomial_at needs m, k >= 0, got m={m}, k={k}")
    if q0 < 1:
        raise ValueError(f"evaluation point must be >= 1, got {q0}")
    if k > m:
        return 0
    if q0 == 1:
        return comb(m, k)
    value = 1
    for j in range(1, k + 1):
        value, remainder = divmod(value * (q0 ** (m - k + j) - 1), q0**j - 1)
        if remainder:
            raise ExactnessError(f"inexact division in gauss_binomial_at({m}, {k}, {q0})")
    return value
