"""Formal series: the q-binomial generating identity and zeta-factor streams.

Two series live here.  TSeries is a power series in t truncated at a fixed
order whose coefficients are exact integer polynomials in q; it carries both
sides of the identity

    prod_{k=0..n-1} 1 / (1 - q^k t)  =  sum_{k>=0} [n+k-1 choose k]_q t^k.

DirichletCoefficients is the coefficient stream a(1..M) of a Dirichlet
series.  The zeta factor shifted by i is just the stream m -> m^i, so the
coefficients of zeta(s) zeta(s-1) ... zeta(s-n+1) fall out of n-1 exact
Dirichlet convolutions; no zeta value is ever evaluated analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

from .arith import is_prime
from .core import CountResult, Method, check_args
from .qcalc import QPolynomial, gauss_binomial, gauss_binomial_at


class TSeries:
    """A power series in t, truncated at order K, with QPolynomial coefficients.

    Index k of ``coefficients`` holds the coefficient of t^k; the list always
    has length K+1.  Addition and multiplication truncate back to order K, and
    equality is exact, coefficient by coefficient.  Instances are immutable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Sequence[QPolynomial]):
        if len(coefficients) < 1:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        self._coeffs = tuple(coefficients)

    @property
    def truncation_order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[QPolynomial, ...]:
        return self._coeffs

    def __getitem__(self, k: int) -> QPolynomial:
        return self._coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def _require_same_order(self, other: "TSeries") -> None:
        if self.truncation_order != other.truncation_order:
            raise ValueError(
                f"truncation orders differ: {self.truncation_order} "
                f"versus {other.truncation_order}"
            )

    def __add__(self, other: "TSeries") -> "TSeries":
        if not isinstance(other, TSeries):
            return NotImplemented
        self._require_same_order(other)
        return TSeries([a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __mul__(self, other: "TSeries") -> "TSeries":
        if not isinstance(other, TSeries):
            return NotImplemented
        self._require_same_order(other)
        K = self.truncation_order
        coeffs = [QPolynomial.zero() for _ in range(K + 1)]
        for i, a in enumerate(self._coeffs):
            if a.is_zero():
                continue
            for j in range(K + 1 - i):
                b = other._coeffs[j]
                if not b.is_zero():
                    coeffs[i + j] = coeffs[i + j] + a * b
        return TSeries(coeffs)

    def render_lines(self) -> list[str]:
        """One line per t-power: "t^k: <polynomial>"."""
        return [f"t^{k}: {poly}" for k, poly in enumerate(self._coeffs)]

    def __repr__(self) -> str:
        return f"TSeries({list(self._coeffs)!r})"


def geometric_factor(k: int, truncation_order: int) -> TSeries:
    """The series 1 / (1 - q^k t) truncated: sum_{j=0..K} q^(k j) t^j."""
    if k < 0:
        raise ValueError(f"exponent k must be >= 0, got {k}")
    if truncation_order < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation_order}")
    return TSeries([QPolynomial.monomial(k * j) for j in range(truncation_order + 1)])


def lhs_product(n: int, truncation_order: int) -> TSeries:
    """The product of geometric factors for k = 0 .. n-1, truncated."""
    check_args(n)
    return reduce(
        TSeries.__mul__,
        (geometric_factor(k, truncation_order) for k in range(n)),
    )


def rhs_sum(n: int, truncation_order: int) -> TSeries:
    """The q-binomial series: sum_{k=0..K} [n+k-1 choose k]_q t^k."""
    check_args(n)
    if truncation_order < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation_order}")
    return TSeries([gauss_binomial(n + k - 1, k) for k in range(truncation_order + 1)])


def verify_generating_identity(n: int, truncation_order: int) -> bool:
    """Check the two sides coefficient by coefficient."""
    return lhs_product(n, truncation_order) == rhs_sum(n, truncation_order)


def euler_factor(p: int, n: int, truncation_order: int) -> list[int]:
    """The local factor at prime p: coefficient of p^(-s k) for k = 0 .. K.

    Entry k is the q-binomial [n+k-1 choose k] evaluated at p, i.e. the
    sublattice count at the prime power p^k.  Composite p would silently
    break the Euler-product interpretation, so it is rejected.
    """
    check_args(n)
    if truncation_order < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation_order}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return [gauss_binomial_at(n + k - 1, k, p) for k in range(truncation_order + 1)]


@dataclass(frozen=True)
class DirichletCoefficients:
    """Coefficients a(1..M) of a Dirichlet series, 1-indexed.

    ``values`` is padded with a dead 0 slot at index 0 so that values[m]
    is the coefficient of m^(-s).
    """

    limit: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.limit + 1:
            raise ValueError(
                f"need {self.limit + 1} slots (index 0 unused), got {len(self.values)}"
            )

    def __getitem__(self, m: int) -> int:
        if not 1 <= m <= self.limit:
            raise IndexError(f"index {m} outside 1..{self.limit}")
        return self.values[m]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Yield (m, a(m)) pairs for m = 1 .. limit."""
        for m in range(1, self.limit + 1):
            yield m, self.values[m]


def dirichlet_coefficients(n: int, limit: int) -> DirichletCoefficients:
    """First `limit` coefficients of zeta(s) zeta(s-1) ... zeta(s-n+1).

    Starts from the all-ones stream of zeta(s) and convolves in the stream
    m -> m^i for each shift i = 1 .. n-1.  Entry m is the sublattice count
    f_n(m).  The double loop over multiples is O(M log M) per shift.
    """
    check_args(n, limit)
    values = [1] * (limit + 1)
    values[0] = 0
    for i in range(1, n):
        powers = [q**i for q in range(limit + 1)]
        convolved = [0] * (limit + 1)
        for d in range(1, limit + 1):
            a = values[d]
            if a:
                for q in range(1, limit // d + 1):
                    convolved[d * q] += a * powers[q]
        values = convolved
    return DirichletCoefficients(limit, tuple(values))


def count_by_dirichlet(n: int, m: int) -> CountResult:
    """Read the sublattice count off the Dirichlet coefficient stream."""
    coefficients = dirichlet_coefficients(n, m)
    return CountResult(coefficients[m], Method.DIRICHLET, work_stats={"limit": m})
