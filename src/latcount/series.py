"""Formal series: the q-binomial generating identity and zeta-factor streams.

Two series live here.  TSeries is a power series in t truncated at a fixed
order whose coefficients are exact integer polynomials in q; it carries both
sides of the identity

    prod_{k=0..n-1} 1 / (1 - q^k t)  =  sum_{k>=0} [n+k-1 choose k]_q t^k.

The other is the coefficient list a(1..M) of a Dirichlet series.  The zeta
factor shifted by i is just the stream m -> m^i, so the coefficients of
zeta(s) zeta(s-1) ... zeta(s-n+1) fall out of n-1 exact Dirichlet
convolutions; no zeta value is ever evaluated analytically.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

from .arith import is_prime
from .core import CapacityError, CountResult, Method, UsageError, check_args
from .qcalc import QPolynomial, gauss_binomial, gauss_binomial_at


class TSeries:
    """A power series in t, truncated at order K, with QPolynomial coefficients.

    Index k of ``coefficients`` holds the coefficient of t^k; the list always
    has length K+1.  Multiplication truncates back to order K, and
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __mul__(self, other: "TSeries") -> "TSeries":
        if not isinstance(other, TSeries):
            return NotImplemented
        K = self.truncation_order
        if K != other.truncation_order:
            raise ValueError(f"truncation orders differ: {K} versus {other.truncation_order}")
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


def _check_truncation_order(truncation_order: int) -> None:
    """Reject a truncation order below 0 with ValueError."""
    if truncation_order < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation_order}")


def geometric_factor(k: int, truncation_order: int) -> TSeries:
    """The series 1 / (1 - q^k t) truncated: sum_{j=0..K} q^(k j) t^j."""
    if k < 0:
        raise ValueError(f"exponent k must be >= 0, got {k}")
    _check_truncation_order(truncation_order)
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
    _check_truncation_order(truncation_order)
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
    _check_truncation_order(truncation_order)
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    return [gauss_binomial_at(n + k - 1, k, p) for k in range(truncation_order + 1)]


# The largest Dirichlet limit accepted, just over 10x the largest the count
# benchmark draws.  Memory grows linearly with the limit: under tracemalloc,
# n = 5 peaks at 13 MB for a limit of 10^5 and at 140 MB for this one.
MAX_DIRICHLET_LIMIT = 2**20


def dirichlet_coefficients(n: int, limit: int) -> list[int]:
    """First `limit` coefficients of zeta(s) zeta(s-1) ... zeta(s-n+1).

    Starts from the all-ones stream of zeta(s) and convolves in the stream
    m -> m^i for each shift i = 1 .. n-1.  Entry m of the returned list is
    the sublattice count f_n(m); entry 0 is 0.  The double loop over
    multiples is O(M log M) per shift.  A limit above MAX_DIRICHLET_LIMIT
    raises CapacityError before anything is allocated.
    """
    check_args(n, limit)
    if limit > MAX_DIRICHLET_LIMIT:
        raise CapacityError(
            f"Dirichlet coefficients up to {limit} would need lists of {limit + 1} "
            f"entries, above the limit {MAX_DIRICHLET_LIMIT}"
        )
    values = [1] * (limit + 1)
    values[0] = 0
    for i in range(1, n):
        powers = [q**i for q in range(limit + 1)]
        convolved = [0] * (limit + 1)
        for d in range(1, limit + 1):
            a = values[d]
            for q in range(1, limit // d + 1):
                convolved[d * q] += a * powers[q]
        values = convolved
    return values


def count_by_dirichlet(n: int, m: int) -> CountResult:
    """Read the sublattice count off the Dirichlet coefficient stream."""
    return CountResult(dirichlet_coefficients(n, m)[m], Method.DIRICHLET, work_stats={"limit": m})
