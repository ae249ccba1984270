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
from itertools import repeat
from operator import add
from typing import Sequence

from .arith import is_prime
from .core import CountResult, Method, UsageError, check_args, check_at_least, check_budget
from .qcalc import (
    MAX_QPASCAL_COEFFICIENTS,
    QPolynomial,
    _last_row_size,
    gauss_binomial,
    gauss_binomial_at,
)


class TSeries:
    """A power series in t, truncated at order K, with QPolynomial coefficients.

    Index k of ``coefficients`` holds the coefficient of t^k; the list always
    has length K+1.  Multiplication truncates back to order K: each pair of
    nonzero coefficients a_i, b_j with i+j <= K makes one QPolynomial product,
    which is added in place into a list of ints for t^(i+j), and each t-power
    becomes a QPolynomial once, at the end.  Equality is exact, coefficient
    by coefficient.  Instances are immutable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Sequence[QPolynomial]):
        if len(coefficients) < 1:
            raise UsageError("a truncated series needs at least the t^0 coefficient")
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
            raise UsageError(f"truncation orders differ: {K} versus {other.truncation_order}")
        # Each t-power sums its products in one list of ints, in place; the
        # sums can cancel, so the stripping constructor builds the polynomials.
        rows = [[] for _ in range(K + 1)]
        for i, a in enumerate(self._coeffs):
            if a.is_zero():
                continue
            for j in range(K + 1 - i):
                b = other._coeffs[j]
                if not b.is_zero():
                    product = (a * b).coefficients
                    row = rows[i + j]
                    row.extend(repeat(0, len(product) - len(row)))
                    row[: len(product)] = map(add, row, product)
        return TSeries([QPolynomial(row) for row in rows])

    def render_lines(self) -> list[str]:
        """One line per t-power: "t^k: <polynomial>"."""
        return [f"t^{k}: {poly}" for k, poly in enumerate(self._coeffs)]

    def __repr__(self) -> str:
        return f"TSeries({list(self._coeffs)!r})"


def geometric_factor(k: int, truncation_order: int) -> TSeries:
    """The series 1 / (1 - q^k t) truncated: sum_{j=0..K} q^(k j) t^j.

    Its monomials hold k K(K+1)/2 + K + 1 coefficients, as many as
    gauss_binomial(k + K, k)'s last q-Pascal row; above
    MAX_QPASCAL_COEFFICIENTS that raises CapacityError before the first
    monomial is made.
    """
    check_at_least(k, 0, "exponent k")
    check_at_least(truncation_order, 0, "truncation order")
    work = (
        f"geometric_factor({k}, {truncation_order}) would hold {{}} coefficients in its monomials"
    )
    check_budget(_last_row_size(k + truncation_order, k), MAX_QPASCAL_COEFFICIENTS, work)
    return TSeries([QPolynomial.monomial(k * j) for j in range(truncation_order + 1)])


# The most coefficient cells lhs_product's products may touch, about 76x the
# largest the qseries benchmark makes ((15, 19): 263,620).  On a 2-vCPU VM,
# (2, 400) touches 10,827,401 cells in 0.8-1.2 s, and (2, 491), the largest
# order admitted at n = 2, touches 19,970,444 in about 2 s.
MAX_LHS_CELLS = 2 * 10**7


def _lhs_cells(n: int, truncation_order: int) -> int:
    """The coefficient cells of the products lhs_product(n, K) makes."""
    # Factor k (1 <= k < n) times the running product multiplies its t^i
    # coefficient, of degree i*(k-1), by q^(k*j) into k*j + i*(k-1) + 1 cells,
    # for every i + j <= K.  Over those pairs, j and i each sum to
    # K(K+1)(K+2)/6 and 1 sums to (K+1)(K+2)/2.
    K = truncation_order
    pairs = (K + 1) * (K + 2) // 2
    return (n - 1) ** 2 * (K * pairs // 3) + (n - 1) * pairs


def _check_lhs_budget(n: int, K: int) -> None:
    """Refuse lhs_product(n, K) above MAX_LHS_CELLS, before any factor is made."""
    work = f"lhs_product({n}, {K}) would touch {{}} coefficient cells in its products"
    check_budget(_lhs_cells(n, K), MAX_LHS_CELLS, work)


def lhs_product(n: int, truncation_order: int) -> TSeries:
    """The product of geometric factors for k = 0 .. n-1, truncated.

    Its products touch (n-1)^2 K(K+1)(K+2)/6 + (n-1)(K+1)(K+2)/2 coefficient
    cells; above MAX_LHS_CELLS that raises CapacityError before the first
    product.  Each factor checks its own size as `geometric_factor` makes it,
    which binds at n = 1, where there are no products.
    """
    check_args(n)
    check_at_least(truncation_order, 0, "truncation order")
    _check_lhs_budget(n, truncation_order)
    return reduce(
        TSeries.__mul__,
        (geometric_factor(k, truncation_order) for k in range(n)),
    )


def rhs_sum(n: int, truncation_order: int) -> TSeries:
    """The q-binomial series: sum_{k=0..K} [n+k-1 choose k]_q t^k.

    Its t^k coefficient has degree k*(n-1), so the series holds
    (K+1)*((n-1)*K + 2)/2 coefficients, the size of gauss_binomial(n-1+K, n-1)'s
    last q-Pascal row.  Above MAX_QPASCAL_COEFFICIENTS that raises
    CapacityError before the first coefficient is made.
    """
    check_args(n)
    check_at_least(truncation_order, 0, "truncation order")
    work = f"rhs_sum({n}, {truncation_order}) would hold {{}} coefficients in its q-binomials"
    check_budget(_last_row_size(n - 1 + truncation_order, n - 1), MAX_QPASCAL_COEFFICIENTS, work)
    return TSeries([gauss_binomial(n + k - 1, k) for k in range(truncation_order + 1)])


def verify_generating_identity(n: int, truncation_order: int) -> bool:
    """Check the two sides coefficient by coefficient."""
    return lhs_product(n, truncation_order) == rhs_sum(n, truncation_order)


# The most squared bits an Euler factor may cost, and what each line adds to
# its coefficients' cost.  Printing is most of the time: int -> str is
# quadratic in the digits, and a line of a small coefficient takes about as
# long as 800 bits.  On a 2-vCPU VM the last orders admitted at (p, n) =
# (2, 2), (1000003, 2) and (2, 1) take about 2 s to print, as long as
# `series --n 2 --t-order 491`.
MAX_EULER_SQUARED_BITS = 4 * 10**11
EULER_LINE_BITS = 800


def _euler_squared_bits(p: int, n: int, truncation_order: int) -> int:
    """The cost of euler_factor(p, n, K): its coefficients' squared bits, plus each line's."""
    # [n+k-1 choose k]_p < 4 p^(k(n-1)) <= 2^(a k + 2), a = (n-1) ceil(log2 p),
    # so coefficient k has at most a k + 2 bits.  Summed over k = 0 .. K,
    # (a k + 2)^2 + EULER_LINE_BITS^2 gives this closed form.
    K = truncation_order
    a = (n - 1) * (p - 1).bit_length()
    squares = a * a * K * (K + 1) * (2 * K + 1) // 6 + 2 * a * K * (K + 1) + 4 * (K + 1)
    return squares + (K + 1) * EULER_LINE_BITS**2


def euler_factor(p: int, n: int, truncation_order: int) -> list[int]:
    """The local factor at prime p: coefficient of p^(-s k) for k = 0 .. K.

    Entry k is the q-binomial [n+k-1 choose k] evaluated at p, i.e. the
    sublattice count at the prime power p^k.  Composite p would silently
    break the Euler-product interpretation, so it is rejected.  Entry k has
    at most (n-1) k ceil(log2 p) + 2 bits; those bits squared, plus
    EULER_LINE_BITS squared for each entry, above MAX_EULER_SQUARED_BITS
    raise CapacityError before the first entry is computed.
    """
    check_args(n)
    check_at_least(truncation_order, 0, "truncation order")
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    work = f"euler_factor({p}, {n}, {truncation_order}) would cost {{}} squared bits to print"
    check_budget(_euler_squared_bits(p, n, truncation_order), MAX_EULER_SQUARED_BITS, work)
    return [gauss_binomial_at(n + k - 1, k, p) for k in range(truncation_order + 1)]


# The largest Dirichlet limit accepted, just over 10x the largest the count
# benchmark draws.  Memory grows linearly with the limit: under tracemalloc,
# n = 5 peaks at 8.7 MB for a limit of 10^5 and at 95 MB for this one.
MAX_DIRICHLET_LIMIT = 2**20


def dirichlet_coefficients(n: int, limit: int) -> list[int]:
    """First `limit` coefficients of zeta(s) zeta(s-1) ... zeta(s-n+1).

    Starts from the all-ones stream of zeta(s) and convolves in the stream
    m -> m^i for each shift i = 1 .. n-1, in place in one list:

        a_i(x) = sum over d | x of a_{i-1}(d) * (x/d)^i.

    The term d = x, with (x/d)^i = 1, is the entry already there.  Every other
    divisor d <= limit/2 adds a_{i-1}(d) * q^i into entry d*q for q >= 2,
    largest d first, with q^i read from a list of powers up to limit/2; d = 1
    comes last and adds x^i to every x >= 2.  Entry m of the returned list is
    the sublattice count f_n(m); entry 0 is 0.  Each shift is O(M log M).
    A limit above MAX_DIRICHLET_LIMIT raises CapacityError before anything
    is allocated.
    """
    check_args(n, limit)
    work = f"Dirichlet coefficients up to {limit} would need lists of {limit + 1} entries"
    check_budget(limit, MAX_DIRICHLET_LIMIT, work)
    values = [1] * (limit + 1)
    values[0] = 0
    half = limit // 2
    for i in range(1, n):
        powers = [q**i for q in range(half + 1)]
        # Exact in place: writes from d land above d, and d is read before any smaller d' writes.
        for d in range(half, 1, -1):
            a = values[d]
            q = 2
            for x in range(2 * d, limit + 1, d):
                values[x] += a * powers[q]
                q += 1
        for x in range(2, limit + 1):
            values[x] += x**i
    return values


def count_by_dirichlet(n: int, m: int) -> CountResult:
    """Read the sublattice count off the Dirichlet coefficient stream."""
    return CountResult(dirichlet_coefficients(n, m)[m], Method.DIRICHLET, work_stats={"limit": m})
