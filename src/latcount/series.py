"""Formal series: the q-binomial generating identity and zeta-factor streams.

Two series live here.  TSeries is a power series in t truncated at a fixed
order whose coefficients are exact integer polynomials in q; it carries both
sides of the identity

    prod_{k=0..n-1} 1 / (1 - q^k t)  =  sum_{k>=0} [n+k-1 choose k]_q t^k.

`identity_sides` builds the two, ordered so that each refuses over its
budget before any work it would waste.

The other is the coefficient list a(1..M) of a Dirichlet series.  The zeta
factor shifted by i is just the stream m -> m^i, so the coefficients of
zeta(s) zeta(s-1) ... zeta(s-n+1) fall out of n-1 exact Dirichlet
convolutions; no zeta value is ever evaluated analytically.  One in-place
pass makes the coefficients for n = 1, 2, ... in turn, and
`dirichlet_coefficients` is its last.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from math import isqrt
from operator import add, mul
from typing import Iterator, Sequence

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

# The fixed cost of each of lhs_product's n - 1 products, in cells, whatever
# its size.  On the same VM a product at t-order 0, with its factor, takes
# about 4.9 us, and a cell of the (2, 491) product 50-60 ns.  Without it
# (3 * 10**5, 0) touched 3 * 10**5 cells and ran 2.4 s, and n up to
# 2 * 10**7 was admitted at t-order 0; now (219781, 0) is the last, 1.1 s.
LHS_PRODUCT_CELLS = 90


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
    """Check lhs_product(n, K)'s arguments, and refuse it above MAX_LHS_CELLS.

    Its products cost their coefficient cells and LHS_PRODUCT_CELLS each.
    """
    check_args(n)
    check_at_least(K, 0, "truncation order")
    work = f"lhs_product({n}, {K}) would cost {{}} cells in its products"
    check_budget(_lhs_cells(n, K) + (n - 1) * LHS_PRODUCT_CELLS, MAX_LHS_CELLS, work)


def lhs_product(n: int, truncation_order: int) -> TSeries:
    """The product of geometric factors for k = 0 .. n-1, truncated.

    Its products touch (n-1)^2 K(K+1)(K+2)/6 + (n-1)(K+1)(K+2)/2 coefficient
    cells, and each is charged LHS_PRODUCT_CELLS more; above MAX_LHS_CELLS
    that raises CapacityError before the first product.  Each factor checks its own size as `geometric_factor` makes it,
    which binds at n = 1, where there are no products.
    """
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


def identity_sides(n: int, truncation_order: int) -> tuple[TSeries, TSeries]:
    """Both sides of the identity, (lhs_product(n, K), rhs_sum(n, K)), each budget first.

    The left-hand budget is checked first, so that its refusal builds
    neither side.  Then the right-hand side is built, each q-binomial
    refused before it is made, so that a q-Pascal row over its cap is
    refused before the product is multiplied out.  The product comes last.
    """
    _check_lhs_budget(n, truncation_order)
    rhs = rhs_sum(n, truncation_order)
    return lhs_product(n, truncation_order), rhs


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

# The most cells the convolutions may cost: time, where the limit above is
# memory.  Each of the n - 1 shifts touches limit cells, and a cell's
# operands grow with n: on a 2-vCPU VM a cell took 1.4-2.6 us up to n = 30,
# 3 us at n = 100, and at n = 1000 14 us at limit 74 and 65 us at limit 1049,
# so (1000, 1049) ran for 68 s.  So a cell of b bits costs 1 + b // 512, b
# being the bits of limit^(n-1).  The last limit admitted at 16 values of n
# from 2 to 3000 took 1.1-3.2 s, (30, 36157) the longest.
MAX_DIRICHLET_CELLS = 2**20


def _dirichlet_cells(n: int, limit: int) -> int:
    """dirichlet_coefficients(n, limit)'s cost: limit cells a shift, each 1 + b // 512."""
    cells = (n - 1) * limit
    return cells * (1 + (n - 1) * limit.bit_length() // 512)


# Each slice update covers at most this many entries, so that its
# temporaries stay a few kB whatever the limit.
_RUN = 1024


def _add_scaled(
    values: list[int], c: int, source: list[int], start: int, stop: int, scale: int
) -> None:
    """values[c*k] += source[k] * scale for start <= k < stop, in slice updates of _RUN entries."""
    scale = repeat(scale)
    for a in range(start, stop, _RUN):
        b = min(a + _RUN, stop)
        targets = slice(c * a, c * b, c)
        values[targets] = map(add, values[targets], map(mul, source[a:b], scale))


def _dirichlet_levels(n: int, limit: int) -> Iterator[list[int]]:
    """The coefficients of zeta(s) zeta(s-1) ... zeta(s-k+1) for k = 1 .. n, in one list.

    Yields the same list n times, entry m being f_k(m) at the k-th, and
    entry 0 being 0; each item is valid until the next is made, which
    convolves it in place.  Both budgets are checked for n, before
    anything is allocated.  See dirichlet_coefficients.
    """
    check_args(n, limit)
    work = f"Dirichlet coefficients up to {limit} would need lists of {limit + 1} entries"
    check_budget(limit, MAX_DIRICHLET_LIMIT, work)
    work = f"dirichlet_coefficients({n}, {limit}) would cost {{}} cells in its convolutions"
    check_budget(_dirichlet_cells(n, limit), MAX_DIRICHLET_CELLS, work)
    values = [1] * (limit + 1)
    values[0] = 0
    yield values
    root = isqrt(limit)
    for i in range(1, n):
        powers = [q**i for q in range(limit // 2 + 1)]
        # d > root: a block's writes, at 2(lo + 1) or above, land past hi
        hi = limit // 2
        while hi > root:
            lo = max(hi // 2, root)
            for q in range(2, limit // (lo + 1) + 1):
                _add_scaled(values, q, values, lo + 1, min(hi, limit // q) + 1, powers[q])
            hi = lo
        # d <= root: each d's writes land above d
        for d in range(root, 1, -1):
            _add_scaled(values, d, powers, 2, limit // d + 1, values[d])
        # d = 1
        exponent = repeat(i)
        for a in range(2, limit + 1, _RUN):
            b = min(a + _RUN, limit + 1)
            values[a:b] = map(add, values[a:b], map(pow, range(a, b), exponent))
        yield values


def dirichlet_coefficients(n: int, limit: int) -> list[int]:
    """First `limit` coefficients of zeta(s) zeta(s-1) ... zeta(s-n+1).

    Starts from the all-ones stream of zeta(s) and convolves in the stream
    m -> m^i for each shift i = 1 .. n-1, in place in one list:

        a_i(x) = sum over d | x of a_{i-1}(d) * (x/d)^i.

    The term d = x, with (x/d)^i = 1, is the entry already there.  Every
    other divisor d <= limit/2 adds a_{i-1}(d) * q^i into entry d*q for
    q >= 2, as slice updates split at r = isqrt(limit).  Each d must be read
    before anything writes to it, and every write lands on entries already
    read:

      * d > r in blocks lo < d <= hi < 2(lo + 1), highest block first: each
        q >= 2 adds q^i times the block's run of a(d) into entries q*d, which
        lie above hi;
      * d = r down to 2: each adds a(d) times the run of q^i into entries
        d*q, which lie above d;
      * d = 1 last, adding x^i to every x >= 2.

    Entry m of the returned list is the sublattice count f_n(m); entry 0
    is 0.  Each shift is O(M log M), and besides the result holds the powers
    q^i up to limit/2.  A limit above MAX_DIRICHLET_LIMIT, or a cost above
    MAX_DIRICHLET_CELLS, raises CapacityError before anything is allocated.
    The list is the last item of `_dirichlet_levels(n, limit)`, whose
    earlier items are the coefficients for each smaller n.
    """
    for values in _dirichlet_levels(n, limit):
        pass
    return values


def count_by_dirichlet(n: int, m: int) -> CountResult:
    """Read the sublattice count off the Dirichlet coefficient stream."""
    return CountResult(dirichlet_coefficients(n, m)[m], Method.DIRICHLET)
