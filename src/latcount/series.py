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

from collections.abc import Iterator, Sequence
from functools import reduce
from itertools import repeat
from math import isqrt
from operator import add, mul

from .arith import is_prime
from .core import MAX_PREDICTED_BYTES, MAX_PREDICTED_NS, CountResult, Method, UsageError
from .core import check_args, check_at_least, check_budget, int_bytes, power_bits
from .qcalc import QPolynomial, _grid_ns, _last_row_size, _row_bytes, gauss_binomial
from .qcalc import gauss_binomial_at


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
    gauss_binomial(k + K, k)'s last q-Pascal row, each a pointer to 0 or 1
    of 8 bytes; making the last takes three copies of it, and each monomial
    costs 120 bytes more.  Above MAX_PREDICTED_BYTES that raises
    CapacityError before the first monomial is made.
    """
    check_at_least(k, 0, "exponent k")
    check_at_least(truncation_order, 0, "truncation order")
    monomials = _last_row_size(k + truncation_order, k) + 3 * k * truncation_order
    work = f"geometric_factor({k}, {truncation_order}) would hold {{}} bytes in its monomials"
    check_budget(10 * monomials + 120 * (truncation_order + 1), MAX_PREDICTED_BYTES, work)
    return TSeries([QPolynomial.monomial(k * j) for j in range(truncation_order + 1)])


def _lhs_cells(n: int, truncation_order: int) -> int:
    """The coefficient cells of the products lhs_product(n, K) makes."""
    # Factor k (1 <= k < n) times the running product multiplies its t^i
    # coefficient, of degree i*(k-1), by q^(k*j) into k*j + i*(k-1) + 1 cells,
    # for every i + j <= K.  Over those pairs, j and i each sum to
    # K(K+1)(K+2)/6 and 1 sums to (K+1)(K+2)/2.
    K = truncation_order
    pairs = (K + 1) * (K + 2) // 2
    return (n - 1) ** 2 * (K * pairs // 3) + (n - 1) * pairs


def _lhs_ns(n: int, truncation_order: int) -> int:
    """The nanoseconds lhs_product(n, K)'s products take.

    About 100 ns for each coefficient cell, and 11000 ns for each of the n - 1
    products whatever its size, which alone bounds n at t-order 0.
    """
    return 100 * _lhs_cells(n, truncation_order) + 11000 * (n - 1)


def _check_lhs_budget(n: int, K: int) -> None:
    """Check lhs_product(n, K)'s arguments, and refuse its time above MAX_PREDICTED_NS."""
    check_args(n)
    check_at_least(K, 0, "truncation order")
    work = f"lhs_product({n}, {K}) would take {{}} ns in its products"
    check_budget(_lhs_ns(n, K), MAX_PREDICTED_NS, work)


def lhs_product(n: int, truncation_order: int) -> TSeries:
    """The product of geometric factors for k = 0 .. n-1, truncated.

    Its products touch (n-1)^2 K(K+1)(K+2)/6 + (n-1)(K+1)(K+2)/2 coefficient
    cells; their time, by `_lhs_ns`, above MAX_PREDICTED_NS raises
    CapacityError before the first product.  Each factor checks its own
    size as `geometric_factor` makes it, which binds at n = 1, where there
    are no products.
    """
    _check_lhs_budget(n, truncation_order)
    return reduce(TSeries.__mul__, (geometric_factor(k, truncation_order) for k in range(n)))


def rhs_sum(n: int, truncation_order: int) -> TSeries:
    """The q-binomial series: sum_{k=0..K} [n+k-1 choose k]_q t^k.

    Its t^k coefficient has degree k*(n-1), so the series holds as many
    coefficients as gauss_binomial(n-1+K, n-1)'s last q-Pascal row, and as
    many bytes by `_row_bytes`; while it grows, the last q-binomial's
    row, gauss_binomial(n-1+K, K)'s, is held as well.  Their bytes above
    MAX_PREDICTED_BYTES, or the time of every q-binomial's grid above
    MAX_PREDICTED_NS, raise CapacityError before the first coefficient is
    made.
    """
    check_args(n)
    check_at_least(truncation_order, 0, "truncation order")
    K = truncation_order
    nbytes = _row_bytes(n - 1 + K, n - 1) + _row_bytes(n - 1 + K, K)
    call = f"rhs_sum({n}, {K}) would"
    check_budget(nbytes, MAX_PREDICTED_BYTES, f"{call} hold {{}} bytes in its q-binomials")
    ns = sum(map(_grid_ns, range(n - 1, n + K), range(K + 1)))
    check_budget(ns, MAX_PREDICTED_NS, f"{call} take {{}} ns in its q-Pascal grids")
    return TSeries([gauss_binomial(n + k - 1, k) for k in range(K + 1)])


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


def _euler_ns(p: int, n: int, K: int) -> int:
    """The nanoseconds euler_factor(p, n, K) takes, with the printing of its lines.

    [n+k-1 choose k]_p < 4 p^(k(n-1)) <= 2^(a k + 2), a = (n-1) log2 p, read
    to 1/16 from the bits of p^16, so coefficient k has at most a k + 2 bits.
    Printing it takes about 2.5 ps a squared bit, as int -> str is
    quadratic, and each of its min(k, n-1) multiply-and-divide steps about
    20 fs a squared bit more, min(K, n-1) standing for every k.  Each line
    takes about 2000 ns more.  The squares, in sixteenths of bits, summed
    over k = 0 .. K, give this closed form.
    """
    a = (n - 1) * (p**16 - 1).bit_length()
    squares = a * a * K * (K + 1) * (2 * K + 1) // 6 + 32 * a * K * (K + 1) + 1024 * (K + 1)
    return squares * (2500 + 20 * min(K, n - 1)) // (256 * 10**6) + 2000 * (K + 1)


def euler_factor(p: int, n: int, truncation_order: int) -> list[int]:
    """The local factor at prime p: coefficient of p^(-s k) for k = 0 .. K.

    Entry k is the q-binomial [n+k-1 choose k] evaluated at p, i.e. the
    sublattice count at the prime power p^k.  Composite p would silently
    break the Euler-product interpretation, so it is rejected.  The time to
    compute and print the entries, by `_euler_ns`, above MAX_PREDICTED_NS
    raises CapacityError before the first entry is computed.
    """
    check_args(n)
    check_at_least(truncation_order, 0, "truncation order")
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    work = f"euler_factor({p}, {n}, {truncation_order}) would take {{}} ns to compute and print"
    check_budget(_euler_ns(p, n, truncation_order), MAX_PREDICTED_NS, work)
    return [gauss_binomial_at(n + k - 1, k, p) for k in range(truncation_order + 1)]


def _dirichlet_bytes(n: int, limit: int) -> int:
    """The bytes dirichlet_coefficients(n, limit)'s lists hold.

    The values are a list of limit + 1 slots, 10 bytes each at n = 1.  Above,
    each entry also holds an int of f_n(m) < m^n, and each shift makes its
    powers q^i, q <= limit/2, while the last shift's are held: two lists of
    half as many slots, each with an int of at most (n-1) bits(limit) bits.
    A slice update holds up to _RUN entries more, and the calls 20 kB.
    """
    ints = int_bytes(n * limit.bit_length()) + int_bytes((n - 1) * limit.bit_length())
    return 10 * (limit + 1) if n == 1 else (limit + 1 + min(limit, _RUN)) * (16 + ints) + 20_000


def _dirichlet_ns(n: int, limit: int) -> int:
    """The nanoseconds dirichlet_coefficients(n, limit)'s convolutions take.

    Each of the n - 1 shifts adds about limit ln(limit) products a(d) q^i,
    charged as limit bits(limit) cells.  A cell takes about 130 ns, and
    b^(3/2) / 170 ns more as its operands grow, b being the bits of
    limit^(n-1), which bounds them.
    """
    b = power_bits(limit.bit_length(), n - 1)
    return (n - 1) * limit * limit.bit_length() * (130 + b * isqrt(b) // 170)


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
    work = f"dirichlet_coefficients({n}, {limit}) would hold {{}} bytes in its lists"
    check_budget(_dirichlet_bytes(n, limit), MAX_PREDICTED_BYTES, work)
    work = f"dirichlet_coefficients({n}, {limit}) would take {{}} ns in its convolutions"
    check_budget(_dirichlet_ns(n, limit), MAX_PREDICTED_NS, work)
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
    q^i up to limit/2.  Its bytes above MAX_PREDICTED_BYTES, or its time
    above MAX_PREDICTED_NS, raise CapacityError before anything is
    allocated.
    The list is the last item of `_dirichlet_levels(n, limit)`, whose
    earlier items are the coefficients for each smaller n.
    """
    for values in _dirichlet_levels(n, limit):
        pass
    return values


def count_by_dirichlet(n: int, m: int) -> CountResult:
    """Read the sublattice count off the Dirichlet coefficient stream."""
    return CountResult(dirichlet_coefficients(n, m)[m], Method.DIRICHLET)
