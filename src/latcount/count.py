"""The number of index-m sublattices of Z^n, by four independent routes.

All four methods compute the same multiplicative function:

  * factorization sum  -- fold d_1^0 d_2^1 ... d_n^(n-1) over the ordered
    factorizations d_1 ... d_n = m;
  * recursion          -- f_n(m) = sum over d | m of d * f_(n-1)(d), with
    f_1 identically 1;
  * Gruber products    -- two closed-form products over the prime
    factorization of m, evaluated with checked exact divisions;
  * Dirichlet          -- coefficient extraction from the zeta-factor
    convolution (lives in latcount.series).

They are provably equal, so `count_all_methods` treats any disagreement as
an internal bug and raises DiscrepancyError.  A single count returns a
`CountResult` with its work counters; a sweep, `count_table`, yields plain
ints and carries no counters.

Factorization-sum and Dirichlet each have one body, which a single count,
`count_table` and `count_all_methods` all reach.  Factorization-sum takes the
divisor lattice as an argument: a `DivisorIndex` of m for one count or an
over-budget sweep, one divisor table for any other sweep.  It walks the
tuples in one loop over a list of pending prefixes, at most (n - 2) * tau(m)
of them for n >= 3, so no call depth grows with n, and still adds every
tuple on its own; the last two parts of a tuple multiply to the quotient q
their prefix leaves, so they are added as q^(n-2) times the sum of q's
divisors.  A Gruber sweep runs the single count once per prime power
p^r <= max_m, and multiplies: each other m, split as p^r * rest by its
least prime p, takes the product of two values already made.  It finds p
by one trial loop per m, under the bound read once per sweep, and reads no
divisor list.  The recursion has two loops over the same recurrence,
which cross-check each other.  A single count fills one level at a time over
the divisors of m, each reading its own divisor list from a `DivisorIndex`.
A sweep turns each level round: every d adds d * f_(k-1)(d) into its
multiples as one slice update, so it reads no divisor list, and neither
`factorize` nor the divisor table.  One rule, `left_out_methods`, decides
which methods `count_all_methods` skips, and the same rule refuses an
over-cap enumeration.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, mul
from typing import Iterator, Sequence

from .arith import DivisorIndex, _divisor_table, _divisor_table_size, _least_prime, factorize
from .arith import trial_division_bound
from .core import CapacityError, CountResult, DiscrepancyError, ExactnessError, Method, check_args
from .core import int_text
from .hnf import DEFAULT_ENUMERATION_CAP, count_by_enumeration
from .series import MAX_DIRICHLET_CELLS, MAX_DIRICHLET_LIMIT, _dirichlet_cells
from .series import count_by_dirichlet, dirichlet_coefficients

__all__ = [
    "CountResult",
    "Method",
    "count_all_methods",
    "count_by_factorization_sum",
    "count_by_gruber",
    "count_by_recursion",
    "count_table",
    "run_count",
]


def count_by_factorization_sum(n: int, m: int) -> CountResult:
    """Sum d_1^0 d_2^1 ... d_n^(n-1) over all ordered factorizations of m."""
    check_args(n, m)
    return _factorization_sum(n, m, DivisorIndex(m))


def _factorization_sum(n: int, m: int, index: DivisorIndex | list[list[int]]) -> CountResult:
    """count_by_factorization_sum, with the divisor lists read from index.

    One loop over a list of pending prefixes d_1 ... d_i, each held as the
    quotient q still to be factored, the exponent i of the next part and the
    prefix's weight w = d_1^0 ... d_i^(i-1).  A quotient of 1 is one tuple of
    weight w; a prefix of n - 2 parts adds its last two parts as one sum over
    the divisors of q: since d_(n-1) * d_n = q, each such tuple weighs
    w * q^(n-2) * d_n, so the prefix adds w * q^(n-2) * sigma(q), and every
    tuple still adds its own last part d_n.  For n >= 3 the list holds at
    most (n - 2) * tau(m) prefixes.
    """
    if n == 1:
        return CountResult(1, Method.FACTORIZATION_SUM, work_stats={"tuples": 1})
    total = 0
    tuples = 0
    last = n - 2
    # Each repeat is endless, so one per exponent serves every prefix.
    exponents = [repeat(i) for i in range(n - 1)]
    pending = [(m, 0, 1)]
    pop = pending.pop
    push = pending.extend
    while pending:
        q, i, w = pop()
        if q == 1:
            total += w
            tuples += 1
            continue
        divs = index[q]
        if i == last:
            # d^(n-2) * (q/d)^(n-1) = q^(n-2) * (q/d), and the cofactors q/d are divs again.
            total += w * q**i * sum(divs)
            tuples += len(divs)
        else:
            # divs is sorted, so reversed(divs) is the cofactors q // d in the order of divs.
            weights = map(mul, repeat(w), map(pow, divs, exponents[i]))
            push(zip(reversed(divs), exponents[i + 1], weights))
    return CountResult(total, Method.FACTORIZATION_SUM, work_stats={"tuples": tuples})


def count_by_recursion(n: int, m: int) -> CountResult:
    """Apply f_n(m) = sum_{d | m} d * f_(n-1)(d) down to the base f_1 = 1.

    A rank-1 group has exactly one subgroup of each index, hence the base
    case.  Levels are filled bottom-up over the divisors of m; each divisor
    d reads its own divisors from one `DivisorIndex` of m, and the memo
    table and the index live only for the duration of this call.
    """
    check_args(n, m)
    index = DivisorIndex(m)
    divs = index[m]
    # Largest first, so that each entry is filtered from a parent already made.
    sub_divisors = [index[d] for d in reversed(divs)][::-1]
    values = _recursion_levels(n, divs, sub_divisors)
    visits = (n - 1) * sum(map(len, sub_divisors))
    return CountResult(values[m], Method.RECURSION, work_stats={"divisor_visits": visits})


def _recursion_table(n: int, max_m: int) -> list[int]:
    """f_n(m) for every m <= max_m, at index m - 1, each level pushed into the multiples.

    Level k starts from d * f_(k-1)(d) at every d and then, for d from
    max_m / 2 down to 1, adds entry d into every proper multiple of d, so
    that entry m ends as the sum over d | m of d * f_(k-1)(d).  Entry d is
    read before any of its own divisors write to it.  No divisor list is
    made.
    """
    values = [0] + [1] * max_m
    for _ in range(n - 1):
        values = list(map(mul, range(max_m + 1), values))
        for d in range(max_m // 2, 0, -1):
            values[2 * d :: d] = map(values[d].__add__, values[2 * d :: d])
    return values[1:]


def _recursion_levels(
    n: int, nodes: Sequence[int], sub_divisors: list[list[int]]
) -> dict[int, int]:
    """f_n(d) for each node d, whose divisors are the matching entry of sub_divisors.

    The nodes are closed under divisors, and each level k holds f_k at every
    node, d * f_(k-1)(d) summed over the node's divisors d.
    """
    values = dict.fromkeys(nodes, 1)
    for _ in range(n - 1):
        values = {
            d: sum(map(mul, sub, map(values.__getitem__, sub)))
            for d, sub in zip(nodes, sub_divisors)
        }
    return values


def count_by_gruber(n: int, m: int) -> CountResult:
    """Evaluate both closed-form products over the prime factorization of m.

    For m = p_1^r_1 ... p_k^r_k the count is

        prod_i prod_{j=1..r_i} (p_i^(n+j-1) - 1) / (p_i^j - 1)
      = prod_i prod_{j=1..n-1} (p_i^(r_i+j) - 1) / (p_i^j - 1).

    Each running per-prime product is an integer, so the divisions are
    performed stepwise and checked; an inexact division or a mismatch
    between the two forms raises ExactnessError (an implementation bug,
    never bad input).
    """
    check_args(n, m)
    factors = factorize(m)

    def local(form: str, p: int, s: int, top: int) -> int:
        # prod_{j=1..top} (p^(s+j) - 1) / (p^j - 1), one checked division at a time
        value = 1
        for j in range(1, top + 1):
            value, remainder = divmod(value * (p ** (s + j) - 1), p**j - 1)
            if remainder:
                raise ExactnessError(
                    f"inexact division in {form} product form at p={p}, j={j} (n={n}, m={m})"
                )
        return value

    first = second = 1
    for p, r in factors:
        first *= local("first", p, n - 1, r)
    for p, r in factors:
        second *= local("second", p, r, n - 1)

    if first != second:
        raise ExactnessError(
            f"product forms disagree for n={n}, m={m}: {first} versus {second}"
        )
    return CountResult(first, Method.GRUBER)


def _gruber_table(n: int, max_m: int) -> Iterator[int]:
    """f_n(m) for every m <= max_m, by count_by_gruber at each prime power.

    Each m >= 2 is split as p^r * rest, p its least prime, found by one trial
    loop under the bound read once for the whole sweep.  A prime power's
    value is its single count, so both product forms are checked once per
    prime power; any other m multiplies the values of p^r and rest, both
    already made.  Values come out as they are made, so a refusal at m
    follows every value before it.
    """
    limit = trial_division_bound()
    values = [0, 1]
    yield 1
    for m in range(2, max_m + 1):
        p = _least_prime(m, limit)
        rest = m // p
        while rest % p == 0:
            rest //= p
        if rest == 1:
            values.append(count_by_gruber(n, m).value)
        else:
            values.append(values[m // rest] * values[rest])
        yield values[m]


def check_enumeration_size(n: int, m: int, advice: str = "") -> None:
    """Refuse with CapacityError an enumeration that left_out_methods leaves out.

    advice ends the error's message.  f_1(m) = 1, so n = 1 is never refused,
    and m is not factored for it.
    """
    if n > 1:
        reason = left_out_methods(n, m, count_by_gruber(n, m).value).get(Method.HNF)
        if reason:
            raise CapacityError(
                f"enumeration of (n={n}, m={int_text(m)}) {reason.removeprefix('it ')}{advice}"
            )


_DISPATCH = {
    Method.FACTORIZATION_SUM: count_by_factorization_sum,
    Method.RECURSION: count_by_recursion,
    Method.GRUBER: count_by_gruber,
    Method.DIRICHLET: count_by_dirichlet,
    Method.HNF: count_by_enumeration,
}

# A factorization-sum sweep's divisor table holds sum over m <= max_m of tau(m)
# pointers.  Above this many (max_m of about 8.7 * 10**4, about 17 MB),
# count_table runs a single count, with its own DivisorIndex, per m instead.
MAX_DIVISOR_TABLE_POINTERS = 10**6

# Every method but enumeration, whose work is the count itself.
FORMULA_METHODS = (Method.DIRICHLET, Method.FACTORIZATION_SUM, Method.GRUBER, Method.RECURSION)


def run_count(n: int, m: int, method: Method | str) -> CountResult:
    """Run the single named method, refusing an over-cap enumeration before its first matrix."""
    method = Method(method)
    if method is Method.HNF:
        check_enumeration_size(n, m)
    return _DISPATCH[method](n, m)


def count_table(n: int, max_m: int, method: Method | str) -> Iterator[int]:
    """The values f_n(1) .. f_n(max_m) of one method, in order of m, as plain ints.

    Dirichlet fills the whole table from one convolution pass before this
    returns, and so does the recursion, one pass per level that pushes each
    d's term into its multiples, with no divisor list.
    Gruber runs one pass over m, as the values are consumed: a single
    count per prime power, and a product of two earlier values for any other
    m (see `_gruber_table`).
    Factorization-sum runs the body of a single count once per m, as the
    values are consumed, with every m's divisor lists read from one divisor
    table, made before this returns and held by the iterator.  Above
    MAX_DIVISOR_TABLE_POINTERS pointers no table is made, and it runs a
    single count per m, each with its own DivisorIndex.  Every other method
    runs once per m, as the values are consumed.
    Enumeration first checks every m's count against the default cap, so an
    over-cap m is refused before the first matrix of any.
    """
    check_args(n, max_m)
    method = Method(method)
    ms = range(1, max_m + 1)
    if method is Method.DIRICHLET:
        return iter(dirichlet_coefficients(n, max_m)[1:])
    if method is Method.RECURSION:
        return iter(_recursion_table(n, max_m))
    if method is Method.GRUBER:
        return _gruber_table(n, max_m)
    if method is Method.FACTORIZATION_SUM:
        if _divisor_table_size(max_m) <= MAX_DIVISOR_TABLE_POINTERS:
            table = _divisor_table(max_m)
            return (_factorization_sum(n, m, table).value for m in ms)
    if method is Method.HNF:
        for m in ms:
            check_enumeration_size(n, m)
    count = _DISPATCH[method]
    return (count(n, m).value for m in ms)


def left_out_methods(n: int, m: int, count: int) -> dict[Method, str]:
    """The methods count_all_methods leaves out at (n, m), each with the reason.

    count is f_n(m), as the product formula gives it.  Dirichlet is left out
    by the two budgets of dirichlet_coefficients(n, m), so it never refuses.
    """
    left_out = {}
    cells = _dirichlet_cells(n, m)
    if m > MAX_DIRICHLET_LIMIT:
        left_out[Method.DIRICHLET] = f"m={int_text(m)} is above its limit {MAX_DIRICHLET_LIMIT}"
    elif cells > MAX_DIRICHLET_CELLS:
        left_out[Method.DIRICHLET] = (
            f"it would cost {cells} cells in its convolutions, "
            f"above the limit {MAX_DIRICHLET_CELLS}"
        )
    if count > DEFAULT_ENUMERATION_CAP:
        left_out[Method.HNF] = (
            f"it would emit {int_text(count)} matrices, "
            f"above the default cap {DEFAULT_ENUMERATION_CAP}"
        )
    return left_out


def count_all_methods(n: int, m: int) -> list[CountResult]:
    """Run every applicable method; raise DiscrepancyError unless all values agree.

    Gruber always runs, and its value decides which of the others
    left_out_methods leaves out: enumeration above DEFAULT_ENUMERATION_CAP
    matrices, Dirichlet above MAX_DIRICHLET_LIMIT or MAX_DIRICHLET_CELLS.
    Results come back sorted by method name so the aggregation order never
    depends on evaluation order.
    """
    gruber = count_by_gruber(n, m)
    left_out = left_out_methods(n, m, gruber.value)
    others = (method for method in Method if method is not Method.GRUBER and method not in left_out)
    results = [gruber, *(_DISPATCH[method](n, m) for method in others)]
    results.sort(key=attrgetter("method"))
    if len({r.value for r in results}) > 1:
        raise DiscrepancyError(n, m, [(r.method.value, r.value) for r in results])
    return results
