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

They are provably equal, so `check_agreement` treats any disagreement as
an internal bug and raises DiscrepancyError.

Each method has one body, which a single count, `count_table` and
`count_all_methods` all reach.  Factorization-sum and recursion take the
divisor lattice as an argument: a `DivisorIndex` of m for one count or an
over-budget sweep, one divisor table for any other sweep.  Factorization-sum
walks the tuples in one loop over a list of pending prefixes, at most
(n - 2) * tau(m) of them for n >= 3, so no call depth grows with n, and
still adds every tuple on its own.  One rule, `left_out_methods`, decides
which methods `count_all_methods` skips, and the same rule refuses an
over-cap enumeration.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, mul
from typing import Iterable, Iterator

from .arith import DivisorIndex, _divisor_table, _divisor_table_size, factorize
from .core import CapacityError, CountResult, DiscrepancyError, ExactnessError, Method, check_args
from .hnf import DEFAULT_ENUMERATION_CAP, count_by_enumeration
from .series import MAX_DIRICHLET_LIMIT, count_by_dirichlet, dirichlet_coefficients

__all__ = [
    "CountResult",
    "Method",
    "check_agreement",
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
    the divisors of q.  Every tuple is still its own addend, and for n >= 3
    the list holds at most (n - 2) * tau(m) prefixes.
    """
    if n == 1:
        return CountResult(1, Method.FACTORIZATION_SUM, work_stats={"tuples": 1})
    total = 0
    tuples = 0
    last = n - 2
    # Each repeat is endless, so one per exponent serves every prefix.
    exponents = [repeat(i) for i in range(n)]
    pending = [(m, 0, 1)]
    pop = pending.pop
    push = pending.extend
    while pending:
        q, i, w = pop()
        if q == 1:
            total += w
            tuples += 1
            continue
        # divs is sorted, so reversed(divs) is the cofactors q // d in the order of divs.
        divs = index[q]
        powers = map(pow, divs, exponents[i])
        if i == last:
            total += w * sum(map(mul, powers, map(pow, reversed(divs), exponents[-1])))
            tuples += len(divs)
        else:
            push(zip(reversed(divs), exponents[i + 1], map(mul, repeat(w), powers)))
    return CountResult(total, Method.FACTORIZATION_SUM, work_stats={"tuples": tuples})


def count_by_recursion(n: int, m: int) -> CountResult:
    """Apply f_n(m) = sum_{d | m} d * f_(n-1)(d) down to the base f_1 = 1.

    A rank-1 group has exactly one subgroup of each index, hence the base
    case.  Levels are filled bottom-up over the divisors of m; each divisor
    d reads its own divisors from one `DivisorIndex` of m, and the memo
    table and the index live only for the duration of this call.
    """
    check_args(n, m)
    return _recursion(n, m, DivisorIndex(m))


def _recursion(n: int, m: int, index: DivisorIndex | list[list[int]]) -> CountResult:
    """count_by_recursion, with the divisor lists read from index."""
    divs = index[m]
    # Largest first, so that each entry is filtered from a parent already made.
    sub_divisors = [index[d] for d in reversed(divs)][::-1]
    values = dict.fromkeys(divs, 1)
    for _ in range(n - 1):
        values = {
            d: sum(map(mul, sub, map(values.__getitem__, sub)))
            for d, sub in zip(divs, sub_divisors)
        }
    visits = (n - 1) * sum(map(len, sub_divisors))
    return CountResult(values[m], Method.RECURSION, work_stats={"divisor_visits": visits})


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
    return CountResult(first, Method.GRUBER, work_stats={"primes": len(factors)})


def check_enumeration_size(n: int, m: int, advice: str = "") -> None:
    """Refuse with CapacityError an enumeration that left_out_methods leaves out.

    advice ends the error's message.  f_1(m) = 1, so n = 1 is never refused,
    and m is not factored for it.
    """
    if n > 1:
        reason = left_out_methods(m, count_by_gruber(n, m).value).get(Method.HNF)
        if reason:
            raise CapacityError(
                f"enumeration of (n={n}, m={m}) {reason.removeprefix('it ')}{advice}"
            )


_DISPATCH = {
    Method.FACTORIZATION_SUM: count_by_factorization_sum,
    Method.RECURSION: count_by_recursion,
    Method.GRUBER: count_by_gruber,
    Method.DIRICHLET: count_by_dirichlet,
    Method.HNF: count_by_enumeration,
}

# The two methods that walk the divisor lattice, each with the divisor lists
# passed in, for count_table's sweeps.
_SWEEPS = {Method.FACTORIZATION_SUM: _factorization_sum, Method.RECURSION: _recursion}

# A sweep's divisor table holds sum over m <= max_m of tau(m) pointers.  Above
# this many (max_m of about 8.7 * 10**4, about 17 MB), count_table builds a
# DivisorIndex per m instead.
MAX_DIVISOR_TABLE_POINTERS = 10**6

# Every method but enumeration, whose work is the count itself.
FORMULA_METHODS = (Method.DIRICHLET, Method.FACTORIZATION_SUM, Method.GRUBER, Method.RECURSION)


def run_count(n: int, m: int, method: Method | str) -> CountResult:
    """Run the single named method, refusing an over-cap enumeration before its first matrix."""
    method = Method(method)
    if method is Method.HNF:
        check_enumeration_size(n, m)
    return _DISPATCH[method](n, m)


def count_table(n: int, max_m: int, method: Method | str) -> Iterator[CountResult]:
    """The results of one method for m = 1 .. max_m, in order of m.

    Dirichlet fills the whole table from one convolution pass before this
    returns; every other method runs once per m, as the results are consumed.
    Factorization-sum and recursion run the bodies of a single count, with
    every m's divisor lists read from one divisor table, made before this
    returns, unless the table would hold more than MAX_DIVISOR_TABLE_POINTERS
    pointers; each m then gets its own DivisorIndex, as in a single count.
    Enumeration first checks every m's count against the default cap, so an
    over-cap m is refused before the first matrix of any.
    """
    check_args(n, max_m)
    method = Method(method)
    ms = range(1, max_m + 1)
    if method is Method.DIRICHLET:
        return (CountResult(value, method) for value in dirichlet_coefficients(n, max_m)[1:])
    if method in _SWEEPS:
        sweep = _SWEEPS[method]
        if _divisor_table_size(max_m) > MAX_DIVISOR_TABLE_POINTERS:
            return (sweep(n, m, DivisorIndex(m)) for m in ms)
        table = _divisor_table(max_m)
        return (sweep(n, m, table) for m in ms)
    if method is Method.HNF:
        for m in ms:
            check_enumeration_size(n, m)
    count = _DISPATCH[method]
    return (count(n, m) for m in ms)


def check_agreement(n: int, m: int, results: Iterable[CountResult]) -> list[CountResult]:
    """Sort the results by method name; raise DiscrepancyError unless all values agree."""
    results = sorted(results, key=attrgetter("method"))
    if len({r.value for r in results}) > 1:
        raise DiscrepancyError(n, m, [(r.method.value, r.value) for r in results])
    return results


def left_out_methods(m: int, count: int) -> dict[Method, str]:
    """The methods count_all_methods leaves out at index m, each with the reason.

    count is f_n(m), as the product formula gives it.
    """
    left_out = {}
    if m > MAX_DIRICHLET_LIMIT:
        left_out[Method.DIRICHLET] = f"m={m} is above its limit {MAX_DIRICHLET_LIMIT}"
    if count > DEFAULT_ENUMERATION_CAP:
        left_out[Method.HNF] = (
            f"it would emit {count} matrices, above the default cap {DEFAULT_ENUMERATION_CAP}"
        )
    return left_out


def count_all_methods(n: int, m: int) -> list[CountResult]:
    """Run every applicable method and insist that they agree.

    Gruber always runs, and its value decides which of the others
    left_out_methods leaves out: enumeration above DEFAULT_ENUMERATION_CAP
    matrices, Dirichlet above MAX_DIRICHLET_LIMIT.  Results come back sorted
    by method name so the aggregation order never depends on evaluation order.
    """
    gruber = count_by_gruber(n, m)
    left_out = left_out_methods(m, gruber.value)
    others = (method for method in Method if method is not Method.GRUBER and method not in left_out)
    return check_agreement(n, m, [gruber, *(_DISPATCH[method](n, m) for method in others)])
